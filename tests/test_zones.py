import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchswave.zones import (ZoneConfig, ZoneLabel, classify, cutoffs,
                             micro_weight, sharp_weight, smoothstep_down, theta,
                             theta_derivative)

CFG = ZoneConfig(N=1.0)


def chi_derivative(x, k, h=1e-3):
    """Central finite-difference derivative of order k of the cutoff profile."""
    if k == 0:
        return smoothstep_down(x)
    w = np.array([1.0])
    for _ in range(k):
        w = np.convolve(w, [1.0, -1.0])
    w = w / 2.0 ** k
    offs = np.arange(k, -k - 1, -2)
    return sum(wi * smoothstep_down(np.asarray(x) + oi * h) for wi, oi in zip(w, offs)) / h ** k


def test_theta_values():
    assert theta(CFG, 1.0) == 0.0
    assert theta(CFG, 0.1) == pytest.approx(9.0)
    assert theta(CFG, 0.0) == math.inf
    assert theta(CFG, 2.5) == 0.0


def test_theta_strictly_decreasing():
    xs = np.geomspace(1e-4, 1.0, 50)
    ths = [theta(CFG, x) for x in xs]
    assert all(a > b for a, b in zip(ths, ths[1:]))


def test_classify_examples_and_ties():
    assert classify(CFG, 0.0, 2.0) is ZoneLabel.HYP_LARGE
    assert classify(CFG, 100.0, 0.5) is ZoneLabel.HYP_SMALL
    assert classify(CFG, 0.0, 0.5) is ZoneLabel.DISS
    # boundary ties: diss wins, then hyp_small
    assert classify(CFG, 1.0, 0.5) is ZoneLabel.DISS          # (1+t)|xi| == N
    assert classify(CFG, 9.0, 1.0) is ZoneLabel.HYP_SMALL     # |xi| == N, in time zone
    # the boundary curve itself classifies as diss
    xi = 0.37
    assert classify(CFG, theta(CFG, xi), xi) is ZoneLabel.DISS


def test_cutoff_profile_shape():
    assert smoothstep_down(0.3) == 1.0
    assert smoothstep_down(2.7) == 0.0
    xs = np.linspace(0.0, 3.0, 301)
    vals = smoothstep_down(xs)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_profile_smoothness():
    # supplied derivatives up to order 4 exist and chi' <= 0 on a test grid
    xs = np.linspace(0.5, 2.5, 101)
    for k in range(1, 5):
        vals = chi_derivative(xs, k, h=1e-2)
        assert np.all(np.isfinite(vals))
    assert np.all(chi_derivative(xs, 1, h=1e-4) <= 1e-6)


@given(t=st.floats(0, 1e6), xi=st.floats(0, 50))
@settings(max_examples=300, deadline=None)
def test_partition_of_unity(t, xi):
    pd, ps, pl = cutoffs(CFG, t, xi)
    assert abs(pd + ps + pl - 1.0) <= 1e-14
    for p in (pd, ps, pl):
        assert -1e-15 <= p <= 1.0 + 1e-15


def test_cutoffs_pure_regions():
    pd, ps, pl = cutoffs(CFG, 0.0, 0.4)
    assert (pd, ps, pl) == (1.0, 0.0, 0.0)
    pd, ps, pl = cutoffs(CFG, 3.0, 2.5)
    assert (pd, ps, pl) == (0.0, 0.0, 1.0)


def test_micro_weight_values_and_bounds():
    assert micro_weight(CFG, 3.0, 0.01) == pytest.approx(1.0 / 4.0)
    assert micro_weight(CFG, 5.0, 2.5) == pytest.approx(2.5)
    # grid sweep across the transition region
    ts = np.geomspace(0.1, 1e5, 60)
    xis = np.geomspace(1e-5, 30.0, 60)
    for t in ts:
        h = micro_weight(CFG, t, xis)
        assert np.all(h > 0)
        assert np.all((1.0 + t) * h >= CFG.N * (1 - 1e-12))
        assert np.all(h >= xis / 2.0 * (1 - 1e-12))


def test_sharp_weight_matches_zones():
    assert sharp_weight(CFG, 3.0, 0.01) == pytest.approx(0.25)
    assert sharp_weight(CFG, 1e4, 0.5) == pytest.approx(0.5)
    xi = 0.2
    th = theta(CFG, xi)
    assert sharp_weight(CFG, th, xi) == pytest.approx(xi, rel=1e-12)


def test_theta_derivative_bounds_by_finite_differences():
    # |d^a theta| <= C |xi|^(-1-a) with the closed form as the oracle
    for xi in np.geomspace(1e-3, 0.8, 9):
        h = 1e-4 * xi
        d1 = (theta(CFG, xi + h) - theta(CFG, xi - h)) / (2 * h)
        d2 = (theta(CFG, xi + h) - 2 * theta(CFG, xi) + theta(CFG, xi - h)) / h ** 2
        assert d1 == pytest.approx(theta_derivative(CFG, xi, 1), rel=1e-5)
        assert d2 == pytest.approx(theta_derivative(CFG, xi, 2), rel=1e-3)
        assert abs(d1) <= 1.01 * CFG.N * xi ** -2
        assert abs(d2) <= 2.02 * CFG.N * xi ** -3


def test_zone_config_validation():
    with pytest.raises(ValueError):
        ZoneConfig(N=0.0)
