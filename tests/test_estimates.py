import math

import numpy as np
import pytest

from fuchswave.coeffs import CoefficientModel, classify_regime, example_bounded
from fuchswave.errors import (InvalidWindowError, RegimeUnsupportedError, ResolutionError,
                              SupportError)
from fuchswave.estimates import (DataSpec, bump, energy_trace, fit_decay,
                                 grid_for_data, improved_u_bound, lp_lq_rate,
                                 moment_experiment, moment_parameters,
                                 radial_grid, radial_norm, scattering_operator,
                                 scattering_residual, sharpness_limit)
from fuchswave.modal import evolve_state, state_propagator_checkpoints
from fuchswave.zones import ZoneConfig

CFG = ZoneConfig(N=1.0)
FREE = CoefficientModel(b0=0.0, m0=0.0)
EX31 = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)


def test_fit_decay_exact_power_law():
    times = np.geomspace(1.0, 1e5, 80)
    values = (1.0 + times) ** -1.0
    fit = fit_decay(times, values, window=(10.0, 1e5), predicted=-1.0)
    assert abs(fit.exponent + 1.0) < 1e-9
    assert fit.verdict and fit.rms_residual < 1e-12


def test_fit_decay_window_validation():
    times = np.geomspace(1.0, 100.0, 30)
    with pytest.raises(InvalidWindowError):
        fit_decay(times, np.ones_like(times), window=(200.0, 300.0))
    vals = np.ones_like(times)
    vals[5] = 0.0
    with pytest.raises(InvalidWindowError):
        fit_decay(times, vals, window=(1.0, 100.0))


def test_bump_support_is_exact():
    assert bump(0.0) == pytest.approx(math.exp(-1.0))
    assert bump(1.0) == 0.0 and bump(-1.2) == 0.0
    spec = DataSpec(kind="ring", center=2.0, width=0.5)
    r = np.array([1.4, 1.6, 2.0, 2.4, 2.6])
    prof = spec.profile(r)
    assert prof[0] == 0.0 and prof[-1] == 0.0
    assert prof[2] > 0.0


def test_gaussian_support_interval_holds_all_but_exp_minus_64_of_the_profile():
    # a gaussian has no compact support: its interval ends at 8 widths,
    # where the profile has fallen to exp(-64)
    spec = DataSpec(kind="gaussian", width=0.5)
    assert spec.support_interval() == (0.0, 4.0)
    assert spec.profile(4.0) == math.exp(-64.0)


def test_radial_norm_against_closed_form():
    # || exp(-r^2/2) ||^2 in n dimensions: int_0^inf e^{-r^2} r^{n-1} dr
    # equals Gamma(n/2)/2
    r = np.linspace(1e-7, 14.0, 20001)
    vals = np.exp(-(r ** 2) / 2.0)
    for n, omega in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        exact = omega / (2.0 * math.pi) ** n * math.gamma(n / 2.0) / 2.0
        assert radial_norm(vals, r, n) ** 2 == pytest.approx(exact, rel=1e-6)
        # a (times x r) array: one norm per row, bit for bit the row's own
        rows = np.outer([1.0, 0.5, 3.0], vals) * np.exp(1j * r)
        assert np.array_equal(radial_norm(rows, r, n),
                              [radial_norm(row, r, n) for row in rows])


def test_energy_trace_free_conservation_and_zero_data():
    data = DataSpec(kind="ring", center=2.0, width=0.7, amp0=1.0, amp1=0.6)
    grid = grid_for_data(data, lo=0.5, hi=8.0, n_points=64)
    times = np.array([0.0, 3.0, 30.0, 300.0])
    tr = energy_trace(FREE, CFG, data, grid, times, n_dim=1, rtol=1e-11)
    energy = tr.grad ** 2 + tr.ut ** 2
    assert np.allclose(energy, energy[0], rtol=1e-9)

    zero = DataSpec(kind="ring", center=2.0, width=0.7, amp0=0.0, amp1=0.0)
    tz = energy_trace(FREE, CFG, zero, grid, times, n_dim=1)
    assert np.all(tz.values == 0.0)


def test_energy_trace_rescaled_by_lambda_is_bounded():
    # integrable-perturbation family in the admitted regime: lam(t) ||U(t)||
    # stays within a fixed band (no growth, no extra decay)
    data = DataSpec(kind="ring", center=2.0, width=0.7, amp0=1.0, amp1=0.6)
    grid = grid_for_data(data, lo=0.5, hi=8.0, n_points=64)
    times = np.geomspace(1.0, 300.0, 25)
    tr = energy_trace(EX31, CFG, data, grid, times, n_dim=1, rtol=1e-10)
    scaled = np.asarray(EX31.lam(times)) * tr.values
    assert scaled.max() / scaled.min() < 1.5


def test_energy_trace_resolution_guard():
    data = DataSpec(kind="ring", center=2.0, width=0.05)
    coarse = radial_grid(1e-2, 8.0, 40)  # cannot resolve the thin ring
    with pytest.raises(ResolutionError):
        energy_trace(FREE, CFG, data, coarse, [0.0, 1.0], n_dim=1)


def test_sharpness_free_limit_equals_initial_energy():
    data = DataSpec(kind="ring", center=2.5, width=0.8, amp0=1.0, amp1=0.5)
    grid = grid_for_data(data, lo=1.01, hi=8.0, n_points=48)
    rep = sharpness_limit(FREE, CFG, data, grid, horizon=256.0, n_dim=1)
    u0, u1 = data.sample(grid)
    initial = radial_norm(grid * u0, grid, 1) ** 2 + radial_norm(u1, grid, 1) ** 2
    assert rep.limit == pytest.approx(initial, rel=1e-8)
    assert rep.variation < 1e-8 and rep.passed

    doubled = DataSpec(kind="ring", center=2.5, width=0.8, amp0=2.0, amp1=1.0)
    rep2 = sharpness_limit(FREE, CFG, doubled, grid, horizon=256.0, n_dim=1)
    assert rep2.limit == pytest.approx(4.0 * rep.limit, rel=1e-9)


def test_sharpness_support_validation():
    low = DataSpec(kind="ring", center=0.8, width=0.5)
    grid = radial_grid(1e-2, 8.0, 128)
    with pytest.raises(SupportError):
        sharpness_limit(EX31, CFG, low, grid, horizon=100.0)


def test_moment_parameters_arithmetic():
    model = CoefficientModel(b0=4.0, m0=0.0)
    kappa, kp, zorder = moment_parameters(model, n_dim=1)
    assert kappa == pytest.approx(2.0)    # 2 kappa = 1 + sqrt((b0-1)^2 - 4 m0)
    assert kp == 2 and zorder == 4
    with pytest.raises(RegimeUnsupportedError):
        moment_parameters(CoefficientModel(b0=2.0, m0=2.0), n_dim=1)
    # sigma > 1 requires strict inequality: recorded slack widens kappa
    k2, _, _ = moment_parameters(CoefficientModel(b0=4.0, m0=0.0, sigma=1.5), 1)
    assert k2 == pytest.approx(2.1)


def test_moment_weighted_integral_finite():
    spec = DataSpec(kind="moment", zero_order=4, support=0.25)
    r = radial_grid(1e-6, 0.3, 600)
    prof = spec.profile(r)
    integrand = (r ** -2.0 * prof) ** 2  # kappa = 2, n = 1
    val = np.trapezoid(integrand, r)
    assert math.isfinite(val) and val > 0.0


def test_lp_lq_rate_values():
    model = CoefficientModel(b0=2.0, m0=2.0)
    assert lp_lq_rate(model, 2.0, 3) == (pytest.approx(-1.0), pytest.approx(0.0))
    rate, reg = lp_lq_rate(model, 1.2, 3)
    assert rate == pytest.approx(-1.0 - 2.0 / 3.0)
    assert reg == pytest.approx(2.0)
    with pytest.raises(ValueError):
        lp_lq_rate(model, 1.0, 3)
    with pytest.raises(RegimeUnsupportedError):
        lp_lq_rate(CoefficientModel(b0=4.0, m0=0.0), 2.0, 3)


def test_scattering_operator_free_is_identity_above_N():
    op = scattering_operator(FREE, CFG, [1.0, 2.0, 4.0], horizon=64.0, tol=1e-6)
    for W in op.W:
        assert np.linalg.norm(W - np.eye(2), 2) < 1e-7  # oracle noise floor
    assert np.linalg.svd(op.W, compute_uv=False)[:, 0].max() == pytest.approx(1.0, rel=1e-7)


def test_scattering_operator_low_sample_rejected():
    with pytest.raises(ValueError):
        scattering_operator(FREE, CFG, [1e-4], eps=1e-3)
    with pytest.raises(RegimeUnsupportedError):
        scattering_operator(CoefficientModel(b0=4.0, m0=0.0), CFG, [1.0])


def test_scattering_operator_bounded_samples():
    op = scattering_operator(EX31, CFG, [0.5, 1.0, 3.0], horizon=2048.0, tol=5e-2)
    assert math.isfinite(np.linalg.svd(op.W, compute_uv=False)[:, 0].max())
    assert np.all(op.last_increment < 5e-2)


def test_basis_evolution_carries_both_columns_in_one_integration():
    # both columns of Phi(t,0), which the scattering code uses, come from one
    # evolve_state call in which each frequency enters twice; an unsorted grid
    # over 7 octave bands checks that the columns are split back onto the
    # right frequencies
    r = np.random.default_rng(0).permutation(np.geomspace(0.05, 4.0, 40))
    times = 2.0 ** np.arange(7)
    rtol = 1e-10
    tol = 1e-7  # measured 3e-9 after up to 256 rad of phase at rtol 1e-10

    def close(a, b):
        return np.abs(a - b).max() <= tol * np.abs(b).max()

    def basis(model):
        Phi = state_propagator_checkpoints(model, r, times, rtol=rtol, atol=rtol * 1e-6)
        return Phi[..., 0, 0], Phi[..., 1, 0], Phi[..., 0, 1], Phi[..., 1, 1]

    ua, va, ub, vb = basis(FREE)
    ph = np.multiply.outer(times, r)
    assert close(ua, np.cos(ph)) and close(ub, np.sin(ph) / r)
    assert close(va, -r * np.sin(ph)) and close(vb, np.cos(ph))

    ones, zero = np.ones(r.size), np.zeros(r.size)
    ua, va, ub, vb = basis(EX31)
    u1, v1 = evolve_state(EX31, r, ones, zero, times, rtol=rtol)
    u2, v2 = evolve_state(EX31, r, zero, ones, times, rtol=rtol)
    assert close(ua, u1) and close(va, v1) and close(ub, u2) and close(vb, v2)


def test_scattering_residual_free_vanishes_and_scales():
    data = DataSpec(kind="ring", center=1.5, width=0.8, amp0=1.0, amp1=0.4)
    grid = grid_for_data(data, lo=0.3, hi=4.0, n_points=32, n_refine=60)
    res = scattering_residual(FREE, CFG, data, grid, horizon=64.0)
    assert res.passed
    assert res.residual_dt.max() < 1e-6

    damped = scattering_residual(EX31, CFG, data, grid, horizon=64.0)
    scaled_data = DataSpec(kind="ring", center=1.5, width=0.8, amp0=3.0, amp1=1.2)
    scaled = scattering_residual(EX31, CFG, scaled_data, grid, horizon=64.0)
    ratio = scaled.residual_dt[:4] / damped.residual_dt[:4]
    assert np.allclose(ratio, 3.0, rtol=1e-6)


def test_improved_u_bound_guards():
    data = DataSpec(kind="gaussian", width=1.0, amp0=1.0, amp1=0.5)
    grid = radial_grid(1e-4, 8.0, 128)
    with pytest.raises(RegimeUnsupportedError):
        improved_u_bound(CoefficientModel(b0=2.0, m0=2.0, sigma=1.5), CFG,
                         data, grid)
    fit = improved_u_bound(CoefficientModel(b0=2.0, m0=2.0), CFG, data, grid,
                           window=(50.0, 2e3))
    assert fit.predicted == pytest.approx(-0.5)
    assert fit.exponent <= fit.predicted + 0.05
