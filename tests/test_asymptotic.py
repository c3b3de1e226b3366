import math
from dataclasses import dataclass

import numpy as np
import pytest

from fuchswave import asymptotic
from fuchswave.asymptotic import FuchsSystem, hartman_wintner, levinson_solve
from fuchswave.coeffs import CoefficientModel, example_log
from fuchswave.errors import DichotomyViolationError, HorizonError, NeedsLargerStartError
from fuchswave.experiments import modal_fuchs_system
from fuchswave.zones import ZoneConfig, theta
import oracles
from oracles import (check_dichotomy, hw_identity_residual, integrate_fuchs,
                     remainder_log_integral)


def const_system(mus, R_fn=None):
    mus = np.asarray(mus, dtype=complex)
    d = mus.size
    return FuchsSystem(dimension=d,
                       mu=lambda t: np.broadcast_to(mus, np.shape(t) + (d,)),
                       R=R_fn or (lambda t: np.zeros(np.shape(t) + (d, d), dtype=complex)))


def matrices(t, rows):
    """The matrices with entries rows[i][j] (numbers or arrays of the shape
    of t) at the times t: shape t.shape + (len(rows), len(rows))."""
    shape = np.shape(t)
    return np.stack([np.stack([np.broadcast_to(e, shape) for e in row], axis=-1)
                     for row in rows], axis=-2).astype(complex)


def contracting_R(t):
    return matrices(t, [[0.0, 0.2 / t ** 0.5], [0.1 / t, 0.0]])


def test_dichotomy_constant_distinct():
    sys = const_system([0.0, -1.0])
    v = check_dichotomy(sys, (0, 1), T=1e6)
    assert v.strong and v.alternative == "bounded_below"
    assert v.C_plus == pytest.approx(1.0)
    v = check_dichotomy(sys, (1, 0), T=1e6)
    assert v.C_minus == pytest.approx(-1.0)


def test_dichotomy_equal_and_complex_pair():
    sys = const_system([2.0, 2.0])
    v = check_dichotomy(sys, (0, 1), T=1e4)
    assert v.alternative == "both" and not v.strong
    sys = const_system([-1.0 + 1j, -1.0 - 1j])
    v = check_dichotomy(sys, (0, 1), T=1e4)
    assert v.alternative == "both"   # real parts coincide: trivially bounded


def test_levinson_trivial_remainder():
    sys = const_system([0.5, -0.5])
    sol = levinson_solve(sys, k=0, t0=1.0, T=1e4, tol=1e-12)
    assert sol.iterations <= 2
    assert np.max(sol.residual_trace) < 1e-13
    t = 100.0
    assert np.allclose(sol(t), [t ** 0.5, 0.0], rtol=1e-9)


def test_levinson_nilpotent_example():
    # D = diag(0, -1), R = [[0, 1/t], [0, 0]]: the solution attached to the
    # decaying exponent approaches its unit direction with O(1/t) residual
    # (closed form: the cross term integrates to 1/(2t)); the one attached to
    # mu = 0 is an exact eigen-solution since R annihilates it
    def R(t):
        return matrices(t, [[0.0, 1.0 / t], [0.0, 0.0]])

    sys = const_system([0.0, -1.0], R_fn=R)
    sol0 = levinson_solve(sys, k=0, t0=1.0, T=1e5, tol=1e-12)
    assert np.max(sol0.residual_trace) < 1e-12

    sol = levinson_solve(sys, k=1, t0=1.0, T=1e5, tol=1e-12, n=20000)
    mask = (sol.grid_t > 1e2) & (sol.grid_t < 1e4)
    slope = np.polyfit(np.log(sol.grid_t[mask]),
                       np.log(sol.residual_trace[mask] + 1e-300), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
    probe = sol.grid_t[np.searchsorted(sol.grid_t, 1e3)]
    assert np.interp(np.log(probe), np.log(sol.grid_t), sol.residual_trace) \
        == pytest.approx(1.0 / (2.0 * probe), rel=0.01)
    # the constructed solution satisfies the original equation: propagating
    # its value forward with the direct oracle reproduces it (tolerance set
    # by the trapezoid resolution of the kernel quadratures)
    t0, t1 = 10.0, 1000.0
    E = integrate_fuchs(sys, t0, t1, rtol=1e-12)
    forward = E @ sol(t0)
    assert np.linalg.norm(forward - sol(t1)) / np.linalg.norm(sol(t1)) < 2e-6


def test_levinson_rates_bounded_by_contraction():
    sys = const_system([0.0, -2.0], R_fn=contracting_R)
    sol = levinson_solve(sys, k=1, t0=1.0, T=1e6, tol=1e-11)
    assert sol.contraction_bound < 0.5
    assert all(r <= sol.contraction_bound * 1.05 for r in sol.rates)


def test_levinson_contraction_precondition():
    def R(t):
        return matrices(t, [[0.0, 0.4], [0.4, 0.0]])  # not integrable

    sys = const_system([0.0, -1.0], R_fn=R)
    with pytest.raises(NeedsLargerStartError):
        levinson_solve(sys, k=0, t0=1.0, T=1e5)


def test_modal_fuchs_scale_invariant_exact_powers():
    # at xi = 0 the scale-invariant remainder vanishes: V_k = e_k t^(mu_k)
    model = CoefficientModel(b0=3.0, m0=0.0)
    cfg = ZoneConfig(N=1.0)
    sys, eigvals = modal_fuchs_system(model, cfg, xi=0.0)
    assert np.allclose(eigvals, [-3.0, -1.0])
    for k in (0, 1):
        sol = levinson_solve(sys, k, t0=1.0, T=1e4, tol=1e-12)
        assert np.max(sol.residual_trace) < 1e-12


def fundamental_from_basis(solutions, s):
    """E_V(t,s) = (V_1|..|V_d)(t) (V_1|..|V_d)(s)^{-1} plus the Hadamard bound
    ||E_V(t,s)|| <= C (t/s)^{max Re mu} certified on the sample grid."""
    d = len(solutions)
    Vs = np.stack([sol(s) for sol in solutions], axis=1)
    det = np.linalg.det(Vs)
    if abs(det) < 1e-12 * max(np.linalg.norm(Vs, 2), 1.0) ** d:
        raise np.linalg.LinAlgError("degenerate solution basis at the anchor time")
    Vs_inv = np.linalg.inv(Vs)

    # exponents from the stored integrals: Re mu_k ~ slope of mu_k_integral
    re_mu = [sol.mu_k_integral[-1].real / math.log(sol.grid_t[-1] / sol.grid_t[0])
             for sol in solutions]
    max_re = max(re_mu)
    # column growth constants M_k = sup ||V_k(t)|| (t/s)^{-Re mu_k}
    Ms = [float(np.max(np.linalg.norm(sol.values, axis=1)
                       / (sol.grid_t / s) ** rk)) for sol, rk in zip(solutions, re_mu)]
    hadamard = d * max(np.linalg.norm(Vs, axis=0)) ** (d - 1) / abs(det)
    C = sum(Ms) * hadamard

    def eval_at(t):
        cols = np.stack([sol(t) for sol in solutions], axis=1)
        return cols @ Vs_inv

    return eval_at, C, max_re


@dataclass
class ScalingReport:
    lambdas: tuple
    ratios: dict
    worst_ratio: float
    max_re: float


def scaling_uniformity(sys, lambdas, s, t, rtol=1e-10):
    """||E(lambda t, lambda s)|| <= C (t/s)^{max Re mu} with C independent of
    the scaling factor; reports the worst observed ratio."""
    mus = sys.mu(t)
    max_re = float(np.max(mus.real))
    ratios = {}
    for lam in lambdas:
        E = integrate_fuchs(sys, lam * s, lam * t, rtol=rtol)
        ratios[lam] = float(np.linalg.norm(E, 2) / (t / s) ** max_re)
    return ScalingReport(tuple(lambdas), ratios, max(ratios.values()), max_re)


def test_modal_fuchs_cross_module_agreement():
    # d = 2 constant-diagonal case against the direct oracle; the horizon
    # extends past the zone boundary where the remainder is zero-extended
    model = CoefficientModel(b0=3.0, m0=0.0)
    cfg = ZoneConfig(N=0.01)
    xi = 1e-4
    sys, _ = modal_fuchs_system(model, cfg, xi=xi)
    sol0 = levinson_solve(sys, 0, t0=1.0, T=400.0, tol=1e-12)
    sol1 = levinson_solve(sys, 1, t0=1.0, T=400.0, tol=1e-12)
    eval_E, C, max_re = fundamental_from_basis([sol0, sol1], s=1.0)
    E_direct = integrate_fuchs(sys, 1.0, 50.0, rtol=1e-12)
    assert np.linalg.norm(eval_E(50.0) - E_direct, 2) < 1e-8


def test_fundamental_from_basis_diagonal_case():
    sys = const_system([0.25, -1.5])
    sols = [levinson_solve(sys, k, t0=1.0, T=1e4, tol=1e-12) for k in (0, 1)]
    eval_E, C, max_re = fundamental_from_basis(sols, s=2.0)
    t = 200.0
    expected = np.diag([(t / 2.0) ** 0.25, (t / 2.0) ** -1.5])
    assert np.allclose(eval_E(t), expected, rtol=1e-8)
    assert max_re == pytest.approx(0.25, abs=1e-6)
    assert np.linalg.norm(eval_E(t), 2) <= C * (t / 2.0) ** max_re


def test_wronskian_power_law():
    def R(t):
        return matrices(t, [[0.0, 0.3 / t], [0.2 / t, 0.0]])

    sys = const_system([0.5, -1.0], R_fn=R)
    sols = [levinson_solve(sys, k, t0=1.0, T=1e5, tol=1e-12) for k in (0, 1)]
    ts = np.geomspace(10.0, 1e4, 12)
    dets = [abs(np.linalg.det(np.stack([sols[0](t), sols[1](t)], axis=1)))
            for t in ts]
    slope = np.polyfit(np.log(ts), np.log(dets), 1)[0]
    assert slope == pytest.approx(0.5 - 1.0, abs=0.02)


def test_low_frequency_norm_bracket():
    # (3, 0) small xi: ||E_V(t,1)|| / t^(-1) bounded above and below
    model = CoefficientModel(b0=3.0, m0=0.0)
    cfg = ZoneConfig(N=0.01)
    sys, _ = modal_fuchs_system(model, cfg, xi=1e-6)
    sols = [levinson_solve(sys, k, t0=1.0, T=1e5, tol=1e-11) for k in (0, 1)]
    eval_E, _, _ = fundamental_from_basis(sols, s=1.0)
    ratios = [np.linalg.norm(eval_E(t), 2) * t for t in np.geomspace(10, 1e4, 9)]
    assert 0.05 < min(ratios) and max(ratios) < 50.0


def test_scaling_uniformity():
    sys = const_system([0.5, -1.0])
    rep = scaling_uniformity(sys, [1.0, 10.0, 100.0], s=1.0, t=10.0)
    for lam, ratio in rep.ratios.items():
        assert ratio == pytest.approx(1.0, rel=1e-8)  # R = 0: exact power law
    # s = t: the propagator is the identity for every scaling
    rep = scaling_uniformity(sys, [1.0, 7.0], s=5.0, t=5.0)
    assert all(abs(r - 1.0) < 1e-12 for r in rep.ratios.values())
    assert all(abs(np.linalg.norm(integrate_fuchs(sys, lam * 5.0, lam * 5.0), 2) - 1.0)
               < 1e-12 for lam in (1.0, 7.0))


def test_scaling_uniformity_modal():
    model = CoefficientModel(b0=3.0, m0=0.0)
    cfg = ZoneConfig(N=0.01)
    sys, _ = modal_fuchs_system(model, cfg, xi=1e-5)
    rep = scaling_uniformity(sys, [1.0, 10.0, 100.0], s=1.0, t=20.0)
    base = rep.ratios[1.0]
    assert max(rep.ratios.values()) <= 2.0 * base + 1e-12


def test_hw_diagonal_remainder_is_noop():
    def R(t):
        decay = 1.0 / np.log(math.e + t)
        return matrices(t, [[0.3 * decay, 0.0], [0.0, -0.1 * decay]])

    sys = const_system([1.0, 0.0], R_fn=R)
    transform, reduced = hartman_wintner(sys, sigma=1.5, t0=1.0, horizon=1e4)
    assert np.max(transform.N_norms) == 0.0
    assert np.linalg.norm(transform.B_matrix(37.0), 2) == 0.0
    assert np.linalg.norm(reduced.R(37.0), 2) == 0.0


def test_hw_offdiagonal_reduction():
    # D = diag(1, 0), r(t) = t^(-1/sigma') with a log weight: in L^sigma only,
    # but the transformed remainder has a summable tail
    sigma = 1.5
    sp = sigma / (sigma - 1.0)

    def R(t):
        r = t ** (-1.0 / sp) / (1.0 + np.log(t)) ** 2
        return matrices(t, [[0.0, r], [0.0, 0.0]])

    sys = const_system([1.0, 0.0], R_fn=R)
    transform, reduced = hartman_wintner(sys, sigma=sigma, t0=1.0, horizon=1e6)
    assert transform.N_matrix(10.0)[0, 0] == 0.0
    assert transform.N_matrix(10.0)[1, 1] == 0.0
    norms = transform.N_norms
    assert norms[-1] < norms[len(norms) // 4]
    assert norms[-1] < 1e-2
    # quadrature comparison of the tails on [1e2, 1e6]
    xs = np.linspace(math.log(1e2), math.log(1e6), 400)
    r1 = np.linalg.norm(reduced.R(np.exp(xs)), 2, axis=(-2, -1))
    rs = np.linalg.norm(sys.R(np.exp(xs)), 2, axis=(-2, -1)) ** sigma
    assert np.trapezoid(r1, xs) < np.trapezoid(rs, xs)


def test_hw_identity_residual():
    def R(t):
        return matrices(t, [[0.1 / np.sqrt(t), 0.2 / np.sqrt(t)],
                            [0.05 / t ** 0.6, -0.1 / np.sqrt(t)]])

    sys = const_system([0.5, -0.7], R_fn=R)
    transform, _ = hartman_wintner(sys, sigma=1.8, t0=1.0, horizon=1e5, n=8000)
    for t in (10.0, 100.0, 1e3):
        # defect limited by the transform's grid resolution, well below the
        # remainder scale it corrects
        scale = np.linalg.norm(sys.R(t), 2)
        assert hw_identity_residual(sys, transform, t) < 1e-3 * max(scale, 1e-3)
    assert transform.valid_from >= 1.0
    assert np.all(transform.N_norms < 0.5) or transform.valid_from > 1.0


def test_hw_requires_strong_dichotomy():
    def R(t):
        return matrices(t, [[0.0, 0.1 / t], [0.0, 0.0]])

    sys = const_system([1j, -1j], R_fn=R)  # equal real parts
    with pytest.raises(DichotomyViolationError):
        hartman_wintner(sys, sigma=1.5, t0=1.0, horizon=1e4)


def test_remainder_log_integral_finite():
    model = CoefficientModel(b0=2.0, m0=0.75)
    cfg = ZoneConfig(N=1.0)
    sys, _ = modal_fuchs_system(model, cfg, xi=1e-4)
    total, _, _ = remainder_log_integral(sys, 1.0, theta(cfg, 1e-4))
    assert math.isfinite(total)


def counted(sys):
    """sys with a count of its mu and R calls."""
    calls = {"mu": 0, "R": 0}

    def counting(name, f):
        def g(t):
            calls[name] += 1
            return f(t)
        return g

    return FuchsSystem(sys.dimension, counting("mu", sys.mu), counting("R", sys.R)), calls


@pytest.mark.parametrize("n", [500, 2000])
def test_constructions_sample_the_system_once_per_grid(n, monkeypatch):
    # each construction evaluates mu and R on its whole grid in one call
    monkeypatch.setattr(oracles, "_DICHOTOMY_SAMPLES", n)
    monkeypatch.setattr(oracles, "_REMAINDER_SAMPLES", n)
    base = const_system([0.0, -2.0], R_fn=contracting_R)
    constructions = [
        lambda sys: levinson_solve(sys, k=1, t0=1.0, T=1e6, tol=1e-11, n=n),
        lambda sys: hartman_wintner(sys, sigma=1.5, t0=1.0, horizon=1e6, n=n),
        lambda sys: check_dichotomy(sys, (0, 1), T=1e6),
        lambda sys: remainder_log_integral(sys, 1.0, 1e6),
    ]
    for construct in constructions:
        sys, calls = counted(base)
        construct(sys)
        assert calls["mu"] <= 1 and calls["R"] <= 1, calls


@pytest.mark.parametrize("model, N, xi", [
    (CoefficientModel(b0=3.0, m0=0.0), 0.01, 1e-4),
    (example_log(3.0, 0.5, b1=0.5, m1=0.5, gamma=1.0, sigma=1.5), 1.0, 1e-6)],
    ids=["levinson", "hw"])
@pytest.mark.parametrize("zero_extended", [True, False])
def test_modal_fuchs_system_evaluates_arrays(model, N, xi, zero_extended):
    # the CLI defaults of `fuchswave levinson` and `fuchswave hw`, on times on
    # both sides of the zone boundary 1 + theta
    cfg = ZoneConfig(N=N)
    sys, _ = modal_fuchs_system(model, cfg, xi=xi, zero_extended=zero_extended)
    edge = 1.0 + theta(cfg, xi)
    ts = edge * np.array([0.01, 0.5, 0.99, 1.01, 2.0, 4.0])
    Rs = sys.R(ts)
    assert Rs.shape == (len(ts), 2, 2)
    assert sys.mu(ts).shape == (len(ts), 2)
    for t, R in zip(ts, Rs):
        R_t = sys.R(float(t))
        assert np.linalg.norm(R - R_t, 2) <= 1e-14 * np.linalg.norm(R_t, 2)
    norms = np.linalg.norm(Rs, 2, axis=(-2, -1))
    past = ts > edge
    assert np.all(norms[~past] > 0)
    if zero_extended:
        assert np.all(Rs[past] == 0.0)
    else:
        assert np.all(norms[past] > 0)


def test_cumulative_kernel_equals_its_loop_form_bit_for_bit():
    # the recurrence I(x_a) = r_a I(x_(a-1)) + p_a, with every ratio and
    # panel term formed on numpy scalars, one step at a time, as the
    # reference; growing and decaying ratios, forward and backward
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 9.0, 3001)
    g = rng.standard_normal(xs.size) + 1j * rng.standard_normal(xs.size)
    for rate in (-2.0 + 3j, 0.5 - 1j, 1j):
        delta = rate * xs + 0.1 * np.cumsum(rng.standard_normal(xs.size))
        for d, f, x in ((delta, g, xs), (delta[::-1], g[::-1], -xs[::-1])):
            ref = np.zeros(x.size, dtype=complex)
            for a in range(1, x.size):
                ratio = np.exp(d[a] - d[a - 1])
                ref[a] = ratio * ref[a - 1] + (x[a] - x[a - 1]) / 2.0 * (ratio * f[a - 1] + f[a])
            out = asymptotic._cumulative_kernel(d, f, x)
            assert out.dtype == complex and np.array_equal(out, ref)
