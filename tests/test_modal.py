import gc
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fuchswave import modal
from fuchswave.asymptotic import FuchsSystem, integrate_fuchs
from fuchswave.coeffs import (CoefficientModel, TabulatedCoefficient, classify_regime,
                              example_bounded, example_log)
from fuchswave.estimates import fit_decay
from fuchswave.modal import (FORM_DISS, FORM_HYP, ModalSystem,
                             check_cocycle, evolve_micro_energy, evolve_state,
                             fuchs_constant_matrix, fuchs_remainder,
                             integrate_fundamental, propagator_checkpoints,
                             propagator_norm_trace,
                             scale_invariant_norm_traces, spectral_norm,
                             state_propagator_checkpoints,
                             weight_conjugation, weighted_propagator)
from fuchswave.zones import ZoneConfig

CFG = ZoneConfig(N=1.0)
FREE = CoefficientModel(b0=0.0, m0=0.0)
EIGHT_CELLS = [(1.0, 1.0), (1.0, 0.01), (2.0, 0.75), (2.0, 2.0),
               (3.0, 0.0), (4.0, 0.0), (2.0, 0.25), (0.0, 5.0)]


def test_fuchs_remainder_scale_invariant():
    model = CoefficientModel(b0=2.0, m0=3.0)
    assert np.allclose(fuchs_constant_matrix(model, CFG), [[-1.0, 1j], [3j, -2.0]])
    for t in (0.0, 4.0, 99.0):
        R = fuchs_remainder(model, CFG, t, 0.5)
        expected = np.array([[0, 0], [1j * (1 + t) ** 2 * 0.25, 0]])
        assert np.allclose(R, expected, atol=1e-12)


@pytest.mark.parametrize("model", [
    CoefficientModel(b0=2.0, m0=1.0),
    example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.3, p2=0.25),
    example_log(3.0, 0.5, b1=0.5, m1=0.5, gamma=1.0)], ids=["pure", "bounded", "log"])
@pytest.mark.parametrize("xi", [0.0, 0.01, 0.4])
def test_fuchs_form_matches_the_diss_propagator(model, xi):
    # (1+t) dU/dt = (A + R) U is the diss system on the same U and clock:
    # its direct Fuchs oracle on tau = 1+t reproduces the single-system
    # oracle's E(t,s), which integrates Phi and conjugates it
    s, t = 1.0, 50.0
    A = fuchs_constant_matrix(model, CFG)
    fuchs = FuchsSystem(dimension=2, mu=lambda tau: np.zeros(2),
                        R=lambda tau: A + fuchs_remainder(model, CFG, tau - 1.0, xi))
    E_fuchs = integrate_fuchs(fuchs, 1.0 + s, 1.0 + t, rtol=1e-12)
    E = propagator_checkpoints(ModalSystem(model, CFG, xi, FORM_DISS), s, [t],
                               rtol=1e-12)[0]
    assert spectral_norm(E_fuchs - E) <= 1e-9 * spectral_norm(E)


def test_free_wave_closed_form():
    xi = 1.0
    sys = ModalSystem(FREE, CFG, xi, FORM_HYP)
    E = integrate_fundamental(sys, 0.0, math.pi, tol=1e-12).entries
    expected = np.array([[math.cos(math.pi), 1j * math.sin(math.pi)],
                         [1j * math.sin(math.pi), math.cos(math.pi)]])
    assert spectral_norm(E - expected) < 1e-10
    # u_hat-level identity: u(t) = cos(t xi) u0 + sin(t xi)/xi u1
    times = np.array([0.3, 1.7, math.pi])
    u, v = evolve_state(FREE, [xi], [0.7], [0.4 * 1j], times, rtol=1e-12)
    expect_u = 0.7 * np.cos(times * xi) + 0.4j * np.sin(times * xi) / xi
    assert np.allclose(u[:, 0], expect_u, atol=1e-10)


def test_euler_equation_closed_form():
    # scale-invariant (3, 0) at xi = 0: u = c1 + c2 (1+t)^(-2)
    model = CoefficientModel(b0=3.0, m0=0.0)
    times = np.array([1.0, 10.0, 100.0])
    Phi = state_propagator_checkpoints(model, [0.0], times, rtol=1e-12)[:, 0]
    for i, t in enumerate(times):
        w = 1.0 + t
        # from (u, u')(0) = basis: solve the two-parameter family explicitly
        expected = np.array([
            [1.0, (1.0 - w ** -2) / 2.0],
            [0.0, w ** -3],
        ])
        assert spectral_norm(Phi[i] - expected) < 1e-9


def test_dissipative_zone_oracle_rate_fit():
    # (1, 1): ||E(t,0,xi)|| tracks (1+t)^(Re mu+) = (1+t)^(-1) up to theta
    model = CoefficientModel(b0=1.0, m0=1.0)
    times = np.geomspace(5.0, 99.0, 60)
    norms = propagator_norm_trace(model, CFG, 0.01, times, rtol=1e-11)
    fit = fit_decay(times, norms, window=(5.0, 99.0), predicted=-1.0, tol=0.05)
    assert fit.verdict, fit


def test_determinant_identity_unweighted():
    model = example_bounded(2.0, 1.0, c1=0.5, p1=0.5, c2=0.3, p2=0.25)
    xi = 0.7
    times = np.array([2.0, 10.0, 300.0])
    Phi = state_propagator_checkpoints(model, [xi], times, rtol=1e-11)[:, 0]
    for i, t in enumerate(times):
        predicted = float(model.lam(t)) ** -2
        assert abs(np.linalg.det(Phi[i])) == pytest.approx(predicted, rel=1e-8)


def liouville_modulus(sys, s, t):
    """Predicted |det E(t,s,xi)| from the trace of the generator."""
    model = sys.model
    lam_ratio = float(model.lam(s) / model.lam(t))
    if sys.form == FORM_HYP:
        return lam_ratio ** 2
    if sys.form == FORM_DISS:
        return (1.0 + s) / (1.0 + t) * lam_ratio ** 2
    raise ValueError(sys.form)


def test_determinant_identity_weighted_forms():
    model = CoefficientModel(b0=2.0, m0=1.0)
    for form in (FORM_DISS, FORM_HYP):
        xi = 0.4 if form != FORM_HYP else 2.0
        sys = ModalSystem(model, CFG, xi, form)
        E = integrate_fundamental(sys, 1.0, 50.0, tol=1e-11)
        assert abs(E.det()) == pytest.approx(liouville_modulus(sys, 1.0, 50.0),
                                             rel=1e-8)


def test_cocycle_property():
    model = CoefficientModel(b0=2.0, m0=1.0)
    sys = ModalSystem(model, CFG, 2.0, FORM_HYP)
    assert check_cocycle(sys, 3.0, 3.0, 3.0) == 0.0
    assert check_cocycle(sys, 0.0, 10.0, 40.0, tol=1e-10) < 1e-7
    free_sys = ModalSystem(FREE, CFG, 1.0, FORM_HYP)
    assert check_cocycle(free_sys, 0.0, 7.0, 21.0, tol=1e-10) < 1e-8


def test_linearity_superposition():
    model = CoefficientModel(b0=1.0, m0=0.5)
    times = np.array([5.0, 25.0])
    u1, v1 = evolve_state(model, [0.3], [1.0], [0.0], times, rtol=1e-12)
    u2, v2 = evolve_state(model, [0.3], [0.0], [1.0], times, rtol=1e-12)
    u3, v3 = evolve_state(model, [0.3], [2.0 - 1j], [0.5j], times, rtol=1e-12)
    assert np.allclose((2.0 - 1j) * u1 + 0.5j * u2, u3, rtol=1e-9, atol=1e-12)
    assert np.allclose((2.0 - 1j) * v1 + 0.5j * v2, v3, rtol=1e-9, atol=1e-12)


def test_identity_at_coincident_times():
    sys = ModalSystem(CoefficientModel(b0=2.0, m0=2.0), CFG, 0.2, FORM_DISS)
    E = integrate_fundamental(sys, 3.0, 3.0)
    assert np.array_equal(E.entries, np.eye(2))
    assert E.provenance == "oracle"


def test_micro_energy_free_high_frequency_conserved():
    sys = ModalSystem(FREE, CFG, 2.0, FORM_HYP)
    U0 = evolve_micro_energy(sys, 0.6, 0.8j, 0.0)
    Ut = evolve_micro_energy(sys, 0.6, 0.8j, 50.0)
    assert np.linalg.norm(Ut.value) == pytest.approx(np.linalg.norm(U0.value),
                                                     rel=1e-9)
    assert U0.value[0] == pytest.approx(2.0 * 0.6)   # h(0, 2N) = |xi|
    assert U0.value[1] == pytest.approx(-1j * 0.8j)  # D_t u at t = 0


def test_micro_energy_zero_data():
    sys = ModalSystem(CoefficientModel(b0=2.0, m0=1.0), CFG, 0.5, FORM_DISS)
    U = evolve_micro_energy(sys, 0.0, 0.0, 10.0)
    assert np.all(U.value == 0.0)


def test_micro_energy_scaled_limit():
    # (2, 1) at |xi| = 2N: (1+t) ||U(t)|| approaches a nonzero limit
    model = CoefficientModel(b0=2.0, m0=1.0)
    sys = ModalSystem(model, CFG, 2.0, FORM_HYP)
    vals = [(1.0 + t) * np.linalg.norm(evolve_micro_energy(sys, 1.0, 0.5, t).value)
            for t in (200.0, 400.0, 800.0)]
    assert vals[-1] > 0.1
    assert abs(vals[-1] - vals[-2]) / vals[-1] < 0.01


def test_weighted_propagator_matches_diss_form():
    # the sharp-weighted propagator and the direct slow-zone system agree
    # inside the slow zone
    model = CoefficientModel(b0=2.0, m0=1.0)
    xi = 0.01
    t = 50.0  # well below theta = 99
    E_w = weighted_propagator(model, CFG, xi, [t], rtol=1e-12)[0]
    sys = ModalSystem(model, CFG, xi, FORM_DISS)
    E_d = integrate_fundamental(sys, 0.0, t, tol=1e-12).entries
    assert spectral_norm(E_w - E_d) / spectral_norm(E_d) < 1e-9


def test_batched_traces_match_reference_oracle():
    cells = [(2.0, 2.0), (3.0, 0.0)]
    times = np.geomspace(10.0, 1e3, 25)
    batched = scale_invariant_norm_traces(cells, CFG, 2.0, times, rtol=1e-11)
    for j, (b0, m0) in enumerate(cells):
        model = CoefficientModel(b0=b0, m0=m0)
        ref = propagator_norm_trace(model, CFG, 2.0, times, rtol=1e-11)
        assert np.allclose(batched[:, j], ref, rtol=1e-7)
        # at xi = 2N the sharp weight is xi for every t >= 0, so the weighted
        # propagator is the hyp_system one, integrated by the single-system
        # oracle, which shares no code with the batched kernel
        sys = ModalSystem(model, CFG, 2.0, FORM_HYP)
        E = propagator_checkpoints(sys, 0.0, times, rtol=1e-11)
        hyp = np.linalg.svd(E, compute_uv=False)[:, 0]
        assert np.allclose(batched[:, j], hyp, rtol=1e-7)


def test_stiffness_error_carries_time_and_frequency(monkeypatch):
    import fuchswave.modal as modal

    def failed(fun, t_span, y0, t_eval=None, **kwargs):
        return SimpleNamespace(success=False, message="step size underflow",
                               t=np.asarray(t_eval[:2]), y=None)

    monkeypatch.setattr(modal, "solve_ivp", failed)
    times = np.array([0.5, 1.0, 2.0])
    with pytest.raises(modal.StiffnessError) as info:
        evolve_state(FREE, [0.3, 0.5, 3.0], np.ones(3), np.zeros(3), times)
    assert info.value.t == 1.0 and info.value.xi == 0.5  # first band: [0.3, 0.5]
    with pytest.raises(modal.StiffnessError) as info:
        scale_invariant_norm_traces([(2.0, 2.0)], CFG, 2.0, times)
    assert info.value.t == 1.0 and info.value.xi == 2.0


def test_oracle_self_verification():
    model = CoefficientModel(b0=2.0, m0=2.0)
    sys = ModalSystem(model, CFG, 1.5, FORM_HYP)
    E = integrate_fundamental(sys, 0.0, 100.0, tol=1e-10, verify=True)
    assert E.provenance.startswith("oracle(verified")
    dev = float(E.provenance.split("dev=")[1].rstrip(")"))
    assert dev < 1e-7


def test_cocycle_fast_oscillation_regime():
    # large |xi| t: self-consistency stays within 100x the tolerance
    model = CoefficientModel(b0=2.0, m0=1.0)
    sys = ModalSystem(model, CFG, 8.0, FORM_HYP)
    tol = 1e-10
    assert check_cocycle(sys, 0.0, 100.0, 200.0, tol=tol) <= 100.0 * tol


def test_trajectory_dump(tmp_path):
    from fuchswave.modal import dump_trajectory
    model = CoefficientModel(b0=2.0, m0=1.0)
    sys = ModalSystem(model, CFG, 0.3, FORM_DISS)
    path = dump_trajectory(sys, 0.0, 10.0, tmp_path / "traj.csv", n_checkpoints=16)
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("t,e11_re,e11_im")
    assert len(lines) == 17
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0 and first[2] == 0.0


@pytest.mark.parametrize("xi", [2.0, 8.0])
def test_hankel_continuation_matches_the_single_system_oracle(xi):
    # pure-family propagators continue in Hankel's expansion beyond
    # z = xi (1+t) = Z_MATCH (t = 11.5 at xi = 2, 2.125 at xi = 8); the
    # hyp_system oracle integrates the same equation with DOP853 throughout
    times = np.geomspace(1.0, 1e3, 25)
    T, T_inv = np.diag([xi, -1j]), np.diag([1.0 / xi, 1j])
    for b0, m0 in EIGHT_CELLS:
        model = CoefficientModel(b0=b0, m0=m0)
        Phi = state_propagator_checkpoints(model, [xi], times, rtol=1e-12)[:, 0]
        E = propagator_checkpoints(ModalSystem(model, CFG, xi, FORM_HYP), 0.0, times,
                                   rtol=1e-12)
        for t, P, E_ref in zip(times, Phi, E):
            # 1e-13 absolute: the oracle's own absolute tolerance (1e-16 per
            # step) sets its error once ||E|| decays to 1e-6, cell (4, 0)
            err = spectral_norm(T @ P @ T_inv - E_ref)
            assert err <= 1e-8 * spectral_norm(E_ref) + 1e-13, (b0, m0, t, err)
            # Liouville: det Phi(t, 0) = exp(-int_0^t b) = (1+t)^(-b0)
            assert abs(np.linalg.det(P)) == pytest.approx((1.0 + t) ** -b0, rel=1e-9)


def test_pure_family_matches_its_coefficients_run_by_dop853():
    # the same b, m as a bounded perturbation with c1 = c2 = 0, which the
    # kernel integrates with DOP853 throughout; checkpoints on both sides of
    # each band's matching time, xi = 30 matches at t = 0 (z > Z_MATCH), and
    # m0 = 500 raises the matching point to z = 2|nu^2| = 999.5
    xi = np.array([0.5, 2.0, 8.0, 30.0])
    times = np.array([0.5, 3.0, 15.0, 40.0, 120.0])
    u0 = np.array([1.0, 0.5j, 1.0, 1.0 - 1j])
    u1 = np.array([0.2, 1.0, -1j, 2.0])
    for b0, m0 in [(2.0, 2.0), (4.0, 0.0), (0.0, 0.0), (2.0, 500.0)]:
        pure = CoefficientModel(b0=b0, m0=m0)
        plain = example_bounded(b0, m0, c1=0.0, c2=0.0)
        u, v = evolve_state(pure, xi, u0, u1, times, rtol=1e-12)
        u_ref, v_ref = evolve_state(plain, xi, u0, u1, times, rtol=1e-12)
        err = np.hypot(np.abs(u - u_ref), np.abs(v - v_ref) / xi)
        size = np.hypot(np.abs(u_ref), np.abs(v_ref) / xi)
        assert np.all(err <= 1e-8 * size), (b0, m0, (err / size).max())


def test_hankel_series_refuses_to_truncate():
    # beyond its validated range the terms grow before they converge: a
    # typed error, never a truncated sum
    with pytest.raises(modal.SeriesRangeError):
        modal._hankel_series(-1e3, np.array([25.0, 1e4]))
    # inside it (z >= max(Z_MATCH, 2|nu^2|), the kernel's matching point) it
    # converges for every nu^2, real or imaginary nu
    for nu2 in np.concatenate([np.linspace(-200.0, 200.0, 801), [-1e6, 1e6]]):
        z = max(modal.Z_MATCH, 2.0 * abs(nu2)) * np.array([1.0, 1.7, 40.0])
        modal._hankel_series(nu2, z)
    # DLMF 10.17.5: H1_nu(z) = sqrt(2/(pi z)) e^(i(z - nu pi/2 - pi/4)) S(z)
    from scipy.special import hankel1
    z = np.array([25.0, 61.3, 1e3])
    for nu in (0.0, 1.0, 1.5, 3.2):
        S, dS = modal._hankel_series(nu ** 2, z)
        ref = hankel1(nu, z) / (np.sqrt(2.0 / (np.pi * z))
                                * np.exp(1j * (z - nu * np.pi / 2.0 - np.pi / 4.0)))
        assert np.allclose(S, ref, rtol=1e-12, atol=0.0)


def _damped_wave_phi(xi, times, s):
    """Exact Phi(t, s) for b = 2/(1+t), m = 0, shape (len(times), 2, 2): the
    solutions are sin(xi (1+t))/(1+t) and cos(xi (1+t))/(1+t)."""
    def W(t):  # rows (f, f'), one column per solution
        w = 1.0 + np.asarray(t, dtype=float)
        f = np.array([np.sin(xi * w), np.cos(xi * w)]) / w
        df = xi * np.array([np.cos(xi * w), -np.sin(xi * w)]) / w - f / w
        return np.moveaxis(np.array([f, df]), -1, 0)
    return W(times) @ np.linalg.inv(W([s])[0])


@pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("n_checkpoints", [1, 120])
def test_dop853_kernels_match_the_closed_form_damped_wave(xi, n_checkpoints):
    # xi (t - s) = 1000 at rtol 1e-12, the last of n log-spaced checkpoints;
    # the oracle lands on every one, and the batched kernel (from t = 0)
    # runs DOP853 throughout, without cells
    model = CoefficientModel(b0=2.0, m0=0.0)
    s, span = 3.0, 1000.0 / xi
    offsets = np.geomspace(1.0, 1.0 + span, n_checkpoints + 1)[1:] - 1.0
    offsets[-1] = span
    E = propagator_checkpoints(ModalSystem(model, CFG, xi, FORM_HYP), s, s + offsets,
                               rtol=1e-12)
    E_exact = weight_conjugation(xi, xi, _damped_wave_phi(xi, s + offsets, s))
    assert max(spectral_norm(a - b) / spectral_norm(b) for a, b in zip(E, E_exact)) <= 1e-10

    u, v = modal._solve_modes(model.kernel(), np.array([xi, xi]),
                              np.array([1.0, 0.0, 0.0, 1.0]), offsets, 1e-12, 1e-16)
    assert u.dtype == v.dtype == float
    Phi = np.stack((u, v), axis=1)  # (len(times), 2, 2): rows u, u'; columns the data
    E, E_exact = (weight_conjugation(xi, xi, P)
                  for P in (Phi, _damped_wave_phi(xi, offsets, 0.0)))
    assert max(spectral_norm(a - b) / spectral_norm(b) for a, b in zip(E, E_exact)) <= 1e-10


_TS = np.linspace(0.0, 400.0, 801)


@pytest.mark.parametrize("model", [
    example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5),
    example_log(2.0, 2.0),
    CoefficientModel(b0=2.0, m0=1.0, family="tabulated",
                     b_table=TabulatedCoefficient.from_columns(_TS, 2.0 / (1.0 + _TS)),
                     m_table=TabulatedCoefficient.from_columns(_TS, 1.0 / (1.0 + _TS) ** 2))])
def test_oracle_rhs_on_python_floats_matches_the_numpy_scalar_rhs(model, monkeypatch):
    # the oracle's right-hand side unpacks the state into Python floats and
    # returns a list; the same arithmetic on numpy scalars into an array
    # gives the same checkpoints bit for bit at the same number of calls
    xi, s, times = 2.0, 1.0, np.array([1.5, 40.0, 300.0])
    solves, solve_ivp = [], modal.solve_ivp

    def recorded(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    E = propagator_checkpoints(ModalSystem(model, CFG, xi, FORM_HYP), s, times, rtol=1e-12)
    monkeypatch.undo()

    def numpy_rhs(t, y):
        k = -(xi ** 2 + model.m(t))
        b = model.b(t)
        return np.array([y[2], y[3], k * y[0] - b * y[2], k * y[1] - b * y[3]])

    sol = modal.solve_ivp(numpy_rhs, (s, times[-1]), np.eye(2).ravel(), t_eval=times,
                          rtol=1e-12, atol=1e-16)
    assert sol.success and sol.nfev == solves[0].nfev
    assert np.array_equal(E, weight_conjugation(xi, xi, sol.y.T.reshape(-1, 2, 2)))


@pytest.mark.parametrize("per_mode", [False, True])
def test_in_place_mode_rhs_matches_a_concatenating_rhs(per_mode, monkeypatch):
    # the batched kernel's right-hand side writes into one reused buffer with
    # b and m held in arrays; a right-hand side that builds a new array from
    # b(t) and m(t) each call gives the same checkpoints bit for bit at the
    # same number of calls
    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    xi = np.linspace(1.0, 1.9, 7)
    y0 = np.concatenate((np.linspace(1.0, -1.0, 7), np.linspace(0.5, 0.1, 7)))
    times = np.array([0.5, 7.0, 40.0])
    if per_mode:  # one (b, m) per mode, as the rate sweeps pass them
        scale = np.linspace(0.5, 1.5, xi.size)
        b = lambda t: scale * model.b(t)
        m = lambda t: scale * model.m(t)
    else:
        b, m = model.b, model.m
    solves, solve_ivp = [], modal.solve_ivp

    def recorded(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    u, v = modal._solve_modes(lambda t: (b(t), m(t)), xi, y0, times, 1e-12, 1e-16)
    monkeypatch.undo()

    def concatenating_rhs(t, y):
        return np.concatenate((y[xi.size:], (-xi ** 2 - m(t)) * y[:xi.size] - b(t) * y[xi.size:]))

    sol = modal.solve_ivp(concatenating_rhs, (0.0, times[-1]), y0, t_eval=times,
                          rtol=1e-12, atol=1e-16)
    assert sol.success and sol.nfev == solves[0].nfev
    assert np.array_equal(np.hstack((u, v)), sol.y.T)


def test_the_reused_rhs_buffer_is_not_aliased_into_results():
    # every checkpoint of a solve, and every octave band of evolve_state, holds
    # its own values, the same as each band evolved alone
    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    times = np.array([0.5, 3.0, 9.0, 20.0])
    u, v = evolve_state(model, [1.0, 5.0], [1.0, 1.0], [0.0, 0.0], times, rtol=1e-11)
    for w in (u, v):
        assert len({x.tobytes() for x in w}) == times.size
        assert len({x.tobytes() for x in w.T}) == 2
    for k, xi in enumerate((1.0, 5.0)):
        u1, v1 = evolve_state(model, [xi], [1.0], [0.0], times, rtol=1e-11)
        assert np.array_equal(u[:, k], u1[:, 0]) and np.array_equal(v[:, k], v1[:, 0])


def test_solves_let_go_of_what_their_right_hand_side_holds():
    # scipy's wrapper keeps a reference to the callable of every call; a
    # solve hands it a forwarder it empties, so an array its right-hand side
    # captures (1 MB here) is freed with the solve
    def make_rhs():
        ballast = np.ones(2 ** 17)

        def rhs(t, y):
            return -ballast[:2] * y
        return rhs

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(6):
            sol = modal.solve_ivp(make_rhs(), (0.0, 1.0), np.ones(2), [0.5, 1.0], 1e-10, 1e-14)
            assert sol.success
        del sol
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 6 * 16 * 1024, kept


def test_checkpoints_carry_the_step_size():
    # each checkpoint ends one Fortran call; the next starts from the last
    # full accepted step, so 120 log-spaced checkpoints cost under 2.5x the
    # right-hand-side calls of one (1.8x; a restart from Hairer's initial
    # step guess at each checkpoint costs 3x)
    xi, calls = 0.05, []

    def rhs(t, y):
        calls.append(t)
        return np.array([y[1], -xi * xi * y[0] - 2.0 / (1.0 + t) * y[1]])

    counts = []
    for times in (np.array([1e3]), np.geomspace(1.0, 1e3, 120)):
        calls.clear()
        sol = modal.solve_ivp(rhs, (0.0, 1e3), np.array([1.0, 0.0]), t_eval=times,
                              rtol=1e-10, atol=1e-14)
        assert sol.success and sol.nfev == len(calls)
        assert np.array_equal(sol.t, times) and sol.y.shape == (2, times.size)
        counts.append(len(calls))
    assert counts[1] <= 2.5 * counts[0], counts


def test_a_solve_keeps_only_its_output_alive():
    # scipy's wrapper keeps a reference to the integrator of every call: a
    # solve must let go of its state-sized work array (11 n + 21 doubles),
    # and integrators must not pile up over the checkpoints
    n = 4000
    xi = np.linspace(1.0, 1.9, n)
    y0 = np.concatenate((np.ones(n), np.zeros(n)))
    times = np.linspace(0.25, 10.0, 41)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u, v = modal._solve_modes(lambda t: (2.0 / (1.0 + t), 0.0), xi, y0, times,
                                  1e-10, 1e-16)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    output, work = times.size * 2 * n * 8, (11 * 2 * n + 21) * 8
    assert u.shape == v.shape == (times.size, n)
    assert kept - output <= work / 4, (kept, output, work)


def test_a_failing_integration_raises_stiffness_error_at_the_last_checkpoint():
    # the Fortran integrator itself fails: m = -1/(2-t)^4 blows the modes up
    # at t = 2; its warning does not leak, the error names the checkpoint
    # reached and the band's frequency
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(modal.StiffnessError) as info:
            modal._solve_modes(lambda t: (0.0, -1.0 / (2.0 - t) ** 4),
                               np.array([0.5, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                               np.array([1.0, 3.0]), 1e-10, 1e-16)
    assert info.value.t == 1.0 and info.value.xi == 1.0


def test_scipy_dop853_reads_the_initial_step_from_its_work_array():
    # solve_ivp sets WORK(7) and reads NFCN, IWORK(17), through
    # scipy.integrate.ode's private _integrator; a scipy that moves them fails here
    from scipy.integrate import ode

    calls, ends = [], []
    solver = ode(lambda t, y: calls.append(t) or -y).set_integrator("dop853", rtol=1e-6)
    solver.set_solout(lambda x, _: ends.append(x))
    solver.set_initial_value(np.ones(3), 0.0)
    integrator = solver._integrator
    assert integrator.work.shape == (11 * 3 + 21,) and integrator.iwork.shape == (21,)
    integrator.work[6] = 0.25
    solver.integrate(10.0)
    assert solver.successful() and ends[:2] == [0.0, 0.25]
    # NFCN counts the initial-step guess's call, skipped here
    assert integrator.iwork[16] == len(calls) + 1
