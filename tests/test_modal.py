import copy
import gc
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import fuchswave
from fuchswave import errors, modal
from fuchswave.asymptotic import FuchsSystem
from fuchswave.cli import run_cli
from fuchswave.coeffs import (CoefficientModel, TabulatedCoefficient, classify_regime,
                              example_bounded, example_log, predicted_decay)
from fuchswave.errors import SeriesRangeError, StiffnessError
from fuchswave.estimates import (DataSpec, _residual_decays, fit_decay, free_micro_propagator,
                                 grid_for_data, radial_norm, scattering_operator,
                                 scattering_residual)
from fuchswave.modal import (FORM_DISS, FORM_HYP, ModalSystem,
                             check_cocycle, evolve_micro_energy, evolve_state,
                             fuchs_constant_matrix, fuchs_remainder,
                             integrate_fundamental, propagator_checkpoints,
                             propagator_norm_trace,
                             scale_invariant_norm_traces, spectral_norm,
                             state_propagator_checkpoints,
                             weight_conjugation, weighted_propagator)
from fuchswave.experiments import (EXPERIMENTS, ExperimentConfig, _double_root_log_shift,
                                   _repcheck_points)
from fuchswave.zones import ZoneConfig, sharp_weight, theta
from oracles import integrate_fuchs

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
    # the same data given at s = 2 evolve by t - s; the checkpoints must
    # ascend from s, where a solve would give one out of order the later state
    u, v = evolve_state(FREE, [xi], [0.7], [0.4 * 1j], 2.0 + times, rtol=1e-12, s=2.0)
    assert np.allclose(u[:, 0], expect_u, atol=1e-10)
    for bad, s in ((times, 1.0), (times[::-1], 0.0)):
        with pytest.raises(ValueError, match="ascend from s"):
            evolve_state(FREE, [xi], [0.7], [0.4 * 1j], bad, s=s)
        with pytest.raises(ValueError, match="ascend from s"):
            propagator_checkpoints(ModalSystem(FREE, CFG, xi, FORM_HYP), s, bad)
    with pytest.raises(ValueError, match="ascend from s"):
        state_propagator_checkpoints(FREE, [xi], times[::-1])


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
        assert abs(np.linalg.det(E.entries)) == pytest.approx(liouville_modulus(sys, 1.0, 50.0),
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
        # at xi = 2N the sharp weight is xi for every t >= 0, so the weighted
        # propagator is the hyp_system one, integrated by the single-system
        # oracle: DOP853 throughout, where the batched traces, on the same
        # float right-hand side, continue in Hankel's expansion beyond z = 25
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
    with pytest.raises(StiffnessError) as info:
        evolve_state(FREE, [0.3, 0.5, 3.0], np.ones(3), np.zeros(3), times)
    assert info.value.t == 1.0 and info.value.xi == 0.5  # first band: [0.3, 0.5]
    with pytest.raises(StiffnessError) as info:
        scale_invariant_norm_traces([(2.0, 2.0)], CFG, 2.0, times)
    assert info.value.t == 1.0 and info.value.xi == 2.0


def test_oracle_self_verification():
    model = CoefficientModel(b0=2.0, m0=2.0)
    sys = ModalSystem(model, CFG, 1.5, FORM_HYP)
    E = integrate_fundamental(sys, 0.0, 100.0, tol=1e-10, verify=True)
    assert E.provenance.startswith("oracle(verified")
    dev = float(E.provenance.split("dev=")[1].rstrip(")"))
    assert dev < 1e-7


@pytest.mark.parametrize("s, t", [(40.0, 100.0), (0.5, 20.0), (0.0, 100.0)])
def test_oracle_self_verification_checks_ten_points_across_the_span(s, t, monkeypatch):
    # the coarse and the fine solve each land on 10 distinct checkpoints in
    # (s, t], equally spaced in log(1+t) from s and ending at t
    spans, solve_ivp = [], modal.solve_ivp

    def recorded(fun, t_span, y0, t_eval, rtol, atol):
        spans.append((t_span[0], np.array(t_eval)))
        return solve_ivp(fun, t_span, y0, t_eval, rtol, atol)

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    system = ModalSystem(CoefficientModel(b0=2.0, m0=2.0), CFG, 1.5, FORM_HYP)
    integrate_fundamental(system, s, t, tol=1e-10, verify=True)
    assert len(spans) == 3 and spans[0][1].tolist() == [t]
    for start, pts in spans[1:]:
        assert start == s and pts.size == 10 and pts[-1] == t
        steps = np.diff(np.log1p(np.r_[s, pts]))
        assert steps.min() > 0 and np.allclose(steps, steps[0], rtol=1e-9)


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


def exact_pure_fundamental(b0, m0, xi, times, dps=40):
    """Phi(t, 0) of X' = [[0, 1], [-(xi^2 + m), -b]] X for the scale-invariant
    family b = b0/(1+t), m = m0/(1+t)^2, in closed form at dps digits: the
    modes are f = z^a C_nu(z), z = xi (1+t), a = (1-b0)/2, C_nu = J_nu or Y_nu,
    nu^2 = ((b0-1)/2)^2 - m0 (DLMF 10.2; nu real, zero or imaginary), and
    Phi(t, 0) = W(t) W(0)^-1 with W's columns (f, xi df/dz).  Phi is real: the
    imaginary part that complex nu leaves is asserted at roundoff.  Shape
    (len(times), 2, 2).  Shares no code with DOP853 or Hankel's expansion."""
    with mpmath.workdps(dps):
        a = (1 - mpmath.mpf(b0)) / 2
        nu = mpmath.sqrt(((mpmath.mpf(b0) - 1) / 2) ** 2 - mpmath.mpf(m0))
        k = mpmath.mpf(xi)

        def W(t):
            z = k * (1 + mpmath.mpf(t))
            cols = []
            for C in (mpmath.besselj, mpmath.bessely):
                f = z ** a * C(nu, z)
                cols.append((f, k * (a * f / z + z ** a * C(nu, z, derivative=1))))
            return mpmath.matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])

        W0_inv = W(0) ** -1
        Phi = np.empty((len(times), 2, 2))
        for i, t in enumerate(times):
            P = W(float(t)) * W0_inv
            imag = max(abs(mpmath.im(P[j, l])) for j in range(2) for l in range(2))
            assert imag <= mpmath.mpf(10) ** (10 - dps) * mpmath.mnorm(P, 1), (b0, m0, t)
            Phi[i] = [[float(mpmath.re(P[j, l])) for l in range(2)] for j in range(2)]
    return Phi


def exact_pure_scattering_limit(b0, m0, xi, N=1.0, dps=40):
    """W+ = lim lam(t) E_fr(t)^-1 E(t, 0, xi) for the scale-invariant family,
    in closed form.  E conjugates Phi by the sharp weight T(t) =
    diag(max(N/(1+t), xi), -i): T(t) = diag(xi, -i) from t = theta(xi) on,
    and T(0) = diag(max(N, xi), -i), which is N below the zone constant.
    The modes f_1,2 = z^a H^(1,2)_nu(z), z = xi (1+t),
    a = (1-b0)/2, go as z^a sqrt(2/(pi z)) e^(+-i(z - nu pi/2 - pi/4))
    (DLMF 10.17), so lam(t) E_fr(t)^-1 T(t) (f_j, xi df_j/dz) tends to the
    columns xi^(1-b0/2) sqrt(2/pi) e^(+-i(xi - nu pi/2 - pi/4)) (1, +-1) of L,
    and W+ = L B(0)^-1 T(0)^-1 with B(0) = [[f_1, f_2], [xi f_1', xi f_2']] at
    z = xi.  Shares no code with DOP853 or Hankel's expansion."""
    with mpmath.workdps(dps):
        a = (1 - mpmath.mpf(b0)) / 2
        nu = mpmath.sqrt(((mpmath.mpf(b0) - 1) / 2) ** 2 - mpmath.mpf(m0))
        k = mpmath.mpf(xi)
        amp = k ** (1 - mpmath.mpf(b0) / 2) * mpmath.sqrt(2 / mpmath.pi)
        phase = mpmath.expj(k - nu * mpmath.pi / 2 - mpmath.pi / 4)
        L = mpmath.matrix([[amp * phase, amp / phase], [amp * phase, -amp / phase]])
        J, Y = (C(nu, k) for C in (mpmath.besselj, mpmath.bessely))
        dJ, dY = (C(nu, k, derivative=1) for C in (mpmath.besselj, mpmath.bessely))
        B = mpmath.matrix(2, 2)
        for j, sign in enumerate((1, -1)):  # H^(1,2) = J +- iY
            H, dH = J + sign * 1j * Y, dJ + sign * 1j * dY
            B[0, j] = k ** a * H
            B[1, j] = k * (a * B[0, j] / k + k ** a * dH)
        W = L * B ** -1 * mpmath.diag([1 / max(mpmath.mpf(N), k), 1j])
        return np.array([[complex(W[j, l]) for l in range(2)] for j in range(2)])


@pytest.mark.parametrize("xi", [2.0, 8.0])
def test_both_oracles_match_the_exact_pure_family_propagator(xi):
    # Bessel functions of complex order against the batched kernel (DOP853 to
    # z = Z_MATCH, Hankel's expansion beyond: t = 11.5 at xi = 2, 2.125 at
    # xi = 8) and the single-system oracle (DOP853 throughout), in the
    # hyp_system weighting T = diag(xi, -i)
    times = np.geomspace(0.25, 1e3, 10)
    T, T_inv = np.diag([xi, -1j]), np.diag([1.0 / xi, 1j])
    for b0, m0 in EIGHT_CELLS:
        model = CoefficientModel(b0=b0, m0=m0)
        exact = T @ exact_pure_fundamental(b0, m0, xi, times) @ T_inv
        Phi = state_propagator_checkpoints(model, [xi], times, rtol=1e-12)[:, 0]
        E = propagator_checkpoints(ModalSystem(model, CFG, xi, FORM_HYP), 0.0, times,
                                   rtol=1e-12)
        for t, P, E_orc, E_ex in zip(times, Phi, E, exact):
            size = spectral_norm(E_ex)
            # measured at most 1.8e-12 on the Hankel path
            assert spectral_norm(T @ P @ T_inv - E_ex) <= 1e-10 * size, (b0, m0, t)
            # the bound of the Hankel-vs-oracle test: its 1e-13 absolute term
            # is the oracle's atol floor once ||E|| decays, cell (4, 0)
            assert spectral_norm(E_orc - E_ex) <= 1e-8 * size + 1e-13, (b0, m0, t)


@pytest.mark.parametrize("xi", [1e-4, 1e-3])
def test_weighted_propagator_matches_the_exact_pure_family_at_low_frequency(xi):
    # the slow zone and the crossing: the sharp-weighted E(t, 0, xi) against
    # the exact Phi conjugated by the same weight, at times on both sides of
    # theta(xi) = N/xi - 1, up to 4 theta (z = xi (1+t) <= 4N: DOP853 only);
    # measured at most 9.8e-13
    th = theta(CFG, xi)
    times = np.r_[1.0, th * np.array([0.01, 0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0])]
    for b0, m0 in EIGHT_CELLS:
        model = CoefficientModel(b0=b0, m0=m0)
        exact = weight_conjugation(sharp_weight(CFG, times, xi),
                                   sharp_weight(CFG, 0.0, xi),
                                   exact_pure_fundamental(b0, m0, xi, times))
        E = weighted_propagator(model, CFG, xi, times, rtol=1e-12)
        for t, E_num, E_ex in zip(times, E, exact):
            assert spectral_norm(E_num - E_ex) <= 1e-10 * spectral_norm(E_ex), (b0, m0, t)


# criterion 2's fits: the cells with distinct exponents, xi, and the five
# (cell, xi) whose exact norms miss Re mu+ by more than its 0.05 (ROADMAP
# Open item 5: complex pairs whose ln t period outlasts the window)
CRITERION_2_CELLS = [c for c in EIGHT_CELLS if 4 * c[1] != (c[0] - 1.0) ** 2]
OPEN_ITEM_5 = {(1.0, 1.0, 1e-3), (1.0, 0.01, 1e-3), (2.0, 0.75, 1e-3), (2.0, 2.0, 1e-3),
               (1.0, 0.01, 1e-4)}


def exact_norm_trace(b0, m0, xi, times):
    """||E(t,0,xi)|| of the sharp-weighted exact Phi, as propagator_norm_trace
    measures the kernel's."""
    E = weight_conjugation(sharp_weight(CFG, times, xi), sharp_weight(CFG, 0.0, xi),
                           exact_pure_fundamental(b0, m0, xi, times))
    return np.linalg.svd(E, compute_uv=False)[:, 0]


@pytest.mark.parametrize("xi", [1e-3, 1e-4])
@pytest.mark.parametrize("b0, m0", CRITERION_2_CELLS)
def test_criterion_2_fits_the_exact_norms_slope(b0, m0, xi):
    # criterion 2's fit on its own times and window: the kernel's slope is
    # the exact norms' slope (measured <= 3e-12), so a miss of Re mu+ is the
    # exact solution's finite-window bias, and it is one exactly in the five
    # fits of Open item 5
    th = theta(CFG, xi)
    times = np.geomspace(1e2, th, 120)
    kernel = propagator_norm_trace(CoefficientModel(b0=b0, m0=m0), CFG, xi, times, rtol=1e-10)
    target = classify_regime(b0, m0).mu_plus.real
    fit = fit_decay(times, kernel, (1e2, th), target, tol=0.05)
    exact = fit_decay(times, exact_norm_trace(b0, m0, xi, times), (1e2, th), target, tol=0.05)
    assert abs(fit.exponent - exact.exponent) <= 1e-6
    assert (abs(exact.exponent - target) > 0.05) == ((b0, m0, xi) in OPEN_ITEM_5)


@pytest.mark.parametrize("xi", [1e-3, 1e-4])
def test_double_root_log_shift_matches_the_exact_slope(xi):
    # the sweep predicts the double root (2, 0.25) at Re mu+ plus
    # _double_root_log_shift over its window; the exact norms' slope lies
    # within the sweep's default fit_tol of it (measured 0.019 at xi = 1e-3,
    # 0.011 at 1e-4)
    model = CoefficientModel(b0=2.0, m0=0.25)
    th = theta(CFG, xi)
    times = np.geomspace(1e2, th, 120)
    predicted = predicted_decay(model, "diss") + _double_root_log_shift((1e2, th))
    exact = fit_decay(times, exact_norm_trace(2.0, 0.25, xi, times), (1e2, th), predicted,
                      tol=ExperimentConfig.fit_tol)
    assert exact.verdict, (exact.exponent, predicted)


@pytest.mark.parametrize("b0, m0", [(2.0, 0.75), (2.0, 2.0), (1.0, 1.0)])
def test_scattering_operator_tends_to_the_exact_pure_family_limit(b0, m0):
    # W(T) - W+ is O(1/(xi T)), from the 1/z term of Hankel's expansion
    # (|W(T) - W+| xi T measured 0.5 to 1.3): the exact W at T = 1e8 checks
    # the closed form; scattering_operator's W at T = 2^10, 2^13 and 2^16 is
    # within its Cauchy tol of W+ and keeps the same O(1/(xi T)) distance
    model, tol = CoefficientModel(b0=b0, m0=m0), 1e-3
    for xi in (1.0, 3.0):
        W_plus = exact_pure_scattering_limit(b0, m0, xi)
        T = 1e8
        E = weight_conjugation(xi, xi, exact_pure_fundamental(b0, m0, xi, [T]))[0]
        W = (1.0 + T) ** (b0 / 2.0) * np.linalg.inv(free_micro_propagator(T, xi)) @ E
        assert spectral_norm(W - W_plus) * xi * T <= 2.0, (xi, T)
        for horizon in (2.0 ** 10, 2.0 ** 13, 2.0 ** 16):
            op = scattering_operator(model, CFG, [xi], horizon=horizon, tol=tol)
            err = spectral_norm(op.W[0] - W_plus)
            assert err <= tol and err * xi * op.times[-1] <= 2.0, (xi, horizon, err)


def exact_scattering_residuals(b0, m0, data, grid, times, n_dim=1):
    """scattering_residual's (residual_dt, residual_grad) at times for the
    scale-invariant family, by its formulas on every live frequency of grid,
    with the exact Phi, the exact W+ and lam(t) = (1+t)^(b0/2)."""
    u0, u1 = data.sample(grid)
    live = (np.abs(u0) > 0) | (np.abs(u1) > 0)
    r, u0, u1 = grid[live], u0[live], u1[live]
    Phi = np.stack([exact_pure_fundamental(b0, m0, xi, times) for xi in r], axis=1)
    W_plus = np.array([exact_pure_scattering_limit(b0, m0, xi, N=CFG.N) for xi in r])
    U0 = np.stack([sharp_weight(CFG, 0.0, r) * u0, -1j * u1], axis=-1)
    V = np.einsum("trij,rj->tri", free_micro_propagator(times, r),
                  np.einsum("rij,rj->ri", W_plus, U0))
    lam = (1.0 + np.asarray(times)) ** (b0 / 2.0)
    u = Phi[..., 0, 0] * u0 + Phi[..., 0, 1] * u1
    u_t = Phi[..., 1, 0] * u0 + Phi[..., 1, 1] * u1
    return (radial_norm(lam[:, None] * u_t - 1j * V[..., 1], r, n_dim),
            radial_norm(lam[:, None] * r * u - V[..., 0], r, n_dim))


def scatter_data(amp1):
    """fuchswave scatter's default ring data with amp1, and its grid at N = 1."""
    data = DataSpec(kind="ring", center=0.6, width=0.5, amp0=1.0, amp1=amp1)
    return data, grid_for_data(data, lo=0.05, hi=4.0 * CFG.N, n_points=48, n_refine=120)


def test_scattering_residual_matches_the_exact_pure_family_residuals():
    # the scatter defaults (ring data, grid, horizon 1e4, rtol 1e-9) on the
    # pure cell (2, 0.75): up to t = 16 both residuals equal the exact ones,
    # whose W+ is taken at t = inf, not at 4 x the horizon (measured <= 1.6e-4)
    data, grid = scatter_data(0.7)
    res = scattering_residual(CoefficientModel(b0=2.0, m0=0.75), CFG, data, grid, horizon=1e4)
    early = res.times <= 16.0
    exact_dt, exact_grad = exact_scattering_residuals(2.0, 0.75, data, grid, res.times[early])
    assert res.residual_dt[early] == pytest.approx(exact_dt, rel=1e-3)
    assert res.residual_grad[early] == pytest.approx(exact_grad, rel=1e-3)


def test_exact_gradient_residual_rises_from_t_2_to_t_4():
    # ROADMAP Defect 1's cause: with amp1 = 0.5 the exact residual_grad of the
    # pure cell (2, 0.75) rises from t = 2 to t = 4 (0.0150 to 0.0185) before
    # it decays like 1/t, so a trend test from t = 1 judges a transient of
    # the exact solution, not an integration error
    data, grid = scatter_data(0.5)
    _, grad = exact_scattering_residuals(2.0, 0.75, data, grid, [2.0, 4.0])
    assert grad[1] > grad[0]


def test_scatter_with_the_rising_transient_passes(tmp_path, capsys):
    # the CLI's scatter with amp1 = 0.5: residual_grad rises from t = 1 to
    # t = 4, before every live frequency (xi > 0.1) is in the oscillatory
    # zone at t = 16; the trend is judged on t = 16, 32, 64 and passes
    cfgfile = tmp_path / "scatter.json"
    cfgfile.write_text('{"data": {"amp1": 0.5}, "times": {"t_final": 64.0}}')
    assert run_cli(["scatter", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out.startswith("PASS residuals_decay\n")


@pytest.mark.parametrize("res, window, passes", [
    # a rise before the window, then a fall: passes
    ([1.0, 1.3, 0.6, 0.3, 0.15, 0.07], [False, False, True, True, True, True], True),
    # a rise of 3% over two doublings inside the window: fails
    ([1.0, 0.5, 0.3, 0.2, 0.309, 0.05], [False, False, True, True, True, True], False),
    # a fall, but only two doubling times in the window: fails
    ([1.0, 0.5, 0.3, 0.2, 0.1, 0.05], [False, False, False, False, True, True], False),
    # the window's trend holds, but the end is not below 10% of t = 1: fails
    ([1.0, 1.3, 0.6, 0.3, 0.15, 0.11], [False, False, True, True, True, True], False),
    # at the noise floor throughout: passes, whatever the window
    ([1e-9, 2e-9, 1e-9, 3e-9, 1e-9, 1e-9], [False] * 6, True)])
def test_residual_decays_judges_the_trend_inside_its_window(res, window, passes):
    assert _residual_decays(np.array(res), np.array(window), 1e-8) is passes


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
    with pytest.raises(SeriesRangeError):
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
    # the oracle (from s) lands on every one, and the kernel from t = 0 runs
    # DOP853 throughout, without cells
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


@pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("n_checkpoints", [12, 120])
def test_segmented_fundamental_matrices_match_the_closed_form_damped_wave(xi, n_checkpoints):
    # b = 2/(1+t), m = 0 as a bounded model: DOP853 throughout, cut into
    # time segments of at least one period 2 pi/xi, composed by the cocycle.
    # xi t = 1000 at rtol 1e-12: measured 6.9e-11 to 7.3e-11 (8 to 64
    # segments), the whole solve 7.2e-11 to 7.8e-11
    model = example_bounded(2.0, 0.0, c1=0.0, c2=0.0)
    span = 1000.0 / xi
    times = np.geomspace(1.0, 1.0 + span, n_checkpoints + 1)[1:] - 1.0
    times[-1] = span
    assert len(modal._segments(times, xi)) > 1
    Phi = state_propagator_checkpoints(model, [xi], times, rtol=1e-12)[:, 0]
    E, E_exact = (weight_conjugation(xi, xi, P)
                  for P in (Phi, _damped_wave_phi(xi, times, 0.0)))
    assert max(spectral_norm(a - b) / spectral_norm(b) for a, b in zip(E, E_exact)) <= 1e-10


@pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
def test_the_stacked_oracle_matches_the_closed_form_damped_wave(xi):
    # xi (t - s) = 1000 from s = 3 at rtol 1e-12, cut into 168 pieces of at
    # most PIECE_LENGTH: measured 5.2e-12 to 5.4e-12 alone and 2.9e-12 in one
    # batch of all three, where the single solve measures 7.1e-11 to 7.3e-11
    model = CoefficientModel(b0=2.0, m0=0.0)
    s = 3.0
    items = [(ModalSystem(model, CFG, x, FORM_HYP), s, s + 1000.0 / x) for x in (0.5, 2.0, 8.0)]
    for batch in ([item for item in items if item[0].xi_norm == xi], items):
        for (system, _, t), E in zip(batch, modal.integrate_fundamentals(batch, tol=1e-12)):
            x = system.xi_norm
            E_exact = weight_conjugation(x, x, _damped_wave_phi(x, np.array([t]), s))[0]
            assert spectral_norm(E.entries - E_exact) / spectral_norm(E_exact) <= 1e-10


def test_the_stacked_oracle_is_nearer_the_tight_oracle_than_the_single_solve():
    # the 20 CLI-default repcheck points (about 2,200 pieces, dealt into two
    # shares): per point the batch at rtol 1e-12 is no farther from the
    # single solve at 1e-14 than the single solve at 1e-12 is.  Measured: at
    # most 1.2e-11 against 1.7e-10
    cfg = ExperimentConfig.from_dict({"experiment": "repcheck",
                                      **EXPERIMENTS["repcheck"].defaults})
    items = [(ModalSystem(cfg.model, cfg.zone, xi, FORM_HYP), s, t)
             for s, t, xi in _repcheck_points(cfg)]
    assert sum(len(modal._piece_ends(sy.xi_norm, s, t)) - 1
               for sy, s, t in items) > modal.CALL_COMPONENTS
    batch = modal.integrate_fundamentals(items, tol=1e-12)
    for item, E in zip(items, batch):
        tight = integrate_fundamental(*item, tol=1e-14).entries
        single = integrate_fundamental(*item, tol=1e-12).entries
        assert spectral_norm(E.entries - tight) <= spectral_norm(single - tight)


def test_the_stacked_oracle_keeps_each_form_and_the_identity():
    # diss and hyp forms, and a span of length zero, in one batch: within the
    # single oracle's error of it
    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    items = [(ModalSystem(model, CFG, 0.01, FORM_DISS), 0.0, 50.0),
             (ModalSystem(model, CFG, 2.0, FORM_HYP), 1.5, 40.0),
             (ModalSystem(model, CFG, 2.0, FORM_HYP), 7.0, 7.0)]
    for item, E in zip(items, modal.integrate_fundamentals(items, tol=1e-12)):
        single = integrate_fundamental(*item, tol=1e-12).entries
        assert E.provenance == "oracle"
        assert spectral_norm(E.entries - single) <= 1e-9 * spectral_norm(single)
    with pytest.raises(ValueError, match="share one model"):
        modal.integrate_fundamentals([items[0], (ModalSystem(FREE, CFG, 1.0), 0.0, 1.0)])


def test_a_span_the_stacked_oracle_cannot_finish_raises_stiffness_error_inside_it():
    # m = -1/(2-t)^4 blows the modes up at t = 2, inside the second span only:
    # the error names a time in that span and its frequency
    blowup = SimpleNamespace(kernel=lambda: lambda t: (0.0, -1.0 / (2.0 - t) ** 4))
    items = [(ModalSystem(blowup, CFG, xi, FORM_HYP), s, t)
             for xi, s, t in ((0.75, 0.0, 1.5), (1.25, 0.5, 8.0), (0.6, 2.5, 4.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as info:
            modal.integrate_fundamentals(items)
    assert 0.5 <= info.value.t < 2.0 and info.value.xi == 1.25


_TS = np.linspace(0.0, 400.0, 801)
_ONE_FREQUENCY_MODELS = [
    example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5),
    example_log(2.0, 2.0),
    CoefficientModel(b0=2.0, m0=1.0, family="tabulated",
                     b_table=TabulatedCoefficient.from_columns(_TS, 2.0 / (1.0 + _TS)),
                     m_table=TabulatedCoefficient.from_columns(_TS, 1.0 / (1.0 + _TS) ** 2))]


@pytest.mark.parametrize("model", _ONE_FREQUENCY_MODELS)
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("model", _ONE_FREQUENCY_MODELS, ids=lambda model: model.family)
def test_float_and_buffer_right_hand_sides_agree_bit_for_bit(model, n, monkeypatch):
    # one frequency's modes run on Python floats, the right-hand side the
    # oracle uses; with a mode at another xi added they run in the
    # preallocated buffer, and on the same states both give the same bits
    kernel = model.kernel()
    xi = np.full(n, 2.0)
    y0 = np.eye(2).ravel() if n == 2 else np.array([1.0, 0.5])
    times = np.array([1.5, 40.0, 300.0])
    bodies, solve_ivp = [], modal.solve_ivp

    def recorded(fun, t_span, y0, t_eval, rtol, atol):
        bodies.append(fun)
        return solve_ivp(fun, t_span, y0, t_eval, rtol, atol)

    def with_extra_mode(y):  # (u_1..u_n, u, u'_1..u'_n, u') with (u, u') = (0.2, -0.7)
        return np.insert(y, [n, 2 * n], [0.2, -0.7])

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    u, v = modal._solve_modes(kernel, xi, y0, times, 1e-12, 1e-16, s=1.0)
    modal._solve_modes(kernel, np.append(xi, 3.0), with_extra_mode(y0), times, 1e-12, 1e-16,
                       s=1.0)
    floats, buffer = bodies
    for t, y in zip(np.append(1.0, times), np.vstack((y0, np.hstack((u, v))))):
        a, b = floats(t, y), buffer(t, with_extra_mode(y))
        assert type(a) is list and type(b) is np.ndarray
        b = np.delete(b, [n, 2 * n + 1])
        assert np.array_equal(np.array(a).view(np.uint64), b.view(np.uint64))


def test_in_place_mode_rhs_matches_a_concatenating_rhs(monkeypatch):
    # the batched kernel's right-hand side writes into one reused buffer with
    # b and m held in 0-d arrays; a right-hand side that builds a new array
    # from b(t) and m(t) each call gives the same checkpoints bit for bit at
    # the same number of calls
    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    b, m = model.b, model.m
    xi = np.linspace(1.0, 1.9, 7)
    y0 = np.concatenate((np.linspace(1.0, -1.0, 7), np.linspace(0.5, 0.1, 7)))
    times = np.array([0.5, 7.0, 40.0])
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
    # its own values: the bounded model's two bands share one solve, the
    # same as one _solve_modes call at tolerances scaled by sqrt(1/2); the
    # scale-invariant model's solve apart, each the same as its band alone
    times = np.array([0.5, 3.0, 9.0, 20.0])

    def evolved(model, xi):
        u, v = evolve_state(model, xi, np.ones(len(xi)), np.zeros(len(xi)), times,
                            rtol=1e-11)
        for w in (u, v):
            assert len({x.tobytes() for x in w}) == times.size
            assert len({x.tobytes() for x in w.T}) == len(xi)
        return u, v

    bounded = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    u, v = evolved(bounded, [1.0, 5.0])
    c = math.sqrt(0.5)
    u1, v1 = modal._solve_modes(bounded.kernel(), np.array([1.0, 5.0]),
                                np.array([1.0, 1.0, 0.0, 0.0]), times,
                                1e-11 * c, 1e-11 * 1e-6 * c)
    assert np.array_equal(u, u1) and np.array_equal(v, v1)

    pure = CoefficientModel(b0=2.0, m0=0.75)
    u, v = evolved(pure, [1.0, 5.0])
    for k, xi in enumerate((1.0, 5.0)):
        u1, v1 = evolved(pure, [xi])
        assert np.array_equal(u[:, k], u1[:, 0]) and np.array_equal(v[:, k], v1[:, 0])


def _recorded_solves(monkeypatch):
    """modal.solve_ivp calls as (end of span, state size, rtol, atol)."""
    solves, solve_ivp = [], modal.solve_ivp

    def recorded(fun, t_span, y0, t_eval, rtol, atol):
        solves.append((t_span[1], len(y0), rtol, atol))
        return solve_ivp(fun, t_span, y0, t_eval, rtol, atol)

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    return solves


def test_octave_bands_share_one_solve_where_it_costs_less(monkeypatch):
    bounded = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    times, atol = np.array([1.0, 5.0, 40.0]), 1e-10 * 1e-6  # evolve_state's default
    solves = _recorded_solves(monkeypatch)
    # four bands of one real mode each: one solve at c = sqrt(1/4), its
    # modes in band order
    xi = np.array([0.8, 0.15, 1.7, 0.35])
    assert len(modal._band_slices(xi)) == 4
    u, _ = evolve_state(bounded, xi, np.ones(4), np.zeros(4), times, rtol=1e-10)
    assert solves == [(40.0, 8, 1e-10 * 0.5, atol * 0.5)]
    order = np.argsort(xi)
    u1, _ = modal._solve_modes(bounded.kernel(), xi[order], np.repeat([1.0, 0.0], 4),
                               times, 1e-10 * 0.5, atol * 0.5)
    assert np.array_equal(u[:, order].real, u1)
    # scale-invariant bands leave DOP853 at their own z = xi (1+t) = Z_MATCH
    # (t = 40, capped, 11.5 and 2.125): one solve per band
    solves.clear()
    evolve_state(CoefficientModel(b0=2.0, m0=0.75), [0.5, 2.0, 8.0], np.ones(3),
                 np.zeros(3), times, rtol=1e-10)
    assert solves == [(40.0, 2, 1e-10, atol), (11.5, 2, 1e-10, atol),
                      (2.125, 2, 1e-10, atol)]
    # a lone mode at 0.1 below an octave of 99 would tighten the top band's
    # test 10-fold for a solve that takes a tenth of its steps; and a wide
    # state pays mostly per component, so it gains little from fewer calls:
    # both keep a solve per band
    for xi in (np.r_[0.1, np.linspace(1.0, 1.9, 99)], np.linspace(0.5, 3.0, 5001)):
        solves.clear()
        evolve_state(bounded, xi, np.ones(xi.size), np.zeros(xi.size), [1.0], rtol=1e-10)
        assert [n for _, n, _, _ in solves] == [2 * len(b) for b in modal._band_slices(xi)]
        assert len(solves) > 1 and all(r == 1e-10 for _, _, r, _ in solves)


_T_TABLE = np.linspace(0.0, 512.0, 1025)
_BOUNDED = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)


@pytest.mark.parametrize("lone", [False, True], ids=["scatter", "lone_low_mode"])
@pytest.mark.parametrize("model", [
    _BOUNDED,
    example_log(2.0, 0.75, b1=0.5, m1=0.5),
    CoefficientModel(b0=2.0, m0=0.75, family="tabulated",
                     b_table=TabulatedCoefficient.from_columns(_T_TABLE, _BOUNDED.b(_T_TABLE)),
                     m_table=TabulatedCoefficient.from_columns(_T_TABLE, _BOUNDED.m(_T_TABLE)))],
    ids=["bounded", "log", "tabulated"])
def test_a_shared_solve_keeps_each_bands_error(model, lone):
    # scatter's grid (ring data on (0.1, 1.1), four octave bands), alone or
    # below a lone frequency 0.04, a band of its own that takes c from 0.39
    # to 0.086; both columns of Phi(t, 0) to t = 512 (each band's worst
    # deviation comes earlier, so scatter's t = 2048 gives the same): in the
    # shared solve each band deviates from a 1000x tighter run by no more
    # than when it is solved alone at the given tolerances
    data = DataSpec(kind="ring", center=0.6, width=0.5, amp0=1.0, amp1=0.7)
    r = grid_for_data(data, lo=0.05, hi=4.0, n_points=48, n_refine=120)
    r = np.r_[[0.04] * lone, r[np.abs(data.sample(r)[0]) > 0]]
    xi, (u0, u1) = np.tile(r, 2), np.repeat(np.eye(2), r.size, axis=1)
    times = 2.0 ** np.arange(10)
    rtol, atol = 1e-9, 1e-15
    bands = modal._band_slices(xi)
    assert len(bands) == 4 + lone and modal._shared_tolerance(xi, bands) is not None
    u, v = evolve_state(model, xi, u0, u1, times, rtol=rtol, atol=atol)
    for band in bands:
        y0 = np.concatenate((u0[band], u1[band]))
        ref, alone = (np.hstack(modal._solve_modes(model.kernel(), xi[band], y0, times,
                                                   rtol * f, atol * f))
                      for f in (1e-3, 1.0))
        shared = np.hstack((u[:, band].real, v[:, band].real))
        assert np.abs(shared - ref).max() <= np.abs(alone - ref).max()


@pytest.mark.parametrize("model", [
    _BOUNDED,
    example_log(2.0, 0.75, b1=0.5, m1=0.5),
    CoefficientModel(b0=2.0, m0=0.75, family="tabulated",
                     b_table=TabulatedCoefficient.from_columns(_T_TABLE, _BOUNDED.b(_T_TABLE)),
                     m_table=TabulatedCoefficient.from_columns(_T_TABLE, _BOUNDED.m(_T_TABLE)))],
    ids=["bounded", "log", "tabulated"])
def test_time_segments_keep_the_error_of_the_whole_solve(model):
    # scatter's grid, both columns of Phi(t, 0) to t = 512 in 7 time
    # segments, against a whole evolve_state solve 1000x tighter.  Measured
    # largest deviations, segmented against whole: bounded 1.189e-10 against
    # 1.195e-10, log 1.200e-10 against 1.205e-10, tabulated 1.8248e-9 both
    data = DataSpec(kind="ring", center=0.6, width=0.5, amp0=1.0, amp1=0.7)
    r = grid_for_data(data, lo=0.05, hi=4.0, n_points=48, n_refine=120)
    r = r[np.abs(data.sample(r)[0]) > 0]
    times, rtol, atol = 2.0 ** np.arange(10), 1e-9, 1e-15
    assert len(modal._segments(times, r.max())) == 7
    u0, u1 = np.repeat(np.eye(2), r.size, axis=1)
    ref, whole = (modal._fundamental(*evolve_state(model, np.tile(r, 2), u0, u1, times,
                                                   rtol=rtol * f, atol=atol * f))
                  for f in (1e-3, 1.0))
    segmented = state_propagator_checkpoints(model, r, times, rtol=rtol, atol=atol)
    assert np.abs(segmented - ref).max() <= 1.05 * np.abs(whole - ref).max()


def test_solves_let_go_of_what_their_right_hand_side_holds():
    # the DOP853 extension keeps a reference to the callable of every call; a
    # solve hands it a forwarder whose target it empties, so an array its
    # right-hand side captures (1 MB here) is freed with the solve
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


def test_solves_keep_nothing_per_solve():
    # the DOP853 extension keeps a reference to the callables of every call;
    # every solve hands it the same forwarder and solout, so 2,000 solves of a
    # two-component state, each with a right-hand side of its own, keep under
    # 50 B each (about 1.9 KB each when every solve made its own)
    def solve():
        return modal.solve_ivp(lambda t, y: np.array([y[1], -y[0]]), (0.0, 1.0),
                               np.ones(2), [0.5, 1.0], 1e-10, 1e-14)

    solve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            sol = solve()
        del sol
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2000 * 50, kept


def test_a_solve_started_inside_a_right_hand_side_raises():
    # every solve shares the forwarder's target, so the driver is not
    # reentrant: a right-hand side that starts a solve raises out of the
    # running one, and the next solve works
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    def nested(t, y):
        modal.solve_ivp(rhs, (0.0, 1.0), np.ones(2), [1.0], 1e-10, 1e-14)
        return rhs(t, y)

    with pytest.raises(RuntimeError, match="while a solve is running"):
        modal.solve_ivp(nested, (0.0, 1.0), np.ones(2), [1.0], 1e-10, 1e-14)
    sol = modal.solve_ivp(rhs, (0.0, 1.0), np.ones(2), [1.0], 1e-10, 1e-14)
    assert sol.success
    exact = [math.cos(1.0) + math.sin(1.0), math.cos(1.0) - math.sin(1.0)]
    assert np.allclose(sol.y[:, -1], exact, rtol=1e-9, atol=0.0)


def test_an_exception_in_the_right_hand_side_ends_the_solve():
    # an exception raised in the extension's callback does not stop DOP853
    # by itself (such a solve had not returned after 10 s); the forwarder
    # keeps it, the next accepted step interrupts the integration and
    # solve_ivp raises it, without calling the right-hand side again
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 20:
            raise ValueError("raised by the right-hand side")
        return np.array([y[1], -y[0]])

    with pytest.raises(ValueError, match="raised by the right-hand side"):
        modal.solve_ivp(rhs, (0.0, 1.0), np.ones(2), [0.5, 1.0], 1e-10, 1e-14)
    assert len(calls) == 20


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
    # the DOP853 extension keeps a reference to the callables of every call:
    # a solve must let go of its state-sized work array (11 n + 21 doubles),
    # and nothing may pile up over the checkpoints
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
        with pytest.raises(StiffnessError) as info:
            modal._solve_modes(lambda t: (0.0, -1.0 / (2.0 - t) ** 4),
                               np.array([0.5, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                               np.array([1.0, 3.0]), 1e-10, 1e-16)
    assert info.value.t == 1.0 and info.value.xi == 1.0


def test_every_solve_runs_through_the_one_mode_kernel(monkeypatch):
    # the oracle, its self-verification, evolve_state on one band and on
    # several, and the rate sweeps' traces all solve in _solve_modes
    callers, spans, solve_ivp = [], [], modal.solve_ivp

    def recorded(fun, t_span, y0, t_eval, rtol, atol):
        callers.append(sys._getframe(1).f_code)
        spans.append(t_span)
        return solve_ivp(fun, t_span, y0, t_eval, rtol, atol)

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    bounded = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    system = ModalSystem(bounded, CFG, 2.0, FORM_HYP)
    propagator_checkpoints(system, 1.5, [2.0, 30.0])
    assert spans == [(1.5, 30.0)]
    integrate_fundamental(system, 0.5, 20.0, verify=True)
    evolve_state(bounded, [1.0, 1.5], np.ones(2), np.zeros(2), [1.0, 10.0])
    evolve_state(bounded, [0.3, 1.0, 5.0], np.ones(3), np.ones(3), [1.0, 10.0])
    scale_invariant_norm_traces([(2.0, 2.0), (3.0, 0.0)], CFG, 0.5, [1.0, 10.0])
    assert len(callers) >= 7
    assert all(code is modal._solve_modes.__code__ for code in callers)


def test_the_oracle_raises_stiffness_error_from_its_start_time():
    # m = -1/(2-t)^4 blows the modes up at t = 2; started at s = 0.5, the
    # oracle names the last checkpoint reached, or s where it reached none,
    # and the system's frequency
    blowup = SimpleNamespace(kernel=lambda: lambda t: (0.0, -1.0 / (2.0 - t) ** 4))
    system = ModalSystem(blowup, CFG, 0.75, FORM_HYP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times, reached in (([1.0, 3.0], 1.0), ([3.0], 0.5)):
            with pytest.raises(StiffnessError) as info:
                propagator_checkpoints(system, 0.5, times)
            assert info.value.t == reached and info.value.xi == 0.75


ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.FuchswaveError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_typed_errors_survive_copy_and_pickle(cls):
    # an error raised in a worker or copied by a test framework keeps its
    # type, its message and its (t, xi) context; str() is the message alone,
    # as sweep writes it into a CSV cell, or the message and (t, xi)
    for error, text in ((cls("step size becomes too small"), "step size becomes too small"),
                        (cls("step size becomes too small", t=1.0, xi=2.0),
                         "step size becomes too small (t=1.0, xi=2.0)"),
                        (cls("no settled point", xi=0.5), "no settled point (t=None, xi=0.5)")):
        assert str(error) == text
        for twin in (copy.copy(error), pickle.loads(pickle.dumps(error))):
            assert type(twin) is cls and str(twin) == text
            assert vars(twin) == vars(error)


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


def test_the_dop853_extension_modal_loads_reads_its_work_arrays():
    # modal calls dopri853 from scipy's _dop file with arrays of its own: the
    # first step is WORK(7), NFCN (IWORK(17)) counts the initial-step guess's
    # call, skipped here, and a blow-up (m = -1/(2-t)^4 at t = 2) returns a
    # negative IDID short of its end
    def run(fun, y0, t_end, rtol, atol, first_step=0.0):
        work, iwork = np.zeros(11 * y0.size + 21), np.zeros(21, dtype=np.int32)
        work[6], ends = first_step, []
        x, y, idid = modal._dopri853(fun, 0.0, y0, t_end, rtol, atol,
                                     lambda x, _: ends.append(x), 1, work, iwork,
                                     2 ** 31 - 1, -1, ())
        return x, y, idid, ends, iwork

    calls = []
    x, y, idid, ends, iwork = run(lambda t, y: calls.append(t) or -y, np.ones(3), 10.0,
                                  1e-6, 1e-12, first_step=0.25)
    assert idid == 1 and x == 10.0 and ends[:2] == [0.0, 0.25]
    assert iwork[16] == len(calls) + 1
    assert np.allclose(y, math.exp(-10.0), rtol=1e-5)
    x, y, idid, ends, iwork = run(
        lambda t, y: np.array([y[1], (1.0 / (2.0 - t) ** 4 - 0.25) * y[0]]),
        np.array([1.0, 0.0]), 3.0, 1e-10, 1e-16)
    assert idid < 0 and x < 2.0


def test_solve_ivp_matches_scipy_ode_imported_after_fuchswave():
    # scipy.integrate, imported after modal has loaded the extension from its
    # file, loads it again: modal.solve_ivp and scipy.integrate.ode("dop853"),
    # driven checkpoint by checkpoint with the same step carried over, agree
    # bit for bit on 120 checkpoints, and so do their right-hand-side counts;
    # a narrow bump in m at t = 30 rejects steps down to the step-ratio bound,
    # so the safety and step-ratio parameters (WORK(2..4)) show too
    script = """
import collections, math, sys
import numpy as np
from fuchswave import modal
assert "scipy.integrate" not in sys.modules
from scipy.integrate import ode

xi, times = 0.05, np.geomspace(1.0, 1e3, 120)
calls = []

def rhs(t, y):
    calls.append(t)
    m = 1e4 * math.exp(-((t - 30.0) / 0.1) ** 2)
    return np.array([y[1], -(xi * xi + m) * y[0] - 2.0 / (1.0 + t) * y[1]])

sol = modal.solve_ivp(rhs, (0.0, 1e3), np.array([1.0, 0.0]), times, 1e-10, 1e-14)
assert sol.success and sol.nfev == len(calls)
calls.clear()
solver = ode(rhs).set_integrator("dop853", rtol=1e-10, atol=1e-14, nsteps=2 ** 31 - 1)
ends = collections.deque(maxlen=3)
solver.set_solout(lambda x, _: ends.append(x))
solver.set_initial_value(np.array([1.0, 0.0]), 0.0)
work, iwork = solver._integrator.work, solver._integrator.iwork
ys, nfev = [], 0
for t in times:
    ends.clear()
    solver.integrate(t)
    assert solver.successful()
    nfev += int(iwork[16]) - bool(work[6])
    if len(ends) == 3:
        work[6] = ends[1] - ends[0]
    ys.append(solver.y)
assert np.array_equal(sol.y, np.array(ys).T), abs(sol.y - np.array(ys).T).max()
assert sol.nfev == nfev == len(calls), (sol.nfev, nfev, len(calls))
"""
    src = str(Path(fuchswave.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
