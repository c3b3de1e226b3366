"""Per-frequency ODE systems and the brute-force reference propagators.

Everything downstream (zone-rate fits, representation identities, scattering)
is validated against the fundamental matrices integrated here at tight
tolerance by Hairer's Fortran DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
II.10) through scipy.integrate.ode, on real states: the steps run in Fortran,
only the right-hand side is called back, and each checkpoint is landed on
exactly, one integration leg per checkpoint (solve_ivp).  A right-hand side
evaluates the coefficients once per call, through the model's kernel
t -> (b(t), m(t)) (CoefficientModel.kernel), and the batched one writes into
one preallocated buffer, so it allocates nothing per call.

One state is integrated per frequency: X = (u_hat, u_hat'), with
X' = [[0, 1], [-(xi^2+m), -b]] X and real fundamental matrix Phi(t,s).  Each
form of the micro-energy U = (h u_hat, D_t u_hat), D_t = -i d/dt, conjugates
Phi by T = diag(h, -i) (weight_conjugation):

  diss_system   h = N/(1+t):  D_t U = [[i/(1+t), N/(1+t)], [(1+t)(xi^2+m)/N, i b]] U,
                in Fuchs form (1+t) dU/dt = (A + R(t,xi)) U, A = [[-1, iN], [i m0/N, -b0]]
  hyp_system    h = xi:       D_t U = [[0, xi], [xi + m/xi, i b]] U
  sharp weight  h = max(N/(1+t), xi): diss up to the zone boundary, hyp beyond

For the scale-invariant family b = b0/(1+t), m = m0/(1+t)^2, u(t) = f(z) with
z = xi (1+t), and z^((b0-1)/2) f solves Bessel's equation.  The batched
kernel (_solve_modes) runs DOP853 up to z = Z_MATCH only and continues such
modes with Hankel's expansion f+- = z^(-b0/2) e^(+-iz) sum_k (+-i)^k a_k z^-k,
nu^2 = ((b0-1)/2)^2 - m0 (DLMF 10.17.5); all other families, and the
single-system oracle propagator_checkpoints, run DOP853 throughout.
"""

from __future__ import annotations

import collections
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode

from . import zones
from .coeffs import PURE
from .zones import ZoneConfig, sharp_weight

FORM_DISS = "diss_system"
FORM_HYP = "hyp_system"

DEFAULT_RTOL = 1e-10  # relative, per unit log-time of the integration span

# Hankel's expansion takes over at z = max(Z_MATCH, 2|nu|^2): from there on
# its terms fall below _SERIES_TOL |S| before they stop decreasing
Z_MATCH = 25.0
_SERIES_TOL = 1e-17


class StiffnessError(RuntimeError):
    """An integration stopped short: t is the last checkpoint it reached, xi
    the frequency (the largest of a band)."""

    def __init__(self, message, t=None, xi=None):
        super().__init__(f"{message} (t={t}, xi={xi})")
        self.t = t
        self.xi = xi


class SeriesRangeError(ValueError):
    """Hankel's expansion was asked for outside its validated range."""


class HorizonError(RuntimeError):
    """A construction or limit did not settle within the horizon it was given."""

    def __init__(self, message, last_increment=None):
        super().__init__(message)
        self.last_increment = last_increment


@dataclass(frozen=True)
class IvpResult:
    """The part of scipy's solve_ivp result the modal solves read: the
    checkpoints reached, the state there (shape (len(y0), len(t))), and the
    right-hand-side calls made."""

    t: np.ndarray
    y: np.ndarray
    success: bool
    message: str
    nfev: int


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """y' = fun(t, y) for a real state y0 at t_span[0], integrated by Hairer's
    DOP853 to every checkpoint in t_eval (ascending, within t_span).  Each
    checkpoint ends one call of the Fortran code, landing on it exactly; the
    next call starts with the last full accepted step (recorded through
    solout), written as its initial step WORK(7), so a checkpoint costs its
    landing step and one restart, not a fresh step-size search.  A failed
    call ends the solve with success False; y then holds the checkpoints
    reached."""
    t_eval = np.asarray(t_eval, dtype=float)
    y = np.empty((t_eval.size, len(y0)))
    # scipy's wrapper keeps a reference to the callable of every call: it gets
    # a forwarder to fun, emptied when the solve ends, so whatever fun holds
    # is freed with it
    target = [fun]
    # no step limit (the largest IWORK(1)), as in scipy's solve_ivp
    solver = ode(lambda t, y: target[0](t, y)).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=2 ** 31 - 1)
    xs = collections.deque(maxlen=3)  # the last accepted step ends
    solver.set_solout(lambda x, _: xs.append(x))
    solver.set_initial_value(y0, float(t_span[0]))
    integrator = solver._integrator  # its work and counter arrays, one per solve
    t_now, nfev, done, message = solver.t, 0, 0, "the solver reached every checkpoint"
    try:
        with warnings.catch_warnings():  # a failed call warns; it is reported below
            warnings.filterwarnings("ignore", "dop853: ", UserWarning)
            for done, t in enumerate(t_eval):
                if t > t_now:
                    xs.clear()
                    solver.integrate(t)
                    # NFCN, IWORK(17), counts a call for the initial-step
                    # guess, which a given WORK(7) skips
                    nfev += int(integrator.iwork[16]) - bool(integrator.work[6])
                    if not solver.successful():
                        message = integrator.messages.get(solver.get_return_code(),
                                                          "DOP853 failed")
                        break
                    if len(xs) == 3:  # the call took a full step before landing
                        integrator.work[6] = xs[1] - xs[0]
                    t_now = t
                y[done] = solver.y
            else:
                done = t_eval.size
    finally:
        # scipy's wrapper keeps the integrator too: let go of its state-sized
        # work array
        integrator.reset(0, False)
        target.clear()
    return IvpResult(t=t_eval[:done], y=y[:done].T, success=done == t_eval.size,
                     message=message, nfev=nfev)


@dataclass(frozen=True)
class ModalSystem:
    model: object
    config: ZoneConfig
    xi_norm: float
    form: str = FORM_DISS

    def __post_init__(self):
        if self.form not in (FORM_DISS, FORM_HYP):
            raise ValueError(f"unknown system form {self.form!r}")
        if self.form == FORM_HYP and self.xi_norm == 0.0:
            raise ValueError("hyp_system is singular at xi = 0")


@dataclass
class FundamentalMatrix:
    """2x2 propagator E(t,s,xi) with provenance (oracle / representation / levinson)."""

    entries: np.ndarray
    span: tuple
    xi_norm: float
    provenance: str = "oracle"
    q: object = None            # the QResult a representation was built from

    def norm(self):
        return spectral_norm(self.entries)

    def det(self):
        return np.linalg.det(self.entries)


@dataclass
class MicroEnergy:
    value: np.ndarray   # (h * u_hat, D_t u_hat)
    t: float
    xi_norm: float


def spectral_norm(mat):
    return float(np.linalg.norm(np.asarray(mat), ord=2))


def fuchs_constant_matrix(model, config):
    N = config.N
    return np.array([[-1.0, 1j * N], [1j * model.m0 / N, -model.b0]], dtype=complex)


def fuchs_remainder(model, config, t, xi_norm):
    N = config.N
    w = 1.0 + t
    r21 = 1j * (w * w * xi_norm ** 2 + (w * w * model.m(t) - model.m0)) / N
    r22 = model.b0 - w * model.b(t)
    return np.array([[0.0, 0.0], [r21, r22]], dtype=complex)


def propagator_checkpoints(sys, s, times, rtol=DEFAULT_RTOL):
    """E(t_i, s, xi) for all checkpoint times in one adaptive integration of
    the real fundamental matrix Phi(t, s), conjugated by T = diag(h, -i)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < s):
        raise ValueError("checkpoints must satisfy t >= s")
    coefficients, xi2 = sys.model.kernel(), sys.xi_norm ** 2

    def rhs(t, y):  # y = (Phi00, Phi01, Phi10, Phi11)
        # Python floats in and a list out cost less per call than numpy
        # scalars and a new array, with the same arithmetic
        y0, y1, y2, y3 = y.tolist()
        b, m = coefficients(t)
        k = -(xi2 + m)
        return [y2, y3, k * y0 - b * y2, k * y1 - b * y3]

    sol = solve_ivp(rhs, (s, float(times[-1])), np.eye(2).ravel(), t_eval=times,
                    rtol=rtol, atol=rtol * 1e-4)
    if not sol.success:
        raise StiffnessError(sol.message, t=sol.t[-1] if sol.t.size else s, xi=sys.xi_norm)
    Phi = sol.y.T.reshape(-1, 2, 2)
    if sys.form == FORM_HYP:
        return weight_conjugation(sys.xi_norm, sys.xi_norm, Phi)
    return weight_conjugation(sys.config.N / (1.0 + times), sys.config.N / (1.0 + s), Phi)


def integrate_fundamental(sys, s, t, tol=DEFAULT_RTOL, verify=False):
    """Reference oracle for E(t,s,xi); optional halved-tolerance cross-check
    at 10 log-spaced checkpoints (relative deviation recorded)."""
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    if t == s:
        return FundamentalMatrix(np.eye(2, dtype=complex), (s, t), sys.xi_norm)
    E = propagator_checkpoints(sys, s, [t], rtol=tol)[0]
    fm = FundamentalMatrix(E, (s, t), sys.xi_norm)
    if verify:
        pts = np.geomspace(max(s, 1e-3) + 1.0, t - s + max(s, 1e-3) + 1.0, 10) - 1.0 + s
        pts = np.clip(pts, s, t)
        coarse = propagator_checkpoints(sys, s, pts, rtol=tol)
        fine = propagator_checkpoints(sys, s, pts, rtol=tol / 2.0)
        dev = max(spectral_norm(a - b) / max(spectral_norm(b), 1e-300)
                  for a, b in zip(coarse, fine))
        fm.provenance = f"oracle(verified, dev={dev:.2e})"
    return fm


def check_cocycle(sys, s, r, t, tol=DEFAULT_RTOL):
    """|| E(t,r)E(r,s) - E(t,s) || / ||E(t,s)||."""
    if not s <= r <= t:
        raise ValueError("need s <= r <= t")
    Ets = integrate_fundamental(sys, s, t, tol).entries
    Etr = integrate_fundamental(sys, r, t, tol).entries
    Ers = integrate_fundamental(sys, s, r, tol).entries
    return spectral_norm(Etr @ Ers - Ets) / spectral_norm(Ets)


# ---------------------------------------------------------------------------
# Unweighted scalar oracle, vectorised over frequencies
# ---------------------------------------------------------------------------

def propagator_label(family):
    """How the batched kernel propagates the modes of a model family."""
    return f"dop853+hankel(z*={Z_MATCH:g})" if family == PURE else "dop853"


def _hankel_series(nu2, z):
    """S(z) = sum_k i^k a_k z^-k, a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k),
    and dS/dz, each entry summed until its term falls below _SERIES_TOL |S|;
    where the terms stop decreasing first, SeriesRangeError, never a
    truncated sum."""
    term = np.ones(np.shape(z), dtype=complex)
    S, dS = term.copy(), np.zeros_like(term)
    live = np.ones(term.shape, dtype=bool)
    k = 0
    while live.any():
        k += 1
        prev = np.abs(term)
        term = term * (1j * (4.0 * nu2 - (2 * k - 1) ** 2) / (8.0 * k * z))
        bad = live & (np.abs(term) >= prev)
        if bad.any():
            raise SeriesRangeError(f"Hankel's expansion diverges before it converges at "
                                   f"nu^2 = {np.broadcast_to(nu2, z.shape)[bad][0]:g}, "
                                   f"z = {z[bad][0]:g}")
        S += np.where(live, term, 0.0)
        dS -= np.where(live, k / z * term, 0.0)
        live &= np.abs(term) >= _SERIES_TOL * np.abs(S)
    return S, dS


def _hankel_continue(b0, nu2, xi, t0, y0, times):
    """y = (u, u') at times >= t0 of scale-invariant modes in the real state
    y0 at t0: y(t) = W(z) W(z0)^-1 y0, W = [[f+, f-], [xi f+', xi f-']],
    f- = conj(f+), with z0 = xi (1+t0) and f+ normalised to S(z0) there; the
    f- coefficient is the conjugate of the f+ one, so y = 2 Re(c+ (f+, xi f+'));
    shape (2n, len(times))."""
    z0, z = xi * (1.0 + t0), xi * (1.0 + times[:, None])

    def basis(z, amp):  # (f+, xi f+') for f+ = amp S(z)
        S, dS = _hankel_series(nu2, z)
        return amp * S, xi * amp * (dS + (1j - b0 / (2.0 * z)) * S)

    p0, q0 = basis(z0, 1.0)
    p, q = basis(z, (z / z0) ** (-b0 / 2.0) * np.exp(1j * xi * (times[:, None] - t0)))
    u0, v0 = np.split(y0, 2)
    c_plus = (q0.conj() * u0 - p0.conj() * v0) / (p0 * q0.conj() - p0.conj() * q0)
    return 2.0 * np.vstack(((c_plus * p).real.T, (c_plus * q).real.T))


def _solve_modes(coefficients, xi, y0, times, rtol, atol, cells=None):
    """One DOP853 solve of u'' + b(t) u' + (xi^2 + m(t)) u = 0 for a stack of
    modes, real state y = (u_1..u_n, u'_1..u'_n) from t = 0.  coefficients(t)
    returns the pair (b(t), m(t)) (a model's kernel), each either a scalar
    shared by every mode or one value per mode.  The right-hand side makes
    one coefficients call, holds b and m in arrays shaped like their values
    at t = 0, and writes y' into one preallocated 2n buffer (the Fortran
    callback copies what it returns), in the order (-xi^2 - m) u - b u', so
    it allocates nothing per call.
    Scale-invariant modes pass cells = (b0, m0), scalars or one per mode: the
    solve then stops once every mode has z = xi (1+t) >= max(Z_MATCH, 2|nu|^2),
    and Hankel's expansion carries each on.  Returns u and u' at the
    checkpoint times, each of shape (len(times), n)."""
    n = xi.size
    neg_xi2 = -xi ** 2  # neg_xi2 - m equals -(xi^2 + m) exactly
    b, m = (np.array(c, dtype=float) for c in coefficients(0.0))
    dy, bv = np.empty(2 * n), np.empty(n)
    du, dv = dy[:n], dy[n:]

    def rhs(t, y):
        b[()], m[()] = coefficients(t)
        u = y[:n]
        v = y[n:]
        du[:] = v
        np.subtract(neg_xi2, m, out=dv)
        np.multiply(dv, u, out=dv)
        np.multiply(b, v, out=bv)
        np.subtract(dv, bv, out=dv)
        return dy

    t_match = float(times[-1])
    if cells is not None:
        b0, m0 = (np.broadcast_to(np.asarray(c, dtype=float), xi.shape) for c in cells)
        nu2 = ((b0 - 1.0) / 2.0) ** 2 - m0
        with np.errstate(divide="ignore"):  # xi = 0 never gets there
            t_match = min(t_match, max(0.0, float(np.max(
                np.maximum(Z_MATCH, 2.0 * np.abs(nu2)) / xi)) - 1.0))
    hankel, late = t_match < times[-1], times >= t_match
    # the matching time is one more checkpoint, not an output
    t_eval = np.append(times[~late], t_match) if hankel else times
    y = y0[:, None]
    if not hankel or t_match > 0.0:
        sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), y0, t_eval=t_eval,
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise StiffnessError(sol.message, t=float(sol.t[-1]) if sol.t.size else 0.0,
                                 xi=float(xi.max()))
        y = sol.y
    if hankel:
        y = np.hstack((y[:, :-1], _hankel_continue(b0, nu2, xi, t_match, y[:, -1],
                                                    times[late])))
    return y[:n].T, y[n:].T


def _band_slices(xi):
    """Group frequency indices into octave bands so one adaptive integration
    serves modes with comparable oscillation rates."""
    order = np.argsort(xi)
    bands = []
    cur = [order[0]]
    for idx in order[1:]:
        lo = max(xi[cur[0]], 1e-12)
        if xi[idx] <= 2.0 * lo or xi[idx] < 1e-12:
            cur.append(idx)
        else:
            bands.append(np.array(cur))
            cur = [idx]
    bands.append(np.array(cur))
    return bands


def evolve_state(model, xi, u0, u1, times, rtol=DEFAULT_RTOL, atol=None):
    """Evolve (u_hat, u_hat') for every frequency; returns complex arrays of
    shape (len(times), len(xi)).  The coefficients are real, so the real and
    the imaginary part of each frequency's data evolve as two real modes.
    Zero-data modes (the imaginary part of real data, say) are skipped, live
    modes are normalised to unit initial size (linearity) so the
    absolute-error floor never swamps strongly decaying or widely scaled
    data.  A scale-invariant model's modes continue in Hankel's expansion
    beyond z = xi (1+t) = Z_MATCH (see _solve_modes)."""
    xi = np.asarray(xi, dtype=float)
    u0 = np.ascontiguousarray(u0, dtype=complex)
    u1 = np.ascontiguousarray(u1, dtype=complex)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    atol = rtol * 1e-6 if atol is None else atol

    u_out = np.zeros((times.size, xi.size), dtype=complex)
    v_out = np.zeros_like(u_out)
    if float(times[-1]) == 0.0:
        u_out[:] = u0[None, :]
        v_out[:] = u1[None, :]
        return u_out, v_out
    # real modes (Re, Im) of each frequency, interleaved as in the complex
    # arrays, so the float views of the outputs take the results directly
    a0, a1, xi = u0.view(float), u1.view(float), np.repeat(xi, 2)
    U, V = u_out.view(float), v_out.view(float)
    live = np.flatnonzero((a0 != 0) | (a1 != 0))
    if live.size == 0:
        return u_out, v_out
    scale = np.maximum(np.abs(a0), np.abs(a1))
    cells = (model.b0, model.m0) if model.family == PURE else None
    coefficients = model.kernel()
    for band in _band_slices(xi[live]):
        idx = live[band]
        y0 = np.concatenate((a0[idx] / scale[idx], a1[idx] / scale[idx]))
        u, v = _solve_modes(coefficients, xi[idx], y0, times, rtol, atol, cells)
        U[:, idx] = u * scale[idx]
        V[:, idx] = v * scale[idx]
    return u_out, v_out


def _fundamental(u, v):
    """Phi(t,0) per mode, shape (len(times), n, 2, 2), from the solutions u, v
    of 2n modes whose first n start at (1, 0) and the next n at (0, 1)."""
    n = u.shape[1] // 2
    Phi = np.empty((u.shape[0], n, 2, 2), dtype=u.dtype)
    Phi[..., 0, 0], Phi[..., 0, 1] = u[:, :n], u[:, n:]
    Phi[..., 1, 0], Phi[..., 1, 1] = v[:, :n], v[:, n:]
    return Phi


def state_propagator_checkpoints(model, xi, times, rtol=DEFAULT_RTOL, atol=None):
    """Fundamental matrix Phi(t,0) of X' = [[0,1],[-(xi^2+m),-b]] X for every
    frequency in xi at the checkpoint times; shape (len(times), len(xi), 2, 2).
    Each frequency enters evolve_state twice, with data (1,0) and (0,1), so both
    columns share every octave band's adaptive steps."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    atol = rtol * 1e-4 if atol is None else atol
    u0, u1 = np.repeat(np.eye(2), xi.size, axis=1)
    u, v = evolve_state(model, np.tile(xi, 2), u0, u1, times, rtol=rtol, atol=atol)
    return _fundamental(u, v)


def weight_conjugation(h_t, h_s, Phi):
    """Micro-energy propagator E(t,s) = T(t) Phi(t,s) T(s)^-1 with T = diag(h, -i),
    for the weights h_t = h(t) and h_s = h(s) broadcasting against
    Phi[..., 0, 0]; complex for a real Phi too."""
    E = np.empty(np.shape(Phi), dtype=complex)
    E[..., 0, 0] = h_t / h_s * Phi[..., 0, 0]
    E[..., 0, 1] = 1j * h_t * Phi[..., 0, 1]
    E[..., 1, 0] = -1j / h_s * Phi[..., 1, 0]
    E[..., 1, 1] = Phi[..., 1, 1]
    return E


def weighted_propagator(model, config, xi, times, rtol=DEFAULT_RTOL):
    """Cross-zone propagator E(t,0) of the micro-energy with the sharp weight
    h(t) = max(N/(1+t), xi) (see weight_conjugation); shape (len(times), 2, 2).

    Inside the slow zone this is exactly the diss_system propagator, beyond
    the boundary exactly the hyp_system one.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    Phi = state_propagator_checkpoints(model, [xi], times, rtol=rtol)
    return weight_conjugation(sharp_weight(config, times[:, None], xi),
                              sharp_weight(config, 0.0, xi), Phi)[:, 0]


def propagator_norm_trace(model, config, xi, times, rtol=DEFAULT_RTOL):
    """||E(t,0,xi)|| of the sharp-weighted propagator at checkpoint times."""
    E = weighted_propagator(model, config, xi, times, rtol=rtol)
    return np.linalg.svd(E, compute_uv=False)[:, 0]


def scale_invariant_norm_traces(cells, config, xi, times, rtol=DEFAULT_RTOL):
    """||E(t,0,xi)|| for several scale-invariant (b0, m0) cells in one shared
    adaptive integration (all cells see the same oscillation rate), which
    stops where z = xi (1+t) reaches the matching point; Hankel's expansion
    gives every later checkpoint.  Returns an array of shape (len(times),
    len(cells)).  Fast path for rate sweeps; the single-system oracle
    propagator_checkpoints is the reference it is checked against."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    b0s = np.tile([float(c[0]) for c in cells], 2)
    m0s = np.tile([float(c[1]) for c in cells], 2)
    y0 = np.repeat(np.eye(2), len(cells), axis=1).ravel()
    u, v = _solve_modes(lambda t: (b0s / (1.0 + t), m0s / (1.0 + t) ** 2),
                        np.full(b0s.size, float(xi)), y0, times, rtol, rtol * 1e-4,
                        (b0s, m0s))
    E = weight_conjugation(sharp_weight(config, times[:, None], xi),
                           sharp_weight(config, 0.0, xi), _fundamental(u, v))
    return np.linalg.svd(E, compute_uv=False)[..., 0]


def dump_trajectory(sys, s, t, path, n_checkpoints=64):
    """Write the propagator trajectory to CSV at log-spaced checkpoints:
    columns t, e11_re, e11_im, e12_re, e12_im, e21_re, e21_im, e22_re, e22_im."""
    times = np.geomspace(s + 1.0, t + 1.0, n_checkpoints) - 1.0
    times[0], times[-1] = s, t
    E = propagator_checkpoints(sys, s, times)
    with open(path, "w") as fh:
        fh.write("t,e11_re,e11_im,e12_re,e12_im,e21_re,e21_im,e22_re,e22_im\n")
        for ti, Ei in zip(times, E):
            cells = [format(ti, ".17g")]
            for a in range(2):
                for b in range(2):
                    cells += [format(Ei[a, b].real, ".17g"),
                              format(Ei[a, b].imag, ".17g")]
            fh.write(",".join(cells) + "\n")
    return path


def evolve_micro_energy(sys, u0_hat, u1_hat, t):
    """Micro-energy U(t,xi) from initial data (u0_hat, u1_hat); the weighted
    pair is formed from the unweighted state at output time, so the blended
    weight h never has to be differentiated inside the ODE."""
    model, config, xi = sys.model, sys.config, sys.xi_norm
    u, v = evolve_state(model, [xi], [u0_hat], [u1_hat], [t])
    h = float(zones.micro_weight(config, t, xi))
    value = np.array([h * u[0, 0], -1j * v[0, 0]], dtype=complex)
    return MicroEnergy(value=value, t=float(t), xi_norm=xi)
