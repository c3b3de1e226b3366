"""Per-frequency ODE systems and the brute-force reference propagators.

Everything downstream (zone-rate fits, representation identities, scattering)
is validated against the fundamental matrices integrated here at tight
tolerance by Hairer's Fortran DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
II.10) on real states, in scipy's extension, which modal loads from its file
without scipy.integrate's package (whose imports cost most of a CLI run's
start-up).  Only the right-hand side runs in Python, and each checkpoint ends
one integration leg, landing on it exactly (solve_ivp), all in one kernel
but the stacked oracle's (below), _solve_modes, whose right-hand side takes
one scalar pair (b, m) per call
(CoefficientModel.kernel): on Python floats for one frequency, into one
preallocated buffer otherwise; a solve that stops short raises StiffnessError
at the (t, xi) it reached.  fuchswave sweep and acceptance criteria 2/3 measure
the zone rates through the same propagator_norm_trace.

evolve_state groups frequencies into octave bands.  Where a cost model says
it is cheaper (_shared_tolerance), all bands share one DOP853 solve, at
rtol and atol tightened by c = sqrt(n_min / n) (n_min real modes in the
smallest band, n in all).  For a plain RMS of the scaled errors that would
bound each band's own error at the given tolerances.  DOP853's estimate
(Solving ODEs I, II.10) is a ratio of two sums over all components, in
which one band's third-order estimate can hide another's error, so c is a
heuristic: the per-band deviations in the tests are its evidence.  The
scale-invariant family keeps one solve per band, since its bands leave
DOP853 at different times.  A solve of n real modes is then dealt into
k = ceil(n / (2 CALL_COMPONENTS)) interleaved shares at its tolerances,
which span its frequencies, take its steps and each hold the RMS of their
own scaled errors; k depends on n alone, so any CPU count gives the same
bytes, and on one CPU the (k-1) CALL_COMPONENTS more per step cost under a
quarter of the whole solve's 2n + CALL_COMPONENTS.

state_propagator_checkpoints cuts a long span in time instead, by the
cocycle Phi(t,0) = Phi(t,tau) Phi(tau,0), the evolution identity PARAEXP
parallelises (Gander & Guttel, SIAM J. Sci. Comput. 35 (2013)): segments of
at least one period of the top frequency, solved on every usable CPU and
composed in time order, with the same bytes on any CPU count.

integrate_fundamentals, the oracle of many spans at once (repcheck's 20),
uses the same cocycle to stack them: each span is cut into pieces of at
most PIECE_LENGTH in phase plus log-time, and every piece's Phi from the
identity is two real modes of one DOP853 solve (_solve_pieces, the one
solve outside _solve_modes: its modes run at different times), at
tolerances tightened by c = sqrt(2/n) for n real modes, so that each piece
keeps its own RMS error test.  On the closed-form damped wave b = 2/(1+t),
m = 0, xi (t - s) = 1000 at rtol 1e-12 it is 5.2e-12 to 5.4e-12 off, the
single solve 7.1e-11 to 7.3e-11; on repcheck's 20 CLI-default spans it is
at most 1.2e-11 from the single solve at rtol 1e-14 (the single solve at
rtol 1e-12: 1.7e-10), in 1,444 right-hand-side calls against 884,315.
integrate_fundamental stays the single-solve brute-force reference.

One state is integrated per frequency: X = (u_hat, u_hat'), with
X' = [[0, 1], [-(xi^2+m), -b]] X and real fundamental matrix Phi(t,s).  Each
form of the micro-energy U = (h u_hat, D_t u_hat), D_t = -i d/dt, conjugates
Phi by T = diag(h, -i) (weight_conjugation):

  diss_system   h = N/(1+t):  D_t U = [[i/(1+t), N/(1+t)], [(1+t)(xi^2+m)/N, i b]] U,
                in Fuchs form (1+t) dU/dt = (A + R(t,xi)) U, A = [[-1, iN], [i m0/N, -b0]]
  hyp_system    h = xi:       D_t U = [[0, xi], [xi + m/xi, i b]] U
  sharp weight  h = max(N/(1+t), xi): diss up to the zone boundary, hyp beyond

For the scale-invariant family b = b0/(1+t), m = m0/(1+t)^2, u(t) = f(z) with
z = xi (1+t), and z^((b0-1)/2) f solves Bessel's equation.  Given the cell
(b0, m0), _solve_modes runs DOP853 up to z = Z_MATCH only and continues the
modes with Hankel's expansion f+- = z^(-b0/2) e^(+-iz) sum_k (+-i)^k a_k z^-k,
nu^2 = ((b0-1)/2)^2 - m0 (DLMF 10.17.5); without it (all other families, and
the single-system oracle propagator_checkpoints) DOP853 runs throughout.
"""

from __future__ import annotations

import collections
import importlib.machinery
import importlib.util
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np
import scipy

from . import zones
from .coeffs import PURE, CoefficientModel
from .errors import SeriesRangeError, StiffnessError

FORM_DISS = "diss_system"
FORM_HYP = "hyp_system"

DEFAULT_RTOL = 1e-10  # relative, per unit log-time of the integration span

# Hankel's expansion takes over at z = max(Z_MATCH, 2|nu|^2): from there on
# its terms fall below _SERIES_TOL |S| before they stop decreasing
Z_MATCH = 25.0
_SERIES_TOL = 1e-17

# the fixed cost of one right-hand-side call of _solve_modes (its Python
# overhead and DOP853's step) in units of the cost it adds per real state
# component: about 6.3 us against 4.4 ns on one Xeon core
CALL_COMPONENTS = 1400

# the most phase plus log-time, xi dtau + ln((1+tau_end)/(1+tau_start)), in
# one piece of integrate_fundamentals' stacked solve.  Shorter pieces take
# fewer steps each, but more of them make each right-hand side longer: on
# repcheck's 20 spans of 5000 rad in all, one CPU took 46-50 ms at 4 and 6,
# 63 ms at 12.5 and 91 ms at 25
PIECE_LENGTH = 6.0


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


def _load_dop853():
    """Hairer's DOP853 as scipy builds it, the f2py extension scipy.integrate.ode
    drives, loaded from its file: scipy.integrate's package __init__, which
    imports scipy.special, optimize, sparse and linalg, never runs."""
    path = os.path.join(os.path.dirname(scipy.__file__), "integrate",
                        "_dop" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"Hairer's DOP853 extension not found at {path} "
                          f"(scipy {scipy.__version__})", path=path)
    loader = importlib.machinery.ExtensionFileLoader("scipy.integrate._dop", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module.dopri853


_dopri853 = _load_dop853()

# Hairer's meaning of a negative IDID
_DOP853_FAILURES = {-1: "input is not consistent",
                    -2: "larger nsteps is needed",
                    -3: "step size becomes too small",
                    -4: "problem is probably stiff (interrupted)"}


# the extension keeps a reference to the callables of every call, so every
# solve hands it the same two.  _forward calls the running solve's fun, held
# in _target only while the solve runs, so whatever fun holds is freed with
# it.  An exception raised in the extension's callback would not stop
# DOP853, so _forward keeps it in _raised and returns zeros from then on,
# and _solout, which records the last accepted step ends, interrupts the
# integration at the next one; solve_ivp raises it
_target, _raised = [], []
_step_ends = collections.deque(maxlen=3)


def _forward(t, y):
    if not _raised:
        try:
            return _target[0](t, y)
        except BaseException as exc:
            _raised.append(exc)
    return np.zeros_like(y)


def _solout(x, _):
    _step_ends.append(x)
    return -1 if _raised else 0


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """y' = fun(t, y) for a real state y0 at t_span[0], integrated by Hairer's
    DOP853 to every checkpoint in t_eval (ascending, within t_span).  Each
    checkpoint ends one call of the Fortran code, landing on it exactly; the
    next call starts with the last full accepted step (recorded through
    solout), written as its initial step WORK(7), so a checkpoint costs its
    landing step and one restart, not a fresh step-size search.  A failed
    call ends the solve with success False; y then holds the checkpoints
    reached.  An exception in fun ends the solve and is raised.  Not
    reentrant: a solve started from inside a running one's right-hand side
    raises RuntimeError."""
    if _target:
        raise RuntimeError("solve_ivp called while a solve is running")
    t_eval = np.asarray(t_eval, dtype=float)
    y = np.empty((t_eval.size, len(y0)))
    state = np.asarray(y0, dtype=float)
    work, iwork = np.zeros(11 * state.size + 21), np.zeros(21, dtype=np.int32)
    work[1:4] = 0.9, 0.3, 6.0  # safety factor, step ratio bounds: scipy's dop853
    x = t_now = float(t_span[0])
    nfev, done, message = 0, 0, "the solver reached every checkpoint"
    _target.append(fun)
    try:
        for done, t in enumerate(t_eval):
            if t > t_now:
                _step_ends.clear()
                # iout 1: solout after every accepted step; no step limit (the
                # largest IWORK(1)), as in scipy's solve_ivp; verbosity -1:
                # silent; fun's extra arguments () given, as scipy's ode gives
                # them: left out, a later call crashed in the wrapper
                x, state, idid = _dopri853(_forward, x, state, t, rtol, atol, _solout, 1,
                                           work, iwork, 2 ** 31 - 1, -1, ())
                if _raised:
                    raise _raised[0]
                # NFCN, IWORK(17), counts a call for the initial-step guess,
                # which a given WORK(7) skips
                nfev += int(iwork[16]) - bool(work[6])
                if idid < 0:
                    message = _DOP853_FAILURES.get(idid, "DOP853 failed")
                    break
                if len(_step_ends) == 3:  # the call took a full step before landing
                    work[6] = _step_ends[1] - _step_ends[0]
                t_now = t
            y[done] = state
        else:
            done = t_eval.size
    finally:
        _target.clear()
        _raised.clear()
    return IvpResult(t=t_eval[:done], y=y[:done].T, success=done == t_eval.size,
                     message=message, nfev=nfev)


@dataclass(frozen=True)
class ModalSystem:
    model: object
    config: zones.ZoneConfig
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
    provenance: str = "oracle"


@dataclass
class MicroEnergy:
    value: np.ndarray   # (h * u_hat, D_t u_hat)
    t: float
    xi_norm: float


def sorted_distinct(values, return_counts=False):
    """The distinct values of a NaN-free array, ascending, and with
    return_counts how often each occurs: np.unique's arrays bit for bit,
    without the numpy.ma import (10-15 ms) of its first call in numpy 2.4."""
    v = np.sort(np.ravel(values))
    first = np.empty(v.shape, dtype=bool)
    first[:1] = True
    np.not_equal(v[1:], v[:-1], out=first[1:])
    if not return_counts:
        return v[first]
    return v[first], np.diff(np.append(np.flatnonzero(first), v.size))


def spectral_norm(mat):
    return float(np.linalg.norm(np.asarray(mat), ord=2))


def fuchs_constant_matrix(model, config):
    N = config.N
    return np.array([[-1.0, 1j * N], [1j * model.m0 / N, -model.b0]], dtype=complex)


def fuchs_remainder(model, config, t, xi_norm):
    """Remainder R of the slow-zone Fuchs form (1+t) U' = (A + R(t)) U, A the
    fuchs_constant_matrix, at the times t (a scalar or an array, evaluated
    through one model.kernel() call): shape t.shape + (2, 2), first row zero."""
    N = config.N
    w = 1.0 + t
    b, m = model.kernel()(t)
    R = np.zeros(np.shape(t) + (2, 2), dtype=complex)
    R[..., 1, 0] = 1j * ((w * w * xi_norm ** 2 + (w * w * m - model.m0)) / N)
    R[..., 1, 1] = model.b0 - w * b
    return R


def _checkpoints(times, s):
    """times as a float array, checked to ascend from s: a solve lands on
    each checkpoint in turn, so one before its predecessor would silently
    get the later state."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times[0] < s or np.any(np.diff(times) < 0):
        raise ValueError("checkpoints must ascend from s")
    return times


def _in_form(sys, times, s, Phi):
    """E(t, s) = T(t) Phi(t, s) T(s)^-1 in the system's form (weight_conjugation)."""
    if sys.form == FORM_HYP:
        return weight_conjugation(sys.xi_norm, sys.xi_norm, Phi)
    return weight_conjugation(sys.config.N / (1.0 + times), sys.config.N / (1.0 + s), Phi)


def propagator_checkpoints(sys, s, times, rtol=DEFAULT_RTOL):
    """E(t_i, s, xi) at the checkpoint times: Phi(t, s), its two columns two
    modes of one _solve_modes call from s, conjugated by T = diag(h, -i).  Its
    atol, rtol * 1e-4, not rtol sets the error of strongly decaying propagators:
    2.4e-8 relative at rtol 1e-12 for b0 = 4, m0 = 0, xi = 8, t = 1e3."""
    times = _checkpoints(times, s)
    Phi = _fundamental(*_solve_modes(sys.model.kernel(), np.full(2, float(sys.xi_norm)),
                                     np.eye(2).ravel(), times, rtol, rtol * 1e-4, s=s))[:, 0]
    return _in_form(sys, times, s, Phi)


def integrate_fundamental(sys, s, t, tol=DEFAULT_RTOL, verify=False):
    """Reference oracle for E(t,s,xi); optional halved-tolerance cross-check
    at 10 checkpoints in (s, t], log-spaced in 1+t and ending at t (relative
    deviation recorded)."""
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    if t == s:
        return FundamentalMatrix(np.eye(2, dtype=complex))
    fm = FundamentalMatrix(propagator_checkpoints(sys, s, [t], rtol=tol)[0])
    if verify:
        pts = np.geomspace(1.0 + s, 1.0 + t, 11)[1:] - 1.0
        pts[-1] = t
        coarse = propagator_checkpoints(sys, s, pts, rtol=tol)
        fine = propagator_checkpoints(sys, s, pts, rtol=tol / 2.0)
        dev = max(spectral_norm(a - b) / max(spectral_norm(b), 1e-300)
                  for a, b in zip(coarse, fine))
        fm.provenance = f"oracle(verified, dev={dev:.2e})"
    return fm


def _piece_ends(xi, s, t):
    """s, the ends of k pieces of [s, t] equal in L(tau) = xi tau + ln(1+tau),
    phase plus log-time, and t; k = ceil((L(t) - L(s)) / PIECE_LENGTH).  The
    inner ends solve L = const by Newton's method in w = ln(1+tau), where L
    is convex: from w(t) it descends onto each root."""
    w_s, w_t = math.log1p(s), math.log1p(t)
    L_s, L_t = xi * s + w_s, xi * t + w_t
    k = math.ceil((L_t - L_s) / PIECE_LENGTH)
    target = L_s + (L_t - L_s) * np.arange(1, k) / k
    w = np.full(k - 1, w_t)
    while True:
        step = (xi * np.expm1(w) + w - target) / (xi * np.exp(w) + 1.0)
        w -= step
        if not np.any(step > 1e-14 * (1.0 + w)):
            return np.concatenate(([s], np.expm1(w), [t]))


def _solve_pieces(coefficients, a, ell, xi, rtol, atol):
    """Phi over the pieces [a, a + ell] of one model's spans at frequencies
    xi, shape (len(a), 2, 2), from one DOP853 solve of their 2 len(a) modes
    from the identity in sigma in [0, 1], t = a + ell sigma; None where the
    solve stops short.  The right-hand side makes one coefficients call on
    the pieces' times."""
    p = a.size
    neg_xi2, dy = -xi ** 2, np.empty((2, 2, p))

    def rhs(sigma, y):   # y = (u, u'), each of both columns of every piece
        b, m = coefficients(a + ell * sigma)
        u, v = y.reshape(2, 2, p)
        np.multiply(ell, v, out=dy[0])
        np.multiply(ell, (neg_xi2 - m) * u - b * v, out=dy[1])
        return dy.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(2).repeat(p, axis=1).ravel(), [1.0],
                    rtol=rtol, atol=atol)
    return np.moveaxis(sol.y.reshape(2, 2, p), -1, 0) if sol.success else None


def integrate_fundamentals(items, tol=DEFAULT_RTOL):
    """E(t, s, xi) for every (ModalSystem, s, t) item, the systems of one
    model, as integrate_fundamental's oracle at tolerance tol would give it,
    from one stacked solve of short pieces.  Each span is cut into pieces of
    at most PIECE_LENGTH in phase plus log-time (_piece_ends); each piece's
    Phi from the identity is two real modes of one DOP853 solve over all
    pieces, at rtol and atol (tol and tol * 1e-4, the single oracle's) times
    c = sqrt(2 / n) for its n real modes, so that each piece keeps its own
    RMS error test (as in _shared_tolerance).  More than 2 CALL_COMPONENTS
    modes are dealt into k = ceil(n / (2 CALL_COMPONENTS)) interleaved shares,
    a solve each on every usable CPU (_fork_map), so c >= sqrt(1/1400); the
    cut and the shares depend on the spans alone, and the cocycle
    Phi(t, s) = Phi(t, tau) Phi(tau, s) composes each span's pieces in time
    order before the conjugation into the system's form.  A stacked solve
    that stops short is redone span by span by propagator_checkpoints,
    landing on each piece end, so the first span DOP853 cannot finish raises
    StiffnessError at the last piece end it reached."""
    items = list(items)
    model, ends = items[0][0].model, []
    for sys, s, t in items:
        if not 0 <= s <= t:
            raise ValueError("need 0 <= s <= t")
        if sys.model is not model:
            raise ValueError("the systems of one batch share one model")
        ends.append(_piece_ends(sys.xi_norm, s, t) if t > s else np.array([s]))
    a = np.concatenate([e[:-1] for e in ends])
    ell = np.concatenate([np.diff(e) for e in ends])
    xi = np.concatenate([np.full(e.size - 1, float(sys.xi_norm))
                         for e, (sys, _, _) in zip(ends, items)])
    coefficients = model.kernel()
    k = math.ceil(a.size / CALL_COMPONENTS)

    def solve(idx):
        c = math.sqrt(1.0 / idx.size)   # 2 / n for n = 2 idx.size real modes
        return _solve_pieces(coefficients, a[idx], ell[idx], xi[idx], tol * c, tol * 1e-4 * c)

    shares = [np.arange(j, a.size, k) for j in range(k)]
    Phi = np.empty((a.size, 2, 2))
    for idx, part in zip(shares, _fork_map(solve, shares, [idx.size for idx in shares])
                         if k > 1 else map(solve, shares)):
        if part is None:
            return [FundamentalMatrix(propagator_checkpoints(sys, s, e, rtol=tol)[-1])
                    for (sys, s, _), e in zip(items, ends)]
        Phi[idx] = part
    out, stop = [], 0
    for (sys, s, t), e in zip(items, ends):
        start, stop = stop, stop + e.size - 1
        E = np.eye(2)
        for piece in Phi[start:stop]:
            E = piece @ E
        out.append(FundamentalMatrix(_in_form(sys, t, s, E)))
    return out


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


def _solve_modes(coefficients, xi, y0, times, rtol, atol, cells=None, s=0.0):
    """One DOP853 solve of u'' + b(t) u' + (xi^2 + m(t)) u = 0 for a stack of
    modes, real state y = (u_1..u_n, u'_1..u'_n) from t = s.  coefficients(t)
    (a model's kernel) returns one scalar pair (b(t), m(t)) for every mode,
    once per right-hand side, which returns (u', (-xi^2 - m) u - b u'): for
    one frequency's modes (at most two) on Python floats as a list, cheaper
    per call than numpy scalars; otherwise, in the same arithmetic, in one
    preallocated 2n buffer (the Fortran callback copies it).  A scale-invariant
    model's cell (b0, m0) stops the solve once every mode has z = xi (1+t) >=
    max(Z_MATCH, 2|nu|^2); Hankel's expansion carries each on.  Returns u and
    u' at the checkpoint times, each of shape (len(times), n)."""
    n = xi.size
    neg_xi2 = -xi ** 2  # neg_xi2 - m equals -(xi^2 + m) exactly
    if n <= 2 and xi[0] == xi[-1]:
        k0 = float(neg_xi2[0])

        def rhs(t, y):
            b, m = coefficients(t)
            k = k0 - m
            if n == 2:
                u0, u1, v0, v1 = y.tolist()
                return [v0, v1, k * u0 - b * v0, k * u1 - b * v1]
            u0, v0 = y.tolist()
            return [v0, k * u0 - b * v0]
    else:
        # b and m in 0-d arrays: the ufuncs take them faster than Python floats
        b, m, dy, bv = np.empty(()), np.empty(()), np.empty(2 * n), np.empty(n)
        du, dv = dy[:n], dy[n:]

        def rhs(t, y):
            b[()], m[()] = coefficients(t)
            u, v = y[:n], y[n:]
            du[:] = v
            np.subtract(neg_xi2, m, out=dv)
            np.multiply(dv, u, out=dv)
            np.multiply(b, v, out=bv)
            np.subtract(dv, bv, out=dv)
            return dy

    t_match = float(times[-1])
    if cells is not None:
        b0, m0 = cells
        nu2 = ((b0 - 1.0) / 2.0) ** 2 - m0
        with np.errstate(divide="ignore"):  # xi = 0 never gets there
            t_match = min(t_match, max(s, max(Z_MATCH, 2.0 * abs(nu2)) / xi.min() - 1.0))
    hankel, late = t_match < times[-1], times >= t_match
    # the matching time is one more checkpoint, not an output
    t_eval = np.append(times[~late], t_match) if hankel else times
    y = y0[:, None]
    if not hankel or t_match > s:
        sol = solve_ivp(rhs, (s, float(t_eval[-1])), y0, t_eval=t_eval,
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise StiffnessError(sol.message, t=float(sol.t[-1]) if sol.t.size else s,
                                 xi=float(xi.max()))
        y = sol.y
    if hankel:
        y = np.hstack((y[:, :-1], _hankel_continue(b0, nu2, xi, t_match, y[:, -1],
                                                    times[late])))
    return y[:n].T, y[n:].T


# true while a map's shares run, here and in its children: a nested map
# runs serially, so a fork never forks again
_in_share = False


def _fork_map(fn, items, costs):
    """fn(x) for x in items, in item order, on this process and one os.fork()
    child per further CPU in the affinity mask (processes: the mode solves'
    Python right-hand sides hold the GIL).  Items are dealt
    longest-processing-time first on costs, ties to the lowest share.  An item
    that raises ends its share; the lowest-index error is raised.  On one CPU,
    without fork or beside another thread the map is serial and lazy, each
    result computed as it is consumed; inside a forked share it is serial and
    returns a list, which the share's result can carry to its parent."""
    global _in_share
    n = min(len(items), len(getattr(os, "sched_getaffinity", lambda pid: ())(0)))
    if _in_share:
        return [fn(x) for x in items]
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return map(fn, items)
    shares, loads = [[] for _ in range(n)], [0.0] * n
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]

    def run(share):   # (index, ok, value or exception), up to the first error
        out = []
        for i in sorted(share):
            try:
                out.append((i, True, fn(items[i])))
            except Exception as exc:
                return out + [(i, False, exc)]
        return out

    pids, pipes, got = [], [], []
    _in_share = True
    try:
        for share in filter(None, shares[1:]):
            r, w = map(os.fdopen, os.pipe(), ("rb", "wb"))
            pipes.append((r, len(share)))
            with w:
                if (pid := os.fork()) == 0:   # one pickle, then exit with no cleanup
                    try:
                        out = run(share)
                        if not out[-1][1]:   # an exception that will not pickle goes as its repr
                            try:
                                pickle.dumps(out[-1][2])
                            except Exception:
                                out[-1] = out[-1][:2] + (RuntimeError(repr(out[-1][2])),)
                        # protocol 5: the parent's load reads each array in place
                        pickle.dump(out, w, protocol=5)
                        w.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
        done = run(shares[0])
        for r, _ in pipes:
            try:
                got.append(pickle.load(r))
            except (EOFError, pickle.UnpicklingError):   # the child ended part-way
                got.append([])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _in_share = False
        for r, _ in pipes:
            r.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for (_, size), rows, code in zip(pipes, got, codes):
        if not rows or rows[-1][1] and len(rows) < size:
            raise RuntimeError(f"a forked child ended with exit status {code} "
                               "without a full result")
        done += rows
    failed = min((row for row in done if not row[1]), default=None)
    if failed:
        raise failed[2]
    return [value for _, _, value in sorted(done)]


def _band_slices(xi):
    """Group frequency indices into octave bands, each of modes with
    comparable oscillation rates: the unit of evolve_state's solves, and of
    the tolerance scaling when several bands share one."""
    order = np.argsort(xi)
    bands = [[order[0]]]
    for idx in order[1:]:   # a band spans an octave from its lowest mode, or 2e-12
        if xi[idx] <= 2.0 * max(xi[bands[-1][0]], 1e-12):
            bands[-1].append(idx)
        else:
            bands.append([idx])
    return [np.array(band) for band in bands]


def _shared_tolerance(xi, bands):
    """The factor c by which one DOP853 solve over all of xi's octave bands
    tightens rtol and atol, or None where a solve per band costs less.  A
    solve takes a number of steps about proportional to its top frequency
    and to tol^(-1/8), and in a shared solve the top band's error test is
    about sqrt(n_min / n_top) tighter than alone; a step costs its right-hand
    side's CALL_COMPONENTS plus the solve's real state components."""
    sizes = np.array([len(band) for band in bands])
    tops = np.array([xi[band].max() for band in bands])
    per_band = np.sum(tops * (CALL_COMPONENTS + 2 * sizes))
    shared = (tops[-1] * (sizes[-1] / sizes.min()) ** (1 / 16)
              * (CALL_COMPONENTS + 2 * sizes.sum()))
    return math.sqrt(sizes.min() / sizes.sum()) if shared < per_band else None


def evolve_state(model, xi, u0, u1, times, rtol=DEFAULT_RTOL, atol=None, s=0.0):
    """Evolve (u_hat, u_hat') for every frequency from its data at the start
    time s (default 0) to the checkpoint times, ascending from s; returns
    complex arrays of shape (len(times), len(xi)).  The coefficients are real, so the real and
    the imaginary part of each frequency's data evolve as two real modes.
    Zero-data modes (the imaginary part of real data, say) are skipped, live
    modes are normalised to unit initial size (linearity) so the
    absolute-error floor never swamps strongly decaying or widely scaled
    data.  The live modes' octave bands share one DOP853 solve, at rtol and
    atol times c (_shared_tolerance), where that costs less than a solve per
    band; otherwise each band, and each band of a scale-invariant model,
    whose modes continue in Hankel's expansion beyond z = xi (1+t) = Z_MATCH
    (see _solve_modes), has a solve of its own.  A solve of n modes is dealt
    into k = ceil(n / (2 CALL_COMPONENTS)) shares, its every k-th mode by
    frequency at its tolerances; the shares of a split plan run on every
    usable CPU (_fork_map), any other plan's solves in a loop.  The plan does
    not depend on s: state_propagator_checkpoints solves each time segment
    Phi(t, tau) as this plan from the identity at s = tau."""
    xi = np.asarray(xi, dtype=float)
    u0 = np.ascontiguousarray(u0, dtype=complex)
    u1 = np.ascontiguousarray(u1, dtype=complex)
    times = _checkpoints(times, s)
    atol = rtol * 1e-6 if atol is None else atol

    u_out = np.zeros((times.size, xi.size), dtype=complex)
    v_out = np.zeros_like(u_out)
    if float(times[-1]) == s:
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
    bands = _band_slices(xi[live])
    c = _shared_tolerance(xi[live], bands) if cells is None and len(bands) > 1 else None
    if c is None:
        solves = [(live[band], 1.0) for band in bands]
    else:  # modes grouped by band, as in the solves apart
        solves = [(live[np.concatenate(bands)], c)]
    shares = [(idx[j::k], c) for idx, c in solves
              for k in [math.ceil(idx.size / (2 * CALL_COMPONENTS))] for j in range(k)]

    def solve(share):
        idx, c = share
        y0 = np.concatenate((a0[idx] / scale[idx], a1[idx] / scale[idx]))
        u, v = _solve_modes(coefficients, xi[idx], y0, times, rtol * c, atol * c, cells, s)
        return u * scale[idx], v * scale[idx]

    # only a split plan forks; a share costs its steps (~ top xi) x (CALL_COMPONENTS + 2n)
    done = iter(_fork_map(solve, shares, [xi[i].max() * (CALL_COMPONENTS + 2 * i.size)
                                          for i, _ in shares])
                if len(shares) > len(solves) else map(solve, shares))
    for idx, _ in shares:   # serial: each share copied out before the next is solved
        U[:, idx], V[:, idx] = next(done)
    return u_out, v_out


def _fundamental(u, v):
    """Phi(t,s) per mode, shape (len(times), n, 2, 2), from the solutions u, v
    of 2n modes whose first n start at (1, 0) and the next n at (0, 1)."""
    n = u.shape[1] // 2
    Phi = np.empty((u.shape[0], n, 2, 2), dtype=u.dtype)
    Phi[..., 0, 0], Phi[..., 0, 1] = u[:, :n], u[:, n:]
    Phi[..., 1, 0], Phi[..., 1, 1] = v[:, :n], v[:, n:]
    return Phi


def _segments(times, top):
    """Cut the checkpoints into time segments (tau, its checkpoints): the
    first begins at t = 0, and a checkpoint t closes a segment once
    top (t - tau) >= 2 pi, one period of the top frequency past its start
    tau; the last checkpoint closes the last segment."""
    segments, tau, start = [], 0.0, 0
    for i, t in enumerate(times.tolist()):
        if top * (t - tau) >= 2.0 * math.pi or i == times.size - 1:
            segments.append((tau, times[start:i + 1]))
            tau, start = t, i + 1
    return segments


def state_propagator_checkpoints(model, xi, times, rtol=DEFAULT_RTOL, atol=None):
    """Fundamental matrix Phi(t,0) of X' = [[0,1],[-(xi^2+m),-b]] X for every
    frequency in xi at the checkpoint times (ascending, t >= 0); shape
    (len(times), len(xi), 2, 2).

    The checkpoints are cut into time segments (_segments): a checkpoint
    closes a segment once one period 2 pi / xi_max of the top frequency has
    passed since the segment began, and the last checkpoint closes the last.
    Each segment solves Phi(t, tau) at its own checkpoints from the identity
    at its start tau, in one evolve_state call (its bands, shared-tolerance
    factor c, rtol and atol) in which each frequency enters twice, with data
    (1,0) and (0,1), so both columns share every octave band's adaptive
    steps.  The segments run on every usable CPU (_fork_map, each costing its
    length), and the cocycle Phi(t,0) = Phi(t,tau) Phi(tau,0) composes them
    in time order.  The cut depends on the checkpoints and xi_max alone, so
    any CPU count gives the same bytes.  A single segment, and every span of
    the scale-invariant family, whose late times Hankel's expansion carries,
    is one evolve_state call from t = 0.  On scatter's doubling checkpoints
    to t = 2048 (nine segments) one CPU makes 1.2% more right-hand-side
    calls than the whole solve (60,285 against 59,593) in the same wall
    time, and two CPUs take about 45% less wall time."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    times = _checkpoints(times, 0.0)
    atol = rtol * 1e-4 if atol is None else atol
    u0, u1 = np.repeat(np.eye(2), xi.size, axis=1)

    def solve(segment):   # Phi(t, tau) at the segment's checkpoints
        tau, seg = segment
        return _fundamental(*evolve_state(model, np.tile(xi, 2), u0, u1, seg,
                                          rtol=rtol, atol=atol, s=tau))

    segments = ([(0.0, times)] if model.family == PURE
                else _segments(times, xi.max(initial=0.0)))
    if len(segments) == 1:
        return solve(segments[0])
    Phi = np.empty((times.size, xi.size, 2, 2), dtype=complex)
    prev, stop = np.eye(2), 0   # Phi(tau, 0) at the segment's start tau
    for part in _fork_map(solve, segments, [seg[-1] - tau for tau, seg in segments]):
        start, stop = stop, stop + len(part)
        # Phi(t,tau) Phi(tau,0), summed over the inner index
        np.add(part[..., :1] * prev[..., :1, :], part[..., 1:] * prev[..., 1:, :],
               out=Phi[start:stop])
        prev = Phi[stop - 1]
    return Phi


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
    return weight_conjugation(zones.sharp_weight(config, times[:, None], xi),
                              zones.sharp_weight(config, 0.0, xi), Phi)[:, 0]


def propagator_norm_trace(model, config, xi, times, rtol=DEFAULT_RTOL):
    """||E(t,0,xi)|| of the sharp-weighted propagator at checkpoint times."""
    E = weighted_propagator(model, config, xi, times, rtol=rtol)
    return np.linalg.svd(E, compute_uv=False)[:, 0]


def scale_invariant_norm_traces(cells, config, xi, times, rtol=DEFAULT_RTOL):
    """||E(t,0,xi)|| for several scale-invariant (b0, m0) cells, one
    propagator_norm_trace per cell, as the rate sweep measures them; shape
    (len(times), len(cells))."""
    return np.column_stack([propagator_norm_trace(CoefficientModel(b0=b0, m0=m0), config,
                                                  xi, times, rtol=rtol) for b0, m0 in cells])


def dump_trajectory(sys, s, t, path, n_checkpoints=64):
    """Write the propagator trajectory to CSV at log-spaced checkpoints:
    columns t, e11_re, e11_im, e12_re, e12_im, e21_re, e21_im, e22_re, e22_im."""
    times = np.geomspace(s + 1.0, t + 1.0, n_checkpoints) - 1.0
    times[0], times[-1] = s, t
    E = propagator_checkpoints(sys, s, times)
    with open(path, "w") as fh:
        fh.write("t,e11_re,e11_im,e12_re,e12_im,e21_re,e21_im,e22_re,e22_im\n")
        for ti, Ei in zip(times, E):
            cells = [ti] + [part for e in Ei.ravel() for part in (e.real, e.imag)]
            fh.write(",".join(format(x, ".17g") for x in cells) + "\n")
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
