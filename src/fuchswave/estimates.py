"""Experiment layer: energy traces, decay-exponent fits against the predicted
zone rates, sharpness limits, moment-condition experiments, the modified
scattering comparison, and the Lp-Lq rate predictor.

Norms of radial frequency profiles are continuum L2 norms of the underlying
field: ||f||^2 = (2 pi)^(-n) omega_n int |f(r)|^2 r^(n-1) dr with omega_n the
unit-sphere measure (2, 2 pi, 4 pi for n = 1, 2, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modal, zones
from .coeffs import REAL_LARGE, classify_regime, reject_unread_fields, sorted_distinct
from .errors import (HorizonError, InvalidWindowError, RegimeUnsupportedError,
                     ResolutionError, SupportError)

SURFACE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

FIT_TOLERANCE = 0.05
DEFAULT_WINDOW = (1e2, 1e4)
# kappa margin moment_parameters adds when sigma > 1 makes the inequality strict
MOMENT_SLACK = 0.1
# relative full- vs half-grid norm deviation a frequency grid may show
_RESOLUTION_TOL = 0.01
# oracle rtol of scattering_operator; scattering_residual evolves the
# scattering basis this many times past its horizon
_SCATTERING_RTOL = 1e-9
_W_HORIZON_FACTOR = 4.0
# each data kind's fields beyond kind, amp0 and amp1, which every kind reads
KIND_FIELDS = {"gaussian": ("width",), "ring": ("center", "width"),
               "moment": ("zero_order", "support"), "file": ("path",)}


# --------------------------------------------------------------------------
# Initial data on radial frequency grids
# --------------------------------------------------------------------------

def bump(y):
    """exp(-1/(1-y^2)) on |y| < 1, zero outside: smooth with exact support."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    out = np.zeros_like(y)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


@dataclass(frozen=True)
class DataSpec:
    """Named radial initial-data profile for (u0_hat, u1_hat).

    kinds and their fields: KIND_FIELDS.  amp0/amp1 scale the profile into the two data slots.
    """

    kind: str
    width: float = 1.0
    center: float = 0.0
    zero_order: int = 0
    support: float = 1.0
    path: str = ""
    amp0: float = 1.0
    amp1: float = 0.5

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown data kind {self.kind!r}")
        reject_unread_fields(self, ("kind", "amp0", "amp1") + KIND_FIELDS[self.kind], self.kind)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-((r / self.width) ** 2))
        if self.kind == "ring":
            return bump((r - self.center) / self.width)
        if self.kind == "moment":
            return r ** self.zero_order * bump(r / self.support)
        data = np.loadtxt(self.path, delimiter=",", ndmin=2)
        return np.interp(r, data[:, 0], data[:, 1], left=0.0, right=0.0)

    def sample(self, r):
        prof = self.profile(r).astype(complex)
        return self.amp0 * prof, self.amp1 * prof

    def support_interval(self):
        if self.kind == "gaussian":
            return 0.0, 8.0 * self.width
        if self.kind == "ring":
            return max(self.center - self.width, 0.0), self.center + self.width
        if self.kind == "moment":
            return 0.0, self.support
        data = np.loadtxt(self.path, delimiter=",", ndmin=2)
        return float(data[0, 0]), float(data[-1, 0])


def radial_grid(lo=1e-4, hi=64.0, n_points=256, refine=()):
    """Log-spaced base grid, optionally refined linearly over data supports."""
    pieces = [np.geomspace(lo, hi, n_points)]
    for (a, b, n) in refine:
        pieces.append(np.linspace(max(a, lo * 1e-3), b, n))
    grid = sorted_distinct(np.concatenate(pieces))
    return grid[grid > 0]


def grid_for_data(spec, lo=1e-4, hi=64.0, n_points=256, n_refine=200):
    a, b = spec.support_interval()
    pad = 0.05 * (b - a)
    return radial_grid(lo, hi, n_points, refine=[(max(a - pad, lo), b + pad, n_refine)])


def radial_norm(values, r, n_dim):
    """Continuum L2 norm of a radial frequency profile; of each row of a
    (times x r) array at once."""
    w = SURFACE_MEASURE[n_dim] / (2.0 * math.pi) ** n_dim
    return np.sqrt(w * np.trapezoid(np.abs(values) ** 2 * r ** (n_dim - 1), r, axis=-1))


# --------------------------------------------------------------------------
# Energy traces and decay fits
# --------------------------------------------------------------------------

@dataclass
class EnergyTrace:
    times: np.ndarray
    values: np.ndarray      # micro-energy norm ||U(t, .)||
    u_over_1pt: np.ndarray  # ||u|| / (1+t)
    grad: np.ndarray        # || |xi| u_hat ||
    ut: np.ndarray          # || u_t_hat ||
    u_norm: np.ndarray      # ||u_hat||
    n_dim: int
    data_spec: DataSpec
    grid: np.ndarray


def _check_resolution(u0, u1, r, n_dim):
    full = radial_norm(np.abs(u0) + np.abs(u1), r, n_dim)
    half = radial_norm((np.abs(u0) + np.abs(u1))[::2], r[::2], n_dim)
    if full == 0.0:
        return
    if abs(full - half) / full > _RESOLUTION_TOL:
        raise ResolutionError(
            f"half-grid norm deviates by {abs(full - half) / full:.1%}; refine the grid")


def energy_trace(model, config, data_spec, freq_grid, times, n_dim=1,
                 rtol=1e-10):
    """Evolve every frequency with modal.evolve_state and collect the
    L2-over-frequency norms of the solution components.  For a scale-invariant
    model each octave band runs DOP853 only to z = xi (1+t) = modal.Z_MATCH
    and Hankel's expansion from there (modal.evolve_state)."""
    r = np.asarray(freq_grid, dtype=float)
    times = np.asarray(times, dtype=float)
    u0, u1 = data_spec.sample(r)
    _check_resolution(u0, u1, r, n_dim)
    u, v = modal.evolve_state(model, r, u0, u1, times, rtol=rtol)

    # micro-energy U = (h u_hat, D_t u_hat) with |D_t u_hat| = |u_t_hat|
    h = zones.micro_weight(config, times[:, None], r)
    u_norm = radial_norm(u, r, n_dim)
    ut = radial_norm(v, r, n_dim)
    return EnergyTrace(times=times, values=np.sqrt(radial_norm(h * u, r, n_dim) ** 2 + ut ** 2),
                       u_over_1pt=u_norm / (1.0 + times), grad=radial_norm(r * u, r, n_dim),
                       ut=ut, u_norm=u_norm, n_dim=n_dim, data_spec=data_spec, grid=r)


@dataclass
class DecayFit:
    exponent: float
    window: tuple
    rms_residual: float
    predicted: float
    verdict: bool
    tolerance: float = FIT_TOLERANCE

    @property
    def decades(self):
        return math.log10(self.window[1] / self.window[0])


def fit_decay(times, values, window=DEFAULT_WINDOW, predicted=0.0,
              tol=FIT_TOLERANCE, one_sided=False):
    """Least-squares slope of ln(value) against ln(1+t) inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= window[0]) & (times <= window[1])
    if mask.sum() < 4:
        raise InvalidWindowError("window contains fewer than 4 samples")
    if np.any(values[mask] <= 0.0):
        raise InvalidWindowError("non-positive values inside the fit window")
    x = np.log1p(times[mask])
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    verdict = slope <= predicted + tol if one_sided else abs(slope - predicted) <= tol
    return DecayFit(exponent=float(slope), window=tuple(window), rms_residual=rms,
                    predicted=float(predicted), verdict=bool(verdict), tolerance=tol)


# --------------------------------------------------------------------------
# Sharpness of the energy decay
# --------------------------------------------------------------------------

@dataclass
class SharpnessReport:
    times: np.ndarray
    scaled_energy: np.ndarray   # lam(t)^2 (||grad u||^2 + ||u_t||^2)
    variation: float            # relative spread over the last decade
    limit: float
    passed: bool


def sharpness_limit(model, config, data_spec, freq_grid, horizon=1e4, n_dim=1,
                    rtol=1e-10):
    """For data supported in |xi| > N the rescaled energy
    lam(t)^2 (||grad u||^2 + ||u_t||^2) must settle at a positive limit."""
    lo, _ = data_spec.support_interval()
    if lo <= config.N:
        raise SupportError("sharpness data must be supported in |xi| > N")
    r = np.asarray(freq_grid, dtype=float)
    u0, u1 = data_spec.sample(r)
    if np.any((r <= config.N) & ((np.abs(u0) > 0) | (np.abs(u1) > 0))):
        raise SupportError("sampled data leaks below the zone constant")
    times = sorted_distinct(np.concatenate([[0.0], np.geomspace(1.0, horizon, 41)]))
    trace = energy_trace(model, config, data_spec, r, times, n_dim=n_dim, rtol=rtol)
    lam = model.lam(times)
    scaled = lam ** 2 * (trace.grad ** 2 + trace.ut ** 2)
    seg = scaled[times >= horizon / 10.0]
    variation = float((seg.max() - seg.min()) / seg.mean())
    limit = float(seg.mean())
    return SharpnessReport(times=times, scaled_energy=scaled, variation=variation,
                           limit=limit, passed=bool(variation < 0.01 and limit > 0.0))


# --------------------------------------------------------------------------
# Moment-condition experiments
# --------------------------------------------------------------------------

def moment_parameters(model, n_dim):
    """kappa from 2 kappa = 1 + sqrt((b0-1)^2 - 4 m0) (strict inequality with
    a recorded slack when sigma > 1), the weight order kappa' and the Fourier
    zero order the data must carry."""
    cls = classify_regime(model)
    if cls.case != REAL_LARGE:
        raise RegimeUnsupportedError("moment improvement needs 4 m0 < b0(b0-2)")
    kappa = 0.5 * (1.0 + math.sqrt((model.b0 - 1.0) ** 2 - 4.0 * model.m0))
    if model.sigma > 1.0:
        kappa += MOMENT_SLACK
    kappa_prime = math.floor(kappa - n_dim / 2.0) + 1
    zero_order = 2 * math.ceil((kappa_prime + 1) / 2.0)
    return kappa, kappa_prime, zero_order


def moment_experiment(model, config, n_dim=1, window=DEFAULT_WINDOW, rtol=1e-9):
    """Generic low-frequency data decays at the slow-zone exponent Re(mu+);
    data whose Fourier transform vanishes to the required order at xi = 0
    recovers the oscillatory-zone rate -b0/2.  Returns the verdicts of both
    fits and the outputs of the moments experiment."""
    kappa, kappa_prime, zero_order = moment_parameters(model, n_dim)
    cls = classify_regime(model)
    N = config.N
    t_hi = window[1]

    # concentrated low-frequency bump: stays inside the slow zone through the
    # whole fit window, so the fit sees the pure slow-zone rate
    c = N / (5.0 * t_hi)
    generic = DataSpec(kind="ring", center=c, width=c / 2.0, amp0=1.0, amp1=0.5)
    momentful = DataSpec(kind="moment", zero_order=zero_order, support=N / 4.0,
                         amp0=1.0, amp1=0.5)

    times = np.geomspace(1.0, t_hi, 61)
    grid_g = grid_for_data(generic, lo=c / 50.0, hi=4.0 * N, n_points=128)
    grid_m = grid_for_data(momentful, lo=1e-5 * N, hi=4.0 * N, n_points=192)

    tr_g = energy_trace(model, config, generic, grid_g, times, n_dim, rtol)
    tr_m = energy_trace(model, config, momentful, grid_m, times, n_dim, rtol)
    fit_g = fit_decay(times, tr_g.values, window, predicted=cls.mu_plus.real)
    fit_m = fit_decay(times, tr_m.values, window, predicted=-model.b0 / 2.0)

    # int | |xi|^-kappa U(0,xi) |^2 xi^(n-1) dxi
    u0, u1 = momentful.sample(grid_m)
    h0 = zones.micro_weight(config, 0.0, grid_m)
    U0 = np.sqrt(np.abs(h0 * u0) ** 2 + np.abs(u1) ** 2)
    integrand = (grid_m ** (-kappa) * U0) ** 2 * grid_m ** (n_dim - 1)
    verdicts = {"generic_rate": fit_g.verdict, "moment_rate": fit_m.verdict}
    outputs = {"kappa": kappa, "kappa_prime": kappa_prime, "zero_order": zero_order,
               "generic_fit": fit_g.exponent, "generic_predicted": fit_g.predicted,
               "moment_fit": fit_m.exponent, "moment_predicted": fit_m.predicted,
               "weighted_integral": float(np.trapezoid(integrand, grid_m))}
    return verdicts, outputs


# --------------------------------------------------------------------------
# Modified scattering
# --------------------------------------------------------------------------

def free_micro_propagator(t, r):
    """Propagator of the free micro-energy (|xi| v_hat, D_t v_hat):
    [[cos, i sin], [i sin, cos]](t |xi|); unitary."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    ph = np.multiply.outer(t, r)
    out = np.empty(ph.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(ph)
    out[..., 0, 1] = out[..., 1, 0] = 1j * np.sin(ph)
    return out


def _check_scattering_regime(model):
    if model.sigma == 1.0:
        if model.b0 * (model.b0 - 2.0) > 4.0 * model.m0:
            raise RegimeUnsupportedError("need b0(b0-2) <= 4 m0")
    elif not model.b0 * (model.b0 - 2.0) <= 4.0 * model.m0 < (model.b0 - 1.0) ** 2:
        raise RegimeUnsupportedError("sigma > 1 needs b0(b0-2) <= 4 m0 < (b0-1)^2")


def _wave_operator_samples(model, config, r, times, Phi):
    """W(t_j, xi) = lam(t_j) E_fr(t_j)^{-1} E(t_j, 0, xi) for every frequency,
    from the unweighted fundamental matrices Phi(t_j, 0, xi)."""
    E = modal.weight_conjugation(zones.sharp_weight(config, times[:, None], r),
                                 zones.sharp_weight(config, 0.0, r), Phi)
    Efr_inv = free_micro_propagator(-times, r)
    lam = np.asarray(model.lam(times))
    return lam[:, None, None, None] * np.matmul(Efr_inv, E)


@dataclass
class ScatteringOperator:
    frequencies: np.ndarray
    W: np.ndarray               # (n_freq, 2, 2) at the final doubling time
    converged_at: np.ndarray    # first doubling time below tol, per frequency
    last_increment: np.ndarray
    times: np.ndarray


def scattering_operator(model, config, freq_samples, horizon=1e5, tol=1e-3, eps=1e-3):
    """W_plus(xi) = lim lam(t) E_fr(t,0,xi)^{-1} E(t,0,xi), evaluated at
    doubling times until Cauchy within tol; uniform only away from xi = 0, so
    samples below eps are rejected."""
    _check_scattering_regime(model)
    r = np.asarray(freq_samples, dtype=float)
    if np.any(r < eps):
        raise ValueError(f"samples must satisfy |xi| >= {eps}")
    times = 2.0 ** np.arange(0, int(math.floor(math.log2(horizon))) + 1)
    Phi = modal.state_propagator_checkpoints(model, r, times, rtol=_SCATTERING_RTOL,
                                             atol=_SCATTERING_RTOL * 1e-6)
    W = _wave_operator_samples(model, config, r, times, Phi)
    inc = modal._norm2(np.diff(W, axis=0))  # (nt-1, nr)
    below, last = inc < tol, inc[-1]
    if not below.any(axis=0).all():
        raise HorizonError(f"W(t) not Cauchy within tol={tol} by t={times[-1]:g} "
                           f"(last increment {last.max():.3e})")
    return ScatteringOperator(frequencies=r, W=W[-1], last_increment=last, times=times,
                              converged_at=times[below.argmax(axis=0) + 1])


@dataclass
class ScatteringResidual:
    times: np.ndarray
    residual_dt: np.ndarray     # || lam(t) u_t - v_t ||
    residual_grad: np.ndarray   # || lam(t) |xi| u - |xi| v ||
    W_samples: np.ndarray
    w_increment: np.ndarray
    passed: bool


def scattering_residual(model, config, data_spec, freq_grid, horizon=1e4,
                        n_dim=1, rtol=1e-9):
    """Evolve u with the oracle and v freely from V0 = W_plus U0; the rescaled
    derivative differences must trend down once every live frequency is in
    the oscillatory zone, and end below 10% of their start."""
    _check_scattering_regime(model)
    r = np.asarray(freq_grid, dtype=float)
    u0, u1 = data_spec.sample(r)
    live = (np.abs(u0) > 0) | (np.abs(u1) > 0)
    r, u0, u1 = r[live], u0[live], u1[live]

    n_dbl = int(math.floor(math.log2(horizon)))
    times = 2.0 ** np.arange(0, n_dbl + 1)
    w_times = 2.0 ** np.arange(0, n_dbl + int(round(math.log2(_W_HORIZON_FACTOR))) + 1)
    Phi = modal.state_propagator_checkpoints(model, r, w_times, rtol=rtol,
                                             atol=rtol * 1e-6)
    Wall = _wave_operator_samples(model, config, r, w_times, Phi)
    W_plus = Wall[-1]
    w_inc = modal._norm2(Wall[-1] - Wall[-2])

    h0 = zones.sharp_weight(config, 0.0, r)
    U0 = np.stack([h0 * u0, -1j * u1], axis=-1)
    V0 = np.einsum("rij,rj->ri", W_plus, U0)

    # u-evolution at the residual checkpoints, reusing the basis run
    nt = times.size
    u = Phi[:nt, :, 0, 0] * u0 + Phi[:nt, :, 0, 1] * u1
    v = Phi[:nt, :, 1, 0] * u0 + Phi[:nt, :, 1, 1] * u1
    lam = np.asarray(model.lam(times))
    Efr = free_micro_propagator(times, r)
    V = np.einsum("trij,rj->tri", Efr, V0)
    v_t = 1j * V[..., 1]       # V2 = D_t v_hat = -i v_t
    grad_v = V[..., 0]         # V1 = |xi| v_hat

    res_dt = radial_norm(lam[:, None] * v - v_t, r, n_dim)
    res_grad = radial_norm(lam[:, None] * r * u - grad_v, r, n_dim)
    # residuals at the integration-noise floor count as converged
    floor = 1e-6 * (radial_norm(U0[:, 0], r, n_dim) + radial_norm(U0[:, 1], r, n_dim))
    # the trend counts once every live frequency is in the oscillatory zone,
    # (1+t) xi_min >= N: before that, the exact residuals may still rise
    window = (1.0 + times) * r.min() >= config.N
    return ScatteringResidual(times=times, residual_dt=res_dt, residual_grad=res_grad,
                              W_samples=W_plus, w_increment=w_inc,
                              passed=(_residual_decays(res_dt, window, floor)
                                      and _residual_decays(res_grad, window, floor)))


def _residual_decays(res, window, floor):
    """A residual at the doubling times decays: it stays at the noise floor,
    or it decreases along every other doubling time within window (at least
    three of them), which absorbs a one-off phase alignment but not genuine
    growth, and ends below 10% of its start."""
    if np.all(res <= floor):
        return True
    late = res[window]
    trend = late.size >= 3 and np.all(late[2:] <= late[:-2] * 1.02 + floor)
    return bool(trend and res[-1] <= 0.1 * res[0] + floor)


# --------------------------------------------------------------------------
# Lp-Lq prediction and the improved solution bound
# --------------------------------------------------------------------------

def lp_lq_rate(model, p, n_dim):
    """Predicted conjugate-exponent decay: total polynomial rate
    -b0/2 - (n-1)/2 (1/p - 1/q) and Sobolev regularity r = n (1/p - 1/q)."""
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    _check_scattering_regime(model)   # same hypothesis set
    q = p / (p - 1.0)
    gap = 1.0 / p - 1.0 / q
    rate = -model.b0 / 2.0 - (n_dim - 1) / 2.0 * gap
    return rate, n_dim * gap


def improved_u_bound(model, config, data_spec, freq_grid, n_dim=1,
                     window=DEFAULT_WINDOW, rtol=1e-9):
    """Fit of ||u(t,.)||_{L2}: under the sigma = 1 hypotheses with
    delta = 1 + b0/2 + Re(mu+) > 0 the exponent must not exceed 1 + Re(mu+)."""
    if model.sigma != 1.0:
        raise RegimeUnsupportedError("improved bound needs the sigma = 1 hypothesis set")
    cls = classify_regime(model)
    delta = 1.0 + model.b0 / 2.0 + cls.mu_plus.real
    if delta <= 0.0:
        raise RegimeUnsupportedError(f"needs 1 + b0/2 + Re(mu+) > 0, got {delta:g}")
    times = np.geomspace(1.0, window[1], 61)
    trace = energy_trace(model, config, data_spec, freq_grid, times, n_dim, rtol=rtol)
    return fit_decay(times, trace.u_norm, window, predicted=1.0 + cls.mu_plus.real,
                     one_sided=True)
