"""Asymptotic integration of Fuchs-type systems

    t dV/dt = (D(t) + R(t)) V,   t >= 1,   D = diag(mu_1..mu_d),

as a general d x d library: dichotomy checking, Levinson solution
construction by Picard iteration on the split integral equation, and the
Hartman-Wintner remainder reduction that trades an L^sigma remainder for an
L^max(sigma/2,1) one.

All integrals live on the logarithmic variable x = ln t, the natural
variable of the dt/t measure; improper upper limits are truncated at the
horizon with a fitted-decay tail estimate added to the error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .modal import HorizonError


class DichotomyViolationError(RuntimeError):
    """Real parts of an exponent pair are not uniformly separated."""


# Picard sweeps levinson_solve allows before giving up
_PICARD_MAX_ITER = 60
# check_dichotomy: log-grid points on [1, T]
_DICHOTOMY_SAMPLES = 1200
# hw_identity_residual: centered-difference step in x = ln t
_HW_FD_STEP = 1e-4


class NeedsLargerStartError(RuntimeError):
    """The Picard map does not contract from the requested start time."""

    def __init__(self, message, estimated_tail):
        super().__init__(message)
        self.estimated_tail = estimated_tail


@dataclass(frozen=True)
class FuchsSystem:
    """Diagonal part and remainder of t V' = (D + R)V.

    mu(t) returns the d diagonal entries, R(t) the d x d remainder.
    Both must accept scalar t; mu may be constant in t.
    """

    dimension: int
    mu: callable
    R: callable

    def mu_at(self, t):
        return np.asarray(self.mu(t), dtype=complex)

    def R_at(self, t):
        return np.asarray(self.R(t), dtype=complex)


def remainder_log_integral(sys, t0, T, n=2000):
    """int_{t0}^{T} ||R(t)|| dt/t on a log grid (trapezoid in x = ln t)."""
    xs = np.linspace(math.log(t0), math.log(T), n)
    vals = np.array([np.linalg.norm(sys.R_at(math.exp(x)), 2) for x in xs])
    return float(np.trapezoid(vals, xs)), xs, vals


def _fit_tail(xs, vals):
    """Exponential decay rate of vals ~ C e^{-r x} over the last stretch;
    returns the estimated integral beyond xs[-1] (0 rate -> conservative inf).
    A vanishing end segment (zero-extended or roundoff-level remainder) has
    zero tail by construction."""
    floor = 1e-13 * max(1.0, float(vals.max(initial=0.0)))
    if vals.size == 0 or vals[-3:].max(initial=0.0) <= floor:
        return 0.0
    tail = slice(max(0, len(xs) - len(xs) // 4), None)
    v = vals[tail]
    x = xs[tail]
    pos = v > floor
    if pos.sum() < 4:
        return 0.0
    r = -np.polyfit(x[pos], np.log(v[pos]), 1)[0]
    if r <= 1e-6:
        return math.inf
    return float(v[-1] / r)


@dataclass
class DichotomyVerdict:
    pair: tuple
    alternative: str            # bounded_above / bounded_below / both / inconclusive
    strong: bool                # sign-definite separation of the real parts
    C_minus: float | None
    C_plus: float | None
    integral_trace: np.ndarray  # Re int (mu_i - mu_j) ds/s on the grid
    grid: np.ndarray


def check_dichotomy(sys, pair, T):
    """Evaluate int Re(mu_i - mu_j) ds/s on a log grid over [1, T] and report
    which alternative holds numerically, with strong-form constants if
    applicable."""
    i, j = pair
    if i == j:
        raise ValueError("dichotomy concerns a pair of distinct indices")
    xs = np.linspace(0.0, math.log(T), _DICHOTOMY_SAMPLES)
    diff = np.array([(sys.mu_at(math.exp(x))[i] - sys.mu_at(math.exp(x))[j]).real
                     for x in xs])
    re_lo = diff.min()
    re_hi = diff.max()
    trace = np.concatenate(([0.0], np.cumsum((diff[1:] + diff[:-1]) / 2.0 * np.diff(xs))))
    # an alternative fails when the running extreme keeps drifting,
    # segment over segment, by a non-trivial amount
    segs = np.array_split(trace, 6)
    seg_max = np.array([s.max() for s in segs])
    seg_min = np.array([s.min() for s in segs])
    bounded_above = not (np.all(np.diff(seg_max[-3:]) > 0)
                         and seg_max[-1] - seg_max[-3] > 1.0)
    bounded_below = not (np.all(np.diff(seg_min[-3:]) < 0)
                         and seg_min[-3] - seg_min[-1] > 1.0)
    strong = re_lo > 0 or re_hi < 0
    if bounded_above and bounded_below:
        alt = "both"
    elif bounded_above:
        alt = "bounded_above"
    elif bounded_below:
        alt = "bounded_below"
    else:
        alt = "inconclusive"
    return DichotomyVerdict(
        pair=(i, j), alternative=alt, strong=strong,
        C_minus=float(re_hi) if re_hi < 0 else None,
        C_plus=float(re_lo) if re_lo > 0 else None,
        integral_trace=trace, grid=xs,
    )


@dataclass
class LevinsonSolution:
    """One distinguished solution V_k ~ e_k exp(int mu_k ds/s)."""

    k: int
    grid_t: np.ndarray
    values: np.ndarray          # V_k on the grid, shape (n, d)
    normalized: np.ndarray      # Z = V_k exp(-int mu_k ds/s), slowly varying
    residual_trace: np.ndarray  # ||Z - e_k|| on the grid
    mu_k_integral: np.ndarray   # int_{t0}^{t} mu_k ds/s on the grid
    iterations: int
    rates: list
    contraction_bound: float
    tail_bound: float

    def __call__(self, t):
        # interpolate the normalized factor and the exponent separately; for
        # constant exponents this reproduces exact powers of t
        x = np.log(np.asarray(t, dtype=float))
        xs = np.log(self.grid_t)
        out = np.empty(x.shape + (self.values.shape[1],), dtype=complex)
        expo = (np.interp(x, xs, self.mu_k_integral.real)
                + 1j * np.interp(x, xs, self.mu_k_integral.imag))
        for c in range(self.values.shape[1]):
            z = (np.interp(x, xs, self.normalized[:, c].real)
                 + 1j * np.interp(x, xs, self.normalized[:, c].imag))
            out[..., c] = z * np.exp(expo)
        return out


def _cumulative_kernel(delta, g, xs):
    """I(x_a) = int_{x_0}^{x_a} e^{delta(x_a)-delta(x)} g(x) dx, stably via the
    recurrence I(x_{a+1}) = e^{delta(x_{a+1})-delta(x_a)} I(x_a) + panel.
    Called on reversed arrays with xs negated, and its result reversed, it
    gives the backward integral int_{x_a}^{x_N} e^{delta(x_a)-delta(x)} g(x) dx."""
    n = len(xs)
    out = np.zeros(n, dtype=complex)
    for a in range(1, n):
        dx = xs[a] - xs[a - 1]
        ratio = np.exp(delta[a] - delta[a - 1])
        out[a] = ratio * out[a - 1] + dx / 2.0 * (ratio * g[a - 1] + g[a])
    return out


def levinson_solve(sys, k, t0, T, tol=1e-10, n=3000):
    """Construct V_k by Picard iteration on the split integral equation.

    The normalised unknown Z = V exp(-int mu_k ds/s) solves
    t Z' = (D - mu_k + R) Z; indices whose relative exponent decays feed a
    forward integral, the rest (including k) a backward one truncated at T.
    """
    d = sys.dimension
    xs = np.linspace(math.log(t0), math.log(T), n)
    ts = np.exp(xs)

    mus = np.array([sys.mu_at(t) for t in ts])               # (n, d)
    Rs = np.array([sys.R_at(t) for t in ts])                 # (n, d, d)
    rel = mus - mus[:, k][:, None]                           # mu_i - mu_k
    # delta_i(x) = int (mu_i - mu_k) dx, cumulative trapezoid
    delta = np.zeros_like(rel)
    delta[1:] = np.cumsum((rel[1:] + rel[:-1]) / 2.0 * np.diff(xs)[:, None], axis=0)

    # splitting: decaying relative exponents go to the forward part
    mean_re = np.trapezoid(rel.real, xs, axis=0) / (xs[-1] - xs[0])
    minus_set = np.array([i for i in range(d) if i != k and mean_re[i] < -1e-12])
    plus_set = np.array([i for i in range(d) if i == k or i not in minus_set])

    norm_R = np.linalg.norm(Rs, ord=2, axis=(1, 2))
    base_integral = float(np.trapezoid(norm_R, xs))
    tail = _fit_tail(xs, norm_R)
    c_minus = c_plus = 1.0  # sorted constant exponents give unit kernels
    if math.isinf(tail):
        raise NeedsLargerStartError(
            "remainder shows no decay within the horizon; the tail integral "
            "cannot be certified finite", math.inf)
    total_tail = base_integral + tail
    if total_tail >= 1.0 / (2.0 * (c_minus + c_plus)):
        # retry from a later start where the remainder tail is small enough
        cutoff = None
        run = np.concatenate(([0.0], np.cumsum((norm_R[1:] + norm_R[:-1]) / 2.0 * np.diff(xs))))
        remaining = base_integral - run + tail
        ok = np.flatnonzero(remaining < 1.0 / (2.0 * (c_minus + c_plus)))
        if ok.size and ok[0] < n - 10:
            cutoff = ok[0]
        if cutoff is None:
            raise NeedsLargerStartError(
                f"remainder tail {total_tail:.3g} too large for contraction", total_tail)
        sub = slice(cutoff, None)
        xs, ts, mus, Rs, rel, delta = (xs[sub], ts[sub], mus[sub], Rs[sub],
                                       rel[sub], delta[sub] - delta[cutoff])
        norm_R = norm_R[sub]

    contraction = (c_minus + c_plus) * (float(np.trapezoid(norm_R, xs)) + tail)

    ek = np.zeros(d, dtype=complex)
    ek[k] = 1.0
    Z = np.tile(ek, (len(xs), 1))
    rates = []
    prev_gap = None
    for it in range(_PICARD_MAX_ITER):
        G = np.einsum("nij,nj->ni", Rs, Z)                   # R Z on the grid
        Z_new = np.tile(ek, (len(xs), 1))
        for i in minus_set:
            Z_new[:, i] += _cumulative_kernel(delta[:, i], G[:, i], xs)
        for i in plus_set:
            Z_new[:, i] -= _cumulative_kernel(delta[::-1, i], G[::-1, i], -xs[::-1])[::-1]
        gap = float(np.max(np.linalg.norm(Z_new - Z, axis=1)))
        Z = Z_new
        # rates observed while well above the tolerance floor (roundoff-free)
        if prev_gap is not None and prev_gap > 100.0 * tol:
            rates.append(gap / prev_gap)
        prev_gap = gap
        if gap < tol:
            break
    else:
        raise HorizonError(
            f"Picard iteration did not reach {tol} in {_PICARD_MAX_ITER} sweeps")

    muk_int = np.concatenate(
        ([0.0], np.cumsum((mus[1:, k] + mus[:-1, k]) / 2.0 * np.diff(xs))))
    V = Z * np.exp(muk_int)[:, None]
    residual = np.linalg.norm(Z - ek, axis=1)
    return LevinsonSolution(
        k=k, grid_t=ts, values=V, normalized=Z, residual_trace=residual,
        mu_k_integral=muk_int, iterations=it + 1, rates=rates,
        contraction_bound=contraction, tail_bound=tail,
    )


def integrate_fuchs(sys, a, b, rtol=1e-11):
    """Direct oracle for t E' = (D+R)E, E(a) = I, integrated in x = ln t."""
    d = sys.dimension

    def rhs(x, y):
        t = math.exp(x)
        M = np.diag(sys.mu_at(t)) + sys.R_at(t)
        return (M @ y.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (math.log(a), math.log(b)), np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise HorizonError(sol.message)
    return sol.y[:, -1].reshape(d, d)


@dataclass
class HWTransform:
    """Change of unknown (I + N) removing the off-diagonal L^sigma remainder."""

    N_matrix: callable
    B_matrix: callable
    F_diag: callable
    valid_from: float
    grid_t: np.ndarray
    N_norms: np.ndarray
    tail_bound: float
    ordering: tuple


def hartman_wintner(sys, sigma, t0, horizon, n=4000):
    """Build the transform N with zero diagonal solving
    t N' = DN - ND + (R - diag R), N -> 0, by forward/backward kernel
    quadratures, and return it with the transformed system

        t V' = (D + diag R + R1) V,   R1 = (I+N)^{-1} (N F - R N).
    """
    if not 1.0 < sigma <= 2.0:
        raise ValueError("one transform application covers sigma in (1, 2]")
    d = sys.dimension
    xs = np.linspace(math.log(t0), math.log(horizon), n)
    ts = np.exp(xs)
    mus = np.array([sys.mu_at(t) for t in ts])
    Rs = np.array([sys.R_at(t) for t in ts])
    Fs = np.array([np.diag(np.diag(R)) for R in Rs])
    Rt = Rs - Fs                                             # off-diagonal part

    # proof-convention ordering: ascending real parts, recorded explicitly
    order = tuple(np.argsort(np.mean(mus.real, axis=0)))

    # strong dichotomy with a uniform margin
    margins = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            diff = mus[:, i].real - mus[:, j].real
            if diff.min() > 0:
                margins[(i, j)] = ("plus", float(diff.min()))
            elif diff.max() < 0:
                margins[(i, j)] = ("minus", float(-diff.max()))
            else:
                raise DichotomyViolationError(
                    f"pair {(i, j)}: Re(mu_i - mu_j) changes sign or vanishes")
    delta_margin = min(m for _, m in margins.values())
    if delta_margin <= 0:
        raise DichotomyViolationError("strong dichotomy margin is not positive")

    # delta_ij(x) = int (mu_i - mu_j) dx and the Duhamel kernels
    N_grid = np.zeros((n, d, d), dtype=complex)
    tail_total = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            diff = mus[:, i] - mus[:, j]
            delta = np.zeros(n, dtype=complex)
            delta[1:] = np.cumsum((diff[1:] + diff[:-1]) / 2.0 * np.diff(xs))
            g = Rt[:, i, j]
            kind, _ = margins[(i, j)]
            if kind == "plus":
                # n_ij = -e^{delta(t)} int_t^inf e^{-delta} r dx, truncated at T
                N_grid[:, i, j] = -_cumulative_kernel(delta[::-1], g[::-1], -xs[::-1])[::-1]
                tail_total = max(tail_total,
                                 float(abs(g[-1])) / margins[(i, j)][1])
            else:
                N_grid[:, i, j] = _cumulative_kernel(delta, g, xs)
    N_norms = np.linalg.norm(N_grid, ord=2, axis=(1, 2))

    ok = N_norms < 0.5
    # valid_from: first grid point from which ||N|| stays below 1/2
    idx = None
    for a in range(n):
        if ok[a:].all():
            idx = a
            break
    if idx is None:
        raise HorizonError("||N|| never settles below 1/2 on the horizon")
    valid_from = float(ts[idx])

    def interp_mat(grid_vals):
        def f(t):
            x = math.log(t)
            out = np.empty((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    out[i, j] = (np.interp(x, xs, grid_vals[:, i, j].real)
                                 + 1j * np.interp(x, xs, grid_vals[:, i, j].imag))
            return out
        return f

    N_of = interp_mat(N_grid)

    def F_of(t):
        return np.diag(np.diag(sys.R_at(t)))

    def B_of(t):
        Nt = N_of(t)
        return Nt @ F_of(t) - sys.R_at(t) @ Nt

    transform = HWTransform(
        N_matrix=N_of, B_matrix=B_of, F_diag=F_of, valid_from=valid_from,
        grid_t=ts, N_norms=N_norms, tail_bound=tail_total, ordering=order,
    )

    def mu_new(t):
        return sys.mu_at(t) + np.diag(sys.R_at(t))

    def R_new(t):
        Nt = N_of(t)
        return np.linalg.solve(np.eye(d) + Nt, B_of(t))

    transformed = FuchsSystem(dimension=d, mu=mu_new, R=R_new)
    return transform, transformed


def hw_identity_residual(sys, transform, t):
    """Defect of t N' - (DN - ND) - (R - diag R) at time t, with t N'
    evaluated by a centered difference in x = ln t."""
    x, h = math.log(t), _HW_FD_STEP
    Np = transform.N_matrix(math.exp(x + h))
    Nm = transform.N_matrix(math.exp(x - h))
    tNprime = (Np - Nm) / (2.0 * h)
    Nt = transform.N_matrix(t)
    D = np.diag(sys.mu_at(t))
    R = sys.R_at(t)
    Rt = R - np.diag(np.diag(R))
    return float(np.linalg.norm(tNprime - (D @ Nt - Nt @ D) - Rt, 2))
