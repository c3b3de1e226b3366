"""Asymptotic integration of Fuchs-type systems

    t dV/dt = (D(t) + R(t)) V,   t >= 1,   D = diag(mu_1..mu_d),

as a general d x d library that imports only fuchswave.errors: Levinson
solution construction by Picard iteration on the split integral equation, and
the Hartman-Wintner remainder reduction that trades an L^sigma remainder for
an L^max(sigma/2,1) one.

A system is evaluated on an array of times: mu(ts) has shape ts.shape + (d,)
and R(ts) shape ts.shape + (d, d), so every construction samples it once on
its grid.  All integrals live on the logarithmic variable x = ln t, the
natural variable of the dt/t measure; improper upper limits are truncated at
the horizon with a fitted-decay tail estimate added to the error budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DichotomyViolationError, HorizonError, NeedsLargerStartError

# Picard sweeps levinson_solve allows before giving up
_PICARD_MAX_ITER = 60


@dataclass(frozen=True)
class FuchsSystem:
    """Diagonal part and remainder of t V' = (D + R)V.

    Both take an array of times ts: mu(ts) returns the d diagonal entries at
    each time, shape ts.shape + (d,), and R(ts) the d x d remainders, shape
    ts.shape + (d, d); a scalar t gives one vector and one matrix.
    """

    dimension: int
    mu: callable
    R: callable


def _cumulative_trapezoid(vals, xs):
    """int_{x_0}^{x_a} vals dx at every grid point x_a (trapezoid rule along
    the first axis of vals)."""
    steps = np.diff(xs).reshape((-1,) + (1,) * (vals.ndim - 1))
    return np.concatenate((np.zeros_like(vals[:1]),
                           np.cumsum((vals[1:] + vals[:-1]) / 2.0 * steps, axis=0)))


def _log_interp(t, xs, vals):
    """vals, sampled along its first axis at the log times xs, interpolated
    linearly in x = ln t at the times t (any shape; constant past the ends)."""
    x = np.log(np.asarray(t, dtype=float))
    entries = [np.interp(x, xs, v.real) + 1j * np.interp(x, xs, v.imag)
               for v in vals.reshape(len(xs), -1).T]
    return np.stack(entries, axis=-1).reshape(x.shape + vals.shape[1:])


def _diagonal_part(R):
    """diag(diag R) for each matrix of the stack R."""
    return R * np.eye(R.shape[-1])


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
        xs = np.log(self.grid_t)
        expo = _log_interp(t, xs, self.mu_k_integral)
        return _log_interp(t, xs, self.normalized) * np.exp(expo)[..., None]


def _cumulative_kernel(delta, g, xs):
    """I(x_a) = int_{x_0}^{x_a} e^{delta(x_a)-delta(x)} g(x) dx, stably via the
    recurrence I(x_{a+1}) = e^{delta(x_{a+1})-delta(x_a)} I(x_a) + panel.
    Called on reversed arrays with xs negated, and its result reversed, it
    gives the backward integral int_{x_a}^{x_N} e^{delta(x_a)-delta(x)} g(x) dx."""
    out = [0j]  # products on Python complex numbers round as numpy's scalar ones do
    for r, h, g0, g1 in zip(np.exp(np.diff(delta)).tolist(), (np.diff(xs) / 2.0).tolist(),
                            g[:-1].tolist(), g[1:].tolist()):
        out.append(r * out[-1] + h * (r * g0 + g1))
    return np.array(out)


def levinson_solve(sys, k, t0, T, tol=1e-10, n=3000):
    """Construct V_k by Picard iteration on the split integral equation.

    The normalised unknown Z = V exp(-int mu_k ds/s) solves
    t Z' = (D - mu_k + R) Z; indices whose relative exponent decays feed a
    forward integral, the rest (including k) a backward one truncated at T.
    """
    d = sys.dimension
    xs = np.linspace(math.log(t0), math.log(T), n)
    ts = np.exp(xs)

    mus = np.asarray(sys.mu(ts), dtype=complex)              # (n, d)
    Rs = np.asarray(sys.R(ts), dtype=complex)                # (n, d, d)
    rel = mus - mus[:, k][:, None]                           # mu_i - mu_k
    delta = _cumulative_trapezoid(rel, xs)                   # int (mu_i - mu_k) dx

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
            "cannot be certified finite")
    total_tail = base_integral + tail
    if total_tail >= 1.0 / (2.0 * (c_minus + c_plus)):
        # retry from a later start where the remainder tail is small enough
        remaining = base_integral - _cumulative_trapezoid(norm_R, xs) + tail
        ok = np.flatnonzero(remaining < 1.0 / (2.0 * (c_minus + c_plus)))
        if not (ok.size and ok[0] < n - 10):
            raise NeedsLargerStartError(
                f"remainder tail {total_tail:.3g} too large for contraction")
        cutoff = ok[0]
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
        raise HorizonError(f"Picard iteration did not reach {tol} in {_PICARD_MAX_ITER} sweeps")

    muk_int = _cumulative_trapezoid(mus[:, k], xs)
    V = Z * np.exp(muk_int)[:, None]
    residual = np.linalg.norm(Z - ek, axis=1)
    return LevinsonSolution(
        k=k, grid_t=ts, values=V, normalized=Z, residual_trace=residual,
        mu_k_integral=muk_int, iterations=it + 1, rates=rates,
        contraction_bound=contraction, tail_bound=tail,
    )


@dataclass
class HWTransform:
    """Change of unknown (I + N) removing the off-diagonal L^sigma remainder;
    N_matrix(ts) and B_matrix(ts) take arrays of times, as a FuchsSystem does."""

    N_matrix: callable
    B_matrix: callable
    valid_from: float
    grid_t: np.ndarray
    N_norms: np.ndarray
    tail_bound: float


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
    mus = np.asarray(sys.mu(ts), dtype=complex)
    Rs = np.asarray(sys.R(ts), dtype=complex)
    Rt = Rs - _diagonal_part(Rs)                             # off-diagonal part
    # delta_ij(x) = int (mu_i - mu_j) dx and the Duhamel kernels, each pair
    # under a strong dichotomy: Re(mu_i - mu_j) of one sign on the whole grid
    delta = _cumulative_trapezoid(mus[:, :, None] - mus[:, None, :], xs)
    N_grid = np.zeros_like(Rs)
    tail_total = 0.0
    for i, j in itertools.permutations(range(d), 2):
        diff = mus[:, i].real - mus[:, j].real
        g = Rt[:, i, j]
        if diff.min() > 0:
            # n_ij = -e^{delta(t)} int_t^inf e^{-delta} r dx, truncated at T
            N_grid[:, i, j] = -_cumulative_kernel(delta[::-1, i, j], g[::-1],
                                                  -xs[::-1])[::-1]
            tail_total = max(tail_total, float(abs(g[-1])) / float(diff.min()))
        elif diff.max() < 0:
            N_grid[:, i, j] = _cumulative_kernel(delta[:, i, j], g, xs)
        else:
            raise DichotomyViolationError(
                f"pair {(i, j)}: Re(mu_i - mu_j) changes sign or vanishes")
    N_norms = np.linalg.norm(N_grid, ord=2, axis=(1, 2))

    ok = N_norms < 0.5
    if not ok[-1]:
        raise HorizonError("||N|| never settles below 1/2 on the horizon")
    # valid_from: first grid point from which ||N|| stays below 1/2, one past
    # the last point where it does not
    bad = np.flatnonzero(~ok)
    valid_from = float(ts[bad[-1] + 1 if bad.size else 0])

    def N_of(t):
        return _log_interp(t, xs, N_grid)

    def B_of(t):
        Nt, R = N_of(t), sys.R(t)
        return Nt @ _diagonal_part(R) - R @ Nt

    def mu_new(t):
        return sys.mu(t) + np.diagonal(sys.R(t), axis1=-2, axis2=-1)

    def R_new(t):
        return np.linalg.solve(np.eye(d) + N_of(t), B_of(t))

    transform = HWTransform(N_matrix=N_of, B_matrix=B_of, valid_from=valid_from,
                            grid_t=ts, N_norms=N_norms, tail_bound=tail_total)
    return transform, FuchsSystem(dimension=d, mu=mu_new, R=R_new)
