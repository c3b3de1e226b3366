"""Reference code for the tests, kept out of the program because no
experiment runs it.

- Integrators independent of the program's own DOP853 driver
  (modal.solve_ivp) that several tests check, and of the Gauss-Legendre
  panel rule behind diagonalize.q_propagator.
- The diagonalization hierarchy as dense (order+1, 2, 2, nt) matrix jets:
  the second algorithm for diagonalize._sweeps' entry recursion
  (`dense_sweeps`, `dense_q_generator`), and `densify`, which lays out
  _sweeps' entries in that form for the audits below.
- Sampled audits of the diagonalization hierarchy: the symbol jets of a
  stage with their claimed orders (`symbol_jets`), their weighted symbol
  constants (`audit_symbol`) and the operator identity the sweeps solve
  (`operator_identity_residual`).
- Sampled audits of Fuchs systems: the dichotomy alternative of an exponent
  pair (`check_dichotomy`), the remainder's dt/t integral
  (`remainder_log_integral`) and the defect of the Hartman-Wintner identity
  (`hw_identity_residual`).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from fuchswave.asymptotic import _cumulative_trapezoid, _diagonal_part
from fuchswave.diagonalize import _conjugated_generator, _sweeps, preliminary_transform
from fuchswave.errors import HorizonError
from fuchswave.modal import spectral_norm

# operator_identity_residual: finite-difference step relative to 1+t
_FD_STEP = 1e-4
# check_dichotomy: log-grid points on [1, T]
_DICHOTOMY_SAMPLES = 1200
# remainder_log_integral: log-grid points on [t0, T]
_REMAINDER_SAMPLES = 2000
# hw_identity_residual: centered-difference step in x = ln t
_HW_FD_STEP = 1e-4


def integrate_fuchs(sys, a, b, rtol=1e-11):
    """Direct oracle for t E' = (D+R)E, E(a) = I, integrated in x = ln t."""
    d = sys.dimension

    def rhs(x, y):
        t = math.exp(x)
        M = np.diag(sys.mu(t)) + sys.R(t)
        return (M @ y.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (math.log(a), math.log(b)), np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise HorizonError(sol.message)
    return sol.y[:, -1].reshape(d, d)


def integrate_q(stage, s, t, xi, rtol=1e-11):
    """Q_k(t,s,xi) by DOP853 on D_t Q = G Q, Q(s) = I, with G the
    generator conjugated by the free phase anchored at s."""
    def rhs(tau, y):
        G = _conjugated_generator(stage, np.array([tau]), s, xi)[0]
        return (1j * G @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (s, t), np.eye(2, dtype=complex).ravel(), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise HorizonError(sol.message)
    return sol.y[:, -1].reshape(2, 2)


# --- the diagonalization hierarchy ------------------------------------------

class DenseHierarchy(NamedTuple):
    """Matrix jets of shape (order+1, 2, 2, nt), fields as in
    diagonalize._Hierarchy."""

    N_parts: list
    F_parts: list
    N: np.ndarray
    F: np.ndarray
    B: np.ndarray | None


def _jm_mul(A, B):
    r = A.shape[0] - 1
    out = np.zeros_like(A)
    for k in range(r + 1):
        for j in range(k + 1):
            out[k] += math.comb(k, j) * np.einsum("ab...,bc...->ac...", A[j], B[k - j])
    return out


def _jm_const_mul(Mat, A, side="left"):
    if side == "left":
        return np.einsum("ab,kbc...->kac...", Mat, A)
    return np.einsum("kab...,bc->kac...", A, Mat)


def dense_sweeps(model, xi, t, k, order, with_B):
    """diagonalize._sweeps by whole 2x2 matrix jets: every level a dense
    jet, multiplied through einsum, with D = diag(xi, -xi) and B + C as
    matrices."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n_B = k if with_B else k - 1
    top = order + n_B
    b = model.b_jet(t, top).astype(complex)
    F0 = np.zeros((top + 1, 2, 2, t.size), dtype=complex)
    F0[:, 0, 0] = F0[:, 1, 1] = 0.5j * b
    N1 = np.zeros_like(F0)
    N1[:, 0, 1] = -0.25j * b / xi
    N1[:, 1, 0] = 0.25j * b / xi
    N_parts, F_parts = [N1], [F0]
    N = np.zeros_like(F0)
    N[0, 0, 0] = N[0, 1, 1] = 1.0
    N += N1
    F = F0
    if n_B:
        m = model.m_jet(t, top - 1).astype(complex)
        BC = (0.5j * b[:top, None, None, :] * np.ones((2, 2))[None, :, :, None]
              + m[:, None, None, :] * np.array([[1.0, -1.0], [1.0, -1.0]])[None, :, :, None]
              / (2.0 * xi))
    D = np.array([[xi, 0.0], [0.0, -xi]], dtype=complex)
    B = None
    for j in range(1, n_B + 1):
        n = top - j + 1
        Nj, Fj = N[:n], F[:n]
        comm = _jm_const_mul(D, Nj, "left") - _jm_const_mul(D, Nj, "right")
        B = -1j * N[1:] - comm - _jm_mul(BC[:n], Nj) + _jm_mul(Nj, Fj)
        if j == k:
            break
        N_next = np.zeros_like(B)
        N_next[:, 0, 1] = B[:, 0, 1] / (2.0 * xi)
        N_next[:, 1, 0] = -B[:, 1, 0] / (2.0 * xi)
        F_next = np.zeros_like(B)
        F_next[:, 0, 0] = -B[:, 0, 0]
        F_next[:, 1, 1] = -B[:, 1, 1]
        N_parts.append(N_next)
        F_parts.append(F_next)
        N, F = Nj + N_next, Fj + F_next
    cut = order + 1
    return DenseHierarchy([p[:cut] for p in N_parts], [p[:cut] for p in F_parts],
                          N[:cut], F[:cut], B if with_B else None)


def dense_q_generator(stage, t, xi):
    """The generator F_{k-1} - F^(0) - N_k^{-1} B^(k) from `dense_sweeps`,
    (nt, 2, 2), by LAPACK's stacked inverse and matmul."""
    hier = dense_sweeps(stage.model, xi, t, stage.k, 0, with_B=True)
    F_extra = hier.F[0] - hier.F_parts[0][0]
    return np.moveaxis(F_extra, -1, 0) - np.matmul(np.linalg.inv(np.moveaxis(hier.N[0], -1, 0)),
                                                   np.moveaxis(hier.B[0], -1, 0))


def densify(hier):
    """diagonalize._sweeps' entries laid out as the DenseHierarchy that
    dense_sweeps returns."""
    def matrix(entries, where):
        out = np.zeros(entries[0].shape[:1] + (2, 2) + entries[0].shape[1:], dtype=complex)
        for (a, c), x in zip(where, entries):
            out[:, a, c] = x
        return out

    def off(pair):
        return matrix(pair, ((0, 1), (1, 0)))

    def diag(pair):
        return matrix(pair, ((0, 0), (1, 1)))

    N = off(hier.N)
    N[0, 0, 0] = N[0, 1, 1] = 1.0
    B = None if hier.B is None else matrix(hier.B, ((0, 0), (0, 1), (1, 0), (1, 1)))
    return DenseHierarchy([off(p) for p in hier.N_parts], [diag(p) for p in hier.F_parts],
                          N, diag(hier.F), B)


class Symbol(NamedTuple):
    """Matrix amplitude of a stage with claimed orders: ||D_t^k D_xi^a S|| <=
    C |xi|^(m1-a) (1+t)^(-m2-k) on the oscillatory zone."""

    name: str
    order: tuple                   # (m1, m2)
    smoothness: int
    jet: callable                  # (t, xi, order) -> (order+1, 2, 2, nt)


def symbol_jets(stage):
    """N^(1), ..., N^(k), F^(0), ..., F^(k-1) and B^(k) of a k-sweep stage,
    each read off its own pass of diagonalize._sweeps, densified."""
    model, k, budget = stage.model, stage.k, stage.model.budget

    def part(j, pick, with_B=False):
        return lambda t, xi, order: pick(densify(_sweeps(model, xi, t, j, order, with_B=with_B)))

    N = [Symbol(f"N^({j})", (-j, j), budget - j + 1, part(j, lambda h: h.N_parts[-1]))
         for j in range(1, k + 1)]
    F = [Symbol(f"F^({j})", (-j, j + 1), budget - j, part(j + 1, lambda h: h.F_parts[-1]))
         for j in range(k)]
    B = Symbol(f"B^({k})", (-k, k + 1), budget - k, part(k, lambda h: h.B, with_B=True))
    return N + F + [B]


def audit_symbol(sym, config, t_factors=(1.0, 3.0, 10.0, 100.0),
                 xi_values=None, k_max=1, alpha_max=2):
    """Worst sampled constants of ||D_t^k D_xi^a sym|| |xi|^(a-m1) (1+t)^(m2+k)
    over the oscillatory zone; t-derivatives exact (jets), xi-derivatives by
    central differences with relative step."""
    m1, m2 = sym.order
    N = config.N
    xi_values = np.geomspace(0.25 * N, 32.0 * N, 7) if xi_values is None else xi_values
    out = {}
    for k in range(k_max + 1):
        for alpha in range(alpha_max + 1):
            worst = 0.0
            for xi in xi_values:
                t0 = max(N / xi - 1.0, 0.0)
                for fac in t_factors:
                    t = (1.0 + t0) * fac - 1.0 + 1e-9
                    val = _dxi_of_jet(sym, t, xi, k, alpha)
                    weight = xi ** (alpha - m1) * (1.0 + t) ** (m2 + k)
                    worst = max(worst, spectral_norm(val) * weight)
            out[(k, alpha)] = worst
    return out


def _dxi_of_jet(sym, t, xi, k, alpha):
    def f(x):
        return sym.jet(np.array([t]), x, k)[k][..., 0]

    if alpha == 0:
        return f(xi)
    h = 1e-3 * xi
    if alpha == 1:
        return (f(xi + h) - f(xi - h)) / (2.0 * h)
    return (f(xi + h) - 2.0 * f(xi) + f(xi - h)) / h ** 2


def operator_identity_residual(stage, t, xi):
    """Defect of (D_t - D - B - C) N_k - N_k (D_t - D - F_{k-1}) - B^(k)
    with D_t N_k re-evaluated by Richardson finite differences, as an
    independent check on the jet arithmetic."""
    h = _FD_STEP * (1.0 + t)
    Nm2, Nm1, Nk, Np1, Np2 = stage.N_total(t + h * np.arange(-2.0, 3.0), xi)
    dtN = -1j * ((8 * (Np1 - Nm1) - (Np2 - Nm2)) / (12 * h))
    pre = preliminary_transform(stage.model, xi)
    hier = densify(_sweeps(stage.model, xi, t, stage.k, 0, with_B=True))
    lhs = (dtN - (pre.D @ Nk - Nk @ pre.D) - (pre.B(t) + pre.C(t)) @ Nk
           + Nk @ hier.F[0][..., 0])
    return spectral_norm(lhs - hier.B[0][..., 0])


# --- Fuchs systems ----------------------------------------------------------

def remainder_log_integral(sys, t0, T):
    """int_{t0}^{T} ||R(t)|| dt/t on a log grid (trapezoid in x = ln t)."""
    xs = np.linspace(math.log(t0), math.log(T), _REMAINDER_SAMPLES)
    vals = np.linalg.norm(sys.R(np.exp(xs)), 2, axis=(-2, -1))
    return float(np.trapezoid(vals, xs)), xs, vals


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
    mus = np.asarray(sys.mu(np.exp(xs)), dtype=complex)
    diff = (mus[:, i] - mus[:, j]).real
    re_lo = diff.min()
    re_hi = diff.max()
    trace = _cumulative_trapezoid(diff, xs)
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


def hw_identity_residual(sys, transform, t):
    """Defect of t N' - (DN - ND) - (R - diag R) at time t, with t N'
    evaluated by a centered difference in x = ln t."""
    x, h = math.log(t), _HW_FD_STEP
    Np, Nm = transform.N_matrix(np.exp([x + h, x - h]))
    tNprime = (Np - Nm) / (2.0 * h)
    Nt = transform.N_matrix(t)
    D = np.diag(sys.mu(t))
    R = sys.R(t)
    return float(np.linalg.norm(tNprime - (D @ Nt - Nt @ D) - (R - _diagonal_part(R)), 2))
