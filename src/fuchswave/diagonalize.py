"""Oscillatory-zone diagonalization hierarchy.

Starting from D_t U = A(t,xi) U with A = [[0, xi], [xi + m/xi, i b]], the
constant rotation M = (1/sqrt2)[[1,-1],[1,1]] produces

    D_t V = (D + B + C) V,  D = diag(xi, -xi),
    B = (i b/2) ones,  C = (m/(2 xi)) [[1,-1],[1,-1]].

Each sweep k adds a correction N^(k) and a diagonal part F^(k-1) so that

    B^(k) = (D_t - D - B - C) N_k - N_k (D_t - D - F_{k-1}),
    N_k = I + sum N^(j),  F_{k-1} = sum F^(j),

improves one order in both variables.  The commutator identity
[D, N^(1)] + B = F^(0) forces F^(0) = diag B = (i b/2) I and

    N^(1) = (i b / (4 xi)) [[0, -1], [1, 0]],

and for k >= 2 the identity forces F^(k-1) = -diag B^(k-1) and off-diagonal
entries N^(k)_12 = B^(k-1)_12/(2 xi), N^(k)_21 = -B^(k-1)_21/(2 xi).
With R_k = -N_k^{-1} B^(k) the transformed unknown V_k = N_k^{-1} V solves
D_t V_k = (D + F_{k-1} + R_k) V_k, whose propagator factors as
(lam(s)/lam(t)) E_0(t,s,xi) Q_k(t,s,xi) with unitary E_0 and Q_k given by a
Peano-Baker series.  Transforming back,

    E(t,s,xi) = (lam(s)/lam(t)) M N_k(t) E_0(t,s) Q_k(t,s) N_k(s)^{-1} M^{-1}

is an exact identity, checked against the direct oracle.

One forward pass over the sweeps j = 1..k builds N^(j), F^(j-1) and B^(j)
level by level from a single jet of b and of m.  B^(j) needs D_t N_j, so
each level is one jet order shorter than the one before: B^(k) at jet
order r opens the pass at order r + k.  Derivatives are exact jets, never
finite differences: the pass nests k derivative levels and FD noise would
compound.

Q_k is the time-ordered product of its panels' propagators, Q(t,s) =
Q(t,r) Q(r,s), each the Peano-Baker series on 16 Gauss-Legendre nodes
(Greengard, SIAM J. Numer. Anal. 28, 1991), with tail bound e^C C^9 / 9!
in the panel's generator integral C.  [s, t] is cut into segments in which
1 + tau at most doubles, so one panel resolves the power-law decay of the
generator, and each segment into equal panels spanning at most 4 rad of
the phase 2 xi tau; where the bounds sum too high, panels of large C split.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HorizonError, UnsupportedOrderError, ZoneConstantError
from .modal import FundamentalMatrix, spectral_norm
from .modal import solve_ivp  # noqa: F401  the benchmark tracer wraps this name
from .zones import theta

SQRT2 = math.sqrt(2.0)
M_ROT = np.array([[1.0, -1.0], [1.0, 1.0]]) / SQRT2
M_ROT_INV = np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2

# min_zone_constant: candidate constants N, and frequencies sampled per candidate
_ZONE_CANDIDATES = np.geomspace(1e-2, 1e2, 41)
_ZONE_N_XI = 25
# q_limit: doublings of t allowed before the Cauchy test must have settled
_Q_LIMIT_MAX_STEPS = 48
# q_propagator: Peano-Baker terms summed per panel; the bound the panels'
# summed tail bounds must meet, and the refinement rounds allowed to meet it
_Q_DEPTH = 8
_Q_TOL = 1e-11
_Q_ROUNDS = 4
# q_propagator: nodes per q_generator call; bounds the hierarchy's
# (order+1, 2, 2, nodes) temporaries whatever the grid length
_Q_CHUNK = 8192
# q_propagator's panel rule: Gauss-Legendre nodes per panel
_GAUSS_NODES = 16
# phase 2 xi tau spanned by one panel at most
_PANEL_PHASE = 4.0


# --- jet-matrix helpers: arrays of shape (order+1, 2, 2, nt) ---------------

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


class _Hierarchy(NamedTuple):
    """Jets of shape (order+1, 2, 2, nt) from one pass of `_sweeps`."""

    N_parts: list          # N^(1), ..., N^(k)
    F_parts: list          # F^(0), ..., F^(k-1)
    N: np.ndarray          # N_k
    F: np.ndarray          # F_{k-1}
    B: np.ndarray | None   # B^(k), None when not asked for


def _sweeps(model, xi, t, k, order, with_B):
    """The hierarchy of k sweeps at fixed xi, vectorised over a time grid, in
    one forward pass; jets up to `order`.  B^(j) needs D_t N_j, so level j is
    one jet order shorter than level j-1, and the pass opens at order
    `order + k - 1`, one more when B^(k) is asked for.  Without B^(k) the
    pass stops once N_k is built."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n_B = k if with_B else k - 1            # levels that build a B^(j)
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
        n = top - j + 1                     # jet length of B^(j)
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
    return _Hierarchy([p[:cut] for p in N_parts], [p[:cut] for p in F_parts],
                      N[:cut], F[:cut], B if with_B else None)


def _at(t, jet0):
    """A (2, 2, nt) jet entry as matrices at t: (nt, 2, 2), or (2, 2) for a scalar t."""
    return np.moveaxis(jet0, -1, 0) if np.ndim(t) else jet0[..., 0]


@dataclass
class DiagonalizationStage:
    """The k-th sweep of the hierarchy for a model: N_k and the generator of
    Q_k, each evaluated by one pass of `_sweeps` per call."""

    model: object
    config: object
    k: int

    def N_total(self, t, xi):
        return _at(t, _sweeps(self.model, xi, t, self.k, 0, with_B=False).N[0])

    def q_generator(self, t, xi):
        """F_{k-1} - F^(0) + R_k, the generator driving Q_k before phase
        conjugation; vectorised over t."""
        hier = _sweeps(self.model, xi, t, self.k, 0, with_B=True)
        F_extra = hier.F[0] - hier.F_parts[0][0]
        G = np.moveaxis(F_extra, -1, 0) - np.matmul(_inv2(np.moveaxis(hier.N[0], -1, 0)),
                                                    np.moveaxis(hier.B[0], -1, 0))
        return G if np.ndim(t) else G[0]


def _norm2(G):
    """Spectral norms of stacked 2x2 matrices (..., 2, 2) in closed form,
    sqrt((|G|_F^2 + sqrt(|G|_F^4 - 4 |det G|^2)) / 2); the discriminant is
    summed as (p - r)^2 + 4 |q|^2 over G G^H = [[p, q], [q*, r]], which does
    not cancel when the two singular values nearly agree."""
    a, b, c, d = G[..., 0, 0], G[..., 0, 1], G[..., 1, 0], G[..., 1, 1]
    p = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    r = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    q = a * c.conj() + b * d.conj()
    return np.sqrt(0.5 * (p + r + np.sqrt((p - r) ** 2 + 4.0 * (q.real ** 2 + q.imag ** 2))))


def _inv2(M):
    """Inverse of (possibly stacked) 2x2 matrices."""
    M = np.asarray(M)
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out / det[..., None, None]


@dataclass
class PreliminaryTransform:
    D: np.ndarray
    B: callable
    C: callable
    M: np.ndarray
    M_inv: np.ndarray


def preliminary_transform(model, xi_norm):
    """Constant rotation diagonalising the principal part: returns
    D = diag(xi, -xi), B(t), C(t, xi) and M with M^{-1} A_hyp M = D + B + C."""
    if xi_norm == 0.0:
        raise ZeroDivisionError("preliminary transform undefined at xi = 0")

    def B(t):
        return 0.5j * float(model.b(t)) * np.ones((2, 2), dtype=complex)

    def C(t):
        return (float(model.m(t)) / (2.0 * xi_norm)
                * np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex))

    D = np.array([[xi_norm, 0.0], [0.0, -xi_norm]], dtype=complex)
    return PreliminaryTransform(D=D, B=B, C=C, M=M_ROT.astype(complex),
                                M_inv=M_ROT_INV.astype(complex))


def build_stage(model, k, config):
    """Construct the k-sweep hierarchy; k must leave one derivative order of
    headroom in the model's smoothness budget."""
    if k < 1:
        raise ValueError("at least one sweep is required")
    if k > model.budget - 1:
        raise UnsupportedOrderError(
            f"k={k} sweeps need a smoothness budget >= {k + 1}, model has {model.budget}")
    return DiagonalizationStage(model=model, config=config, k=k)


def min_zone_constant(stage):
    """Smallest sampled zone constant N with sup ||N_k - I|| <= 1/2 on the
    sampled zone (Neumann series then gives ||N_k^{-1}|| <= 2)."""
    for N in _ZONE_CANDIDATES:
        xis = np.geomspace(N * 1e-3, N * 1e2, _ZONE_N_XI)
        worst = 0.0
        for xi in xis:
            t_bnd = max(N / xi - 1.0, 0.0)
            for t in (t_bnd, 2.0 * t_bnd + 1.0, 8.0 * t_bnd + 8.0):
                dev = spectral_norm(stage.N_total(t, xi) - np.eye(2))
                worst = max(worst, dev)
        if worst <= 0.5:
            return float(N)
    raise ZoneConstantError("no sampled zone constant keeps ||N_k - I|| <= 1/2")


def free_phase(t, s, xi):
    """E_0(t,s,xi) = diag(e^{i(t-s)xi}, e^{-i(t-s)xi}), exactly unitary."""
    ph = np.exp(1j * (np.asarray(t, dtype=float) - s) * xi)
    E0 = np.zeros(np.shape(ph) + (2, 2), dtype=complex)
    E0[..., 0, 0] = ph
    E0[..., 1, 1] = np.conj(ph)
    return E0


@dataclass
class QResult:
    """One evaluation of the phase-conjugated propagator Q_k(t,s,xi)."""

    matrix: np.ndarray
    s: float
    t: float
    xi: float
    k: int
    path: str            # "series", or "limit" from q_limit
    series_depth: int
    C_total: float
    tail_bound: float


def _conjugated_generator(stage, taus, anchor, xi):
    G = stage.q_generator(taus, xi)
    phase = np.exp(-2j * (np.asarray(taus) - anchor) * xi)
    G[..., 0, 1] *= phase
    G[..., 1, 0] *= np.conj(phase)
    return G


@functools.cache
def _gauss_rule():
    """Gauss-Legendre nodes x and weights w on [-1, 1], and S[i, j] =
    int_{-1}^{x_i} l_j, the integral of the j-th Lagrange basis polynomial up
    to node i, from the nodes' exact Legendre transform; read-only.  Built on
    first use: the node solve pages in LAPACK, which costs about 1 MB of
    resident memory in a run that never reaches Q_k."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(_GAUSS_NODES)
    S = leg.legvander(x, _GAUSS_NODES) @ leg.legint(
        leg.legvander(x, _GAUSS_NODES - 1).T * w * (np.arange(_GAUSS_NODES) + 0.5)[:, None],
        lbnd=-1, axis=0)
    for a in (x, w, S):
        a.setflags(write=False)
    return x, w, S


def _panel_layout(s, t, xi):
    """q_propagator's panels on [s, t], their left ends and half-widths: the
    segments in which 1 + tau at most doubles, each cut into equal panels
    spanning at most _PANEL_PHASE of 2 xi tau."""
    n_seg = max(1, math.ceil(math.log2((1.0 + t) / (1.0 + s))))
    edges = np.minimum((1.0 + s) * 2.0 ** np.arange(n_seg + 1.0) - 1.0, t)
    edges[0], edges[-1] = s, t
    counts = np.maximum(1, np.ceil(2.0 * xi * np.diff(edges) / _PANEL_PHASE)).astype(int)
    lo = [np.linspace(a, b, c, endpoint=False) for a, b, c in zip(edges, edges[1:], counts)]
    return np.concatenate(lo), np.repeat(np.diff(edges) / (2.0 * counts), counts)


def _panel_series(stage, lo, hw, anchor, xi):
    """Each panel's Q_k over [lo, lo + 2 hw] less I by its own Peano-Baker
    series, (panels, 2, 2), its generator integral C_p, and the sum of the
    panels' first terms; _Q_CHUNK nodes at a time.  term_j(tau) = int_lo^tau
    i G term_{j-1} from term_0 = I, G term as 8 entrywise vector products."""
    x, w, S = _gauss_rule()
    D = np.empty((lo.size, 2, 2), dtype=complex)
    C = np.empty(lo.size)
    T = 0.0
    step = _Q_CHUNK // _GAUSS_NODES
    for a in range(0, lo.size, step):
        h = hw[a:a + step]
        taus = ((lo[a:a + step] + h)[:, None] + h[:, None] * x).ravel()
        G = _conjugated_generator(stage, taus, anchor, xi)
        C[a:a + step] = (_norm2(G).reshape(h.size, -1) @ w) * h
        G = G.transpose(1, 2, 0).reshape(2, 2, h.size, _GAUSS_NODES)
        Dp = np.zeros((2, 2, h.size), dtype=complex)
        term = np.eye(2)[:, :, None, None]
        for j in range(_Q_DEPTH):
            f = 1j * (G[:, :1] * term[:1] + G[:, 1:] * term[1:])
            Dp += (f @ w) * h
            term = (f @ S.T) * h[:, None]
            if j == 0:
                T = T + Dp.sum(axis=-1)
        D[a:a + step] = Dp.transpose(2, 0, 1)
    return D, C, T


def _ordered_product(D):
    """(I + D[n-1]) ... (I + D[0]) - I by a pairwise tree of (I + A)(I + B) - I
    = A + B + A B, in which small parts keep their precision."""
    while len(D) > 1:
        A, B = D[1::2], D[:-1:2]
        D = np.concatenate([A + B + A @ B, D[len(D) - len(D) % 2:]])
    return D[0]


def q_propagator(stage, s, t, xi, q0=None, anchor=None):
    """Q_k(t,s,xi) as the time-ordered product of the panels' propagators
    (module docstring).  Where their tail bounds sum above _Q_TOL, panels of
    generator integral C_p above a common cap split into pieces within it,
    for at most _Q_ROUNDS rounds.  C_total is the sum of the C_p.  `anchor`
    keeps the phase reference fixed when a long run is split into segments."""
    if t < s:
        raise ValueError("need t >= s")
    anchor = s if anchor is None else anchor
    q0 = np.eye(2, dtype=complex) if q0 is None else q0
    if t == s:
        return QResult(q0.copy(), s, t, xi, stage.k, "series", 0, 0.0, 0.0)

    lo, hw = _panel_layout(s, t, xi)
    D, C, T = _panel_series(stage, lo, hw, anchor, xi)
    fact = math.factorial(_Q_DEPTH + 1)
    for rounds in range(_Q_ROUNDS + 1):
        tail = float(np.sum(np.exp(C) * C ** (_Q_DEPTH + 1))) / fact
        if tail <= _Q_TOL:
            # first order before the rest, so I + D rounds as a term-by-term sum
            Q = (q0 + T @ q0) + (_ordered_product(D) - T) @ q0
            return QResult(Q, s, t, xi, stage.k, "series", _Q_DEPTH, float(C.sum()), tail)
        if rounds == _Q_ROUNDS:
            raise HorizonError(f"Q_k tail bound above {_Q_TOL:g} from s={s:g}", t=t, xi=xi)
        # pieces with C_p <= cap sum to at most C_total e^cap cap^8 / 9!
        cap = min(1.0, (_Q_TOL * fact / (math.e * C.sum())) ** (1.0 / _Q_DEPTH))
        n = np.maximum(1, np.ceil(C / cap)).astype(int)
        hw = np.repeat(hw / n, n)
        lo = np.repeat(lo, n) + 2.0 * hw * (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))
        D, C, new = np.repeat(D, n, axis=0), np.repeat(C, n), np.repeat(n > 1, n)
        D[new], C[new], _ = _panel_series(stage, lo[new], hw[new], anchor, xi)


def _diagonal_step(stage, s, t, xi, q0):
    """diag(e^{i int G_aa}) q0, the Q_k(t,s,xi) q0 of G's diagonal part, with
    tail bound e^{2C} int max(|G_12|, |G_21|) on its distance from Q_k q0 by
    Duhamel's formula; one panel a segment, as the phase moves no |G_ab|."""
    lo, hw = _panel_layout(s, t, 0.0)
    G = stage.q_generator(((lo + hw)[:, None] + hw[:, None] * _gauss_rule()[0]).ravel(), xi)
    w = (hw[:, None] * _gauss_rule()[1]).ravel()
    C, off = float(w @ _norm2(G)), float(w @ np.maximum(abs(G[:, 0, 1]), abs(G[:, 1, 0])))
    return QResult(np.exp(1j * np.einsum("n,naa->a", w, G))[:, None] * q0, s, t, xi,
                   stage.k, "series", 0, C, math.exp(2.0 * C) * off)


def q_limit(stage, s, xi, tol=1e-8, t_start=None, growth=2.0):
    """Q_k(inf,s,xi) by advancing t until successive amplifications differ by
    less than tol (Cauchy criterion on the convergent series).  A step whose
    generator is diagonal to within tol/100 (`_diagonal_step`) costs one
    panel instead of q_propagator's panels in proportion to the phase."""
    t = max(2.0 * s, s + 4.0 / max(xi, 1e-12)) if t_start is None else t_start
    res = q_propagator(stage, s, t, xi)
    Q, C_acc = res.matrix, res.C_total
    for _ in range(_Q_LIMIT_MAX_STEPS):
        t_next = t * growth
        seg = _diagonal_step(stage, t, t_next, xi, Q)
        if seg.tail_bound > 1e-2 * tol:
            seg = q_propagator(stage, t, t_next, xi, q0=Q, anchor=s)
        C_acc += seg.C_total
        if spectral_norm(seg.matrix - Q) < tol:
            return QResult(seg.matrix, s, math.inf, xi, stage.k, "limit",
                           res.series_depth, C_acc, seg.tail_bound)
        Q, t = seg.matrix, t_next
    raise HorizonError(f"Q_k did not settle within {_Q_LIMIT_MAX_STEPS} doublings", t=t, xi=xi)


def assemble_representation(stage, s, t, xi):
    """E(t,s,xi) = (lam(s)/lam(t)) M N_k(t) E_0(t,s) Q_k(t,s) N_k(s)^{-1} M^{-1};
    exact identity, provenance 'representation'."""
    if (1.0 + s) * xi < stage.config.N * (1.0 - 1e-12):
        raise ValueError("(s, xi) must lie in the oscillatory zone (boundary included)")
    Nk_s, Nk_t = stage.N_total(s, xi), stage.N_total(t, xi)
    for tau, Nk in ((s, Nk_s), (t, Nk_t)):
        if spectral_norm(Nk - np.eye(2)) >= 1.0:
            raise ZoneConstantError("N_k not safely invertible; raise the zone constant",
                                    t=tau, xi=xi)
    lam_ratio = float(stage.model.lam(s) / stage.model.lam(t))
    Nk_s_inv = _inv2(Nk_s)
    E0 = free_phase(t, s, xi)
    q = q_propagator(stage, s, t, xi)
    E = lam_ratio * (M_ROT @ Nk_t @ E0 @ q.matrix @ Nk_s_inv @ M_ROT_INV)
    return FundamentalMatrix(E, "representation")


def assemble_from_boundary(stage, t, xi, E_boundary):
    """Glued representation for small frequencies: the oscillatory-zone factor
    from the boundary time theta(|xi|) composed with the supplied slow-zone
    propagator E(theta, 0, xi)."""
    th = theta(stage.config, xi)
    if xi > stage.config.N or t < th:
        raise ValueError("need |xi| <= N and t >= theta(|xi|)")
    inner = assemble_representation(stage, th, t, xi).entries
    return FundamentalMatrix(inner @ np.asarray(E_boundary, dtype=complex), "representation")
