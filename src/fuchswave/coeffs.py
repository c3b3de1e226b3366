"""Coefficient families for u_tt - Lap(u) + b(t)u_t + m(t)u = 0.

All families share the leading-order structure b(t) ~ b0/(1+t),
m(t) ~ m0/(1+t)^2 (non-effective damping and mass).  The module provides
derivatives up to a declared smoothness order, the decay factor
lambda(t) = exp(0.5*int_0^t b), hypothesis verification on finite horizons,
and the classifier of the low-frequency exponents mu+-.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

PURE = "pure_scale_invariant"
BOUNDED = "bounded_perturbation"
LOG = "log_perturbation"
TABULATED = "tabulated"

_FAMILIES = (PURE, BOUNDED, LOG, TABULATED)

# Fig.-1 cases for the roots of mu^2 + (b0+1)mu + (b0+m0) = 0
COMPLEX_PAIR = "complex_pair"
DOUBLE_ROOT = "double_root"
REAL_SMALL = "real_small_muplus"
REAL_LARGE = "real_large_muplus"

# check_hypotheses: log-spaced sample points per decade of the horizon, the
# highest derivative order sampled (capped by the model's budget), and the
# bound on the [T/2, T] tail integrals
_SAMPLES_PER_DECADE = 8
_HYP1_MAX_ORDER = 4
_HYP2_TAIL_TOL = 1e-3
# a cubic spline has exact derivatives up to this order only
_TABLE_MAX_ORDER = 3


class UnsupportedOrderError(ValueError):
    """Requested derivative order exceeds the model's smoothness budget."""


class RegimeUnsupportedError(ValueError):
    """The (b0, m0, sigma) configuration is outside the applicable regime."""


@dataclass(frozen=True, eq=False)
class TabulatedCoefficient:
    """Cubic-spline interpolant of a two-column (t, value) table, defined
    between the first and the last node only."""

    t: tuple
    values: tuple
    spline: CubicSpline = field(repr=False, default=None)
    # per table interval, the spline's four coefficients in ascending powers
    pieces: tuple = field(repr=False, default=None)

    @classmethod
    def from_columns(cls, t, values):
        t = np.asarray(t, dtype=float)
        v = np.asarray(values, dtype=float)
        spline = CubicSpline(t, v)
        return cls(tuple(t.tolist()), tuple(v), spline,
                   tuple(map(tuple, spline.c[::-1].T.tolist())))

    def __call__(self, t, order=0):
        """The spline, or its exact derivative of the given order, at t.  The
        value at a float t is a float, computed as scipy's PPoly computes it,
        bit for bit: piece i with t[i] <= t < t[i+1] (the last piece at the
        last node), summed in ascending powers of s = t - t[i]."""
        if order == 0 and isinstance(t, float):
            nodes = self.t
            if t > nodes[-1] or t < nodes[0]:
                self._check_span(t)
            i = min(bisect_right(nodes, t), len(nodes) - 1) - 1
            s = t - nodes[i]
            value, power = 0.0, 1.0
            for c in self.pieces[i]:
                value = value + c * power
                power *= s
            return value
        self._check_span(t)
        return self.spline(t, order)

    def integral(self, t):
        """int_0^t of the spline, exact (antiderivative of the cubic pieces)."""
        self._check_span(t)
        self._check_span(0.0)
        anti = self.spline.antiderivative()
        return anti(t) - anti(0.0)

    def _check_span(self, t):
        t = np.asarray(t, dtype=float)
        first, last = self.t[0], self.t[-1]
        if t.size and (t.max() > last or t.min() < first):
            bad = t.max() if t.max() > last else t.min()
            raise ValueError(
                f"t = {bad:g} lies outside the table's nodes, first {first:g}, "
                f"last {last:g}; a tabulated coefficient does not extrapolate")


@dataclass(frozen=True, eq=False)
class CoefficientModel:
    """Evaluable (b, m) pair with parameters (b0, m0, sigma) and a family tag.

    bounded_perturbation adds c_j*(1+t)^(-p_j) inside the h_j slots of
    b = (b0 + h1)/(1+t), m = (m0 + h2)/(1+t)^2.  log_perturbation adds
    b1/((e+t) ln^gamma(e+t)) and m1/((e+t)^2 ln^gamma(e+t)) with
    gamma in (1/2, 1].  tabulated takes b, m from two-column tables.
    """

    b0: float = 0.0
    m0: float = 0.0
    sigma: float = 1.0
    family: str = PURE
    ell: int = 8
    # bounded_perturbation parameters: h_j(t) = c_j * (1+t)^(-p_j)
    c1: float = 0.0
    p1: float = 0.5
    c2: float = 0.0
    p2: float = 0.5
    # log_perturbation parameters
    b1: float = 0.0
    m1: float = 0.0
    gamma: float = 1.0
    b_table: TabulatedCoefficient | None = None
    m_table: TabulatedCoefficient | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown coefficient family {self.family!r}")
        if self.family == LOG and not (0.5 < self.gamma <= 1.0):
            raise ValueError("log_perturbation requires gamma in (1/2, 1]")
        if not (1.0 <= self.sigma <= 2.0):
            raise ValueError("sigma must lie in [1, 2]")
        if self.ell < 1:
            raise ValueError("smoothness order ell must be >= 1")
        if self.family == TABULATED:
            if self.b_table is None or self.m_table is None:
                raise ValueError("tabulated family needs b_table and m_table")
            # reject effectively-damped tables: (1+t)b must stay bounded
            tt = np.asarray(self.b_table.t)
            vals = np.abs((1.0 + tt) * np.asarray(self.b_table.values))
            if tt.size >= 8:
                head = vals[: max(tt.size // 4, 2)].max()
                if vals[-1] > max(3.0 * head, head + 2.0):
                    raise ValueError("(1+t)*b(t) grows along the table; "
                                     "effective dissipation is out of scope")

    # -- point evaluation ---------------------------------------------------

    def b(self, t):
        return self.kernel()(t)[0]

    def m(self, t):
        return self.kernel()(t)[1]

    def kernel(self):
        """t -> (b(t), m(t)) from the family's one formula, its constants bound
        once: the coefficient call an ODE right-hand side makes per step.  A
        float time t > -1 runs on Python floats with math.log, several times
        cheaper than a 0-d array; any other t, and a float whose arithmetic
        overflows, runs on a float array with np.log, so both give the same
        nan/inf (at t <= -1 a float power of 1+t would turn complex or divide
        by zero).  The tabulated family's splines have a float path of their own."""
        pair = self._formula()

        def kernel(t):
            if isinstance(t, float) and t > -1.0:
                try:
                    return pair(float(t), math.log)
                except OverflowError:
                    pass
            return pair(np.asarray(t, dtype=float), np.log)

        return kernel

    def _formula(self):
        """The family's (b, m) as one function of (t, log)."""
        b0, m0 = self.b0, self.m0
        if self.family == PURE:
            def pair(t, log):
                w = 1.0 + t
                return b0 / w, m0 / w ** 2
        elif self.family == BOUNDED:
            c1, q1, c2, q2 = self.c1, -self.p1, self.c2, -self.p2

            def pair(t, log):
                w = 1.0 + t
                return (b0 + c1 * w ** q1) / w, (m0 + c2 * w ** q2) / w ** 2
        elif self.family == LOG:
            b1, m1, gamma = self.b1, self.m1, self.gamma

            def pair(t, log):
                w, e = 1.0 + t, math.e + t
                log_gamma = log(e) ** gamma
                return b0 / w + b1 / (e * log_gamma), m0 / w ** 2 + m1 / (e ** 2 * log_gamma)
        else:
            b_table, m_table = self.b_table, self.m_table

            def pair(t, log):
                return b_table(t), m_table(t)
        return pair

    # -- derivative jets ----------------------------------------------------

    def b_jet(self, t, order):
        """[b(t), b'(t), ..., b^(order)(t)], shape (order+1, *t.shape)."""
        self._check_order(order)
        t = np.asarray(t, dtype=float)
        if self.family == PURE:
            return falling_power_jet(t, -1.0, self.b0, order)
        if self.family == BOUNDED:
            return (falling_power_jet(t, -1.0, self.b0, order)
                    + falling_power_jet(t, -1.0 - self.p1, self.c1, order))
        if self.family == LOG:
            return (falling_power_jet(t, -1.0, self.b0, order)
                    + self._log_term_jet(t, order, self.b1, 1))
        return self._table_jet(self.b_table, t, order)

    def m_jet(self, t, order):
        self._check_order(order)
        t = np.asarray(t, dtype=float)
        if self.family == PURE:
            return falling_power_jet(t, -2.0, self.m0, order)
        if self.family == BOUNDED:
            return (falling_power_jet(t, -2.0, self.m0, order)
                    + falling_power_jet(t, -2.0 - self.p2, self.c2, order))
        if self.family == LOG:
            return (falling_power_jet(t, -2.0, self.m0, order)
                    + self._log_term_jet(t, order, self.m1, 2))
        return self._table_jet(self.m_table, t, order)

    @property
    def budget(self):
        """Highest derivative order the model supplies: ell, capped for the
        tabulated family at the cubic spline's exact derivatives."""
        return min(self.ell, _TABLE_MAX_ORDER) if self.family == TABULATED else self.ell

    def _check_order(self, order):
        if order > self.budget:
            raise UnsupportedOrderError(
                f"derivative order {order} exceeds the smoothness budget {self.budget} "
                f"(ell={self.ell}, family {self.family})")

    def _log_term_jet(self, t, order, amp, power):
        # f = amp (e+t)^-power L^-gamma with L = ln(e+t) has the derivatives
        # f^(k) = (e+t)^(-power-k) sum_j c[k, j] L^(-gamma-j), where c[0, 0] = amp
        # and c[k+1, j] = -(power+k) c[k, j] - (gamma+j-1) c[k, j-1]
        base = math.e + t
        inv_log = 1.0 / np.log(base)
        c = np.array([amp])
        out = np.empty((order + 1,) + t.shape)
        for k in range(order + 1):
            out[k] = base ** (-power - k) * inv_log ** self.gamma * np.polyval(c[::-1], inv_log)
            c = (-(power + k) * np.append(c, 0.0)
                 - (self.gamma + np.arange(-1.0, k + 1)) * np.append(0.0, c))
        return out

    @staticmethod
    def _table_jet(table, t, order):
        return np.stack([table(t, k) for k in range(order + 1)])

    def b_derivative(self, t, order):
        return self.b_jet(t, order)[order]

    def m_derivative(self, t, order):
        return self.m_jet(t, order)[order]

    # -- decay factor lambda(t) = exp(0.5 * int_0^t b) ----------------------

    def integral_b(self, t):
        """int_0^t b(tau) dtau, closed form where the family admits one."""
        t = np.asarray(t, dtype=float)
        if self.family == PURE:
            return self.b0 * np.log1p(t)
        if self.family == BOUNDED:
            return self.b0 * np.log1p(t) + self.c1 * (1.0 - (1.0 + t) ** (-self.p1)) / self.p1
        if self.family == LOG:
            L = np.log(math.e + t)
            if self.gamma == 1.0:
                corr = np.log(L)  # ln ln(e+t), vanishes at t=0
            else:
                corr = (L ** (1.0 - self.gamma) - 1.0) / (1.0 - self.gamma)
            return self.b0 * np.log1p(t) + self.b1 * corr
        return self.b_table.integral(t)

    def lam(self, t):
        return np.exp(0.5 * self.integral_b(t))

    # -- (de)serialization ---------------------------------------------------

    def to_json(self):
        d = {"family": self.family, "b0": self.b0, "m0": self.m0,
             "sigma": self.sigma, "ell": self.ell}
        if self.family == BOUNDED:
            d.update(c1=self.c1, p1=self.p1, c2=self.c2, p2=self.p2)
        elif self.family == LOG:
            d.update(b1=self.b1, m1=self.m1, gamma=self.gamma)
        elif self.family == TABULATED:
            d.update(b_table={"t": list(self.b_table.t), "values": list(self.b_table.values)},
                     m_table={"t": list(self.m_table.t), "values": list(self.m_table.values)})
        return json.dumps(d)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text) if isinstance(text, str) else dict(text)
        if d.get("family") == TABULATED:
            d["b_table"] = TabulatedCoefficient.from_columns(**d["b_table"])
            d["m_table"] = TabulatedCoefficient.from_columns(**d["m_table"])
        return cls(**d)


def falling_power_jet(t, alpha, coeff, order):
    """Derivatives of coeff*(1+t)**alpha, closed form.

    Returns an array of shape (order+1, *t.shape).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((order + 1,) + t.shape)
    base = 1.0 + t
    fac = coeff
    for k in range(order + 1):
        out[k] = fac * base ** (alpha - k)
        fac *= alpha - k
    return out


@dataclass(frozen=True)
class RegimeClassification:
    """Roots mu+- of mu^2 + (b0+1)mu + (b0+m0) = 0 and the four-way case split."""

    mu_plus: complex
    mu_minus: complex
    case: str
    dominant_exponent: float
    distinct_eigenvalues: bool   # 4 m0 != (b0-1)^2: fundamental-solution bound (sigma = 1)
    real_distinct: bool          # 4 m0 <  (b0-1)^2: fundamental-solution bound (sigma > 1)
    lambda_dominated: bool       # b0(b0-2) < 4 m0: ||E|| <= lambda(s)/lambda(t) in the slow zone


def classify_regime(model_or_b0, m0=None):
    if m0 is None:
        b0, m0 = model_or_b0.b0, model_or_b0.m0
    else:
        b0 = model_or_b0
    disc = (b0 - 1.0) ** 2 / 4.0 - m0
    half = -(b0 + 1.0) / 2.0
    if 4.0 * m0 > (b0 - 1.0) ** 2:
        root = 1j * math.sqrt(-disc)
        case = COMPLEX_PAIR
    else:
        root = math.sqrt(disc)
        if 4.0 * m0 == (b0 - 1.0) ** 2:
            case = DOUBLE_ROOT
        elif 4.0 * m0 >= b0 * (b0 - 2.0):
            case = REAL_SMALL  # boundary equality goes to the side the energy estimate admits
        else:
            case = REAL_LARGE
    mu_plus = half + root
    mu_minus = half - root
    return RegimeClassification(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        case=case,
        dominant_exponent=max(mu_plus.real, -b0 / 2.0),
        distinct_eigenvalues=4.0 * m0 != (b0 - 1.0) ** 2,
        real_distinct=4.0 * m0 < (b0 - 1.0) ** 2,
        lambda_dominated=b0 * (b0 - 2.0) < 4.0 * m0,
    )


def predicted_decay(model, zone):
    """Table exponent for ||E(t,s,.)||: Re mu+ in the slow (dissipative) zone,
    -b0/2 in the oscillatory (hyperbolic) zone."""
    zone = getattr(zone, "value", zone)
    cls = classify_regime(model)
    if model.sigma > 1.0 and not cls.real_distinct:
        raise RegimeUnsupportedError(
            "sigma > 1 requires 4*m0 < (b0-1)^2; configuration not covered")
    if zone == "diss":
        return cls.mu_plus.real
    if zone in ("hyp_small", "hyp_large", "hyp"):
        return -model.b0 / 2.0
    raise ValueError(f"unknown zone label {zone!r}")


@dataclass
class HypothesisReport:
    """Finite-horizon numerical audit of the two standing hypotheses."""

    horizon: float
    sigma: float
    hyp1_constants: list          # per k: sampled sup of weighted |d^k b|, |d^k m|
    hyp1_pass: bool
    integral_b: float             # int_1^T |(1+t) b - b0|^sigma dt/t
    integral_m: float             # int_1^T |(1+t)^2 m - m0|^sigma dt/t
    tail_b: float                 # same integrand over [T/2, T]
    tail_m: float
    hyp2_pass: bool
    tail_tol: float


def check_hypotheses(model, T, sigma=None):
    """Sample the sup bounds of Hyp.-1 type and the sigma-integrals of
    Hyp.-2 type on [1, T].  'pass' is a bounded/Cauchy verdict at the given
    horizon: the asymptotic conditions cannot be decided numerically.
    """
    if T <= 1.0:
        raise ValueError("horizon T must exceed 1")
    sigma = model.sigma if sigma is None else float(sigma)
    k_max = min(model.budget, _HYP1_MAX_ORDER)

    # sup-bound sampling saturates at 1e12 to avoid overflow in the weights;
    # the sigma-integrals below use the full horizon via the log substitution
    T1 = min(T, 1e12)
    decades = max(1, int(math.ceil(math.log10(T1))))
    grid = np.logspace(0.0, math.log10(T1), decades * _SAMPLES_PER_DECADE + 1)
    constants = []
    hyp1_ok = True
    for k in range(k_max + 1):
        bk = np.abs(model.b_derivative(grid, k)) * (1.0 + grid) ** (k + 1)
        mk = np.abs(model.m_derivative(grid, k)) * (1.0 + grid) ** (k + 2)
        constants.append({"k": k, "sup_b": float(bk.max()), "sup_m": float(mk.max())})
        # bounded means no growth trend: the last decade must not dominate
        n_tail = _SAMPLES_PER_DECADE + 1
        for arr in (bk, mk):
            head = arr[:-n_tail].max() if arr.size > n_tail else arr.max()
            if arr[-n_tail:].max() > 1.05 * head + 1e-12:
                hyp1_ok = False

    def sig_int(weighted, nodes, lo, hi):
        # integrate |weighted(t)|^sigma dt/t on [lo, hi] via x = ln t
        f = lambda x: abs(float(weighted(math.exp(x)))) ** sigma
        edges = np.log(np.r_[lo, nodes[(nodes > lo) & (nodes < hi)], hi])
        eps = 1e-12 / (edges.size - 1)
        quad_on = lambda a, b: quad(f, a, b, limit=400, epsabs=eps, epsrel=1e-9)[0]
        if edges.size == 2:
            return quad_on(*edges)
        # a spline's deviation has a kink at every node and, in some intervals,
        # a sign change inside: Gauss-Legendre rules of 8 and 16 nodes on every
        # table interval at once, and one quad on each interval where they
        # disagree by more than the tolerance
        half = 0.5 * np.diff(edges)[:, None]
        g8, g16 = (np.sum(half * w * np.abs(weighted(np.exp(edges[:-1, None] + half * (1.0 + x))))
                          ** sigma, axis=1)
                   for x, w in map(np.polynomial.legendre.leggauss, (8, 16)))
        bad = np.abs(g16 - g8) > np.maximum(eps, 1e-9 * np.abs(g16))
        return float(g16[~bad].sum()) + sum(map(quad_on, edges[:-1][bad], edges[1:][bad]))

    # weighted deviations (1+t)b - b0 and (1+t)^2 m - m0; these vanish
    # identically for the scale-invariant family
    if model.family == PURE:
        wb = wm = lambda t: 0.0
    else:
        coefficients = model.kernel()
        wb = lambda t: (1.0 + t) * coefficients(t)[0] - model.b0
        wm = lambda t: (1.0 + t) ** 2 * coefficients(t)[1] - model.m0
    nb, nm = ((np.asarray(model.b_table.t), np.asarray(model.m_table.t))
              if model.family == TABULATED else (np.empty(0), np.empty(0)))
    ib = sig_int(wb, nb, 1.0, T)
    im = sig_int(wm, nm, 1.0, T)
    tb = sig_int(wb, nb, T / 2.0, T)
    tm = sig_int(wm, nm, T / 2.0, T)
    hyp2_ok = tb < _HYP2_TAIL_TOL and tm < _HYP2_TAIL_TOL

    return HypothesisReport(
        horizon=float(T), sigma=sigma, hyp1_constants=constants, hyp1_pass=hyp1_ok,
        integral_b=ib, integral_m=im, tail_b=tb, tail_m=tm,
        hyp2_pass=hyp2_ok, tail_tol=_HYP2_TAIL_TOL,
    )


def example_bounded(b0, m0, c1=1.0, p1=0.5, c2=1.0, p2=0.5, **kw):
    """Bounded-perturbation instance with integrable power-decay h_j."""
    return CoefficientModel(b0=b0, m0=m0, family=BOUNDED, c1=c1, p1=p1, c2=c2, p2=p2, **kw)


def example_log(b0, m0, b1=1.0, m1=1.0, gamma=1.0, sigma=1.5, **kw):
    """Logarithmic-perturbation instance (integrable only in the L^sigma sense)."""
    return CoefficientModel(b0=b0, m0=m0, family=LOG, b1=b1, m1=m1, gamma=gamma, sigma=sigma, **kw)
