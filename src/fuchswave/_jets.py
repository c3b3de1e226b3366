"""Truncated Taylor-jet arithmetic (forward-mode derivatives in one variable).

A jet stores a function's value and its first `order` derivatives at a point,
as an array of shape (order+1, *point_shape).  Products use the Leibniz rule,
reciprocals/log/exp the standard convolution recurrences.  This is exact (no
finite-difference noise), which matters when recursions nest several
derivative levels.
"""

from __future__ import annotations

from math import comb

import numpy as np


class Jet:
    """Value plus t-derivatives up to a fixed order, vectorised over points."""

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = np.asarray(d)

    @property
    def order(self):
        return self.d.shape[0] - 1

    @classmethod
    def variable(cls, t, order):
        t = np.asarray(t, dtype=float)
        d = np.zeros((order + 1,) + t.shape)
        d[0] = t
        if order >= 1:
            d[1] = 1.0
        return cls(d)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.d + other.d)
        d = self.d.copy()
        d[0] = d[0] + other
        return Jet(d)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.d * other)
        n = self.order
        a, b = self.d, other.d
        out = np.zeros_like(a * b[:1])
        for k in range(n + 1):
            for j in range(k + 1):
                out[k] = out[k] + comb(k, j) * a[j] * b[k - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.d / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        n = self.order
        g = self.d
        out = np.zeros_like(g)
        out[0] = 1.0 / g[0]
        for k in range(1, n + 1):
            acc = sum(comb(k, j) * g[j] * out[k - j] for j in range(1, k + 1))
            out[k] = -acc / g[0]
        return Jet(out)

    def log(self):
        n = self.order
        g = self.d
        out = np.zeros_like(g)
        out[0] = np.log(g[0])
        for k in range(1, n + 1):
            acc = sum(comb(k - 1, j) * g[j] * out[k - j] for j in range(1, k))
            out[k] = (g[k] - acc) / g[0]
        return Jet(out)

    def exp(self):
        n = self.order
        g = self.d
        out = np.zeros_like(g)
        out[0] = np.exp(g[0])
        for k in range(1, n + 1):
            out[k] = sum(comb(k - 1, j) * out[j] * g[k - j] for j in range(k))
        return Jet(out)

    def power(self, alpha):
        """g**alpha for positive-valued g, via exp(alpha*log g)."""
        return (self.log() * alpha).exp()


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
