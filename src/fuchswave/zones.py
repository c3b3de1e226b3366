"""Extended-phase-space decomposition for per-frequency analysis.

A frequency-time point (t, |xi|) is slow/dissipative while (1+t)|xi| <= N and
oscillatory/hyperbolic afterwards.  The boundary curve is
theta(|xi|) = N/|xi| - 1.  Smooth cutoffs built from a mollified step blend
the two regimes into the micro-energy weight h(t, xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ZoneLabel(str, Enum):
    DISS = "diss"
    HYP_SMALL = "hyp_small"
    HYP_LARGE = "hyp_large"


def smoothstep_down(x):
    """C-infinity cutoff: 1 on [0,1], 0 on [2,inf), monotone decreasing.

    Built from f(y) = exp(-1/y): chi = f(2-x) / (f(2-x) + f(x-1)).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        a = np.where(x < 2.0, np.exp(-1.0 / np.maximum(2.0 - x, 1e-300)), 0.0)
        b = np.where(x > 1.0, np.exp(-1.0 / np.maximum(x - 1.0, 1e-300)), 0.0)
    out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, 0.0, a / np.where(a + b > 0, a + b, 1.0)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ZoneConfig:
    """Zone constant N of the boundary (1+t)|xi| = N."""

    N: float = 1.0

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("zone constant N must be positive")


def theta(config, xi_norm):
    """Boundary time of the slow zone: (1+theta)|xi| = N; +inf at xi = 0,
    clamped at 0 for |xi| >= N."""
    if xi_norm < 0:
        raise ValueError("xi_norm must be >= 0")
    if xi_norm == 0.0:
        return math.inf
    if xi_norm >= config.N:
        return 0.0
    return config.N / xi_norm - 1.0


def classify(config, t, xi_norm):
    """Zone membership with deterministic tie-breaking diss < hyp_small < hyp_large."""
    if t < 0 or xi_norm < 0:
        raise ValueError("t and xi_norm must be >= 0")
    if (1.0 + t) * xi_norm <= config.N:
        return ZoneLabel.DISS
    if xi_norm <= config.N:
        return ZoneLabel.HYP_SMALL
    return ZoneLabel.HYP_LARGE


def cutoffs(config, t, xi_norm):
    """(phi_diss, phi_hyp_small, phi_hyp_large); partition of unity by construction."""
    N = config.N
    low = smoothstep_down(np.asarray(xi_norm, dtype=float) / N)
    slow = smoothstep_down((1.0 + np.asarray(t, dtype=float)) * xi_norm / N)
    phi_diss = low * slow
    return phi_diss, low - phi_diss, 1.0 - low


def micro_weight(config, t, xi_norm):
    """Blended weight h(t,xi) = N/(1+t) * phi_diss + |xi| * (phi_s + phi_l)."""
    phi_diss, phi_s, phi_l = cutoffs(config, t, xi_norm)
    return config.N / (1.0 + np.asarray(t, dtype=float)) * phi_diss + xi_norm * (phi_s + phi_l)


def sharp_weight(config, t, xi_norm):
    """Unblended weight max(N/(1+t), |xi|): equals N/(1+t) up to the zone
    boundary and |xi| beyond it.  Continuous across theta(|xi|)."""
    return np.maximum(config.N / (1.0 + np.asarray(t, dtype=float)), xi_norm)


def theta_derivative(config, xi_norm, alpha):
    """Closed-form radial derivatives of theta on (0, N): d^a (N/xi - 1)."""
    if not 0 < xi_norm < config.N:
        raise ValueError("closed form valid on the open slow-frequency range")
    if alpha == 0:
        return config.N / xi_norm - 1.0
    return config.N * math.factorial(alpha) * (-1.0) ** alpha / xi_norm ** (alpha + 1)
