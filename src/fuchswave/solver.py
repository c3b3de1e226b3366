"""Spectral solver on a periodic box for end-to-end runs.

Initial data is synthesised from a radial frequency profile and every
retained mode is evolved by modal.evolve_state (grouped by unique |xi|,
shells where the profile vanishes left out; a band of many shells is dealt
into interleaved shares solved on every usable CPU).
The norms of (1+t)^{-1} u, grad u, u_t are box L2 norms, taken by Parseval
from the mode amplitudes: one weighted sum over the |xi| shells for all
checkpoints at once.  The mode amplitudes are scaled so that box norms
reproduce the continuum norms of the radial profile, making the spectral runs
directly comparable to the radial-quadrature experiment layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import modal
from .errors import ResolutionError


@dataclass(frozen=True)
class Grid:
    n_dim: int
    points_per_dim: int
    box_length: float

    def __post_init__(self):
        if self.n_dim not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        p = self.points_per_dim
        if p < 2 or p & (p - 1):
            raise ValueError("points_per_dim must be a power of two")
        if self.box_length <= 0:
            raise ValueError("box_length must be positive")

    def xi_mesh(self):
        """|xi| on the box's discrete Fourier mesh, 2 pi m / L per axis with
        integer m in [-p/2, p/2), in sorted rather than FFT order."""
        p = self.points_per_dim
        k = 2.0 * math.pi * (np.arange(-(p // 2), p // 2) * (1.0 / self.box_length))
        return np.sqrt(reduce(np.add.outer, [k ** 2] * self.n_dim))

    def resolution_warning(self, config, t_final):
        """The coarsest nonzero mode must still resolve the slow zone at the
        final time: 2 pi / L <= N / (1 + t_final)."""
        dmin = 2.0 * math.pi / self.box_length
        bound = config.N / (1.0 + t_final)
        if dmin > bound:
            return (f"frequency spacing {dmin:.3e} exceeds N/(1+t_final) = "
                    f"{bound:.3e}; slow-zone truncation is unresolved")
        return None


@dataclass
class SimulationTrace:
    times: np.ndarray
    u_over_1pt: np.ndarray
    grad: np.ndarray
    ut: np.ndarray
    energy: np.ndarray
    warnings: list


def simulate_fields(model, config, grid, data_spec, times, rtol=1e-9,
                    strict=False):
    """Radial initial data on the box's modes, evolve_state on every
    distinct |xi| and the box L2 norms at the checkpoint times."""
    times = np.asarray(times, dtype=float)
    warnings = []
    warn = grid.resolution_warning(config, float(times[-1]))
    if warn:
        if strict:
            raise ResolutionError(warn)
        warnings.append(warn)

    uniq, counts = modal.sorted_distinct(np.round(grid.xi_mesh().ravel(), 12),
                                         return_counts=True)
    prof = data_spec.profile(uniq)
    # a shell with zero data stays zero and adds nothing to a norm
    live = prof != 0.0
    uniq, counts, prof = uniq[live], counts[live], prof[live]
    u_modes, v_modes = modal.evolve_state(
        model, uniq, data_spec.amp0 * prof, data_spec.amp1 * prof, times, rtol=rtol)

    # Parseval: the box field is ifftn (1/p^n) of the amplitudes scaled by
    # (p/L)^n, summed with cell volume (L/p)^n, so each mode of a shell adds
    # |amplitude|^2 / L^n to a squared box norm
    w = counts / grid.box_length ** grid.n_dim
    u_abs2 = np.abs(u_modes) ** 2
    u_sq = u_abs2 @ w
    grad_sq = u_abs2 @ (w * uniq ** 2)
    ut_sq = np.abs(v_modes) ** 2 @ w
    return SimulationTrace(times=times, u_over_1pt=np.sqrt(u_sq) / (1.0 + times),
                           grad=np.sqrt(grad_sq), ut=np.sqrt(ut_sq),
                           energy=0.5 * (grad_sq + ut_sq), warnings=warnings)
