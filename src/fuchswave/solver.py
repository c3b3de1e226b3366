"""FFT-based spectral solver on a periodic box for end-to-end runs.

Initial data is synthesised from a radial frequency profile, every retained
mode is evolved with the reference oracle (grouped by unique |xi|), and the
norms of (1+t)^{-1} u, grad u, u_t are evaluated honestly in physical space.
The mode amplitudes are scaled so that box norms reproduce the continuum
norms of the radial profile, making the spectral runs directly comparable to
the radial-quadrature experiment layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modal
from .estimates import ResolutionError


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

    @property
    def dx(self):
        return self.box_length / self.points_per_dim

    def axis_wavenumbers(self):
        return 2.0 * math.pi * np.fft.fftfreq(self.points_per_dim, d=self.dx)

    def xi_mesh(self):
        k = self.axis_wavenumbers()
        axes = np.meshgrid(*([k] * self.n_dim), indexing="ij")
        return axes, np.sqrt(sum(a ** 2 for a in axes))

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
    """Forward transform of radial initial data, oracle evolution of every
    retained frequency, inverse transform and physical-space norms at the
    checkpoint times."""
    times = np.asarray(times, dtype=float)
    warnings = []
    warn = grid.resolution_warning(config, float(times[-1]))
    if warn:
        if strict:
            raise ResolutionError(warn)
        warnings.append(warn)

    axes, xi = grid.xi_mesh()
    scale = (grid.points_per_dim / grid.box_length) ** grid.n_dim
    uniq, inverse = np.unique(np.round(xi.ravel(), 12), return_inverse=True)
    prof = data_spec.profile(uniq)
    u_modes, v_modes = modal.evolve_state(
        model, uniq, data_spec.amp0 * prof, data_spec.amp1 * prof, times, rtol=rtol)

    dV = grid.dx ** grid.n_dim
    shape = xi.shape
    out = SimulationTrace(times=times,
                          u_over_1pt=np.empty(times.size),
                          grad=np.empty(times.size),
                          ut=np.empty(times.size),
                          energy=np.empty(times.size),
                          warnings=warnings)
    for i, t in enumerate(times):
        u_hat = (u_modes[i][inverse.ravel()] * scale).reshape(shape)
        v_hat = (v_modes[i][inverse.ravel()] * scale).reshape(shape)
        u_phys = np.fft.ifftn(u_hat)
        ut_phys = np.fft.ifftn(v_hat)
        grad_sq = 0.0
        for a in axes:
            da = np.fft.ifftn(1j * a * u_hat)
            grad_sq += np.sum(np.abs(da) ** 2) * dV
        u_sq = np.sum(np.abs(u_phys) ** 2) * dV
        ut_sq = np.sum(np.abs(ut_phys) ** 2) * dV
        out.u_over_1pt[i] = math.sqrt(u_sq) / (1.0 + t)
        out.grad[i] = math.sqrt(grad_sq)
        out.ut[i] = math.sqrt(ut_sq)
        out.energy[i] = 0.5 * (grad_sq + ut_sq)
    return out

