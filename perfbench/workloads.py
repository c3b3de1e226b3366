"""Seeded input generators, one per workload.

A workload seed selects one of ``VARIANTS`` input variants; each variant is
a pure function of its index, so the same seed always gives the same config,
and the stored reference outputs under ``references/`` cover every variant.
The generators vary model parameters and data amplitudes but keep the
properties that set the amount of work (frequency support, horizons, grid
sizes, total and largest phase of the repcheck points) fixed, so run time
reflects the program rather than the draw.
"""

from __future__ import annotations

import math
import random

VARIANTS = 16

# CLI subcommand behind each workload
EXPERIMENT = {
    "scatter": "scatter",
    "repcheck": "repcheck",
    "sweep": "sweep",
    "spectral2d": "simulate",
}

# repcheck point seeds: the 20 points' total phase sum xi (t - s) sets the
# work, the largest single-point phase sets the largest Q_k grid and so the
# peak memory; both are held within 1% / 2% of these targets
REPCHECK_PHASE = 5000.0
REPCHECK_MAX_PHASE = 1100.0
# found by find_point_seed(variant); `python3 perfbench/workloads.py` reprints them
REPCHECK_POINT_SEEDS = (10543, 1000921, 2010522, 3096569, 4033008, 5016620,
                        6003492, 7056063, 8000767, 9020468, 10067465, 11003791,
                        12005150, 13006415, 14035812, 15001607)


def variant_of(seed):
    return seed % VARIANTS


def _u(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _bounded_model(rng, b0=2.0, m0=0.75):
    return {"family": "bounded_perturbation", "b0": b0, "m0": m0,
            "c1": _u(rng, 0.3, 0.6), "p1": _u(rng, 0.4, 0.6),
            "c2": _u(rng, 0.3, 0.6), "p2": _u(rng, 0.4, 0.6)}


def scatter(rng, variant):
    # ring support (0.1, 1.1) spans four octave bands of tens of modes each.
    # amp1/amp0 stays near the CLI default 0.7: below about 0.65 the early
    # residual transient (t = 2..4) breaks the residuals_decay trend test.
    model = _bounded_model(rng, m0=_u(rng, 0.7, 0.8))
    amp0 = _u(rng, 0.9, 1.1)
    return {"model": model,
            "data": {"kind": "ring", "center": 0.6, "width": 0.5,
                     "amp0": amp0, "amp1": round(amp0 * rng.uniform(0.75, 0.95), 4)},
            "times": {"t_final": 512.0}}


def repcheck_phases(point_seed):
    """Phases xi (t - s) of the 20 points run_repcheck draws from
    `point_seed` at N = 1: per point one uniform each for xi, s and t - s."""
    import numpy as np

    r = np.random.default_rng(point_seed).random(60)
    xi = np.exp(r[0::3] * math.log(8.0))
    return xi * np.exp(math.log(10.0) + r[2::3] * math.log(100.0))


def find_point_seed(variant):
    seed = variant * 1_000_000
    while True:
        phases = repcheck_phases(seed)
        if abs(phases.sum() / REPCHECK_PHASE - 1.0) < 0.01 and \
                abs(phases.max() / REPCHECK_MAX_PHASE - 1.0) < 0.02:
            return seed
        seed += 1


def repcheck(rng, variant):
    model = _bounded_model(rng)
    model["ell"] = 6
    return {"model": model, "zone": {"N": 1.0}, "steps": 2,
            "seed": REPCHECK_POINT_SEEDS[variant]}


def sweep(rng, variant):
    """One scale-invariant cell per qualitative row of the rate table.  A
    cell's integration cost falls with b0 (about 3% per 0.1), so each b0
    range is narrow."""
    b0 = 2.0 + rng.randrange(3) / 8.0           # double root needs exact arithmetic
    double = (b0, (b0 - 1.0) ** 2 / 4.0, 1.0)
    b0 = _u(rng, 2.2, 2.45, 3)
    # complex pairs whose norm oscillation period fits the fit window; slower
    # pairs hit the known finite-window fit bias (acceptance criterion 2)
    complex_pair = (b0, round((b0 - 1.0) ** 2 / 4.0 + _u(rng, 6.0, 9.0, 3), 4), 1.0)
    b0 = _u(rng, 2.6, 2.85, 3)
    lo, hi = b0 * (b0 - 2.0) / 4.0, (b0 - 1.0) ** 2 / 4.0
    real_small = (b0, round(lo + (hi - lo) * rng.uniform(0.25, 0.75), 4), 1.0)
    b0 = _u(rng, 2.6, 2.85, 3)
    real_large = (b0, round(b0 * (b0 - 2.0) / 4.0 * rng.uniform(0.0, 0.5), 4), 1.0)
    return {"sweep_cells": [list(c) for c in (complex_pair, double, real_small,
                                              real_large)],
            "xi": 1e-5, "times": {"t_final": 1000.0}}


def spectral2d(rng, variant):
    # ring support (1.5, 2.5) stays inside one octave band
    return {"model": _bounded_model(rng, m0=_u(rng, 0.6, 0.9)),
            "grid": {"n_dim": 2, "points_per_dim": 512, "box_length": 400.0},
            "data": {"kind": "ring", "center": 2.0, "width": 0.5,
                     "amp0": _u(rng, 0.5, 1.5), "amp1": _u(rng, 0.3, 1.0)},
            "times": {"t_final": 150.0, "checkpoints": 41}}


GENERATORS = {"scatter": scatter, "repcheck": repcheck, "sweep": sweep,
              "spectral2d": spectral2d}


def make_config(workload, variant):
    """The experiment config of one workload variant (schema-1 JSON dict)."""
    rng = random.Random(f"{workload}:{variant}")
    cfg = GENERATORS[workload](rng, variant)
    cfg["schema"] = 1
    cfg["experiment"] = EXPERIMENT[workload]
    return cfg


if __name__ == "__main__":
    print(tuple(find_point_seed(v) for v in range(VARIANTS)))
