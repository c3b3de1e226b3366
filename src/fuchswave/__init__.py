"""Numerical laboratory for damped Klein-Gordon equations with
time-decaying dissipation and mass coefficients.  The package root imports
no module of its own, so each module loads only the modules whose code it
runs.  It caps BLAS and OpenMP at one thread per process unless the
environment sets the variables below, since the program forks its work
(modal._fork_map); the caps hold where numpy loads after this import."""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
