"""Numerical laboratory for damped Klein-Gordon equations with
time-decaying dissipation and mass coefficients.  The package root imports
nothing, so each module loads only the modules whose code it runs."""

__version__ = "0.1.0"
