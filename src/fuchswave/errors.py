"""The typed errors of fuchswave; this module imports nothing of the package.
Each keeps its built-in base: ValueError for input outside a validated range,
RuntimeError for a computation that did not finish.  StiffnessError, and the
HorizonError and ZoneConstantError of the diagonalization, carry (t, xi)."""


class FuchswaveError(Exception):
    """A message, and the point (t, xi) where it arose when one is known."""

    def __init__(self, message, t=None, xi=None):
        super().__init__(message, t, xi)  # all three, so copies and pickles rebuild it
        self.t, self.xi = t, xi

    def __str__(self):
        message, t, xi = self.args
        return str(message) if t is None and xi is None else f"{message} (t={t}, xi={xi})"


class ConfigError(FuchswaveError, ValueError):
    """An experiment config is malformed, or outside the experiment's range."""


class InvalidWindowError(FuchswaveError, ValueError):
    """A decay-fit window holds too few samples, or non-positive values."""


class RegimeUnsupportedError(FuchswaveError, ValueError):
    """The (b0, m0, sigma) configuration is outside the applicable regime."""


class SeriesRangeError(FuchswaveError, ValueError):
    """Hankel's expansion was asked for outside its validated range."""


class SupportError(FuchswaveError, ValueError):
    """Initial data violates a support precondition."""


class UnsupportedOrderError(FuchswaveError, ValueError):
    """Requested derivative order exceeds the model's smoothness budget."""


class DichotomyViolationError(FuchswaveError, RuntimeError):
    """Real parts of an exponent pair are not uniformly separated."""


class HorizonError(FuchswaveError, RuntimeError):
    """A construction or limit did not settle within the horizon it was given."""


class NeedsLargerStartError(FuchswaveError, RuntimeError):
    """The Picard map does not contract from the requested start time."""


class ResolutionError(FuchswaveError, RuntimeError):
    """Frequency grid too coarse for a stable quadrature or for the slow zone."""


class StiffnessError(FuchswaveError, RuntimeError):
    """An integration stopped short at checkpoint t; xi is the solve's largest frequency."""


class ZoneConstantError(FuchswaveError, RuntimeError):
    """N_k is not safely invertible at the requested point."""
