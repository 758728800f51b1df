"""Exception types shared across the package."""


class KolkinError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(KolkinError, ValueError):
    """Malformed structural input (non-square matrix, bad block data, ...)."""


class NotCanonicalForm(StructuralError):
    """Drift matrix is not in lower block-triangular canonical form."""


class HormanderViolation(StructuralError):
    """Kalman/controllability rank condition fails for (B, d)."""


class SingularCovariance(KolkinError, ValueError):
    """A covariance is non-finite, has a non-positive variance or no Cholesky factor."""


class EmptyInterval(KolkinError, ValueError):
    """A time interval (t, s) with s <= t was requested."""


class InvalidScale(KolkinError, ValueError):
    """Non-positive scale parameter for a reference Gaussian."""


class NumericalDivergence(KolkinError, ArithmeticError):
    """A quadrature produced a non-finite value.

    Carries the offending space-time point when known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DatumEvaluationError(KolkinError, ValueError):
    """Terminal datum or source returned a non-finite value at a node."""


class MissingDerivative(KolkinError, ValueError):
    """A norm estimate needs derivatives the supplied function lacks."""


class InvalidData(KolkinError, ValueError):
    """Fit input out of domain (non-positive values on a log scale, ...)."""


class IoError(KolkinError, OSError):
    """An output path could not be written."""
