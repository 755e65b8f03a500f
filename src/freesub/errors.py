"""Typed exceptions shared across the package.

Every error the package raises is a FreesubError.  A rejected argument
(a value, size, type or name) raises BadParams, also a ValueError; a
point outside the analytic domain raises DomainError; the rest name a
numerical failure.  The Monte Carlo LAPACK wrappers alone raise
numpy.linalg.LinAlgError, as numpy.linalg.inv does.
"""


class FreesubError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FreesubError):
    """An argument or a computed point lies outside the analytic domain.

    Raised for non-finite points, points on a quadrature node, and a
    subordination function that left the upper half plane.
    """


class ZeroTransform(FreesubError):
    """A Cauchy transform evaluated to ~0 where that is impossible.

    Signals corrupted upstream data (a transform of a genuine probability
    measure cannot vanish on its domain).
    """


class NonPositiveDensity(FreesubError):
    """Density recovery produced significantly negative values.

    Usually means a wrong square-root branch or an invalid transform was
    fed to the inversion.
    """


class BadParams(FreesubError, ValueError):
    """An argument's value, type, size or name breaks its contract."""


class NoConvergence(FreesubError):
    """An iterative solver exhausted its budget.

    Attributes
    ----------
    iterations : int
        Iterations performed.
    residual : float
        Last observed residual.
    point : object
        The evaluation point that failed (z, b, target, ...), if known.
    """

    def __init__(self, message, iterations=None, residual=None, point=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.point = point


class DegenerateTransform(FreesubError):
    """The circle transform is constant on the disk (Haar-type measure).

    Any point solves the subordination equation, so no value is
    identifiable; callers must use the Haar-specific check instead.
    """


class JacobianSingular(FreesubError):
    """Newton's Jacobian is numerically singular; the map is locally
    non-invertible at the current iterate."""
