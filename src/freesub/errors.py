"""Typed exceptions shared across the package, and its argument checks.

Every error the package raises is a FreesubError.  A rejected argument
(a value, size, type or name) raises BadParams, also a ValueError; a
point outside the analytic domain raises DomainError; the rest name a
numerical failure.  The Monte Carlo LAPACK wrappers alone raise
numpy.linalg.LinAlgError, as numpy.linalg.inv does.

Every numeric argument of the package is checked by one of two
functions here, once, where the library first reads it:
``int_in_range`` for a count, order, size or seed, and ``real_above``
for a tolerance, scale or position.  Both reject a bool and a string,
``int_in_range`` also any float (2.0 included), and ``real_above`` a
NaN or an infinity, all with BadParams; both return the plain int or
float.  The private ``_complex_points`` does the same for an evaluation
point or a vector of them, and rejects a NaN or an infinite point with
DomainError; ``_real_vector`` checks a grid, heights or a spectrum, and
raises BadParams for anything but finite reals, and ``_scalars`` does
so for moments or cumulants but keeps each number's type.  Every matrix
argument is checked once, where the library first reads it, by the
private ``_complex_matrix``: it returns a complex square matrix or
(where the argument may be one) a stack, reads a scalar as 1 x 1, and
raises BadParams naming the argument for a value that is not numeric, is
ragged, is not square or of the required size, or has a NaN or an
infinite entry.  No solver checks again what it computed itself.
"""

import cmath
import math
import numbers

import numpy as np


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
    """An iterative solver exhausted its budget or found no step.

    Every raise sets all three attributes.

    Attributes
    ----------
    iterations : int
        Iterations performed.
    residual : float
        Last observed residual.
    point : complex or ndarray
        The point that failed, as the caller gave it: z on the line and
        the circle, b for a matrix Cauchy transform, the target for the
        disk and for F(b); for prop32's shift fit, the shift where it
        stopped.
    """

    def __init__(self, message, *, iterations, residual, point):
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


def int_in_range(name, value, lo=None, hi=None):
    """``value`` as an int with lo <= value <= hi; None leaves an end open."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParams(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise BadParams(f"{name} must be in [{'-inf' if lo is None else lo}, "
                        f"{'inf' if hi is None else hi}], got {value!r}")
    return int(value)


def real_above(name, value, floor=-math.inf, closed=False):
    """``value`` as a finite float above ``floor``; ``closed`` admits the
    floor itself."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParams(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not (math.isfinite(v) and (v > floor or closed and v == floor)):
        bound = "" if floor == -math.inf else \
            f" {'>=' if closed else '>'} {floor:g}"
        raise BadParams(f"{name} must be a finite number{bound}, got {value!r}")
    return v


def _numbers(value, dtype=complex):
    """``value`` as an ndarray of ``dtype`` (complex or float), or None if
    it is not all numbers, or not all reals for float."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence
        return None
    kinds = "iufc" if dtype is complex else "iuf"
    return np.asarray(arr, dtype=dtype) if arr.dtype.kind in kinds else None


def _complex_points(name, value, scalar=False):
    """``value`` as a complex ndarray, or as one complex if ``scalar``.

    Only numbers are points: anything else raises BadParams, and so does
    an array for ``scalar``; a NaN or an infinity raises DomainError.
    """
    pts = _numbers(value)
    if pts is None or (scalar and pts.ndim):
        what = "a complex number" if scalar else "complex numbers"
        raise BadParams(f"{name} must be {what}, got {value!r}")
    if not np.isfinite(pts).all():
        raise DomainError(f"{name} is not finite")
    return complex(pts) if scalar else pts


def _real_vector(name, value, min_size=1):
    """``value`` as a 1-d float ndarray of at least ``min_size`` finite
    reals; anything else raises BadParams naming ``name``."""
    v = _numbers(value, float)
    if v is None or v.ndim != 1 or v.size < min_size or not np.isfinite(v).all():
        raise BadParams(f"{name} must be a 1-d sequence of finite real "
                        f"numbers, at least {min_size} of them")
    return v


def _scalars(name, value):
    """``value`` as a list of finite numbers, each kept in its own type (a
    Fraction stays exact); anything else raises BadParams naming ``name``."""
    try:
        out = list(value)
    except TypeError:
        raise BadParams(f"{name} must be a sequence, got {value!r}") from None
    for v in out:
        if isinstance(v, bool) or not isinstance(v, numbers.Number) or \
                not (isinstance(v, numbers.Rational) or cmath.isfinite(v)):
            raise BadParams(f"{name} must be finite numbers, got {v!r}")
    return out


def _complex_matrix(name, value, n=None, stack=False):
    """``value`` as a complex square matrix, or as a (..., n, n) stack of
    them if ``stack``; a scalar is 1 x 1, and ``n``, if given, the size.
    Anything else raises BadParams naming ``name``."""
    m = _numbers(value)
    if m is None:
        raise BadParams(f"{name} must be a matrix of numbers")
    if m.ndim == 0:
        m = m.reshape(1, 1)
    k = m.shape[-1] if n is None else n
    if m.shape[-2:] != (k, k) or not k or m.ndim > 2 and not stack:
        what = "square matrices" if stack else "one square matrix"
        raise BadParams(f"{name} must be {what} of size {n or 'n >= 1'}, "
                        f"got shape {m.shape}")
    if not np.isfinite(m).all():
        raise BadParams(f"{name} has a non-finite entry")
    return m
