"""Finite-dimensional calculus for matrix half-planes and the unit ball.

Works with square complex matrices T viewed as elements of a unital
*-algebra.  The two domains that matter downstream are

* the upper half-plane: Im T = (T - T*)/(2i) >= eps > 0, and
* the ball of radius R: largest singular value of T below R.

Membership is always quantified by a signed margin so callers can apply
boundary bands instead of raw booleans.
"""

import numpy as np

from .errors import BadParams

_SINGULAR_RTOL = 1e-13


def _as_square(t):
    """Coerce to a square complex ndarray and validate it."""
    m = np.asarray(t, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadParams(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise BadParams("matrix has non-finite entries")
    return m


def operator_norm(t) -> float:
    """Largest singular value, computed densely."""
    return float(np.linalg.norm(_as_square(t), 2))


def im_part(t) -> np.ndarray:
    """Selfadjoint part of T/i, i.e. (T - T*)/(2i).

    This is the matrix analogue of the imaginary part; it is Hermitian
    up to rounding and is returned exactly Hermitianized.
    """
    m = _as_square(t)
    h = (m - m.conj().T) / 2j
    return (h + h.conj().T) / 2


def halfplane_margin(t) -> float:
    """Smallest eigenvalue of im_part(T).

    Positive iff T lies in the open upper half-plane; the margin of the
    lower half-plane is ``halfplane_margin(-T)``.
    """
    return float(np.linalg.eigvalsh(im_part(t))[0])


def contraction_margins(x):
    """Margins of the two equivalent strict-contraction conditions.

    Returns ``(norm_margin, resolvent_margin)`` where

    * ``norm_margin   = 1 - ||x||``,
    * ``resolvent_margin = lambda_min(2 Re (1-x)^{-1}) - 1``,

    and the contract is that they have the same sign (both conditions
    are open and equivalent).  If ``1 - x`` is singular the resolvent
    margin is reported as ``-inf``.
    """
    m = _as_square(x)
    eye = np.eye(m.shape[0])
    norm_margin = 1.0 - operator_norm(m)
    a = eye - m
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= _SINGULAR_RTOL * max(1.0, float(s[0])):
        return norm_margin, float("-inf")
    r = np.linalg.inv(a)
    resolvent_margin = float(np.linalg.eigvalsh(r + r.conj().T)[0]) - 1.0
    return norm_margin, resolvent_margin


def resolvent_identity_residual(x) -> float:
    """Residual of (1-x)^{-1} + (1-x*)^{-1} = 1 + (1-x)^{-1}(1-xx*)(1-x*)^{-1}.

    The identity is algebraically exact whenever 1-x is invertible, so
    the residual measures pure floating-point conditioning.
    """
    m = _as_square(x)
    eye = np.eye(m.shape[0])
    a = np.linalg.inv(eye - m)
    b = a.conj().T  # = (1 - x*)^{-1}
    lhs = a + b
    rhs = eye + a @ (eye - m @ m.conj().T) @ b
    return float(np.linalg.norm(lhs - rhs, 2))
