"""Finite-dimensional calculus for matrix half-planes and the unit ball.

Works with square complex matrices T viewed as elements of a unital
*-algebra.  The two domains that matter downstream are

* the upper half-plane: Im T = (T - T*)/(2i) >= eps > 0, and
* the ball of radius R: largest singular value of T below R.

Membership is always quantified by a signed margin so callers can apply
boundary bands instead of raw booleans.

Every function also takes a stack (k, n, n) of matrices and returns one
margin per matrix; a single matrix gives a float.  The stacked LAPACK
calls factor each matrix exactly as a single call would, so a margin
does not depend on the stack it was computed in.
"""

import numpy as np

from .errors import _complex_matrix

_SINGULAR_RTOL = 1e-13


def _per_matrix(v):
    """A float for a single matrix, the array of values for a stack."""
    return float(v) if v.ndim == 0 else v


def operator_norm(t):
    """Largest singular value, computed densely."""
    s = np.linalg.svd(_complex_matrix("t", t, stack=True), compute_uv=False)
    return _per_matrix(s[..., 0])


def _im(m):
    return (m - m.conj().mT) / 2j


def im_part(t) -> np.ndarray:
    """Selfadjoint part of T/i, i.e. (T - T*)/(2i).

    This is the matrix analogue of the imaginary part.  It is exactly
    Hermitian: entry (j, i) is computed from the same two real sums as
    entry (i, j), and dividing by 2i only swaps and halves them.
    """
    return _im(_complex_matrix("t", t, stack=True))


def _halfplane_margin(m):
    """halfplane_margin of a matrix or stack the caller checked or computed."""
    return _per_matrix(np.linalg.eigvalsh(_im(m))[..., 0])


def halfplane_margin(t):
    """Smallest eigenvalue of im_part(T).

    Positive iff T lies in the open upper half-plane; the margin of the
    lower half-plane is ``halfplane_margin(-T)``.
    """
    return _halfplane_margin(_complex_matrix("t", t, stack=True))


def contraction_margins(x):
    """Margins of the two equivalent strict-contraction conditions.

    Returns ``(norm_margin, resolvent_margin)`` where

    * ``norm_margin   = 1 - ||x||``,
    * ``resolvent_margin = lambda_min(2 Re (1-x)^{-1}) - 1``,

    and the contract is that they have the same sign (both conditions
    are open and equivalent).  If ``1 - x`` is singular the resolvent
    margin is reported as ``-inf``.
    """
    return _contraction_margins(_complex_matrix("x", x, stack=True))[:2]


def _contraction_margins(m):
    """contraction_margins of a checked m, and the singular values of 1 - m."""
    norm_margin = 1.0 - np.linalg.svd(m, compute_uv=False)[..., 0]
    a = np.eye(m.shape[-1]) - m
    s = np.linalg.svd(a, compute_uv=False)
    regular = s[..., -1] > _SINGULAR_RTOL * np.maximum(1.0, s[..., 0])
    resolvent_margin = np.full(regular.shape, -np.inf)
    r = np.linalg.inv(a[regular])
    resolvent_margin[regular] = np.linalg.eigvalsh(r + r.conj().mT)[..., 0] - 1.0
    return _per_matrix(norm_margin), _per_matrix(resolvent_margin), s


def resolvent_identity_residual(x):
    """Residual of (1-x)^{-1} + (1-x*)^{-1} = 1 + (1-x)^{-1}(1-xx*)(1-x*)^{-1}.

    The identity is algebraically exact whenever 1-x is invertible, so
    the residual measures pure floating-point conditioning.
    """
    m = _complex_matrix("x", x, stack=True)
    eye = np.eye(m.shape[-1])
    a = np.linalg.inv(eye - m)
    b = a.conj().mT  # = (1 - x*)^{-1}
    lhs = a + b
    rhs = eye + a @ (eye - m @ m.conj().mT) @ b
    return _per_matrix(np.linalg.svd(lhs - rhs, compute_uv=False)[..., 0])
