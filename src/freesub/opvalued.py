"""Matrix-valued Cauchy transforms and operator subordination.

B = n x n matrices.  A B-valued semicircular element is determined by a
completely positive covariance map eta(b) = sum_j k_j b k_j*; its matrix
Cauchy transform with the convention

    G(b) := E_B((b - X)^{-1}),  b in the matrix upper half plane,

is the unique solution of g = (b - eta(g))^{-1} with Im g < 0.  Sums of
free semicirculars stay semicircular with added covariances, which makes
G_X, G_Y and G_{X+Y} all independently computable; the subordination map
F with G_{X+Y}(b) = G_X(F(b)) is then extracted by inverting G_X with
Newton's method, using that G_X is holomorphic, so its derivative is a
complex-linear map, differenced from one stacked G_X call per Newton
point.  That turns the subordination identity into a two-sided
numerical check instead of a definition.  Both solves run on
``_newton.solve``: the Cauchy transform by its fixed-point rule, F by its
root rule.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _newton
from .domains import _halfplane_margin
from .errors import (BadParams, DomainError, JacobianSingular,
                     _complex_matrix, real_above)

_MAX_N = 8
_FD_STEP = 1e-6
_CAUCHY_MAX_ITER = 500
_F_MAX_ITER = 50


@dataclass(frozen=True)
class CovarianceMap:
    """Completely positive map b -> sum_j k_j b k_j* given by Kraus terms."""

    kraus: tuple

    def __post_init__(self):
        try:
            kraus = tuple(self.kraus)
        except TypeError:
            raise BadParams("kraus must be a sequence of matrices") from None
        if not kraus:
            raise BadParams("covariance map needs at least one Kraus term")
        n = _complex_matrix("kraus[0]", kraus[0]).shape[0]
        if n > _MAX_N:
            raise BadParams(f"dimension cap is {_MAX_N}")
        # copies: the frozen terms must not be the caller's arrays
        mats = tuple(_complex_matrix(f"kraus[{i}]", k, n).copy()
                     for i, k in enumerate(kraus))
        for k in mats:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", mats)

    @property
    def n(self) -> int:
        return self.kraus[0].shape[0]

    def __call__(self, b):
        """eta(b) for a matrix b, or for each matrix of a stack (..., n, n),
        as one product with the cached n^2 x n^2 matrix of eta."""
        return self._apply(_complex_matrix("b", b, self.n, stack=True))

    def _apply(self, b):
        """eta of a complex (..., n, n) array that is checked or computed."""
        vec = b.reshape(b.shape[:-2] + (self.n ** 2, 1))
        return (self._kraus_kron @ vec).reshape(b.shape)

    @cached_property
    def _kraus_kron(self):
        """sum_j kron(k_j, conj(k_j)): eta as a matrix on row-major vec."""
        acc = np.zeros((self.n ** 2, self.n ** 2), dtype=complex)
        for k in self.kraus:
            acc += _kron(k, k.conj())
        return acc

    def plus(self, other: "CovarianceMap") -> "CovarianceMap":
        """Covariance of the sum of free semicirculars: Kraus concatenation."""
        return CovarianceMap(self.kraus + other.kraus)

    def symmetrized(self) -> "CovarianceMap":
        """b -> (eta(b) + eta*(b))/2 where eta* swaps k_j and k_j*.

        This is the covariance realized by Hermitian block models built
        from the same Kraus terms; it equals eta itself when every k_j
        is Hermitian.
        """
        half = tuple(k / np.sqrt(2.0) for k in self.kraus)
        adj = tuple(k.conj().T / np.sqrt(2.0) for k in self.kraus)
        return CovarianceMap(half + adj)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "kraus": [[[[z.real, z.imag] for z in row] for row in k]
                      for k in self.kraus],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CovarianceMap":
        try:
            kraus = tuple([[complex(re, im) for re, im in row] for row in k]
                          for k in d["kraus"])
        except KeyError:
            raise BadParams("a covariance map needs a kraus list") from None
        except (TypeError, ValueError):
            raise BadParams("kraus entries must be [re, im] pairs") from None
        cm = cls(kraus)
        if cm.n != d.get("n", cm.n):
            raise BadParams("serialized size disagrees with Kraus shape")
        return cm


@dataclass(frozen=True)
class OpCauchyEval:
    """Converged matrix Cauchy transform at a half-plane point or stack.

    ``b`` and ``g`` have the caller's shape; ``residual`` is the worst
    over the stack and ``iterations`` the number of passes it took.
    """

    b: np.ndarray = field(compare=False)
    g: np.ndarray = field(compare=False)
    residual: float
    iterations: int

    def __post_init__(self):
        for name in ("b", "g"):
            m = _complex_matrix(name, getattr(self, name), stack=True).copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if np.any(_halfplane_margin(-self.g) <= 0):
            raise DomainError("Cauchy transform value left the lower half plane")


def _kron(a, b):
    """np.kron of two square matrices, or of each pair of two broadcast
    stacks: the same products, without np.kron's shape handling, which
    costs more than the product at these sizes."""
    n = a.shape[-1] * b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (n, n))


def op_semicircular_cauchy(eta: CovarianceMap, b, tol=1e-12) -> OpCauchyEval:
    """Solve g = (b - eta(g))^{-1} for the semicircular Cauchy transform.

    ``b`` is one matrix or a stack (..., n, n), and g comes back in its
    shape.  The stack is one batch of ``_newton.solve``'s fixed-point
    rule from g = b^{-1}, so each matrix leaves at its own tolerance and
    its value does not depend on the stack around it; the damped Picard
    step never leaves the lower half plane.  A Newton candidate is
    tested before it is taken, so none is undone.  ``residual`` is the
    worst over the stack and ``iterations`` the most driver iterations
    any matrix took.  The candidate solves the multiplied-out residual
    (b - eta(g))g - I, one stacked solve per iteration; a stack whose
    solve meets an exactly singular system solves the systems one by
    one, and only the singular ones have no candidate.  The Newton
    Jacobian is exact: with row-major vec, vec(eta(d)g) factors through
    kron(k_j, conj(k_j)), so no differencing is needed.
    """
    tol = real_above("tol", tol, 0.0)
    n = eta.n
    b = _complex_matrix("b", b, n, stack=True)
    if np.any(_halfplane_margin(b) <= 0):
        raise DomainError("op_semicircular_cauchy needs Im b > 0")
    points = b.reshape(-1, n, n)
    eye = np.eye(n)
    g = np.linalg.inv(points)
    tol_abs = tol * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1)))

    def evaluate(at, g):
        lhs = points[at] - eta._apply(g)
        fixed = np.linalg.inv(lhs)
        return np.linalg.norm(fixed - g, axis=(-2, -1)), fixed, lhs

    def newton(g, ev):
        jac = _kron(ev[2], eye) - _kron(eye, g.mT) @ eta._kraus_kron
        rhs = -(ev[2] @ g - eye).reshape(-1, n * n, 1)
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            delta = np.full(rhs.shape, np.nan, dtype=complex)
            for i in range(len(jac)):
                try:
                    delta[i] = np.linalg.solve(jac[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
        return g + delta.reshape(g.shape)

    def inside(at, g):
        ok = np.isfinite(g).all(axis=(-2, -1))
        if ok.all():
            return _halfplane_margin(-g) > 0
        ok[ok] = _halfplane_margin(-g[ok]) > 0
        return ok

    g, ev, iters = _newton.solve(
        evaluate, newton, inside, lambda at, *_: tol_abs[at], g,
        _CAUCHY_MAX_ITER, points, "matrix Cauchy fixed point",
        fixed_point=True)
    return OpCauchyEval(b=b, g=g.reshape(b.shape), residual=float(ev[0].max()),
                        iterations=int(iters.max()))


def op_add_cauchy(eta_x: CovarianceMap, eta_y: CovarianceMap, b,
                  tol=1e-12) -> OpCauchyEval:
    """Cauchy transform of X + Y via covariance additivity (never via F)."""
    return op_semicircular_cauchy(eta_x.plus(eta_y), b, tol=tol)


def semicircular_shift_F(eta_y: CovarianceMap, g_xy, b):
    """Closed-form subordination point for the semicircular model.

    When Y is semicircular with covariance eta_Y, F(b) = b - eta_Y(G_{X+Y}(b)).
    Used as an oracle and as a warm start; the general solver below does
    not rely on it.
    """
    g_xy = _complex_matrix("g_xy", g_xy, eta_y.n, stack=True)
    return _complex_matrix("b", b, eta_y.n, stack=True) - eta_y._apply(g_xy)


def solve_subordination_F(g_x_eval, g_target, b_start, tol=1e-10):
    """Invert the Cauchy transform of X: find F with G_X(F) = g_target.

    ``g_x_eval(b)`` must return the matrix Cauchy transform of X at each
    matrix of a (k, n, n) stack, as a stack of the same shape.  G_X is
    holomorphic on the matrix upper half plane, so its derivative is
    complex linear: Newton differences G_X along the n^2 complex unit
    directions and solves one complex n^2 x n^2 system per step.  Each
    point the solve visits, ``b_start`` and every candidate of the step
    search, is evaluated in one call together with its n^2 difference
    points, a stack of n^2 + 1 matrices, so an accepted candidate
    already carries the next step's Jacobian.  ``_newton.solve`` halves
    each step by its root rule until the candidate keeps a positive
    half-plane margin and lowers |G_X - g_target|.  Raises
    JacobianSingular where G_X is locally non-invertible and the
    subordination point cannot be extracted this way.
    """
    tol = real_above("tol", tol, 0.0)
    g_target = _complex_matrix("g_target", g_target)
    n = g_target.shape[0]
    w = _complex_matrix("b_start", b_start, n).copy()
    if _halfplane_margin(-g_target) <= 0:
        raise DomainError("target is not the value of a Cauchy transform")
    if _halfplane_margin(w) <= 0:
        raise DomainError("b_start must lie in the matrix upper half plane")
    directions = np.eye(n * n).reshape(n * n, n, n)

    def evaluate(at, w):
        """|G_X - g_target| at F's one point w, G_X - g_target there and at
        its n^2 difference points, and the difference step."""
        delta = _FD_STEP * max(1.0, float(np.linalg.norm(w[0])))
        points = np.concatenate([w, w[0] + delta * directions])
        vals = g_x_eval(points) - g_target
        if vals.shape != points.shape:
            raise BadParams("g_x_eval must return one value per matrix of a stack")
        return (np.array([np.linalg.norm(vals[0])]), vals[None],
                np.array([delta]))

    def newton(w, ev):
        vals = ev[1][0]
        jac = (vals[1:] - vals[0]).reshape(n * n, n * n).T / ev[2][0]
        try:
            step = np.linalg.solve(jac, -vals[0].reshape(-1))
        except np.linalg.LinAlgError:
            step = np.full(n * n, np.nan)
        if not np.all(np.isfinite(step)):
            raise JacobianSingular("Cauchy transform is locally "
                                   "non-invertible: the Newton step is "
                                   "singular or not finite")
        return w + step.reshape(w.shape)

    w, _, _ = _newton.solve(
        evaluate, newton, lambda at, w: _halfplane_margin(w) > 0,
        lambda *_: tol, w[None], _F_MAX_ITER, g_target[None],
        "subordination Newton", fixed_point=False)
    return w[0]
