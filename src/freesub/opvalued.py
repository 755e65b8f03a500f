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
numerical check instead of a definition.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domains import _halfplane_margin
from .errors import (BadParams, DomainError, JacobianSingular, NoConvergence,
                     _complex_matrix, real_above)

_MAX_N = 8
_DAMPING = 0.5
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
    shape.  A stack is iterated together, one stacked inverse and one
    stacked Newton solve per pass; each matrix leaves the stack at its
    own tolerance, so its value does not depend on the stack around it.
    A pass whose stacked Newton solve meets an exactly singular system
    solves the systems one by one, and only the singular ones take a
    Picard step.

    Every pass tries a Newton step on the multiplied-out residual
    (b - eta(g))g - I from g = b^{-1} on.  The candidate must stay in
    Im g < 0 and lower the residual at the next pass; otherwise it is
    undone and a damped Picard step, which never leaves the lower half
    plane, is taken instead.  The Newton Jacobian is exact: with
    row-major vec, vec(eta(d)g) factors through kron(k_j, conj(k_j)), so
    no differencing is needed.
    """
    tol = real_above("tol", tol, 0.0)
    n = eta.n
    b = _complex_matrix("b", b, n, stack=True)
    if np.any(_halfplane_margin(b) <= 0):
        raise DomainError("op_semicircular_cauchy needs Im b > 0")
    points = b.reshape(-1, n, n)
    out = np.empty_like(points)
    at = np.arange(len(points))  # where each matrix still iterating goes
    eye = np.eye(n)
    kk = eta._kraus_kron
    g = np.linalg.inv(points)
    tol_abs = tol * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1)))
    worst = 0.0
    # each Newton candidate on trial keeps the iterate it came from
    trial = np.zeros(len(points), dtype=bool)
    g_prev, fixed_prev, res_prev = g, g, np.full(len(points), np.inf)
    for it in range(1, _CAUCHY_MAX_ITER + 1):
        lhs = points - eta._apply(g)
        fixed = np.linalg.inv(lhs)
        res = np.linalg.norm(fixed - g, axis=(-2, -1))
        # a NaN residual never wins, so its candidate is undone too
        undo = trial & ~(res < res_prev)
        if undo.any():
            back = undo[:, None, None]
            g = np.where(back, g_prev, g)
            fixed = np.where(back, fixed_prev, fixed)
            res = np.where(undo, res_prev, res)
        done = res <= tol_abs
        if done.any():
            out[at[done]] = g[done]
            worst = max(worst, float(res[done].max()))
            if done.all():
                return OpCauchyEval(b=b, g=out.reshape(b.shape),
                                    residual=worst, iterations=it)
            left = ~done
            at, points, tol_abs, g, lhs, fixed, res, undo = (
                v[left] for v in (at, points, tol_abs, g, lhs, fixed, res, undo))
        phi = lhs @ g - eye
        jac = _kron(lhs, eye) - _kron(eye, g.mT) @ kk
        rhs = -phi.reshape(-1, n * n, 1)
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            # solved one by one, only the singular systems take Picard
            delta = np.full(rhs.shape, np.nan, dtype=complex)
            for i in range(len(jac)):
                try:
                    delta[i] = np.linalg.solve(jac[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
        cand = g + delta.reshape(g.shape)
        finite = np.isfinite(cand).all(axis=(-2, -1))
        if not finite.all():
            cand[~finite] = g[~finite]  # checkable stand-in, never kept
        trial = finite & ~undo & (_halfplane_margin(-cand) > 0)
        g_prev, fixed_prev, res_prev = g, fixed, res
        if trial.all():
            g = cand
        else:
            g = np.where(trial[:, None, None], cand, g + _DAMPING * (fixed - g))
    raise NoConvergence("matrix Cauchy fixed point stalled",
                        iterations=_CAUCHY_MAX_ITER,
                        residual=float(np.max(res)))


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
    point the solve visits, ``b_start`` and every line-search candidate,
    is evaluated in one call together with its n^2 difference points, a
    stack of n^2 + 1 matrices, so an accepted candidate already carries
    the next step's Jacobian.  Candidate steps are cut back until the
    iterate keeps a positive half-plane margin.  Raises JacobianSingular
    where G_X is locally non-invertible and the subordination point
    cannot be extracted this way.
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

    def evaluate(at):
        """G_X - g_target at ``at`` and its difference points, and the step."""
        delta = _FD_STEP * max(1.0, float(np.linalg.norm(at)))
        points = np.concatenate([at[None], at + delta * directions])
        vals = g_x_eval(points) - g_target
        if vals.shape != points.shape:
            raise BadParams("g_x_eval must return one value per matrix of a stack")
        return vals, delta

    vals, delta = evaluate(w)
    for _ in range(_F_MAX_ITER):
        resid = float(np.linalg.norm(vals[0]))
        if resid <= tol:
            return w
        jac = (vals[1:] - vals[0]).reshape(n * n, n * n).T / delta
        try:
            step = np.linalg.solve(jac, -vals[0].reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError:
            raise JacobianSingular("Cauchy transform is locally non-invertible") from None
        if not np.all(np.isfinite(step)):
            raise JacobianSingular("Jacobian produced a non-finite step")
        s = 1.0
        for _ in range(30):
            cand = w + s * step
            if _halfplane_margin(cand) > 0:
                cand_vals, cand_delta = evaluate(cand)
                if np.linalg.norm(cand_vals[0]) < 10.0 * resid:
                    break
            s *= 0.5
        else:
            raise NoConvergence("step search could not stay in the half plane",
                                residual=resid)
        w, vals, delta = cand, cand_vals, cand_delta
    raise NoConvergence("subordination Newton stalled",
                        iterations=_F_MAX_ITER,
                        residual=float(np.linalg.norm(vals[0])))
