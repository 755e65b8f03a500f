"""Free additive convolution on the line via analytic subordination.

For probability measures mu, nu there are analytic self-maps omega1,
omega2 of the upper half plane with

    G_{mu (+) nu}(z) = G_mu(omega1(z)) = G_nu(omega2(z)),
    omega1(z) + omega2(z) - z = 1/G_{mu (+) nu}(z).

omega1 is computed as the attracting fixed point of
w -> z + h_nu(z + h_mu(w)) by guarded Newton over a damped Picard
fallback; the Newton derivative is assembled from the exact quadrature
series of G', so no differencing step size is involved.  G and G' come
together from the chunked node-sum kernel ``transforms._node_sums``,
and each evaluation of the map at a Newton candidate is kept: once the
candidate is accepted it is the next iterate's value and derivative.
G_mu(omega1), which is G_{mu (+) nu}(z), comes out of the solve too:
the last evaluation of the map formed G_mu and G_mu' at the last iterate,
and G_mu' carries G_mu along the final step, which corrects a residual
already below the tolerance, so no further node sum is made.

Densities are solved as a continuation in the Stieltjes height: omega1
is analytic, hence continuous, in z, so the omega1 already solved at
t + i*eta_prev, shifted by i*(eta - eta_prev), is a Newton-close start
at t + i*eta.  The shift keeps Im w >= eta because Im omega1 >= eta_prev.
The fixed point attracts every start in the half plane above z, so the
start changes the iteration count and not the answer.  Points off a
line (moment contours, single points) start cold at z + i.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, int_in_range, real_above
from .measures import LineMeasure
from .transforms import _node_sums, cauchy_transform, stieltjes_invert

_DAMPING = 0.5
_NEWTON_HANDOFF = 1e-3
_HERGLOTZ_SLACK = 1e-10
_TOL = 1e-13  # fixed-point residual, relative to max(1, |omega1|)
_MIN_TOL = 1e-14  # a smaller residual is not resolvable in double precision
_MAX_ITER = 500
_CONTOUR_NODES = 256  # trapezoid nodes on the moment contour


@dataclass(frozen=True)
class SubordinationEval:
    """One converged subordination solve at a point z."""

    z: complex
    omega1: complex
    omega2: complex
    g_conv: complex
    residual: float
    iterations: int

    def __post_init__(self):
        if self.omega1.imag < self.z.imag - _HERGLOTZ_SLACK:
            raise DomainError("omega1 lost the half-plane margin")
        if self.omega2.imag < self.z.imag - _HERGLOTZ_SLACK:
            raise DomainError("omega2 lost the half-plane margin")


def _h_and_derivative(measure, w):
    """h(w) = 1/G(w) - w and h'(w), with G(w) and G'(w)."""
    g, gp = _node_sums(w, *measure.quadrature())
    return 1.0 / g - w, -gp / g**2 - 1.0, g, gp


def _t_and_derivative(mu, nu, z, w):
    """T(w) = z + h_nu(z + h_mu(w)) and T'(w), with G_mu(w) and G_mu'(w)."""
    hmu, dhmu, gmu, dgmu = _h_and_derivative(mu, w)
    hnu, dhnu, _, _ = _h_and_derivative(nu, z + hmu)
    return z + hnu, dhnu * dhmu, gmu, dgmu


def _solve_omega1(mu, nu, z, start, tol, max_iter):
    """Vectorized fixed point of w -> z + h_nu(z + h_mu(w)) from ``start``.

    Returns (omega1, G_mu(omega1), residual, iterations), shaped like z.
    ``start`` must lie in the closed half plane above z; the cold start
    is z + i.  Newton steps (on the same analytic map, exact derivative)
    are attempted every iteration and accepted when they stay in the
    half plane and shrink the residual; damped Picard is the fallback.
    Plain Picard alone is not enough: close to the real axis the fixed
    point can turn neutral -- at a square-root edge the multiplier tends
    to 1, and for atomic inputs the map approaches an elliptic Moebius
    rotation inside the support, where |T'| = 1 and iteration only
    spirals.  Newton is perfectly conditioned in both regimes.

    T is evaluated once per point and iteration in the common case: T at
    an accepted Newton candidate is the next iterate's T, so only a
    Picard step forces a fresh evaluation.  A point whose residual meets
    the tolerance takes one last step without evaluating T there; its
    G_mu is carried along that step to first order by the exact G_mu'
    of the last evaluation.  The step corrects a residual already below
    tol, so the carried value matches a node sum at omega1 to second
    order in it, and none is made.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.array(start, dtype=complex).reshape(-1)
    t_val = np.empty_like(z)
    tprime = np.empty_like(z)
    g_mu = np.empty_like(z)
    dg_mu = np.empty_like(z)
    fresh = np.zeros(z.shape, dtype=bool)  # t_val ... dg_mu are at w
    res = np.full(z.shape, np.inf)
    iters = np.zeros(z.shape, dtype=int)
    active = np.ones(z.shape, dtype=bool)

    for _ in range(max_iter):
        if not active.any():
            break
        stale = active & ~fresh
        if stale.any():
            t_val[stale], tprime[stale], g_mu[stale], dg_mu[stale] = \
                _t_and_derivative(mu, nu, z[stale], w[stale])
        za, wa = z[active], w[active]
        step = t_val[active] - wa
        res_a = np.abs(step)
        denom = tprime[active] - 1.0
        safe = np.abs(denom) > 1e-12
        cand = np.where(safe, wa - step / np.where(safe, denom, 1.0),
                        wa + _DAMPING * step)
        # a NaN residual never converges: it ends in NoConvergence
        still = ~(res_a <= tol * np.maximum(1.0, np.abs(wa)))
        t_cand, tp_cand, g_cand, dg_cand = np.full((4, cand.size), np.nan + 0j)
        t_cand[still], tp_cand[still], g_cand[still], dg_cand[still] = \
            _t_and_derivative(mu, nu, za[still], cand[still])
        res_cand = np.abs(t_cand - cand)
        ok = safe & (cand.imag > za.imag - _HERGLOTZ_SLACK)
        # near the solution any in-domain Newton step is fine; further out
        # it must beat the current residual or Picard takes over
        ok &= (res_a < _NEWTON_HANDOFF) | (res_cand < 0.9 * res_a)
        w_new = np.where(ok, cand, wa + _DAMPING * step)
        done = ~still
        g_cand[done] = (g_mu[active][done]
                        + dg_mu[active][done] * (w_new[done] - wa[done]))
        w[active] = w_new
        t_val[active], tprime[active] = t_cand, tp_cand
        g_mu[active], dg_mu[active] = g_cand, dg_cand
        fresh[active] = ok
        iters[active] += 1
        res[active] = res_a
        active[active] = still
    if active.any():
        stalled = np.flatnonzero(active)
        worst = stalled[np.argmax(res[stalled])]
        bad_z = complex(z[worst])
        raise NoConvergence(
            f"subordination fixed point stalled at {stalled.size} point(s); "
            f"worst residual {res[worst]:.3e} at z = {bad_z}",
            iterations=max_iter,
            residual=float(res[worst]),
            point=bad_z,
        )
    return (w.reshape(shape), g_mu.reshape(shape), res.reshape(shape),
            iters.reshape(shape))


def subordination_pair(mu: LineMeasure, nu: LineMeasure, z, tol=_TOL,
                       max_iter=_MAX_ITER) -> SubordinationEval:
    """Solve the subordination pair at one point z with Im z > 0."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("evaluation point is not finite")
    if z.imag <= 0:
        raise DomainError("subordination requires Im z > 0")
    tol = real_above("tol", tol, _MIN_TOL, closed=True)
    max_iter = int_in_range("max_iter", max_iter, 1)
    zs = np.asarray([z])
    w, g, _, iters = _solve_omega1(mu, nu, zs, zs + 1j, tol, max_iter)
    omega1 = complex(w[0])
    g1 = complex(g[0])
    omega2 = z + 1.0 / g1 - omega1
    g2 = complex(cauchy_transform(nu, omega2))
    return SubordinationEval(
        z=z,
        omega1=omega1,
        omega2=omega2,
        g_conv=g1,
        residual=abs(g1 - g2),
        iterations=int(iters[0]),
    )


def convolve_cauchy(mu: LineMeasure, nu: LineMeasure, z):
    """G_{mu (+) nu} evaluated via subordination; vectorized over z.

    Every point is solved cold from z + i, so any points will do.
    """
    pts = np.asarray(z, dtype=complex)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    if not np.all(np.isfinite(pts)):
        raise DomainError("evaluation point is not finite")
    if np.any(pts.imag <= 0):
        raise DomainError("convolve_cauchy requires Im z > 0")
    _, g, _, _ = _solve_omega1(mu, nu, pts, pts + 1j, _TOL, _MAX_ITER)
    return complex(g[0]) if scalar else g


def continued_density(mu: LineMeasure, nu: LineMeasure, grid, eta_sequence,
                      tol=_TOL, max_iter=_MAX_ITER):
    """stieltjes_invert of G_{mu (+) nu}, solved as a continuation in eta.

    The heights of ``eta_sequence`` are solved in order on the same grid.
    The first starts cold at z + i; each later one starts at the previous
    height's omega1 plus i*(eta_new - eta_prev).  That start keeps
    Im w >= eta_new, because Im omega1 >= eta_prev, and the fixed point
    attracts from anywhere in the half plane above z, so the start
    changes the iteration count and not the limit.  Returns
    stieltjes_invert's (measure, renorm).
    """
    tol = real_above("tol", tol, _MIN_TOL, closed=True)
    max_iter = int_in_range("max_iter", max_iter, 1)
    last = {}

    def g_eval(zs):
        start = zs + 1j if not last else last["omega1"] + (zs - last["z"])
        omega1, g, _, _ = _solve_omega1(mu, nu, zs, start, tol, max_iter)
        last.update(z=zs, omega1=omega1)
        return g

    return stieltjes_invert(g_eval, grid, eta_sequence=eta_sequence)


def free_add_convolve(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=(1e-1, 3e-2, 1e-2)) -> LineMeasure:
    """Measure of the free additive convolution, densified on ``grid``.

    The density comes from stieltjes_invert applied to the subordinated
    Cauchy transform, with the heights solved as a continuation
    (``continued_density``): the first height starts cold at z + i, and
    each later one starts at the previous height's omega1 plus
    i*(eta - eta_prev).  The default eta sequence favors robustness when
    the convolution carries atoms (delta inputs), smearing them into
    bumps of the right mass; for smooth targets a much smaller sequence
    recovers the density to the solver floor.  Atoms are not
    reconstructed as atoms.
    """
    measure, _ = continued_density(mu, nu, grid, eta_sequence)
    return measure


def convolve_moments(mu: LineMeasure, nu: LineMeasure, order: int):
    """First ``order`` moments of mu (+) nu by contour integration.

    m_k = (1/2 pi i) * contour integral of z^k G(z) dz over a circle
    enclosing the support; with the subordinated G analytic outside the
    support the trapezoid rule on the circle converges geometrically.
    Node angles are offset by half a step so no node hits the real axis,
    and conjugate symmetry G(conj z) = conj G(z) halves the work.
    """
    order = int_in_range("order", order, 1)
    radius = mu.support_radius() + nu.support_radius() + 2.0
    step = 2.0 * math.pi / _CONTOUR_NODES
    theta = (np.arange(_CONTOUR_NODES // 2) + 0.5) * step
    z = radius * np.exp(1j * theta)
    g = convolve_cauchy(mu, nu, z)
    out = []
    for k in range(1, order + 1):
        vals = z ** (k + 1) * g
        # lower semicircle contributes the conjugates
        m = (vals.sum() + np.conj(vals).sum()) / _CONTOUR_NODES
        out.append(float(m.real))
    return out
