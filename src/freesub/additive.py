"""Free additive convolution on the line via analytic subordination.

For probability measures mu, nu there are analytic self-maps omega1,
omega2 of the upper half plane with

    G_{mu (+) nu}(z) = G_mu(omega1(z)) = G_nu(omega2(z)),
    omega1(z) + omega2(z) - z = 1/G_{mu (+) nu}(z).

omega1 is the attracting fixed point of w -> z + h_nu(z + h_mu(w)),
solved by the fixed-point rule of ``_newton.solve`` (guarded Newton over
a damped Picard fallback); the Newton derivative is assembled from the
exact G', so no differencing step size is involved.  G and G' come
together from ``transforms._node_sums`` over each measure's table: a
semicircle, arcsine or Marchenko-Pastur law in closed form, or else a
node sum, by panels with far-field series from 640 nodes on, on the
calling thread.  G_mu(omega1), which is G_{mu (+) nu}(z), comes out of
the solve with no further node sum.  ``subordination_pairs`` solves the
pair at a batch of points, and ``subordination_pair`` is its one-point
form.

Densities come from one pipeline, ``continued_density``: Stieltjes
inversion of G_{mu (+) nu} read at a few heights eta above the grid.  It
solves the heights in order as a predictor-corrector continuation along
the lines t + i*eta (Euler predictor, Newton corrector: Allgower and
Georg, Introduction to Numerical Continuation Methods, SIAM 2003, ch.
2): the solve also returns the tangent omega1'(z) = (1 + h_nu') / (1 -
T') from the factors of its last evaluation, so every start is
predicted from values already solved.  The fixed point attracts every
start in the half plane above z, so the start changes the iteration
count and not the answer.  The heights' -Im G/pi are summed with their
Lagrange weights at eta = 0 (``_heights``), and one step floors, clips
and renormalises the sum (``_density``).  Points off a line (moment
contours, subordination tables) start cold at z + i.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _newton
from .errors import (BadParams, DomainError, NonPositiveDensity,
                     _complex_points, _real_vector, int_in_range, real_above)
from .measures import (_MAX_MOMENT, _MIN_SAMPLES, GridSpec, LineMeasure,
                       _require)
from .transforms import _node_sums, _node_table, cauchy_transform

_HERGLOTZ_SLACK = 1e-10
_TOL = 1e-13  # fixed-point residual, relative to max(1, |omega1|)
_MIN_TOL = 1e-14  # a smaller residual is not resolvable in double precision
_ROUNDING = 4 * np.finfo(float).eps  # T's rounding, relative to its scale
_ROUNDING_CAP = 1e3  # T's rounding relaxes tol at most this many times
_FLOOR_AFTER = 10  # iterations before a residual may stop at T's rounding
_MAX_ITER = 500
_CONTOUR_NODES = 256  # trapezoid nodes on the moment contour
_SLOPE_FLOOR = 1e-8  # |1 - T'| below this gives the plain-shift slope 1
_COARSE_STRIDE = 8  # first height: every 8th grid point is solved cold
_ETA_SEQUENCE = (1e-1, 3e-2, 1e-2)  # density heights, coarse enough for atoms
# a density below -_NEG_TOL * max(1, peak) is rejected as negative
_NEG_TOL = 1e-3


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


def _t_and_derivative(mu, nu, z, w):
    """|T(w) - w|, T(w) = z + h_nu(z + h_mu(w)) and T'(w), with G_mu(w),
    G_mu'(w) and h_nu'(z + h_mu(w)); h = 1/G - id."""
    g_mu, dg_mu = _node_sums(w, _node_table(mu))
    zeta = z + (1.0 / g_mu - w)
    g_nu, dg_nu = _node_sums(zeta, _node_table(nu))
    dh_nu = -dg_nu / g_nu**2 - 1.0
    t = z + (1.0 / g_nu - zeta)
    return (np.abs(t - w), t, dh_nu * (-dg_mu / g_mu**2 - 1.0), g_mu, dg_mu,
            dh_nu)


def _line_newton(w, ev):
    """w - (T(w) - w) / (T'(w) - 1), NaN where |T'(w) - 1| <= 1e-12."""
    return _newton.scalar_step(w, ev[1] - w, ev[2] - 1.0, 1e-12)


def _solve_omega1(mu, nu, z, start, tol, max_iter):
    """Vectorized fixed point of w -> z + h_nu(z + h_mu(w)) from ``start``.

    z and ``start`` are 1-d complex arrays.  Returns (omega1,
    G_mu(omega1), residual, iterations, slope), shaped like z.  ``start``
    must lie in the closed half plane above z; the
    cold start is z + i.  ``_newton.solve`` iterates the map by its
    fixed-point rule: Newton on the same analytic map, with the exact
    derivative, over a damped Picard fallback.  Plain Picard alone is
    not enough: close to the real axis the fixed point can turn neutral
    -- at a square-root edge the multiplier tends to 1, and for atomic
    inputs the map approaches an elliptic Moebius rotation inside the
    support, where |T'| = 1 and iteration only spirals.  Newton is
    perfectly conditioned in both regimes.

    A point has converged when its residual meets tol * max(1, |w|), or,
    from its _FLOOR_AFTER-th iteration on, the rounding of T itself where
    that is larger, up to _ROUNDING_CAP times the tolerance.  The
    rounding is about eps * |h_nu'| * (|w| + |1/G_mu| + |z|): 1/G_mu - w
    cancels in h_mu, and h_nu' amplifies what is left.  It exceeds the
    tolerance only next to a pole of F_nu close to the line, where no
    start gets below it.  There omega1 is ill-conditioned but
    G_mu(omega1) is not: it keeps the accuracy it has at the other
    points.  The wait matters because the rounding is taken at the
    iterate, not at the fixed point: early iterates overstate it, and
    most points that would stop there go on to meet tol within a few
    more iterations.  The returned residual shows which points stopped
    above tol * max(1, |w|).

    A point whose residual meets its limit takes one last step, the step
    the fixed-point rule takes with no test, without evaluating T there:
    its G_mu is carried along that step to first order by the exact
    G_mu' of the last evaluation.  The step corrects a residual already
    below tol, so the carried value matches a node sum at omega1 to
    second order in it, and none is made.

    ``slope`` is the tangent omega1'(z) = (1 + h_nu') / (1 - T') of the
    implicit function theorem, both factors from that same last
    evaluation, so it too costs no node sum.  Where 1 - T' is too close
    to 0 to divide by (T' -> 1 at a square-root edge) or the quotient is
    not finite, ``slope`` is 1, the slope of the plain shift w + dz.
    """
    low = z.imag - _HERGLOTZ_SLACK  # the lowest Im a candidate may keep

    def limit(at, w, ev, it):
        size = np.abs(w)
        lim = tol * np.maximum(1.0, size)
        if it > _FLOOR_AFTER:
            # the rounding of T: h_mu's 1/G_mu - w cancels, and h_nu'
            # amplifies what is left
            floor = _ROUNDING * (1.0 + np.abs(ev[5])) * (
                size + np.abs(1.0 / ev[3]) + np.abs(z[at]))
            lim = np.maximum(lim, np.minimum(floor, _ROUNDING_CAP * lim))
        return lim

    w, (res, t, tprime, g_mu, dg_mu, dh_nu), iters = _newton.solve(
        lambda at, w: _t_and_derivative(mu, nu, z[at], w), _line_newton,
        lambda at, w: w.imag > low[at], limit, start, max_iter, z,
        "subordination fixed point", fixed_point=True)
    # the last step is not evaluated: G_mu is carried along it by G_mu'
    cand = _line_newton(w, (res, t, tprime))
    take = (cand.imag > low) & (res < _newton.HANDOFF)
    fin = np.where(take, cand, w + _newton.DAMPING * (t - w))
    usable = np.abs(1.0 - tprime) > _SLOPE_FLOOR
    slope = (1.0 + dh_nu) / np.where(usable, 1.0 - tprime, 1.0)
    slope[~(usable & np.isfinite(slope))] = 1.0
    return fin, g_mu + dg_mu * (fin - w), res, iters, slope


def _upper_points(z, who, scalar=False):
    """z as a complex array, or one complex if ``scalar``, every point
    finite with Im z > 0."""
    pts = _complex_points("z", z, scalar)
    if np.any(np.imag(pts) <= 0):
        raise DomainError(f"{who} requires Im z > 0")
    return pts


def _pairs(mu, nu, z, tol, max_iter):
    """subordination_pairs at the checked 1-d points z."""
    _require(LineMeasure, mu, nu)
    omega1, g, _, iters, _ = _solve_omega1(mu, nu, z, z + 1j, tol, max_iter)
    omega2 = z + np.reciprocal(g) - omega1
    gap = g - cauchy_transform(nu, omega2)
    residual = np.hypot(gap.real, gap.imag)
    # tolist gives Python complex, float and int with the same bits
    fields = (z, omega1, omega2, g, residual, iters)
    return [SubordinationEval(*f) for f in zip(*(a.tolist() for a in fields))]


def subordination_pairs(mu: LineMeasure, nu: LineMeasure, z, tol=_TOL,
                        max_iter=_MAX_ITER):
    """Solve the subordination pair at every point of z, Im z > 0.

    Returns one SubordinationEval per point, in z's C order, from one
    ``_solve_omega1`` call (cold starts z + i) and one ``cauchy_transform``
    call at omega2.  ``tol`` bounds omega1's fixed-point residual relative
    to max(1, |omega1|).  Next to a pole of F_nu, where the map's rounding
    lies above it, the solve stops at that rounding if it is within
    _ROUNDING_CAP (1e3) times ``tol``, and raises NoConvergence otherwise;
    G_mu(omega1) keeps its accuracy there, and ``residual`` =
    |G_mu(omega1) - G_nu(omega2)| checks it.  omega2 = z + 1/G_mu - omega1
    takes ``np.reciprocal`` and the residual ``np.hypot``: they round as
    Python's ``1.0 / complex`` and ``abs(complex)`` do (``1.0 / g`` and
    ``np.abs`` do not), so each field is what scalar complex arithmetic
    gives from that omega1 and G_mu.
    """
    z = _upper_points(z, "subordination").reshape(-1)
    tol = real_above("tol", tol, _MIN_TOL, closed=True)
    max_iter = int_in_range("max_iter", max_iter, 1)
    return _pairs(mu, nu, z, tol, max_iter)


def subordination_pair(mu: LineMeasure, nu: LineMeasure,
                       z) -> SubordinationEval:
    """The subordination pair at one point z with Im z > 0: the one-point
    form of subordination_pairs, at its default tol and max_iter."""
    z = _upper_points(z, "subordination", scalar=True)
    return _pairs(mu, nu, np.array([z]), _TOL, _MAX_ITER)[0]


def convolve_cauchy(mu: LineMeasure, nu: LineMeasure, z):
    """G_{mu (+) nu} evaluated via subordination; vectorized over z.

    Every point is solved cold from z + i, so any points will do.
    """
    _require(LineMeasure, mu, nu)
    pts = _upper_points(z, "convolve_cauchy")
    flat = pts.reshape(-1)
    g = _solve_omega1(mu, nu, flat, flat + 1j, _TOL, _MAX_ITER)[1]
    return complex(g[0]) if pts.ndim == 0 else g.reshape(pts.shape)


def _above(w, floor):
    """w with its imaginary part raised to at least ``floor``."""
    return w.real + 1j * np.maximum(w.imag, floor)


def _first_height(mu, nu, z, tol, max_iter):
    """(omega1, G_mu(omega1), slope) on a line z, solved coarse to fine.

    Every _COARSE_STRIDE-th point and the last are solved cold from
    z + i.  Each other point starts at the cubic Hermite interpolant of
    its two coarse neighbours' omega1 and slope, and only those points
    are solved in the second call.
    """
    omega1, g, slope = np.empty((3, z.size), dtype=complex)
    coarse = np.zeros(z.size, dtype=bool)
    coarse[::_COARSE_STRIDE] = coarse[-1] = True
    zc = z[coarse]
    omega1[coarse], g[coarse], _, _, slope[coarse] = _solve_omega1(
        mu, nu, zc, zc + 1j, tol, max_iter)
    knots = np.flatnonzero(coarse)
    fine = np.flatnonzero(~coarse)
    pos = np.searchsorted(knots, fine)
    left, right = knots[pos - 1], knots[pos]
    zf = z[fine]
    h = z[right] - z[left]
    s = (zf - z[left]) / h
    start = ((1 + 2 * s) * (1 - s) ** 2 * omega1[left]
             + s * (1 - s) ** 2 * h * slope[left]
             + s ** 2 * (3 - 2 * s) * omega1[right]
             - s ** 2 * (1 - s) * h * slope[right])
    omega1[fine], g[fine], _, _, slope[fine] = _solve_omega1(
        mu, nu, zf, _above(start, zf.imag), tol, max_iter)
    return omega1, g, slope


def _heights(grid, eta_sequence):
    """The checked grid and heights, and the heights' Lagrange weights at
    eta = 0: c_j = prod_{k != j} eta_k / (eta_k - eta_j)."""
    grid = _real_vector("grid", grid, _MIN_SAMPLES)
    step = grid[1] - grid[0]
    if not (step > 0 and np.all(np.abs(np.diff(grid) - step) <= 1e-6 * step)):
        raise BadParams("grid must be increasing with uniform spacing")
    etas = _real_vector("eta_sequence", eta_sequence)
    if not np.all(etas > 0) or np.unique(etas).size < etas.size:
        raise BadParams("eta_sequence must be a sequence of distinct finite "
                        "positive heights")
    coeff = np.empty(etas.size)
    for j in range(etas.size):
        others = np.delete(etas, j)
        coeff[j] = np.prod(others / (others - etas[j]))
    return grid, etas, coeff


def _density(grid, dens):
    """(measure, renorm) from the extrapolated density ``dens`` on the
    checked ``grid``: it is floored, clipped at 0 and rescaled to unit
    trapezoid mass by renorm.  Raises NonPositiveDensity if it dips below
    -_NEG_TOL * max(1, peak): genuine negativity at that scale means the
    transform was not that of a positive measure."""
    floor = -_NEG_TOL * max(1.0, float(dens.max(initial=0.0)))
    if dens.min() < floor:
        raise NonPositiveDensity(
            f"recovered density reaches {dens.min():.3e}, below {floor:.3e}")
    dens = np.clip(dens, 0.0, None)
    mass = float(np.trapezoid(dens, dx=grid[1] - grid[0]))
    if mass <= 0:
        raise NonPositiveDensity("recovered density has zero mass")
    renorm = 1.0 / mass
    spec = GridSpec(float(grid[0]), float(grid[-1]), grid.size)
    return LineMeasure(grid=spec, density=dens * renorm), renorm


def continued_density(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=_ETA_SEQUENCE, tol=_TOL, max_iter=_MAX_ITER):
    """The density of mu (+) nu on ``grid`` by Stieltjes inversion of the
    subordinated G, solved as a continuation in eta.

    ``grid`` must be increasing with uniform spacing, at least 8 points,
    and the heights distinct and positive; both are checked before any
    solve.  -Im G(t + i*eta)/pi is taken at each height and extrapolated
    to eta = 0 by the Lagrange rule; heights down to eta = 1e-4 are
    supported, and the extrapolation order covers the rest of the way.
    The first height is solved coarse to fine (``_first_height``); each
    later one starts at the previous height's omega1 + omega1' *
    i*(eta_new - eta_prev), raised to Im w >= eta_new if the predictor
    undershoots.  ``tol`` is the fixed-point tolerance of
    subordination_pairs, relaxed the same way where the map's rounding
    lies above it.  Returns (measure, renorm), renorm being the factor
    that rescaled the clipped density to unit mass (``_density``).
    """
    _require(LineMeasure, mu, nu)
    grid, etas, coeff = _heights(grid, eta_sequence)
    tol = real_above("tol", tol, _MIN_TOL, closed=True)
    max_iter = int_in_range("max_iter", max_iter, 1)
    dens = np.zeros(grid.size)
    for j, (c, eta) in enumerate(zip(coeff, etas)):
        z = grid + 1j * eta
        if j == 0:
            omega1, g, slope = _first_height(mu, nu, z, tol, max_iter)
        else:
            start = _above(omega1 + slope * (z - z_prev), z.imag)
            omega1, g, _, _, slope = _solve_omega1(mu, nu, z, start, tol,
                                                   max_iter)
        dens += c * (-np.imag(g) / np.pi)
        z_prev = z
    return _density(grid, dens)


def free_add_convolve(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=_ETA_SEQUENCE) -> LineMeasure:
    """Measure of the free additive convolution, densified on ``grid``.

    The density is ``continued_density``'s: Stieltjes inversion of
    G_{mu (+) nu}(z) = G_mu(omega1(z)) at the heights of ``eta_sequence``,
    extrapolated to eta = 0 and renormalised, with the heights solved as
    a predictor-corrector continuation in eta.  The default heights
    favor robustness when the convolution carries atoms (delta inputs),
    smearing them into bumps of the right mass; for smooth targets a
    much smaller sequence recovers the density to the solver floor.
    Atoms are not reconstructed as atoms.
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
    ``order`` is capped at 32, as ``LineMeasure.moment`` is: the sum's
    rounding grows like radius^k, and m_40 of sc (+) sc is 13% off.
    """
    _require(LineMeasure, mu, nu)
    order = int_in_range("order", order, 1, _MAX_MOMENT)
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
