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
which splits a large call over the usable cores with the bits of a
single-threaded run and no setting.  Each evaluation of the map at a
Newton candidate is kept: once the candidate is accepted it is the next
iterate's value and derivative.
G_mu(omega1), which is G_{mu (+) nu}(z), comes out of the solve with no
further node sum.  ``subordination_pairs`` solves the pair at a batch of
points, and ``subordination_pair`` is its one-point form.

Densities are solved as a predictor-corrector continuation along the
line t + i*eta (Euler predictor, Newton corrector: Allgower and Georg,
Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2): the
solve also returns the tangent omega1'(z) = (1 + h_nu') / (1 - T') from
the factors of its last evaluation, so every start is predicted from
values already solved (``continued_density``).  The fixed point attracts
every start in the half plane above z, so the start changes the
iteration count and not the answer.  Points off a line (moment
contours, subordination tables) start cold at z + i.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NoConvergence, _complex_points,
                     int_in_range, real_above)
from .measures import LineMeasure
from .transforms import _node_sums, cauchy_transform, stieltjes_invert

_DAMPING = 0.5
_NEWTON_HANDOFF = 1e-3
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
    """T(w) = z + h_nu(z + h_mu(w)) and T'(w), with G_mu(w), G_mu'(w) and
    h_nu'(z + h_mu(w))."""
    hmu, dhmu, gmu, dgmu = _h_and_derivative(mu, w)
    hnu, dhnu, _, _ = _h_and_derivative(nu, z + hmu)
    return z + hnu, dhnu * dhmu, gmu, dgmu, dhnu


def _solve_omega1(mu, nu, z, start, tol, max_iter):
    """Vectorized fixed point of w -> z + h_nu(z + h_mu(w)) from ``start``.

    Returns (omega1, G_mu(omega1), residual, iterations, slope), shaped
    like z.  ``start`` must lie in the closed half plane above z; the
    cold start is z + i.  Newton steps (on the same analytic map, exact
    derivative) are attempted every iteration and accepted when they
    stay in the half plane and shrink the residual; damped Picard is the
    fallback.  Plain Picard alone is not enough: close to the real axis
    the fixed point can turn neutral -- at a square-root edge the
    multiplier tends to 1, and for atomic inputs the map approaches an
    elliptic Moebius rotation inside the support, where |T'| = 1 and
    iteration only spirals.  Newton is perfectly conditioned in both
    regimes.

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

    The loop iterates only the open points.  After each residual check
    the points that meet their limit write their results at their index
    in the batch and leave; every working array is cut to the rest.  T
    is evaluated once per iteration, at the open points' candidates: an
    accepted Newton candidate's T is the next iterate's, and only the
    points that take a Picard step are evaluated again, at their new
    iterate.  Each point's arithmetic runs in the same order whatever
    shares its batch, so its five results are the same bits when it is
    solved alone.  A point whose residual meets the tolerance takes one
    last step without evaluating T there; its G_mu is carried along that
    step to first order by the exact G_mu' of the last evaluation.  The
    step corrects a residual already below tol, so the carried value
    matches a node sum at omega1 to second order in it, and none is made.

    ``slope`` is the tangent omega1'(z) = (1 + h_nu') / (1 - T') of the
    implicit function theorem, both factors from that same last
    evaluation, so it too costs no node sum.  Where 1 - T' is too close
    to 0 to divide by (T' -> 1 at a square-root edge) or the quotient is
    not finite, ``slope`` is 1, the slope of the plain shift w + dz.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(start, dtype=complex).reshape(-1)
    omega1, g_out, tp_out, dh_out = np.empty((4, z.size), dtype=complex)
    res_out = np.empty(z.size)
    iters = np.empty(z.size, dtype=int)
    at = np.arange(z.size)  # each open point's index in the batch
    t_val, tprime, g_mu, dg_mu, dh_nu = _t_and_derivative(mu, nu, z, w)
    for it in range(max_iter):
        step = t_val - w
        res = np.abs(step)
        denom = tprime - 1.0
        safe = np.abs(denom) > 1e-12
        picard = w + _DAMPING * step
        cand = np.where(safe, w - step / np.where(safe, denom, 1.0), picard)
        size = np.abs(w)
        limit = tol * np.maximum(1.0, size)
        if it >= _FLOOR_AFTER:
            # the rounding of T: h_mu's 1/G_mu - w cancels, and h_nu'
            # amplifies what is left
            floor = _ROUNDING * (1.0 + np.abs(dh_nu)) * (
                size + np.abs(1.0 / g_mu) + np.abs(z))
            limit = np.maximum(limit,
                               np.minimum(floor, _ROUNDING_CAP * limit))
        ok = safe & (cand.imag > z.imag - _HERGLOTZ_SLACK)
        near = res < _NEWTON_HANDOFF
        # a NaN residual never converges: it ends in NoConvergence
        done = res <= limit
        if done.any():
            # the last step is not evaluated: G_mu is carried along it by
            # G_mu', and T' and h_nu' stay those of the last evaluation
            fin = np.where(ok[done] & near[done], cand[done], picard[done])
            out = at[done]
            omega1[out] = fin
            g_out[out] = g_mu[done] + dg_mu[done] * (fin - w[done])
            res_out[out], iters[out] = res[done], it + 1
            tp_out[out], dh_out[out] = tprime[done], dh_nu[done]
            keep = ~done
            at = at[keep]
            if at.size:
                z, w, res, cand, picard, ok, near = (
                    a[keep] for a in (z, w, res, cand, picard, ok, near))
        if not at.size:
            break
        t_val, tprime, g_mu, dg_mu, dh_nu = _t_and_derivative(mu, nu, z, cand)
        # near the solution any in-domain Newton step is fine; further out
        # it must beat the current residual or Picard takes over
        ok &= near | (np.abs(t_val - cand) < 0.9 * res)
        w = np.where(ok, cand, picard)
        if not ok.all():
            back = ~ok
            (t_val[back], tprime[back], g_mu[back], dg_mu[back],
             dh_nu[back]) = _t_and_derivative(mu, nu, z[back], w[back])
    if at.size:
        worst = np.argmax(res)
        bad_z = complex(z[worst])
        raise NoConvergence(
            f"subordination fixed point stalled at {at.size} point(s); "
            f"worst residual {res[worst]:.3e} at z = {bad_z}",
            iterations=max_iter,
            residual=float(res[worst]),
            point=bad_z,
        )
    usable = np.abs(1.0 - tp_out) > _SLOPE_FLOOR
    slope = (1.0 + dh_out) / np.where(usable, 1.0 - tp_out, 1.0)
    slope[~(usable & np.isfinite(slope))] = 1.0
    return (omega1.reshape(shape), g_out.reshape(shape),
            res_out.reshape(shape), iters.reshape(shape), slope.reshape(shape))


def _upper_points(z, who, scalar=False):
    """z as a complex array, or one complex if ``scalar``, every point
    finite with Im z > 0."""
    pts = _complex_points("z", z, scalar)
    if np.any(np.imag(pts) <= 0):
        raise DomainError(f"{who} requires Im z > 0")
    return pts


def _pairs(mu, nu, z, tol, max_iter):
    """subordination_pairs at the checked 1-d points z."""
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
    pts = _upper_points(z, "convolve_cauchy")
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    _, g, _, _, _ = _solve_omega1(mu, nu, pts, pts + 1j, _TOL, _MAX_ITER)
    return complex(g[0]) if scalar else g


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


def continued_density(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=_ETA_SEQUENCE, tol=_TOL, max_iter=_MAX_ITER):
    """stieltjes_invert of G_{mu (+) nu}, solved as a continuation in eta.

    The heights of ``eta_sequence`` are solved in order on the same grid,
    as an Euler-predictor / Newton-corrector continuation (Allgower and
    Georg, Introduction to Numerical Continuation Methods, ch. 2): each
    start is predicted from omega1 and its tangent omega1' where they are
    already solved, and ``_solve_omega1`` corrects it.  The first height
    is solved coarse to fine (``_first_height``); each later one starts at
    the previous height's omega1 + omega1' * i*(eta_new - eta_prev).
    Every start is raised to Im w >= eta_new if the predictor undershoots,
    and the fixed point attracts from anywhere in the half plane above z,
    so the start changes the iteration count and not the limit.  ``tol``
    is the fixed-point tolerance of subordination_pairs, relaxed the same
    way where the map's rounding lies above it.  Returns
    stieltjes_invert's (measure, renorm).
    """
    tol = real_above("tol", tol, _MIN_TOL, closed=True)
    max_iter = int_in_range("max_iter", max_iter, 1)
    last = None

    def g_eval(zs):
        nonlocal last
        if last is None:
            omega1, g, slope = _first_height(mu, nu, zs, tol, max_iter)
        else:
            z0, w0, slope0 = last
            start = _above(w0 + slope0 * (zs - z0), zs.imag)
            omega1, g, _, _, slope = _solve_omega1(mu, nu, zs, start, tol,
                                                   max_iter)
        last = (zs, omega1, slope)
        return g

    return stieltjes_invert(g_eval, grid, eta_sequence=eta_sequence)


def free_add_convolve(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=_ETA_SEQUENCE) -> LineMeasure:
    """Measure of the free additive convolution, densified on ``grid``.

    The density comes from stieltjes_invert applied to the subordinated
    Cauchy transform, with the heights solved as a predictor-corrector
    continuation (``continued_density``): the first height coarse to
    fine, each later one from the previous height's omega1 and its
    tangent.  The default eta sequence favors robustness when the
    convolution carries atoms (delta inputs), smearing them into bumps
    of the right mass; for smooth targets a much smaller sequence
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
