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
Densities and moments of the convolution are derived from the
subordination evaluator.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DomainError, NoConvergence
from .measures import LineMeasure
from .transforms import _node_sums, cauchy_transform, stieltjes_invert

_DAMPING = 0.5
_NEWTON_HANDOFF = 1e-3
_HERGLOTZ_SLACK = 1e-10
_MIN_TOL = 1e-14  # a smaller residual is not resolvable in double precision
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
    g, gp = _node_sums(w, *measure.quadrature())
    return 1.0 / g - w, -gp / g**2 - 1.0


def _t_and_derivative(mu, nu, z, w):
    """T(w) = z + h_nu(z + h_mu(w)) and T'(w)."""
    hmu, dhmu = _h_and_derivative(mu, w)
    hnu, dhnu = _h_and_derivative(nu, z + hmu)
    return z + hnu, dhnu * dhmu


def _solve_omega1(mu, nu, z, tol, max_iter):
    """Vectorized fixed point of w -> z + h_nu(z + h_mu(w)).

    Returns (omega1, residual, iterations), shaped like z.  Newton steps
    (on the same analytic map, exact derivative) are attempted every
    iteration and accepted when they stay in the half plane and shrink
    the residual; damped Picard is the fallback.  Plain Picard alone is
    not enough: close to the real axis the fixed point can turn neutral
    -- at a square-root edge the multiplier tends to 1, and for atomic
    inputs the map approaches an elliptic Moebius rotation inside the
    support, where |T'| = 1 and iteration only spirals.  Newton is
    perfectly conditioned in both regimes.

    T is evaluated once per point and iteration in the common case: T at
    an accepted Newton candidate is the next iterate's T, so only a
    Picard step forces a fresh evaluation, and T(candidate) is skipped
    for a point that converges now with a residual below the handoff,
    where acceptance does not read it.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = z + 1j
    t_val = np.empty_like(z)
    tprime = np.empty_like(z)
    fresh = np.zeros(z.shape, dtype=bool)  # t_val, tprime hold T(w), T'(w)
    res = np.full(z.shape, np.inf)
    iters = np.zeros(z.shape, dtype=int)
    active = np.ones(z.shape, dtype=bool)

    for _ in range(max_iter):
        if not active.any():
            break
        stale = active & ~fresh
        if stale.any():
            t_val[stale], tprime[stale] = _t_and_derivative(
                mu, nu, z[stale], w[stale])
        za, wa = z[active], w[active]
        step = t_val[active] - wa
        res_a = np.abs(step)
        denom = tprime[active] - 1.0
        safe = np.abs(denom) > 1e-12
        cand = np.where(safe, wa - step / np.where(safe, denom, 1.0),
                        wa + _DAMPING * step)
        still = res_a > tol * np.maximum(1.0, np.abs(wa))
        need = still | (res_a >= _NEWTON_HANDOFF)
        t_cand = np.full_like(cand, np.nan)
        tp_cand = np.full_like(cand, np.nan)
        t_cand[need], tp_cand[need] = _t_and_derivative(
            mu, nu, za[need], cand[need])
        res_cand = np.abs(t_cand - cand)
        ok = safe & (cand.imag > za.imag - _HERGLOTZ_SLACK)
        # near the solution any in-domain Newton step is fine; further out
        # it must beat the current residual or Picard takes over
        ok &= (res_a < _NEWTON_HANDOFF) | (res_cand < 0.9 * res_a)
        w[active] = np.where(ok, cand, wa + _DAMPING * step)
        t_val[active], tprime[active] = t_cand, tp_cand
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
    return w.reshape(shape), res.reshape(shape), iters.reshape(shape)


def _check_tol(tol):
    if not _MIN_TOL <= tol < math.inf:
        raise BadParams(f"tol must be finite and >= {_MIN_TOL:g}, got {tol!r}")


def subordination_pair(mu: LineMeasure, nu: LineMeasure, z, tol=1e-13,
                       max_iter=500) -> SubordinationEval:
    """Solve the subordination pair at one point z with Im z > 0."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("evaluation point is not finite")
    if z.imag <= 0:
        raise DomainError("subordination requires Im z > 0")
    _check_tol(tol)
    w, _, iters = _solve_omega1(mu, nu, np.asarray([z]), tol, max_iter)
    omega1 = complex(w[0])
    g1 = complex(cauchy_transform(mu, omega1))
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


def convolve_cauchy(mu: LineMeasure, nu: LineMeasure, z, tol=1e-13,
                    max_iter=500):
    """G_{mu (+) nu} evaluated via subordination; vectorized over z."""
    pts = np.asarray(z, dtype=complex)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    if not np.all(np.isfinite(pts)):
        raise DomainError("evaluation point is not finite")
    if np.any(pts.imag <= 0):
        raise DomainError("convolve_cauchy requires Im z > 0")
    _check_tol(tol)
    w, _, _ = _solve_omega1(mu, nu, pts, tol, max_iter)
    g = np.asarray(cauchy_transform(mu, w))
    return complex(g[0]) if scalar else g


def free_add_convolve(mu: LineMeasure, nu: LineMeasure, grid,
                      eta_sequence=(1e-1, 3e-2, 1e-2)) -> LineMeasure:
    """Measure of the free additive convolution, densified on ``grid``.

    The density comes from stieltjes_invert applied to the subordinated
    Cauchy transform.  The default eta sequence favors robustness when
    the convolution carries atoms (delta inputs), smearing them into
    bumps of the right mass; for smooth targets a much smaller sequence
    recovers the density to the solver floor.  Atoms are not
    reconstructed as atoms.
    """
    measure, _ = stieltjes_invert(
        lambda zs: convolve_cauchy(mu, nu, zs), grid,
        eta_sequence=eta_sequence)
    return measure


def convolve_moments(mu: LineMeasure, nu: LineMeasure, order):
    """First ``order`` moments of mu (+) nu by contour integration.

    m_k = (1/2 pi i) * contour integral of z^k G(z) dz over a circle
    enclosing the support; with the subordinated G analytic outside the
    support the trapezoid rule on the circle converges geometrically.
    Node angles are offset by half a step so no node hits the real axis,
    and conjugate symmetry G(conj z) = conj G(z) halves the work.
    """
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
