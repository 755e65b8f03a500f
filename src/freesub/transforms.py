"""Analytic transforms of spectral measures.

Line measures get the Cauchy transform G(z) = integral 1/(z - t) dmu(t),
its reciprocal F = 1/G, and the shift h = F - z whose imaginary part is
nonnegative on the upper half plane.  Circle measures get the resolvent
K(g) = integral 1/(zeta - g) dnu(zeta) and the moment series
psi(z) = sum_{k>=1} m_k z^k together with eta = psi/(1 + psi).

All evaluators integrate the stored quadrature data exactly and are
vectorized over the evaluation point.  Every one of them, here and in
the solvers of ``additive`` and ``multiplicative``, reduces to the one
node-sum kernel ``_node_sums``: S(x) = sum_j w_j/(x - t_j) together with
S'(x), with the line nodes t_j or the unit-circle nodes zeta_j.  The
kernel works through the points in chunks of about _CHUNK_ELEMENTS
reciprocals, so its temporary stays cache-sized for any grid.
"""

import numpy as np

from .errors import (BadParams, DomainError, NonPositiveDensity, ZeroTransform,
                     _complex_points, real_above)
from .measures import CircleMeasure, GridSpec, LineMeasure

_NODE_CLEARANCE = 1e-12
# complex reciprocals formed per chunk of points: 512 KB, within L2
_CHUNK_ELEMENTS = 1 << 15


def _as_points(z, name="z"):
    pts = _complex_points(name, z)
    return pts, pts.ndim == 0


def _restore(values, scalar):
    return complex(values[()]) if scalar else values


def _node_sums(x, nodes, weights):
    """S(x) = sum_j w_j/(x - t_j) and S'(x) = -sum_j w_j/(x - t_j)^2.

    The package's one quadrature kernel; ``nodes`` may be real or
    complex, ``weights`` are real.  r = 1/(x - t) is formed once per
    chunk of points, contracted with the weights, squared in place and
    contracted again.  The contraction is a stacked product w @ r_i over
    the rows, not one matrix-vector product over the chunk, so every
    point's sum runs in the same order whatever other points share the
    call: a value does not depend on its batch.  Returns two arrays
    shaped like x.  No domain checks: callers keep x off the nodes.
    """
    x = np.asarray(x, dtype=complex)
    flat = x.reshape(-1)
    n, m = flat.size, nodes.size
    rows = max(1, _CHUNK_ELEMENTS // m)
    s = np.empty(n, dtype=complex)
    ds = np.empty(n, dtype=complex)
    # (re, im) float views: real weights contract both parts in one product
    s_pairs = s.view(float).reshape(n, 2)
    ds_pairs = ds.view(float).reshape(n, 2)
    buf = np.empty((min(rows, n), m), dtype=complex)
    for lo in range(0, n, rows):
        xs = flat[lo:lo + rows]
        r = buf[:xs.size]
        np.subtract(xs[:, None], nodes, out=r)
        np.reciprocal(r, out=r)
        np.matmul(weights, r.view(float).reshape(xs.size, m, 2),
                  out=s_pairs[lo:lo + rows])
        # numpy squares a lone element in place outside its vector loop,
        # which rounds differently, so that one is squared into a copy
        r = np.multiply(r, r, out=r if r.size > 1 else None)
        np.matmul(weights, r.view(float).reshape(xs.size, m, 2),
                  out=ds_pairs[lo:lo + rows])
    np.negative(ds, out=ds)
    return s.reshape(x.shape), ds.reshape(x.shape)


def _require_clear(pts, nodes, gap, clearance):
    """Reject non-finite points and points within ``clearance`` of a node.

    ``gap`` bounds each point's distance to every node from below, so
    only the points with gap < clearance are compared node by node.
    """
    if not np.all(np.isfinite(pts)):
        raise DomainError("evaluation point is not finite")
    close = gap < clearance
    if np.any(close) and np.any(
            np.abs(pts[close][:, None] - nodes) < clearance):
        raise DomainError("evaluation point touches a quadrature node of the measure")


def cauchy_transform(measure: LineMeasure, z):
    """G(z) = integral 1/(z - t) dmu(t); z off the support, vectorized."""
    if not isinstance(measure, LineMeasure):
        raise BadParams("cauchy_transform expects a LineMeasure")
    pts, scalar = _as_points(z)
    t, w = measure.quadrature()
    clearance = _NODE_CLEARANCE * max(1.0, measure.support_radius())
    # real nodes: |z - t| >= |Im z|
    _require_clear(pts, t, np.abs(pts.imag), clearance)
    return _restore(_node_sums(pts, t, w)[0], scalar)


def reciprocal_cauchy(measure: LineMeasure, z):
    """F(z) = 1/G(z)."""
    g = np.asarray(cauchy_transform(measure, z))
    if np.any(np.abs(g) < 1e-300):
        raise ZeroTransform("Cauchy transform vanishes at an evaluation point")
    pts, scalar = _as_points(z)
    return _restore(1.0 / g, scalar)


def h_transform(measure: LineMeasure, z):
    """h(z) = F(z) - z; maps the upper half plane into its closure."""
    pts, scalar = _as_points(z)
    f = np.asarray(reciprocal_cauchy(measure, pts))
    return _restore(f - pts, scalar)


def circle_cauchy(measure: CircleMeasure, g):
    """K(g) = integral 1/(zeta - g) dnu(zeta); g off the unit circle."""
    if not isinstance(measure, CircleMeasure):
        raise BadParams("circle_cauchy expects a CircleMeasure")
    pts, scalar = _as_points(g, "g")
    zeta = measure.unit_nodes()
    _, w = measure.quadrature()
    # unit nodes: |zeta - g| >= ||g| - 1|
    _require_clear(pts, zeta, np.abs(np.abs(pts) - 1.0), _NODE_CLEARANCE)
    return _restore(-_node_sums(pts, zeta, w)[0], scalar)


def psi_transform(measure: CircleMeasure, z):
    """Moment series psi(z) = sum_{k>=1} m_k z^k inside the unit disk.

    Uses psi(z) = -1 - K(1/z)/z, which continues the series to any z
    with |z| != 1; psi(0) = 0.
    """
    pts, scalar = _as_points(z)
    out = np.zeros(pts.shape, dtype=complex)
    nz = np.abs(pts) > 1e-300
    if np.any(nz):
        zz = pts[nz]
        out[nz] = -1.0 - np.asarray(circle_cauchy(measure, 1.0 / zz)) / zz
    return _restore(out, scalar)


def eta_transform(measure: CircleMeasure, z):
    """eta(z) = psi(z)/(1 + psi(z)), the moment-generating ratio."""
    pts, scalar = _as_points(z)
    psi = np.asarray(psi_transform(measure, pts))
    denom = 1.0 + psi
    if np.any(np.abs(denom) < 1e-14 * (1.0 + np.abs(psi))):
        raise ZeroTransform("1 + psi vanishes at an evaluation point")
    return _restore(psi / denom, scalar)


def _lagrange_at_zero(etas):
    etas = np.asarray(etas, dtype=float)
    coeff = np.empty(etas.size)
    for j in range(etas.size):
        others = np.delete(etas, j)
        coeff[j] = np.prod(others / (others - etas[j]))
    return coeff


def stieltjes_invert(g_eval, grid, eta_sequence=(4e-4, 2e-4, 1e-4),
                     neg_tol=1e-3):
    """Recover a density from a Cauchy-transform evaluator.

    ``g_eval(z)`` must accept a complex vector in the upper half plane.
    The smoothed density -Im G(t + i*eta)/pi is computed for each eta in
    the sequence and extrapolated to eta = 0 with the Lagrange rule.
    Heights down to eta = 1e-4 are supported; the extrapolation order
    covers the rest of the way.

    ``grid`` must be increasing with uniform spacing and the heights
    distinct; both are checked before anything is evaluated.

    Returns (measure, renorm) where renorm is the factor that rescaled
    the clipped density to unit mass.  Raises NonPositiveDensity if the
    extrapolated density dips below -neg_tol * max(1, peak): genuine
    negativity at that scale means the evaluator was not a Cauchy
    transform of a positive measure.
    """
    neg_tol = real_above("neg_tol", neg_tol, 0.0, closed=True)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise BadParams("grid must be a 1-d array with at least 8 points")
    step = grid[1] - grid[0]
    if not (step > 0 and np.all(np.abs(np.diff(grid) - step) <= 1e-6 * step)):
        raise BadParams("grid must be increasing with uniform spacing")
    etas = np.asarray(eta_sequence, dtype=float)
    if (etas.ndim != 1 or etas.size == 0
            or not np.all(np.isfinite(etas) & (etas > 0))
            or np.unique(etas).size < etas.size):
        raise BadParams("eta_sequence must be a sequence of distinct finite "
                        "positive heights")
    coeff = _lagrange_at_zero(etas)
    dens = np.zeros(grid.size)
    for c, eta in zip(coeff, etas):
        g = np.asarray(g_eval(grid + 1j * eta), dtype=complex)
        dens += c * (-np.imag(g) / np.pi)
    floor = -neg_tol * max(1.0, float(dens.max(initial=0.0)))
    if dens.min() < floor:
        raise NonPositiveDensity(
            f"recovered density reaches {dens.min():.3e}, below {floor:.3e}")
    dens = np.clip(dens, 0.0, None)
    mass = float(np.trapezoid(dens, dx=step))
    if mass <= 0:
        raise NonPositiveDensity("recovered density has zero mass")
    renorm = 1.0 / mass
    spec = GridSpec(float(grid[0]), float(grid[-1]), grid.size)
    return LineMeasure(grid=spec, density=dens * renorm), renorm
