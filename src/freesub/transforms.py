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
reciprocals, so its temporary stays cache-sized for any grid.  A call
with enough chunks splits them over the process's usable cores (its CPU
affinity), in runs of whole chunks on a thread pool created at first
use; numpy releases the interpreter lock inside its loops and products.
Every chunk is the one a single-threaded run forms, so the bits match
that run's, and no setting exists: smaller calls, and every call on one
usable core, run inline.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import (BadParams, DomainError, NonPositiveDensity, ZeroTransform,
                     _complex_points)
from .measures import CircleMeasure, GridSpec, LineMeasure

_NODE_CLEARANCE = 1e-12
# stieltjes_invert rejects a density below -_NEG_TOL * max(1, peak)
_NEG_TOL = 1e-3
# complex reciprocals formed per chunk of points: 512 KB, within L2
_CHUNK_ELEMENTS = 1 << 15
# fewest chunks worth a thread's round trip: a call splits from twice this
_MIN_SHARE = 2


def _restore(values, scalar):
    return complex(values[()]) if scalar else values


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The node-sum thread pool, created at first use.

    The calling thread runs one share of a split itself, so the pool
    holds one thread fewer than the usable cores.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _usable_cores() - 1),
                                       thread_name_prefix="freesub-node-sums")
        return _pool


def _forget_pool():
    # a forked child has none of its parent's pool threads: it builds its own
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _chunk_sums(flat, nodes, weights, rows, buf, s_pairs, ds_pairs):
    """Fill the sums of the points ``flat``, ``rows`` points a chunk."""
    m = nodes.size
    for lo in range(0, flat.size, rows):
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

    A call of at least 2 * _MIN_SHARE chunks splits them over up to
    _usable_cores() threads, each taking a run of at least _MIN_SHARE
    whole chunks into its own buffer; the calling thread takes the
    first run.  The chunks start at the same multiples of ``rows`` as
    inline, so the bits are those of a single-threaded run.  Each
    thread runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there: a point on a node raises or warns as
    it does inline.
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
    chunks = -(-n // rows)
    shares = 1
    if chunks >= 2 * _MIN_SHARE:
        shares = min(_usable_cores(), chunks // _MIN_SHARE)
    if shares == 1:
        buf = np.empty((min(rows, n), m), dtype=complex)
        _chunk_sums(flat, nodes, weights, rows, buf, s_pairs, ds_pairs)
    else:
        ends = [min(n, rows * (chunks * k // shares))
                for k in range(shares + 1)]
        bufs = np.empty((shares, rows, m), dtype=complex)

        def share(k):
            part = slice(ends[k], ends[k + 1])
            return (flat[part], nodes, weights, rows, bufs[k], s_pairs[part],
                    ds_pairs[part])

        pool = _executor()
        futures = [pool.submit(contextvars.copy_context().run, _chunk_sums,
                               *share(k)) for k in range(1, shares)]
        try:
            _chunk_sums(*share(0))
        finally:
            wait(futures)
        for f in futures:
            f.result()
    np.negative(ds, out=ds)
    return s.reshape(x.shape), ds.reshape(x.shape)


def _require_clear(pts, nodes, gap, clearance):
    """Reject points within ``clearance`` of a node.

    ``gap`` bounds each point's distance to every node from below, so
    only the points with gap < clearance are compared node by node.
    """
    close = gap < clearance
    if np.any(close) and np.any(
            np.abs(pts[close][:, None] - nodes) < clearance):
        raise DomainError("evaluation point touches a quadrature node of the measure")


def _line_cauchy(measure, z):
    """Checked points of ``z`` (a line transform's one check) and G there."""
    if not isinstance(measure, LineMeasure):
        raise BadParams("the line transforms take a LineMeasure")
    pts = _complex_points("z", z)
    t, w = measure.quadrature()
    clearance = _NODE_CLEARANCE * max(1.0, measure.support_radius())
    # real nodes: |z - t| >= |Im z|
    _require_clear(pts, t, np.abs(pts.imag), clearance)
    return pts, pts.ndim == 0, _node_sums(pts, t, w)[0]


def _reciprocal(g):
    if np.any(np.abs(g) < 1e-300):
        raise ZeroTransform("Cauchy transform vanishes at an evaluation point")
    return 1.0 / g


def cauchy_transform(measure: LineMeasure, z):
    """G(z) = integral 1/(z - t) dmu(t); z off the support, vectorized."""
    _, scalar, g = _line_cauchy(measure, z)
    return _restore(g, scalar)


def reciprocal_cauchy(measure: LineMeasure, z):
    """F(z) = 1/G(z)."""
    _, scalar, g = _line_cauchy(measure, z)
    return _restore(_reciprocal(g), scalar)


def h_transform(measure: LineMeasure, z):
    """h(z) = F(z) - z; maps the upper half plane into its closure."""
    pts, scalar, g = _line_cauchy(measure, z)
    return _restore(_reciprocal(g) - pts, scalar)


def _circle_cauchy(measure, g, conjugate=False):
    """K(g) and K'(g) = integral 1/(zeta - g)^2 dnu from one node sum,
    unchecked.  Over the conjugate nodes they are c(g) = conj K(conj g)
    = integral zeta/(1 - g*zeta) dnu and c'(g); psi(z) = z*c(z) and
    eta(z)/z = c/(1 + z*c), with c(0) = m_1, neither cancel nor divide
    by z."""
    zeta = measure.unit_nodes()
    s, ds = _node_sums(g, zeta.conj() if conjugate else zeta,
                       measure.quadrature()[1])
    return -s, -ds


def _circle_points(measure, z, name="z", conjugate=False):
    """Checked points of ``z``: a circle transform's one check."""
    if not isinstance(measure, CircleMeasure):
        raise BadParams("the circle transforms take a CircleMeasure")
    pts = _complex_points(name, z)
    # unit nodes: |zeta - g| >= ||g| - 1|; |g - conj zeta| = |conj g - zeta|
    _require_clear(pts.conj() if conjugate else pts, measure.unit_nodes(),
                   np.abs(np.abs(pts) - 1.0), _NODE_CLEARANCE)
    return pts, pts.ndim == 0


def circle_cauchy(measure: CircleMeasure, g):
    """K(g) = integral 1/(zeta - g) dnu(zeta); g off the unit circle."""
    pts, scalar = _circle_points(measure, g, "g")
    return _restore(_circle_cauchy(measure, pts)[0], scalar)


def psi_transform(measure: CircleMeasure, z):
    """Moment series psi(z) = sum_{k>=1} m_k z^k inside the unit disk.

    Uses psi(z) = z * conj K(conj z), which continues the series to any
    z with |z| != 1 at full relative accuracy, down to psi(0) = 0.
    """
    pts, scalar = _circle_points(measure, z, conjugate=True)
    return _restore(pts * _circle_cauchy(measure, pts, True)[0], scalar)


def eta_transform(measure: CircleMeasure, z):
    """eta(z) = psi(z)/(1 + psi(z)), the moment-generating ratio."""
    pts, scalar = _circle_points(measure, z, conjugate=True)
    psi = pts * _circle_cauchy(measure, pts, True)[0]
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


def stieltjes_invert(g_eval, grid, eta_sequence):
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
    extrapolated density dips below -_NEG_TOL * max(1, peak): genuine
    negativity at that scale means the evaluator was not a Cauchy
    transform of a positive measure.
    """
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
    floor = -_NEG_TOL * max(1.0, float(dens.max(initial=0.0)))
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
