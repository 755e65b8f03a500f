"""Analytic transforms of spectral measures, and the node-sum kernel.

Line measures get the Cauchy transform G(z) = integral 1/(z - t) dmu(t),
its reciprocal F = 1/G, and the shift h = F - z whose imaginary part is
nonnegative on the upper half plane.  Circle measures get the resolvent
K(g) = integral 1/(zeta - g) dnu(zeta) and the moment series
psi(z) = sum_{k>=1} m_k z^k together with eta = psi/(1 + psi).  Densities
are recovered from G by Stieltjes inversion in ``additive``, not here.

All evaluators are vectorized over the evaluation point.  Every one of
them, here and in the solvers of ``additive`` and ``multiplicative``,
reduces to ``_node_sums`` over a measure's table: S(x) = sum_j w_j/(x -
t_j) and S'(x) over the line nodes t_j or the unit nodes zeta_j, or, for
a family that carries its law, G and G' in closed form (``_law_sums``).

A measure of fewer than _PANEL_MIN nodes is summed directly.  A larger
one is summed by panels, the one-level form of the fast multipole method
(Greengard & Rokhlin, J. Comput. Phys. 73, 1987; Dutt, Gu & Rokhlin,
SIAM J. Numer. Anal. 33, 1996): its nodes are sorted and cut into
panels of _PANEL_NODES, and a panel far from x contributes a truncated
multipole series in place of its nodes.  The panels, their centres,
radii and series coefficients form the measure's node table
(``_node_table``), built once per orientation and held by the measure.
The kernel runs inline, chunk by chunk, so its temporaries stay
cache-sized for any grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroTransform, _complex_points
from .measures import CircleMeasure, LineMeasure, _Law, _require

_NODE_CLEARANCE = 1e-12
# complex reciprocals or powers formed per chunk of points: 512 KB, within L2
_CHUNK_ELEMENTS = 1 << 15
# from this many nodes on, panels of _PANEL_NODES beat the direct sum on a
# line (about 640); on the circle that happens only at 900 to 1500
_PANEL_MIN = 640
_PANEL_NODES = 128
# a panel of radius r is far from x when |x - c| > _FAR * r; its series
# then truncates after _TERMS terms at (1/_FAR)^_TERMS = 6.7e-18 relative
_FAR = 3.0
_TERMS = 36
# a panel radius below this one is raised to it, so that 1/r^2 stays
# finite and v^2 = (r/(x - c))^2 normal while |x - c| < 1e50
_MIN_RADIUS = 1e-100
# the running product's steps: v^1 .. v^k known, v^(k+1) .. v^(2k) formed
_DOUBLINGS = tuple(1 << j for j in range(_TERMS.bit_length()))


def _restore(values, scalar):
    return complex(values[()]) if scalar else values


@dataclass(frozen=True, eq=False)
class _NodeTable:
    """A measure's nodes and weights in the form ``_node_sums`` reads.

    A direct table holds the nodes and weights as (m,) arrays.  A panel
    table holds them as (P, L) arrays, sorted and cut into P panels of
    L or L - 1 nodes (a short panel repeats its last node at weight 0),
    with each panel's centre c, radius r and far-field reach _FAR * r,
    and ``coef``: the 2 by (_TERMS + 1) * P coefficients that turn the
    powers v^1 .. v^(_TERMS + 1), v = r/(x - c), of every panel into S
    and S'.  Every array is read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray
    centres: np.ndarray = None
    radii: np.ndarray = None
    reach: np.ndarray = None
    coef: np.ndarray = None


def _build_table(nodes, weights):
    """The node table of a quadrature, by whole-array operations."""
    if nodes.size < _PANEL_MIN:
        return _NodeTable(nodes, weights)
    m = nodes.size
    order = np.argsort(np.angle(nodes) if np.iscomplexobj(nodes) else nodes,
                       kind="stable")
    panels = -(-m // _PANEL_NODES)
    bounds = m * np.arange(panels + 1) // panels
    take = bounds[:-1, None] + np.arange(np.diff(bounds).max())
    stop = bounds[1:, None]
    at = order[np.minimum(take, stop - 1)]
    t = nodes[at]
    w = np.where(take < stop, weights[at], 0.0)
    centres = (t[:, 0] + t[:, -1]) / 2
    radii = np.maximum(np.abs(t - centres[:, None]).max(axis=1), _MIN_RADIUS)
    # scaled moments a_k = sum_j w_j ((t_j - c)/r)^k, k < _TERMS: |a_k| <= sum w
    delta = (t - centres[:, None]) / radii[:, None]
    powers = np.ones((panels, t.shape[1], _TERMS), dtype=delta.dtype)
    powers[..., 1:] = delta[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    moments = np.matmul(w[:, None, :], powers)[:, 0, :]
    # with v = r * u, u = 1/(x - c): S = u * sum_k a_k v^k = sum_k a_k v^(k+1)/r
    # and S' = -u^2 * sum_k (k + 1) a_k v^k = -sum_k (k + 1) a_k v^(k+2)/r^2
    k = np.arange(1, _TERMS + 1)
    coef = np.zeros((2, _TERMS + 1, panels), dtype=complex)
    coef[0, :-1] = moments.T / radii
    coef[1, 1:] = -k[:, None] * moments.T / radii**2
    tables = (t, w, centres, radii, _FAR * radii, coef.reshape(2, -1))
    for a in tables:
        a.setflags(write=False)
    return _NodeTable(*tables)


def _node_table(measure, conjugate=False):
    """The node table of ``measure``: its law if it has one, else over
    its line nodes, its unit nodes zeta or, with ``conjugate``, over conj
    zeta.  Built at first use and held by the measure, so every later
    call returns the same object."""
    if measure._law is not None:
        return measure._law
    name = "_conjugate_table" if conjugate else "_node_table"
    table = measure.__dict__.get(name)
    if table is None:
        nodes, weights = measure.quadrature()
        if isinstance(measure, CircleMeasure):
            nodes = measure.unit_nodes()
            nodes = nodes.conj() if conjugate else nodes
        table = _build_table(nodes, weights)
        object.__setattr__(measure, name, table)
    return table


def _chunk_sums(r, weights):
    """One chunk's S and S' from its differences r = x - t, (n, m), and
    the weights, (m,) or (n, m); r is overwritten."""
    pair = r.shape + (2,)  # real weights contract both parts in one product
    w = weights[..., None, :]
    np.reciprocal(r, out=r)
    s = np.matmul(w, r.view(float).reshape(pair))
    # numpy squares a lone element in place outside its vector loop,
    # which rounds differently, so that one is squared into a copy
    r = np.multiply(r, r, out=r if r.size > 1 else None)
    ds = np.matmul(w, r.view(float).reshape(pair))
    return s.view(complex)[:, 0, 0], np.negative(ds.view(complex)[:, 0, 0])


def _direct_sums(x, nodes, weights):
    """S and S' of the points x (n,) over shared nodes (m,) or each
    point's own (n, m), weights alike, summed node by node.

    r = 1/(x - t) is formed once per chunk of points, contracted with the
    weights, squared in place and contracted again.  The contraction is a
    stacked product w @ r_i over the rows, not one matrix-vector product
    over the chunk, so every point's sum runs in the same order whatever
    other points share the call.
    """
    n, m = x.size, nodes.shape[-1]
    rows = max(1, _CHUNK_ELEMENTS // m)
    if n <= rows:
        # one chunk needs no scratch buffer, and its products make the sums
        return _chunk_sums(x[:, None] - nodes, weights)
    shared = nodes.ndim == 1
    s = np.empty(n, dtype=complex)
    ds = np.empty(n, dtype=complex)
    buf = np.empty((rows, m), dtype=complex)
    for lo in range(0, n, rows):
        part = slice(lo, lo + rows)
        xs = x[part, None]
        r = np.subtract(xs, nodes if shared else nodes[part], out=buf[:xs.size])
        s[part], ds[part] = _chunk_sums(r, weights if shared else weights[part])
    return s, ds


def _panel_sums(x, table):
    """S and S' of the points x (n,) by the panels of ``table``.

    Each point takes the multipole series of its far panels, where
    |x - c| > _FAR * r, and sums its near panels' nodes directly.  Only
    far pairs form v = r/(x - c), |v| < 1/_FAR: a near pair's v is 0, so
    its powers and its part of the far sum are 0.  The powers v^1 ..
    v^(_TERMS + 1) come from a running product that doubles the known
    powers at each step, and one stacked product per point contracts
    them with the coefficients.  Which panels are near, and every
    operation on a point, depend on that point alone.
    """
    n = x.size
    panels = table.centres.size
    terms = _TERMS + 1
    rows = max(1, _CHUNK_ELEMENTS // (terms * panels))
    powers = np.empty((terms, min(n, rows), panels), dtype=complex)
    out = np.empty((n, 2, 1), dtype=complex)
    for lo in range(0, n, rows):
        xs = x[lo:lo + rows]
        d = xs[:, None] - table.centres
        far = np.abs(d) > table.reach
        pw = powers[:, :xs.size]   # pw[k] = v^(k+1)
        pw[0] = 0.0
        np.divide(table.radii, d, out=pw[0], where=far)
        for k in _DOUBLINGS:   # v^(k+1) .. v^(2k) = (v^1 .. v^k) * v^k
            np.multiply(pw[:min(k, terms - k)], pw[k - 1], out=pw[k:2 * k])
        by_point = pw.transpose(1, 0, 2).reshape(xs.size, -1, 1)
        np.matmul(table.coef, by_point, out=out[lo:lo + rows])
        if not far.all():
            at, panel = np.nonzero(~far)
            s, ds = _direct_sums(xs[at], table.nodes[panel], table.weights[panel])
            np.add.at(out[lo:lo + rows, 0, 0], at, s)
            np.add.at(out[lo:lo + rows, 1, 0], at, ds)
    return out[:, 0, 0], out[:, 1, 0]


def _law_sums(x, law):
    """G and G' of a family ``law`` at the points x (n,), in forms free of
    cancellation.  s = sqrt(x - a) * sqrt(x - b), a product of principal
    roots, is the branch of sqrt((x - a)(x - b)) with s ~ x - (a + b)/2
    off [a, b], so x - (a + b)/2 + s never cancels.  MP's p + s, with
    p = x + 1 - lam, cancels next to its atom at 0: G = (p - s)/(2x) there."""
    s = np.sqrt(x - law.a) * np.sqrt(x - law.b)
    if law.kind == "arcsine":   # centred at 0
        return 1.0 / s, -x / s**3
    if law.kind == "semicircle":
        g = 2.0 / (x - law.params[0] + s)
        return g, -g / s
    lam = law.params[0]
    p = x + (1.0 - lam)
    g = 2.0 / (p + s)
    atom = np.abs(p + s) < np.abs(p - s)
    g[atom] = (p - s)[atom] / (2.0 * x[atom])
    return g, -0.5 * g * g * (x - (1.0 + lam) + s) / s


def _node_sums(x, table):
    """S(x) = sum_j w_j/(x - t_j) and S'(x) = -sum_j w_j/(x - t_j)^2.

    The package's one quadrature kernel over a measure's ``_node_table``;
    the nodes may be real or complex, the weights are real.  For a law
    table, S and S' are G and G' in closed form.  A point's value does
    not depend on the points sharing its call.  Returns two arrays shaped
    like x.  No domain checks: callers keep x off the nodes.
    """
    x = np.asarray(x, dtype=complex)
    flat = x.reshape(-1)
    if isinstance(table, _Law):
        s, ds = _law_sums(flat, table)
    elif table.coef is None:
        s, ds = _direct_sums(flat, table.nodes, table.weights)
    else:
        s, ds = _panel_sums(flat, table)
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
    """Checked points of ``z`` (a line transform's one check) and G there;
    a law's [a, b] is off limits as a node is."""
    _require(LineMeasure, measure)
    pts = _complex_points("z", z)
    clearance = _NODE_CLEARANCE * max(1.0, measure.support_radius())
    nodes, table = measure.quadrature()[0], _node_table(measure)
    if isinstance(table, _Law):
        nodes = nodes[:len(measure.atoms)]
        if np.any(np.abs(pts - np.clip(pts.real, table.a, table.b)) < clearance):
            raise DomainError("evaluation point touches the support of the measure")
    # real nodes: |z - t| >= |Im z|
    _require_clear(pts, nodes, np.abs(pts.imag), clearance)
    return pts, pts.ndim == 0, _node_sums(pts, table)[0]


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
    s, ds = _node_sums(g, _node_table(measure, conjugate))
    return -s, -ds


def _circle_points(measure, z, name="z", conjugate=False):
    """Checked points of ``z``: a circle transform's one check."""
    _require(CircleMeasure, measure)
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
