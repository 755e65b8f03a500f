"""The node-sum kernel shared by every transform and solver."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesub.additive as additive
from freesub import (CircleMeasure, GridSpec, LineMeasure, arcsine,
                     bernoulli_pm1, cauchy_transform, convolve_cauchy,
                     free_add_convolve, haar_circle, semicircle)
from freesub.transforms import (_CHUNK_ELEMENTS, _PANEL_MIN, _TERMS,
                                _node_sums, _node_table)

# S and S' stay within _BOUND * eps * sum_j w_j |x - t_j|^-k (k = 1, 2) of
# an exact sum.  A sweep of 600 random measures of the kind ``measures``
# draws, 200 points each, and 40 line and circle families of 256-2048
# nodes, 500 points each, against 80-bit sums read at most 7.4 eps for S
# and 6.5 eps for S' (panels), 5.4 and 4.9 eps (direct sums): a margin of
# 2.2 or more.
_BOUND = 16


def _gridded(measure):
    """A law-free copy of a family measure: the same atoms, grid and
    density, summed by the node kernel, not the family's closed form."""
    return LineMeasure(atoms=measure.atoms, grid=measure.grid,
                       density=measure.density)


def _naive(x, nodes, weights):
    diff = np.asarray(x, dtype=complex)[..., None] - nodes
    return (np.sum(weights / diff, axis=-1),
            -np.sum(weights / diff**2, axis=-1),
            np.sum(weights / np.abs(diff), axis=-1),
            np.sum(weights / np.abs(diff) ** 2, axis=-1))


@st.composite
def measures(draw):
    """A line or circle measure with 1..2048 quadrature nodes: atoms, a
    grid, or a few atoms next to a grid, whose nodes then come unsorted."""
    n = draw(st.integers(1, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circle = draw(st.booleans())
    kind = (CircleMeasure if circle else LineMeasure)
    span = 2 * np.pi if circle else 6.0
    form = draw(st.sampled_from(["atoms", "grid", "grid and atoms"]))
    if form == "atoms":
        weights = rng.random(n) + 0.01
        weights /= weights.sum()
        return kind(atoms=tuple(zip(rng.uniform(0.0, span, n), weights)))
    n = max(n, 8)
    if circle:
        grid = GridSpec(0.0, 2 * np.pi, n)
        density = rng.random(n) + 0.01
        density /= density.sum() * 2 * np.pi / n
    else:
        lo = rng.uniform(-3.0, 0.0)
        grid = GridSpec(lo, lo + rng.uniform(0.5, 4.0), n)
        density = rng.random(n) + 0.01
        density /= np.sum(grid.trapezoid_weights() * density)
    atoms = ()
    if form == "grid and atoms":
        share = rng.uniform(0.05, 0.5)
        weights = rng.random(rng.integers(1, 6)) + 0.01
        weights *= share / weights.sum()
        lo, hi = (0.0, span) if circle else (grid.lo - 0.5, grid.hi + 0.5)
        atoms = tuple(zip(rng.uniform(lo, hi, weights.size), weights))
        density = density * (1.0 - share)
    return kind(atoms=atoms, grid=grid, density=density)


def _quadrature(measure):
    t, w = measure.quadrature()
    return (measure.unit_nodes(), w) if isinstance(measure, CircleMeasure) else (t, w)


def _points(measure, rng, size):
    if isinstance(measure, CircleMeasure):
        radius = np.where(rng.random(size) < 0.5, rng.uniform(0.0, 0.98, size),
                          rng.uniform(1.02, 3.0, size))
        return radius * np.exp(2j * np.pi * rng.random(size))
    return rng.uniform(-4.0, 4.0, size) + 1j * (
        rng.choice([-1.0, 1.0], size) * rng.uniform(1e-3, 2.0, size))


def _chunk_rows(table):
    """Points per chunk of the kernel's direct or panel sum."""
    if table.coef is None:
        return max(1, _CHUNK_ELEMENTS // table.nodes.size)
    return max(1, _CHUNK_ELEMENTS // ((_TERMS + 1) * table.centres.size))


@settings(max_examples=60, deadline=None)
@given(measure=measures(), data=st.data())
def test_kernel_matches_naive_sum(measure, data):
    nodes, weights = _quadrature(measure)
    table = _node_table(measure)
    rows = _chunk_rows(table)
    # point counts around chunk multiples, and 0-d and 2-D shapes
    count = data.draw(st.sampled_from([0, 1, rows - 1, rows + 1, 2 * rows + 3,
                                       4 * rows + 5]))
    shapes = [(count,)]
    if count == 1:
        shapes.append(())
    if count % 2 == 0:
        shapes.append((count // 2, 2))
    shape = data.draw(st.sampled_from(shapes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(shape, dtype=int))
    x = _points(measure, rng, size).reshape(shape)

    s, ds = _node_sums(x, table)
    ref_s, ref_ds, scale_s, scale_ds = _naive(x, nodes, weights)
    assert s.shape == ds.shape == np.shape(x)
    # relative to sum_j w_j |x - t_j|^-k, the size of the summands
    assert np.all(np.abs(s - ref_s) <= 1e-12 * scale_s)
    assert np.all(np.abs(ds - ref_ds) <= 1e-12 * scale_ds)
    # a point's value does not depend on the points sharing its call
    flat = x.reshape(-1)
    for i in rng.choice(size, size=min(size, 3), replace=False):
        one_s, one_ds = _node_sums(flat[i], table)
        assert one_s == s.reshape(-1)[i] and one_ds == ds.reshape(-1)[i]


def _exact_sums(x, nodes, weights):
    """S, S' and sum_j w_j |x - t_j|^-k, k = 1, 2, summed in 30 digits."""
    with mpmath.workdps(30):
        r = [1 / (mpmath.mpc(x) - mpmath.mpc(t)) for t in nodes]
        ws = [mpmath.mpf(w) for w in weights]
        return tuple(complex(v) for v in (
            mpmath.fsum(w * q for w, q in zip(ws, r)),
            -mpmath.fsum(w * q * q for w, q in zip(ws, r)),
            mpmath.fsum(w * abs(q) for w, q in zip(ws, r)),
            mpmath.fsum(w * abs(q) ** 2 for w, q in zip(ws, r))))


@settings(max_examples=30, deadline=None)
@given(measure=measures(), seed=st.integers(0, 2**32 - 1))
def test_kernel_holds_its_bound_against_an_exact_sum(measure, seed):
    # the panel sum (256 nodes or more) and the direct sum alike; a
    # point's bits are the same alone and in a batch
    nodes, weights = _quadrature(measure)
    table = _node_table(measure)
    assert (table.coef is None) == (nodes.size < _PANEL_MIN)
    rng = np.random.default_rng(seed)
    x = _points(measure, rng, 40)
    s, ds = _node_sums(x, table)
    eps = np.finfo(float).eps
    for i in (0, 1):
        exact_s, exact_ds, scale_s, scale_ds = _exact_sums(x[i], nodes, weights)
        assert abs(s[i] - exact_s) <= _BOUND * eps * scale_s.real
        assert abs(ds[i] - exact_ds) <= _BOUND * eps * scale_ds.real
        one_s, one_ds = _node_sums(x[i], table)
        assert one_s == s[i] and one_ds == ds[i]


def test_kernel_empty_and_scalar_shapes():
    table = _node_table(bernoulli_pm1())
    s, ds = _node_sums(np.empty((0, 3), dtype=complex), table)
    assert s.shape == ds.shape == (0, 3)
    s, ds = _node_sums(2j, table)
    assert s.shape == () and abs(complex(s) - 2j / ((2j) ** 2 - 1)) <= 1e-15
    for measure in (semicircle(0, 1), _gridded(semicircle(0, 1))):
        s, ds = _node_sums(np.empty(0, dtype=complex), _node_table(measure))
        assert s.shape == ds.shape == (0,)


def test_node_table_is_stored_once():
    # one read-only table per measure and orientation, built at first use
    for measure in (_gridded(semicircle(0, 1)), bernoulli_pm1(),
                    haar_circle(n=700)):
        for conjugate in ((False, True) if isinstance(measure, CircleMeasure)
                          else (False,)):
            table = _node_table(measure, conjugate)
            assert _node_table(measure, conjugate) is table
            arrays = [a for a in vars(table).values() if a is not None]
            assert arrays and not any(a.flags.writeable for a in arrays)
    circle = haar_circle(n=700)
    assert _node_table(circle) is not _node_table(circle, True)


def _cluster(spread):
    # 700 atoms within ``spread`` of each other: at 1e-9 from them an
    # unscaled u^37 = 1/(x - c)^37 overflows; at spread 0 every panel's
    # radius is 0 and is raised to the floor
    rng = np.random.default_rng(4)
    return LineMeasure(atoms=tuple(zip(1.0 + spread * rng.random(700),
                                       np.full(700, 1 / 700))))


@pytest.mark.parametrize("measure", [_gridded(semicircle(0, 1)),
                                     _gridded(arcsine(n=700)),
                                     haar_circle(n=700), _cluster(1e-10),
                                     _cluster(0.0)],
                         ids=["line-2048", "line-700", "circle-700", "cluster",
                              "coincident"])
def test_far_field_cannot_overflow_or_trap(measure):
    nodes, weights = _quadrature(measure)
    table = _node_table(measure)
    scale = 1e-9 if measure.atoms and measure.grid is None else 1.0
    rng = np.random.default_rng(8)
    x = np.concatenate([
        table.centres[np.abs(table.centres[:, None] - nodes).min(axis=1) > 0],
        1e6 * np.exp(2j * np.pi * rng.random(4)),          # |x| = 1e6
        nodes[0] + scale * np.exp(2j * np.pi * rng.random(50))])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        s, ds = _node_sums(x, table)
    ref_s, ref_ds, scale_s, scale_ds = _naive(x, nodes, weights)
    assert np.all(np.abs(s - ref_s) <= 1e-12 * scale_s)
    assert np.all(np.abs(ds - ref_ds) <= 1e-12 * scale_ds)


@pytest.mark.parametrize("measure", [_gridded(semicircle(0, 1)),
                                     bernoulli_pm1()],
                         ids=["panels", "direct"])
def test_point_on_a_node_keeps_callers_error_state(measure):
    # the kernel runs in the caller's np.errstate: a point on a node
    # raises, or stays silent, as that state says
    t, w = measure.quadrature()
    table = _node_table(measure)
    x = _points(measure, np.random.default_rng(9), 600)
    x[-1] = t[-1]
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _node_sums(x, table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="ignore"):
            s, _ = _node_sums(x, table)
    assert not caught
    assert not np.isfinite(s[-1]) and np.all(np.isfinite(s[:-1]))


def test_solve_omega1_reuses_candidate_evaluations(monkeypatch):
    # every iteration evaluates T once per point, plus one evaluation
    # at the start and after each Picard fallback
    counted = []
    kernel = additive._node_sums

    def counting(x, table):
        counted.append(np.size(x))
        return kernel(x, table)

    monkeypatch.setattr(additive, "_node_sums", counting)
    sc = semicircle(0, 1)
    z = np.linspace(-3.2, 3.2, 1601) + 1e-4j
    _, _, _, iters, _ = additive._solve_omega1(sc, sc, z, z + 1j, 1e-13, 500)
    evaluated = sum(counted) // 2   # T(w) is one node sum per measure
    assert evaluated <= iters.sum() + z.size


def test_line_density_continues_omega1_across_heights(monkeypatch, invert):
    # a predictor-corrector continuation: the first height solves a coarse
    # subset cold and starts the rest from its Hermite interpolant, each
    # later height starts at omega1 + omega1' * i*(eta - eta_prev), and
    # G_mu(omega1) is carried from the solver's last evaluation: the cold
    # per-height density for under 0.55 of the node sums
    counted = []
    kernel = additive._node_sums

    def counting(x, table):
        counted.append(np.size(x))
        return kernel(x, table)

    calls = []
    solve = additive._solve_omega1

    def recording(mu, nu, z, start, tol, max_iter):
        out = solve(mu, nu, z, start, tol, max_iter)
        calls.append((z, start, out[0], out[1]))
        return out

    monkeypatch.setattr(additive, "_node_sums", counting)
    monkeypatch.setattr(additive, "_solve_omega1", recording)
    sc = semicircle(0, 1)
    grid = np.linspace(-3.2, 3.2, 1601)
    etas = (4e-4, 2e-4, 1e-4)
    warm = free_add_convolve(sc, sc, grid, eta_sequence=etas)
    warm_points = sum(counted)
    warm_calls = list(calls)
    counted.clear()
    cold, _ = invert(lambda z: convolve_cauchy(sc, sc, z), grid, etas)
    cold_points = sum(counted)

    assert np.max(np.abs(warm.density - cold.density)) <= 1e-12 * cold.density.max()
    # the first height: the coarse points cold, then only the others
    coarse, fine = warm_calls[0][0], warm_calls[1][0]
    assert np.array_equal(warm_calls[0][1], coarse + 1j)
    assert coarse.size + fine.size == grid.size
    assert np.array_equal(np.sort(np.concatenate([coarse, fine]).real), grid)
    assert len(warm_calls) == len(etas) + 1
    # every solve, warm or cold, stays in the half plane and carries G_mu
    for z, start, omega1, g in calls:
        assert np.all(start.imag >= z.imag) and np.all(omega1.imag >= z.imag)
        exact = cauchy_transform(sc, omega1)
        assert np.max(np.abs(g - exact)) <= 1e-13 * np.max(np.abs(exact))
    assert warm_points <= 0.55 * cold_points


def test_solve_omega1_slope_matches_closed_form():
    # sc(0,1) (+) sc(0,1) is sc(0,2): 2G^2 - zG + 1 = 0, and by symmetry
    # omega1 = (z + 1/G)/2, so omega1' = (1 - G'/G^2)/2 with
    # G' = G/(4G - z); with sc(0,1) in closed form only the solver's
    # tolerance and rounding are left (2.5e-16 and 2.9e-14 measured)
    sc = semicircle(0, 1)
    z = np.linspace(-3.0, 3.0, 13) + 0.5j
    omega1, _, _, _, slope = additive._solve_omega1(sc, sc, z, z + 1j,
                                                    1e-13, 500)
    disc = np.sqrt(z**2 - 8 + 0j)
    g = np.where(((z - disc) / 4).imag < 0, (z - disc) / 4, (z + disc) / 4)
    exact = (z + 1 / g) / 2
    exact_slope = (1 - 1 / (g * (4 * g - z))) / 2
    assert np.max(np.abs(omega1 - exact)) <= 1e-12
    assert np.max(np.abs(slope - exact_slope)) <= 1e-12
