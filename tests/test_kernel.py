"""The node-sum kernel shared by every transform and solver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import freesub.additive as additive
from freesub import (CircleMeasure, GridSpec, LineMeasure, bernoulli_pm1,
                     cauchy_transform, convolve_cauchy, free_add_convolve,
                     semicircle, stieltjes_invert)
from freesub.transforms import _CHUNK_ELEMENTS, _node_sums


def _naive(x, nodes, weights):
    diff = np.asarray(x, dtype=complex)[..., None] - nodes
    return (np.sum(weights / diff, axis=-1),
            -np.sum(weights / diff**2, axis=-1),
            np.sum(weights / np.abs(diff), axis=-1),
            np.sum(weights / np.abs(diff) ** 2, axis=-1))


@st.composite
def measures(draw):
    """A line or circle measure with 1..2048 quadrature nodes."""
    n = draw(st.integers(1, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circle = draw(st.booleans())
    if draw(st.booleans()):
        weights = rng.random(n) + 0.01
        weights /= weights.sum()
        span = 2 * np.pi if circle else 6.0
        atoms = tuple(zip(rng.uniform(0.0, span, n), weights))
        return (CircleMeasure if circle else LineMeasure)(atoms=atoms)
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
    return (CircleMeasure if circle else LineMeasure)(grid=grid, density=density)


def _quadrature(measure):
    t, w = measure.quadrature()
    return (measure.unit_nodes(), w) if isinstance(measure, CircleMeasure) else (t, w)


@settings(max_examples=60, deadline=None)
@given(measure=measures(), data=st.data())
def test_kernel_matches_naive_sum(measure, data):
    nodes, weights = _quadrature(measure)
    rows = max(1, _CHUNK_ELEMENTS // nodes.size)
    # point counts around chunk multiples, and 0-d and 2-D shapes
    count = data.draw(st.sampled_from([0, 1, rows - 1, rows + 1, 2 * rows + 3]))
    shapes = [(count,)]
    if count == 1:
        shapes.append(())
    if count % 2 == 0:
        shapes.append((count // 2, 2))
    shape = data.draw(st.sampled_from(shapes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(shape, dtype=int))
    if isinstance(measure, CircleMeasure):
        radius = np.where(rng.random(size) < 0.5, rng.uniform(0.0, 0.98, size),
                          rng.uniform(1.02, 3.0, size))
        x = radius * np.exp(2j * np.pi * rng.random(size))
    else:
        x = rng.uniform(-4.0, 4.0, size) + 1j * (
            rng.choice([-1.0, 1.0], size) * rng.uniform(1e-3, 2.0, size))
    x = x.reshape(shape)

    s, ds = _node_sums(x, nodes, weights)
    ref_s, ref_ds, scale_s, scale_ds = _naive(x, nodes, weights)
    assert s.shape == ds.shape == np.shape(x)
    # relative to sum_j w_j |x - t_j|^-k, the size of the summands
    assert np.all(np.abs(s - ref_s) <= 1e-12 * scale_s)
    assert np.all(np.abs(ds - ref_ds) <= 1e-12 * scale_ds)
    # a point's value does not depend on the points sharing its call
    flat = x.reshape(-1)
    for i in rng.choice(size, size=min(size, 3), replace=False):
        one_s, one_ds = _node_sums(flat[i], nodes, weights)
        assert one_s == s.reshape(-1)[i] and one_ds == ds.reshape(-1)[i]


def test_kernel_empty_and_scalar_shapes():
    t, w = bernoulli_pm1().quadrature()
    s, ds = _node_sums(np.empty((0, 3), dtype=complex), t, w)
    assert s.shape == ds.shape == (0, 3)
    s, ds = _node_sums(2j, t, w)
    assert s.shape == () and abs(complex(s) - 2j / ((2j) ** 2 - 1)) <= 1e-15


def test_solve_omega1_reuses_candidate_evaluations(monkeypatch):
    # every iteration evaluates T once per point, plus one evaluation
    # at the start and after each Picard fallback
    counted = []
    kernel = additive._node_sums

    def counting(x, nodes, weights):
        counted.append(np.size(x))
        return kernel(x, nodes, weights)

    monkeypatch.setattr(additive, "_node_sums", counting)
    sc = semicircle(0, 1)
    z = np.linspace(-3.2, 3.2, 1601) + 1e-4j
    _, _, _, iters, _ = additive._solve_omega1(sc, sc, z, z + 1j, 1e-13, 500)
    evaluated = sum(counted) // 2   # T(w) is one node sum per measure
    assert evaluated <= iters.sum() + z.size


def test_line_density_continues_omega1_across_heights(monkeypatch):
    # a predictor-corrector continuation: the first height solves a coarse
    # subset cold and starts the rest from its Hermite interpolant, each
    # later height starts at omega1 + omega1' * i*(eta - eta_prev), and
    # G_mu(omega1) is carried from the solver's last evaluation: the cold
    # per-height density for under 0.55 of the node sums
    counted = []
    kernel = additive._node_sums

    def counting(x, nodes, weights):
        counted.append(np.size(x))
        return kernel(x, nodes, weights)

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
    cold, _ = stieltjes_invert(lambda z: convolve_cauchy(sc, sc, z), grid,
                               eta_sequence=etas)
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
    # G' = G/(4G - z); the grid quadrature of sc(0,1) bounds the agreement
    sc = semicircle(0, 1)
    z = np.linspace(-3.0, 3.0, 13) + 0.5j
    omega1, _, _, _, slope = additive._solve_omega1(sc, sc, z, z + 1j,
                                                    1e-13, 500)
    disc = np.sqrt(z**2 - 8 + 0j)
    g = np.where(((z - disc) / 4).imag < 0, (z - disc) / 4, (z + disc) / 4)
    exact = (z + 1 / g) / 2
    exact_slope = (1 - 1 / (g * (4 * g - z))) / 2
    assert np.max(np.abs(omega1 - exact)) <= 1e-6
    assert np.max(np.abs(slope - exact_slope)) <= 1e-6
