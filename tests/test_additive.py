"""Additive convolution: subordination solves, densities, moment pipelines."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freesub import (
    bernoulli_pm1,
    cauchy_transform,
    convolve_cauchy,
    convolve_moments,
    free_add_convolve,
    atomic,
    semicircle,
    subordination_pair,
)
from freesub import (SubordinationEval, free_cumulants,
                     free_cumulants_to_moments)
from freesub import additive
from freesub.additive import (_solve_omega1, continued_density,
                              subordination_pairs)
from freesub.errors import (BadParams, DomainError, FreesubError,
                            NoConvergence, NonPositiveDensity)


def test_bernoulli_pair_closed_form():
    # for mu = nu = (d_{-1}+d_1)/2 the fixed point solves w^2 - z w + 1 = 0,
    # so omega1(2i) = i (1 + sqrt 2)
    res = subordination_pair(bernoulli_pm1(), bernoulli_pm1(), 2j)
    assert abs(res.omega1 - 1j * (1 + np.sqrt(2))) <= 1e-12
    assert res.omega1 == res.omega2
    assert res.residual <= 1e-12
    # G of the arcsine limit: 1/sqrt(z^2-4)
    assert abs(res.g_conv - 1 / np.sqrt((2j) ** 2 - 4)) <= 1e-12


def test_point_mass_shift():
    # convolving with d_a translates: omega1(z) = z - a, G(z) = G_mu(z - a)
    mu = semicircle(0, 1)
    for a in (-1.5, 0.25, 3.0):
        for z in (0.3 + 0.7j, -2 + 0.05j, 5j):
            res = subordination_pair(mu, atomic([(a, 1.0)]), z)
            assert abs(res.omega1 - (z - a)) <= 1e-10
            assert abs(res.g_conv - cauchy_transform(mu, z - a)) <= 1e-10


def test_semicircle_stability():
    # sc(0,1) (+) sc(0,1) = sc(0,2); variances add
    mu = semicircle(0, 1)
    target = semicircle(0, 2)
    z = np.array([0.1 + 0.4j, 1.9 + 0.02j, -0.7 + 1j, 3 + 2j])
    got = convolve_cauchy(mu, mu, z)
    want = cauchy_transform(target, z)
    # target G carries the 2048-node grid error of the stored measure
    assert np.max(np.abs(got - want)) <= 5e-6


def test_exchange_symmetry(line_pairs):
    z = 0.37 + 0.21j
    for mu, nu in line_pairs:
        r1 = subordination_pair(mu, nu, z)
        r2 = subordination_pair(nu, mu, z)
        assert abs(r1.g_conv - r2.g_conv) <= 1e-10
        assert abs(r1.omega1 - r2.omega2) <= 1e-9
        assert abs(r1.omega2 - r2.omega1) <= 1e-9


def test_convolve_cauchy_matches_pointwise():
    mu, nu = semicircle(0, 1), bernoulli_pm1()
    z = np.array([0.5 + 0.3j, -1 + 0.1j, 2j, 1.5 + 0.05j])
    vec = convolve_cauchy(mu, nu, z)
    for i, zi in enumerate(z):
        assert abs(vec[i] - subordination_pair(mu, nu, complex(zi)).g_conv) <= 1e-12
    assert isinstance(convolve_cauchy(mu, nu, 1j), complex)


def test_convolve_cauchy_of_no_points():
    mu, nu = semicircle(0, 1), bernoulli_pm1()
    g = convolve_cauchy(mu, nu, np.array([], dtype=complex))
    assert g.dtype == complex and g.shape == (0,)


def test_herglotz_margins_on_sweep(line_pairs):
    zs = [0.05j, 1 + 0.02j, -2.5 + 0.3j, 0.8 + 2j]
    for mu, nu in line_pairs:
        for z in zs:
            res = subordination_pair(mu, nu, z)
            assert res.omega1.imag >= z.imag - 1e-10
            assert res.omega2.imag >= z.imag - 1e-10
            assert res.g_conv.imag < 0


def test_free_add_convolve_two_atoms():
    # d_1 (+) d_2 = d_3, reconstructed as a bump of mass ~1 near 3
    grid = np.linspace(0, 6, 1201)
    out = free_add_convolve(atomic([(1.0, 1.0)]), atomic([(2.0, 1.0)]), grid)
    t = out.grid.points()
    w = out.grid.trapezoid_weights()
    near = np.abs(t - 3) <= 0.75
    assert np.sum((out.density * w)[near]) >= 0.95
    assert abs(t[np.argmax(out.density)] - 3) <= 0.05


def test_free_add_convolve_semicircles():
    grid = np.linspace(-3.4, 3.4, 1201)
    out = free_add_convolve(semicircle(0, 1), semicircle(0, 1), grid,
                            eta_sequence=(4e-4, 2e-4, 1e-4))
    t = out.grid.points()
    target = np.sqrt(np.clip(8 - t * t, 0, None)) / (4 * np.pi)
    inner = np.abs(t) <= 2.6
    assert np.max(np.abs(out.density - target)[inner]) <= 5e-4


def test_convolve_moments_semicircle_bernoulli():
    # kappa(sc) = (0,1,0,0), kappa(bern) = (0,1,0,-1): m = (0,2,0,7)
    got = convolve_moments(semicircle(0, 1), bernoulli_pm1(), 4)
    # textbook values, limited by the gridded semicircle's own moments
    assert np.max(np.abs(np.array(got) - [0, 2, 0, 7])) <= 5e-4
    # the combinatorial pipeline agrees with itself to solver precision
    mu, nu = semicircle(0, 1), bernoulli_pm1()
    km = free_cumulants([1.0] + [mu.moment(k) for k in range(1, 5)], 4)
    kn = free_cumulants([1.0] + [nu.moment(k) for k in range(1, 5)], 4)
    want = free_cumulants_to_moments(np.add(km, kn))
    assert np.max(np.abs(np.array(got) - want)) <= 1e-9


def test_cumulant_additivity_on_pairs(line_pairs):
    order = 6
    for mu, nu in line_pairs:
        mc = convolve_moments(mu, nu, order)
        kc = free_cumulants([1.0] + list(mc), order)
        km = free_cumulants([1.0] + [mu.moment(k) for k in range(1, order + 1)], order)
        kn = free_cumulants([1.0] + [nu.moment(k) for k in range(1, order + 1)], order)
        # additivity against the factors' own grid moments is solver-exact
        assert np.max(np.abs(np.array(kc) - np.add(km, kn))) <= 1e-8


def test_rejects_bad_arguments():
    mu = semicircle(0, 1)
    with pytest.raises(DomainError):
        subordination_pair(mu, mu, 1.0 - 0.5j)
    with pytest.raises(ValueError):
        subordination_pairs(mu, mu, [2j], tol=1e-16)
    with pytest.raises(DomainError):
        convolve_cauchy(mu, mu, np.array([1j, 1 - 1j]))
    # nan fails every comparison, so a plain tol < floor check lets it through
    for tol in (np.nan, np.inf):
        with pytest.raises(BadParams):
            subordination_pairs(mu, mu, [2j], tol=tol)
        with pytest.raises(BadParams):
            continued_density(mu, mu, np.linspace(-1, 1, 9), (1e-2,), tol=tol)
    for bad in (complex(np.nan, 1.0), complex(0.3, np.nan), complex(np.inf, 1.0)):
        with pytest.raises(DomainError):
            subordination_pair(mu, mu, bad)
        with pytest.raises(DomainError):
            convolve_cauchy(mu, mu, np.array([1j, bad]))


@pytest.mark.parametrize("bad", ["abc", "1+2j", [1j, 2j], None])
def test_subordination_pair_rejects_points_that_are_not_one_number(bad):
    # complex("abc") once reached the caller as a builtin ValueError
    mu = semicircle(0, 1)
    with pytest.raises(BadParams, match=r"\bz\b"):
        subordination_pair(mu, mu, bad)


_GRID = np.linspace(-1, 1, 100)


@pytest.mark.parametrize("grid, etas, match", [
    pytest.param(np.linspace(0, 1, 4), (1e-2,), "grid", id="four-points"),
    pytest.param(np.concatenate([np.linspace(-1, 0, 50),
                                 np.linspace(0.05, 1, 50)]),
                 (1e-2,), "uniform", id="non-uniform-grid"),
    pytest.param(np.linspace(1, -1, 100), (1e-2,), "uniform",
                 id="decreasing-grid"),
    pytest.param(_GRID, (0.0, -1.0), "eta_sequence", id="non-positive-heights"),
    # a repeated height makes the extrapolation weights divide by zero
    pytest.param(_GRID, (1e-2, 1e-2), "distinct", id="repeated-height"),
    # a bare number is a 0-d array, which the Lagrange weights cannot index
    pytest.param(_GRID, 0.1, "eta_sequence", id="scalar-height"),
    pytest.param(_GRID, (np.inf,), "eta_sequence", id="infinite-height"),
    pytest.param(_GRID, (1e-2, np.nan), "eta_sequence", id="nan-height"),
    pytest.param(_GRID, ((1e-2, 2e-2),), "eta_sequence", id="nested-heights"),
    # these escaped as a builtin ValueError or TypeError, and a complex
    # grid lost its imaginary part with a ComplexWarning
    pytest.param(["a"] * 9, (1e-2,), "grid", id="string-grid"),
    pytest.param([[0.0, 1.0], [2.0]] * 5, (1e-2,), "grid", id="ragged-grid"),
    pytest.param({"lo": -1.0}, (1e-2,), "grid", id="dict-grid"),
    pytest.param(_GRID + 0j, (1e-2,), "grid", id="complex-grid"),
    pytest.param(_GRID, ["a"], "eta_sequence", id="string-height"),
    pytest.param(_GRID, [0.1 + 1j], "eta_sequence", id="complex-height"),
])
def test_continued_density_rejects_bad_grid_and_heights(monkeypatch, grid,
                                                        etas, match):
    # BadParams naming the argument, before any solve and with no warning
    def no_solve(*args):
        raise AssertionError("solved before checking the grid and heights")
    monkeypatch.setattr(additive, "_solve_omega1", no_solve)
    mu = semicircle(0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match=match):
            continued_density(mu, mu, grid, etas)


def test_convolve_moments_caps_the_order():
    # m_40 of sc (+) sc read 5.98e15 against the exact 6.88e15, and order
    # 400 returned NaN with overflow warnings; m_32 reads 2.3e-4 relative
    sc = semicircle(0, 1)
    with pytest.raises(BadParams, match=r"\border\b"):
        convolve_moments(sc, sc, 33)
    exact = math.comb(32, 16) // 17 * 2**16  # Catalan(16) times variance^16
    assert abs(convolve_moments(sc, sc, 32)[-1] / exact - 1) <= 1e-3


def test_subordination_pair_checks_its_point_once(monkeypatch):
    # the one-point form checks z and calls the body of the batch form,
    # which does not check it again
    calls = []
    check = additive._complex_points

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(additive, "_complex_points", counting)
    mu, nu = semicircle(0, 1), bernoulli_pm1()
    for z in (1j, 0.3 + 0.5j, -2 + 1e-3j):
        calls.clear()
        one = subordination_pair(mu, nu, z)
        assert calls == ["z"]
        assert one == subordination_pairs(mu, nu, [z])[0]


_NEAR_POLE = (atomic([(-0.375, 0.5), (-0.5, 0.5)]),
              atomic([(1.875, 5 / 21), (0.0, 16 / 21)]))


def test_solve_stops_at_the_rounding_floor():
    # at z = 1 + 0.01i, omega2 sits next to a pole of F_nu, where
    # |h_nu'| ~ 3500 lifts T's rounding to ~1e-11, above tol * |omega1|;
    # the solve once stalled there in NoConvergence, and still does when
    # the rounding may not relax tol at all
    mu, nu = _NEAR_POLE
    res = subordination_pair(mu, nu, 1 + 0.01j)
    assert res.residual <= 1e-12 * abs(res.g_conv)
    with mock.patch.object(additive, "_ROUNDING_CAP", 1.0):
        with pytest.raises(NoConvergence):
            subordination_pair(mu, nu, 1 + 0.01j)


@pytest.mark.parametrize("eta", [1e-2, 2e-3, 2e-4])
def test_rounding_stop_keeps_g_mu_accurate(eta):
    # omega1 is ill-conditioned where the solve stops at T's rounding, but
    # G_mu(omega1) is not: against a 40-digit solve of the same fixed
    # point it is as accurate there as where the residual meets tol
    mpmath = pytest.importorskip("mpmath")
    mu, nu = _NEAR_POLE

    def g(m, x):
        return sum(mpmath.mpf(a[1]) / (x - mpmath.mpf(a[0])) for a in m.atoms)

    z = np.linspace(0.5, 1.5, 101) + 1j * eta
    tol = 1e-13
    w, g_mu, res, _, _ = _solve_omega1(mu, nu, z, z + 1j, tol, 500)
    limit = tol * np.maximum(1.0, np.abs(w))
    stopped = res > limit
    assert 0 < stopped.sum() < z.size
    assert np.all(res <= additive._ROUNDING_CAP * limit)
    err = np.empty(z.size)
    with mpmath.workdps(40):
        for i, (zi, wi) in enumerate(zip(z, w)):
            zi = mpmath.mpc(zi)

            def step(v):
                # T(v) - v with T(v) = z + h_nu(z + h_mu(v))
                zeta = zi + 1 / g(mu, v) - v
                return zi + 1 / g(nu, zeta) - zeta - v

            exact = mpmath.findroot(step, mpmath.mpc(wi))
            err[i] = abs(g_mu[i] - complex(g(mu, exact)))
    scale = np.max(np.abs(g_mu))
    assert np.max(err[stopped]) <= 1e-13 * scale
    assert np.max(err[~stopped]) <= 1e-13 * scale


def test_no_convergence_reports_residual():
    mu, nu = bernoulli_pm1(), bernoulli_pm1()
    with pytest.raises(NoConvergence) as info:
        subordination_pairs(mu, nu, [0.5 + 1e-6j], max_iter=2)
    assert info.value.residual > 0
    assert info.value.iterations == 2


def test_no_convergence_reports_worst_point():
    # the fourth point converges in 2 iterations and leaves the batch
    # before the other three stall
    mu = nu = bernoulli_pm1()
    z = [0.5 + 1e-6j, 1.2 + 1e-3j, -0.3 + 1e-5j]
    single = []
    for zi in z:
        with pytest.raises(NoConvergence) as info:
            _solve_omega1(mu, nu, np.array([zi]), np.array([zi + 1j]), 1e-13, 2)
        single.append(info.value.residual)
    worst = int(np.argmax(single))
    assert worst != 0
    far = np.array([1000j])
    assert _solve_omega1(mu, nu, far, far + 1j, 1e-13, 2)[3][0] == 2
    batch = np.array(z + [1000j])
    with pytest.raises(NoConvergence) as info:
        _solve_omega1(mu, nu, batch, batch + 1j, 1e-13, 2)
    assert info.value.point == z[worst]
    assert info.value.residual == single[worst]
    assert "3 point(s)" in str(info.value)


def test_subordination_eval_rejects_lost_margin():
    for omega1, omega2 in ((0.5j, 1j), (1j, 0.2 + 0.5j)):
        with pytest.raises(DomainError) as info:
            SubordinationEval(z=1j, omega1=omega1, omega2=omega2, g_conv=-1j,
                              residual=0.0, iterations=1)
        assert isinstance(info.value, FreesubError)


@st.composite
def _line_pairs(draw):
    """Two atomic measures with 1-4 atoms each, or two shifted semicircles."""
    if draw(st.booleans()):
        def law():
            k = draw(st.integers(1, 4))
            pos = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
            w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k,
                                       max_size=k)))
            return atomic(list(zip(pos, w / w.sum())))
    else:
        def law():
            return semicircle(draw(st.floats(-1.0, 1.0)),
                              draw(st.floats(0.2, 2.0)), n=256)
    return law(), law()


# batches of points with 1e-4 <= Im z <= 3
_UPPER_POINTS = st.lists(
    st.builds(complex, st.floats(-4.0, 4.0),
              st.floats(-4.0, np.log10(3.0)).map(lambda e: 10.0 ** e)),
    min_size=2, max_size=40).map(np.array)


@settings(max_examples=40, deadline=None)
@given(pair=_line_pairs(), z=_UPPER_POINTS)
# these batches mix 3-11 and 4-17 iterations, Picard steps and stops at
# T's rounding
@example(pair=(bernoulli_pm1(), bernoulli_pm1()),
         z=np.linspace(-2.5, 2.5, 41) + 1e-4j)
@example(pair=_NEAR_POLE, z=np.linspace(0.5, 1.5, 101) + 2e-4j)
def test_solve_does_not_depend_on_its_batch(pair, z):
    # a point's omega1, G_mu, residual, iteration count and slope are the
    # same bits whether it is solved alone or with other points, and so
    # are the six fields of its subordination pair: a batch's omega2 and
    # residual round as the scalar 1.0 / complex and abs(complex) do
    mu, nu = pair
    batch = _solve_omega1(mu, nu, z, z + 1j, additive._TOL,
                          additive._MAX_ITER)
    pairs = subordination_pairs(mu, nu, z)
    for i in range(z.size):
        alone = _solve_omega1(mu, nu, z[i:i + 1], z[i:i + 1] + 1j,
                              additive._TOL, additive._MAX_ITER)
        for b, a in zip(batch, alone):
            assert np.array_equal(b[i:i + 1], a)
        one = subordination_pair(mu, nu, z[i])
        assert pairs[i].omega1 == one.omega1 == complex(batch[0][i])
        assert pairs[i].g_conv == one.g_conv == complex(batch[1][i])
        assert pairs[i].iterations == one.iterations == batch[3][i]
        assert (pairs[i].z, pairs[i].omega2, pairs[i].residual) == (
            one.z, one.omega2, one.residual)
        g2 = complex(cauchy_transform(nu, one.omega2))
        assert one.omega2 == one.z + 1.0 / one.g_conv - one.omega1
        assert one.residual == abs(one.g_conv - g2)


@settings(max_examples=200, deadline=None)
@given(pair=_line_pairs(), z=_UPPER_POINTS)
def test_subordination_pairs_keep_the_invariants(pair, z):
    # at every point: the Herglotz margins Im omega_j >= Im z, the
    # subordination identity omega1 + omega2 - z = 1/G to rounding, and
    # the residual at the solver's level
    mu, nu = pair
    for p in subordination_pairs(mu, nu, z):
        assert p.omega1.imag >= p.z.imag - 1e-10
        assert p.omega2.imag >= p.z.imag - 1e-10
        terms = (p.omega1, p.omega2, -p.z, -1.0 / p.g_conv)
        assert abs(sum(terms)) <= 4 * np.finfo(float).eps * sum(map(abs, terms))
        # residual = |G_mu - G_nu| = |T(omega1) - omega1| |G_mu G_nu|, and
        # the fixed point stops within tol * max(1, |omega1|), or within
        # T's rounding up to _ROUNDING_CAP times that; max(1, |G|) keeps
        # the node sums' own rounding where G is small
        limit = additive._ROUNDING_CAP * additive._TOL * max(1.0, abs(p.omega1))
        assert p.residual <= limit * max(1.0, abs(p.g_conv)) ** 2


@settings(max_examples=40, deadline=None)
@given(pair=_line_pairs(), n=st.integers(8, 400), lo=st.floats(-4.0, 0.0),
       width=st.floats(1.0, 6.0),
       etas=st.lists(st.sampled_from([0.2, 0.1, 0.05, 0.02, 0.01, 0.005]),
                     min_size=1, max_size=3, unique=True))
def test_continued_density_matches_cold_heights(invert, pair, n, lo, width,
                                               etas):
    # the predictor changes where each solve starts, never its limit: every
    # height's G and the density match cold solves, on grids of one to
    # fifty coarse strides, and every start and omega1 keeps Im >= eta
    mu, nu = pair
    grid = np.linspace(lo, lo + width, n)
    calls = []
    solve = additive._solve_omega1

    def recording(mu, nu, z, start, tol, max_iter):
        out = solve(mu, nu, z, start, tol, max_iter)
        assert np.all(start.imag >= z.imag)
        # two point masses give omega1 = z, up to rounding
        assert np.all(out[0].imag >= z.imag - additive._HERGLOTZ_SLACK)
        calls.append((z, out[1]))
        return out

    def outcome(run):
        try:
            return run()
        except NonPositiveDensity as exc:
            return type(exc)

    def cold_eval(z):
        g_cold[z[0].imag] = convolve_cauchy(mu, nu, z)
        return g_cold[z[0].imag]

    with mock.patch.object(additive, "_solve_omega1", recording):
        warm = outcome(lambda: continued_density(mu, nu, grid, etas))
    g_cold = {}
    cold = outcome(lambda: invert(cold_eval, grid, etas))
    for eta in etas:
        z, g = (np.concatenate(x) for x in
                zip(*[c for c in calls if c[0][0].imag == eta]))
        order = np.argsort(z.real)
        assert np.array_equal(z[order].real, grid)
        scale = np.max(np.abs(g_cold[eta]))
        assert np.max(np.abs(g[order] - g_cold[eta])) <= 1e-12 * scale
    if cold is NonPositiveDensity:
        assert warm is NonPositiveDensity
    else:
        # the density is renorm * sum_j c_j * (-Im G_j / pi).  On the
        # support, where -Im G / pi is at least 1e-3 of G's scale, it
        # matches to 1e-12 of the peak.  Off it a small Im G carries the
        # error of a larger G, and renorm scales the peak up with it when
        # the grid misses the support, so there the bound is G's scale
        # through the Lagrange weights c_j
        peak, renorm = cold[0].density.max(), cold[1]
        g_max = max(np.max(np.abs(g)) for g in g_cold.values())
        gap = np.abs(warm[0].density - cold[0].density)
        on = cold[0].density / renorm >= 1e-3 * g_max / np.pi
        assert np.all(gap[on] <= 1e-12 * peak)
        lagrange = sum(abs(np.prod([f / (f - e) for f in etas if f != e]))
                       for e in etas)
        off_scale = max(peak, renorm * lagrange * g_max / np.pi)
        assert np.all(gap[~on] <= 1e-12 * off_scale)
