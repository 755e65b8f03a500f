"""Cauchy/resolvent transforms and Stieltjes density recovery."""

import mpmath
import numpy as np
import pytest

import freesub.transforms as transforms
from freesub import (BadParams, DomainError, NonPositiveDensity, atomic,
                     bernoulli_pm1, cauchy_transform, circle_atoms,
                     circle_cauchy, eta_transform, h_transform, haar_circle,
                     marchenko_pastur, psi_transform, reciprocal_cauchy,
                     semicircle, stieltjes_invert)


def sc_cauchy_closed_form(z):
    # branch with G ~ 1/z at infinity: sqrt cut along [-2, 2]
    root = np.sqrt(z - 2) * np.sqrt(z + 2)
    return (z - root) / 2


def test_cauchy_of_point_mass():
    assert cauchy_transform(atomic([(0.0, 1.0)]), 1j) == pytest.approx(-1j)
    b = bernoulli_pm1()
    assert cauchy_transform(b, 2j) == pytest.approx(2j / ((2j) ** 2 - 1))


def test_cauchy_semicircle_closed_form():
    sc = semicircle(0, 1)
    assert cauchy_transform(sc, 1j) == pytest.approx(1j * (1 - np.sqrt(5)) / 2,
                                                     abs=1e-7)
    for z in (0.3 + 0.5j, -1.5 + 1j, 2.5 + 0.1j, 4 + 2j):
        assert cauchy_transform(sc, z) == pytest.approx(sc_cauchy_closed_form(z),
                                                        abs=1e-6)


def test_cauchy_vectorized_matches_scalar():
    sc = semicircle(0, 1)
    zs = np.array([1j, 1 + 1j, -2 + 0.5j])
    vals = cauchy_transform(sc, zs)
    assert vals.shape == zs.shape
    for z, v in zip(zs, vals):
        assert cauchy_transform(sc, complex(z)) == v


def test_cauchy_domain_guards():
    sc = semicircle(0, 1)
    node = sc.quadrature()[0][100]
    with pytest.raises(DomainError):
        cauchy_transform(sc, complex(node, 1e-16))
    assert np.imag(cauchy_transform(sc, complex(node, 1e-3))) < 0


def test_transforms_reject_non_finite_points():
    sc, h = semicircle(0, 1), haar_circle()
    for bad in (complex(np.nan, 1.0), complex(np.inf, 0.5), complex(0.2, np.nan)):
        with pytest.raises(DomainError):
            cauchy_transform(sc, np.array([1j, bad]))
        with pytest.raises(DomainError):
            circle_cauchy(h, bad)


def test_f_transform_of_shifted_atom():
    d = atomic([(0.75, 1.0)])
    for z in (1j, 1 + 2j, -3 + 0.5j):
        assert reciprocal_cauchy(d, z) == pytest.approx(z - 0.75, abs=1e-13)
        assert h_transform(d, z) == pytest.approx(-0.75, abs=1e-13)


def test_herglotz_margins_on_sweep(standard_line_measures):
    re = np.arange(-3, 3.01, 0.5)
    for m in standard_line_measures.values():
        for im in (0.5, 1.0, 2.0):
            z = re + 1j * im
            g = np.asarray(cauchy_transform(m, z))
            f = np.asarray(reciprocal_cauchy(m, z))
            h = np.asarray(h_transform(m, z))
            assert np.all(g.imag < 0)
            assert np.all(f.imag >= im - 1e-12)
            assert np.all(h.imag >= -1e-12)


def test_cauchy_asymptotics(standard_line_measures):
    for m in standard_line_measures.values():
        r = m.support_radius()
        for z in (8j, 10 + 8j, -12 + 1j, 20j):
            if abs(z) < 8:
                continue
            assert abs(z * cauchy_transform(m, z) - 1) <= 2 * r / abs(z)


def test_circle_cauchy_values():
    assert circle_cauchy(circle_atoms([(0.0, 1.0)]), 0.5) == pytest.approx(2.0)
    two = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    expected = 0.5 * (1 / 0.7 + 1 / (-1.3))
    assert circle_cauchy(two, 0.3) == pytest.approx(expected, abs=1e-14)
    for g in (0.0, 0.3 + 0.2j, -0.6j):
        assert abs(circle_cauchy(haar_circle(), g)) <= 1e-12


def test_circle_cauchy_node_clearance():
    h = haar_circle()
    node = np.exp(1j * h.quadrature()[0][7])
    with pytest.raises(DomainError):
        circle_cauchy(h, complex(node))


def test_circle_cauchy_at_zero_is_first_inverse_moment():
    c = circle_atoms([(0.4, 0.3), (2.2, 0.7)])
    k0 = circle_cauchy(c, 0.0)
    assert k0 == pytest.approx(c.moment(-1), abs=1e-10)


def test_psi_eta_of_rotation():
    theta = 0.9
    d = circle_atoms([(theta, 1.0)])
    zeta = np.exp(1j * theta)
    for z in (0.0, 0.25, 0.3 - 0.4j):
        assert psi_transform(d, z) == pytest.approx(
            z * zeta / (1 - z * zeta) if z != 0 else 0.0, abs=1e-13)
        assert eta_transform(d, z) == pytest.approx(z * zeta, abs=1e-13)


def test_psi_to_full_relative_accuracy():
    # psi(z) = z conj K(conj z) neither cancels nor divides by z: against
    # a 40-digit sum it keeps full relative accuracy from |z| = 1e-9 to
    # 10 (-1 - K(1/z)/z lost up to 5e-7 at 1e-9).  Radii half a decade
    # apart keep the sum away from the poles on the circle, where the
    # rounding of the stored angles alone costs more
    law = circle_atoms([(0.3, 0.5), (1.1, 0.3), (-0.5, 0.2)])
    radii = 10.0 ** np.delete(np.arange(-9.0, 1.5, 0.5), 18)
    z = np.outer(radii, np.exp(1j * np.linspace(0.1, 6.2, 7)))
    got = psi_transform(law, z)
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(w), mpmath.expj(t))
                 for t, w in zip(*law.quadrature())]
        for zi, gi in zip(z.ravel(), got.ravel()):
            zm = mpmath.mpc(zi)
            want = sum(w * zm * zeta / (1 - zm * zeta) for w, zeta in terms)
            assert abs(mpmath.mpc(gi) - want) <= 1e-15 * abs(want)


def test_public_transforms_check_points_once(monkeypatch):
    # each public transform checks its points once and composes the
    # unchecked forms behind that check
    calls = []
    check = transforms._complex_points

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(transforms, "_complex_points", counting)
    line, circle = semicircle(0, 1), circle_atoms([(0.4, 0.3), (2.2, 0.7)])
    for fn, law, z in ((cauchy_transform, line, 1j),
                       (reciprocal_cauchy, line, 1j),
                       (h_transform, line, 1j),
                       (circle_cauchy, circle, 0.3),
                       (psi_transform, circle, 0.3),
                       (eta_transform, circle, 0.3)):
        for points in (z, np.array([z, 2 * z])):
            calls.clear()
            fn(law, points)
            assert len(calls) == 1, fn.__name__


def test_psi_of_haar_vanishes():
    h = haar_circle()
    for z in (0.1, 0.5j, -0.3 + 0.3j):
        assert abs(psi_transform(h, z)) <= 1e-12
        assert abs(eta_transform(h, z)) <= 1e-12


# Inverting the transform of a measure stored as 2048 quadrature nodes
# needs eta above the node spacing (~2e-3), or the discrete comb shows
# through between nodes.  Subordinated transforms do not have this
# constraint: their omega keeps the effective height large in the bulk.
GRID_ETAS = (1.6e-2, 8e-3, 4e-3)
FINE_ETAS = (4e-4, 2e-4, 1e-4)


def test_stieltjes_invert_semicircle_roundtrip():
    sc = semicircle(0, 1)
    grid = np.linspace(-2.5, 2.5, 1201)
    rec, renorm = stieltjes_invert(lambda z: cauchy_transform(sc, z), grid,
                                   eta_sequence=GRID_ETAS)
    t = rec.grid.points()
    target = np.where(np.abs(t) < 2, np.sqrt(np.clip(4 - t**2, 0, None)), 0) / (2 * np.pi)
    window = np.abs(t) <= 1.9
    assert np.max(np.abs(rec.density - target)[window]) <= 5e-3
    assert abs(renorm - 1) <= 1e-2


def test_stieltjes_invert_concentrates_atom():
    rec, _ = stieltjes_invert(lambda z: 1.0 / z, np.linspace(-1, 1, 801),
                              eta_sequence=(1e-3,))
    t = rec.grid.points()
    w = rec.grid.trapezoid_weights()
    near = np.abs(t) <= 0.1
    assert np.sum((w * rec.density)[near]) >= 0.9


def test_stieltjes_invert_renorm_sweep(standard_line_measures, monkeypatch):
    # the negativity floor is widened here: just outside an
    # inverse-square-root edge the smoothed density is not polynomial in
    # eta, and the extrapolation to eta = 0 overshoots below zero by ~1e-2
    # before being clipped.
    monkeypatch.setattr(transforms, "_NEG_TOL", 2e-2)
    for name in ("semicircle", "arcsine", "marchenko_pastur"):
        m = standard_line_measures[name]
        lo, hi = m.support()
        grid = np.linspace(lo - 0.3, hi + 0.3, 1001)
        _, renorm = stieltjes_invert(lambda z: cauchy_transform(m, z), grid,
                                     eta_sequence=GRID_ETAS)
        assert abs(renorm - 1) <= 1e-2


def test_stieltjes_invert_rejects_wrong_sign():
    with pytest.raises(NonPositiveDensity):
        stieltjes_invert(lambda z: np.full(np.shape(z), 1j),
                         np.linspace(-1, 1, 100), FINE_ETAS)


def test_stieltjes_invert_validates_arguments():
    with pytest.raises(ValueError):
        stieltjes_invert(lambda z: 1 / z, np.linspace(0, 1, 4), FINE_ETAS)
    with pytest.raises(ValueError):
        stieltjes_invert(lambda z: 1 / z, np.linspace(-1, 1, 100),
                         eta_sequence=(0.0, -1.0))
    calls = []

    def g_eval(z):
        calls.append(z)
        return 1 / z

    # a repeated height makes the extrapolation weights divide by zero
    with pytest.raises(BadParams, match="distinct"):
        stieltjes_invert(g_eval, np.linspace(-1, 1, 100),
                         eta_sequence=(1e-2, 1e-2))
    assert not calls


def test_stieltjes_invert_rejects_scalar_and_nonfinite_heights():
    calls = []

    def g_eval(z):
        calls.append(z)
        return 1 / z

    # a bare number is a 0-d array, which the Lagrange weights cannot index
    for etas in (0.1, (np.inf,), (1e-2, np.nan), ((1e-2, 2e-2),)):
        with pytest.raises(BadParams, match="eta_sequence"):
            stieltjes_invert(g_eval, np.linspace(-1, 1, 100), eta_sequence=etas)
    assert not calls


def test_stieltjes_invert_rejects_non_uniform_grid():
    calls = []

    def g_eval(z):
        calls.append(z)
        return 1 / z

    grid = np.concatenate([np.linspace(-1, 0, 50), np.linspace(0.05, 1, 50)])
    with pytest.raises(ValueError, match="uniform"):
        stieltjes_invert(g_eval, grid, FINE_ETAS)
    with pytest.raises(ValueError, match="uniform"):
        stieltjes_invert(g_eval, np.linspace(1, -1, 100), FINE_ETAS)
    assert not calls


def test_mp_inversion_with_hard_edge(monkeypatch):
    # The grid must extend below t = 0: truncating at 0.05 discards the
    # ~14% of mass that the hard edge packs into [0, 0.05] and the
    # renormalization then inflates the whole density.  The negativity
    # floor is widened as in test_stieltjes_invert_renorm_sweep.
    monkeypatch.setattr(transforms, "_NEG_TOL", 2e-2)
    mp = marchenko_pastur(1.0)
    grid = np.linspace(-0.3, 4.3, 1001)
    rec, renorm = stieltjes_invert(lambda z: cauchy_transform(mp, z), grid,
                                   eta_sequence=GRID_ETAS)
    t = rec.grid.points()
    target = np.sqrt(np.clip(t * (4 - t), 0, None)) / (2 * np.pi * np.clip(t, 1e-9, None))
    window = (t >= 0.2) & (t <= 3.8)
    assert np.max(np.abs(rec.density - target)[window]) <= 1e-3


@pytest.mark.parametrize("bad", ["x", [1j, "x"], [1j, [2j, 3j]], True])
def test_transforms_reject_points_that_are_not_numbers(bad):
    # complex("x") once reached the caller as a builtin ValueError
    with pytest.raises(BadParams, match=r"\bz\b"):
        cauchy_transform(semicircle(0, 1), bad)
    with pytest.raises(BadParams, match=r"\bg\b"):
        circle_cauchy(haar_circle(), bad)
