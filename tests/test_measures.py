"""Measure construction, normalization, moments, serialization."""

import json
import math

import numpy as np
import pytest

from freesub import (BadParams, CircleMeasure, GridSpec, LineMeasure, arcsine,
                     atomic, bernoulli_pm1, circle_atoms, from_json,
                     haar_circle, make_standard, marchenko_pastur,
                     measure_from_circle_moments, rotate, semicircle)

CATALAN = [1, 1, 2, 5, 14, 42]


def test_gridspec_contract():
    g = GridSpec(-1.0, 1.0, 9)
    assert g.step == pytest.approx(0.25)
    assert g.points()[0] == -1.0 and g.points()[-1] == 1.0
    assert g.trapezoid_weights().sum() == pytest.approx(2.0)
    with pytest.raises(BadParams):
        GridSpec(0.0, 1.0, 7)
    with pytest.raises(BadParams):
        GridSpec(1.0, 0.0, 16)
    # a non-finite end made every transform of the measure NaN
    with pytest.raises(BadParams):
        GridSpec(0, math.inf, 10)


def test_mass_invariant_enforced():
    with pytest.raises(BadParams):
        LineMeasure(atoms=((0.0, 0.5),))
    with pytest.raises(BadParams):
        LineMeasure(atoms=((0.0, 0.5), (1.0, 0.50001)))
    with pytest.raises(BadParams):
        atomic([(0.0, -0.5), (1.0, 1.5)])


@pytest.mark.parametrize("position", [math.nan, math.inf])
def test_atoms_need_finite_positions(position):
    with pytest.raises(BadParams):
        atomic([(position, 1.0)])


def test_density_validation():
    g = GridSpec(0.0, 1.0, 8)
    with pytest.raises(BadParams):
        LineMeasure(grid=g, density=-np.ones(8))
    with pytest.raises(BadParams):
        LineMeasure(grid=g, density=np.ones(5))
    with pytest.raises(BadParams):
        LineMeasure(grid=g)


def test_semicircle_moments_are_catalan():
    sc = semicircle(0, 1)
    assert sc.support() == pytest.approx((-2.0, 2.0), abs=1e-2)
    # grid discretization grows with the order; ~1e-7 at m_2, ~4e-5 at m_8
    for k in range(6):
        assert sc.moment(2 * k) == pytest.approx(CATALAN[k], abs=2e-4)
        assert sc.moment(2 * k + 1) == pytest.approx(0.0, abs=1e-12)
    assert sc.moment(2) == pytest.approx(1.0, abs=1e-6)


def test_semicircle_scaling_and_center():
    m = semicircle(1.5, 0.25)
    assert m.moment(1) == pytest.approx(1.5, abs=1e-9)
    assert m.moment(2) - m.moment(1) ** 2 == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(BadParams):
        semicircle(0, 0.0)


def test_semicircle_density_matches_closed_form():
    sc = semicircle(0, 1)
    t = sc.grid.points()
    inner = np.abs(t) <= 1.8
    target = np.sqrt(4 - t[inner] ** 2) / (2 * np.pi)
    assert np.max(np.abs(sc.density[inner] - target)) <= 1e-5


def test_bernoulli_atoms():
    b = bernoulli_pm1()
    assert b.atoms == ((-1.0, 0.5), (1.0, 0.5))
    assert b.density is None
    assert b.moment(2) == 1.0 and b.moment(3) == 0.0


def test_arcsine_moments():
    a = arcsine()
    # central binomial coefficients: m_{2k} = C(2k, k) s^{2k}; the
    # inverse-square-root edges dominate the grid error at high order
    for k, c in enumerate([1, 2, 6, 20]):
        assert a.moment(2 * k) == pytest.approx(c, rel=5e-4)
    half = arcsine(0.5)
    assert half.moment(2) == pytest.approx(0.5, abs=1e-4)


def test_marchenko_pastur_free_poisson_moments():
    mp = marchenko_pastur(1.0)
    assert mp.atoms == ()
    lo, hi = mp.support()
    assert lo == pytest.approx(0.0, abs=1e-2) and hi == pytest.approx(4.0, abs=1e-2)
    for k, c in enumerate(CATALAN[1:5], start=1):
        assert mp.moment(k) == pytest.approx(c, abs=2e-4)


def test_marchenko_pastur_atom_below_one():
    mp = marchenko_pastur(0.6)
    assert len(mp.atoms) == 1
    pos, w = mp.atoms[0]
    assert pos == 0.0 and w == pytest.approx(0.4, abs=1e-12)
    assert mp.moment(1) == pytest.approx(0.6, abs=1e-6)
    assert mp.moment(2) == pytest.approx(0.6 + 0.36, abs=1e-5)


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.0])
def test_marchenko_pastur_cells_match_exact_integrals(lam):
    # the cell masses come from a closed-form CDF; read back from the
    # quadrature they match a 40-digit integral of the density, edge
    # cells (sqrt edges, and 1/sqrt(t) at lam = 1) included
    mpmath = pytest.importorskip("mpmath")
    mp = marchenko_pastur(lam)
    cells = mp.quadrature()[1][len(mp.atoms):]
    n = cells.size
    with mpmath.workdps(40):
        a = (1 - mpmath.sqrt(lam)) ** 2
        b = (1 + mpmath.sqrt(lam)) ** 2

        def density(t):
            return mpmath.sqrt((b - t) * (t - a)) / (2 * mpmath.pi * t)

        for k in [0, 1, 2, 3, *range(64, n - 4, 64), n - 4, n - 3, n - 2, n - 1]:
            exact = mpmath.quad(density, [a + (b - a) * k / n,
                                          a + (b - a) * (k + 1) / n])
            assert abs(cells[k] - exact) <= 1e-9 * exact, k


def test_moment_cap():
    with pytest.raises(ValueError):
        semicircle(0, 1).moment(33)
    with pytest.raises(ValueError):
        haar_circle().moment(40)


def test_haar_circle_moments_vanish():
    h = haar_circle()
    assert h.moment(0) == pytest.approx(1.0)
    for k in (1, 2, 5, -3):
        assert abs(h.moment(k)) <= 1e-12


def test_circle_negative_moments_conjugate():
    c = circle_atoms([(0.7, 0.4), (2.0, 0.6)])
    for k in (1, 2, 3):
        assert c.moment(-k) == pytest.approx(np.conj(c.moment(k)), abs=1e-14)


def test_circle_atoms_angle_reduction():
    c = circle_atoms([(2 * math.pi + 0.5, 1.0)])
    assert c.atoms[0][0] == pytest.approx(0.5)
    assert c.moment(1) == pytest.approx(np.exp(0.5j), abs=1e-15)


def test_unit_nodes_are_stored_once():
    # every circle node sum reads them; they were once recomputed per call
    m = haar_circle(n=64)
    zeta = m.unit_nodes()
    assert m.unit_nodes() is zeta
    assert not zeta.flags.writeable
    assert np.array_equal(zeta, np.exp(1j * m.quadrature()[0]))


def test_rotate_circle_measure():
    c = circle_atoms([(0.0, 0.5), (6.0, 0.5)])
    r = rotate(c, 1.25)
    assert r.atoms[0][0] == pytest.approx(1.25)
    assert r.moment(1) == pytest.approx(np.exp(1.25j) * c.moment(1), abs=1e-14)
    with pytest.raises(BadParams):
        rotate(haar_circle(), 2.0)
    with pytest.raises(BadParams):
        rotate(c, math.nan)


def test_make_standard_dispatch():
    assert isinstance(make_standard("semicircle", 0, 1), LineMeasure)
    assert isinstance(make_standard("haar_circle"), CircleMeasure)
    assert make_standard("bernoulli_pm1").atoms == ((-1.0, 0.5), (1.0, 0.5))
    m = make_standard("atomic", [(0.5, 1.0)])
    assert m.atoms == ((0.5, 1.0),)
    with pytest.raises(BadParams):
        make_standard("lognormal", 1)
    with pytest.raises(BadParams):
        make_standard("marchenko_pastur", -1.0)
    with pytest.raises(BadParams):
        make_standard("arcsine", 0.0)


def test_json_roundtrip_is_bit_exact(standard_line_measures):
    for m in standard_line_measures.values():
        text = json.dumps(m.to_dict())
        again = from_json(text)
        assert json.dumps(again.to_dict()) == text
        assert again.atoms == m.atoms
        if m.density is not None:
            assert np.array_equal(again.density, m.density)
    for c in (haar_circle(), circle_atoms([(0.3, 0.25), (4.0, 0.75)])):
        text = json.dumps(c.to_dict())
        assert json.dumps(from_json(text).to_dict()) == text
    # a density array, as the constructor takes it, once raised numpy's
    # builtin ValueError from its truth value
    grid = {"lo": 0.0, "hi": 1.0, "n": 8}
    m = LineMeasure.from_dict({"type": "line", "grid": grid,
                               "density": np.ones(8)})
    listed = LineMeasure.from_dict({"type": "line", "grid": grid,
                                    "density": [1.0] * 8})
    assert m.grid == listed.grid == GridSpec(0.0, 1.0, 8)
    assert np.array_equal(m.density, listed.density)


def test_json_schema_keys():
    # a family adds its law; a measure built from its data has none
    d = semicircle(0, 1).to_dict()
    assert sorted(d) == ["atoms", "density", "grid", "law", "type"]
    assert d["law"] == {"kind": "semicircle", "params": [0.0, 1.0]}
    assert sorted(bernoulli_pm1().to_dict()) == ["atoms", "density", "grid",
                                                 "type"]
    assert d["type"] == "line"
    assert sorted(d["grid"]) == ["hi", "lo", "n"]
    assert haar_circle().to_dict()["type"] == "circle"


def test_from_json_rejects_wrong_type():
    d = bernoulli_pm1().to_dict()
    d["type"] = "circle"
    with pytest.raises(BadParams):
        CircleMeasure.from_dict(d | {"atoms": [[0.0, 1.0]], "type": "line"})


def test_from_json_rejects_non_objects():
    for text in ("[1]", "1", "null", '"line"'):
        with pytest.raises(BadParams, match="JSON object"):
            from_json(text)
    with pytest.raises(BadParams, match="JSON object"):
        LineMeasure.from_dict([1])
    # text that is not JSON raised the decoder's error; it is the cause now
    with pytest.raises(BadParams) as info:
        from_json("{")
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


def test_quadrature_defines_mass():
    for m in (semicircle(0, 1), marchenko_pastur(0.7), arcsine(2.0)):
        _, w = m.quadrature()
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w >= 0)


def test_measure_from_circle_moments_recovers_atoms():
    c = circle_atoms([(1.0, 1.0)])
    moments = [c.moment(k) for k in range(1, 17)]
    rec = measure_from_circle_moments(moments)
    assert rec.moment(0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(rec.density >= 0)
    # Fejer weights taper the recovered moments linearly in k
    n = len(moments)
    for k in (1, 2, 3):
        expected = (1 - k / (n + 1)) * c.moment(k)
        assert rec.moment(k) == pytest.approx(expected, abs=5e-3)


@pytest.mark.parametrize("pairs", [[(0.0, 1.0, 2.0)], [1.0], 5])
def test_atoms_must_be_pairs(pairs):
    # a three-element atom once ended in a ValueError from unpacking, and
    # a serialized atom that is a number in a TypeError
    with pytest.raises(BadParams, match="pairs"):
        atomic(pairs)
    with pytest.raises(BadParams, match="pairs"):
        circle_atoms(pairs)
    with pytest.raises(BadParams, match="pairs"):
        from_json(json.dumps({"type": "line", "atoms": pairs}))


@pytest.mark.parametrize("call", [
    lambda: rotate(None, 0.1),
    lambda: rotate(bernoulli_pm1(), 0.1),
    lambda: from_json(None),
    lambda: LineMeasure(grid=GridSpec(-1.0, 1.0, 9), density="abcdefghi"),
    lambda: LineMeasure(grid=GridSpec(-1.0, 1.0, 9),
                        density=np.full(9, 0.5 + 0.5j)),
    lambda: measure_from_circle_moments(["a"]),
    lambda: measure_from_circle_moments(0.5),
], ids=["rotate None", "rotate a line measure", "JSON None",
        "string density", "complex density", "string moment", "scalar moments"])
def test_bad_arguments_raise_bad_params(call):
    # each ended in a builtin AttributeError, TypeError, ValueError or
    # IndexError, or (a complex density) lost its imaginary part with a
    # ComplexWarning
    with pytest.raises(BadParams):
        call()
