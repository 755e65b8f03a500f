"""The semicircle, arcsine and Marchenko-Pastur families in closed form:
G and G', moments, support, the domain rule and the serialized law."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesub import (BadParams, DomainError, LineMeasure, arcsine,
                     bernoulli_pm1, cauchy_transform, from_json, h_transform,
                     haar_circle, marchenko_pastur, reciprocal_cauchy,
                     semicircle)
from freesub.measures import _MAX_MOMENT
from freesub.transforms import _node_sums, _node_table


def _gridded(measure):
    """The same atoms, grid and density with no law: a node-sum measure."""
    return LineMeasure(atoms=measure.atoms, grid=measure.grid,
                       density=measure.density)


def _exact(kind, params, z):
    """G and G' at z from the textbook forms, in 50 digits.  The square
    root is the product of principal roots, as in the package; the
    cancellations these forms carry are harmless at this precision."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        p = [mpmath.mpf(v) for v in params]
        if kind == "semicircle":
            c, v = p
            a, b = c - 2 * mpmath.sqrt(v), c + 2 * mpmath.sqrt(v)
        elif kind == "arcsine":
            a, b = -2 * p[0], 2 * p[0]
        else:
            a, b = (1 - mpmath.sqrt(p[0])) ** 2, (1 + mpmath.sqrt(p[0])) ** 2
        s = mpmath.sqrt(z - a) * mpmath.sqrt(z - b)
        ds = (z - (a + b) / 2) / s
        if kind == "semicircle":
            g, dg = (z - c - s) / (2 * v), (1 - ds) / (2 * v)
        elif kind == "arcsine":
            g, dg = 1 / s, -ds / s**2
        else:
            q = z + 1 - p[0] - s
            g, dg = q / (2 * z), ((1 - ds) * z - q) / (2 * z**2)
        return complex(g), complex(dg)


# parameters whose edges a, b (and MP's 1 -+ lam) are exact in binary, so
# that the measure and the 50-digit reference hold the same law: an edge
# rounded by one ulp moves G by ~eps * |a| / sqrt|z - a| next to it,
# 1e-13 relative at Im z = 1e-6, whatever evaluates it
_LAWS = st.one_of(
    st.tuples(st.just("semicircle"),
              st.tuples(st.integers(-8, 8).map(lambda k: k / 16),
                        st.integers(4, 24).map(lambda j: (j / 16) ** 2))),
    st.tuples(st.just("arcsine"),
              st.tuples(st.integers(4, 32).map(lambda j: j / 16))),
    st.tuples(st.just("marchenko_pastur"),
              st.tuples(st.integers(1, 28).map(lambda j: (j / 16) ** 2))))


@settings(max_examples=80, deadline=None)
@given(law=_LAWS, data=st.data())
def test_family_transforms_match_50_digits(law, data):
    # to 1e-14 relative, next to both edges and MP's atom at Im z down to
    # 1e-6, in both half planes and far out; 1.2e-15 is the worst seen
    kind, params = law
    m = {"semicircle": semicircle, "arcsine": arcsine,
         "marchenko_pastur": marchenko_pastur}[kind](*params, n=64)
    a, b = m.support()
    anchor = st.sampled_from([a, b, 0.0, (a + b) / 2])
    offset = st.one_of(st.floats(-1e-3, 1e-3), st.floats(-4.0, 4.0))
    height = st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)
    points = st.builds(lambda t, d, y, lower: complex(t + d, -y if lower else y),
                       anchor, offset, height, st.booleans())
    z = np.array(data.draw(st.lists(points, min_size=1, max_size=8))
                 + [complex(1e6, 1.0), complex(-3e7, 2e3)])
    g, dg = _node_sums(z, _node_table(m))
    for i, zi in enumerate(z):
        want_g, want_dg = _exact(kind, params, zi)
        assert abs(g[i] - want_g) <= 1e-14 * abs(want_g), zi
        assert abs(dg[i] - want_dg) <= 1e-14 * abs(want_dg), zi
        one_g, one_dg = _node_sums(zi, _node_table(m))
        assert one_g == g[i] and one_dg == dg[i]


@pytest.mark.parametrize("measure, bound", [
    (semicircle(0, 1), 2e-7), (arcsine(), 4e-5),
    (marchenko_pastur(0.5), 2e-7), (marchenko_pastur(1.5), 1e-6)],
    ids=["semicircle", "arcsine", "mp-0.5", "mp-1.5"])
def test_closed_form_agrees_with_the_2048_cell_sum(measure, bound):
    # at Im z = 0.5 the 2048 cells miss the law by 1.1e-7 (semicircle),
    # 2.3e-5 (arcsine, 1/sqrt edges), 1.2e-7 and 5.1e-7 (MP)
    lo, hi = measure.support()
    z = np.linspace(lo - 0.5, hi + 0.5, 801) + 0.5j
    exact = cauchy_transform(measure, z)
    summed = cauchy_transform(_gridded(measure), z)
    assert _node_table(measure) is measure._law
    assert np.max(np.abs(exact - summed)) <= bound


def test_family_moments_are_exact():
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(17)]
    sc, mp = semicircle(0, 1), marchenko_pastur(1.0)
    for k in range(_MAX_MOMENT + 1):
        assert sc.moment(k) == (0.0 if k % 2 else catalan[k // 2])
        assert arcsine(0.5).moment(k) == (
            0.0 if k % 2 else math.comb(k, k // 2) / 4 ** (k // 2))
    for k in range(1, 17):
        assert mp.moment(k) == catalan[k]   # Narayana polynomials at 1
    # the centre shift: E(c + X)^2 and E(c + X)^3 for variance v
    assert semicircle(0.5, 0.25).moment(2) == 0.5
    assert semicircle(0.5, 0.25).moment(3) == 0.5
    lam = marchenko_pastur(0.25)
    assert [lam.moment(k) for k in range(4)] == [1.0, 0.25, 0.3125, 0.453125]
    # beyond the float range a moment is infinite, as the grid's sum was
    assert semicircle(1e10, 1).moment(32) == math.inf
    assert semicircle(-1e10, 1).moment(31) == -math.inf


@pytest.mark.parametrize("measure, rel", [
    (semicircle(0, 1), 1e-5), (semicircle(0.3, 0.7), 1e-5),
    (arcsine(), 5e-4), (arcsine(0.6), 5e-4),
    (marchenko_pastur(0.5), 1e-5), (marchenko_pastur(1.5), 1e-5)],
    ids=["sc", "sc-shifted", "arcsine", "arcsine-0.6", "mp-0.5", "mp-1.5"])
def test_exact_moments_hold_the_grid_to_its_error(measure, rel):
    # the 2048 cells' own error reaches 4.3e-5 at m_8 of the semicircle
    # and 1.7e-4 relative at m_8 of the arcsine, whose edges are 1/sqrt
    t, w = measure.quadrature()
    for k in range(9):
        grid = float(np.sum(w * t**k))
        assert abs(measure.moment(k) - grid) <= rel * max(1.0, abs(grid)), k


def test_family_support_is_the_law():
    assert semicircle(0.25, 2.25).support() == (-2.75, 3.25)
    assert arcsine(2.0).support() == (-4.0, 4.0)
    assert marchenko_pastur(2.25).support() == (0.25, 6.25)
    # the atom at 0 lies below a = 0.25
    assert marchenko_pastur(0.25).support() == (0.0, 2.25)
    nodes = semicircle(0, 1).quadrature()[0]
    assert -2.0 < nodes.min() and nodes.max() < 2.0


def test_law_measures_reject_points_on_their_support():
    # the support is off limits within the node clearance of the line, as
    # a node is; 0.5 on the semicircle once returned 0.2499999997
    sc, mp = semicircle(0, 1), marchenko_pastur(0.5)
    for fn in (cauchy_transform, reciprocal_cauchy, h_transform):
        for z in (0.5, complex(0.5, 1e-13), complex(-0.5, -1e-13), -2.0, 2.0):
            with pytest.raises(DomainError):
                fn(sc, np.array([1j, z]))
        for z in (0.0, complex(0.0, 1e-13), 1.0):
            with pytest.raises(DomainError):
                fn(mp, z)
    # off the support the line is fine: outside [-2, 2], in MP's gap
    assert cauchy_transform(sc, 2.5) == pytest.approx(
        (2.5 - math.sqrt(2.25)) / 2, rel=1e-15)
    g = cauchy_transform(mp, 0.05)
    assert g.imag == 0.0 and g.real > 0
    assert np.imag(cauchy_transform(sc, complex(0.5, 1e-11))) < 0


def test_law_round_trips_bit_exactly():
    for m in (semicircle(0.1, 0.7, n=100), arcsine(1.3),
              marchenko_pastur(0.3), marchenko_pastur(2.0, n=50)):
        d = m.to_dict()
        again = from_json(json.dumps(d))
        assert again._law == m._law
        assert json.dumps(again.to_dict()) == json.dumps(d)
        assert _node_table(again) is again._law
        # without "law" the dict reads as before: a node-sum measure
        plain = LineMeasure.from_dict({k: v for k, v in d.items() if k != "law"})
        assert plain._law is None and "law" not in plain.to_dict()
        assert np.array_equal(plain.density, m.density)


@pytest.mark.parametrize("law, base", [
    ({"kind": "cauchy", "params": [0.0]}, semicircle),
    ({"kind": "bernoulli_pm1", "params": []}, semicircle),
    ("semicircle", semicircle),
    ({"kind": "semicircle"}, semicircle),
    ({"kind": "semicircle", "params": [0.0, 1.0, 1.0]}, semicircle),
    ({"kind": "semicircle", "params": [0.0, -1.0]}, semicircle),
    ({"kind": "semicircle", "params": [0.5, 1.0]}, semicircle),
    ({"kind": "semicircle", "params": 1.0}, semicircle),
    ({"kind": "arcsine", "params": [0.5]}, semicircle),
    ({"kind": "semicircle", "params": [0.0, 1.0]}, bernoulli_pm1),
    ({"kind": "semicircle", "params": [0.0, 1.0]}, haar_circle),
], ids=["unknown kind", "not a law", "not an object", "no params",
        "too many params", "bad variance", "other centre", "params not a list",
        "other family", "no grid", "circle"])
def test_bad_law_raises_bad_params(law, base):
    d = base().to_dict() | {"law": law}
    with pytest.raises(BadParams):
        from_json(json.dumps(d))
