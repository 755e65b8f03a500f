"""Multiplicative convolution on the circle and the disk-side solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesub.multiplicative as multiplicative
import freesub.transforms as transforms
from freesub import (
    circle_atoms,
    circle_cauchy,
    disk_subordination_solve,
    eta_transform,
    free_mult_convolve_unitary,
    free_multiplicative_moments,
    haar_circle,
    measure_from_circle_moments,
    rotate,
)
from freesub.errors import (BadParams, DegenerateTransform, DomainError,
                            NoConvergence)
from freesub.multiplicative import _ETA_TOL, _eta_ratio, _omega1


def test_disk_solve_point_mass():
    # nu = delta_1: K(g) = 1/(1-g), so K(g) = 2 at g = 1/2
    nu = circle_atoms([(0.0, 1.0)])
    res = disk_subordination_solve(nu, 2.0)
    assert abs(res.g - 0.5) <= 1e-12
    assert res.residual <= 1e-12
    assert abs(res.ball_margin - 0.5) <= 1e-12


def test_disk_solve_hits_quadrature_value():
    # pick g0 inside the disk, feed K(g0) back in, expect g0 recovered
    nu = circle_atoms([(0.0, 0.4), (2.0, 0.35), (-1.2, 0.25)])
    for g0 in (0.2 + 0.3j, -0.55, 0.1 - 0.6j):
        target = circle_cauchy(nu, g0)
        res = disk_subordination_solve(nu, target)
        assert abs(res.g - g0) <= 1e-10
        assert res.ball_margin > 0


def test_disk_solve_zero_target_two_atoms():
    # symmetric two-atom law: K(g) = g/(g^2-1) vanishes only at g = 0
    nu = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    res = disk_subordination_solve(nu, 0.0)
    assert abs(res.g) <= 1e-10


def test_disk_solve_leaves_path_to_outer_root():
    # Newton from 0 walks toward a root outside the disk and stalls at
    # the boundary; the solve must still find the preimage inside
    nu = circle_atoms(list(zip(
        [0.9532892862342377, 2.56032642068303, 5.240342869474504],
        [0.5, 0.3, 0.2])))
    g0 = -0.06156884211564683 - 0.4832192067775718j
    res = disk_subordination_solve(nu, circle_cauchy(nu, g0))
    assert res.residual <= 1e-12
    assert abs(res.g - g0) <= 1e-10


def test_disk_solve_returns_a_preimage():
    # K is not injective on the disk: here K(g) = K(g0) has a second root
    # in the disk (and a third at |g| = 1.09), and either disk root is a
    # solution
    nu = circle_atoms([(4.439457722628015, 0.5), (0.3334388087684525, 0.3),
                       (3.0767889122509464, 0.2)])
    g0 = -0.35074006904520333 - 0.30564131504810876j
    other = -0.3867256361012562 + 0.5621785903718889j
    target = circle_cauchy(nu, g0)
    assert abs(circle_cauchy(nu, other) - target) <= 1e-12
    res = disk_subordination_solve(nu, target)
    assert res.residual <= 1e-12
    assert min(abs(res.g - g0), abs(res.g - other)) <= 1e-10


def _disk_law(kind, rng):
    if kind == "poisson":
        a = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.random())
        return measure_from_circle_moments([a ** k for k in range(1, 17)],
                                           n=256)
    k = 3 if kind == "atoms3" else 5
    w = np.array([0.5, 0.3, 0.2]) if k == 3 else rng.dirichlet(np.ones(5))
    return circle_atoms(list(zip(rng.uniform(0, 2 * np.pi, k), w)))


_LAW_KINDS = ["atoms3", "atoms5", "poisson"]
_BANDS = [(0.0, 0.25), (0.3, 0.6), (0.6, 0.9), (0.9, 0.97)]  # of |g0|


@pytest.mark.parametrize("kind", _LAW_KINDS)
@pytest.mark.parametrize("band", _BANDS, ids="{0[0]}-{0[1]}".format)
def test_disk_solve_seeded_sweep(kind, band):
    # every target K(g0) has a preimage in the disk, g0 or another root
    rng = np.random.default_rng(
        [20261020, _LAW_KINDS.index(kind), _BANDS.index(band)])
    failures = []
    for _ in range(500):
        nu = _disk_law(kind, rng)
        g0 = rng.uniform(*band) * np.exp(2j * np.pi * rng.random())
        target = circle_cauchy(nu, g0)
        try:
            res = disk_subordination_solve(nu, target)
        except NoConvergence:
            failures.append(g0)
            continue
        assert res.residual <= 1e-12 and 0 < res.ball_margin <= 1
        assert abs(circle_cauchy(nu, res.g) - target) <= 1e-12
    assert failures == []


def test_disk_solve_rejects_haar():
    with pytest.raises(DegenerateTransform):
        disk_subordination_solve(haar_circle(), 0.3)


def test_disk_solve_rejects_non_finite_target():
    nu = circle_atoms([(0.0, 0.5), (2.0, 0.5)])
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(DomainError):
            disk_subordination_solve(nu, bad)


@pytest.mark.parametrize("bad", ["x", [0.1, 0.2], None])
def test_disk_solve_rejects_targets_that_are_not_one_number(bad):
    # complex("x") once reached the caller as a builtin ValueError
    with pytest.raises(BadParams, match="target"):
        disk_subordination_solve(circle_atoms([(0.0, 0.5), (2.0, 0.5)]), bad)


def test_mult_convolve_rotations_compose():
    # delta_a x delta_b = delta_{ab} on the circle
    a, b = 0.8, -1.3
    conv = free_mult_convolve_unitary(circle_atoms([(a, 1.0)]),
                                      circle_atoms([(b, 1.0)]), order=6)
    want = [np.exp(1j * k * (a + b)) for k in range(1, 7)]
    assert np.max(np.abs(np.array(conv.moments) - want)) <= 1e-10
    assert conv.fixed_point_residual <= 1e-12
    assert max(conv.certificates) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.01, 1.0)),
                min_size=1, max_size=5))
def test_mult_convolve_haar_absorbs(atoms):
    # Haar x nu is Haar, so every moment is exactly 0.  What remains is
    # rounding: K over 2048 equal-weight nodes cancels to zero, and the
    # radius^-k of the Fourier read-out amplifies it with the order.  The
    # bounds are 4-6x the worst seen over 4,800 such draws: 2.4e-15 up to
    # order 6, 1.9e-12 up to order 16 and 4.6e-10 for the certificates
    total = sum(w for _, w in atoms)
    nu = circle_atoms([(a, w / total) for a, w in atoms])
    conv = free_mult_convolve_unitary(haar_circle(), nu, order=16)
    moments = np.abs(conv.moments)
    assert moments[:6].max() <= 1e-14
    assert moments.max() <= 1e-11
    assert max(conv.certificates) <= 2e-9


def test_mult_convolve_both_centered():
    # centered x centered: every moment of the product vanishes
    mu = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    nu = circle_atoms([(np.pi / 2, 0.5), (-np.pi / 2, 0.5)])
    conv = free_mult_convolve_unitary(mu, nu, order=8)
    assert np.max(np.abs(conv.moments)) <= 1e-12


def test_mult_convolve_first_moment_factorizes():
    mu = circle_atoms([(0.3, 0.7), (-1.1, 0.3)])
    nu = circle_atoms([(0.9, 0.55), (2.2, 0.45)])
    conv = free_mult_convolve_unitary(mu, nu, order=4)
    assert abs(conv.moments[0] - mu.moment(1) * nu.moment(1)) <= 1e-12


def test_mult_convolve_matches_combinatorics():
    # independent check: noncrossing moment formula on the same moments
    mu = circle_atoms([(0.4, 0.6), (-0.9, 0.4)])
    nu = circle_atoms([(1.7, 0.5), (0.2, 0.3), (-2.5, 0.2)])
    conv = free_mult_convolve_unitary(mu, nu, order=6)
    ma = [mu.moment(k) for k in range(1, 7)]
    mb = [nu.moment(k) for k in range(1, 7)]
    want = free_multiplicative_moments(ma, mb, 6)
    assert np.max(np.abs(np.array(conv.moments) - want)) <= 1e-9


def test_mult_convolve_associates_with_rotation():
    # (mu x delta_phi) x nu has the moments of mu x nu rotated by phi
    phi = 1.15
    mu = circle_atoms([(0.5, 0.5), (-0.7, 0.5)])
    nu = circle_atoms([(0.1, 0.8), (2.9, 0.2)])
    rotated = free_mult_convolve_unitary(rotate(mu, phi), nu, order=6)
    plain = free_mult_convolve_unitary(mu, nu, order=6)
    want = [m * np.exp(1j * k * phi) for k, m in enumerate(plain.moments, 1)]
    assert np.max(np.abs(np.array(rotated.moments) - np.array(want))) <= 1e-9


def test_mult_convolve_validates_arguments():
    mu = circle_atoms([(0.0, 1.0)])
    with pytest.raises(BadParams):
        free_mult_convolve_unitary(mu, mu, order=17)


def test_mult_convolution_measure_roundtrip():
    mu = circle_atoms([(0.4, 0.6), (-0.9, 0.4)])
    nu = circle_atoms([(1.7, 0.5), (0.2, 0.5)])
    conv = free_mult_convolve_unitary(mu, nu, order=8)
    rec = conv.measure(n=1024)
    # Fejer taper scales moment k by 1 - k/(order+1)
    for k in range(1, 9):
        want = conv.moments[k - 1] * (1 - k / 9)
        assert abs(rec.moment(k) - want) <= 1e-9


def test_mult_convolve_calls_no_public_transform(monkeypatch):
    # the fixed point and the read-out take K at the conjugate point
    # straight from the node-sum kernel
    def refuse(*args):
        raise AssertionError("public transform called")

    for name in ("circle_cauchy", "psi_transform", "eta_transform"):
        monkeypatch.setattr(transforms, name, refuse)
        monkeypatch.setattr(multiplicative, name, refuse, raising=False)
    mu = circle_atoms([(0.4, 0.6), (-0.9, 0.4)])
    conv = free_mult_convolve_unitary(mu, haar_circle(), order=4)
    assert np.max(np.abs(conv.moments)) <= 1e-14


@st.composite
def _circle_laws(draw):
    """An atomic law of 1-4 atoms, a Poisson kernel read off its moments
    on a grid, or Haar measure."""
    kind = draw(st.sampled_from(["atoms", "poisson", "haar"]))
    if kind == "haar":
        return haar_circle(n=draw(st.sampled_from([256, 2048])))
    if kind == "poisson":
        r = draw(st.floats(0.0, 0.9))
        phi = draw(st.floats(0.0, 2 * np.pi))
        return measure_from_circle_moments(
            [(r * np.exp(1j * phi)) ** k for k in range(1, 17)], n=256)
    k = draw(st.integers(1, 4))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return circle_atoms(list(zip(angles, w / w.sum())))


# batches of points with 0.05 <= |z| <= 0.9
_DISK_POINTS = st.lists(
    st.builds(lambda r, t: r * np.exp(1j * t), st.floats(0.05, 0.9),
              st.floats(0.0, 2 * np.pi)),
    min_size=1, max_size=24).map(np.array)


@settings(max_examples=150, deadline=None)
@given(mu=_circle_laws(), nu=_circle_laws(), z=_DISK_POINTS)
def test_circle_pairs_keep_the_invariants(mu, nu, z):
    # eta maps the disk into itself and fixes 0, so Schwarz bounds both
    # subordination functions by |z|, up to the rounding of z * eta(q)/q;
    # eta_mu(omega1) = omega1 omega2 / z differs from eta_nu(omega2) by
    # |omega2/z| times the next step, which the loop keeps under its tol
    omega1, _ = _omega1(mu, nu, z)
    omega2 = z * _eta_ratio(mu, omega1)
    bound = np.abs(z) * (1 + 4 * np.finfo(float).eps)
    assert np.all(np.abs(omega1) <= bound)
    assert np.all(np.abs(omega2) <= bound)
    gap = np.abs(eta_transform(mu, omega1) - eta_transform(nu, omega2))
    assert gap.max() <= _ETA_TOL
