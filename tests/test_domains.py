"""Matrix domain calculus: half-plane and contraction margins."""

import numpy as np
import pytest

from freesub import (contraction_margins, halfplane_margin,
                     resolvent_identity_residual)
from freesub.domains import im_part, operator_norm
from freesub.errors import BadParams


def test_im_part_of_imaginary_identity():
    np.testing.assert_allclose(im_part(1j * np.eye(2)), np.eye(2))


def test_im_part_of_hermitian_is_zero(rng):
    h = rng.standard_normal((3, 3))
    h = h + h.T
    assert np.abs(im_part(h)).max() == 0.0


def test_im_part_entrywise():
    t = np.array([[1 + 2j, 3.0], [1.0, -1j]])
    expected = (t - t.conj().T) / 2j
    np.testing.assert_allclose(im_part(t), expected, atol=1e-15)


def test_halfplane_margin_scalar_cases():
    assert halfplane_margin(3j * np.eye(4)) == pytest.approx(3.0)
    h = np.array([[2.0, 1.0], [1.0, 0.0]])
    assert halfplane_margin(h) == pytest.approx(0.0, abs=1e-15)


def test_halfplane_margin_perturbed_diagonal():
    t = np.diag([1j, 2j]) + 0.1 * np.array([[0, 1], [0, 0]])
    # im part is [[1, -0.05i], [0.05i, 2]]; eigenvalues (3 +- sqrt(1.01))/2
    expected = (3 - np.sqrt(1.01)) / 2
    assert halfplane_margin(t) == pytest.approx(expected, rel=1e-12)
    oracle = np.linalg.eigvalsh(np.array([[1, -0.05j], [0.05j, 2]]))[0]
    assert halfplane_margin(t) == pytest.approx(oracle, rel=1e-13)


def test_contraction_margins_cases():
    ci, cii = contraction_margins(np.zeros((2, 2)))
    assert (ci, cii) == pytest.approx((1.0, 1.0))
    ci, cii = contraction_margins(np.diag([0.9, -0.9]))
    assert ci == pytest.approx(0.1)
    assert cii == pytest.approx(2 / 1.9 - 1)
    # scalar boundary: x = i has norm 1 and 2 Re (1-i)^{-1} = 1
    ci, cii = contraction_margins(np.array([[1j]]))
    assert ci == pytest.approx(0.0, abs=1e-15)
    assert cii == pytest.approx(0.0, abs=1e-15)


def test_contraction_margins_singular_resolvent():
    ci, cii = contraction_margins(np.eye(2))
    assert ci == pytest.approx(0.0, abs=1e-12)
    assert cii == -np.inf


def test_contraction_margins_sign_agreement(rng):
    agree = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x *= rng.uniform(0, 2) / operator_norm(x)
        ci, cii = contraction_margins(x)
        if abs(ci) <= 1e-9:
            continue
        assert np.sign(ci) == np.sign(cii)
        agree += 1
    assert agree > 250


def test_resolvent_identity_residual(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x *= rng.uniform(0, 2) / operator_norm(x)
        if np.linalg.svd(np.eye(n) - x, compute_uv=False)[-1] < 0.05:
            continue
        assert resolvent_identity_residual(x) <= 1e-11


@pytest.mark.parametrize("fn", [
    operator_norm, halfplane_margin, contraction_margins,
    resolvent_identity_residual,
])
def test_margins_accept_transposed_and_fortran_input(fn, rng):
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x *= 0.8 / np.linalg.norm(x, 2)
    expected = fn(np.ascontiguousarray(x.T))
    assert fn(x.T) == expected
    assert fn(np.asfortranarray(x.T)) == expected


def test_margins_share_one_svd(rng):
    # the singularity threshold reads s[0] of the SVD it already has; it
    # must equal the operator_norm it replaced, bit for bit
    for n in (1, 2, 5, 40):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.linalg.svd(a, compute_uv=False)[0] == operator_norm(a)


def test_stacked_margins_match_per_matrix_calls(rng):
    # a stack gives one value per matrix, the float a single call gives
    for n in (1, 2, 5):
        x = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
        x *= rng.uniform(0, 2, size=(7, 1, 1)) / np.linalg.norm(
            x, 2, axis=(-2, -1))[:, None, None]
        x[3] = np.eye(n)  # 1 - x singular: resolvent margin -inf
        for fn in (operator_norm, halfplane_margin):
            got = fn(x)
            assert isinstance(got, np.ndarray) and got.shape == (7,)
            assert got.tolist() == [fn(m) for m in x]
        assert np.array_equal(im_part(x), np.stack([im_part(m) for m in x]))
        norm_m, res_m = contraction_margins(x)
        pairs = [contraction_margins(m) for m in x]
        assert norm_m.tolist() == [p[0] for p in pairs]
        assert res_m.tolist() == [p[1] for p in pairs]
        assert res_m[3] == -np.inf
        ok = np.delete(x, 3, axis=0)
        assert resolvent_identity_residual(ok).tolist() == \
            [resolvent_identity_residual(m) for m in ok]
    for fn in (operator_norm, halfplane_margin, resolvent_identity_residual):
        assert isinstance(fn(0.5 * np.eye(3)), float)
    assert all(isinstance(v, float) for v in contraction_margins(np.eye(2) / 2))


@pytest.mark.parametrize("fn", [
    operator_norm, im_part, halfplane_margin, contraction_margins,
    resolvent_identity_residual,
])
def test_margins_reject_non_square_stacks(fn):
    with pytest.raises(BadParams):
        fn(np.zeros((3, 2, 3)))
    with pytest.raises(BadParams):
        fn(np.zeros(4))
