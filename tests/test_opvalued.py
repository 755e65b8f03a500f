"""Matrix-valued Cauchy transforms, covariance maps, subordination inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesub import (
    CovarianceMap,
    OpCauchyEval,
    halfplane_margin,
    op_add_cauchy,
    op_semicircular_cauchy,
    semicircular_shift_F,
    solve_subordination_F,
)
from freesub.errors import BadParams, DomainError, JacobianSingular


def cm(*mats):
    return CovarianceMap(tuple(np.array(m, dtype=complex) for m in mats))


def random_upper(rng, n, lift=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sym = (a + a.conj().T) / 2
    return sym / 4 + 1j * lift * np.eye(n)


def test_covariance_map_action():
    k1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    k2 = np.array([[0.0, 1j], [0.5, 0.0]])
    eta = cm(k1, k2)
    b = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
    want = k1 @ b @ k1.conj().T + k2 @ b @ k2.conj().T
    assert np.allclose(eta(b), want, atol=1e-14)
    assert eta.n == 2


def test_covariance_map_positivity():
    # eta maps PSD to PSD: spot-check eigenvalues on random PSD inputs
    rng = np.random.default_rng(5)
    eta = cm(rng.normal(size=(3, 3)), 1j * rng.normal(size=(3, 3)))
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        psd = a @ a.conj().T
        out = eta(psd)
        assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) >= -1e-10


def test_covariance_plus_and_symmetrized():
    k = np.array([[0.0, 1.0], [0.0, 0.0]])
    eta = cm(k)
    b = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    both = eta.plus(cm(2 * k))
    assert np.allclose(both(b), eta(b) + 4 * eta(b), atol=1e-14)
    sym = eta.symmetrized()
    want = (k @ b @ k.conj().T + k.conj().T @ b @ k) / 2
    assert np.allclose(sym(b), want, atol=1e-14)
    with pytest.raises(BadParams):
        eta.plus(CovarianceMap((np.zeros((3, 3)),)))


def test_covariance_validation():
    with pytest.raises(BadParams):
        CovarianceMap(())
    with pytest.raises(BadParams):
        CovarianceMap((np.zeros((9, 9)),))
    with pytest.raises(BadParams):
        CovarianceMap((np.zeros((2, 3)),))
    with pytest.raises(BadParams):
        CovarianceMap((np.zeros((1, 2, 2)),))


@pytest.mark.parametrize("kraus", [[[["a", 1.0]]], [[[1.0]]], 5, [[1.0]],
                                   [[[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0]]]]])
def test_covariance_from_dict_rejects_malformed_kraus(kraus):
    # a malformed entry once raised a builtin ValueError or TypeError
    with pytest.raises(BadParams, match="kraus"):
        CovarianceMap.from_dict({"n": 2, "kraus": kraus})


def test_covariance_serialization_roundtrip():
    rng = np.random.default_rng(8)
    eta = cm(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
             rng.normal(size=(3, 3)))
    back = CovarianceMap.from_dict(eta.to_dict())
    for a, b in zip(eta.kraus, back.kraus):
        assert np.array_equal(a, b)


def test_scalar_semicircle_closed_form():
    # n = 1, eta(g) = g: G(z) = (z - sqrt(z^2-4))/2
    eta = cm(np.array([[1.0]]))
    for z in (2j, 0.5 + 1j, -1.2 + 0.3j):
        res = op_semicircular_cauchy(eta, np.array([[z]]))
        want = (z - np.sqrt(z - 2) * np.sqrt(z + 2)) / 2
        assert abs(res.g[0, 0] - want) <= 1e-11
        assert res.residual <= 1e-11


def test_zero_covariance_gives_resolvent():
    rng = np.random.default_rng(3)
    b = random_upper(rng, 4)
    res = op_semicircular_cauchy(CovarianceMap((np.zeros((4, 4)),)), b)
    assert np.max(np.abs(res.g - np.linalg.inv(b))) <= 1e-12


def test_diagonal_covariance_decouples():
    # diagonal Kraus and diagonal b: each entry solves its own scalar
    # semicircle equation with variance c_i^2
    c = np.diag([1.0, 0.5, 2.0])
    eta = cm(c)
    z = np.diag([2j, 1 + 1j, -0.5 + 3j])
    res = op_semicircular_cauchy(eta, z)
    for i, (zi, ci) in enumerate(zip(np.diag(z), np.diag(c))):
        s = ci * ci
        want = (zi - np.sqrt(zi * zi - 4 * s)) / (2 * s) if s else 1 / zi
        if want.imag > 0:
            want = (zi + np.sqrt(zi * zi - 4 * s)) / (2 * s)
        assert abs(res.g[i, i] - want) <= 1e-10
    off = res.g - np.diag(np.diag(res.g))
    assert np.max(np.abs(off)) <= 1e-12


def test_cauchy_requires_half_plane():
    eta = cm(np.eye(2))
    with pytest.raises(DomainError):
        op_semicircular_cauchy(eta, np.array([[1.0, 0], [0, 1.0]]))


def test_cauchy_value_herglotz_sweep():
    rng = np.random.default_rng(12)
    eta = cm(rng.normal(size=(3, 3)) / 2, 1j * rng.normal(size=(3, 3)) / 3)
    for lift in (0.2, 1.0, 4.0):
        b = random_upper(rng, 3, lift)
        res = op_semicircular_cauchy(eta, b)
        assert halfplane_margin(-res.g) > 0
        # defining equation holds to solver tolerance
        assert np.linalg.norm(np.linalg.inv(b - eta(res.g)) - res.g) <= 1e-10


def test_additivity_matches_closed_form_shift():
    rng = np.random.default_rng(4)
    eta_x = cm(np.array([[0.9, 0.3], [0.0, 0.6]]))
    eta_y = cm(np.array([[0.5, -0.2], [0.1, 0.7]]))
    b = random_upper(rng, 2)
    gxy = op_add_cauchy(eta_x, eta_y, b)
    f = semicircular_shift_F(eta_y, gxy.g, b)
    gx_at_f = op_semicircular_cauchy(eta_x, f)
    assert np.max(np.abs(gx_at_f.g - gxy.g)) <= 1e-10


def test_solve_subordination_roundtrip():
    rng = np.random.default_rng(9)
    eta_x = cm(np.array([[0.9, 0.3], [0.0, 0.6]]))
    eta_y = cm(np.array([[0.5, -0.2], [0.1, 0.7]]))
    b = random_upper(rng, 2)
    gxy = op_add_cauchy(eta_x, eta_y, b)

    def g_x(w):
        return op_semicircular_cauchy(eta_x, w, tol=1e-13).g

    f = solve_subordination_F(g_x, gxy.g, b)
    oracle = semicircular_shift_F(eta_y, gxy.g, b)
    assert np.max(np.abs(f - oracle)) <= 1e-8
    assert halfplane_margin(f) > 0


def test_solve_subordination_call_count():
    # one call at b_start and one per line-search candidate, each on the
    # point and its n^2 difference points; this n = 3 point accepts four
    # full steps, so 1 + 4 calls of 10 matrices
    rng = np.random.default_rng(3)
    n = 3
    eta_x = cm(rng.normal(size=(n, n)) / 2)
    eta_y = cm(rng.normal(size=(n, n)) / 2)
    b = random_upper(rng, n)
    gxy = op_add_cauchy(eta_x, eta_y, b)
    shapes = []

    def g_x(w):
        shapes.append(np.shape(w))
        return op_semicircular_cauchy(eta_x, w).g

    f = solve_subordination_F(g_x, gxy.g, b)
    steps = len(shapes) - 1
    assert shapes == [(n * n + 1, n, n)] * (1 + steps)
    assert steps == 4
    assert np.max(np.abs(g_x(f) - gxy.g)) <= 1e-10


def test_op_cauchy_eval_rejects_upper_half_plane_value():
    with pytest.raises(DomainError):
        OpCauchyEval(b=1j * np.eye(2), g=1j * np.eye(2), residual=0.0,
                     iterations=1)


def test_solve_subordination_respects_domains():
    eta = cm(np.eye(2))

    def g_x(w):
        return op_semicircular_cauchy(eta, w).g

    with pytest.raises(DomainError):
        solve_subordination_F(g_x, np.eye(2) * (1 + 1j), 2j * np.eye(2))
    with pytest.raises(DomainError):
        solve_subordination_F(g_x, -1j * np.eye(2), np.zeros((2, 2)))


def test_solve_subordination_flags_flat_map():
    const = -0.5j * np.eye(2)

    def g_flat(w):
        return np.broadcast_to(const, np.shape(w))

    with pytest.raises(JacobianSingular):
        solve_subordination_F(g_flat, -0.25j * np.eye(2), 1j * np.eye(2))
    # a callback that ignores the stack is a contract error, not a
    # Jacobian
    with pytest.raises(BadParams):
        solve_subordination_F(lambda w: const, -0.25j * np.eye(2),
                              1j * np.eye(2))


def test_larger_blocks_converge():
    rng = np.random.default_rng(21)
    eta = cm(rng.normal(size=(6, 6)) / 3, rng.normal(size=(6, 6)) / 3)
    b = random_upper(rng, 6, lift=0.8)
    res = op_semicircular_cauchy(eta, b)
    assert res.residual <= 1e-10
    assert halfplane_margin(-res.g) > 0


def test_kron_helper_matches_numpy_bitwise():
    # the Newton Jacobian's Kronecker products must be np.kron exactly
    from freesub.opvalued import _kron
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eye = np.eye(n)
        for x, y in ((a, eye), (eye, a.T), (a, a.conj())):
            got, want = _kron(x, y), np.kron(x, y)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_covariance_kron_matrix_is_vec_action():
    # row-major vec(eta(d) g) = kron(I, g^T) @ K @ vec(d), K the cached matrix
    rng = np.random.default_rng(8)
    eta = cm(*(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(2)))
    d = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = (eta(d) @ g).reshape(-1)
    rhs = np.kron(np.eye(3), g.T) @ eta._kraus_kron @ d.reshape(-1)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert eta._kraus_kron is eta._kraus_kron


def test_stacked_cauchy_matches_per_matrix_solves():
    # points at different heights converge after different numbers of
    # passes; each must still get the value of its own solve
    rng = np.random.default_rng(30)
    for n in (1, 2, 3):
        eta = cm(rng.normal(size=(n, n)) / 2, 1j * rng.normal(size=(n, n)) / 3)
        b = np.stack([random_upper(rng, n, lift)
                      for lift in (0.05, 0.3, 1.0, 4.0, 0.5, 2.0)])
        b = b.reshape(2, 3, n, n)
        res = op_semicircular_cauchy(eta, b)
        assert res.g.shape == res.b.shape == b.shape
        singles = [op_semicircular_cauchy(eta, p) for p in b.reshape(-1, n, n)]
        for got, one in zip(res.g.reshape(-1, n, n), singles):
            assert np.array_equal(got, one.g)
        assert res.residual == max(one.residual for one in singles)
        assert res.iterations == max(one.iterations for one in singles)
        assert isinstance(res.iterations, int)


def test_singular_newton_system_leaves_the_rest_of_its_stack(monkeypatch):
    # np.linalg.solve is patched to reject the second matrix's first
    # Newton system wherever it appears: only that matrix takes a Picard
    # step, and every matrix keeps the bits of its own one-matrix solve
    rng = np.random.default_rng(32)
    eta = cm(rng.normal(size=(2, 2)) / 2, 1j * rng.normal(size=(2, 2)) / 3)
    b = np.stack([random_upper(rng, 2, lift) for lift in (0.05, 0.3, 1.0, 4.0)])
    solve = np.linalg.solve
    rejected = []

    def rejecting(a, rhs):
        systems = a.reshape(-1, *a.shape[-2:])
        if not rejected:
            rejected.append(systems[1].copy())
        if any(np.array_equal(m, rejected[0]) for m in systems):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", rejecting)
    res = op_semicircular_cauchy(eta, b)
    for got, p in zip(res.g, b):
        assert np.array_equal(got, op_semicircular_cauchy(eta, p).g)


def test_covariance_map_on_stack_matches_loop():
    rng = np.random.default_rng(31)
    eta = cm(*(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(3)))
    b = rng.normal(size=(4, 2, 3, 3)) + 1j * rng.normal(size=(4, 2, 3, 3))
    out = eta(b)
    assert out.shape == b.shape
    for i in np.ndindex(4, 2):
        assert np.max(np.abs(out[i] - eta(b[i]))) <= 1e-14


def test_stack_shapes_are_checked():
    eta = cm(np.eye(2))
    with pytest.raises(BadParams):
        eta(np.zeros((3, 2, 3)))
    with pytest.raises(BadParams):
        op_semicircular_cauchy(eta, 1j * np.ones((3, 2, 3)))
    with pytest.raises(BadParams):
        op_semicircular_cauchy(eta, 1j * np.ones((3, 3, 3)))
    g = lambda w: op_semicircular_cauchy(eta, w).g  # noqa: E731
    with pytest.raises(BadParams):
        solve_subordination_F(g, -1j * np.eye(2), 1j * np.ones((2, 2, 2)))


@st.composite
def _kraus_and_points(draw):
    """A Kraus map of 1-3 terms on n = 1-4 and a stack of 1-6 points
    b = H + i(C C* + lift I), with entries drawn from a seeded generator."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    scale = draw(st.floats(0.1, 2.0))
    kraus = tuple(scale * gaussian(n, n) / n
                  for _ in range(draw(st.integers(1, 3))))
    k = draw(st.integers(1, 6))
    h, c = gaussian(k, n, n), gaussian(k, n, n)
    lift = 10.0 ** draw(st.floats(-2.0, 0.5))
    b = (h + h.conj().mT) / 2 + 1j * (c @ c.conj().mT / n + lift * np.eye(n))
    return CovarianceMap(kraus), b


@settings(max_examples=100, deadline=None)
@given(case=_kraus_and_points())
def test_op_cauchy_keeps_the_invariants(case):
    # at every point of the stack: Im G(b) < 0, and g solves
    # g = (b - eta(g))^{-1} to the solver's tolerance, scaled as its
    # stopping rule scales it by max(1, ||b^{-1}||)
    eta, b = case
    res = op_semicircular_cauchy(eta, b)
    assert np.all(halfplane_margin(-res.g) > 0)
    fixed = np.linalg.inv(b - eta(res.g))
    gap = np.linalg.norm(fixed - res.g, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(np.linalg.inv(b), axis=(-2, -1)))
    assert np.all(gap <= 2e-12 * scale)


def _two_call_newton(g_x_eval, g_target, w, tol=1e-10):
    """solve_subordination_F as it was written before each point was
    evaluated with its difference points: one call on w's n^2 difference
    points and one per line-search candidate."""
    n = w.shape[0]
    directions = np.eye(n * n).reshape(n * n, n, n)
    resid_mat = g_x_eval(w) - g_target
    for _ in range(50):
        resid = float(np.linalg.norm(resid_mat))
        if resid <= tol:
            return w
        delta = 1e-6 * max(1.0, float(np.linalg.norm(w)))
        moved = g_x_eval(w + delta * directions) - g_target
        jac = (moved - resid_mat).reshape(n * n, n * n).T / delta
        step = np.linalg.solve(jac, -resid_mat.reshape(-1)).reshape(n, n)
        s = 1.0
        for _ in range(30):
            cand = w + s * step
            if halfplane_margin(cand) > 0:
                cand_mat = g_x_eval(cand) - g_target
                if np.linalg.norm(cand_mat) < 10.0 * resid:
                    break
            s *= 0.5
        else:
            raise AssertionError("the reference line search failed")
        w, resid_mat = cand, cand_mat
    raise AssertionError("the reference Newton stalled")


@st.composite
def _subordination_triples(draw):
    """Kraus maps eta_X (1-2 terms) and eta_Y on n = 1-4 and a point b =
    H + i(lift I), as the benchmark draws its triples."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit(scale):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return scale * m / np.linalg.norm(m, 2)

    eta_x = CovarianceMap(tuple(unit(0.6)
                                for _ in range(draw(st.integers(1, 2)))))
    eta_y = CovarianceMap((unit(0.7),))
    h = rng.normal(size=(n, n))
    lift = draw(st.floats(0.3, 2.0))
    return eta_x, eta_y, (h + h.T) / 4 + 1j * lift * np.eye(n)


@settings(max_examples=40, deadline=None)
@given(case=_subordination_triples())
def test_solve_subordination_keeps_the_two_call_bits(case):
    # evaluating each point with its difference points in one stack must
    # not move F by a bit: the stacked Cauchy solve gives each matrix the
    # bits of its own solve
    eta_x, eta_y, b = case
    gxy = op_add_cauchy(eta_x, eta_y, b).g

    def g_x(w):
        return op_semicircular_cauchy(eta_x, w).g

    want = _two_call_newton(g_x, gxy, b.astype(complex))
    assert solve_subordination_F(g_x, gxy, b).tobytes() == want.tobytes()
