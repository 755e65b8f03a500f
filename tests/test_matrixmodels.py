"""Seeded draws, conditional-expectation estimators, experiment reports."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas

from freesub import (
    CovarianceMap,
    circle_atoms,
    experiment_lemma34,
    experiment_prop32,
    experiment_prop33,
    experiment_thm31_block,
    experiment_thm36,
    haar_circle,
    semicircle,
)
from freesub.errors import BadParams
from freesub import matrixmodels
from freesub.matrixmodels import (_conjugate, _haar, _inv, _make_report,
                                  _phase_unitary, _rng, partial_trace,
                                  sample_angles)


def balanced(N):
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(N)])


def test_phase_unitary_sample():
    # the unitary thm36 rotates: eigenphases from the law, Haar eigenvectors
    law = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    u = _phase_unitary(law, 48, _rng(4, 0))
    assert np.linalg.norm(u.conj().T @ u - np.eye(48)) <= 1e-12
    ev = np.linalg.eigvals(u)
    assert np.max(np.minimum(np.abs(ev - 1), np.abs(ev + 1))) <= 1e-10


def test_conjugate_by_a_diagonal_matches_the_matrix():
    rng = _rng(6, 0)
    u = _haar(rng, 40)
    d = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    want = _conjugate(u, np.asfortranarray(np.diag(d)))
    got = _conjugate(u, d)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("diagonal, zgemms", [(True, 1), (False, 2)])
def test_prop33_trial_zgemm_count(monkeypatch, diagonal, zgemms):
    # an exactly diagonal C0 is conjugated with one zgemm per trial
    calls = []
    zgemm = blas.zgemm

    def counting(*args, **kwargs):
        calls.append(1)
        return zgemm(*args, **kwargs)

    c0 = np.diag(np.linspace(0.5, 1.5, 16))
    if not diagonal:
        c0[0, 1] = 0.1
    monkeypatch.setattr(blas, "zgemm", counting)
    experiment_prop33(np.diag(balanced(16)), c0, trials=1)
    assert len(calls) == zgemms


def test_haar_draw_is_unitary_at_600():
    u = _haar(_rng(5, 0), 600)
    assert np.abs(u.conj().T @ u - np.eye(600)).max() <= 1e-13


def test_haar_draw_moments():
    # Haar moments of U(3): E|u11|^2 = 1/3, E|u11|^4 = 2/(N(N+1)) = 1/6,
    # E|tr u|^2 = 1 and E u12^2 = 0, each within 4 standard errors
    rng = _rng(0, 7)
    draws = np.array([_haar(rng, 3) for _ in range(20000)])
    u11 = np.abs(draws[:, 0, 0]) ** 2
    u12sq = draws[:, 0, 1] ** 2
    for stat, expected in ((u11, 1 / 3), (u11 ** 2, 1 / 6),
                           (np.abs(np.trace(draws, axis1=1, axis2=2)) ** 2, 1.0),
                           (u12sq.real, 0.0), (u12sq.imag, 0.0)):
        stderr = stat.std() / np.sqrt(stat.size)
        assert abs(stat.mean() - expected) <= 4 * stderr


@pytest.mark.parametrize("order", ["C", "F"])
def test_inv_matches_numpy(order):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    ref = np.linalg.inv(a)
    got = _inv(np.array(a, order=order))
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("order", ["C", "F"])
def test_inv_rejects_singular(order):
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex, order=order)
    with pytest.raises(np.linalg.LinAlgError):
        _inv(a)


def test_trial_loops_keep_n_sized_algebra_off_numpy(monkeypatch):
    # numpy and scipy link separate OpenBLAS builds; a trial must stay in
    # scipy's, so numpy.linalg never sees an N x N matrix
    N = 16
    shapes = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            shapes.extend(np.shape(a) for a in args if np.ndim(a) >= 2)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("qr", "inv", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    # np.linalg.norm(a, 2) reaches the SVD through the module's own name
    monkeypatch.setattr(np.linalg._linalg, "svd", np.linalg.svd)
    experiment_prop33(np.diag(balanced(N)), np.diag(np.linspace(0.5, 1.5, N)),
                      trials=2, seed=0)
    experiment_thm36(circle_atoms([(0.0, 0.5), (np.pi, 0.5)]),
                     0.35 * np.eye(N), N=N, trials=2, seed=0)
    eta_x = CovarianceMap((np.array([[0.9, 0.3], [0.0, 0.6]]),))
    eta_y = CovarianceMap((np.array([[0.5, -0.2], [0.1, 0.7]]),))
    experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2), N=N, trials=2, seed=0)
    assert shapes, "the solver's small n x n calls were not recorded"
    assert max(max(s[-2:]) for s in shapes) < N


def test_sample_angles_atomic_law():
    law = circle_atoms([(0.5, 0.25), (2.0, 0.75)])
    rng = np.random.default_rng(0)
    draws = sample_angles(law, 4000, rng)
    assert set(np.round(draws, 12)) <= {0.5, 2.0}
    frac = np.mean(np.isclose(draws, 2.0))
    assert abs(frac - 0.75) <= 0.03


def test_partial_trace_identities():
    rng = np.random.default_rng(6)
    n, N = 3, 17
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    assert np.allclose(partial_trace(np.kron(b, np.eye(N)), n, N), b, atol=1e-13)
    assert np.allclose(partial_trace(np.kron(np.eye(n), w), n, N),
                       np.trace(w) / N * np.eye(n), atol=1e-13)
    z = rng.normal(size=(n * N, n * N)) + 1j * rng.normal(size=(n * N, n * N))
    assert abs(np.trace(partial_trace(z, n, N)) / n - np.trace(z) / (n * N)) <= 1e-12
    with pytest.raises(BadParams):
        partial_trace(z, n + 1, N)


def test_report_verdict_semantics():
    def rep(r):
        return _make_report("prop32", 10, 1, 0, estimates={},
                            residuals={"r": r}, tolerances={"r": 0.05})
    assert rep(0.04).verdict == "pass"
    assert rep(0.052).verdict == "boundary"
    assert rep(0.08).verdict == "fail"


def test_report_serialization():
    rep = _make_report("thm36", 10, 2, 7, estimates={"g": 0.25 + 0.1j},
                       residuals={"solve": 1e-13}, tolerances={"solve": 0.02})
    d = json.loads(rep.to_json())
    assert d["identity"] == "thm36"
    assert d["estimates"]["g"] == [0.25, 0.1]
    assert d["verdict"] == "pass"
    header, row = rep.csv_header(), rep.csv_row()
    assert header.split(",")[:4] == ["identity", "N", "trials", "seed"]
    assert len(header.split(",")) == len(row.split(","))


def test_prop32_central_shift_is_exact():
    # a0 = s*I commutes with every rotation, so each trial resolvent is
    # exactly diagonal and f = s + i*eps to rounding
    N, s = 16, 0.7
    rep = experiment_prop32(np.linspace(-1, 1, N), s * np.eye(N), trials=4, seed=0)
    assert rep.residuals["off_diag"] <= 1e-12
    assert rep.residuals["fit"] <= 1e-10
    assert abs(rep.estimates["f"] - (s + 1j)) <= 1e-10
    assert rep.verdict == "pass"


def test_prop32_phase_average_leaves_diagonal_alone(monkeypatch):
    # conjugating by diagonal phases never touches diagonal entries in
    # exact arithmetic (|e^{i theta}|^2 = 1), so the scalar fit agrees to
    # rounding for any rotation count while the off-diagonal noise drops
    lam = balanced(24)
    a0 = np.diag(balanced(24)[::-1])
    monkeypatch.setattr(matrixmodels, "_PHASE_ROTATIONS", 1)
    r1 = experiment_prop32(lam, a0, trials=6, seed=3)
    monkeypatch.setattr(matrixmodels, "_PHASE_ROTATIONS", 4)
    r4 = experiment_prop32(lam, a0, trials=6, seed=3)
    assert [r.estimates["phase_rotations"] for r in (r1, r4)] == [1, 4]
    assert abs(r1.estimates["f"] - r4.estimates["f"]) <= 1e-8
    assert abs(r1.residuals["fit"] - r4.residuals["fit"]) <= 1e-12
    assert r4.residuals["off_diag"] < r1.residuals["off_diag"]


def test_prop32_fit_is_stationary(monkeypatch):
    # the fitted f is a stationary point of ||d - 1/(f - lam)||^2: with
    # r = d - 1/(f - lam) and J = (f - lam)^-2 the gradient sum(conj(J) r)
    # vanishes to rounding (a finite-difference least squares stopped
    # about 1e-9 away from it on this run).  d is the trial mean of the
    # resolvents' diagonals, which the phase average leaves alone.
    N, trials = 100, 5
    lam = np.where(np.arange(N) < N // 2, 1.0, -1.0)
    diagonals = []
    inv = matrixmodels._inv

    def spy(a):
        r = inv(a)
        diagonals.append(np.diagonal(r).copy())
        return r

    monkeypatch.setattr(matrixmodels, "_inv", spy)
    rep = experiment_prop32(lam, np.diag(lam[::-1].copy()), trials=trials,
                            seed=1)
    assert len(diagonals) == trials
    d = np.mean(diagonals, axis=0)
    f = rep.estimates["f"]
    r = d - 1.0 / (f - lam)
    j = (f - lam) ** -2.0
    assert abs(np.vdot(j, r)) <= 1e-12 * np.sum(np.abs(j) * np.abs(r))
    assert rep.residuals["fit"] == pytest.approx(
        np.linalg.norm(r) / np.linalg.norm(d), rel=1e-12)


def test_prop32_validation(monkeypatch):
    with pytest.raises(BadParams):
        experiment_prop32(np.ones(4), np.eye(5), trials=1)
    # strings and a 2-d spectrum escaped as a builtin ValueError
    def no_draw(*args):
        raise AssertionError("drew before checking lam_diag")
    monkeypatch.setattr(matrixmodels, "_rng", no_draw)
    for lam in (["a", "b"], [[1.0, 2.0]], [1.0, np.nan]):
        with pytest.raises(BadParams, match="lam_diag"):
            experiment_prop32(lam, np.eye(2))


def test_prop33_central_summand_is_exact():
    # C0 = 0 makes c = i*eps*I central: D = i*eps*I with zero deviation
    N = 12
    rep = experiment_prop33(np.diag(np.linspace(-1, 1, N)), np.zeros((N, N)),
                            trials=3, seed=0)
    assert rep.residuals["scalar_dev"] <= 1e-12
    assert rep.residuals["scalar_dev_diag"] <= 1e-12
    assert abs(rep.estimates["scalar"] - 1j) <= 1e-12
    assert rep.verdict == "pass"


def test_prop33_at_one_dimension():
    # at N = 1 every D is scalar; the shift that forms scalar_dev must
    # not reach D itself, which scalar_dev_diag reads again
    rep = experiment_prop33(np.eye(1), np.eye(1), trials=2)
    assert rep.residuals["scalar_dev"] == 0.0
    assert rep.residuals["scalar_dev_diag"] == 0.0
    assert rep.verdict == "pass"


def test_prop33_validation():
    with pytest.raises(BadParams):
        experiment_prop33(np.eye(4), np.eye(5), trials=1)


def test_thm36_scalar_contraction_recovers_g():
    law = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    rho = 0.35
    rep = experiment_thm36(law, rho * np.eye(200), N=200, trials=20, seed=1)
    assert abs(rep.estimates["g"] - rho) <= 0.05
    assert rep.residuals["solve"] <= 1e-10
    assert rep.estimates["ball_margin"] > 0
    assert set(rep.residuals) == {"solve", "g_excess"}


def test_thm36_haar_branch_reports_mean_only():
    rep = experiment_thm36(haar_circle(), N=64, trials=10, seed=0)
    assert set(rep.residuals) == {"haar_abs"}
    assert "g" not in rep.estimates
    # ||u^{-1} c0|| = ||c0|| for unitary u: the margin is the norm check's
    c0 = 0.7 * _haar(_rng(0, 999), 64)
    assert rep.estimates["omega_margin"] == 1 - np.linalg.norm(c0, 2)


def test_thm36_validation():
    law = circle_atoms([(0.0, 1.0)])
    with pytest.raises(BadParams):
        experiment_thm36(law, np.zeros((3, 3)), N=4, trials=1)
    with pytest.raises(BadParams):
        experiment_thm36(law, np.eye(4), N=4, trials=1)


def test_thm31_block_trivial_second_summand():
    # eta_Y = 0 forces F(b) = b, so both estimators average the same model
    eta_x = CovarianceMap((np.array([[0.8, 0.2], [0.0, 0.5]]),))
    eta_y = CovarianceMap((np.zeros((2, 2)),))
    rep = experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2), N=48, trials=10,
                                 seed=0)
    assert rep.residuals["subordination"] <= 1e-7
    assert rep.estimates["n"] == 2


# Kraus terms for the block tests, and a b with real and off-diagonal parts
K_DENSE = np.array([[0.3 + 0.2j, -0.4], [0.25j, 0.1 - 0.3j]])
K_ZERO = np.array([[0.9, 0.3], [0.0, 0.6]])
K_REAL = np.array([[0.5, -0.2], [0.1, 0.7]])
B_MIXED = np.array([[0.3 + 1j, 0.2 + 0.1j], [0.2 - 0.1j, -0.4 + 1j]])


@pytest.mark.parametrize("kraus_x, kraus_y", [
    ((K_DENSE,), (K_REAL,)),
    ((K_DENSE, K_REAL), (K_REAL.T, K_DENSE.T)),
    ((K_ZERO,), (K_DENSE,)),
    ((K_DENSE, K_REAL, K_ZERO), (K_REAL,)),
], ids=["one-term", "two-terms", "zero-entry", "x-kept-whole"])
def test_thm31_block_inverts_the_kron_assembly(monkeypatch, kraus_x, kraus_y):
    # the matrices inverted are, bit for bit, B (x) 1 - (Y + X) and
    # F(b) (x) 1 - X with X and Y summed from np.kron products of the
    # trial's Ginibre draws
    N, trials, seed, b = 16, 2, 5, B_MIXED
    eta_x, eta_y = CovarianceMap(kraus_x), CovarianceMap(kraus_y)
    inverted, solved = [], []
    inv, solve_f = matrixmodels._inv, matrixmodels.solve_subordination_F

    def keeping(a):
        inverted.append(a.copy())
        # a Fortran-ordered input keeps _inv from recursing into this
        return inv(np.asfortranarray(a))

    def keeping_f(*args, **kwargs):
        solved.append(solve_f(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(matrixmodels, "_inv", keeping)
    monkeypatch.setattr(matrixmodels, "solve_subordination_F", keeping_f)
    experiment_thm31_block(eta_x, eta_y, b, N=N, trials=trials, seed=seed)

    def kron_sample(rng, cov):
        m = np.zeros((2 * N, 2 * N), dtype=complex)
        for k in cov.kraus:
            g = matrixmodels._ginibre(rng, N) / np.sqrt(2.0)
            m += np.kron(k, g)
            m += np.kron(k.conj().T, g.conj().T)
        return m

    want = []
    for t in range(trials):
        rng = _rng(seed, t)
        x = kron_sample(rng, eta_x)
        y = kron_sample(rng, eta_y) + x
        want += [np.kron(b, np.eye(N)) - y, np.kron(solved[0], np.eye(N)) - x]
    assert len(inverted) == len(want)
    for got, ref in zip(inverted, want):
        assert np.array_equal(got, ref)


def _traced_peak(run, small, size):
    """Peak bytes that tracemalloc sees during run(size).  An untraced
    run(small) first does the lazy first-call set-up (the scipy import
    and its LAPACK wrappers), so no bound counts it."""
    run(small)
    tracemalloc.start()
    try:
        run(size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_haar_draw_keeps_one_matrix():
    # the reflector matrix, turned into Q in place, and the Gaussian draws
    # peak at about 1.5 units of N^2 complex; zungqr's workspace query
    # copied the reflectors and the draws outlived the loop: 2.5 units
    N = 300
    unit = N * N * 16
    peak = _traced_peak(lambda size: _haar(_rng(0, 0), size), 8, N)
    assert peak <= 1.6 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_thm31_block_keeps_one_block_buffer():
    # one (n N)^2 complex buffer, one N x N draw (0.25 units here) and
    # 64-row scratch peak at about 1.8 units; the kept X draws and N x N
    # scratch beside the buffer reached 2.4, two buffers 3.1, and an
    # assembly from np.kron products 7.6
    n, N = 2, 128
    unit = (n * N) ** 2 * 16
    eta_x, eta_y = CovarianceMap((K_ZERO,)), CovarianceMap((K_REAL,))
    peak = _traced_peak(lambda size: experiment_thm31_block(
        eta_x, eta_y, B_MIXED, N=size, trials=2, seed=0), 8, N)
    assert peak <= 2.0 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_thm31_block_keeps_x_whole_for_many_terms():
    # n = 1 with three X terms: X is summed in the block buffer one draw
    # at a time and drawn again for the second side, so the buffer, one
    # draw and 64-row scratch peak at about 2.6 units of N^2 complex; a
    # second buffer keeping X reached 4.5, the kept draws 6.5, and the
    # two block buffers before them 6.1
    N = 256
    unit = N * N * 16
    one = [np.array([[v]]) for v in (0.8, 0.3 + 0.4j, -0.5j)]
    eta_x, eta_y = CovarianceMap(tuple(one)), CovarianceMap((one[0],))
    peak = _traced_peak(lambda size: experiment_thm31_block(
        eta_x, eta_y, np.array([[1j]]), N=size, trials=2, seed=0), 8, N)
    assert peak <= 3.0 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_ginibre_fills_row_blocks_from_one_stream():
    # 150 rows is two full 64-row blocks and a partial one
    N = 150
    rng = _rng(3, 0)
    want = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    want /= np.sqrt(2.0 * N)
    assert np.array_equal(matrixmodels._ginibre(_rng(3, 0), N), want)


def test_prop33_keeps_no_matrix_copies():
    # float diagonal A0 and C0: the accumulator and one trial's draw and
    # conjugation peak at about 4.0 units; complex copies of A0 and C0,
    # the last trial's inverse kept into the next draw and
    # d - scalar*np.eye(N) reached 7.1
    N = 300
    unit = N * N * 16

    def spectra(size):
        return np.diag(balanced(size)), np.diag(np.linspace(0.5, 1.5, size))

    peak = _traced_peak(lambda a0_c0: experiment_prop33(
        *a0_c0, trials=2, seed=0), spectra(8), spectra(N))
    assert peak <= 4.5 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_prop32_keeps_no_matrix_copies():
    # float diagonal a0: the accumulator and one trial's draw and
    # conjugation peak at about 4.0 units; a complex copy of a0, the last
    # trial's inverse kept into the next draw and the tail's
    # acc / trials, np.diag(diag) and their difference reached 6.1
    N = 300
    unit = N * N * 16
    peak = _traced_peak(lambda size: experiment_prop32(
        balanced(size), np.diag(np.linspace(0.5, 1.5, size)), trials=3,
        seed=0), 8, N)
    assert peak <= 4.5 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_thm36_frees_each_trial():
    # c0, the Haar draw, its column-scaled copy and the conjugation peak
    # at about 4.0 units; the last trial's inverse kept into the next
    # draw reached 5.0
    N = 300
    unit = N * N * 16
    law = circle_atoms([(0.0, 0.5), (np.pi, 0.5)])
    peak = _traced_peak(lambda size: experiment_thm36(
        law, 0.5 * np.eye(size), N=size, trials=3, seed=0), 8, N)
    assert peak <= 4.5 * unit, f"peak {peak / unit:.2f} units of {unit} B"


def test_thm31_block_validation():
    eta = CovarianceMap((np.eye(2),))
    with pytest.raises(BadParams):
        experiment_thm31_block(eta, eta, 1j * np.eye(2), N=3000, trials=1)
    with pytest.raises(BadParams):
        experiment_thm31_block(eta, eta, 0.1j * np.eye(2), N=32, trials=1)
    with pytest.raises(BadParams):
        experiment_thm31_block(eta, eta, 1j * np.eye(3), N=32, trials=1)


def test_lemma34_sweep_small():
    rep = experiment_lemma34(dims=(2, 3, 4), samples=1000, seed=0)
    assert rep.residuals["violations"] == 0.0
    assert rep.residuals["identity"] <= 1e-11
    assert rep.verdict == "pass"


@pytest.mark.parametrize("run", [
    lambda: experiment_prop32(np.ones(4), np.eye(4), trials=0),
    lambda: experiment_prop32(np.ones(0), np.eye(0)),
    lambda: experiment_prop33(np.eye(4), np.eye(4), trials=0),
    lambda: experiment_prop33(np.eye(0), np.eye(0)),
    lambda: experiment_thm36(haar_circle(), N=8, trials=0),
    lambda: experiment_thm36(haar_circle(), N=0),
    lambda: experiment_thm31_block(CovarianceMap((np.eye(2),)),
                                   CovarianceMap((np.eye(2),)),
                                   1j * np.eye(2), N=8, trials=0),
    lambda: experiment_thm31_block(CovarianceMap((np.eye(2),)),
                                   CovarianceMap((np.eye(2),)),
                                   1j * np.eye(2), N=0),
    lambda: experiment_lemma34(samples=0),
    lambda: experiment_lemma34(dims=()),
    lambda: experiment_lemma34(dims=(2, 0)),
    # a float trial count used to reach range() as a TypeError
    lambda: experiment_thm36(haar_circle(), N=8, trials=2.5),
    lambda: experiment_thm36(haar_circle(), N=8.0, trials=2),
    lambda: experiment_prop32(np.ones(4), np.eye(4), trials=2.5),
    lambda: experiment_prop33(np.eye(4), np.eye(4), trials=True),
    lambda: experiment_thm31_block(CovarianceMap((np.eye(2),)),
                                   CovarianceMap((np.eye(2),)),
                                   1j * np.eye(2), N=8, trials=1.5),
    # a float sample count once ran 3 samples and reported trials 2.5, and
    # a float dimension was truncated to 2
    lambda: experiment_lemma34(dims=(2,), samples=2.5),
    lambda: experiment_lemma34(samples=True),
    lambda: experiment_lemma34(dims=(2.7,)),
    lambda: experiment_lemma34(dims=(2, True)),
    # a negative seed drew what seed + 2**63 draws
    lambda: experiment_lemma34(samples=2, seed=-1),
    lambda: experiment_prop33(np.eye(4), np.eye(4), trials=2, seed=-3),
    # an integer dims once ended in a TypeError
    lambda: experiment_lemma34(dims=5),
    # a NaN eigenvalue once ran every trial and stalled the shift fit
    lambda: experiment_prop32([1.0, np.nan], np.eye(2)),
    lambda: experiment_prop32([np.inf, 1.0], np.eye(2)),
    # a wrong type once escaped as AttributeError, and a line law drew c0
    # and ran every trial before the disk solve rejected it
    lambda: experiment_thm36(None, N=8),
    lambda: experiment_thm36(semicircle(), N=8, trials=1),
    lambda: experiment_thm31_block(None, CovarianceMap((np.eye(2),)),
                                   1j * np.eye(2), N=8),
    lambda: experiment_thm31_block(CovarianceMap((np.eye(2),)), None,
                                   1j * np.eye(2), N=8),
    lambda: CovarianceMap(None),
])
def test_experiments_reject_empty_sizes(monkeypatch, run):
    # rejected before the first draw
    def no_draw(*args):
        raise AssertionError("drew before checking sizes")
    monkeypatch.setattr("freesub.matrixmodels._rng", no_draw)
    with pytest.raises(BadParams):
        run()


# one size above each cap; the oversized matrices are zero-copy views
@pytest.mark.parametrize("name, run", [
    ("N", lambda: experiment_thm36(circle_atoms([(0.0, 1.0)]), N=4097)),
    ("N", lambda: experiment_prop32(np.ones(4097), np.eye(1))),
    ("N", lambda: experiment_prop33(np.broadcast_to(0j, (4097, 4097)),
                                    np.eye(1))),
    ("dims", lambda: experiment_lemma34(dims=(2, 65), samples=1)),
])
def test_experiments_cap_sizes_before_any_draw(monkeypatch, name, run):
    # thm36 once drew an N x N Haar c0 for any N, and lemma34 stacked 256
    # draws of any size: N = 100,000 asks for 80 GB
    def no_draw(*args):
        raise AssertionError("drew before capping sizes")
    monkeypatch.setattr("freesub.matrixmodels._rng", no_draw)
    with pytest.raises(BadParams, match=rf"\b{name}\b"):
        run()


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0, True, "1"])
@pytest.mark.parametrize("experiment", ["prop32", "prop33"])
def test_experiments_reject_bad_eps(monkeypatch, experiment, eps):
    # NaN once gave prop33 a fail report with im_shortfall 0.0, and a
    # negative eps averaged lower-half-plane resolvents in prop32
    def no_draw(*args):
        raise AssertionError("drew before checking eps")
    monkeypatch.setattr("freesub.matrixmodels._rng", no_draw)
    with pytest.raises(BadParams, match="eps"):
        if experiment == "prop32":
            experiment_prop32(np.ones(4), np.eye(4), eps=eps, trials=2)
        else:
            experiment_prop33(np.eye(4), np.eye(4), eps=eps, trials=2)


def test_experiment_determinism():
    lam = balanced(20)
    a0 = np.diag(balanced(20)[::-1])
    r1 = experiment_prop32(lam, a0, trials=5, seed=11)
    r2 = experiment_prop32(lam, a0, trials=5, seed=11)
    assert r1.to_json() == r2.to_json()


def test_convergence_trend_doubling_N():
    # doubling N at fixed trials should shrink each experiment's primary
    # residual for at least 4 of 5 seeds; primaries are the quantities
    # whose noise floor actually scales with N (fit for prop32,
    # scalar_dev_diag for prop33, haar_abs for thm36, subordination for
    # the block model)
    eta_x = CovarianceMap((np.array([[0.9, 0.3], [0.0, 0.6]]),))
    eta_y = CovarianceMap((np.array([[0.5, -0.2], [0.1, 0.7]]),))
    wins = {"prop32": 0, "prop33": 0, "thm36": 0, "thm31_block": 0}
    for seed in range(5):
        def p32(N):
            return experiment_prop32(balanced(N), np.diag(balanced(N)[::-1]),
                                     trials=40, seed=seed).residuals["fit"]
        wins["prop32"] += p32(160) < p32(80)

        def p33(N):
            return experiment_prop33(
                np.diag(balanced(N)), np.diag(np.linspace(0.5, 1.5, N)),
                trials=40, seed=seed).residuals["scalar_dev_diag"]
        wins["prop33"] += p33(160) < p33(80)

        def t36(N):
            return experiment_thm36(haar_circle(), N=N, trials=30,
                                    seed=seed).residuals["haar_abs"]
        wins["thm36"] += t36(128) < t36(64)

        def t31(N):
            return experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2), N=N,
                                          trials=20, seed=seed
                                          ).residuals["subordination"]
        wins["thm31_block"] += t31(64) < t31(32)
    for name, w in wins.items():
        assert w >= 4, f"{name} improved in only {w}/5 seeds"


def test_seeds_are_not_reduced():
    # seeds once entered SeedSequence mod 2**63, so 0 and 2**63 drew the
    # same matrices while their reports named different seeds
    low = experiment_lemma34(dims=(2, 3), samples=200, seed=0)
    high = experiment_lemma34(dims=(2, 3), samples=200, seed=2**63)
    assert low.residuals != high.residuals
    assert high.seed == 2**63
