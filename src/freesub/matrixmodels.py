"""Seeded random-matrix experiments backing the subordination identities.

The experiment drivers are the package's only sampling path: each one
draws its own matrices and holds its own defaults.  Freeness only holds
asymptotically for independently rotated matrices, so every check here
is an estimator plus a concentration-scale tolerance (_GATE = 0.05
around N = 600, trials >= 100), never an exact assertion.  Conditional
expectations are realized structurally:

  * onto the block algebra M_n (x) 1_N: exact partial trace;
  * onto a diagonal / scalar subalgebra: Haar averaging over trials
    followed by projection (diagonal extraction or a scalar fit).

All experiments are deterministic: trial t draws from an RNG seeded by
SeedSequence([seed, t]), and trial averages accumulate in trial order,
so identical arguments and seed reproduce reports bit-identically.

Haar unitaries are drawn in Householder form (Stewart, SIAM J. Numer.
Anal. 17, 1980): the reflectors of a Ginibre QR are independent
Gaussian reflectors, so only the N(N+1)/2 Gaussians below the diagonal
are drawn, LAPACK's zungqr forms Q, and the columns are multiplied by
the signs of R's diagonal (Mezzadri, Notices AMS 54, 2007).  No QR
factorization is computed.

Every N-sized product and inverse that a trial repeats goes through
scipy's BLAS/LAPACK (zgemm, and zgetrf + zgetri in ``_inv``), never
through numpy.linalg or ``@``: numpy and scipy link separate OpenBLAS
builds with separate thread pools, and a trial that alternates
between the two pools runs markedly slower than one that stays in
either.  thm36's ||c0|| check, before the trial loop, is scipy's
values-only zgesdd too, so no N-sized factorization or SVD runs in
numpy.linalg.  A Haar conjugation u m u* is one zgemm on the column-scaled
u when m is diagonal (thm36's eigenphases, and prop32's a0 and prop33's
C0 when they are exactly diagonal, which is checked once before the
loop) and two otherwise; an exactly diagonal prop33 A0 is added on the
diagonal alone.  thm31_block assembles every trial in one n*N x n*N
buffer allocated once per call, with no Kronecker-product temporaries:
it keeps the trial's X draws (or X itself, when that is smaller), sums
Y into the buffer and adds X, inverts B (x) 1 - (X + Y) there, then
rebuilds X in the same buffer and inverts F(b) (x) 1 - X.
scipy.linalg is imported where it is called, so it loads at the first
LAPACK call of an experiment: it brings 85 modules and a second
OpenBLAS, and the solvers and the CLI's other commands need neither.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .domains import _contraction_margins, _halfplane_margin, \
    operator_norm, resolvent_identity_residual
from .errors import BadParams, DegenerateTransform, NoConvergence, \
    _complex_matrix, _real_vector, int_in_range, real_above
from .measures import CircleMeasure, _require
from .multiplicative import disk_subordination_solve
from .opvalued import CovarianceMap, op_add_cauchy, \
    op_semicircular_cauchy, solve_subordination_F

_GATE = 0.05              # every estimator residual: the concentration scale
_IM_FLOOR = 0.4           # prop33: floor on Im of the scalar part
_SOLVE_TOL = 0.02         # thm36: disk solve residual
_SOLVER_TOL = 1e-11       # thm31_block: deterministic Cauchy solves
_IDENTITY_SAMPLES = 1000  # lemma34: samples checked against the identity
_IDENTITY_TOL = 1e-11     # lemma34: their identity residual
_SWEEP_BLOCK = 256        # lemma34: draws whose linear algebra is stacked
_FIT_STEPS = 50           # prop32: cap on Gauss-Newton steps of the shift fit
_ROUNDING = 4 * np.finfo(float).eps  # prop32: fit stops at this step / |f|
_PHASE_ROTATIONS = 4      # prop32: diagonal-phase conjugations per trial
_MAX_N = 4096             # cap on N (thm31_block: on n*N), checked before a draw
_MAX_DIM = 64             # lemma34: cap on a dims entry; a 256-draw stack is 16 MB


def _rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(
        [seed] + [int(p) for p in path]))


def _ginibre(rng, N):
    # filled part by part: the bits of (re + 1j*im)/sqrt(2N), one array
    g = np.empty((N, N), dtype=complex)
    g.real = rng.standard_normal((N, N))
    g.imag = rng.standard_normal((N, N))
    g /= math.sqrt(2.0 * N)
    return g


def _haar(rng, N):
    """Haar unitary N x N (Fortran-ordered) from N Gaussian reflectors.

    Column k takes N - k fresh complex Gaussians x and forms the
    reflector zlarfg would: beta = -sign(Re x0)||x||, tau = (beta - x0)/beta
    and v = x/(x0 - beta) below the diagonal.  Q = H_1 ... H_N diag(sign
    beta) is then distributed as the phase-corrected Q of a Ginibre QR.
    """
    from scipy.linalg import lapack
    z = rng.standard_normal(N * (N + 1)).view(complex)
    a = np.zeros((N, N), dtype=complex, order="F")
    tau = np.empty(N, dtype=complex)
    signs = np.empty(N)
    start = 0
    for k in range(N):
        x = z[start:start + N - k]
        start += N - k
        alpha = x[0]
        beta = -math.copysign(math.sqrt(x.real @ x.real + x.imag @ x.imag),
                              alpha.real)
        tau[k] = (beta - alpha) / beta
        a[k + 1:, k] = x[1:] / (alpha - beta)
        signs[k] = math.copysign(1.0, beta)
    del z, x  # spent: zungqr's workspace need not sit on top of them
    # the wrappers' default workspace of 3N forces LAPACK's unblocked
    # path, which is about twice as slow here and in _inv; overwrite_a
    # spares the query a copy of a, which it only reads
    lwork = int(lapack.zungqr(a, tau, lwork=-1, overwrite_a=1)[1][0].real)
    q, _, info = lapack.zungqr(a, tau, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zungqr failed with info {info}")
    q *= signs
    return q


def _inv(a):
    """Inverse of a square complex matrix by zgetrf + zgetri.

    ``a`` is overwritten; every caller passes a temporary.  A C-ordered
    input is inverted through its transpose, so neither layout is
    copied, and the result has the layout of the input.  Raises
    ``np.linalg.LinAlgError`` on an exactly singular matrix, as
    ``np.linalg.inv`` does.
    """
    from scipy.linalg import lapack
    if a.flags.c_contiguous and not a.flags.f_contiguous:
        return _inv(a.T).T
    lu, piv, info = lapack.zgetrf(a, overwrite_a=1)
    if info == 0:
        lwork = int(lapack.zgetri_lwork(a.shape[0])[0].real)
        lu, info = lapack.zgetri(lu, piv, lwork=lwork, overwrite_lu=1)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return lu


def _conjugate(u, m):
    """u m u* by zgemm.  A 1-d m is the diagonal of the middle factor:
    u diag(m) u* is one zgemm on the column-scaled u.  A square m takes
    two."""
    from scipy.linalg import blas
    if m.ndim == 1:
        return blas.zgemm(1.0, u * m, u, trans_b=2)
    return blas.zgemm(1.0, blas.zgemm(1.0, u, m), u, trans_b=2)


def _shifted(m, eps):
    """m + i eps, as a middle factor for ``_conjugate`` or a summand: its
    diagonal if m is exactly diagonal, else the matrix in Fortran order."""
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):
        return diag + 1j * eps
    return np.asfortranarray(m + 1j * eps * np.eye(len(m)))


def sample_angles(measure: CircleMeasure, size, rng):
    """iid draws from a circle measure; grid cells get uniform jitter."""
    theta, w = measure.quadrature()
    p = np.asarray(w, float)
    idx = rng.choice(theta.size, size=size, p=p / p.sum())
    out = theta[idx].copy()
    n_atoms = len(measure.atoms)
    if measure.grid is not None:
        step = (measure.grid.hi - measure.grid.lo) / measure.grid.n
        from_grid = idx >= n_atoms
        out[from_grid] += rng.uniform(-0.5 * step, 0.5 * step,
                                      size=int(from_grid.sum()))
    return out


def _phase_unitary(theta_law, N, rng):
    """V diag(e^{i theta}) V* with V Haar and eigenphases from theta_law."""
    theta = sample_angles(theta_law, N, rng)
    return _conjugate(_haar(rng, N), np.exp(1j * theta))


def partial_trace(Z, n, N):
    """(id_n (x) N^{-1}Tr_N)(Z) for Z acting on C^n (x) C^N."""
    return _partial_trace(_complex_matrix("Z", Z, n * N), n, N)


def _partial_trace(Z, n, N):
    """partial_trace of an n*N x n*N matrix the caller has computed."""
    return np.einsum("ikjk->ij", Z.reshape(n, N, n, N)) / N


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    identity: str
    N: int
    trials: int
    seed: int
    estimates: dict
    residuals: dict
    tolerances: dict
    verdict: str

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v
        return {
            "identity": self.identity,
            "N": self.N,
            "trials": self.trials,
            "seed": self.seed,
            "estimates": {k: enc(v) for k, v in self.estimates.items()},
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def csv_header(self) -> str:
        cols = ["identity", "N", "trials", "seed"]
        cols += [f"residual_{k}" for k in sorted(self.residuals)]
        return ",".join(cols + ["verdict"])

    def csv_row(self) -> str:
        cells = [self.identity, str(self.N), str(self.trials), str(self.seed)]
        cells += [format(self.residuals[k], ".17g") for k in sorted(self.residuals)]
        return ",".join(cells + [self.verdict])


def _make_report(identity, N, trials, seed, estimates, residuals, tolerances):
    # pass iff every residual is within tolerance; a miss by <= 10% of a
    # positive tolerance is flagged boundary rather than an outright fail
    ok = all(residuals[k] <= tolerances[k] for k in residuals)
    near_miss = all(residuals[k] <= max(tolerances[k], 1.1 * tolerances[k])
                    for k in residuals)
    verdict = "pass" if ok else ("boundary" if near_miss else "fail")
    return ExperimentReport(identity=identity, N=N, trials=trials, seed=seed,
                            estimates=estimates, residuals=residuals,
                            tolerances=tolerances, verdict=verdict)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _fit_shift(d, lam):
    """The f minimizing ||d - 1/(f - lam)||, by Gauss-Newton.

    The residual r = d - 1/(f - lam) is holomorphic in f with derivative
    J = (f - lam)^-2, so the Gauss-Newton step of the real two-parameter
    least squares is the complex number -sum(conj(J) r) / sum(|J|^2).  It
    starts from mean(lam + 1/d), which solves each entry alone, and stops
    once a step is at the rounding of f.
    """
    f = complex(np.mean(lam + 1.0 / d))
    for _ in range(_FIT_STEPS):
        u = 1.0 / (f - lam)
        j = u * u
        step = complex(np.vdot(j, d - u)) / float(np.vdot(j, j).real)
        f -= step
        if abs(step) <= _ROUNDING * abs(f):
            return f
    raise NoConvergence("prop32 shift fit did not settle",
                        iterations=_FIT_STEPS, residual=abs(step), point=f)


def experiment_prop32(lam_diag, a0, eps=1.0, trials=200,
                      seed=0) -> ExperimentReport:
    """Resolvent-diagonalization check against a deterministic spectrum.

    X = diag(lam) is fixed; a = U(a0 + i*eps)U* is Haar-rotated, hence
    asymptotically free from X.  The trial average of (a - X)^{-1}
    should then be (i) nearly diagonal and (ii) fit (f - lam_k)^{-1}
    for a single scalar f in the upper half plane -- the conditional
    expectation onto the algebra of X collapses to a scalar shift.  f is
    the least-squares fit to the diagonal, by Gauss-Newton with the exact
    derivative (``_fit_shift``); ``fit`` is its relative residual.
    The diagonal projection tolerates repeated entries of lam; it
    estimates the expectation onto diagonal matrices, which contains
    the algebra of X.

    The exact Haar average is diagonal already at finite N: for any
    diagonal unitary D, replacing U by DU leaves the ensemble invariant
    and conjugates the resolvent by D (D commutes with diag(lam)), so
    every off-diagonal entry of the mean vanishes identically and
    off_diag measures pure sampling noise.  Each trial therefore also
    averages over _PHASE_ROTATIONS extra diagonal-phase conjugations of
    its resolvent -- every term is again a resolvent at a Haar unitary,
    and the conjugation costs no additional matrix inversion while it
    cuts the off-diagonal noise by the usual square-root factor.  The
    diagonal entries are untouched by the conjugation, so the scalar
    fit sees exactly the raw per-trial statistics.
    """
    from scipy.linalg import blas
    lam = _real_vector("lam_diag", lam_diag)
    N = int_in_range("N", lam.size, 1, _MAX_N)
    a0 = _complex_matrix("a0", a0, N)
    trials = int_in_range("trials", trials, 1)
    eps = real_above("eps", eps, 0.0)
    seed = int_in_range("seed", seed, 0)
    shifted = _shifted(a0, eps)
    idx = np.arange(N)
    acc = np.zeros((N, N), dtype=complex, order="F")
    for t in range(trials):
        rng = _rng(seed, t)
        a = _conjugate(_haar(rng, N), shifted)
        a[idx, idx] -= lam
        r = _inv(a)
        # sum_m D_m R D_m* = R o (P P*) for the N x K phase matrix P
        p = np.exp(2j * np.pi * rng.random((N, _PHASE_ROTATIONS)))
        r *= blas.zgemm(1.0 / _PHASE_ROTATIONS, p, p, trans_b=2)
        acc += r
    mbar = acc / trials
    diag = np.diagonal(mbar)
    off = mbar - np.diag(diag)
    off_diag = float(np.linalg.norm(off) / np.linalg.norm(mbar))

    f = _fit_shift(diag, lam)
    fit_residual = float(np.linalg.norm(diag - 1.0 / (f - lam))
                         / np.linalg.norm(diag))
    return _make_report(
        "prop32", N, trials, seed,
        estimates={"f": f, "im_f": f.imag, "eps": eps,
                   "phase_rotations": _PHASE_ROTATIONS},
        residuals={"off_diag": off_diag, "fit": fit_residual,
                   "im_f_shortfall": max(0.0, 0.5 - f.imag)},
        tolerances={"off_diag": _GATE, "fit": _GATE, "im_f_shortfall": 0.0},
    )


def experiment_prop33(A0, C0, eps=1.0, trials=200, seed=0) -> ExperimentReport:
    """Markovianity check: (E(a+c)^{-1})^{-1} - a collapses to a scalar.

    a = A0 + i*eps stays fixed while c = U(C0 + i*eps)U* is Haar-rotated;
    averaging over U estimates the conditional expectation onto the
    algebra of a.  The defect D = (mean resolvent)^{-1} - a must then be
    scalar up to fluctuations, and its scalar part keeps a positive
    imaginary part.
    """
    A0 = _complex_matrix("A0", A0)
    N = int_in_range("N", A0.shape[0], 1, _MAX_N)
    C0 = _complex_matrix("C0", C0, N)
    trials = int_in_range("trials", trials, 1)
    eps = real_above("eps", eps, 0.0)
    seed = int_in_range("seed", seed, 0)
    a = _shifted(A0, eps)
    # a diagonal a is added to, and taken from, the diagonal alone
    at = np.diag_indices(N) if a.ndim == 1 else np.s_[:]
    c_shift = _shifted(C0, eps)
    del A0, C0  # the trials need only the shifted forms
    acc = np.zeros((N, N), dtype=complex, order="F")
    for t in range(trials):
        m = _conjugate(_haar(_rng(seed, t), N), c_shift)
        m[at] += a
        acc += _inv(m)
        del m  # so the next trial's draws do not keep this one's inverse
    acc /= trials
    d = _inv(acc)
    d[at] -= a
    scalar = complex(np.trace(d) / N)
    # the norm sums in memory order, and scalar_dev sums D - scalar*1 by
    # rows, so the shift goes into a C-ordered copy (always a copy: at
    # N = 1, D is C-ordered too and is read again below)
    centred = np.array(d, order="C")
    centred[np.diag_indices(N)] -= scalar
    dev = float(np.linalg.norm(centred) / np.linalg.norm(d))
    # full-matrix dev is floored by off-diagonal sampling noise, which is
    # N-flat as a fraction of ||D||; the diagonal restriction concentrates
    # like 1/N and is the quantity to watch when scaling N
    diag = np.diagonal(d)
    dev_diag = float(np.linalg.norm(diag - scalar) / np.linalg.norm(diag))
    return _make_report(
        "prop33", N, trials, seed,
        estimates={"scalar": scalar, "im_scalar": scalar.imag, "eps": eps},
        residuals={"scalar_dev": dev, "scalar_dev_diag": dev_diag,
                   "im_shortfall": max(0.0, _IM_FLOOR - scalar.imag)},
        tolerances={"scalar_dev": _GATE, "scalar_dev_diag": _GATE,
                    "im_shortfall": 0.0},
    )


def experiment_thm36(theta_law: CircleMeasure, c0=None, N=600, trials=100,
                     seed=0) -> ExperimentReport:
    """Disk subordination at trace level for a randomized unitary.

    u = V diag(e^{i theta}) V* with V Haar and eigenphases drawn from
    theta_law; c0 is a fixed strict contraction, so u is invertible with
    ||u^{-1} c0|| < 1 and the averaged trace of (u - c0)^{-1} is a
    legitimate subordination target.  c0 defaults to 0.7 times a Haar
    unitary drawn from its own stream (seed, 999).  A uniform phase law
    forces the average to vanish; any identifiable law must instead
    yield a disk point g reproducing the target through the circle
    resolvent.

    The reported omega_margin is 1 - ||c0||, which equals
    1 - ||u^{-1} c0|| for every unitary u, so no trial recomputes it.
    """
    from scipy.linalg import svdvals
    _require(CircleMeasure, theta_law)
    N = int_in_range("N", N, 1, _MAX_N)
    trials = int_in_range("trials", trials, 1)
    seed = int_in_range("seed", seed, 0)
    if c0 is None:
        c0 = 0.7 * _haar(_rng(seed, 999), N)
    c0 = _complex_matrix("c0", c0, N)
    nrm = svdvals(c0, check_finite=False)[0]
    if nrm > 0.9:
        raise BadParams("c0 must satisfy ||c0|| <= 0.9")
    omega_margin = 1.0 - nrm
    c0 = np.asfortranarray(c0)
    total = 0.0 + 0.0j
    for t in range(trials):
        u = _phase_unitary(theta_law, N, _rng(seed, t))
        u -= c0
        total += np.trace(_inv(u)) / N
    m_hat = total / trials
    estimates = {"m_hat": complex(m_hat), "omega_margin": float(omega_margin)}
    try:
        sol = disk_subordination_solve(theta_law, m_hat)
    except DegenerateTransform:
        return _make_report(
            "thm36", N, trials, seed,
            estimates=estimates,
            residuals={"haar_abs": abs(m_hat)},
            tolerances={"haar_abs": _GATE},
        )
    estimates.update({"g": sol.g, "ball_margin": sol.ball_margin})
    return _make_report(
        "thm36", N, trials, seed,
        estimates=estimates,
        residuals={"solve": sol.residual,
                   "g_excess": max(0.0, abs(sol.g) - 0.99)},
        tolerances={"solve": _SOLVE_TOL, "g_excess": 0.0},
    )


def experiment_thm31_block(eta_x: CovarianceMap, eta_y: CovarianceMap, b,
                           N=512, trials=100, seed=0) -> ExperimentReport:
    """Block Monte Carlo check of operator-valued subordination.

    X = sum_j (k_j (x) G_j + k_j* (x) G_j*)/sqrt(2) with independent
    Ginibre blocks G_j realizes a B-semicircular element over B = M_n
    whose covariance is the symmetrization of eta_X (exactly eta_X for
    Hermitian Kraus terms); same for Y.  The partial-trace estimates of
    the two sides of G_{X+Y}(b) = G_X(F(b)) are compared, with F(b)
    supplied by the deterministic solver, plus the estimate-vs-solver
    gap as a second residual.

    A trial runs in one n*N x n*N buffer: it keeps its X draws, sums Y
    there, adds each block of X (summed apart, as np.kron's products
    would be), inverts B (x) 1 - (X + Y) in place, then rebuilds X there
    from the kept draws and inverts F(b) (x) 1 - X.  With K_X Kraus
    terms, the draws and their N x N sum take (K_X + 1) N^2 entries
    against n^2 N^2 for X, so when K_X + 1 >= n^2 (always at n = 1) the
    trial keeps a second buffer holding X instead, and copies it back.
    """
    _require(CovarianceMap, eta_x, eta_y)
    ex = eta_x.symmetrized()
    ey = eta_y.symmetrized()
    n = ex.n
    b = _complex_matrix("b", b, n)
    N = int_in_range("N", N, 1)
    trials = int_in_range("trials", trials, 1)
    seed = int_in_range("seed", seed, 0)
    if n * N > _MAX_N:
        raise BadParams(f"n*N capped at {_MAX_N}")
    if _halfplane_margin(b) < 0.5:
        raise BadParams("experiments require halfplane_margin(b) >= 0.5")
    g_xy = op_add_cauchy(ex, ey, b, tol=_SOLVER_TOL).g
    f_b = solve_subordination_F(
        lambda w: op_semicircular_cauchy(ex, w, tol=_SOLVER_TOL).g,
        g_xy, b_start=b, tol=1e-9)
    acc_xy = np.zeros((n, n), dtype=complex)
    acc_x = np.zeros((n, n), dtype=complex)
    # one n*N buffer serves every trial, viewed as an n x n grid of N x N
    # blocks; each entry is summed in the order np.kron's would be
    m = np.empty((n, N, n, N), dtype=complex)
    tmp = np.empty((N, N), dtype=complex)
    diag = np.arange(N)

    def draw(rng):
        g = _ginibre(rng, N)
        g /= math.sqrt(2.0)
        return g

    def add_block(out, k, g, i, j):
        # out += k_ij G + conj(k_ji) G*, the second as conj(k_ji G)^T,
        # which has its bits
        out += np.multiply(k[i, j], g, out=tmp)
        out += np.conjugate(np.multiply(k[j, i], g, out=tmp), out=tmp).T

    def add_terms(out, kraus, rng):
        # the terms, drawn one at a time, into out's blocks from zero
        out.fill(0)
        for k in kraus:
            g = draw(rng)
            for i, j in np.ndindex(n, n):
                add_block(out[i, :, j], k, g, i, j)
            del g  # so no two draws are held at once

    if len(eta_x.kraus) + 1 >= n * n:
        # the draws and their N x N sum would take as much room as X
        # itself (n = 1, or many terms), so X is kept instead
        xb = np.empty_like(m)

        def draw_x(rng):
            add_terms(xb, eta_x.kraus, rng)
            return lambda i, j: xb[i, :, j]
    else:
        s = np.empty((N, N), dtype=complex)

        def draw_x(rng):
            gx = [draw(rng) for _ in eta_x.kraus]

            def x_block(i, j):
                # block (i, j) of X, summed from zero term by term into s
                s.fill(0)
                for k, g in zip(eta_x.kraus, gx):
                    add_block(s, k, g, i, j)
                return s
            return x_block

    def shifted_inverse(shift):
        # shift (x) 1 - m in place (-m + shift is shift - m bit for bit), inverted
        np.negative(m, out=m)
        m[:, diag, :, diag] += shift
        return _partial_trace(_inv(m.reshape(n * N, n * N)), n, N)

    for t in range(trials):
        rng = _rng(seed, t)
        x = draw_x(rng)
        add_terms(m, eta_y.kraus, rng)
        for i, j in np.ndindex(n, n):
            m[i, :, j] += x(i, j)
        acc_xy += shifted_inverse(b)
        for i, j in np.ndindex(n, n):
            m[i, :, j] = x(i, j)
        acc_x += shifted_inverse(f_b)
        del x  # so the next trial's draws do not keep this one's
    est_xy = acc_xy / trials
    est_x = acc_x / trials
    subord = float(np.linalg.norm(est_xy - est_x))
    solver_gap = float(np.linalg.norm(est_xy - g_xy))
    return _make_report(
        "thm31_block", N, trials, seed,
        estimates={"g_hat_xy": [[complex(v) for v in row] for row in est_xy],
                   "g_hat_x_at_F": [[complex(v) for v in row] for row in est_x],
                   "n": n},
        residuals={"subordination": subord, "solver_gap": solver_gap},
        tolerances={"subordination": _GATE, "solver_gap": _GATE},
    )


def experiment_lemma34(dims=(2, 3, 4, 5, 6), samples=10000,
                       seed=0) -> ExperimentReport:
    """Seeded sweep of the two equivalent strict-contraction criteria.

    Random matrices with norms spread over [0, 2] (the band
    | ||x|| - 1 | <= 1e-6 is excluded) must never disagree between the
    norm margin 1 - ||x|| and the resolvent margin
    lambda_min(2 Re (1-x)^{-1}) - 1.  On well-conditioned samples the
    exact factorization residual of the resolvent identity is also
    accumulated; it must sit at rounding level.

    The draws are made one sample at a time, in a fixed order; the
    linear algebra runs on per-dimension stacks of up to _SWEEP_BLOCK
    consecutive draws.  A stacked LAPACK call factors each matrix as a
    single call would, so the report does not depend on the block size.
    """
    try:
        dims = tuple(dims)
    except TypeError:
        raise BadParams(f"dims must be a sequence of sizes, got {dims!r}") \
            from None
    dims = tuple(int_in_range("dims entry", d, 1, _MAX_DIM) for d in dims)
    if not dims:
        raise BadParams("lemma34 needs nonempty dims")
    samples = int_in_range("samples", samples, 1)
    seed = int_in_range("seed", seed, 0)
    rng = _rng(seed)
    violations = 0
    max_identity = 0.0
    checked = 0
    done = 0
    while done < samples:
        drawn = []
        while len(drawn) < min(_SWEEP_BLOCK, samples - done):
            d = dims[int(rng.integers(len(dims)))]
            target = float(rng.uniform(0.0, 2.0))
            if abs(1.0 - target) <= 1e-6:
                continue
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            drawn.append((d, target, a))
        done += len(drawn)
        stacks = {}
        s_min = np.empty(len(drawn))
        for d in sorted({d for d, _, _ in drawn}):
            at = np.array([i for i, (e, _, _) in enumerate(drawn) if e == d])
            a = np.stack([drawn[i][2] for i in at])
            target = np.array([drawn[i][1] for i in at])
            x = a * (target / operator_norm(a))[:, None, None]
            norm_margin, resolvent_margin, s = _contraction_margins(x)
            violations += int(np.count_nonzero(
                (norm_margin > 0) != (resolvent_margin > 0)))
            stacks[d] = at, x
            if checked < _IDENTITY_SAMPLES:
                s_min[at] = s[:, -1]
        if checked < _IDENTITY_SAMPLES:
            # the first well-conditioned draws in draw order
            take = np.zeros(len(drawn), dtype=bool)
            take[np.flatnonzero(s_min >= 0.1)[:_IDENTITY_SAMPLES - checked]] = True
            for at, x in stacks.values():
                sel = take[at]
                if sel.any():
                    max_identity = max(max_identity, float(np.max(
                        resolvent_identity_residual(x[sel]))))
            checked += int(np.count_nonzero(take))
    return _make_report(
        "lemma34", max(dims), samples, seed,
        estimates={"identity_checked": checked},
        residuals={"violations": float(violations),
                   "identity": max_identity},
        tolerances={"violations": 0.0, "identity": _IDENTITY_TOL},
    )
