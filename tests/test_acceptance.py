"""End-to-end acceptance sweep.

One test per numbered criterion, each printing a single
``criterion NN: PASS/FAIL`` line (run with ``pytest -s`` to see them),
so the suite doubles as the acceptance report.  The Monte Carlo
criteria (5 through 8) cache their reports at module level; the
determinism criterion reruns every one of them with identical seeds
and compares the serialized reports byte for byte.  Those five carry the
``slow`` marker: ``pytest -m "not slow"`` leaves them out of a fast
loop, and the plain run keeps every criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from freesub import (CovarianceMap, arcsine, bernoulli_pm1, cauchy_transform,
                     circle_atoms, convolve_moments, experiment_lemma34,
                     experiment_prop32, experiment_prop33,
                     experiment_thm31_block, experiment_thm36,
                     free_add_convolve, free_cumulants,
                     free_cumulants_to_moments, haar_circle, halfplane_margin,
                     op_add_cauchy, op_semicircular_cauchy, semicircle,
                     solve_subordination_F, subordination_pair)

_REPORTS = {}
_PM1 = np.where(np.arange(600) < 300, 1.0, -1.0)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _cached(key):
    if key not in _REPORTS:
        _REPORTS[key] = _RUNNERS[key]()
    return _REPORTS[key]


# -- Monte Carlo configurations, shared by criteria 5-8 and rerun by 10 -----

def _run_block_subordination():
    eta_x = CovarianceMap(kraus=[np.array([[0.9, 0.3], [0.0, 0.6]])])
    eta_y = CovarianceMap(kraus=[np.array([[0.5, -0.2], [0.1, 0.7]])])
    return experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2),
                                  N=512, trials=100, seed=0)


def _run_resolvent_diagonalization():
    return experiment_prop32(lam_diag=_PM1, a0=np.diag(_PM1[::-1].copy()),
                             eps=1.0, trials=200, seed=42)


def _run_markov_scalar_collapse():
    return experiment_prop33(A0=np.diag(_PM1),
                             C0=np.diag(np.linspace(0.5, 1.5, 600)),
                             eps=1.0, trials=200, seed=42)


def _run_disk_haar():
    return experiment_thm36(theta_law=haar_circle(), N=600, trials=100, seed=0)


def _run_disk_atoms():
    law = circle_atoms([(0.0, 0.5), (math.pi, 0.3), (math.pi / 2, 0.2)])
    return experiment_thm36(theta_law=law, N=600, trials=100, seed=0)


_RUNNERS = {
    "block_subordination": _run_block_subordination,
    "resolvent_diagonalization": _run_resolvent_diagonalization,
    "markov_scalar_collapse": _run_markov_scalar_collapse,
    "disk_haar": _run_disk_haar,
    "disk_atoms": _run_disk_atoms,
}


def test_criterion_01_scalar_subordination(line_pairs):
    re = np.arange(-4.0, 4.0 + 1e-9, 0.25)
    zs = np.concatenate([re + 1j * im for im in (0.5, 1.0, 2.0)])
    t0 = time.perf_counter()
    worst_res = worst_id = 0.0
    for mu, nu in line_pairs:
        for z in zs:
            ev = subordination_pair(mu, nu, complex(z))
            res = abs(cauchy_transform(mu, ev.omega1)
                      - cauchy_transform(nu, ev.omega2))
            idd = abs(ev.omega1 + ev.omega2 - z - 1.0 / ev.g_conv)
            worst_res = max(worst_res, float(res))
            worst_id = max(worst_id, float(idd))
    dt = time.perf_counter() - t0
    ok = worst_res <= 1e-9 and worst_id <= 1e-8 and dt < 30.0
    _verdict(1, ok, f"residual {worst_res:.2e} <= 1e-9, "
                    f"identity {worst_id:.2e} <= 1e-8, {dt:.1f}s < 30s")


def test_criterion_02_closed_form_convolutions():
    t0 = time.perf_counter()
    etas = (4e-4, 2e-4, 1e-4)
    sc = semicircle(0, 1)
    conv = free_add_convolve(sc, sc, np.linspace(-3.2, 3.2, 1601),
                             eta_sequence=etas)
    ref = semicircle(0, 2)
    x = conv.grid.points()
    # support edge sits at 2*sqrt(2); the comparison window stops at 1.9x
    # the scale, clear of the inverse-square-root edge zone
    win = np.abs(x) <= 1.9 * math.sqrt(2)
    err_sc = float(np.max(np.abs(
        conv.density - np.interp(x, ref.grid.points(), ref.density))[win]))

    bern = bernoulli_pm1()
    conv2 = free_add_convolve(bern, bern, np.linspace(-2.2, 2.2, 1601),
                              eta_sequence=etas)
    ref2 = arcsine()
    x2 = conv2.grid.points()
    win2 = np.abs(x2) <= 1.9
    err_arc = float(np.max(np.abs(
        conv2.density - np.interp(x2, ref2.grid.points(), ref2.density))[win2]))
    dt = time.perf_counter() - t0
    ok = err_sc <= 5e-3 and err_arc <= 5e-3 and dt < 20.0
    _verdict(2, ok, f"semicircle {err_sc:.2e}, arcsine {err_arc:.2e} "
                    f"<= 5e-3, {dt:.1f}s < 20s")


def _set_partitions(elems):
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
        yield [[head]] + sub


def _is_noncrossing(part):
    # crossing iff i < k < j < l with i, j in one block and k, l in another
    for b in part:
        for c in part:
            if b is c:
                continue
            for i in b:
                for j in b:
                    if i >= j:
                        continue
                    inside = any(i < k < j for k in c)
                    outside = any(k < i or k > j for k in c)
                    if inside and outside:
                        return False
    return True


def test_criterion_03_cumulant_additivity(line_pairs):
    worst = 0.0
    for mu, nu in line_pairs:
        ka = free_cumulants([mu.moment(k) for k in range(9)], 8)
        kb = free_cumulants([nu.moment(k) for k in range(9)], 8)
        kc = free_cumulants([1.0] + list(convolve_moments(mu, nu, 8)), 8)
        worst = max(worst, float(np.max(np.abs(
            np.array(kc) - np.array(ka) - np.array(kb)))))

    # the moment recursion against a from-scratch enumeration of all set
    # partitions filtered down to the noncrossing ones, in exact rationals
    kappa = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5),
             Fraction(1, 7), Fraction(-3, 4), Fraction(5, 6)]
    moments = free_cumulants_to_moments(kappa)
    exact = True
    for n in range(1, 7):
        total = Fraction(0)
        for part in _set_partitions(list(range(n))):
            if _is_noncrossing(part):
                term = Fraction(1)
                for block in part:
                    term *= kappa[len(block) - 1]
                total += term
        exact = exact and total == moments[n - 1]
    ok = worst <= 1e-4 and exact
    _verdict(3, ok, f"additivity {worst:.2e} <= 1e-4, "
                    f"noncrossing enumeration exact: {exact}")


def test_criterion_04_opvalued_subordination():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst = 0.0
    worst_margin = math.inf
    k = 0
    for count in range(102):
        n = [1, 2, 3][k % 3]
        k += 1
        kx = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              for _ in range(k % 2 + 1)]
        ky = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        eta_x = CovarianceMap(kraus=[0.6 * m / np.linalg.norm(m, 2) for m in kx])
        eta_y = CovarianceMap(kraus=[0.7 * m / np.linalg.norm(m, 2) for m in ky])
        herm = rng.standard_normal((n, n))
        b = (herm + herm.T) / 4 + 1j * (0.5 + 0.5 * rng.random()) * np.eye(n)
        g_xy = op_add_cauchy(eta_x, eta_y, b)
        fb = solve_subordination_F(
            lambda bb: op_semicircular_cauchy(eta_x, bb).g, g_xy.g, b)
        gx = op_semicircular_cauchy(eta_x, fb)
        worst = max(worst, float(np.linalg.norm(gx.g - g_xy.g)))
        worst_margin = min(worst_margin, halfplane_margin(fb))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_margin > 0 and dt < 60.0
    _verdict(4, ok, f"102 triples, residual {worst:.2e} <= 1e-8, "
                    f"min margin {worst_margin:.3f} > 0, {dt:.1f}s < 60s")


@pytest.mark.slow
def test_criterion_05_block_monte_carlo():
    t0 = time.perf_counter()
    rep = _cached("block_subordination")
    dt = time.perf_counter() - t0
    sub = rep.residuals["subordination"]
    ok = sub <= 0.05 and rep.verdict == "pass" and dt < 300.0
    _verdict(5, ok, f"N=512 trials=100 subordination {sub:.5f} <= 0.05, "
                    f"{dt:.0f}s < 300s")


@pytest.mark.slow
def test_criterion_06_resolvent_diagonalization():
    t0 = time.perf_counter()
    rep = _cached("resolvent_diagonalization")
    dt = time.perf_counter() - t0
    off = rep.residuals["off_diag"]
    fit = rep.residuals["fit"]
    im_f = rep.estimates["f"].imag
    ok = (off <= 0.05 and fit <= 0.05 and im_f >= 0.5
          and rep.verdict == "pass" and dt < 180.0)
    _verdict(6, ok, f"off_diag {off:.5f}, fit {fit:.5f} <= 0.05, "
                    f"Im f {im_f:.3f} >= 0.5, {dt:.0f}s < 180s")


@pytest.mark.slow
def test_criterion_07_markov_scalar_collapse():
    t0 = time.perf_counter()
    rep = _cached("markov_scalar_collapse")
    dt = time.perf_counter() - t0
    dev = rep.residuals["scalar_dev"]
    im_s = rep.estimates["scalar"].imag
    ok = (dev <= 0.05 and im_s >= 0.4 and rep.verdict == "pass"
          and dt < 180.0)
    _verdict(7, ok, f"scalar_dev {dev:.5f} <= 0.05, "
                    f"Im scalar {im_s:.3f} >= 0.4, {dt:.0f}s < 180s")


@pytest.mark.slow
def test_criterion_08_disk_subordination():
    t0 = time.perf_counter()
    haar_rep = _cached("disk_haar")
    atom_rep = _cached("disk_atoms")
    dt = time.perf_counter() - t0
    haar_abs = haar_rep.residuals["haar_abs"]
    solve = atom_rep.residuals["solve"]
    g_abs = abs(atom_rep.estimates["g"])
    ok = (haar_abs <= 0.05 and solve <= 0.02 and g_abs <= 0.99
          and haar_rep.verdict == "pass" and atom_rep.verdict == "pass"
          and dt < 180.0)
    _verdict(8, ok, f"haar |m| {haar_abs:.5f} <= 0.05, atomic solve "
                    f"{solve:.2e} <= 0.02, |g| {g_abs:.3f} <= 0.99, "
                    f"{dt:.0f}s < 180s")


def test_criterion_09_contraction_margins():
    t0 = time.perf_counter()
    rep = experiment_lemma34(seed=3)
    dt = time.perf_counter() - t0
    violations = rep.residuals["violations"]
    identity = rep.residuals["identity"]
    ok = (violations == 0.0 and identity <= 1e-11
          and rep.verdict == "pass" and dt < 10.0)
    _verdict(9, ok, f"violations {violations:.0f} == 0, "
                    f"identity {identity:.2e} <= 1e-11, {dt:.1f}s < 10s")


@pytest.mark.slow
def test_criterion_10_determinism():
    mismatched = []
    for key, runner in _RUNNERS.items():
        base = _cached(key)
        fresh = runner()
        if fresh.to_json() != base.to_json() or fresh.residuals != base.residuals:
            mismatched.append(key)
    ok = not mismatched
    _verdict(10, ok, "criteria 5-8 reruns bit-identical"
             if ok else f"reruns diverged: {mismatched}")
