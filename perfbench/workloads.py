"""The benchmark's workloads: seeded inputs, warm-up and the checked batch.

Each workload is a fixed batch of operations built from the seed.  An
operation is a call into freesub (timed) and an inspection of its
result (untimed): the acceptance check, the exact work counts and the
bytes that go into the result digests.  README.md in this directory
says why each workload exists and which layers it loads.

All calls go through module attributes (``fs.subordination_pair``,
``fs_cli.main``) so the traced run's wrappers see them.
"""

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import freesub as fs
from freesub import cli as fs_cli


@dataclass(frozen=True)
class Outcome:
    """Inspection of one result: check verdict, work counts, digest bytes."""

    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    inspect: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable   # (seed, smoke, workdir) -> inputs
    warm_up: Callable  # (inputs) -> None; one cheap call of each op kind
    ops: Callable     # (inputs) -> list of Op


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _shifted(measure, s):
    """A line measure translated by s."""
    grid = None
    if measure.grid is not None:
        g = measure.grid
        grid = fs.GridSpec(g.lo + s, g.hi + s, g.n)
    return fs.LineMeasure(atoms=tuple((t + s, w) for t, w in measure.atoms),
                          grid=grid, density=measure.density)


def _kappa(measure, order):
    return np.array(fs.free_cumulants(
        [1.0] + [measure.moment(k) for k in range(1, order + 1)], order))


# ---------------------------------------------------------------------------
# line_density: vectorized subordination near the real axis
# ---------------------------------------------------------------------------

GRID_N = 1601
ETAS = (4e-4, 2e-4, 1e-4)
DENSITY_TOL = 5e-3
CUMULANT_TOL = 1e-4
MOMENT_ORDER = 8


@dataclass(frozen=True)
class DensityCase:
    name: str
    mu: Any
    nu: Any
    grid: np.ndarray
    reference: Any = None   # closed-form law of mu (+) nu, if there is one
    window: tuple = None    # (lo, hi) where the closed form is compared
    kappa_sum: np.ndarray = None


def build_line_density(seed, smoke, workdir):
    rng = _rng(seed, 1)
    n_law = 256 if smoke else fs.measures.DEFAULT_GRID_N
    a, b = rng.uniform(-0.5, 0.5, size=(2, 4))
    cases = []

    def add(name, mu, nu, center, lo, hi, reference=None, half_window=None):
        window = None
        if reference is not None:
            window = (center - half_window, center + half_window)
        kappa = _kappa(mu, MOMENT_ORDER) + _kappa(nu, MOMENT_ORDER)
        cases.append(DensityCase(name, mu, nu,
                                 np.linspace(center + lo, center + hi, GRID_N),
                                 reference, window, kappa))

    # 2+2 nodes; closed form: arcsine on [c-2, c+2]
    c = a[0] + b[0]
    add("bern_bern", fs.atomic([(a[0] - 1, 0.5), (a[0] + 1, 0.5)]),
        fs.atomic([(b[0] - 1, 0.5), (b[0] + 1, 0.5)]), c, -2.2, 2.2,
        reference=_shifted(fs.arcsine(n=n_law), c), half_window=1.9)
    # 3+2048 nodes; checked by mean and variance
    add("atomic_arcsine",
        fs.atomic([(a[1] - 2.0, 1 / 3), (a[1], 1 / 3), (a[1] + 1.0, 1 / 3)]),
        _shifted(fs.arcsine(n=n_law), b[1]), a[1] + b[1], -4.5, 3.5)
    # 2048+2048 nodes; closed form: semicircle of variance 2
    c = a[2] + b[2]
    add("sc_sc", fs.semicircle(a[2], 1.0, n=n_law),
        fs.semicircle(b[2], 1.0, n=n_law), c, -3.2, 3.2,
        reference=fs.semicircle(c, 2.0, n=n_law),
        half_window=1.9 * math.sqrt(2.0))
    # 2048+2048 nodes; checked by mean and variance
    add("mp_sc", _shifted(fs.marchenko_pastur(1.0, n=n_law), a[3]),
        fs.semicircle(b[3], 1.0, n=n_law), a[3] + b[3], -2.5, 6.5)
    return cases


def _check_density(case):
    def inspect(conv):
        x = conv.grid.points()
        if case.reference is not None:
            ref = case.reference
            win = (x >= case.window[0]) & (x <= case.window[1])
            err = float(np.max(np.abs(
                conv.density - np.interp(x, ref.grid.points(), ref.density))[win]))
            what = "closed form"
        else:
            mean = case.mu.moment(1) + case.nu.moment(1)
            var = (case.mu.moment(2) - case.mu.moment(1) ** 2
                   + case.nu.moment(2) - case.nu.moment(1) ** 2)
            m1 = conv.moment(1)
            err = max(abs(m1 - mean), abs(conv.moment(2) - m1 ** 2 - var))
            what = "mean/variance"
        return Outcome(
            ok=err <= DENSITY_TOL,
            detail=f"{case.name} density vs {what}: {err:.2e} (tol {DENSITY_TOL:g})",
            counts={"free_add_convolve.calls": 1,
                    "free_add_convolve.points": x.size * len(ETAS)},
            digests={"free_add_convolve": conv.density.tobytes()})
    return inspect


def _check_moments(case):
    def inspect(moments):
        kc = np.array(fs.free_cumulants([1.0] + list(moments), MOMENT_ORDER))
        err = float(np.max(np.abs(kc - case.kappa_sum)))
        return Outcome(
            ok=err <= CUMULANT_TOL,
            detail=f"{case.name} cumulant additivity {err:.2e} (tol {CUMULANT_TOL:g})",
            counts={"convolve_moments.calls": 1},
            digests={"convolve_moments": np.asarray(moments).tobytes()})
    return inspect


def warm_line_density(cases):
    case = cases[2]
    fs.free_add_convolve(case.mu, case.nu,
                         np.linspace(case.grid[0], case.grid[-1], 33),
                         eta_sequence=ETAS)
    fs.convolve_moments(case.mu, case.nu, MOMENT_ORDER)


def ops_line_density(cases):
    ops = []
    for case in cases:
        ops.append(Op("free_add_convolve",
                      lambda c=case: fs.free_add_convolve(
                          c.mu, c.nu, c.grid, eta_sequence=ETAS),
                      _check_density(case)))
    for case in cases:
        ops.append(Op("convolve_moments",
                      lambda c=case: fs.convolve_moments(c.mu, c.nu,
                                                         MOMENT_ORDER),
                      _check_moments(case)))
    return ops


# ---------------------------------------------------------------------------
# point_solves: many small calls, vector length 1
# ---------------------------------------------------------------------------

SUB_RESIDUAL_TOL = 1e-9
SUB_IDENTITY_TOL = 1e-8
OP_RESIDUAL_TOL = 1e-8
ETA_MOMENT_TOL = 1e-8
DISK_RESIDUAL_TOL = 1e-10
DISK_RADIUS = 0.25


@dataclass
class PointInputs:
    pairs: list
    points: np.ndarray
    triples: list
    mult_pairs: list
    eta_order: int
    disk_law: Any
    disk_targets: list
    cli_runs: list


def _random_triple(rng, n, kx_terms):
    def unit(scale):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return scale * m / np.linalg.norm(m, 2)

    eta_x = fs.CovarianceMap(kraus=[unit(0.6) for _ in range(kx_terms)])
    eta_y = fs.CovarianceMap(kraus=[unit(0.7)])
    herm = rng.standard_normal((n, n))
    b = (herm + herm.T) / 4 + 1j * (0.5 + 0.5 * rng.random()) * np.eye(n)
    return eta_x, eta_y, b


def _circle_law(rng, weights):
    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(weights))
    return fs.circle_atoms(list(zip(angles.tolist(), weights)))


def build_point_solves(seed, smoke, workdir):
    rng = _rng(seed, 2)
    n_law = 256 if smoke else fs.measures.DEFAULT_GRID_N
    laws = [fs.semicircle(0, 1, n=n_law), fs.bernoulli_pm1(),
            fs.arcsine(n=n_law), fs.marchenko_pastur(1.0, n=n_law),
            fs.atomic([(-2.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)])]
    pairs = [(laws[i], laws[j]) for i in range(5) for j in range(i + 1, 5)]
    re = np.arange(-4.0, 4.0 + 1e-9, 1.0 if smoke else 0.25)
    points = np.concatenate([
        re + rng.uniform(-0.1, 0.1, size=re.size) + 1j * im
        for im in (0.5, 1.0, 2.0)])
    triples = [_random_triple(rng, (1, 2, 3)[k % 3], (k + 1) % 2 + 1)
               for k in range(6 if smoke else 51)]
    haar = fs.haar_circle(n=n_law)
    atoms3 = _circle_law(rng, (0.5, 0.3, 0.2))
    atoms2 = _circle_law(rng, (0.6, 0.4))
    mult_pairs = [(atoms3, haar), (atoms3, atoms2), (haar, atoms2)]
    disk_law = _circle_law(rng, (0.5, 0.3, 0.2))
    # |g0| <= 0.25: beyond about 0.28 the undamped Newton from g = 0 in
    # disk_subordination_solve stalls on ~1% of these targets (README.md)
    g0 = (rng.uniform(0.0, DISK_RADIUS, size=4 if smoke else 20)
          * np.exp(2j * math.pi * rng.random(4 if smoke else 20)))
    disk_targets = [complex(fs.circle_cauchy(disk_law, g)) for g in g0]
    return PointInputs(pairs, points, triples, mult_pairs,
                       6 if smoke else 8, disk_law, disk_targets,
                       _cli_runs(rng, seed, smoke, workdir))


def _cli_runs(rng, seed, smoke, workdir):
    """(name, argv, out_dir) for each CLI command; configs are written here."""
    c = float(rng.uniform(-0.5, 0.5))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=2).tolist()

    def config(name, cfg):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    semicircle = {"family": "semicircle", "params": [c, 1.0]}
    runs = [
        ("convolve-add",
         ["convolve-add", "--config",
          config("add", {"mu": semicircle, "nu": {"family": "bernoulli_pm1"}}),
          f"--grid={c - 3.5!r}:{c + 3.5!r}:33"]),
        ("convolve-mult",
         ["convolve-mult", "--config",
          config("mult", {"mu": {"family": "circle_atoms",
                                 "params": [[theta[0], 0.5], [theta[1], 0.5]]},
                          "nu": {"family": "haar_circle"}})]),
        ("eval",
         ["eval", "cauchy", "--config", config("eval", {"measure": semicircle}),
          f"--grid={c - 2.0!r}:{c + 2.0!r}:9"]),
        ("verify-lemma34",
         ["verify", "lemma34", "--seed", str(int(seed)),
          "--samples", "200" if smoke else "2000"]),
    ]
    out = []
    for name, argv in runs:
        out_dir = os.path.join(workdir, f"out-{name}")
        out.append((name, argv + ["--out", out_dir], out_dir))
    return out


def _check_pair(mu, nu, z):
    def inspect(ev):
        res = abs(complex(fs.cauchy_transform(mu, ev.omega1))
                  - complex(fs.cauchy_transform(nu, ev.omega2)))
        ident = abs(ev.omega1 + ev.omega2 - z - 1.0 / ev.g_conv)
        return Outcome(
            ok=res <= SUB_RESIDUAL_TOL and ident <= SUB_IDENTITY_TOL,
            detail=f"subordination at z={z}: residual {res:.2e}, "
                   f"identity {ident:.2e}",
            counts={"subordination_pair.calls": 1,
                    "subordination_pair.iterations": ev.iterations},
            digests={"subordination_pair": np.array(
                [ev.omega1, ev.omega2, ev.g_conv]).tobytes()})
    return inspect


def _solve_triple(eta_x, eta_y, b):
    def call():
        gx_evals = 0

        def g_x(w):
            nonlocal gx_evals
            gx_evals += 1
            return fs.op_semicircular_cauchy(eta_x, w).g

        g_xy = fs.op_add_cauchy(eta_x, eta_y, b).g
        return g_xy, fs.solve_subordination_F(g_x, g_xy, b), gx_evals
    return call


def _check_triple(eta_x):
    def inspect(result):
        g_xy, f_b, gx_evals = result
        resid = float(np.linalg.norm(
            fs.op_semicircular_cauchy(eta_x, f_b).g - g_xy))
        margin = fs.halfplane_margin(f_b)
        return Outcome(
            ok=resid <= OP_RESIDUAL_TOL and margin > 0,
            detail=f"operator-valued residual {resid:.2e}, margin {margin:.3g}",
            counts={"solve_subordination_F.calls": 1,
                    "solve_subordination_F.gx_evals": gx_evals},
            digests={"solve_subordination_F": f_b.tobytes()})
    return inspect


def _check_mult(order):
    def inspect(result):
        conv, reference = result
        err = max(abs(complex(m) - complex(r))
                  for m, r in zip(conv.moments[:order], reference))
        return Outcome(
            ok=err <= ETA_MOMENT_TOL,
            detail=f"eta-moments vs free_multiplicative_moments {err:.2e}",
            counts={"free_mult_convolve_unitary.calls": 1},
            digests={"free_mult_convolve_unitary":
                     np.array(conv.moments).tobytes()})
    return inspect


def _check_disk(law, target):
    def inspect(sol):
        resid = abs(complex(fs.circle_cauchy(law, sol.g)) - target)
        return Outcome(
            ok=resid <= DISK_RESIDUAL_TOL and sol.ball_margin > 0,
            detail=f"disk round trip residual {resid:.2e}, "
                   f"margin {sol.ball_margin:.3g}",
            counts={"disk_subordination_solve.calls": 1},
            digests={"disk_subordination_solve":
                     np.array([sol.g]).tobytes()})
    return inspect


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return fs_cli.main(argv)


def _check_cli(name, out_dir):
    def inspect(rc):
        digests = {}
        written = 0
        passed = rc == 0
        for fname in sorted(os.listdir(out_dir)):
            if fname == "meta.json":
                continue  # wall-clock metadata, not reproducible
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            written += len(data)
            digests[f"cli.{name}/{fname}"] = data
            if fname == "summary.json":
                passed = passed and json.loads(data)["pass"] is True
            if fname == "report.json":
                passed = passed and json.loads(data)["verdict"] == "pass"
        shutil.rmtree(out_dir)
        return Outcome(ok=passed, detail=f"cli {name}: exit {rc}",
                       counts={"cli.main.calls": 1,
                               "cli.bytes_written": written},
                       digests=digests)
    return inspect


def warm_point_solves(inp):
    mu, nu = inp.pairs[0]
    fs.subordination_pair(mu, nu, complex(inp.points[0]))
    _solve_triple(*inp.triples[0])()
    a, b = inp.mult_pairs[0]
    fs.free_mult_convolve_unitary(a, b, order=16)
    # fills the noncrossing-partition and Kreweras tables up to eta_order
    fs.free_multiplicative_moments(
        [a.moment(k) for k in range(1, inp.eta_order + 1)],
        [b.moment(k) for k in range(1, inp.eta_order + 1)], inp.eta_order)
    fs.disk_subordination_solve(inp.disk_law, inp.disk_targets[0])
    for _, argv, out_dir in inp.cli_runs:
        _run_cli(argv)
        shutil.rmtree(out_dir, ignore_errors=True)


def ops_point_solves(inp):
    ops = []
    for mu, nu in inp.pairs:
        for z in inp.points:
            z = complex(z)
            ops.append(Op("subordination_pair",
                          lambda mu=mu, nu=nu, z=z: fs.subordination_pair(mu, nu, z),
                          _check_pair(mu, nu, z)))
    for eta_x, eta_y, b in inp.triples:
        ops.append(Op("solve_subordination_F", _solve_triple(eta_x, eta_y, b),
                      _check_triple(eta_x)))
    k = inp.eta_order
    for a, b in inp.mult_pairs:
        ma = [a.moment(j) for j in range(1, k + 1)]
        mb = [b.moment(j) for j in range(1, k + 1)]
        ops.append(Op("free_mult_convolve_unitary",
                      lambda a=a, b=b, ma=ma, mb=mb: (
                          fs.free_mult_convolve_unitary(a, b, order=16),
                          fs.free_multiplicative_moments(ma, mb, k)),
                      _check_mult(k)))
    for target in inp.disk_targets:
        ops.append(Op("disk_subordination_solve",
                      lambda t=target: fs.disk_subordination_solve(inp.disk_law, t),
                      _check_disk(inp.disk_law, target)))
    for name, argv, out_dir in inp.cli_runs:
        ops.append(Op("cli", lambda argv=argv: _run_cli(argv),
                      _check_cli(name, out_dir)))
    return ops


# ---------------------------------------------------------------------------
# monte_carlo: seeded random-matrix experiments at acceptance N
# ---------------------------------------------------------------------------

# Trials per experiment.  Each gate is the experiment's own default
# tolerance; the counts leave margin on seeds not used to choose them
# (README.md lists the residuals seen).
TRIALS = {"thm36": 8, "prop33": 28, "thm31_block": 4}
SMOKE_TRIALS = {"thm36": 40, "prop33": 40, "thm31_block": 8}


@dataclass
class MonteCarloInputs:
    seed: int
    N: int
    N_block: int
    trials: dict
    c0: np.ndarray
    haar: Any
    atoms: Any
    A0: np.ndarray
    C0: np.ndarray
    eta_x: Any
    eta_y: Any
    b: np.ndarray


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def build_monte_carlo(seed, smoke, workdir):
    rng = _rng(seed, 3)
    N = 64 if smoke else 600
    balanced = np.where(np.arange(N) < N // 2, 1.0, -1.0)
    return MonteCarloInputs(
        seed=int(seed), N=N, N_block=64 if smoke else 512,
        trials=SMOKE_TRIALS if smoke else TRIALS,
        c0=0.7 * _haar_unitary(rng, N),
        haar=fs.haar_circle(),
        atoms=fs.circle_atoms([(0.0, 0.5), (math.pi, 0.3),
                               (math.pi / 2, 0.2)]),
        A0=np.diag(balanced),
        C0=np.diag(rng.permutation(np.linspace(0.5, 1.5, N))),
        eta_x=fs.CovarianceMap(kraus=[np.array([[0.9, 0.3], [0.0, 0.6]])]),
        eta_y=fs.CovarianceMap(kraus=[np.array([[0.5, -0.2], [0.1, 0.7]])]),
        b=1j * np.eye(2))


def _experiments(inp, trials):
    """(label, trial key, trials, call) for each experiment in the mix."""
    return [
        ("thm36_haar", "thm36", trials["thm36"],
         lambda: fs.experiment_thm36(inp.haar, inp.c0, N=inp.N,
                                     trials=trials["thm36"], seed=inp.seed)),
        ("thm36_atoms", "thm36", trials["thm36"],
         lambda: fs.experiment_thm36(inp.atoms, inp.c0, N=inp.N,
                                     trials=trials["thm36"], seed=inp.seed)),
        ("prop33", "prop33", trials["prop33"],
         lambda: fs.experiment_prop33(inp.A0, inp.C0, eps=1.0,
                                      trials=trials["prop33"], seed=inp.seed)),
        ("thm31_block", "thm31_block", trials["thm31_block"],
         lambda: fs.experiment_thm31_block(inp.eta_x, inp.eta_y, inp.b,
                                           N=inp.N_block,
                                           trials=trials["thm31_block"],
                                           seed=inp.seed)),
    ]


def _check_report(label, key, trials):
    def inspect(rep):
        worst = ", ".join(f"{k} {v:.4g}/{rep.tolerances[k]:g}"
                          for k, v in sorted(rep.residuals.items()))
        return Outcome(ok=rep.verdict == "pass",
                       detail=f"{label}: {rep.verdict} ({worst})",
                       counts={f"trials.{key}": trials},
                       digests={f"report.{label}": rep.to_json().encode()})
    return inspect


def warm_monte_carlo(inp):
    warmed = set()
    for _, key, _, call in _experiments(inp, dict.fromkeys(inp.trials, 1)):
        if key not in warmed:  # one call per experiment function
            warmed.add(key)
            call()


def ops_monte_carlo(inp):
    return [Op(label, call, _check_report(label, key, n))
            for label, key, n, call in _experiments(inp, inp.trials)]


WORKLOADS = {
    w.name: w for w in (
        Workload("line_density", build_line_density, warm_line_density,
                 ops_line_density),
        Workload("point_solves", build_point_solves, warm_point_solves,
                 ops_point_solves),
        Workload("monte_carlo", build_monte_carlo, warm_monte_carlo,
                 ops_monte_carlo),
    )
}
