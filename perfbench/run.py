#!/usr/bin/env python3
"""freesub benchmark: one workload per process, results checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload line_density --seed 1 \\
        --seconds 25 --trace 0

Workloads: line_density, point_solves, monte_carlo (README.md says why
each exists).  The run sets up ``SETUP_REPEATS`` times, then repeats
the workload's fixed batch of operations and stops before a batch would
end past ``--seconds``; one batch always runs.  Every result is checked.

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb) with no instrumentation in place.  ``--trace 1`` is a
separate run that alternates untraced and traced batches and reports
the per-layer metrics from the traced ones, plus the tracing overhead.

Before the result the run prints a human-readable metric list and a
report with the machine facts, the exact work counts and the result
digests of one batch; the last line of standard output is the JSON
result.  Files go under ``.perfbench_run/`` in the checkout.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("line_density", "point_solves", "monte_carlo")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_REPORTED_FAILURES = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def pin_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def blas_threads():
    """Thread counts reported by each loaded OpenBLAS, keyed by library."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_facts(nproc):
    import numpy
    import scipy

    import freesub
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "freesub": freesub.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "rss_method": "resource.getrusage ru_maxrss (KiB on Linux), "
                      "RUSAGE_SELF + RUSAGE_CHILDREN",
    }


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def clear_caches():
    """Empty every lru_cache in freesub, so each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "freesub" or name.startswith("freesub.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Batch:
    """One pass over the workload's operations: time, checks, counts, digests."""

    def __init__(self, ops, tracer=None):
        self.op_s = []
        self.attempted = len(ops)
        self.failures = []
        self.counts = {}
        hashers = {}
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed one
                self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                self.op_s.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.active = False
            try:
                out = op.inspect(result)
            except Exception as exc:
                self.failures.append(
                    f"{op.kind}: check raised {type(exc).__name__}: {exc}")
                continue
            if not out.ok:
                self.failures.append(f"{op.kind}: {out.detail}")
            for k, v in out.counts.items():
                self.counts[k] = self.counts.get(k, 0) + int(v)
            for k, data in out.digests.items():
                hashers.setdefault(k, hashlib.sha256()).update(data)
        self.digests = {k: h.hexdigest() for k, h in sorted(hashers.items())}

    @property
    def wall_s(self):
        return sum(self.op_s)


def batch_wall_s(batches):
    """Wall time of the batch: per operation, the fastest of its batches, summed.

    On a shared machine other tenants slow whole stretches of a run and
    never speed it up, so each call's fastest repeat is the reading
    least disturbed by them; a median follows whichever speed held for
    most of the run.
    """
    return sum(min(t) for t in zip(*(b.op_s for b in batches)))


def run_batches(ops, seconds, make_batch):
    """Repeat make_batch while the next one is predicted to end in time."""
    batches = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        batches.append(make_batch())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return batches


def layer_metrics(agg, extra, counts):
    """Per-layer metrics of one traced batch (see README.md for the map)."""
    import tracing

    def get(label):
        return agg.get(label) or tracing.Aggregate()

    def self_s(label):
        return get(label).self_ns / 1e9

    def calls(label):
        return get(label).calls

    def per_trial(key):
        trials = counts.get(f"trials.{key}", 0)
        total = get(f"matrixmodels.experiment_{key}").total_ns / 1e9
        return total / trials if trials else 0.0

    def iterations_mean(label):
        n = calls(label)
        return extra.get(label + ".iterations", 0) / n if n else 0.0

    sub = get("additive.subordination_pair").durations_ns
    solve_f = "opvalued.solve_subordination_F"
    m = {}
    for label in ("transforms.cauchy_transform", "additive.convolve_cauchy"):
        m[label + ".calls"] = (calls(label), "count")
        m[label + ".points"] = (extra.get(label + ".points", 0), "count")
        m[label + ".self_s"] = (self_s(label), "s")
    m["transforms.stieltjes_invert.self_s"] = (
        self_s("transforms.stieltjes_invert"), "s")
    m["transforms.circle_cauchy.points"] = (
        extra.get("transforms.circle_cauchy.points", 0), "count")
    m["transforms.circle_cauchy.self_s"] = (
        self_s("transforms.circle_cauchy"), "s")
    m["additive.free_add_convolve.p50_s"] = (tracing.percentile(
        get("additive.free_add_convolve").durations_ns, 50) / 1e9, "s")
    label = "additive.subordination_pair"
    m[label + ".calls"] = (calls(label), "count")
    m[label + ".self_s"] = (self_s(label), "s")
    m[label + ".p50_us"] = (tracing.percentile(sub, 50) / 1e3, "us")
    m[label + ".p99_us"] = (tracing.percentile(sub, 99) / 1e3, "us")
    m[label + ".iterations_mean"] = (iterations_mean(label), "count")
    m[solve_f + ".calls"] = (calls(solve_f), "count")
    m[solve_f + ".self_s"] = (self_s(solve_f), "s")
    m[solve_f + ".p50_ms"] = (tracing.percentile(
        get(solve_f).durations_ns, 50) / 1e6, "ms")
    m[solve_f + ".gx_evals_per_solve"] = (
        extra.get(solve_f + ".callback_calls", 0) / calls(solve_f)
        if calls(solve_f) else 0.0, "count")
    label = "opvalued.op_semicircular_cauchy"
    m[label + ".calls"] = (calls(label), "count")
    m[label + ".self_s"] = (self_s(label), "s")
    m[label + ".iterations_mean"] = (iterations_mean(label), "count")
    label = "opvalued.CovarianceMap.call"
    m[label + ".calls"] = (calls(label), "count")
    m[label + ".self_s"] = (self_s(label), "s")
    m["multiplicative.free_mult_convolve_unitary.self_s"] = (
        self_s("multiplicative.free_mult_convolve_unitary"), "s")
    label = "multiplicative.disk_subordination_solve"
    m[label + ".calls"] = (calls(label), "count")
    m[label + ".self_s"] = (self_s(label), "s")
    m["cumulants.free_multiplicative_moments.self_s"] = (
        self_s("cumulants.free_multiplicative_moments"), "s")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.main.p50_ms"] = (tracing.percentile(
        get("cli.main").durations_ns, 50) / 1e6, "ms")
    m["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "B")
    for key in ("thm36", "prop33", "thm31_block"):
        m[f"matrixmodels.{key}.s_per_trial"] = (per_trial(key), "s")
    m["matrixmodels.trials"] = (sum(v for k, v in counts.items()
                                    if k.startswith("trials.")), "count")
    m["matrixmodels.partial_trace.self_s"] = (
        self_s("matrixmodels.partial_trace"), "s")
    m["matrixmodels.sample_angles.self_s"] = (
        self_s("matrixmodels.sample_angles"), "s")
    m["matrixmodels.experiment.self_s"] = (sum(
        a.self_ns for k, a in agg.items()
        if k.startswith("matrixmodels.experiment_")) / 1e9, "s")
    for label in ("linalg.qr", "linalg.inv"):
        m[label + ".calls"] = (calls(label), "count")
        m[label + ".self_s"] = (self_s(label), "s")
    for label in ("domains.relative_contraction_margin",
                  "domains.contraction_margins"):
        m[label + ".self_s"] = (self_s(label), "s")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "freesub")):
        print(f"error: no freesub sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import freesub  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(RUN_DIR, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    with tempfile.TemporaryDirectory(dir=RUN_DIR) as workdir:
        def setup():
            clear_caches()
            start = time.perf_counter()
            inputs = wl.build(args.seed, args.smoke, workdir)
            wl.warm_up(inputs)
            return time.perf_counter() - start, inputs

        if tracer is None:
            setups = [setup() for _ in range(SETUP_REPEATS)]
            inputs = setups[-1][1]
            setup_s = import_s + statistics.median(s for s, _ in setups)
        else:
            tracer.install()
            tracer.active = True
            setup_s, inputs = setup()
            tracer.active = False
            warm = tracing.aggregate(tracer.spans)
            cold = warm.get("cumulants.free_multiplicative_moments")
            cold_s = cold.total_ns / 1e9 if cold else 0.0
            tracer.uninstall()
        ops = wl.ops(inputs)

        if tracer is None:
            batches = run_batches(ops, args.seconds, lambda: Batch(ops))
            measured = batches
        else:
            batches, traced, layer, cpu = [], [], [], []

            def pair():
                c0, w0 = os.times(), time.perf_counter()
                plain = Batch(ops)
                c1, w1 = os.times(), time.perf_counter()
                cpu.append((c1.user + c1.system + c1.children_user
                            + c1.children_system - c0.user - c0.system
                            - c0.children_user - c0.children_system)
                           / (w1 - w0))
                tracer.reset()
                tracer.install()
                try:
                    b = Batch(ops, tracer)
                finally:
                    tracer.uninstall()
                layer.append(layer_metrics(tracing.aggregate(tracer.spans),
                                           tracer.counts, b.counts))
                batches.append(plain)
                traced.append(b)

            run_batches(ops, args.seconds, pair)
            measured = batches + traced
            spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}.json")
            with open(spans_path, "w") as fh:
                json.dump({"names": sorted({s[0] for s in tracer.spans}),
                           "fields": ["name", "start_ns", "end_ns", "parent",
                                      "op"],
                           "spans": tracer.spans}, fh)

    first = measured[0]
    failures = [f for b in measured for f in b.failures]
    for i, b in enumerate(measured[1:], 1):
        differ = sorted(k for k in set(b.counts) | set(first.counts)
                        if b.counts.get(k) != first.counts.get(k))
        differ += sorted(k for k in set(b.digests) | set(first.digests)
                         if b.digests.get(k) != first.digests.get(k))
        if differ:
            failures.append(f"batch {i} differs from batch 0 in {differ}")
    attempted = sum(b.attempted for b in measured)
    failed = min(len(failures), attempted)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (batch_wall_s(batches), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = {name: (statistics.median(m[name][0] for m in layer), unit)
                   for name, (_, unit) in layer[0].items()}
        metrics["cumulants.free_multiplicative_moments.cold_s"] = (cold_s, "s")
        metrics["process.cpu_per_wall"] = (statistics.median(cpu), "ratio")
        plain_s = batch_wall_s(batches)
        traced_s = batch_wall_s(traced)
        metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s,
                                          "ratio")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "batches": len(measured), "ops_per_batch": first.attempted,
        "batch_wall_s": [b.wall_s for b in measured],
        "machine": machine_facts(nproc),
        "counts": first.counts, "digests": first.digests,
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    with open(os.path.join(
            RUN_DIR, f"report-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for f in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {f}", file=sys.stderr)
    shown = dict(metrics, fail_frac=(failed / attempted, "1"))
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
