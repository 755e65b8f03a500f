"""Span tracing of freesub's public entry points, from outside the package.

The package itself carries no instrumentation.  ``Tracer.install``
replaces each target function with a timing wrapper in every namespace
its callers look it up in: the defining module and every ``freesub``
module that imported the name (the benchmark calls through them).  So
``freesub.additive.cauchy_transform``, ``freesub.cauchy_transform`` and
``freesub.transforms.cauchy_transform`` all reach the same wrapper.
NumPy's ``qr`` and ``inv`` are wrapped on ``numpy.linalg``, which is
where freesub looks them up.  ``uninstall`` puts the originals back.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, op)``
tuples, where ``parent`` indexes the enclosing span (-1 at the top)
and ``op`` is the benchmark operation the span belongs to.  Self time
is a span's duration minus the durations of its direct children.

Targets missing from the package (renamed or removed by a later
version) are skipped; their metrics then read 0.
"""

import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``points`` names the argument whose size is counted as evaluation
    points, as ``(keyword, position)``.  ``iterations`` adds up the
    ``iterations`` field of each result.  ``callback`` names the
    argument that is a caller-supplied function whose calls are counted.
    """

    label: str
    module: str
    attr: str
    points: tuple = None
    iterations: bool = False
    callback: tuple = None


TARGETS = (
    Target("transforms.cauchy_transform", "freesub.transforms",
           "cauchy_transform", points=("z", 1)),
    Target("transforms.stieltjes_invert", "freesub.transforms",
           "stieltjes_invert"),
    Target("transforms.circle_cauchy", "freesub.transforms", "circle_cauchy",
           points=("g", 1)),
    Target("additive.convolve_cauchy", "freesub.additive", "convolve_cauchy",
           points=("z", 2)),
    Target("additive.free_add_convolve", "freesub.additive",
           "free_add_convolve"),
    Target("additive.subordination_pair", "freesub.additive",
           "subordination_pair", iterations=True),
    Target("opvalued.solve_subordination_F", "freesub.opvalued",
           "solve_subordination_F", callback=("g_x_eval", 0)),
    Target("opvalued.op_semicircular_cauchy", "freesub.opvalued",
           "op_semicircular_cauchy", iterations=True),
    Target("opvalued.CovarianceMap.call", "freesub.opvalued",
           "CovarianceMap.__call__"),
    Target("multiplicative.free_mult_convolve_unitary",
           "freesub.multiplicative", "free_mult_convolve_unitary"),
    Target("multiplicative.disk_subordination_solve",
           "freesub.multiplicative", "disk_subordination_solve"),
    Target("cumulants.free_multiplicative_moments", "freesub.cumulants",
           "free_multiplicative_moments"),
    Target("cli.main", "freesub.cli", "main"),
    Target("matrixmodels.experiment_thm36", "freesub.matrixmodels",
           "experiment_thm36"),
    Target("matrixmodels.experiment_prop33", "freesub.matrixmodels",
           "experiment_prop33"),
    Target("matrixmodels.experiment_thm31_block", "freesub.matrixmodels",
           "experiment_thm31_block"),
    Target("matrixmodels.experiment_lemma34", "freesub.matrixmodels",
           "experiment_lemma34"),
    Target("matrixmodels.partial_trace", "freesub.matrixmodels",
           "partial_trace"),
    Target("matrixmodels.sample_angles", "freesub.matrixmodels",
           "sample_angles"),
    Target("linalg.qr", "numpy.linalg", "qr"),
    Target("linalg.inv", "numpy.linalg", "inv"),
    Target("domains.relative_contraction_margin", "freesub.domains",
           "relative_contraction_margin"),
    Target("domains.contraction_margins", "freesub.domains",
           "contraction_margins"),
)


def _arg(args, kwargs, spec):
    name, pos = spec
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


class Tracer:
    """Records spans and counts while ``active``; otherwise passes through."""

    def __init__(self):
        self.active = False
        self.op = -1
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    # -- patching ----------------------------------------------------------

    def install(self):
        for t in TARGETS:
            try:
                home = importlib.import_module(t.module)
            except ImportError:
                continue
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:  # a method: patch the class attribute
                owner = getattr(home, owner_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                self._patch(owner, attr, fn, self._wrap(t, fn))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(t, fn)
            for mod in self._namespaces(home):
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, fn, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches = []

    def _patch(self, owner, name, fn, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, fn))

    @staticmethod
    def _namespaces(home):
        mods = [home]
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is home:
                continue
            if name == "freesub" or name.startswith("freesub."):
                mods.append(mod)
        return mods

    def _wrap(self, t, fn):
        tracer = self
        label = t.label

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if t.callback is not None:
                args, kwargs = tracer._count_callback(t, args, kwargs)
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (label, start, end, parent, tracer.op)
            if t.points is not None:
                tracer._add(label + ".points",
                            int(np.size(_arg(args, kwargs, t.points))))
            if t.iterations:
                tracer._add(label + ".iterations", int(result.iterations))
            return result

        return wrapper

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_callback(self, t, args, kwargs):
        name, pos = t.callback
        key = t.label + ".callback_calls"
        inner = _arg(args, kwargs, t.callback)

        def counted(*a, **k):
            self._add(key, 1)
            return inner(*a, **k)

        if name in kwargs:
            kwargs = dict(kwargs, **{name: counted})
        else:
            args = args[:pos] + (counted,) + args[pos + 1:]
        return args, kwargs


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)


def self_times(spans):
    """Self time of each span in ns: duration minus its children's."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def aggregate(spans):
    """Per-name calls, inclusive and self time, and inclusive durations."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        a = out.setdefault(name, Aggregate())
        a.calls += 1
        a.total_ns += end - start
        a.self_ns += own
        a.durations_ns.append(end - start)
    return out


def nesting_errors(spans):
    """Spans that start before or end after their parent, or run backwards."""
    bad = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            bad.append((i, name, "ends before it starts"))
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if parent >= i or start < p_start or end > p_end:
                bad.append((i, name, "outside its parent"))
    return bad


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
