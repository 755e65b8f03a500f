"""The public surface: every exported name is reached, every defaulted
parameter is set by some caller, every numeric parameter rejects a bad
value with BadParams, only public names are imported from outside the
package, and the package raises only its own errors."""

import ast
import builtins
import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import freesub
from freesub import BadParams, domains, matrixmodels

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src/freesub"
# the CLI, the acceptance gate and the demos use the public surface
PUBLIC_USERS = [PACKAGE / "cli.py", ROOT / "tests/test_acceptance.py",
                *sorted((ROOT / "demos").glob("*.py"))]
# a public name is reached from one of these, outside its own module
REACHING = sorted({*PUBLIC_USERS, *PACKAGE.glob("*.py"),
                   *(ROOT / "perfbench").glob("*.py")} - {PACKAGE / "__init__.py"})
# defaulted parameters that no call in REACHING sets, and why they stay
UNSET_PARAMETERS = {
    "arcsine(scale)": "the CLI's measure 'params' reach it via make_standard",
    "experiment_lemma34(dims)": "the verify config key 'dims' reaches it via **kw",
}
# raises of a class from outside freesub, and why they stay
FOREIGN_RAISES = {
    ("matrixmodels.py", "np.linalg.LinAlgError"):
        "_haar and _inv fail as numpy.linalg.inv does",
}


def _from_freesub(node):
    return node.level or node.module.partition(".")[0] == "freesub"


def _references(tree):
    """Bare names, names imported from freesub, and attributes read off a
    freesub module alias (``fs.semicircle``, ``_measures.LineMeasure``)."""
    aliases, refs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name).partition(".")[0]
                           for a in node.names
                           if a.name.partition(".")[0] == "freesub")
        elif isinstance(node, ast.ImportFrom) and _from_freesub(node):
            for a in node.names:
                refs.add(a.name)
                if (PACKAGE / f"{a.name}.py").exists():
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                refs.update(chain)
    return refs


def _exempt():
    """Error classes and the classes public functions return."""
    out = set()
    for name in freesub.__all__:
        obj = getattr(freesub, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            out.add(name)
        elif inspect.isfunction(obj):
            ret = inspect.signature(obj).return_annotation
            if isinstance(ret, type) and ret.__module__.startswith("freesub"):
                out.add(ret.__name__)
    return out


def _home(obj):
    return PACKAGE / (obj.__module__.split(".")[-1] + ".py")


def test_every_public_name_is_reached():
    refs = {path: _references(ast.parse(path.read_text())) for path in REACHING}
    exempt = _exempt()
    unreached = []
    for name in freesub.__all__:
        home = _home(getattr(freesub, name))
        if name not in exempt and not any(
                name in found for path, found in refs.items() if path != home):
            unreached.append(name)
    assert not unreached, f"public but reached by nothing: {unreached}"


def _public_callables():
    """(label, function, skip) for exported functions and the public
    methods of exported classes, inherited ones included; skip drops
    self or cls."""
    for name in freesub.__all__:
        obj = getattr(freesub, name)
        if inspect.isfunction(obj):
            yield name, obj, 0
        elif isinstance(obj, type) and not issubclass(obj, Exception):
            members = {attr: member for klass in reversed(obj.__mro__[:-1])
                       for attr, member in vars(klass).items()}
            for attr, member in members.items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn, 1


def _calls(path):
    """(function name, positional count, keyword names) of each call."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            fn = node.func
            name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (name, float("inf") if starred else len(node.args),
                   {k.arg for k in node.keywords})


def test_every_parameter_is_set():
    # a defaulted parameter is set when a call outside its own module
    # passes it by keyword or by position
    calls = {path: list(_calls(path)) for path in REACHING}
    unset = []
    for label, fn, skip in _public_callables():
        params = list(inspect.signature(fn).parameters.values())[skip:]
        for pos, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(name == fn.__name__ and (npos > pos or param.name in kws)
                       for path, found in calls.items() if path != _home(fn)
                       for name, npos, kws in found):
                unset.append(f"{label}({param.name})")
    assert set(unset) == set(UNSET_PARAMETERS), (
        f"set by no caller: {sorted(set(unset) - set(UNSET_PARAMETERS))}; "
        f"stale exemptions: {sorted(set(UNSET_PARAMETERS) - set(unset))}")


def _eta2():
    return freesub.CovarianceMap((np.array([[1.0, 0.2], [0.0, 0.8]]),))


# a valid value for each class-annotated parameter and each method's owner
INSTANCES = {
    freesub.LineMeasure: freesub.bernoulli_pm1,
    freesub.CircleMeasure: lambda: freesub.circle_atoms([(0.0, 0.6), (1.0, 0.4)]),
    freesub.CovarianceMap: _eta2,
    freesub.MultConvolution: lambda: freesub.MultConvolution(
        moments=(0.1,), certificates=(0.0,), fixed_point_residual=0.0),
}
# a valid value for each other required parameter of a numeric probe
REQUIRED = {
    "lam_diag": [1.0, -1.0], "a0": np.eye(2), "A0": np.eye(2),
    "C0": np.eye(2), "b": 1j * np.eye(2), "b_start": 1j * np.eye(2),
    "g_target": -1j * np.eye(2),
    "g_x_eval": lambda w: freesub.op_semicircular_cauchy(_eta2(), w).g,
    "g_eval": lambda z: -1j * np.ones_like(z), "grid": np.linspace(-1, 1, 9),
    "eta_sequence": (1e-2,),
    "z": 1j, "m": [1, 0, 1, 0, 2], "moments_a": [0, 1, 0],
    "moments_b": [0, 1, 0], "moments": [0.1, 0.0],
}


def _numeric_kind(param):
    """int or float for a parameter annotated or defaulted as one."""
    for kind in (int, float):
        if param.annotation is kind or type(param.default) is kind:
            return kind
    return None


def _numeric_probes():
    """(label, bound callable, base keywords, parameter, kind) for every
    int or float parameter of the public surface."""
    for label, fn, skip in _public_callables():
        params = list(inspect.signature(fn).parameters.values())[skip:]
        numeric = [p for p in params if _numeric_kind(p)]
        if not numeric:
            continue
        owner = getattr(freesub, label.partition(".")[0])
        call = getattr(INSTANCES[owner](), fn.__name__) if skip else fn
        base = {}
        for p in params:
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) or p in numeric:
                continue
            if p.annotation in INSTANCES:
                base[p.name] = INSTANCES[p.annotation]()
            elif p.default is inspect.Parameter.empty:
                base[p.name] = REQUIRED[p.name]
        for p in numeric:
            yield label, call, base, p, _numeric_kind(p)


def test_numeric_parameters_reject_bad_values():
    # a float where an int is due, a string, a bool, NaN or a value beyond
    # every range raises BadParams naming the parameter
    probes = list(_numeric_probes())
    found = {f"{label}({param.name})" for label, _, _, param, _ in probes}
    assert {"LineMeasure.moment(k)", "rotate(phi)", "convolve_moments(order)",
            "free_mult_convolve_unitary(order)", "MultConvolution.measure(n)",
            "experiment_prop33(seed)"} <= found
    accepted = []
    for label, call, base, param, kind in probes:
        bad = [2.5, "3", True, math.nan] if kind is int else \
            ["3", True, math.nan, math.inf, -math.inf]
        if kind is int:
            bad.append(-10**30)
        for value in bad:
            try:
                call(**base, **{param.name: value})
            except BadParams as exc:
                if re.search(rf"\b{param.name}\b", str(exc)):
                    continue
            except Exception:  # listed below with the accepted values
                pass
            accepted.append(f"{label}({param.name}={value!r})")
    assert not accepted, f"not rejected with BadParams: {accepted}"


def _no_solve(w):
    raise AssertionError("solved before checking its matrices")


# every public function that takes a matrix, as (label, argument name,
# the name a wrong size is reported under, call with that argument
# replaced); the covariance maps and the other arguments are valid, 2 x 2
MATRIX_ARGUMENTS = [
    ("CovarianceMap", "kraus", "kraus",
     lambda m: freesub.CovarianceMap((np.eye(2), m))),
    ("CovarianceMap.__call__", "b", "b", lambda m: _eta2()(m)),
    ("op_semicircular_cauchy", "b", "b",
     lambda m: freesub.op_semicircular_cauchy(_eta2(), m)),
    ("op_add_cauchy", "b", "b",
     lambda m: freesub.op_add_cauchy(_eta2(), _eta2(), m)),
    ("semicircular_shift_F", "g_xy", "g_xy",
     lambda m: freesub.semicircular_shift_F(_eta2(), m, 1j * np.eye(2))),
    ("semicircular_shift_F", "b", "b",
     lambda m: freesub.semicircular_shift_F(_eta2(), -1j * np.eye(2), m)),
    ("solve_subordination_F", "g_target", "b_start",
     lambda m: freesub.solve_subordination_F(_no_solve, m, 1j * np.eye(2))),
    ("solve_subordination_F", "b_start", "b_start",
     lambda m: freesub.solve_subordination_F(_no_solve, -1j * np.eye(2), m)),
    ("experiment_prop32", "a0", "a0",
     lambda m: freesub.experiment_prop32([1.0, -1.0], m)),
    ("experiment_prop33", "A0", "C0",
     lambda m: freesub.experiment_prop33(m, np.eye(2))),
    ("experiment_prop33", "C0", "C0",
     lambda m: freesub.experiment_prop33(np.eye(2), m)),
    ("experiment_thm36", "c0", "c0",
     lambda m: freesub.experiment_thm36(freesub.haar_circle(), m, N=2)),
    ("experiment_thm31_block", "b", "b",
     lambda m: freesub.experiment_thm31_block(_eta2(), _eta2(), m, N=2)),
    ("partial_trace", "Z", "Z", lambda m: matrixmodels.partial_trace(m, 1, 2)),
]
# the domains margins take any size, so their last bad value is not square
MARGINS = [(fn.__name__, name, name, fn) for name, fn in [
    ("t", freesub.halfplane_margin), ("x", freesub.contraction_margins),
    ("x", freesub.resolvent_identity_residual), ("t", domains.operator_norm),
    ("t", domains.im_part)]]


def _bad_matrices(last):
    nan, inf = np.eye(2, dtype=complex), np.eye(2)
    nan[0, 1] = complex(0.0, np.nan)
    inf[1, 1] = -np.inf
    return [nan, inf, "ab", [["1", "2"], ["3", "4"]], [[1.0, 2.0], [3.0]], last]


@pytest.mark.parametrize("name, size_name, call, last", [
    pytest.param(*case[1:], last, id=f"{case[0]}({case[1]})")
    for cases, last in ((MATRIX_ARGUMENTS, np.eye(3)), (MARGINS, np.ones((2, 3))))
    for case in cases])
def test_matrix_arguments_reject_bad_values(monkeypatch, name, size_name,
                                            call, last):
    # NaN and infinite entries, strings, a ragged list and a wrong size
    # raise BadParams naming the argument, before any draw or solve; a
    # NaN once reached prop33's trials and thm36's SVD
    def no_draw(*args):
        raise AssertionError("drew before checking its matrices")
    monkeypatch.setattr("freesub.matrixmodels._rng", no_draw)
    for bad in _bad_matrices(last):
        blamed = size_name if bad is last else name
        with pytest.raises(BadParams, match=rf"\b{blamed}\b"):
            call(bad)


def test_no_private_freesub_imports():
    for path in PUBLIC_USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _from_freesub(node):
                assert not [a.name for a in node.names if a.name.startswith("_")], path


def _raised_class(node):
    """Dotted name of the class a raise statement names ("" for a bare
    raise or a re-raised variable)."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    parts = []
    while isinstance(exc, ast.Attribute):
        parts.append(exc.attr)
        exc = exc.value
    return ".".join([exc.id, *reversed(parts)]) if isinstance(exc, ast.Name) else ""


def _is_foreign(name):
    """A builtin exception class, or a class reached through another
    library's module (the package imports its own errors by name)."""
    obj = getattr(builtins, name, None)
    return "." in name or isinstance(obj, type) and issubclass(obj, BaseException)


def test_package_raises_only_freesub_errors():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _raised_class(node)
                if _is_foreign(name) and (path.name, name) not in FOREIGN_RAISES:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert not foreign, f"raises outside the freesub errors: {foreign}"


def test_perfbench_trace_targets_exist():
    # a renamed target would read 0 in its per-layer metric without a word
    tree = ast.parse((ROOT / "perfbench/tracing.py").read_text())
    targets = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "Target"]
    assert targets
    missing = []
    for call in targets:
        label, module, attr = (ast.literal_eval(a) for a in call.args[:3])
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(label)
    # removed with its only production caller; the tracer skips it
    assert missing == ["domains.relative_contraction_margin"]


def test_import_loads_only_scipy_linalg():
    # closed forms replace quadrature and a generic least-squares solver,
    # so importing the package loads scipy.linalg and none of the
    # subpackages those pulled in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, freesub; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "scipy.linalg" in out
    for sub in ("scipy.integrate", "scipy.optimize", "scipy.special"):
        assert sub not in out
