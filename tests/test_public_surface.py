"""The public surface: every exported name is reached, every defaulted
parameter is set by some caller, only public names are imported from
outside the package, and the package raises only its own errors."""

import ast
import builtins
import importlib
import inspect
import pathlib

import freesub

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
    "stieltjes_invert(neg_tol)":
        "unit tests loosen the negativity floor for 2048-node measures",
    "experiment_prop32(phase_rotations)":
        "unit tests compare rotation counts on the same draws",
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
    methods of exported classes; skip drops self or cls."""
    for name in freesub.__all__:
        obj = getattr(freesub, name)
        if inspect.isfunction(obj):
            yield name, obj, 0
        elif isinstance(obj, type) and not issubclass(obj, Exception):
            for attr, member in vars(obj).items():
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
