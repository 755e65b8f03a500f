"""The public surface: every exported name is reached, and only public
names are imported from outside the package."""

import ast
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


def test_every_public_name_is_reached():
    refs = {path: _references(ast.parse(path.read_text())) for path in REACHING}
    exempt = _exempt()
    unreached = []
    for name in freesub.__all__:
        home = PACKAGE / (getattr(freesub, name).__module__.split(".")[-1] + ".py")
        if name not in exempt and not any(
                name in found for path, found in refs.items() if path != home):
            unreached.append(name)
    assert not unreached, f"public but reached by nothing: {unreached}"


def test_no_private_freesub_imports():
    for path in PUBLIC_USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _from_freesub(node):
                assert not [a.name for a in node.names if a.name.startswith("_")], path


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
