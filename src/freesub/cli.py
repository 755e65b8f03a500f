"""Batch command line: convolutions, transform evaluation, verification.

Subcommands: convolve-add | convolve-mult | eval | verify.  Structured
inputs (measures, covariance maps, matrices) come from a JSON config
file; flags cover scalars only.  Unknown config fields are rejected.
Artifacts are written atomically (temp file + rename) and contain no
timestamps, so identical config + seed reproduce them byte for byte;
wall-clock metadata goes to a separate meta.json sidecar.

Exit codes: 0 pass, 1 residual/verdict failure, 2 config error,
3 numerical non-convergence.
"""

import argparse
import inspect
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import measures as _measures
from .additive import continued_density, subordination_pairs
from .errors import BadParams, FreesubError, NoConvergence, int_in_range, \
    real_above
from .matrixmodels import (experiment_lemma34, experiment_prop32,
                           experiment_prop33, experiment_thm31_block,
                           experiment_thm36)
from .multiplicative import free_mult_convolve_unitary
from .opvalued import CovarianceMap
from .transforms import (cauchy_transform, circle_cauchy, eta_transform,
                         h_transform, psi_transform, reciprocal_cauchy)

OUT_DIR_ENV = "FREESUB_OUT_DIR"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3

# the experiments' cap on N, checked before a default N x N matrix is built
_MAX_N = 4096
# the heights convolve-add solves its density at unless the config sets them
_DEFAULT_ETAS = inspect.signature(continued_density).parameters[
    "eta_sequence"].default


def _fmt(x):
    return format(float(x), ".17g")


def _write_atomic(path, text):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(path, obj):
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_rows(out, name, fmt, rows, payload=None):
    """A table of dict rows as ``name``.csv, or ``payload`` (the rows
    themselves by default) as ``name``.json.  In the CSV an [re, im]
    field is two columns, _re and _im; a float is written by _fmt and an
    int by str."""
    if fmt != "csv":
        _dump_json(os.path.join(out, name + ".json"),
                   rows if payload is None else payload)
        return

    def cells(row):  # (column, value) pairs
        for k, v in row.items():
            yield from zip((k + "_re", k + "_im"), v) if isinstance(v, list) \
                else [(k, v)]

    lines = [",".join(c for c, _ in cells(rows[0]))]
    lines += [",".join(str(x) if isinstance(x, int) else _fmt(x)
                       for _, x in cells(r)) for r in rows]
    _write_atomic(os.path.join(out, name + ".csv"), "\n".join(lines) + "\n")


def _load_config(args):
    """The config file's fields; a set flag that names a config field is
    one more field, checked against the same keys."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadParams(f"cannot read config: {exc}") from None
        if not isinstance(cfg, dict):
            raise BadParams("config must be a JSON object")
    for key in ("tol", "seed", "N", "trials", "samples"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _check_keys(cfg, allowed, command):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise BadParams(f"unknown config fields for {command}: {unknown}")
    if cfg.get("command") not in (None, command):
        raise BadParams(f"config command {cfg['command']!r} != {command!r}")


def _parse_measure(spec, kind=None):
    """Measure from a family spec, an inline dict, or a file path."""
    if isinstance(spec, str):
        try:
            with open(spec) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadParams(f"cannot read measure file: {exc}") from None
    if not isinstance(spec, dict):
        raise BadParams("measure spec must be an object or a file path")
    if "family" not in spec and "type" not in spec:
        raise BadParams("measure spec needs a 'family' (standard family)"
                        " or a 'type' (serialized measure)")
    if "family" in spec:
        extra = set(spec) - {"family", "params", "n"}
        if extra:
            raise BadParams(f"unknown measure fields: {sorted(extra)}")
        kwargs = {"n": spec["n"]} if "n" in spec else {}
        params = spec.get("params", [])
        if spec["family"] in ("atomic", "circle_atoms"):
            params = [[tuple(p) for p in params]]
        m = _measures.make_standard(spec["family"], *params, **kwargs)
    else:
        m = _measures.from_json(json.dumps(spec))
    if kind is not None and not isinstance(m, kind):
        raise BadParams(f"expected a {kind.__name__}")
    return m


def _parse_grid(text):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise BadParams(f"bad --grid {text!r}; expected lo:hi:n") from None
    lo = real_above("grid lo", lo)
    return np.linspace(lo, real_above("grid hi", hi, lo),
                       int_in_range("grid n", n, 2))


def _parse_im(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise BadParams(f"bad --im {text!r}; expected a,b,c") from None


def _parse_points(value):
    if not isinstance(value, list) or not value or not all(
            isinstance(p, list) and len(p) == 2 for p in value):
        raise BadParams("'points' must be a nonempty list of [re, im] pairs")
    return [complex(p[0], p[1]) for p in value]


def _parse_matrix(rows):
    """Rows of numbers and [re, im] pairs; the library checks the rest."""
    try:
        return np.array([[complex(*v) if isinstance(v, list) and len(v) == 2
                          else v for v in row] for row in rows])
    except (TypeError, ValueError):
        raise BadParams("bad matrix literal") from None


def _out_dir(args):
    d = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write_meta(out, command):
    _dump_json(os.path.join(out, "meta.json"),
               {"command": command, "written_unix": time.time()})


# ---------------------------------------------------------------------------
# convolve-add
# ---------------------------------------------------------------------------

def cmd_convolve_add(args):
    cfg = _load_config(args)
    _check_keys(cfg, {"command", "mu", "nu", "eta_sequence", "tol", "max_iter"},
                "convolve-add")
    if "mu" not in cfg or "nu" not in cfg:
        raise BadParams("convolve-add needs measures 'mu' and 'nu'")
    mu = _parse_measure(cfg["mu"], _measures.LineMeasure)
    nu = _parse_measure(cfg["nu"], _measures.LineMeasure)
    # tol is this command's residual gate as well as the solver tolerance;
    # the library holds the other defaults and checks every value set
    tol = cfg.get("tol", 1e-12)
    cap = {k: cfg[k] for k in ("max_iter",) if k in cfg}
    etas = cfg.get("eta_sequence", _DEFAULT_ETAS)
    im_parts = _parse_im(args.im) if args.im is not None else [0.5, 1.0, 2.0]
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        table_re = grid
    else:
        lo = mu.support()[0] + nu.support()[0] - 0.5
        hi = mu.support()[1] + nu.support()[1] + 0.5
        grid = np.linspace(lo, hi, 801)
        table_re = np.linspace(lo, hi, 33)

    # the table's points, height by height, solved as one batch
    z = np.empty((len(im_parts), table_re.size), dtype=complex)
    z.real = table_re
    z.imag = np.array([real_above("--im value", im, 0.0)
                       for im in im_parts])[:, None]
    rows = [{
        "z": [ev.z.real, ev.z.imag],
        "omega1": [ev.omega1.real, ev.omega1.imag],
        "omega2": [ev.omega2.real, ev.omega2.imag],
        "g": [ev.g_conv.real, ev.g_conv.imag],
        "residual": ev.residual,
        "iterations": ev.iterations,
    } for ev in subordination_pairs(mu, nu, z, tol=tol, **cap)]
    worst = max(r["residual"] for r in rows)
    dens, renorm = continued_density(mu, nu, grid, etas, tol=tol, **cap)
    out = _out_dir(args)
    _dump_json(os.path.join(out, "measure.json"), dens.to_dict())
    _write_rows(out, "subordination", args.format, rows)
    summary = {
        "command": "convolve-add",
        "support_estimate": list(dens.support()),
        "renorm": renorm,
        "max_residual": worst,
        "tol": tol,
        "eta_sequence": list(etas),
        "points": len(rows),
        "pass": worst <= tol,
    }
    _dump_json(os.path.join(out, "summary.json"), summary)
    _write_meta(out, "convolve-add")
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# convolve-mult
# ---------------------------------------------------------------------------

def cmd_convolve_mult(args):
    cfg = _load_config(args)
    _check_keys(cfg, {"command", "mu", "nu", "order", "tol"}, "convolve-mult")
    if "mu" not in cfg or "nu" not in cfg:
        raise BadParams("convolve-mult needs measures 'mu' and 'nu'")
    mu = _parse_measure(cfg["mu"], _measures.CircleMeasure)
    nu = _parse_measure(cfg["nu"], _measures.CircleMeasure)
    order = cfg.get("order", 8)
    tol = real_above("tol", cfg.get("tol", 1e-8), 0.0)  # this command's gate
    result = free_mult_convolve_unitary(mu, nu, order=order)
    worst = max(max(result.certificates), result.fixed_point_residual)
    out = _out_dir(args)
    _dump_json(os.path.join(out, "moments.json"), {
        "moments": [[m.real, m.imag] for m in result.moments],
        "certificates": list(result.certificates),
        "fixed_point_residual": result.fixed_point_residual,
    })
    _dump_json(os.path.join(out, "measure.json"), result.measure().to_dict())
    summary = {
        "command": "convolve-mult",
        "order": order,
        "max_residual": worst,
        "tol": tol,
        "pass": worst <= tol,
    }
    _dump_json(os.path.join(out, "summary.json"), summary)
    _write_meta(out, "convolve-mult")
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_LINE_TRANSFORMS = {
    "cauchy": cauchy_transform,
    "f": reciprocal_cauchy,
    "h": h_transform,
}
_CIRCLE_TRANSFORMS = {
    "circle-cauchy": circle_cauchy,
    "psi": psi_transform,
    "eta": eta_transform,
}


def cmd_eval(args):
    cfg = _load_config(args)
    _check_keys(cfg, {"command", "measure", "points"}, "eval")
    if "measure" not in cfg:
        raise BadParams("eval needs a 'measure'")
    name = args.transform
    on_line = name in _LINE_TRANSFORMS
    if not on_line and name not in _CIRCLE_TRANSFORMS:
        raise BadParams(f"unknown transform {name!r}")
    kind = _measures.LineMeasure if on_line else _measures.CircleMeasure
    measure = _parse_measure(cfg["measure"], kind)
    if "points" in cfg:
        if args.grid is not None or args.im is not None:
            raise BadParams("'points' replaces --grid and --im; give one")
        pts = _parse_points(cfg["points"])
    else:
        grid = np.linspace(-2, 2, 9) if args.grid is None else _parse_grid(args.grid)
        ims = _parse_im(args.im) if args.im is not None else [1.0]
        pts = [complex(re, im) for im in ims for re in grid]
    if on_line and any(p.imag <= 0 for p in pts):
        raise BadParams("line transforms need Im z > 0")
    if not on_line and any(abs(abs(p) - 1.0) < 1e-12 for p in pts):
        raise BadParams("circle transforms are undefined on |z| = 1")
    fn = _LINE_TRANSFORMS.get(name) or _CIRCLE_TRANSFORMS[name]
    # one call for all points: a node sum does not depend on its batch
    values = fn(measure, np.array(pts, dtype=complex))
    rows = []
    for p, v in zip(pts, values.tolist()):
        margin = p.imag if on_line else 1.0 - abs(p)
        rows.append({"point": [p.real, p.imag], "value": [v.real, v.imag],
                     "margin": margin})
    out = _out_dir(args)
    _write_rows(out, "eval", args.format, rows, {"transform": name, "rows": rows})
    _write_meta(out, "eval")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _balanced_pm1(N):
    v = np.ones(N)
    v[N // 2:] = -1.0
    return v


def _run_verify(identity, cfg):
    # the experiments hold their own defaults and check what is set
    kw = {k: cfg[k] for k in ("seed", "N", "trials", "samples", "eps", "dims")
          if k in cfg}
    if identity in ("prop32", "prop33"):
        # both take N from their spectra; N sizes only the default ones
        spectra = {"lam"} if identity == "prop32" else {"A0", "C0"}
        if "N" in kw and spectra <= cfg.keys():
            raise BadParams(f"N is the size of {sorted(spectra)}; do not set it")
        N = int_in_range("N", kw.pop("N", 600), 1, _MAX_N)
    if identity == "prop32":
        lam = np.asarray(cfg["lam"], float) if "lam" in cfg else _balanced_pm1(N)
        a0 = _parse_matrix(cfg["a0"]) if "a0" in cfg else \
            np.diag(_balanced_pm1(int_in_range("N", lam.size, 1, _MAX_N)))
        return experiment_prop32(lam, a0, **kw)
    if identity == "prop33":
        # the off-diagonal noise in D grows with the spread of C0's
        # spectrum: diag(+-1) misses the 0.05 gate at N = 600 and trials
        # = 200, where criterion 7's linspace(0.5, 1.5) passes
        A0 = _parse_matrix(cfg["A0"]) if "A0" in cfg else \
            np.diag(_balanced_pm1(N))
        C0 = _parse_matrix(cfg["C0"]) if "C0" in cfg else \
            np.diag(np.linspace(0.5, 1.5, N))
        return experiment_prop33(A0, C0, **kw)
    if identity == "thm36":
        law = _parse_measure(cfg["theta_law"], _measures.CircleMeasure) \
            if "theta_law" in cfg else _measures.haar_circle()
        c0 = _parse_matrix(cfg["c0"]) if "c0" in cfg else None
        return experiment_thm36(law, c0, **kw)
    if identity == "thm31_block":
        ex = CovarianceMap.from_dict(cfg["eta_x"]) if "eta_x" in cfg else \
            CovarianceMap((np.array([[0.9, 0.3], [0.0, 0.6]]),))
        ey = CovarianceMap.from_dict(cfg["eta_y"]) if "eta_y" in cfg else \
            CovarianceMap((np.array([[0.5, -0.2], [0.1, 0.7]]),))
        b = _parse_matrix(cfg["b"]) if "b" in cfg else 1j * np.eye(ex.n)
        return experiment_thm31_block(ex, ey, b, **kw)
    return experiment_lemma34(**kw)


_VERIFY_KEYS = {
    "prop32": {"command", "seed", "N", "trials", "eps", "lam", "a0"},
    "prop33": {"command", "seed", "N", "trials", "eps", "A0", "C0"},
    "thm36": {"command", "seed", "N", "trials", "theta_law", "c0"},
    "thm31_block": {"command", "seed", "N", "trials", "eta_x", "eta_y", "b"},
    "lemma34": {"command", "seed", "samples", "dims"},
}


def cmd_verify(args):
    identity = args.identity
    cfg = _load_config(args)
    _check_keys(cfg, _VERIFY_KEYS[identity], "verify")
    try:
        report = _run_verify(identity, cfg)
    except KeyError as exc:
        raise BadParams(f"missing config field {exc}") from None
    out = _out_dir(args)
    _dump_json(os.path.join(out, "report.json"), report.to_dict())
    _write_atomic(os.path.join(out, "report.csv"),
                  report.csv_header() + "\n" + report.csv_row() + "\n")
    _write_meta(out, "verify")
    print(f"{identity}: {report.verdict}")
    for k in sorted(report.residuals):
        print(f"  residual {k} = {report.residuals[k]:.6g}"
              f" (tol {report.tolerances[k]:g})")
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLAGS = {
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--tol": {"type": float},
    "--grid": {"help": "lo:hi:n"},
    "--im": {"help": "comma separated positive imaginary parts"},
    "--seed": {"type": int},
    "--N": {"type": int},
    "--trials": {"type": int},
    "--samples": {"type": int},
}


def _add_args(p, *flags):
    """--config and --out, plus the flags this subcommand reads."""
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="freesub",
        description="free convolution, subordination and verification runs")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("convolve-add", help="free additive convolution")
    _add_args(p, "--format", "--tol", "--grid", "--im")
    p.set_defaults(fn=cmd_convolve_add)
    p = sub.add_parser("convolve-mult",
                       help="free multiplicative convolution on the circle")
    _add_args(p, "--tol")
    p.set_defaults(fn=cmd_convolve_mult)
    p = sub.add_parser("eval", help="pointwise transform evaluation")
    p.add_argument("transform",
                   choices=sorted(_LINE_TRANSFORMS) + sorted(_CIRCLE_TRANSFORMS))
    _add_args(p, "--format", "--grid", "--im")
    p.set_defaults(fn=cmd_eval)
    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("identity",
                   choices=tuple(_VERIFY_KEYS))
    _add_args(p, "--seed", "--N", "--trials", "--samples")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError) as exc:
        # a rejected argument raises BadParams, a ValueError; parsing a
        # malformed matrix, list or measure spec raises either
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        point = f" at {exc.point}" if getattr(exc, "point", None) is not None else ""
        print(f"non-convergence{point}: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except FreesubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
