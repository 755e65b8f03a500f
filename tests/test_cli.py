"""Command-line surface: configs, artifacts, exit codes, reproducibility."""

import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import freesub.cli
import freesub.measures
from freesub import (CovarianceMap, experiment_prop33, experiment_thm36,
                     haar_circle)
from freesub.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SC = {"family": "semicircle", "params": [0.0, 1.0]}
CIRCLE = {"family": "circle_atoms", "params": [[0.0, 0.6], [1.0, 0.4]]}


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_convolve_add_end_to_end(tmp_path):
    # at the library's tolerance the table is subordination_pair's,
    # bit for bit: JSON floats round-trip exactly
    cfg = write_cfg(tmp_path / "cfg.json", {"mu": SC, "nu": SC, "tol": 1e-13})
    code = main(["convolve-add", "--config", cfg, "--out", str(tmp_path),
                 "--grid=-3.5:3.5:201", "--im", "1,2,0.01"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["max_residual"] <= summary["tol"]
    assert summary["points"] == 3 * 201
    rows = json.loads((tmp_path / "subordination.json").read_text())
    assert len(rows) == summary["points"]
    assert all(r["residual"] <= summary["tol"] for r in rows)
    sc = freesub.measures.semicircle(0.0, 1.0)
    for r in rows:
        ev = freesub.subordination_pair(sc, sc, complex(*r["z"]))
        assert r == {"z": [ev.z.real, ev.z.imag],
                     "omega1": [ev.omega1.real, ev.omega1.imag],
                     "omega2": [ev.omega2.real, ev.omega2.imag],
                     "g": [ev.g_conv.real, ev.g_conv.imag],
                     "residual": ev.residual, "iterations": ev.iterations}
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["command"] == "convolve-add"

    # recovered density close to the semicircle of variance 2 in the bulk
    m = freesub.measures.from_json((tmp_path / "measure.json").read_text())
    t = m.grid.points()
    target = np.sqrt(np.clip(8 - t * t, 0, None)) / (4 * np.pi)
    inner = np.abs(t) <= 2.5
    assert np.max(np.abs(m.density - target)[inner]) <= 5e-3


def test_convolve_add_outputs_reproduce_bytewise(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"mu": SC, "nu": {"family": "bernoulli_pm1"}})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["convolve-add", "--config", cfg, "--out", str(d),
                     "--grid=-3:3:101", "--im", "1"]) == 0
    for name in ("measure.json", "subordination.json", "summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_convolve_add_two_atoms_concentrates(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "mu": {"family": "atomic", "params": [[1.0, 1.0]]},
        "nu": {"family": "atomic", "params": [[2.0, 1.0]]},
    })
    assert main(["convolve-add", "--config", cfg, "--out", str(tmp_path)]) == 0
    m = freesub.measures.from_json((tmp_path / "measure.json").read_text())
    t = m.grid.points()
    w = m.grid.trapezoid_weights()
    assert np.sum((m.density * w)[np.abs(t - 3) <= 0.4]) >= 0.9


def test_convolve_add_csv_format(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"mu": SC, "nu": SC})
    assert main(["convolve-add", "--config", cfg, "--out", str(tmp_path),
                 "--grid=-3:3:41", "--im", "1", "--format", "csv"]) == 0
    lines = (tmp_path / "subordination.csv").read_text().splitlines()
    assert lines[0].startswith("z_re,z_im,omega1_re")
    assert len(lines) == 42
    # 17 significant digits round-trip through repr
    cell = lines[1].split(",")[6]
    assert float(cell) == float(format(float(cell), ".17g"))


@pytest.mark.parametrize("command, extra", [
    ("convolve-mult", {"order": 40}),
    ("convolve-add", {"max_iter": "abc"}),
    ("convolve-mult", {"order": 3.5}),
])
def test_config_value_errors_exit_2(tmp_path, capsys, command, extra):
    law = CIRCLE if command == "convolve-mult" else SC
    cfg = write_cfg(tmp_path / "cfg.json", {"mu": law, "nu": law, **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, cfg", [
    (["convolve-mult", "--grid", "nonsense"], {"mu": CIRCLE, "nu": CIRCLE}),
    (["convolve-mult", "--im", "x"], {"mu": CIRCLE, "nu": CIRCLE}),
    (["convolve-mult", "--format", "csv"], {"mu": CIRCLE, "nu": CIRCLE}),
    (["convolve-mult"], {"mu": CIRCLE, "nu": CIRCLE, "seed": 4}),
    (["convolve-add"], {"mu": SC, "nu": SC, "mystery": 1}),
    (["convolve-add"], {"mu": SC, "nu": SC, "seed": 4}),
    (["convolve-add"], {"mu": SC, "nu": SC, "grid": "0:1:5"}),
    (["convolve-add"], {"mu": {"family": "bernoulli_pm1", "n": 5}, "nu": SC}),
    (["eval", "cauchy", "--tol", "1e-300"], {"measure": SC}),
    (["eval", "cauchy", "--seed", "5"], {"measure": SC}),
    (["eval", "cauchy"], {"measure": SC, "seed": 5}),
    (["eval", "cauchy"], {"measure": SC, "tol": 1e-3}),
    (["verify", "lemma34", "--samples", "50", "--tol", "1e-300"], {}),
    (["verify", "lemma34", "--samples", "50", "--grid", "0:1:5"], {}),
    (["verify", "lemma34", "--samples", "50", "--im", "3"], {}),
    (["verify", "lemma34", "--samples", "50", "--format", "csv"], {}),
    (["verify", "lemma34", "--samples", "50", "--N", "5"], {}),
    (["verify", "prop32", "--N", "8", "--trials", "1", "--samples", "5"], {}),
    (["eval", "cauchy", "--grid", "0:1:5"], {"measure": SC, "points": [[0, 1]]}),
    (["eval", "cauchy", "--im", "3"], {"measure": SC, "points": [[0, 1]]}),
    (["verify", "prop32", "--N", "8", "--trials", "1"], {"lam": [1, -1, 1, -1]}),
    (["verify", "prop33", "--trials", "1"],
     {"N": 8, "A0": np.diag([1, -1, 1, -1]).tolist(), "C0": np.eye(4).tolist()}),
])
def test_unread_flags_and_fields_exit_2(tmp_path, capsys, argv, cfg):
    argv = argv + ["--config", write_cfg(tmp_path / "cfg.json", cfg),
                   "--out", str(tmp_path)]
    try:
        assert main(argv) == 2
    except SystemExit as exc:  # argparse: a flag the subcommand lacks
        assert exc.code == 2
    assert "Traceback" not in capsys.readouterr().err


# sizes below 1, empty flags and non-numeric or non-positive tolerances are
# config errors, rejected before any work and any payload
@pytest.mark.parametrize("argv, cfg", [
    (["verify", "thm36", "--trials", "0", "--N", "8"], {}),
    (["verify", "prop33", "--trials", "0", "--N", "8"], {}),
    (["verify", "thm31_block", "--trials", "0", "--N", "8"], {}),
    (["verify", "prop32", "--trials", "0", "--N", "8"], {}),
    (["verify", "thm36", "--N", "0", "--trials", "1"], {}),
    (["verify", "prop32", "--N", "0", "--trials", "1"], {}),
    (["verify", "prop33", "--N", "0", "--trials", "1"], {}),
    (["verify", "thm31_block", "--N", "0", "--trials", "1"], {}),
    (["verify", "lemma34", "--samples", "0"], {}),
    (["verify", "lemma34", "--samples", "-1"], {}),
    (["verify", "lemma34", "--samples", "5"], {"dims": []}),
    (["eval", "cauchy", "--grid="], {"measure": SC}),
    (["eval", "cauchy", "--im="], {"measure": SC}),
    (["eval", "cauchy"], {"measure": {"type": "line", "grid": {"lo": 0}}}),
    (["convolve-add", "--grid=", "--im", "1"], {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im="], {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im", "1", "--tol", "nan"],
     {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im", "1", "--tol", "-1"],
     {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im", "1"],
     {"mu": SC, "nu": SC, "tol": "1e-9"}),
    (["convolve-mult", "--tol", "nan"], {"mu": CIRCLE, "nu": CIRCLE}),
    (["convolve-mult"], {"mu": CIRCLE, "nu": CIRCLE, "tol": True}),
    (["verify", "prop32", "--N", "8", "--trials", "1"], {"eps": "1"}),
    (["verify", "prop33", "--N", "8", "--trials", "1"], {"eps": -1.0}),
    # a float dimension was once truncated, with exit 0
    (["verify", "lemma34", "--samples", "5"], {"dims": [2.5, 3]}),
    (["verify", "lemma34", "--samples", "5"], {"dims": [True]}),
    # below the solver's 1e-14 floor: once clamped, with the unused value
    # reported in summary.json and exit 0
    (["convolve-add", "--grid=-1:1:11", "--im", "1", "--tol", "1e-15"],
     {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im", "1"],
     {"mu": SC, "nu": SC, "max_iter": 0}),
    # every height is checked before the table is solved
    (["convolve-add", "--grid=-1:1:11", "--im", "1,0"], {"mu": SC, "nu": SC}),
    (["convolve-add", "--grid=-1:1:11", "--im", "1,nan"],
     {"mu": SC, "nu": SC}),
    # a NaN matrix entry once exited 3, 1 and 2 with numpy's message
    (["verify", "prop32", "--trials", "1"], {"lam": [1.0, np.nan, -1.0]}),
    (["verify", "prop33", "--trials", "1"],
     {"A0": [[1.0, 0.0], [0.0, np.nan]], "C0": [[1.0, 0.0], [0.0, 1.0]]}),
    (["verify", "thm36", "--N", "2", "--trials", "1"],
     {"c0": [[np.nan, 0.0], [0.0, 0.0]]}),
    (["eval", "cauchy"], {"measure": SC, "points": []}),
    # a matrix literal the library cannot read as numbers
    (["verify", "thm36", "--N", "2", "--trials", "1"],
     {"c0": [[0.1, None], [0.0, 0.1]]}),
    (["verify", "thm36", "--N", "2", "--trials", "1"],
     {"c0": [[0.1, [0.0, 0.2, 0.3]], [0.0, 0.1]]}),
])
def test_rejected_sizes_and_values_exit_2(tmp_path, capsys, argv, cfg):
    argv = argv + ["--config", write_cfg(tmp_path / "cfg.json", cfg),
                   "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("points", ["abc", [[0, 1, 2]]])
def test_eval_rejects_malformed_points(tmp_path, capsys, points):
    cfg = write_cfg(tmp_path / "cfg.json", {"measure": SC, "points": points})
    assert main(["eval", "cauchy", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert not (tmp_path / "eval.json").exists()


def test_convolve_add_noconvergence_exit(tmp_path):
    bern = {"family": "bernoulli_pm1"}
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"mu": bern, "nu": bern, "max_iter": 1})
    code = main(["convolve-add", "--config", cfg, "--out", str(tmp_path),
                 "--grid=-2:2:11", "--im", "0.5"])
    assert code == 3


def test_convolve_add_bad_grid_flag(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"mu": SC, "nu": SC})
    assert main(["convolve-add", "--config", cfg, "--out", str(tmp_path),
                 "--grid", "nonsense"]) == 2


def test_convolve_mult_haar_absorption(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "mu": {"family": "haar_circle"},
        "nu": {"family": "circle_atoms", "params": [[0.0, 0.6], [1.0, 0.4]]},
    })
    assert main(["convolve-mult", "--config", cfg, "--out", str(tmp_path)]) == 0
    moments = json.loads((tmp_path / "moments.json").read_text())
    flat = np.array(moments["moments"])
    assert np.max(np.abs(flat)) <= 1e-8
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True


def test_eval_cauchy_closed_forms(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": SC, "points": [[0.0, 1.0]]})
    assert main(["eval", "cauchy", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    want = 1j * (1 - np.sqrt(5)) / 2
    got = complex(*rows[0]["value"])
    assert abs(got - want) <= 1e-6
    assert rows[0]["margin"] == 1.0

    cfg2 = write_cfg(tmp_path / "cfg2.json", {
        "measure": {"family": "atomic", "params": [[0.0, 1.0]]},
        "points": [[0.0, 1.0]],
    })
    assert main(["eval", "cauchy", "--config", cfg2, "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    assert abs(complex(*rows[0]["value"]) - (-1j)) <= 1e-12


def test_eval_circle_cauchy_haar(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "measure": {"family": "haar_circle"},
        "points": [[0.3, 0.2]],
    })
    assert main(["eval", "circle-cauchy", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    assert abs(complex(*rows[0]["value"])) <= 1e-8


def test_eval_rejects_lower_half_plane(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": SC, "points": [[0.0, -1.0]]})
    assert main(["eval", "cauchy", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_eval_csv(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": SC, "points": [[0.0, 1.0], [0.5, 2.0]]})
    assert main(["eval", "h", "--config", cfg, "--out", str(tmp_path),
                 "--format", "csv"]) == 0
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert lines[0] == "point_re,point_im,value_re,value_im,margin"
    assert len(lines) == 3


def test_out_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("FREESUB_OUT_DIR", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": SC, "points": [[0.0, 1.0]]})
    assert main(["eval", "cauchy", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "eval.json").exists()


def test_measure_from_file_path(tmp_path):
    mfile = tmp_path / "sc.json"
    mfile.write_text(json.dumps(freesub.semicircle(0, 1).to_dict()))
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": str(mfile), "points": [[0.0, 1.0]]})
    assert main(["eval", "cauchy", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_verify_lemma34(tmp_path, capsys):
    code = main(["verify", "lemma34", "--samples", "1000", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["residuals"]["violations"] == 0.0
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert len(csv) == 2
    assert csv[0].split(",")[0] == "identity"
    assert "lemma34: pass" in capsys.readouterr().out


def test_verify_thm31_block_trivial_y(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"eta_y": CovarianceMap((np.zeros((2, 2)),)).to_dict()})
    code = main(["verify", "thm31_block", "--config", cfg, "--N", "32",
                 "--trials", "5", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["residuals"]["subordination"] <= 1e-7


def test_verify_thm36_uses_experiment_default(tmp_path):
    main(["verify", "thm36", "--N", "64", "--trials", "4", "--seed", "2",
          "--out", str(tmp_path)])
    want = experiment_thm36(haar_circle(), N=64, trials=4, seed=2).to_dict()
    assert json.loads((tmp_path / "report.json").read_text()) == want


def test_verify_prop33_default_spectra(tmp_path, monkeypatch):
    # C0 = diag(+-1) failed the gate at the default N = 600; the default
    # is criterion 7's narrower spectrum linspace(0.5, 1.5)
    seen = {}

    def record(A0, C0, **kw):
        seen.update(A0=A0, C0=C0)
        return experiment_prop33(A0, C0, **kw)

    monkeypatch.setattr(freesub.cli, "experiment_prop33", record)
    assert main(["verify", "prop33", "--N", "8", "--trials", "1",
                 "--out", str(tmp_path)]) in (0, 1)
    assert np.array_equal(seen["C0"], np.diag(np.linspace(0.5, 1.5, 8)))
    assert np.array_equal(seen["A0"], np.diag([1.0] * 4 + [-1.0] * 4))


def test_verify_report_determinism(tmp_path):
    # tiny sizes land above the 0.05 noise tolerance (exit 1); the point
    # here is that reruns reproduce the report byte for byte
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["verify", "prop32", "--N", "40", "--trials", "5",
                     "--seed", "3", "--out", str(d)]) in (0, 1)
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()


def test_verify_rejects_unknown_identity():
    with pytest.raises(SystemExit) as info:
        main(["verify", "prop99"])
    assert info.value.code == 2


def test_verify_rejects_foreign_config_key(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"samples": 10, "a0": [[1]]})
    assert main(["verify", "lemma34", "--config", cfg,
                 "--out", str(tmp_path)]) == 2


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"measure": SC, "points": [[0.0, 1.0]]})
    proc = subprocess.run(
        [sys.executable, "-m", "freesub.cli", "eval", "cauchy",
         "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_benchmark_tracer_leaves_point_solves_unchanged(tmp_path, monkeypatch):
    # the benchmark's tracer wraps cli.main, subordination_pair (reading
    # int(result.iterations) from each result) and solve_subordination_F
    # (counting its G_X callbacks); cli.main turns a TypeError into exit 2,
    # so a result the tracer cannot read would fail only when traced
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    inp = workloads.build_point_solves(7, True, str(tmp_path))
    [(_, argv, out_dir)] = [r for r in inp.cli_runs if r[0] == "convolve-add"]
    mu, nu = inp.pairs[2]  # semicircle and Marchenko-Pastur
    z = complex(inp.points[0])

    def run():
        code = freesub.cli.main(argv)
        payloads = {name: (pathlib.Path(out_dir) / name).read_bytes()
                    for name in sorted(os.listdir(out_dir))
                    if name != "meta.json"}
        shutil.rmtree(out_dir)
        ev = freesub.subordination_pair(mu, nu, z)
        _, f_b, gx_evals = workloads._solve_triple(*inp.triples[0])()
        return (code, payloads, (ev.omega1, ev.omega2, ev.g_conv, ev.iterations),
                f_b.tobytes(), gx_evals)

    untraced = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = run()
    finally:
        tracer.uninstall()
    assert untraced[0] == 0 and set(untraced[1]) == {
        "measure.json", "subordination.json", "summary.json"}
    assert traced == untraced
    labels = {span[0] for span in tracer.spans}
    assert {"cli.main", "additive.subordination_pair",
            "opvalued.solve_subordination_F"} <= labels
    assert tracer.counts["additive.subordination_pair.iterations"] > 0
    assert (tracer.counts["opvalued.solve_subordination_F.callback_calls"]
            == traced[4])
