"""The demos run end to end as scripts."""

import pathlib
import subprocess
import sys

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def test_additive_line_demo_runs():
    # drives subordination_pair, convolve_cauchy, the eta continuation of
    # free_add_convolve and convolve_moments
    proc = subprocess.run([sys.executable, str(DEMOS / "additive_line.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "cumulant additivity gap" in proc.stdout
