"""The example scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


@pytest.mark.parametrize(
    "script, args",
    [
        ("correlation_histograms.py", ["--samples", "2000", "--output", "histograms"]),
        ("gme_marginal_scan.py", ["--json", "scan.json"]),
        ("moment_plane.py", ["--per-ensemble", "20", "--output", "plane.csv"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / args[-1]).exists()
