"""The example scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randmeas import analytic_pdf
from randmeas.correlations import HISTOGRAM_BINS

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
    if script == "correlation_histograms.py":
        _assert_overlays_are_bin_means(tmp_path / args[-1])


def _assert_overlays_are_bin_means(out):
    """Every table is finite, and each overlay column is its density's mean
    over each bin, the values of ``randmeas sample``'s density.csv: a pdf at
    the bin centre would read inf in product2's centre bin."""
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    densities = {"product2": analytic_pdf("product2"), "bell": analytic_pdf("bell"),
                 "werner": analytic_pdf("werner", p=1.0 / np.sqrt(3.0)), "w3_pair_marginal": None}
    for name, density in densities.items():
        table = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table)), name
        assert np.array_equal(table[:, :2], np.column_stack([edges[:-1], edges[1:]])), name
        if density is None:
            assert table.shape[1] == 4
        else:
            assert np.array_equal(table[:, 4], density.bin_means(edges)), name
