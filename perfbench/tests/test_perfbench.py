"""Tests of the benchmark itself (not of randmeas).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
from mixes import WORKLOADS, Request, build_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Cheap request classes of each workload, for tiny runs.
CHEAP = {
    "sample_dist": {"pair", "full_3"},
    "shot_moments": {"full_3", "full_6"},
    "oracle_criteria": {"design5", "gme4", "structure", "design", "length"},
}


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_request_list(workload):
    first = build_requests(workload, 7, 2)
    assert first == build_requests(workload, 7, 2)
    other = build_requests(workload, 8, 2)
    assert first != other
    # Seeds change what a class holds, never the class mix.
    assert sorted(r.cls for r in first) == sorted(r.cls for r in other)


def _tiny(workload):
    """One request of each cheap class, from one cycle."""
    requests = list({r.cls: r for r in build_requests(workload, 3, 1) if r.cls in CHEAP[workload]}.values())
    if workload == "sample_dist":
        for r in requests:
            r.samples = 2000
    return requests


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result, lines = run.run_workload(workload, 3, trace, _tiny(workload), cycles=1)
    assert result["correct"], lines
    assert result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for metric in specs:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(metric["unit"]) for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in specs)


def test_wrong_oracle_value_counts_as_failure(monkeypatch):
    requests = _tiny("oracle_criteria")
    wrong = next(r for r in requests if r.command == "criteria")
    wrong.expect = {**wrong.expect, "detected": not wrong.expect["detected"]}
    result, lines = run.run_workload("oracle_criteria", 3, False, requests, cycles=1)
    assert result["failed"] == 1
    assert not result["correct"]
    assert any(line.startswith(f"FAILED request {wrong.rid}") for line in lines)


def test_wrong_exact_moment_counts_as_failure(monkeypatch):
    exact = harness.Oracles.moment
    monkeypatch.setattr(harness.Oracles, "moment", lambda self, *a: exact(self, *a) + 0.1)
    request = Request(0, "pair", "sample", state="bell", subset="full", samples=2000, seed=1)
    outcome = harness.execute(request, harness.Oracles())
    assert not outcome.ok
    assert outcome.error.startswith("check failed: mean E^2")


def _traced_counts(request):
    tracer = harness.LayerTracer()
    outcomes = harness.run_pass([request], harness.Oracles(), tracer)
    assert outcomes[0].ok, outcomes[0].error
    return tracer.counts


def test_traced_counts_of_reference_requests():
    design = Request(0, "design5", "moments", state="w:6", subset="all", design=5, orders="2,4")
    counts = _traced_counts(design)
    assert counts["correlations.pauli_coefficients.calls"] == 126
    assert counts["sampling.design_points.calls"] == 127
    shots = Request(0, "all_4", "moments", state="ghz:4", subset="all", samples=50, shots=20, orders="2,4")
    assert _traced_counts(shots)["moments.simulate_shots.calls"] == 15
    structure = Request(
        0, "structure", "criteria", state="ghz:4", structure=True, expect={"detected": True, "flagged": []}
    )
    counts = _traced_counts(structure)
    # One from building the state, ten from partial_trace: keeping all
    # four parties returns the state itself.
    assert counts["states.validations"] == 11
    assert counts["states.partial_trace.calls"] == 11


def test_trace_accounts_for_wall_time():
    tracer = harness.LayerTracer()
    oracles = harness.Oracles()
    requests = _tiny("oracle_criteria")
    plain = harness.run_pass(requests, oracles)
    traced = harness.run_pass(requests, oracles, tracer)
    memory = harness.LayerTracer(memory=True)
    harness.run_pass(requests, oracles, memory)
    metrics, error = harness.per_layer(tracer, memory, traced, plain)
    assert error is None
    assert harness.output_digest(plain) == harness.output_digest(traced)
    wall = sum(r["wall_s"] for r in tracer.requests)
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in harness.LAYERS)
    assert self_total + metrics["trace.unattributed_s"][0] == pytest.approx(wall, abs=1e-6)
    # Every request enters through cli.main, called from the benchmark.
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[0] for s in roots] == ["cli.main"] * len(requests)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sample_dist", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
