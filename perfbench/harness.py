"""Closed-loop execution of a request list against ``randmeas.cli.main``.

One client, one process: each request starts when the previous one has
finished and its outputs have been checked.  Only the ``main(argv)`` call
is timed; checking, hashing and clearing the output directory happen
between requests, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import randmeas.cli
from layertrace import LAYERS, LayerTracer
from oracles import CheckFailed, Oracles

#: Where every request writes.  Relative, because the CLI embeds the path
#: in its JSON and the digests must not depend on the checkout location.
WORK_DIR = Path(".perfbench_out") / "work"

#: Below this many beyond the tail rank, the tail is the maximum.
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """What one request did."""

    rid: int
    cls: str
    argv: list
    latency_s: float
    error: str | None = None
    files: dict = field(default_factory=dict)  # name -> sha256
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def execute(request, oracles: Oracles, tracer: LayerTracer | None = None) -> Outcome:
    """Run one request, then check and hash what it wrote."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    argv = request.argv(str(WORK_DIR))
    stderr = io.StringIO()
    error = None

    def call():
        return randmeas.cli.main(argv)

    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            status = tracer.request(request.rid, call) if tracer else call()
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            status = None
            error = "".join(traceback.format_exception_only(exc)).strip()
        latency = time.perf_counter() - start
    outcome = Outcome(request.rid, request.cls, argv, latency, error)
    if outcome.ok and status != 0:
        lines = stderr.getvalue().strip().splitlines()
        outcome.error = lines[-1] if lines else f"exit status {status}"
    if outcome.ok:
        try:
            oracles.check(request, WORK_DIR)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            outcome.error = f"check failed: {exc}"
    for path in sorted(WORK_DIR.rglob("*")) if WORK_DIR.is_dir() else ():
        if path.is_file():
            data = path.read_bytes()
            outcome.files[path.relative_to(WORK_DIR).as_posix()] = hashlib.sha256(data).hexdigest()
            outcome.bytes_written += len(data)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return outcome


def run_pass(requests, oracles: Oracles, tracer: LayerTracer | None = None) -> list:
    """Execute every request in order; with a tracer, under the hook."""
    if tracer is None:
        return [execute(r, oracles) for r in requests]
    tracer.start()
    try:
        return [execute(r, oracles, tracer) for r in requests]
    finally:
        tracer.stop()


def output_digest(outcomes) -> str:
    """One SHA-256 over every file every request wrote, in request order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        for name, file_digest in sorted(outcome.files.items()):
            digest.update(f"{outcome.rid}\t{name}\t{file_digest}\n".encode())
    return digest.hexdigest()


def tail_rank(count: int) -> tuple:
    """(0-based rank in ascending order, percentile) of the highest
    percentile with at least ``TAIL_BEYOND`` requests beyond it."""
    if count > TAIL_BEYOND:
        return count - TAIL_BEYOND - 1, 100.0 * (count - TAIL_BEYOND) / count
    return count - 1, 100.0


def end_to_end(outcomes, setup_s: float, peak_rss_mib: float) -> tuple:
    """End-to-end metrics {name: (value, unit)} and notes for the record."""
    latencies = sorted(o.latency_s for o in outcomes)
    rank, percentile = tail_rank(len(latencies))
    completed = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (completed / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (latencies[rank], "s"),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
    }
    notes = {"tail_percentile": percentile, "tail_of_requests": len(latencies)}
    return metrics, notes


def _ratio(numerator, denominator) -> float:
    """numerator / denominator, or 0 when the workload has no such case."""
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: LayerTracer, memory: LayerTracer, traced, untraced) -> tuple:
    """Per-layer metrics {name: (value, unit)} and the accounting check.

    ``tracer`` timed the ``traced`` pass; ``memory`` traced a third pass of
    the same requests for the memory peaks.  Returns the metrics and an
    error message when layer self times plus unattributed time do not add
    up to the traced wall time, else None.
    """
    metrics = {}
    totals = tracer.layer_totals()
    peaks = memory.layer_totals()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
        metrics[f"{layer}.peak_alloc_mb"] = (peaks[layer]["peak_alloc_mb"], "MiB")
    counts = tracer.counts
    for key in (
        "correlations.pauli_coefficients.calls",
        "sampling.design_points.calls",
        "moments.simulate_shots.calls",
        "states.validations",
        "sampling.directions",
        "correlations.values",
    ):
        metrics[key] = (counts[key], "count")
    metrics["cli.bytes_written"] = (sum(o.bytes_written for o in traced), "bytes")

    def requests_with(key):
        return sum(1 for r in tracer.requests if r["counts"].get(key))

    metrics["correlations.pauli_passes_per_state"] = (
        _ratio(counts["correlations.pauli_coefficients.calls"], counts["correlations.pauli_states"]),
        "ratio",
    )
    for name, key in (
        ("sampling.design_builds_per_request", "sampling.design_points.calls"),
        ("moments.tables_per_shot_request", "moments.simulate_shots.calls"),
        ("states.validations_per_state", "states.validations"),
    ):
        metrics[name] = (_ratio(counts[key], requests_with(key)), "ratio")

    traced_wall = sum(r["wall_s"] for r in tracer.requests)
    unattributed = sum(r["unattributed_s"] for r in tracer.requests)
    self_total = sum(totals[layer]["self_s"] for layer in LAYERS)
    metrics["trace.overhead_ratio"] = (
        sum(o.latency_s for o in traced) / sum(o.latency_s for o in untraced),
        "ratio",
    )
    metrics["trace.unattributed_s"] = (unattributed, "s")
    error = None
    gap = self_total + unattributed - traced_wall
    negative = [layer for layer in LAYERS if totals[layer]["self_s"] < -1e-9]
    if abs(gap) > 1e-6 or negative or unattributed < -1e-9:
        error = (
            f"trace does not account for the run: self times {self_total!r} + unattributed "
            f"{unattributed!r} != traced wall {traced_wall!r}; negative self time in {negative}"
        )
    return metrics, error


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, blas_threads: int) -> dict:
    """Software, hardware and load facts recorded with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }
