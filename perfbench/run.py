#!/usr/bin/env python3
"""Benchmark of the randmeas CLI: three closed-loop request mixes.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload sample_dist --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the first cycles of the same request list three times:
plain, under the layer tracer, and under the layer tracer with
``tracemalloc``; it reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, and the full run record (environment,
every request with its latency, error and output digests, and the trace
spans) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads.  One thread keeps a neighbour's load on another core out
#: of every BLAS call; on a shared 2-core box two threads made the spread
#: between runs about twice as wide.
BLAS_THREADS = 1
#: Set-up probes per untraced run.  They are spread over the run, because
#: the box's speed drifts over seconds and probes made back to back all
#: land in the same phase.
SETUP_PROBES = 12


def pinned_env() -> dict:
    """This process's environment with BLAS threads pinned and the
    package sources and the benchmark on the import path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def setup_probe(workload: str, seed: int, cycles: int) -> float:
    """Wall time of a fresh process that imports randmeas and builds the
    request list."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(cycles)]
    start = time.perf_counter()
    subprocess.run(command, env=pinned_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_with_setup_probes(workload: str, seed: int, cycles: int, requests, oracles) -> tuple:
    """Run ``requests`` with ``SETUP_PROBES`` set-up probes spread evenly
    between them, outside the timed region.  One unmeasured probe runs
    first and fills the bytecode cache.  Returns the outcomes and the
    probe times."""
    import harness

    setup_probe(workload, seed, cycles)
    outcomes, times = [], []
    bounds = [round(i * len(requests) / SETUP_PROBES) for i in range(SETUP_PROBES + 1)]
    for low, high in zip(bounds, bounds[1:]):
        times.append(setup_probe(workload, seed, cycles))
        outcomes += harness.run_pass(requests[low:high], oracles)
    return outcomes, times


def run_workload(workload: str, seed: int, trace: bool, requests: list, cycles: int) -> tuple:
    """Run ``requests`` and return the result object and the report lines.

    The run record goes to ``.perfbench_out/`` under the current directory.
    """
    import harness  # imports numpy: the BLAS thread count must be pinned first

    record = {"workload": workload, "cycles": cycles, "trace": int(trace)}
    record["environment"] = harness.environment(seed, BLAS_THREADS)
    oracles = harness.Oracles()
    harness.execute(requests[0], oracles)  # warm-up, not reported
    errors = []
    if trace:
        plain = harness.run_pass(requests, oracles)
        tracer = harness.LayerTracer()
        traced = harness.run_pass(requests, oracles, tracer)
        memory = harness.LayerTracer(memory=True)
        memory_traced = harness.run_pass(requests, oracles, memory)
        metrics, trace_error = harness.per_layer(tracer, memory, traced, plain)
        digests = {
            "plain": harness.output_digest(plain),
            "traced": harness.output_digest(traced),
            "memory_traced": harness.output_digest(memory_traced),
        }
        if trace_error:
            errors.append(trace_error)
        if len(set(digests.values())) != 1:
            errors.append(f"traced outputs differ from plain outputs: {digests}")
        outcomes = plain + traced + memory_traced
        record.update(layer_counts=dict(tracer.counts), per_request_counts=tracer.requests)
    else:
        outcomes, setup_samples = run_with_setup_probes(workload, seed, cycles, requests, oracles)
        metrics, notes = harness.end_to_end(
            outcomes, statistics.median(setup_samples), harness.peak_rss_mib()
        )
        digests = {"plain": harness.output_digest(outcomes)}
        record.update(setup_samples_s=setup_samples, **notes)
    failed = sum(not o.ok for o in outcomes)
    record["environment"]["loadavg_end"] = os.getloadavg()
    record.update(
        digests=digests,
        trace_errors=errors,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        requests=[vars(o) for o in outcomes],
    )
    run_dir = Path(".perfbench_out") / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write_spans(run_dir / "spans.jsonl")
        memory.write_spans(run_dir / "memory_spans.jsonl")

    env = record["environment"]
    lines = [
        f"workload {workload}  seed {seed}  cycles {cycles}  requests {len(requests)}",
        f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']['name']} "
        f"{env['blas']['version']} threads {BLAS_THREADS}  nproc {env['nproc']}  "
        f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}",
    ]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if not trace:
        lines.append(
            f"latency_tail_s is p{record['tail_percentile']:.1f} of {record['tail_of_requests']} requests"
        )
    lines.append(f"failed_ratio = {failed / len(outcomes):.6g} ({failed}/{len(outcomes)})")
    lines += [f"output_digest[{name}] = {digest}" for name, digest in digests.items()]
    lines += [f"FAILED request {o.rid} ({o.cls}): {o.error}" for o in outcomes if not o.ok]
    lines += [f"TRACE CHECK FAILED: {error}" for error in errors]
    lines.append(f"record: {run_dir / 'record.json'}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "randmeas" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'randmeas'} not found; run from a randmeas checkout", file=sys.stderr)
        return 2
    os.environ.update(pinned_env())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)
    from mixes import WORKLOADS, build_requests, cycles_for

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # A traced run makes three passes, and the memory pass runs at about
    # half speed.
    cycles = cycles_for(args.workload, args.seconds / 4 if args.trace else args.seconds)
    requests = build_requests(args.workload, args.seed, cycles)
    result, lines = run_workload(args.workload, args.seed, bool(args.trace), requests, cycles)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
