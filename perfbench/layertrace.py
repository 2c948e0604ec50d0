"""Per-layer tracing of ``randmeas`` from outside the package.

A ``sys.setprofile`` hook watches calls into the public functions and
public methods of the six layer modules.  Every such call is counted.  A
call made from another module (or from the benchmark) also opens a span
recording its name, layer, start, end, parent span and request id; a span's
self time is its duration minus the time its child spans cover.

A memory tracer also runs ``tracemalloc``, and the outermost open span of
each layer records the peak of traced memory above its starting level.
``tracemalloc`` slows allocation-heavy Python code about threefold, so
self times come from a tracer without it and peaks from a separate pass.

Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

import randmeas.cli
import randmeas.correlations
import randmeas.criteria
import randmeas.moments
import randmeas.sampling
import randmeas.states

LAYERS = {
    "cli": randmeas.cli,
    "states": randmeas.states,
    "sampling": randmeas.sampling,
    "correlations": randmeas.correlations,
    "moments": randmeas.moments,
    "criteria": randmeas.criteria,
}

MB = 1024.0 * 1024.0

# Span fields; a span is a list so that closing it is an index store.
NAME, LAYER, START, END, PARENT, RID, CHILD_TIME, BASE, PEAK = range(9)


def _public_functions(module):
    """(qualified name, function) for the public functions and methods
    defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


class LayerTracer:
    """Counts and spans of the calls made inside :meth:`request`; with
    ``memory``, also each layer's traced-memory peak."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        # code object -> (count key, layer or None, file or None, extra counter)
        self._table = {}
        for layer, module in LAYERS.items():
            for name, func in _public_functions(module):
                code = func.__code__
                # A generator's every resume would look like a new call.
                if not code.co_flags & inspect.CO_GENERATOR:
                    self._table[code] = (f"{layer}.{name}.calls", layer, code.co_filename, None)
        extras = {
            randmeas.sampling.uniform_directions: self._count_directions,
            randmeas.correlations.correlation_values: self._count_values,
            randmeas.correlations.correlation: self._count_value,
            randmeas.correlations.pauli_coefficients: self._see_state,
        }
        for func, extra in extras.items():
            self._table[func.__code__] = self._table[func.__code__][:3] + (extra,)
        # Validation runs in a dunder method: counted, neither a layer call nor a span.
        validation = randmeas.states.DensityMatrix.__post_init__.__code__
        self._table[validation] = ("states.validations", None, None, None)
        self.counts = Counter()
        self.spans = []
        self.requests = []
        self._stack = []  # (frame, span index) of the open spans
        self._tracked = {}  # layer -> its outermost open span
        self._rid = None
        self._states = {}

    def start(self) -> None:
        if self.memory:
            tracemalloc.start()

    def stop(self) -> None:
        if self.memory:
            tracemalloc.stop()

    def request(self, rid: int, call):
        """Run ``call()`` as request ``rid`` with the hook installed and
        return its result."""
        self._rid = rid
        self._states = {}
        before = Counter(self.counts)
        first_span = len(self.spans)
        if self.memory:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        sys.setprofile(self._hook)
        try:
            return call()
        finally:
            sys.setprofile(None)
            end = time.perf_counter()
            while self._stack:
                self._close(end)
            self.counts["correlations.pauli_states"] += len(self._states)
            self._states = {}
            roots = sum(
                span[END] - span[START]
                for span in self.spans[first_span:]
                if span[PARENT] is None
            )
            self.requests.append(
                {
                    "rid": rid,
                    "wall_s": end - start,
                    "unattributed_s": end - start - roots,
                    "counts": dict(self.counts - before),
                }
            )

    def _hook(self, frame, event, arg):
        if event == "call":
            entry = self._table.get(frame.f_code)
            if entry is None:
                return
            key, layer, filename, extra = entry
            self.counts[key] += 1
            if extra is not None:
                extra(frame)
            if layer is None:
                return
            self.counts[layer + ".calls"] += 1
            caller = frame.f_back
            if caller is None or caller.f_code.co_filename != filename:
                self._open(frame, key[: -len(".calls")], layer)
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            self._close(time.perf_counter())

    def _count_directions(self, frame) -> None:
        self.counts["sampling.directions"] += frame.f_locals["count"]

    def _count_values(self, frame) -> None:
        self.counts["correlations.values"] += len(frame.f_locals["directions"])

    def _count_value(self, frame) -> None:
        self.counts["correlations.values"] += 1

    def _see_state(self, frame) -> None:
        # Holding the state keeps its id unique until the request ends.
        rho = frame.f_locals["rho"]
        self._states[id(rho)] = rho

    def _open(self, frame, name, layer) -> None:
        parent = self._stack[-1][1] if self._stack else None
        span = [name, layer, 0.0, None, parent, self._rid, 0.0, None, None]
        if self.memory and layer not in self._tracked:
            self._fold_peak()
            span[BASE] = span[PEAK] = tracemalloc.get_traced_memory()[0]
            self._tracked[layer] = span
        self.spans.append(span)
        self._stack.append((frame, len(self.spans) - 1))
        span[START] = time.perf_counter()

    def _close(self, now) -> None:
        _, index = self._stack.pop()
        span = self.spans[index]
        span[END] = now
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_TIME] += now - span[START]
        if self.memory and self._tracked.get(span[LAYER]) is span:
            self._fold_peak()
            del self._tracked[span[LAYER]]

    def _fold_peak(self) -> None:
        """Fold the traced-memory peak since the last fold into every
        tracked open span, then start a new peak interval."""
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._tracked.values():
            span[PEAK] = max(span[PEAK], peak)
        tracemalloc.reset_peak()

    def layer_totals(self) -> dict:
        """Per layer: summed self time, call count and largest peak."""
        totals = {
            layer: {"self_s": 0.0, "calls": self.counts[layer + ".calls"], "peak_alloc_mb": 0.0}
            for layer in LAYERS
        }
        for span in self.spans:
            entry = totals[span[LAYER]]
            entry["self_s"] += span[END] - span[START] - span[CHILD_TIME]
            if span[PEAK] is not None:
                entry["peak_alloc_mb"] = max(entry["peak_alloc_mb"], (span[PEAK] - span[BASE]) / MB)
        return totals

    def write_spans(self, path) -> None:
        """Write one JSON object per span."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "layer": span[LAYER],
                    "start": span[START],
                    "end": span[END],
                    "self_s": span[END] - span[START] - span[CHILD_TIME],
                    "parent": span[PARENT],
                    "request": span[RID],
                }
                if span[PEAK] is not None:
                    record["peak_alloc_mb"] = (span[PEAK] - span[BASE]) / MB
                fh.write(json.dumps(record) + "\n")
