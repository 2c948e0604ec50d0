"""Request mixes of the benchmark, generated from a workload seed.

A workload is a closed loop of ``randmeas`` CLI requests.  Its request
list is a sequence of cycles; every cycle holds the same request classes
in the same numbers, and the seed only picks what does not change a
class's cost: the state kind at a given qubit count, which parties form a
marginal subset, the Werner parameter, the request's own ``--seed`` and
the order of requests inside the cycle.  (The K of the one n = 8 shot
request turns with the cycle's index, not with the seed.)  So two seeds
give lists with the same cost profile and the same layer call counts,
which keeps the latency percentiles and the traced counts comparable
across seeds.

A run executes the whole number of cycles nearest to ``--seconds`` at the
nominal cycle time below, so a run of a faster program does the same work
in less time and the latency percentiles always sit at the same rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("sample_dist", "shot_moments", "oracle_criteria")

#: Wall seconds one cycle took at the parent commit on a 2-core x86-64 box
#: with one BLAS thread.  Only used to turn ``--seconds`` into a cycle count.
NOMINAL_CYCLE_S = {"sample_dist": 11.5, "shot_moments": 10.0, "oracle_criteria": 3.0}

# The box this was tuned on runs each core in one of two speeds at a time,
# about 1.6x apart, and switches every few seconds as other tenants come
# and go.  In a cluster of requests of one cost, the median jumps between
# the two speeds with the share of slow time; among requests whose costs
# spread over more than 1.6x it moves smoothly with that share.  So the
# mixes put the median and the tail among costs that spread.

SAMPLE_M = 100_000
#: n = 8 full-set sample requests per cycle (each builds an (M, 3^7)
#: intermediate).  A 30 s run holds 15 of them, so ``latency_tail_s``, the
#: 11th slowest request, is always the fifth fastest of that class.  Their
#: times spread by +-25% within a run, and the second fastest of 12 moved
#: twice as much from run to run as the fourth.
SAMPLE_FULL8_PER_CYCLE = 5
#: Marginals per cycle, by party count.  Three-party marginals of GHZ and
#: W states are the cheapest requests; the two-qubit ones come next, then
#: the full sets at n = 3..7.  The median falls among n = 2..5.
SAMPLE_MARGINALS_PER_CYCLE = {2: 2, 3: 2}
WERNER_P = (0.3, 0.45, 0.6, 0.75, 0.9)

#: Settings M per (qubit count, K) for ``moments --shots`` with
#: ``--subset full``, and per (n, K) with ``--subset all``.  Below n = 8
#: the 21 requests of a cycle take from 0.16 to 0.5 s at the parent commit,
#: spread evenly in log time, so that the median and the tail (the 11th
#: slowest of 66 in a 30 s run) fall among costs that spread.  A smaller M
#: takes a different einsum contraction order that is about 100x faster:
#: M <= 16 at n = 8 and M <= 8 at n = 7.  So n = 8 uses M = 17 (about 2 s)
#: and n = 7 keeps M >= 18.
SHOT_M_FULL = {
    (3, 2): 28_000, (3, 20): 26_000, (3, 50): 28_000,
    (4, 2): 7_800, (4, 20): 8_000, (4, 50): 10_400,
    (5, 2): 770, (5, 20): 1_000, (5, 50): 1_200,
    (6, 2): 145, (6, 20): 255, (6, 50): 320,
    (7, 2): 18, (7, 20): 24, (7, 50): 28,
}
SHOT_M_ALL = {
    (3, 2): 7_500, (3, 20): 7_000, (3, 50): 6_500,
    (4, 2): 860, (4, 20): 750, (4, 50): 1_000,
}
SHOT_K = (2, 20, 50)
#: One n = 8 request per cycle, K in turn: three cycles hold each K once.
#: Now and then one of them takes three or four times as long as the others
#: on a shared box, and one such request in a run moves the throughput less
#: than it would among more of them.
SHOT_M_FULL8 = 17

MC_M = 10_000
BOOTSTRAP_M = 20_000

#: Verdicts the criteria give on these states from their exact moments.
GME4_DETECTED = {
    "ghz:4": True,
    "w:4": True,
    "cluster_linear": True,
    "trisep4": False,
    "bisep4": False,
    "product_zero:4": False,
}
BISEP3_DETECTED = {"ghz:3": True, "w:3": True, "product_zero:3": False}
LENGTH_DETECTED = {
    "bell": True,
    "product2": False,
    "ghz:3": True,
    "w:3": True,
    "w:5": True,
    "ghz:8": True,
    "product_zero:5": False,
    "cluster_linear": True,
    "trisep4": True,
}
#: (full-set verdict detected, flagged proper marginals) of ``--structure``.
STRUCTURE_EXPECTED = {
    "ghz:3": (True, []),
    "w:3": (True, []),
    "product_zero:3": (False, []),
    "ghz:4": (True, []),
    "w:4": (True, []),
    "cluster_linear": (True, []),
    "trisep4": (False, [[1, 2]]),
    "bisep4": (False, [[1, 2], [3, 4]]),
    "product_zero:4": (False, []),
}


@dataclass
class Request:
    """One CLI request plus what its outputs are checked against."""

    rid: int
    cls: str
    command: str
    state: str | None = None
    subset: str | None = None
    samples: int | None = None
    shots: int | None = None
    design: int | None = None
    orders: str | None = None
    bootstrap: bool = False
    test: str | None = None
    structure: bool = False
    order: int | None = None
    seed: int | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, output: str) -> list:
        """CLI arguments for ``randmeas.cli.main`` writing into ``output``."""
        args = [self.command]
        for flag, value in (
            ("--state", self.state),
            ("--subset", self.subset),
            ("--samples", self.samples),
            ("--shots", self.shots),
            ("--design", self.design),
            ("--orders", self.orders),
            ("--test", self.test),
            ("--order", self.order),
            ("--seed", self.seed),
        ):
            if value is not None:
                args += [flag, str(value)]
        if self.bootstrap:
            args.append("--bootstrap")
        if self.structure:
            args.append("--structure")
        return args + ["--output", output]


def cycles_for(workload: str, seconds: float) -> int:
    """The whole number of cycles nearest to ``seconds`` at the nominal pace."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def build_requests(workload: str, seed: int, cycles: int) -> list:
    """The request list of ``cycles`` cycles of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make_cycle = {
        "sample_dist": _sample_cycle,
        "shot_moments": _shot_cycle,
        "oracle_criteria": _oracle_cycle,
    }[workload]
    requests = []
    for index in range(cycles):
        cycle = make_cycle(rng, index)
        rng.shuffle(cycle)
        for spec in cycle:
            requests.append(Request(rid=len(requests), seed=rng.randrange(2**31), **spec))
    return requests


def _kind(rng, n: int) -> str:
    return f"{rng.choice(('ghz', 'w'))}:{n}"


def _sample_cycle(rng, index: int) -> list:
    def sample(cls, state, subset="full"):
        return dict(cls=cls, command="sample", state=state, subset=subset, samples=SAMPLE_M)

    cycle = [
        sample("pair", "bell"),
        sample("pair", f"werner:{rng.choice(WERNER_P)}"),
        sample("pair", "product2"),
    ]
    for size, count in SAMPLE_MARGINALS_PER_CYCLE.items():
        for _ in range(count):
            n = rng.randint(4, 8)
            parties = sorted(rng.sample(range(1, n + 1), size))
            cycle.append(sample(f"marginal_{size}", _kind(rng, n), ",".join(map(str, parties))))
    cycle += [sample(f"full_{n}", _kind(rng, n)) for n in range(3, 8)]
    cycle += [sample("full_8", _kind(rng, 8)) for _ in range(SAMPLE_FULL8_PER_CYCLE)]
    return cycle


def _shot_cycle(rng, index: int) -> list:
    def shots(cls, n, subset, m, k):
        return dict(
            cls=cls,
            command="moments",
            state=_kind(rng, n),
            subset=subset,
            samples=m,
            shots=k,
            # K = 2 shots cannot give an unbiased fourth moment.
            orders="2" if k < 4 else "2,4",
        )

    cycle = [shots(f"full_{n}", n, "full", m, k) for (n, k), m in SHOT_M_FULL.items()]
    cycle += [shots(f"all_{n}", n, "all", m, k) for (n, k), m in SHOT_M_ALL.items()]
    cycle.append(shots("full_8", 8, "full", SHOT_M_FULL8, SHOT_K[index % len(SHOT_K)]))
    return cycle


def _oracle_cycle(rng, index: int) -> list:
    def moments(cls, state, orders, subset="all", **extra):
        return dict(cls=cls, command="moments", state=state, subset=subset, orders=orders, **extra)

    def criteria(cls, state, expect, **extra):
        return dict(cls=cls, command="criteria", state=state, expect=expect, **extra)

    # The 3-design is exact only up to t = 3, and the 5-design at n >= 7
    # exceeds MAX_DESIGN_TUPLES, so design 5 stops at n = 6.
    cycle = [moments("design5", _kind(rng, n), "2,4", design=5) for n in range(3, 7)]
    cycle += [moments("design3", _kind(rng, n), "2", design=3) for n in range(3, 8)]
    # Two n = 8 design sums per cycle put ``latency_tail_s`` inside that class.
    cycle += [moments("design3", f"{kind}:8", "2", design=3) for kind in ("ghz", "w")]
    # Monte Carlo at n <= 4 runs the CLI's 4-sigma design cross-check on
    # every estimate, which fails about once in 10^4 checks when the
    # program is right; five checks per cycle keep that rare in a run.
    pair = rng.choice(("bell", f"werner:{rng.choice(WERNER_P)}"))
    cycle.append(moments("monte_carlo", pair, "2", samples=MC_M))
    cycle.append(
        moments("bootstrap", _kind(rng, 4), "2,4", "full", samples=BOOTSTRAP_M, bootstrap=True)
    )
    # One request of each criteria kind: with more of these 2-5 ms requests
    # the median would sit on them, and at that scale the box's speed
    # drift between runs is widest.
    state = rng.choice(sorted(GME4_DETECTED))
    cycle.append(criteria("gme4", state, {"detected": GME4_DETECTED[state]}, test="gme4"))
    kind, n = rng.choice(("ghz", "w", "product_zero")), rng.randint(3, 8)
    cycle.append(criteria("wclass", f"{kind}:{n}", {"detected": kind == "ghz"}, test="wclass"))
    state = rng.choice(sorted(BISEP3_DETECTED))
    cycle.append(criteria("bisep3", state, {"detected": BISEP3_DETECTED[state]}, test="bisep3"))
    state = rng.choice(sorted(LENGTH_DETECTED))
    cycle.append(criteria("length", state, {"detected": LENGTH_DETECTED[state]}, test="length"))
    state = rng.choice(sorted(STRUCTURE_EXPECTED))
    detected, flagged = STRUCTURE_EXPECTED[state]
    cycle.append(criteria("structure", state, {"detected": detected, "flagged": flagged}, structure=True))
    cycle.append(dict(cls="design", command="design", order=rng.choice((3, 5))))
    return cycle
