"""Command-line front end.

Subcommands: ``sample`` (correlation distributions), ``moments``
(moment estimates with automatic oracle cross-checks), ``criteria``
(entanglement verdicts), ``design`` (direction sets).  Outputs are
plot-ready CSV tables plus a JSON file embedding the full run
configuration.  Identical command lines produce byte-identical files with
one numpy and BLAS build, at any BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
from math import log, sqrt
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import (
    HISTOGRAM_BINS,
    analytic_pdf,
    correlation_length,
    histogram_table,
    marginal_purity,
    normalize_subset,
    sample_distribution,
)
from .criteria import (
    bisep_line_3,
    entanglement_by_length,
    gme_test_4,
    structure_report_from_state,
    w_class_witness,
)
from .moments import (
    _check_order,
    _check_shots_cover_order,
    all_subsets,
    bootstrap_error,
    exact_moment_map,
    moments_design,
    moments_from_shots,
    moments_mc,
    simulate_shots,
)
from .sampling import RngStream, _check_settings, design_points, random_settings
from .states import STATES, StateSpec, make_state

SEED_ENV_VAR = "RANDMEAS_SEED"

#: One stream id per purpose so random consumers never collide; one settings
#: table and one shot table serve every subset.
STREAM_SAMPLES = 0
STREAM_SETTINGS = 1_000_000
STREAM_SHOTS = 2_000_000

#: Chance that a Monte Carlo cross-check fails a correct estimate.
CROSS_CHECK_FALSE_ALARM = 1e-6


class CrossCheckError(Exception):
    """Internal oracle disagreement (exit status 1)."""


# ---------------------------------------------------------------------------
# State-spec mini-grammar: kind[:param[,param]]
# ---------------------------------------------------------------------------

def parse_state(text: str) -> StateSpec:
    """Parse ``kind[:param[,param]]`` into a StateSpec."""
    head, _, tail = text.strip().partition(":")
    row = STATES.get(head)
    if row is None:
        return StateSpec(head)  # refuses the unknown kind
    if row.alias_of is not None:
        if tail:
            raise ValueError(f"alias {head!r} takes no parameters")
        return StateSpec(*row.alias_of)
    if tail:
        try:
            params = tuple(row.cast(r) for r in tail.split(","))
        except ValueError as exc:
            raise ValueError(f"bad parameter for {head!r}: {exc}") from exc
        return StateSpec(head, params)
    return StateSpec(head, row.defaults or ())


def render_state(spec: StateSpec) -> str:
    """Canonical string form of a StateSpec (round-trips through parse)."""
    if not spec.params:
        return spec.kind
    floats = STATES[spec.kind].cast is float
    return f"{spec.kind}:" + ",".join(repr(float(p)) if floats else str(p) for p in spec.params)


def _state_help() -> str:
    kinds, aliases = [], []
    for name, row in STATES.items():
        if row.alias_of is not None:
            aliases.append(name)
        elif row.params:
            spelled = ",".join(row.params)
            kinds.append(f"{name}[:{spelled}]" if row.defaults else f"{name}:{spelled}")
        else:
            kinds.append(name)
    return (
        f"state spec 'kind[:param[,param]]'; kinds: {', '.join(kinds)}; "
        f"aliases: {', '.join(aliases)}"
    )


def parse_subset(text: str, n: int) -> list:
    """``full`` -> the full party set, ``all`` -> every non-empty subset,
    otherwise a comma list of 1-based party indices."""
    text = text.strip().lower()
    if text == "full":
        return [tuple(range(1, n + 1))]
    if text == "all":
        return all_subsets(n)
    try:
        parties = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad subset {text!r}: expected 'full', 'all' or a comma list") from exc
    return [normalize_subset(parties, n)]


@dataclass
class RunConfig:
    """Everything that determines a run's output, embedded in every JSON.

    The defaults are the CLI's.  Construction resolves ``seed=None`` to
    ``$RANDMEAS_SEED`` or 0 and the ``orders`` comma list to a tuple.
    """

    command: str
    state: str | None = None
    subset: str = "full"
    samples: int = 10000
    shots: int = 0
    design: int = 0
    orders: str = "2"
    seed: int | None = None
    output: str = "randmeas-output"
    format: str = "json"
    bootstrap: bool = False
    test: str | None = None
    structure: bool = False

    def __post_init__(self):
        if self.seed is None:
            env = os.environ.get(SEED_ENV_VAR, "0")
            try:
                self.seed = int(env)
            except ValueError as exc:
                raise ValueError(f"environment variable {SEED_ENV_VAR}={env!r} is not an integer") from exc
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        text = str(self.orders)
        try:
            self.orders = tuple(int(t) for t in text.split(",") if t.strip())
        except ValueError as exc:
            raise ValueError(f"bad --orders {text!r}: expected a comma list of integers") from exc
        if self.state is not None:
            self.state = render_state(parse_state(self.state))


def _write_outputs(config: RunConfig, json_name: str, payload: dict, tables: dict) -> None:
    """Write a run's files into ``config.output``: each of ``tables``, a
    file name mapped to a CSV ``(header, rows)`` with floats at 17
    significant digits or to a function writing that path, then
    ``json_name`` with ``payload``, the tool, its version and the config."""
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        if callable(table):
            table(out / name)
        else:
            header, rows = table
            lines = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows)
            (out / name).write_text("".join(f"{line}\n" for line in (header, *lines)))
    metadata = {"tool": "randmeas", "version": __version__, "config": asdict(config)}
    (out / json_name).write_text(json.dumps({**metadata, **payload}, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _reference_density(spec: StateSpec, subset, n: int):
    if subset != tuple(range(1, n + 1)):
        return None
    # A kind's row matches any parameters; an alias row only its own spec.
    for name, row in STATES.items():
        if row.density and (row.alias_of or (name, spec.params)) == (spec.kind, spec.params):
            return analytic_pdf(row.density, **dict(zip(row.params, spec.params)))
    return None


def cmd_sample(config: RunConfig) -> int:
    spec = parse_state(config.state)
    rho = make_state(spec)
    subsets = parse_subset(config.subset, rho.n_qubits)
    if len(subsets) != 1:
        raise ValueError("sample expects a single subset (use 'full' or a comma list)")
    subset = subsets[0]
    stream = RngStream(config.seed, STREAM_SAMPLES)
    samples = sample_distribution(rho, subset, config.samples, stream)
    hist = [(float(l), float(r), int(c), float(d)) for l, r, c, d in histogram_table(samples.values)]
    tables = {"samples.csv": samples.to_csv, "histogram.csv": ("bin_left,bin_right,count,density", hist)}
    density_info = None
    density = _reference_density(spec, subset, rho.n_qubits)
    if density is not None:
        if density.is_delta:
            density_info = {"kind": density.kind, "point_mass_at": 0.0}
        else:
            edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
            left, right = edges[:-1], edges[1:]
            mean_density = np.diff(density.cdf(edges)) / (right - left)
            rows = np.column_stack([left, right, 0.5 * (left + right), mean_density]).tolist()
            tables["density.csv"] = ("bin_left,bin_right,bin_center,mean_density", rows)
            density_info = {"kind": density.kind, "support": list(density.support)}
    payload = {
        "n_qubits": rho.n_qubits,
        "subset": list(subset),
        "samples": config.samples,
        "seed": [config.seed, STREAM_SAMPLES],
        "reference_density": density_info,
        "files": sorted(tables),
    }
    _write_outputs(config, "sample.json", payload, tables)
    return 0


def _cross_check(estimate, exact) -> dict:
    """Compare an estimate against an independent exact oracle value
    (``None`` when no oracle covers its order).

    Design values (t = 2 only) must match the tensor contraction to
    1e-12.  Monte-Carlo values must agree with a design sum within the
    two-sided empirical Bernstein bound (Maurer and Pontil 2009, Thm. 4)
    at ``CROSS_CHECK_FALSE_ALARM``: the mean of M values spanning a range
    R (1 for even t, 2 for odd) lies within s * sqrt(2 L) + 7 R L / (3 (M - 1))
    of its expectation, L = ln(4 / rate), with s the plug-in (1/(M - 1)
    variance) error, also under ``--bootstrap``.  Unlike a multiple of s
    it holds at every M >= 2.
    """
    subset, t = estimate.subset, estimate.order
    if exact is None:
        return {"subset": list(subset), "t": t, "checked": False, "reason": f"no exact oracle for t={t}"}
    if estimate.method == "design":
        tolerance = 1e-12
    else:
        log_term = log(4.0 / CROSS_CHECK_FALSE_ALARM)
        value_range = 1.0 if t % 2 == 0 else 2.0
        tolerance = estimate.std_error * sqrt(2.0 * log_term) + 7.0 * value_range * log_term / (
            3.0 * (estimate.samples - 1)
        )
    deviation = abs(estimate.value - exact)
    if not deviation <= tolerance:
        raise CrossCheckError(
            f"oracle cross-check failed for subset {subset}, t={t}: "
            f"estimate {estimate.value!r} vs exact {exact!r} "
            f"(deviation {deviation:.3e} > tolerance {tolerance:.3e})"
        )
    return {"subset": list(subset), "t": t, "checked": True, "exact_value": exact, "deviation": deviation,
            "tolerance": tolerance, "passed": True}


def cmd_moments(config: RunConfig) -> int:
    rho = make_state(parse_state(config.state))
    subsets = parse_subset(config.subset, rho.n_qubits)
    if config.shots < 0:
        raise ValueError(f"--shots must be >= 0 (0 = exact expectations), got {config.shots}")
    if not config.orders:
        raise ValueError("at least one moment order is required")
    if config.design and config.shots:
        raise ValueError("choose either --design or --shots, not both")
    if config.bootstrap and (config.design or config.shots):
        raise ValueError("--bootstrap applies to Monte Carlo moments, not to --design or --shots")
    highest = max(_check_order(t) for t in config.orders)
    repeated = [t for t in config.orders if config.orders.count(t) > 1]
    if repeated:
        raise ValueError(f"moment order t={repeated[0]} is repeated in --orders")
    if config.shots:
        _check_shots_cover_order(config.shots, highest)
        _check_settings(config.samples, rho.n_qubits * (24 + config.shots))

    checks = []
    do_checks = rho.n_qubits <= 4
    if config.shots:
        settings = random_settings(rho.n_qubits, config.samples, RngStream(config.seed, STREAM_SETTINGS))
        table = simulate_shots(rho, settings, config.shots, RngStream(config.seed, STREAM_SHOTS))
        estimates = moments_from_shots(table, subsets, config.orders)
    elif config.design:
        estimates = moments_design(rho, subsets, config.orders, design_points(config.design))
        if do_checks and 2 in config.orders:
            exact = exact_moment_map(rho, subsets)
            checks = [_cross_check(e, exact[e.subset].value) for e in estimates if e.order == 2]
    else:
        estimates = moments_mc(rho, subsets, config.orders, config.samples, RngStream(config.seed, STREAM_SAMPLES))
        if do_checks:
            # Every order t <= 5 is checked against one design sum per subset
            # over the 5-design's antipodal half.
            checked = [t for t in config.orders if t <= 5]
            exact = {(e.subset, e.order): e.value for e in moments_design(rho, subsets, checked, design_points(5))}
            checks = [_cross_check(e, exact.get((e.subset, e.order))) for e in estimates]
        if config.bootstrap:
            estimates = [bootstrap_error(e) for e in estimates]

    tables = {}
    if config.format == "csv":
        rows = []
        for e in estimates:
            std_error = "" if e.std_error is None else float(e.std_error)
            rows.append((";".join(str(p) for p in e.subset), e.order, float(e.value), std_error, e.method))
        tables["moments.csv"] = ("subset,t,value,std_error,method", rows)
    payload = {"n_qubits": rho.n_qubits, "moments": [e.to_dict() for e in estimates], "cross_checks": checks}
    _write_outputs(config, "moments.json", payload, tables)
    return 0


def cmd_criteria(config: RunConfig) -> int:
    rho = make_state(parse_state(config.state))
    n = rho.n_qubits
    if config.test is None and not config.structure:
        raise ValueError("choose a criterion with --test or request --structure")
    full = tuple(range(1, n + 1))
    verdicts = []
    if config.test == "gme4":
        verdicts.append(gme_test_4(exact_moment_map(rho, all_subsets(n)), marginal_purity(rho, full)))
    elif config.test == "wclass":
        verdicts.append(w_class_witness(exact_moment_map(rho, [full])[full], n))
    elif config.test == "bisep3":
        if n != 3:
            raise ValueError(f"bisep3 applies to 3-qubit states, got n={n}")
        r2 = exact_moment_map(rho, [full])[full]
        (r4,) = moments_design(rho, [full], [4], design_points(5))
        verdicts.append(bisep_line_3(r2, r4))
    elif config.test == "length":
        verdicts.append(entanglement_by_length(correlation_length(rho, full), n))
    elif config.test is not None:
        raise ValueError(
            f"unknown criterion {config.test!r}; valid tests: gme4, wclass, bisep3, length"
        )
    structure = structure_report_from_state(rho).to_dict() if config.structure else None
    payload = {"n_qubits": n, "verdicts": [v.to_dict() for v in verdicts], "structure": structure}
    _write_outputs(config, "criteria.json", payload, {})
    return 0


def cmd_design(config: RunConfig) -> int:
    design = design_points(config.design)
    report = design.validation
    tables = {"design.csv": ("x,y,z", design.points.tolist())}
    _write_outputs(config, "design_validation.json", {"validation": report}, tables)
    if not report["passed"]:
        raise CrossCheckError(
            f"design validation failed (max deviation {report['max_abs_deviation']:.3e})"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@cache  # built on the first main() call, then reused: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmeas",
        description=(
            "Simulate random local measurements on few-qubit states: "
            "correlation distributions, moments, and entanglement criteria."
        ),
    )
    parser.add_argument("--version", action="version", version=f"randmeas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Parser-level defaults override argument-level ones: RunConfig's fields are the only defaults.
    defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}

    def command(name, help, state=True):
        """Add subcommand ``name`` with the shared options; return its ``add_argument``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(**defaults)
        if state:
            p.add_argument("--state", required=True, help=_state_help())
        p.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
        p.add_argument("--output", help="output directory")
        return p.add_argument

    option = command("sample", "sample a correlation distribution")
    option("--subset", help="parties, e.g. 'full' or '1,2'")
    option("--samples", type=int, help="number of random settings M")

    option = command("moments", "estimate moments of a correlation distribution")
    option("--format", choices=("json", "csv"))
    option("--subset", help="'full', 'all', or a comma list")
    option("--orders", help="comma list of moment orders t")
    option("--samples", type=int, help="Monte-Carlo settings M")
    option("--shots", type=int, help="shots per setting K (0 = exact expectations)")
    option("--design", type=int, help="design order for exact sums (0 = Haar MC)")
    option("--bootstrap", action="store_true", help="closed-form bootstrap standard errors")

    option = command("criteria", "evaluate entanglement criteria")
    option("--test", help="criterion: gme4, wclass, bisep3, length")
    option("--structure", action="store_true", help="also report all marginal bound tests")

    option = command("design", "emit a direction set and its validation", state=False)
    option("--order", dest="design", metavar="ORDER", type=int, required=True, help="design degree (3 or 5)")
    return parser


_COMMANDS = {
    "sample": cmd_sample,
    "moments": cmd_moments,
    "criteria": cmd_criteria,
    "design": cmd_design,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
        return _COMMANDS[args.command](config)
    except (CrossCheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
