"""Command-line front end.

Subcommands: ``sample`` (correlation distributions), ``moments``
(moment estimates with automatic oracle cross-checks), ``criteria``
(entanglement verdicts), ``design`` (direction sets).  Outputs are
plot-ready CSV tables plus a JSON file embedding the full run
configuration; identical command lines produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import (
    analytic_pdf,
    correlation_length,
    correlation_tensor,
    histogram_table,
    marginal_purity,
    sample_distribution,
)
from .criteria import (
    _structure_report_of_state,
    bisep_line_3,
    entanglement_by_length,
    gme_test_4,
    w_class_witness,
)
from .moments import (
    _check_design_tuples,
    _check_order,
    _check_shots_cover_order,
    _design_moment,
    all_subsets,
    estimate_moment_from_shots,
    exact_moment_map,
    moment_design,
    moment_exact_t2,
    moments_mc,
    random_settings,
    simulate_shots,
)
from .sampling import RngStream, design_points, validate_design
from .states import STATES, StateSpec, make_state

SEED_ENV_VAR = "RANDMEAS_SEED"

#: Stream-id blocks per purpose so random consumers never collide: samples and
#: bootstrap rows add the subset index; one shot table serves every subset.
STREAM_SAMPLES = 0
STREAM_SETTINGS = 1_000_000
STREAM_SHOTS = 2_000_000
STREAM_BOOTSTRAP = 3_000_000


class CliError(Exception):
    """Input error reported to the user (exit status 1)."""


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
        raise CliError(f"unknown state kind {head!r}; valid kinds: " + ", ".join(sorted(STATES)))
    if row.alias_of is not None:
        if tail:
            raise CliError(f"alias {head!r} takes no parameters")
        return StateSpec(*row.alias_of)
    names = row.params
    if tail:
        raw = tail.split(",")
        if len(raw) != len(names):
            raise CliError(
                f"state kind {head!r} takes {len(names)} parameter(s) "
                f"({', '.join(names)}), got {len(raw)}"
            )
        try:
            params = tuple(row.cast(r) for r in raw)
        except ValueError as exc:
            raise CliError(f"bad parameter for {head!r}: {exc}") from exc
        return StateSpec(head, params)
    if row.defaults is not None:
        return StateSpec(head, row.defaults)
    if names:
        raise CliError(f"state kind {head!r} requires parameter(s): {', '.join(names)}")
    return StateSpec(head)


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
        parties = tuple(sorted({int(p) for p in text.split(",")}))
    except ValueError as exc:
        raise CliError(f"bad subset {text!r}: expected 'full', 'all' or a comma list") from exc
    if not parties or parties[0] < 1 or parties[-1] > n:
        raise CliError(f"subset {text!r} outside parties 1..{n}")
    return [parties]


@dataclass
class RunConfig:
    """Everything that determines a run's output, embedded in every JSON."""

    command: str
    state: str | None = None
    subset: str = "full"
    samples: int = 10000
    shots: int = 0
    design: int = 0
    orders: tuple = (2,)
    seed: int = 0
    output: str = "randmeas-output"
    format: str = "json"
    bootstrap: bool = False
    test: str | None = None
    structure: bool = False

    def to_dict(self) -> dict:
        data = asdict(self)
        data["orders"] = list(self.orders)
        return data


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise CliError(f"environment variable {SEED_ENV_VAR}={env!r} is not an integer") from exc


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


def _metadata(config: RunConfig, **extra) -> dict:
    payload = {"tool": "randmeas", "version": __version__, "config": config.to_dict()}
    payload.update(extra)
    return payload


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
    if config.samples < 1:
        raise CliError(f"samples must satisfy M >= 1, got {config.samples}")
    subsets = parse_subset(config.subset, rho.n_qubits)
    if len(subsets) != 1:
        raise CliError("sample expects a single subset (use 'full' or a comma list)")
    subset = subsets[0]
    stream = RngStream(config.seed, STREAM_SAMPLES)
    samples = sample_distribution(rho, subset, config.samples, stream)
    out = _out_dir(config)
    samples.to_csv(out / "samples.csv")
    hist = histogram_table(samples.values)
    _write_table(
        out / "histogram.csv",
        "bin_left,bin_right,count,density",
        [(float(l), float(r), int(c), float(d)) for l, r, c, d in hist],
    )
    files = ["samples.csv", "histogram.csv"]
    density_info = None
    density = _reference_density(spec, subset, rho.n_qubits)
    if density is not None:
        if density.is_delta:
            density_info = {"kind": density.kind, "point_mass_at": 0.0}
        else:
            edges = np.linspace(-1.0, 1.0, 82)
            left, right = edges[:-1], edges[1:]
            mean_density = np.diff(density.cdf(edges)) / (right - left)
            rows = np.column_stack([left, right, 0.5 * (left + right), mean_density]).tolist()
            _write_table(out / "density.csv", "bin_left,bin_right,bin_center,mean_density", rows)
            files.append("density.csv")
            density_info = {"kind": density.kind, "support": list(density.support)}
    _write_json(
        out / "sample.json",
        _metadata(
            config,
            n_qubits=rho.n_qubits,
            subset=list(subset),
            samples=config.samples,
            seed=[config.seed, STREAM_SAMPLES],
            reference_density=density_info,
            files=sorted(files),
        ),
    )
    return 0


def _cross_check(subset, estimate, exact) -> dict:
    """Compare an estimate against an independent exact oracle value
    (``None`` when no oracle covers its order).

    Design values (t = 2 only) must match the tensor contraction to
    1e-12; Monte-Carlo values must agree with a design sum within 4
    standard errors (plus a tiny absolute floor).
    """
    t = estimate.order
    if exact is None:
        return {"subset": list(subset), "t": t, "checked": False, "reason": f"no exact oracle for t={t}"}
    if estimate.method == "design":
        tolerance = 1e-12
    else:
        tolerance = max(4.0 * (estimate.std_error or 0.0), 1e-9)
    deviation = abs(estimate.value - exact)
    ok = deviation <= tolerance
    result = {
        "subset": list(subset),
        "t": t,
        "checked": True,
        "exact_value": exact,
        "deviation": deviation,
        "tolerance": tolerance,
        "passed": bool(ok),
    }
    if not ok:
        raise CrossCheckError(
            f"oracle cross-check failed for subset {subset}, t={t}: "
            f"estimate {estimate.value!r} vs exact {exact!r} "
            f"(deviation {deviation:.3e} > tolerance {tolerance:.3e})"
        )
    return result


def cmd_moments(config: RunConfig) -> int:
    spec = parse_state(config.state)
    rho = make_state(spec)
    subsets = parse_subset(config.subset, rho.n_qubits)
    if config.shots < 0:
        raise CliError(f"--shots must be >= 0 (0 = exact expectations), got {config.shots}")
    if not config.orders:
        raise CliError("at least one moment order is required")
    if config.design and config.shots:
        raise CliError("choose either --design or --shots, not both")
    if config.bootstrap and (config.design or config.shots):
        raise CliError("--bootstrap applies to Monte Carlo moments, not to --design or --shots")
    highest = max(_check_order(t) for t in config.orders)
    if config.shots:
        _check_shots_cover_order(config.shots, highest)
    if not config.design and config.samples < 1:
        raise CliError(f"samples must satisfy M >= 1, got {config.samples}")
    if config.design:
        design = design_points(config.design)
        for t in config.orders:
            if design.degree < t:
                raise CliError(
                    f"design order insufficient: degree {design.degree} < t={t}"
                )
        _check_design_tuples(len(design.points), max(map(len, subsets)))

    estimates = []
    checks = []
    do_checks = rho.n_qubits <= 4
    if config.shots:
        settings = random_settings(rho.n_qubits, config.samples, RngStream(config.seed, STREAM_SETTINGS))
        table = simulate_shots(rho, settings, config.shots, RngStream(config.seed, STREAM_SHOTS))
        estimates = [estimate_moment_from_shots(table, t, parties=s) for s in subsets for t in config.orders]
    elif config.design:
        for subset in subsets:
            for est in _design_moment(rho, subset, config.orders, design.degree, design.points):
                estimates.append(est)
                if do_checks and est.order == 2:
                    checks.append(_cross_check(subset, est, moment_exact_t2(correlation_tensor(rho, subset)).value))
    else:
        # Each order t <= 5 is checked against the smallest design exact for
        # it: one multi-order design sum per subset and design.
        due = {3: [t for t in config.orders if t <= 3], 5: [t for t in config.orders if 3 < t <= 5]}
        designs = {degree: design_points(degree) for degree, ts in due.items() if ts and do_checks}
        for subset_index, subset in enumerate(subsets):
            stream = RngStream(config.seed, STREAM_SAMPLES + subset_index)
            samples = sample_distribution(rho, subset, config.samples, stream)
            bootstrap_rng = RngStream(config.seed, STREAM_BOOTSTRAP + subset_index)
            subset_estimates = moments_mc(samples, config.orders, bootstrap=config.bootstrap, rng=bootstrap_rng)
            estimates += subset_estimates
            if do_checks:
                exact = {
                    e.order: e.value
                    for degree, design in designs.items()
                    for e in _design_moment(rho, subset, due[degree], degree, design.points)
                }
                checks += [_cross_check(subset, est, exact.get(est.order)) for est in subset_estimates]

    out = _out_dir(config)
    payload = _metadata(
        config,
        n_qubits=rho.n_qubits,
        moments=[e.to_dict() for e in estimates],
        cross_checks=checks,
    )
    _write_json(out / "moments.json", payload)
    if config.format == "csv":
        rows = []
        for e in estimates:
            rows.append(
                (
                    ";".join(str(p) for p in e.subset),
                    e.order,
                    float(e.value),
                    "" if e.std_error is None else float(e.std_error),
                    e.method,
                )
            )
        _write_table(out / "moments.csv", "subset,t,value,std_error,method", rows)
    return 0


def cmd_criteria(config: RunConfig) -> int:
    spec = parse_state(config.state)
    rho = make_state(spec)
    n = rho.n_qubits
    if config.test is None and not config.structure:
        raise CliError("choose a criterion with --test or request --structure")
    full = tuple(range(1, n + 1))
    verdicts = []
    structure = None
    moments = None
    if config.test == "gme4":
        if n != 4:
            raise CliError(f"gme4 applies to 4-qubit states, got n={n}")
        moments = exact_moment_map(rho)
        verdicts.append(gme_test_4(moments, marginal_purity(rho, full)))
    elif config.test == "wclass":
        if n < 3:
            raise CliError(f"wclass applies to n >= 3 qubits, got n={n}")
        r2 = moment_exact_t2(correlation_tensor(rho, full))
        verdicts.append(w_class_witness(r2, n))
    elif config.test == "bisep3":
        if n != 3:
            raise CliError(f"bisep3 applies to 3-qubit states, got n={n}")
        r2 = moment_exact_t2(correlation_tensor(rho, full))
        r4 = moment_design(rho, full, 4, design_points(5))
        verdicts.append(bisep_line_3(r2, r4))
    elif config.test == "length":
        verdicts.append(entanglement_by_length(correlation_length(rho, full), n))
    elif config.test is not None:
        raise CliError(
            f"unknown criterion {config.test!r}; valid tests: gme4, wclass, bisep3, length"
        )
    if config.structure:
        # one exact moment map per request: gme4's, if it built one
        structure = _structure_report_of_state(rho, moments or exact_moment_map(rho))

    out = _out_dir(config)
    payload = _metadata(
        config,
        n_qubits=n,
        verdicts=[v.to_dict() for v in verdicts],
        structure=None if structure is None else structure.to_dict(),
    )
    _write_json(out / "criteria.json", payload)
    return 0


def cmd_design(config: RunConfig) -> int:
    design = design_points(config.design)
    report = validate_design(design, config.design)
    out = _out_dir(config)
    _write_table(out / "design.csv", "x,y,z", design.points.tolist())
    _write_json(
        out / "design_validation.json",
        _metadata(config, validation=report.to_dict()),
    )
    if not report.passed:
        raise CrossCheckError(
            f"design validation failed (max deviation {report.max_abs_deviation:.3e})"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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

    def common(p, with_state=True):
        if with_state:
            p.add_argument("--state", required=True, help=_state_help())
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
        p.add_argument("--output", default="randmeas-output", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_sample = sub.add_parser("sample", help="sample a correlation distribution")
    common(p_sample)
    p_sample.add_argument("--subset", default="full", help="parties, e.g. 'full' or '1,2'")
    p_sample.add_argument("--samples", type=int, default=10000, help="number of random settings M")

    p_moments = sub.add_parser("moments", help="estimate moments of a correlation distribution")
    common(p_moments)
    p_moments.add_argument("--subset", default="full", help="'full', 'all', or a comma list")
    p_moments.add_argument("--orders", default="2", help="comma list of moment orders t")
    p_moments.add_argument("--samples", type=int, default=10000, help="Monte-Carlo settings M")
    p_moments.add_argument("--shots", type=int, default=0, help="shots per setting K (0 = exact expectations)")
    p_moments.add_argument("--design", type=int, default=0, help="design order for exact sums (0 = Haar MC)")
    p_moments.add_argument("--bootstrap", action="store_true", help="bootstrap standard errors (1000 resamples)")

    p_criteria = sub.add_parser("criteria", help="evaluate entanglement criteria")
    common(p_criteria)
    p_criteria.add_argument("--test", default=None, help="criterion: gme4, wclass, bisep3, length")
    p_criteria.add_argument("--structure", action="store_true", help="also report all marginal bound tests")

    p_design = sub.add_parser("design", help="emit a direction set and its validation")
    common(p_design, with_state=False)
    p_design.add_argument("--order", type=int, required=True, help="design degree (3 or 5)")

    return parser


def _config_from_args(args) -> RunConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise CliError(f"seed must be non-negative, got {seed}")
    text = str(getattr(args, "orders", "2"))
    try:
        orders = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise CliError(f"bad --orders {text!r}: expected a comma list of integers") from exc
    config = RunConfig(
        command=args.command,
        state=getattr(args, "state", None),
        subset=getattr(args, "subset", "full"),
        samples=getattr(args, "samples", 10000),
        shots=getattr(args, "shots", 0),
        design=getattr(args, "design", 0) or getattr(args, "order", 0),
        orders=orders,
        seed=seed,
        output=args.output,
        format=args.format,
        bootstrap=getattr(args, "bootstrap", False),
        test=getattr(args, "test", None),
        structure=getattr(args, "structure", False),
    )
    if config.state is not None:
        config.state = render_state(parse_state(config.state))
    return config


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
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (CliError, CrossCheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
