import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

import randmeas.cli
import randmeas.correlations
import randmeas.criteria
import randmeas.moments
import randmeas.sampling
from randmeas.cli import (
    STREAM_SAMPLES,
    STREAM_SETTINGS,
    STREAM_SHOTS,
    main,
    parse_state,
    parse_subset,
    render_state,
)
from randmeas.correlations import HISTOGRAM_BINS, correlation_length, pauli_coefficients, sample_distribution
from randmeas.criteria import structure_report_from_state
from randmeas.moments import (
    all_subsets,
    bootstrap_error,
    exact_moment_map,
    moments_design,
    moments_from_shots,
    moments_mc,
    simulate_shots,
)
from randmeas.sampling import RngStream, design_points, random_settings
from randmeas.states import DensityMatrix, ghz, make_state


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# State-spec grammar
# ---------------------------------------------------------------------------

def test_parse_state_aliases_and_defaults():
    assert render_state(parse_state("product2")) == "product_zero:2"
    assert render_state(parse_state("bell_psi_minus")) == "bell"
    assert render_state(parse_state("bisep4")) == "bisep4:0.2"
    assert render_state(parse_state("cluster_linear")) == "cluster_linear"


def test_parse_state_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown state kind 'squeezed'; valid kinds: bell, bisep4, "):
        parse_state("squeezed:2")


def test_parse_state_rejects_bad_arity():
    with pytest.raises(ValueError, match=r"state kind 'ghz' takes 1 parameter\(s\) \(n\), got 0"):
        parse_state("ghz")
    with pytest.raises(ValueError, match=r"state kind 'ghz' takes 1 parameter\(s\) \(n\), got 2"):
        parse_state("ghz:3,4")


state_strategy = st.one_of(
    st.just("bell"),
    st.just("trisep4"),
    st.builds(lambda n: f"ghz:{n}", st.integers(2, 6)),
    st.builds(lambda n: f"w:{n}", st.integers(2, 6)),
    st.builds(lambda n: f"product_zero:{n}", st.integers(1, 6)),
    st.builds(lambda p: f"werner:{p}", st.floats(0, 1, allow_nan=False)),
    st.builds(lambda x: f"bisep4:{x}", st.floats(-3, 3, allow_nan=False)),
)


@given(state_strategy)
@example("cluster_linear")
@example("bisep4")
@example("product2")
@example("bell_psi_minus")
def test_state_grammar_round_trips(text):
    canonical = render_state(parse_state(text))
    assert render_state(parse_state(canonical)) == canonical


def test_parse_subset_forms():
    assert parse_subset("full", 3) == [(1, 2, 3)]
    assert parse_subset("2,1", 3) == [(1, 2)]
    assert len(parse_subset("all", 3)) == 7
    with pytest.raises(ValueError, match=r"party must be an integer in 1\.\.3, got 5"):
        parse_subset("5", 3)
    with pytest.raises(ValueError, match=r"party must be an integer in 1\.\.3, got 0"):
        parse_subset("2,0", 3)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_sample_unknown_state_exits_nonzero(tmp_path, capsys):
    rc = run_cli(["sample", "--state", "nope", "--output", tmp_path / "o"])
    assert rc == 1
    assert "valid kinds" in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [("1e400", "inf"), ("nan", "nan"), ("-inf", "-inf")])
def test_criteria_names_a_non_finite_state_parameter(text, value, tmp_path, capsys):
    rc = run_cli(["criteria", "--state", f"bisep4:{text}", "--test", "gme4", "--output", tmp_path / "o"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: parameter phi must be finite, got {value}\n"


def test_main_builds_one_parser_per_process(tmp_path):
    randmeas.cli._build_parser.cache_clear()
    assert run_cli(["design", "--order", 3, "--output", tmp_path / "d"]) == 0
    assert run_cli(["criteria", "--state", "bell", "--test", "length", "--output", tmp_path / "c"]) == 0
    info = randmeas.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_sample_rejects_zero_samples(tmp_path, capsys):
    rc = run_cli(
        ["sample", "--state", "product2", "--samples", 0, "--output", tmp_path / "o"]
    )
    assert rc == 1
    assert "samples M must be an integer >= 1, got 0" in capsys.readouterr().err


def test_moments_rejects_zero_samples(tmp_path, capsys):
    # the shot route draws its settings table; Monte Carlo needs M >= 2 for a standard error
    for extra, message in (
        (["--shots", 5], "samples M must be an integer >= 1, got 0"),
        ([], "samples M must be an integer >= 2, got 0"),
    ):
        rc = run_cli(
            ["moments", "--state", "ghz:3", "--samples", 0, *extra, "--output", tmp_path / "o"]
        )
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_moments_allows_one_setting_with_shots(tmp_path):
    # the finite-shot route needs no spread over settings, so M = 1 stays valid
    out = tmp_path / "o"
    assert run_cli(["moments", "--state", "ghz:3", "--samples", 1, "--shots", 2, "--output", out]) == 0
    assert read_json(out / "moments.json")["moments"][0]["method"] == "finite_shot"


def test_sample_bell_histogram_is_flat(tmp_path):
    out = tmp_path / "bell"
    rc = run_cli(
        ["sample", "--state", "bell", "--samples", 50_000, "--seed", 7, "--output", out]
    )
    assert rc == 0
    hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
    counts = hist[:, 2]
    assert stats.chisquare(counts).pvalue > 1e-3
    meta = read_json(out / "sample.json")
    assert meta["config"]["state"] == "bell"
    assert meta["reference_density"]["kind"] == "bell"
    density = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert np.allclose(density[:, 3], 0.5)


def test_sample_werner_support(tmp_path):
    out = tmp_path / "werner"
    rc = run_cli(
        ["sample", "--state", "werner:0.577", "--samples", 20_000, "--seed", 3, "--output", out]
    )
    assert rc == 0
    values = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(values)) <= 0.578


def test_sample_density_at_a_subnormal_werner_parameter(tmp_path):
    # (e + p) / (2 p) overflows off the support, and the clip maps it to 0 or 1
    out = tmp_path / "tiny"
    assert run_cli(["sample", "--state", "werner:1e-320", "--samples", 4, "--output", out]) == 0
    density = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    center = HISTOGRAM_BINS // 2
    assert density[center, 3] == 40.499999999999822
    assert not np.delete(density[:, 3], center).any()


def test_sample_marginal_subset(tmp_path):
    out = tmp_path / "wmarg"
    rc = run_cli(
        ["sample", "--state", "w:3", "--subset", "1,2", "--samples", 2_000, "--output", out]
    )
    assert rc == 0
    assert read_json(out / "sample.json")["subset"] == [1, 2]


def test_cli_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "a"
    args = [
        "moments", "--state", "ghz:3", "--orders", "2", "--samples", 5_000,
        "--seed", 11, "--output", out,
    ]
    assert run_cli(args) == 0
    first = (out / "moments.json").read_bytes()
    assert run_cli(args) == 0
    assert (out / "moments.json").read_bytes() == first


def test_moments_design_values(tmp_path):
    out = tmp_path / "m"
    rc = run_cli(
        ["moments", "--state", "ghz:4", "--orders", "2", "--design", 3, "--subset", "full", "--output", out]
    )
    assert rc == 0
    data = read_json(out / "moments.json")
    assert abs(data["moments"][0]["value"] - 1.0 / 9.0) < 1e-12
    assert data["cross_checks"][0]["passed"]


def test_moments_ghz3_design5_orders_2_4(tmp_path):
    out = tmp_path / "g3"
    rc = run_cli(
        ["moments", "--state", "ghz:3", "--orders", "2,4", "--design", 5, "--output", out]
    )
    assert rc == 0
    values = {m["t"]: m["value"] for m in read_json(out / "moments.json")["moments"]}
    assert abs(values[2] - 4.0 / 27.0) < 1e-12
    assert abs(values[4] - 64.0 / 1125.0) < 1e-12


def test_moments_insufficient_design_order(tmp_path, capsys):
    rc = run_cli(
        ["moments", "--state", "bell", "--orders", "4", "--design", 3, "--output", tmp_path / "o"]
    )
    assert rc == 1
    assert "design order insufficient" in capsys.readouterr().err


def test_moments_design_5_at_eight_qubits_matches_the_exact_map(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(["moments", "--state", "w:8", "--subset", "all", "--orders", "2,4", "--design", 5, "--output", out])
    assert rc == 0
    exact = exact_moment_map(make_state(parse_state("w:8")), all_subsets(8))
    entries = read_json(out / "moments.json")["moments"]
    assert len(entries) == 2 * 255
    for entry in entries:
        if entry["t"] == 2:
            assert abs(entry["value"] - exact[tuple(entry["subset"])].value) <= 1e-12


@pytest.mark.parametrize("route", [["--shots", 5], ["--design", 3]], ids=["shots", "design"])
def test_moments_refuses_bootstrap_outside_monte_carlo(route, tmp_path, capsys):
    out = tmp_path / "o"
    rc = run_cli(["moments", "--state", "ghz:3", "--samples", 100, "--bootstrap", *route, "--output", out])
    assert rc == 1
    assert "--bootstrap applies to Monte Carlo moments" in capsys.readouterr().err
    assert not out.exists()


def test_moments_monte_carlo_cross_check_passes(tmp_path):
    out = tmp_path / "mc"
    rc = run_cli(
        ["moments", "--state", "bell", "--orders", "2", "--samples", 20_000, "--seed", 5, "--output", out]
    )
    assert rc == 0
    data = read_json(out / "moments.json")
    assert data["cross_checks"][0]["passed"]
    assert abs(data["moments"][0]["value"] - 1.0 / 3.0) < 4 * data["moments"][0]["std_error"]


@pytest.mark.parametrize("m", [2, 3])
def test_monte_carlo_cross_checks_pass_correct_estimates_at_tiny_m(m, tmp_path):
    # the estimate's own error is too noisy to bound anything at M = 2 or 3
    for seed in range(5):
        for args in ("--state bell --orders 1,2,4", "--state ghz:3 --subset all --orders 2,3"):
            for bootstrap in ([], ["--bootstrap"]):
                out = tmp_path / "o"
                argv = ["moments", *args.split(), "--samples", m, "--seed", seed, *bootstrap, "--output", out]
                assert run_cli(argv) == 0, (args, seed, bootstrap)
                assert all(c["passed"] for c in read_json(out / "moments.json")["cross_checks"])


@pytest.mark.parametrize("m", [2, 3, 2000])
@pytest.mark.parametrize("args", ["--state bell --orders 1,2,4", "--state ghz:3 --subset all --orders 2,3"])
def test_bootstrap_moves_only_the_std_errors(args, m, tmp_path):
    """--bootstrap swaps each error for the exact bootstrap one after the
    cross-checks, whose bound takes the plug-in error either way."""
    runs = {}
    for flag in ([], ["--bootstrap"]):
        out = tmp_path / "o"
        assert run_cli(["moments", *args.split(), "--samples", m, "--seed", 4, *flag, "--output", out]) == 0
        runs[bool(flag)] = read_json(out / "moments.json")
    plain, boot = runs[False], runs[True]
    assert plain["cross_checks"] and boot["cross_checks"] == plain["cross_checks"]
    assert boot["config"] == {**plain["config"], "bootstrap": True}
    for b, p in zip(boot["moments"], plain["moments"], strict=True):
        assert b["std_error"] == pytest.approx(p["std_error"] * np.sqrt((m - 1) / m), rel=1e-15, abs=0.0)
        assert {**b, "std_error": None} == {**p, "std_error": None}
    assert {**boot, "moments": None, "config": None} == {**plain, "moments": None, "config": None}


def test_monte_carlo_cross_check_fails_an_estimate_pushed_off(tmp_path, capsys, monkeypatch):
    args = ["moments", "--state", "bell", "--orders", "2", "--samples", 10_000, "--seed", 5]
    assert run_cli([*args, "--output", tmp_path / "right"]) == 0
    (check,) = read_json(tmp_path / "right" / "moments.json")["cross_checks"]
    assert check["tolerance"] < 0.025

    def pushed_off(*call):
        return [dataclasses.replace(e, value=e.value + 0.05) for e in moments_mc(*call)]

    monkeypatch.setattr(randmeas.cli, "moments_mc", pushed_off)
    assert run_cli([*args, "--output", tmp_path / "wrong"]) == 1
    assert "error: oracle cross-check failed for subset (1, 2), t=2" in capsys.readouterr().err
    assert not (tmp_path / "wrong").exists()


def test_moments_finite_shots(tmp_path):
    out = tmp_path / "shots"
    rc = run_cli(
        [
            "moments", "--state", "bell", "--orders", "2", "--samples", 20_000,
            "--shots", 2, "--seed", 9, "--output", out,
        ]
    )
    assert rc == 0
    est = read_json(out / "moments.json")["moments"][0]
    assert est["method"] == "finite_shot" and est["K"] == 2
    assert abs(est["value"] - 1.0 / 3.0) < 4 * est["std_error"]


def test_moments_shots_read_every_subset_off_one_table(tmp_path, monkeypatch):
    import randmeas.cli

    calls = {"random_settings": 0, "simulate_shots": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(randmeas.cli, "random_settings", counting("random_settings", random_settings))
    monkeypatch.setattr(randmeas.cli, "simulate_shots", counting("simulate_shots", simulate_shots))
    routes = _count_calls(monkeypatch, "moments_from_shots", randmeas.cli)
    out = tmp_path / "o"
    args = "moments --state ghz:4 --subset all --orders 2,4 --samples 50 --shots 20 --seed 3"
    assert run_cli([*args.split(), "--output", out]) == 0
    assert calls == {"random_settings": 1, "simulate_shots": 1}
    assert [(call[1], call[2]) for call in routes] == [(parse_subset("all", 4), (2, 4))]

    settings = random_settings(4, 50, RngStream(3, STREAM_SETTINGS))
    table = simulate_shots(ghz(4), settings, 20, RngStream(3, STREAM_SHOTS))
    entries = read_json(out / "moments.json")["moments"]
    assert len(entries) == 30
    for entry in entries:
        (expected,) = moments_from_shots(table, [entry["subset"]], [entry["t"]])
        assert (entry["value"], entry["std_error"]) == (expected.value, expected.std_error)


@pytest.mark.parametrize(
    "args, message",
    [
        ("--state ghz:8 --orders 2,x --samples 200000", "bad --orders '2,x'"),
        ("--state ghz:8 --orders 0 --samples 200000", "moment order t must be an integer >= 1, got 0"),
        (
            "--state ghz:8 --subset 1,2 --orders 2,4 --samples 200000 --shots 2",
            "need at least t shots per setting for unbiased order-4 estimation, got K=2",
        ),
        ("--state ghz:3 --samples 1", "samples M must be an integer >= 2, got 1"),
        ("--state ghz:3 --samples 1 --bootstrap", "samples M must be an integer >= 2, got 1"),
        ("--state bell --orders 2,2 --samples 1000", "moment order t=2 is repeated in --orders"),
        (
            "--state ghz:3 --shots 1000000000 --samples 1000000",
            "table of M*n*(24 + K) = 3000000072000000 bytes exceeds the 2147483648-byte cap",
        ),
    ],
    ids=[
        "unparsable",
        "zero",
        "fewer_shots_than_t",
        "one_monte_carlo_sample",
        "one_bootstrap_sample",
        "repeated",
        "oversized_shot_table",
    ],
)
def test_moments_checks_orders_before_any_work(args, message, tmp_path, capsys, monkeypatch):
    import randmeas.cli

    work = []
    for module, name in ((randmeas.sampling, "_settings_blocks"), (randmeas.cli, "simulate_shots")):
        monkeypatch.setattr(module, name, lambda *a, name=name: work.append(name))
    out = tmp_path / "o"
    assert run_cli(["moments", *args.split(), "--output", out]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert work == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["moments", "sample"])
def test_oversized_settings_tables_are_refused_before_any_draw(command, tmp_path, capsys, monkeypatch):
    draws = []
    for module in (randmeas.sampling, randmeas.correlations):
        monkeypatch.setattr(module, "_settings_blocks", lambda *a: draws.append(a))
    out = tmp_path / "o"
    assert run_cli([command, "--state", "ghz:3", "--samples", 10**9, "--output", out]) == 1
    message = {
        "moments": "table of M*n*(24 + K) = 72000000000 bytes exceeds the 2147483648-byte cap",
        "sample": "values of M*8 = 8000000000 bytes exceeds the 2147483648-byte cap",
    }[command]
    assert f"error: {message}" in capsys.readouterr().err
    assert draws == []
    assert not out.exists()


@pytest.mark.parametrize("bootstrap", [[], ["--bootstrap"]], ids=["plugin", "bootstrap"])
def test_monte_carlo_reads_every_subset_off_one_table(bootstrap, tmp_path, monkeypatch):
    draws = _count_calls(monkeypatch, "_settings_blocks", randmeas.sampling)
    out = tmp_path / "o"
    args = "moments --state ghz:4 --subset all --orders 2,4 --samples 300 --seed 3"
    assert run_cli([*args.split(), *bootstrap, "--output", out]) == 0
    assert [(n, m) for _, n, m, _ in draws] == [(4, 300)]
    expected = moments_mc(ghz(4), all_subsets(4), (2, 4), 300, RngStream(3, STREAM_SAMPLES))
    if bootstrap:
        expected = [bootstrap_error(e) for e in expected]
    entries = read_json(out / "moments.json")["moments"]
    assert entries == [json.loads(json.dumps(e.to_dict())) for e in expected]
    assert {tuple(entry["seed"]) for entry in entries} == {(3, STREAM_SAMPLES)}


def test_moments_refuses_negative_shots_first(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["moments", "--state", "ghz:3", "--orders", "2,4", "--shots", -3, "--output", out]) == 1
    assert "error: --shots must be >= 0 (0 = exact expectations), got -3" in capsys.readouterr().err
    assert not out.exists()


def test_moments_design_is_built_once_per_request(tmp_path, monkeypatch):
    import randmeas.cli

    calls = []

    def counting_design_points(t):
        calls.append(t)
        return design_points(t)

    monkeypatch.setattr(randmeas.cli, "design_points", counting_design_points)
    out = tmp_path / "once"
    rc = run_cli(
        ["moments", "--state", "ghz:3", "--subset", "all", "--orders", "2", "--design", 3, "--output", out]
    )
    assert rc == 0
    assert calls == [3]
    checks = read_json(out / "moments.json")["cross_checks"]
    assert len(checks) == 7
    assert all(c["passed"] and c["tolerance"] == 1e-12 for c in checks)


def _count_pauli_passes(monkeypatch):
    """Count ``pauli_coefficients`` calls from every module that imports it."""
    calls = []

    def counting(rho):
        calls.append(rho.n_qubits)
        return pauli_coefficients(rho)

    for name, module in list(sys.modules.items()):
        if name.startswith("randmeas") and getattr(module, "pauli_coefficients", None) is pauli_coefficients:
            monkeypatch.setattr(module, "pauli_coefficients", counting)
    return calls


@pytest.mark.parametrize(
    "args, checks, passes",
    [
        ("moments --state w:6 --subset all --orders 2,4 --design 5", 0, 1),
        ("moments --state ghz:4 --subset all --orders 2,4 --design 5", 15, 1),
        ("moments --state ghz:4 --subset all --orders 2,4 --samples 2000 --seed 3", 30, 1),
        # a pure state's shots are drawn from its amplitude vector
        ("moments --state ghz:4 --subset all --orders 2,4 --samples 50 --shots 20 --seed 3", 0, 0),
        ("moments --state werner:0.6 --subset all --orders 2,4 --samples 50 --shots 20 --seed 3", 0, 1),
        ("criteria --state ghz:3 --test bisep3", None, 1),
        ("criteria --state ghz:4 --test gme4 --structure", None, 1),
    ],
    ids=["design_w6", "design_checks_ghz4", "monte_carlo_ghz4", "shots_ghz4", "shots_werner", "bisep3", "structure"],
)
def test_one_pauli_pass_per_request(args, checks, passes, tmp_path, monkeypatch):
    calls = _count_pauli_passes(monkeypatch)
    out = tmp_path / "o"
    assert run_cli([*args.split(), "--output", out]) == 0
    assert len(calls) == passes
    if checks is not None:
        assert len(read_json(out / "moments.json")["cross_checks"]) == checks


def _count_calls(monkeypatch, name, *modules):
    """Record the arguments of every call the ``modules`` make to ``name``."""
    calls, real = [], getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_design_request_builds_one_grid_per_subset(tmp_path, monkeypatch):
    routes = _count_calls(monkeypatch, "moments_design", randmeas.cli)
    grids = _count_calls(monkeypatch, "_slab", randmeas.moments)
    out = tmp_path / "o"
    args = ["moments", "--state", "w:4", "--subset", "all", "--orders", "2,3,4,5", "--design", 5, "--output", out]
    assert run_cli(args) == 0
    assert [(call[1], call[2]) for call in routes] == [(parse_subset("all", 4), (2, 3, 4, 5))]
    assert [call[1] for call in grids] == [tuple(s) for s in parse_subset("all", 4)]
    assert [(m["subset"], m["t"]) for m in read_json(out / "moments.json")["moments"]] == [
        (list(s), t) for s in parse_subset("all", 4) for t in (2, 3, 4, 5)
    ]


def test_design_cross_checks_read_the_exact_moment_map(tmp_path):
    out = tmp_path / "o"
    args = ["moments", "--state", "w:4", "--subset", "all", "--orders", 2, "--design", 3, "--output", out]
    assert run_cli(args) == 0
    exact = exact_moment_map(make_state(parse_state("w:4")), all_subsets(4))
    checks = read_json(out / "moments.json")["cross_checks"]
    assert [tuple(c["subset"]) for c in checks] == list(exact)
    for check in checks:
        assert check["exact_value"] == exact[tuple(check["subset"])].value


def test_monte_carlo_cross_checks_build_one_grid_per_subset_and_degree(tmp_path, monkeypatch):
    designs = _count_calls(monkeypatch, "design_points", randmeas.cli)
    estimates = _count_calls(monkeypatch, "moments_mc", randmeas.cli)
    sums = _count_calls(monkeypatch, "moments_design", randmeas.cli)
    grids = _count_calls(monkeypatch, "_slab", randmeas.moments)
    out = tmp_path / "o"
    args = ["moments", "--state", "ghz:4", "--subset", "all", "--orders", "1,2,3,4", "--samples", 2000, "--seed", 1]
    assert run_cli([*args, "--output", out]) == 0
    assert designs == [(5,)]
    subsets = [tuple(s) for s in parse_subset("all", 4)]
    assert [call[1] for call in estimates] == [subsets]
    assert [(call[1], call[2], call[3].degree) for call in sums] == [(subsets, [1, 2, 3, 4], 5)]
    assert [call[1] for call in grids] == subsets
    rho = ghz(4)
    checks = read_json(out / "moments.json")["cross_checks"]
    assert [(c["subset"], c["t"]) for c in checks] == [(list(s), t) for s in subsets for t in (1, 2, 3, 4)]
    for check in checks:
        assert check["exact_value"] == moments_design(rho, [check["subset"]], [check["t"]], design_points(5))[0].value


@pytest.mark.parametrize("test", [[]], ids=["structure_only"])
def test_structure_request_builds_one_moment_map(test, tmp_path, monkeypatch):
    maps = _count_calls(monkeypatch, "exact_moment_map", randmeas.cli, randmeas.criteria)
    out = tmp_path / "o"
    assert run_cli(["criteria", "--state", "bisep4:0.2", *test, "--structure", "--output", out]) == 0
    assert len(maps) == 1
    report = read_json(out / "criteria.json")["structure"]
    expected = structure_report_from_state(make_state(parse_state("bisep4:0.2"))).to_dict()
    assert report == json.loads(json.dumps(expected))


def test_one_pauli_pass_per_state_across_library_calls(monkeypatch):
    calls = _count_pauli_passes(monkeypatch)
    rho = ghz(4)
    full = (1, 2, 3, 4)
    exact_moment_map(rho, all_subsets(4))
    structure_report_from_state(rho)
    moments_design(rho, [full], [4], design_points(5))
    sample_distribution(rho, full, 100, RngStream(0))
    simulate_shots(rho, random_settings(4, 10, RngStream(1)), 5, RngStream(2))
    correlation_length(rho, full)
    assert calls == [4]


def test_structure_request_validates_one_state_and_takes_no_partial_trace(tmp_path):
    # marginal purities are read off rho.pauli, not off marginal DensityMatrix
    # objects; the package has no partial trace left to call.  Every state
    # ends in _freeze; the pure ghz:4 skips the matrix validation.
    watched = {DensityMatrix._freeze.__code__: "states", DensityMatrix.__post_init__.__code__: "validations"}
    counts = dict.fromkeys(watched.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        rc = run_cli(["criteria", "--state", "ghz:4", "--test", "gme4", "--structure", "--output", tmp_path / "o"])
    finally:
        sys.setprofile(None)
    assert rc == 0
    assert counts == {"states": 1, "validations": 0}


def test_moments_csv_format(tmp_path):
    out = tmp_path / "csv"
    rc = run_cli(
        ["moments", "--state", "bell", "--orders", "2", "--design", 3, "--format", "csv", "--output", out]
    )
    assert rc == 0
    assert (out / "moments.csv").exists()


def test_moments_all_subsets(tmp_path):
    out = tmp_path / "all"
    rc = run_cli(
        ["moments", "--state", "ghz:3", "--subset", "all", "--design", 3, "--output", out]
    )
    assert rc == 0
    assert len(read_json(out / "moments.json")["moments"]) == 7


@pytest.mark.parametrize(
    "args", ["sample --state bell", "criteria --state ghz:4 --test gme4", "design --order 3"],
    ids=["sample", "criteria", "design"],
)
def test_format_is_a_moments_option(args, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        run_cli([*args.split(), "--format", "json", "--output", out])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert run_cli([*args.split(), "--output", out]) == 0
    meta = next(read_json(path) for path in out.iterdir() if path.suffix == ".json")
    assert meta["config"]["format"] == "json"


def test_criteria_gme4_ghz(tmp_path):
    out = tmp_path / "c"
    rc = run_cli(["criteria", "--state", "ghz:4", "--test", "gme4", "--output", out])
    assert rc == 0
    verdict = read_json(out / "criteria.json")["verdicts"][0]
    assert verdict["detected"]
    assert abs(verdict["statistic"] - 6.0 / 81.0) < 1e-10
    assert abs(verdict["threshold"]) < 1e-12


def test_criteria_bisep4_structure(tmp_path):
    out = tmp_path / "s"
    rc = run_cli(
        ["criteria", "--state", "bisep4:0.2", "--test", "gme4", "--structure", "--output", out]
    )
    assert rc == 0
    data = read_json(out / "criteria.json")
    assert not data["verdicts"][0]["detected"]
    assert data["structure"]["flagged"] == [[1, 2], [3, 4]]


def test_criteria_wclass_w4_margin_near_zero(tmp_path):
    out = tmp_path / "w"
    rc = run_cli(["criteria", "--state", "w:4", "--test", "wclass", "--output", out])
    assert rc == 0
    verdict = read_json(out / "criteria.json")["verdicts"][0]
    assert abs(verdict["threshold"] - 4.0 / 81.0) < 1e-15
    assert abs(verdict["margin"]) < 1e-12
    assert not verdict["detected"]


def test_criteria_mismatched_n(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run_cli(["criteria", "--state", "ghz:3", "--test", "gme4", "--output", out])
    assert rc == 1
    assert "error: this bound applies to four qubits only, got 3 parties" in capsys.readouterr().err
    assert not out.exists()


def test_criteria_structure_refuses_a_single_party(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["criteria", "--state", "product_zero:1", "--structure", "--output", out]) == 1
    assert "error: a structure report needs at least 2 parties, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_criteria_requires_test_or_structure(tmp_path, capsys):
    rc = run_cli(["criteria", "--state", "ghz:4", "--output", tmp_path / "o"])
    assert rc == 1
    assert "--test" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, env, message",
    [
        ("sample --state product2:3", None, "alias 'product2' takes no parameters"),
        ("moments --state werner:abc", None, "bad parameter for 'werner'"),
        ("moments --state bell --subset 1,x", None, "bad subset '1,x'"),
        ("moments --state bell --subset 3", None, "party must be an integer in 1..2, got 3"),
        ("moments --state ghz", None, "state kind 'ghz' takes 1 parameter(s) (n), got 0"),
        ("moments --state bell", "abc", "environment variable RANDMEAS_SEED='abc' is not an integer"),
        ("moments --state bell --seed -1", None, "seed must be non-negative, got -1"),
        ("sample --state ghz:3 --subset all", None, "sample expects a single subset"),
        ("moments --state bell --orders ,", None, "at least one moment order is required"),
        ("moments --state bell --design 3 --shots 5", None, "choose either --design or --shots, not both"),
        ("criteria --state bell --test wclass", None, "W class qubit count n must be an integer >= 3, got 2"),
        ("criteria --state ghz:4 --test bisep3", None, "bisep3 applies to 3-qubit states, got n=4"),
        ("criteria --state bell --test nope", None, "unknown criterion 'nope'"),
        ("moments --state ghz:9", None, "parameter n must be an integer in 2..8, got 9"),
        ("moments --state ghz:1", None, "parameter n must be an integer in 2..8, got 1"),
        ("sample --state product_zero:0", None, "parameter n must be an integer in 1..8, got 0"),
        ("criteria --state ghz:5 --structure", None, "no bound coefficient configured for 5 parties"),
        ("criteria --state cluster_linear:4 --test gme4", None, "state kind 'cluster_linear' takes 0 parameter(s) (), got 1"),
    ],
    ids=[
        "alias_parameters",
        "bad_parameter",
        "bad_subset",
        "subset_out_of_range",
        "missing_parameter",
        "seed_env_not_integer",
        "negative_seed",
        "sample_many_subsets",
        "no_orders",
        "design_and_shots",
        "wclass_two_qubits",
        "bisep3_four_qubits",
        "unknown_criterion",
        "qubits_above_limit",
        "ghz_one_qubit",
        "product_no_qubits",
        "structure_five_parties",
        "cluster_linear_parameter",
    ],
)
def test_cli_refuses_bad_requests_before_any_output(args, env, message, tmp_path, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("RANDMEAS_SEED", raising=False)
    else:
        monkeypatch.setenv("RANDMEAS_SEED", env)
    out = tmp_path / "o"
    assert run_cli([*args.split(), "--output", out]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_design_outputs(tmp_path):
    out3 = tmp_path / "d3"
    assert run_cli(["design", "--order", 3, "--output", out3]) == 0
    # exact text: zero components print as 0, never -0
    assert (out3 / "design.csv").read_text() == (
        "x,y,z\n1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n0,0,1\n0,0,-1\n"
    )
    assert read_json(out3 / "design_validation.json")["validation"]["passed"]

    out5 = tmp_path / "d5"
    assert run_cli(["design", "--order", 5, "--output", out5]) == 0
    assert np.loadtxt(out5 / "design.csv", delimiter=",", skiprows=1).shape == (12, 3)

    rc = run_cli(["design", "--order", 4, "--output", tmp_path / "d4"])
    assert rc == 1


@pytest.mark.parametrize(
    "args",
    [
        "sample --state bell --samples 500",
        "moments --state bell --samples 500",
        "criteria --state ghz:3 --test length",
        "design --order 3",
    ],
    ids=["sample", "moments", "criteria", "design"],
)
def test_seed_env_var_default(args, tmp_path, monkeypatch):
    # $RANDMEAS_SEED must act exactly like --seed: same files, same recorded seed
    monkeypatch.setenv("RANDMEAS_SEED", "123")
    runs = {"env": [], "flag": ["--seed", 123]}
    for name, extra in runs.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run_cli([*args.split(), *extra, "--output", "o"]) == 0
    files = sorted(p.name for p in (tmp_path / "env" / "o").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "flag" / "o").iterdir())
    for name in files:
        assert (tmp_path / "env" / "o" / name).read_bytes() == (tmp_path / "flag" / "o" / name).read_bytes()
    meta = next(read_json(tmp_path / "env" / "o" / name) for name in files if name.endswith(".json"))
    assert meta["config"]["seed"] == 123


def test_metadata_embeds_config_and_version(tmp_path):
    out = tmp_path / "meta"
    assert run_cli(["design", "--order", 3, "--output", out]) == 0
    meta = read_json(out / "design_validation.json")
    assert meta["version"]
    assert meta["config"]["command"] == "design"
