import hypothesis

hypothesis.settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")

# One human-readable line per acceptance criterion, printed at session end.
ACCEPTANCE_LABELS = {
    "test_criterion_1_distribution_oracles": "criterion 1: distribution oracles (KS vs closed forms)",
    "test_criterion_2_moment_oracle_triangle": "criterion 2: moment oracle triangle (tensor/design/MC)",
    "test_criterion_3_purity_identity": "criterion 3: purity from second moments",
    "test_criterion_4_gme_marginal_structure": "criterion 4: four-qubit GME detection and marginal structure",
    "test_criterion_5_w_class_witness": "criterion 5: W-class exclusion witness and soundness sweep",
    "test_criterion_6_three_qubit_line": "criterion 6: three-qubit biseparability line soundness",
    "test_criterion_7_design_exactness": "criterion 7: spherical design exactness",
    "test_criterion_8_finite_shot_unbiasedness": "criterion 8: finite-shot unbiased estimation",
    "test_criterion_9_lu_invariance": "criterion 9: local-unitary invariance of exact statistics",
    "test_criterion_10_finite_shot_verdicts": "criterion 10: entanglement verdicts from finite shots",
}

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when == "call":
        name = report.nodeid.split("::")[-1]
        if name in ACCEPTANCE_LABELS:
            _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        outcome = _acceptance_outcomes.get(name)
        if outcome is None:
            continue
        terminalreporter.write_line(f"{outcome.upper():>6}  {label}")
