"""Full-scale acceptance checks.

One test per criterion, run at the stated sample sizes and tolerances;
a per-criterion PASS/FAIL summary is printed at the end of the session
(see conftest).  Heavier than the unit tests: the whole module takes a
couple of minutes.
"""

import numpy as np
from scipy import stats

from randmeas.correlations import (
    analytic_pdf,
    correlation_length,
    sample_distribution,
)
from randmeas.criteria import (
    bisep_line_3,
    gme_test_4,
    structure_report_from_state,
    w_class_chi,
    w_class_witness,
)
from randmeas.ensembles import (
    random_biseparable_state,
    random_w_class_mixture,
)
from randmeas.moments import (
    all_subsets,
    exact_moment_map,
    moments_design,
    moments_from_shots,
    moments_mc,
    purity_from_moments,
    simulate_shots,
)
from randmeas.sampling import RngStream, SphericalDesign, design_points, haar_unitaries, random_settings, validate_design
from randmeas.states import (
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    product_zero,
    trisep4,
    w_state,
    werner,
)

from matrix_oracles import apply_local_unitaries, purity_direct, random_density_matrix, tensor

D3 = design_points(3)
D5 = design_points(5)

NAMED_STATES = {
    "product2": product_zero(2),
    "bell": bell_psi_minus(),
    "werner_0.577": werner(0.577),
    "ghz3": ghz(3),
    "ghz4": ghz(4),
    "w3": w_state(3),
    "w4": w_state(4),
    "cluster4": cluster_linear(),
}

ALL_NAMED = dict(NAMED_STATES, trisep4=trisep4(), bisep4=bisep4(0.2))


def full_subset(rho):
    return tuple(range(1, rho.n_qubits + 1))


def test_criterion_1_distribution_oracles():
    m = 100_000
    bell_samples = sample_distribution(bell_psi_minus(), (1, 2), m, RngStream(101))
    assert stats.kstest(bell_samples.values, analytic_pdf("bell").cdf).pvalue > 1e-3

    prod_samples = sample_distribution(product_zero(2), (1, 2), m, RngStream(102))
    assert stats.kstest(prod_samples.values, analytic_pdf("product2").cdf).pvalue > 1e-3

    p = 1.0 / np.sqrt(3.0)
    wern_samples = sample_distribution(werner(p), (1, 2), m, RngStream(103))
    assert wern_samples.values.min() >= -p - 1e-9
    assert wern_samples.values.max() <= p + 1e-9
    density = analytic_pdf("werner", p=p)
    assert stats.kstest(wern_samples.values, density.cdf).pvalue > 1e-3


def test_criterion_2_moment_oracle_triangle():
    m = 100_000
    for stream, (name, rho) in enumerate(NAMED_STATES.items()):
        # every subset is read off one table of settings of the state
        subsets = all_subsets(rho.n_qubits)
        estimates = moments_mc(rho, subsets, (2,), m, RngStream(107, stream))
        for subset, mc in zip(subsets, estimates, strict=True):
            exact = exact_moment_map(rho, [subset])[subset].value
            via_design = moments_design(rho, [subset], [2], D3)[0].value
            assert abs(exact - via_design) < 1e-12, (name, subset)
            tolerance = max(4.0 * mc.std_error, 1e-12)
            assert abs(mc.value - exact) < tolerance, (name, subset)


def test_criterion_3_purity_identity():
    for name, rho in ALL_NAMED.items():
        assert abs(
            purity_from_moments(exact_moment_map(rho, all_subsets(rho.n_qubits))) - purity_direct(rho)
        ) < 1e-9, name

    gen = RngStream(110).generator()
    for _ in range(50):
        for n in (2, 3):
            rho = random_density_matrix(n, gen)
            assert abs(
                purity_from_moments(exact_moment_map(rho, all_subsets(rho.n_qubits))) - purity_direct(rho)
            ) < 1e-9

    wern = werner(1.0 / np.sqrt(3.0))
    assert abs(purity_from_moments(exact_moment_map(wern, all_subsets(wern.n_qubits))) - 0.5) < 1e-10


def test_criterion_4_gme_marginal_structure():
    ghz4 = ghz(4)
    verdict = gme_test_4(exact_moment_map(ghz4, all_subsets(4)), purity_direct(ghz4))
    assert verdict.detected
    assert abs(verdict.statistic - 6.0 / 81.0) < 1e-10
    assert abs(verdict.threshold) < 1e-12

    cluster = cluster_linear()
    assert abs(purity_direct(cluster) - 1.0) < 1e-12
    cluster_verdict = gme_test_4(exact_moment_map(cluster, all_subsets(4)), purity_direct(cluster))
    assert cluster_verdict.detected and cluster_verdict.statistic > 0.0
    # value recorded from the exact oracle
    assert abs(cluster_verdict.statistic - 4.0 / 81.0) < 1e-12

    for rho in (trisep4(), bisep4(0.2)):
        assert not gme_test_4(exact_moment_map(rho, all_subsets(4)), purity_direct(rho)).detected

    assert structure_report_from_state(trisep4()).flagged() == [(1, 2)]
    assert structure_report_from_state(bisep4(0.2)).flagged() == [(1, 2), (3, 4)]


def test_criterion_5_w_class_witness():
    assert w_class_chi(4) == 4.0 / 81.0

    for rho in (ghz(4), tensor(bell_psi_minus(), bell_psi_minus())):
        r2 = exact_moment_map(rho, [(1, 2, 3, 4)])[(1, 2, 3, 4)]
        assert abs(r2.value - 1.0 / 9.0) < 1e-12
        assert 1.0 / 9.0 > 4.0 / 81.0
        assert w_class_witness(r2, 4).detected

    for n in (3, 4):
        gen = RngStream(120 + n).generator()
        full = tuple(range(1, n + 1))
        false_exclusions = 0
        for _ in range(1000):
            rho = random_w_class_mixture(n, gen)
            r2 = exact_moment_map(rho, [full])[full]
            if w_class_witness(r2, n).detected:
                false_exclusions += 1
        assert false_exclusions == 0, f"n={n}"


def test_criterion_6_three_qubit_line():
    gen = RngStream(130).generator()
    violations = 0
    for _ in range(1000):
        rho = random_biseparable_state(3, gen)
        r2 = exact_moment_map(rho, [(1, 2, 3)])[(1, 2, 3)]
        (r4,) = moments_design(rho, [(1, 2, 3)], [4], D5)
        if bisep_line_3(r2, r4).detected:
            violations += 1
    assert violations == 0

    rho = ghz(3)
    r2 = exact_moment_map(rho, [(1, 2, 3)])[(1, 2, 3)]
    (r4,) = moments_design(rho, [(1, 2, 3)], [4], D5)
    # oracle-computed values for the three-qubit GHZ state
    assert abs(r2.value - 4.0 / 27.0) < 1e-12
    assert abs(r4.value - 64.0 / 1125.0) < 1e-12
    verdict = bisep_line_3(r2, r4)
    assert verdict.detected  # below the line: genuinely tripartite entangled


def test_criterion_7_design_exactness():
    octa = validate_design(D3)
    assert octa["passed"] and octa["max_abs_deviation"] < 1e-12

    octa_at_4 = validate_design(SphericalDesign(4, design_points(3).points))
    degree_4_failures = [
        e for e in octa_at_4["monomials"] if e["a"] + e["b"] + e["c"] == 4 and e["deviation"] >= 1e-12
    ]
    assert len(degree_4_failures) >= 1

    icosa = validate_design(D5)
    assert icosa["passed"] and icosa["max_abs_deviation"] < 1e-12


def test_criterion_8_finite_shot_unbiasedness():
    rho = bell_psi_minus()
    n_runs, m, k = 200, 10_000, 2
    unbiased_runs = np.empty(n_runs)
    naive_runs = np.empty(n_runs)
    for run in range(n_runs):
        settings = random_settings(2, m, RngStream(140, run))
        table = simulate_shots(rho, settings, k, RngStream(141, run))
        unbiased_runs[run] = moments_from_shots(table, [(1, 2)], [2])[0].value
        naive_runs[run] = (table.outcomes.prod(axis=2).mean(axis=1) ** 2).mean()

    exact = 1.0 / 3.0
    se = unbiased_runs.std(ddof=1) / np.sqrt(n_runs)
    assert abs(unbiased_runs.mean() - exact) < 4 * se

    expected_bias = (1.0 - exact) / k  # approximately 0.33
    assert abs(naive_runs.mean() - exact - expected_bias) < 0.01


def test_criterion_9_lu_invariance():
    gen = RngStream(150).generator()
    for name, rho in ALL_NAMED.items():
        n = rho.n_qubits
        subsets = all_subsets(n)
        base_moments = {s: e.value for s, e in exact_moment_map(rho, subsets).items()}
        base_length = correlation_length(rho, full_subset(rho))
        base_m4 = gme_test_4(exact_moment_map(rho, subsets), 1.0).statistic if n == 4 else None
        for _ in range(50):
            rotated = apply_local_unitaries(rho, haar_unitaries(gen, n))
            moments = exact_moment_map(rotated, subsets)
            for subset in subsets:
                assert abs(moments[subset].value - base_moments[subset]) < 1e-9, (
                    name,
                    subset,
                )
            assert abs(
                correlation_length(rotated, full_subset(rho)) - base_length
            ) < 1e-9, name
            if base_m4 is not None:
                assert abs(gme_test_4(moments, 1.0).statistic - base_m4) < 1e-9, name


def test_criterion_10_finite_shot_verdicts():
    # One simulated experiment per state, M = 2,000 settings of K = 20 shots:
    # the criteria read its unbiased estimates and the purity summed from
    # them, which leaves [0, 1] by its statistical error (above 1 here for
    # trisep4 and bisep4).
    expected = {
        "ghz4": (ghz(4), True, True),
        "cluster4": (cluster_linear(), True, None),
        "product_zero4": (product_zero(4), False, False),
        "trisep4": (trisep4(), False, None),
        "bisep4": (bisep4(0.2), False, None),
    }
    purities = {}
    for stream, (name, (rho, gme, w_excluded)) in enumerate(expected.items()):
        table = simulate_shots(rho, random_settings(4, 2000, RngStream(160, stream)), 20, RngStream(161, stream))
        moments = {e.subset: e for e in moments_from_shots(table, all_subsets(4), [2])}
        purities[name] = purity_from_moments(moments)
        verdict = gme_test_4(moments, purities[name])
        assert verdict.detected is gme and verdict.inputs_provenance == ("finite_shot",), name
        if w_excluded is not None:
            assert w_class_witness(moments[(1, 2, 3, 4)], 4).detected is w_excluded, name
    assert max(purities.values()) > 1.0
