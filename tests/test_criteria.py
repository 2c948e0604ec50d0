import numpy as np
import pytest

import randmeas.criteria
from randmeas.criteria import (
    DETECTION_ATOL,
    M_BOUND_COEFF,
    bisep_line_3,
    bisep_line_3_r4,
    entanglement_by_length,
    gme_test_4,
    m_quantifier,
    structure_report_from_state,
    w_class_chi,
    w_class_witness,
)
from randmeas.ensembles import (
    random_biseparable_state,
    random_pure_vector,
    random_w_class_mixture,
)
from randmeas.moments import (
    MomentEstimate,
    all_subsets,
    exact_moment_map,
    moment_design,
    moment_exact_t2,
)
from randmeas.correlations import correlation_tensor
from randmeas.sampling import RngStream, design_points
from randmeas.states import (
    DensityMatrix,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    product_zero,
    purity_direct,
    tensor,
    trisep4,
)

D5 = design_points(5)


def test_m_quantifier_ghz4():
    value = m_quantifier(exact_moment_map(ghz(4)), (1, 2, 3, 4))
    assert value == pytest.approx(6.0 / 81.0, abs=1e-12)


def test_m_quantifier_product_state():
    value = m_quantifier(exact_moment_map(product_zero(4)), (1, 2, 3, 4))
    assert value == pytest.approx(-6.0 / 81.0, abs=1e-12)


def test_m_quantifier_factorizes_for_pure_bipartition_products():
    gen = RngStream(70).generator()
    for _ in range(10):
        left = DensityMatrix.from_vector(random_pure_vector(4, gen))
        right = DensityMatrix.from_vector(random_pure_vector(4, gen))
        product = tensor(left, right)
        moments = exact_moment_map(product)
        m_full = moments[(1, 2, 3, 4)].value
        m_left = moments[(1, 2)].value
        m_right = moments[(3, 4)].value
        assert abs(m_full - m_left * m_right) < 1e-10


def test_m_quantifier_requires_all_subsets():
    with pytest.raises(ValueError, match="missing subset"):
        m_quantifier({(1, 2): 0.1, (1,): 0.0}, (1, 2))
    with pytest.raises(ValueError, match=r"subset key \(0,\) is not a non-empty set"):
        m_quantifier({(0,): 0.1, (1,): 0.1, (0, 1): 0.2}, (0, 1))


def test_gme4_detects_ghz4():
    verdict = gme_test_4(exact_moment_map(ghz(4)), purity_direct(ghz(4)))
    assert verdict.detected
    assert verdict.statistic == pytest.approx(6.0 / 81.0, abs=1e-10)
    assert abs(verdict.threshold) < 1e-12


def test_gme4_does_not_detect_trisep4():
    rho = trisep4()
    verdict = gme_test_4(exact_moment_map(rho), purity_direct(rho))
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(-2.0 / 27.0, abs=1e-12)


def test_gme4_white_noise():
    white = DensityMatrix(4, np.eye(16) / 16)
    verdict = gme_test_4(exact_moment_map(white), 1.0 / 16.0)
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(0.0, abs=1e-12)
    assert verdict.threshold == pytest.approx((8.0 / 81.0) * (15.0 / 16.0), abs=1e-12)


def test_gme4_rejects_wrong_party_count():
    with pytest.raises(ValueError, match="four qubits"):
        gme_test_4(exact_moment_map(ghz(3)), 1.0)


def test_gme4_threshold_is_linear_in_purity():
    moments = exact_moment_map(ghz(4))
    for purity in (1.0, 0.75, 0.5):
        verdict = gme_test_4(moments, purity)
        assert verdict.threshold == pytest.approx(
            M_BOUND_COEFF[4] * (1.0 - purity), abs=1e-15
        )


def test_structure_report_trisep4():
    report = structure_report_from_state(trisep4())
    assert report.flagged() == [(1, 2)]
    assert not report.full.detected


def test_structure_report_bisep4():
    report = structure_report_from_state(bisep4(0.2))
    assert report.flagged() == [(1, 2), (3, 4)]
    assert not report.full.detected


def test_structure_report_product_state():
    report = structure_report_from_state(product_zero(4))
    assert report.flagged() == []
    assert not report.full.detected


def test_structure_report_needs_two_parties():
    with pytest.raises(ValueError, match="at least 2 parties, got 1"):
        structure_report_from_state(product_zero(1))


def test_structure_report_covers_all_subsets():
    report = structure_report_from_state(ghz(4))
    assert len(report.marginals) == 10  # size-2 and size-3 subsets of 4 parties
    assert report.full.detected


def test_structure_report_reads_a_given_moment_map(monkeypatch):
    rho = bisep4(0.2)
    moments = exact_moment_map(rho)
    expected = structure_report_from_state(rho).to_dict()
    monkeypatch.setattr(randmeas.criteria, "exact_moment_map", lambda rho: pytest.fail("map rebuilt"))
    assert structure_report_from_state(rho, moments).to_dict() == expected


def test_bisep_line_white_noise_not_detected():
    verdict = bisep_line_3(0.0, 0.0)
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(-5.0 / 425.0, abs=1e-15)


def test_bisep_line_detects_ghz3():
    rho = ghz(3)
    r2 = moment_exact_t2(correlation_tensor(rho, (1, 2, 3)))
    r4 = moment_design(rho, (1, 2, 3), 4, D5)
    # frozen oracle values: r2 = 4/27, r4 = 64/1125
    assert r2.value == pytest.approx(4.0 / 27.0, abs=1e-12)
    assert r4.value == pytest.approx(64.0 / 1125.0, abs=1e-12)
    verdict = bisep_line_3(r2, r4)
    assert verdict.detected and verdict.margin > 0.01
    assert verdict.statistic == bisep_line_3_r4(r2.value) - r4.value


def test_bisep_line_validates_range():
    with pytest.raises(ValueError, match="r2"):
        bisep_line_3(1.2, 0.0)


def test_w_class_chi_values():
    assert w_class_chi(4) == 4.0 / 81.0
    assert w_class_chi(3) == pytest.approx(11.0 / 81.0, abs=1e-16)
    with pytest.raises(ValueError, match="n >= 3"):
        w_class_chi(2)


def test_w_class_witness_excludes_ghz4_and_bell_pair():
    r2_ghz = moment_exact_t2(correlation_tensor(ghz(4), (1, 2, 3, 4)))
    assert r2_ghz.value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert w_class_witness(r2_ghz, 4).detected

    pair = tensor(bell_psi_minus(), bell_psi_minus())
    r2_pair = moment_exact_t2(correlation_tensor(pair, (1, 2, 3, 4)))
    assert r2_pair.value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert w_class_witness(r2_pair, 4).detected


def test_w_state_sits_on_the_boundary():
    from randmeas.states import w_state

    for n in (3, 4):
        full = tuple(range(1, n + 1))
        r2 = moment_exact_t2(correlation_tensor(w_state(n), full))
        verdict = w_class_witness(r2, n)
        assert abs(verdict.margin) < 1e-12
        assert not verdict.detected


def test_entanglement_by_length_verdicts():
    assert entanglement_by_length(3.0, 2).detected
    assert not entanglement_by_length(1.0, 2).detected
    assert not entanglement_by_length(0.0, 3).detected
    assert "not necessarily genuine" in entanglement_by_length(2.0).note
    with pytest.raises(ValueError, match="non-negative"):
        entanglement_by_length(-0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            entanglement_by_length(bad)


def test_statistical_inputs_require_z_sigma_margin():
    # margin of two standard errors: not detected at z = 3
    noisy = MomentEstimate((1, 2), 2, 0.35, 0.05, "monte_carlo", samples=100)
    low = w_class_witness(noisy, 4)  # margin ~ 0.30 >> 3 sigma: detected
    assert low.detected
    borderline = MomentEstimate(
        (1, 2, 3, 4), 2, w_class_chi(4) + 0.02, 0.01, "monte_carlo", samples=100
    )
    assert not w_class_witness(borderline, 4).detected


def _estimate(subset, t, value, std_error):
    return MomentEstimate(subset, t, value, std_error, "monte_carlo", samples=100)


def _gme4_at(sigmas):
    """Margin ``sigmas`` propagated errors: the full-set error plus the
    single-party one, weighted by the moment of the other three parties."""
    m1, e1, m234, e_full, purity = 0.1, 0.02, 0.2, 0.01, 0.5
    std_error = np.hypot(e_full, m234 * e1)
    threshold = M_BOUND_COEFF[4] * (1.0 - purity)
    moments = {subset: 0.0 for subset in all_subsets(4)}
    moments[(1,)] = _estimate((1,), 2, m1, e1)
    moments[(2, 3, 4)] = m234
    # the pairs (1 | 234) and (234 | 1) each subtract m1 * m234 / 2
    full = threshold + m1 * m234 + sigmas * std_error
    moments[(1, 2, 3, 4)] = _estimate((1, 2, 3, 4), 2, full, e_full)
    return gme_test_4(moments, purity), std_error


def _bisep3_at(sigmas):
    r2, e2, e4 = 0.2, 0.005, 0.01
    std_error = np.hypot((1944.0 * r2 + 90.0) / 425.0 * e2, e4)
    r4 = bisep_line_3_r4(r2) - sigmas * std_error
    return bisep_line_3(_estimate((1, 2, 3), 2, r2, e2), _estimate((1, 2, 3), 4, r4, e4)), std_error


def _wclass_at(sigmas):
    r2 = _estimate((1, 2, 3, 4), 2, w_class_chi(4) + sigmas * 0.01, 0.01)
    return w_class_witness(r2, 4), 0.01


def _length_at(sigmas):
    # finite-shot estimates are the ones whose even-order values may leave [0, 1]
    length = MomentEstimate((1, 2, 3), 2, 1.0 + sigmas * 0.01, 0.01, "finite_shot", 100, 4)
    return entanglement_by_length(length, 3), 0.01


@pytest.mark.parametrize(
    "build",
    [_gme4_at, _bisep3_at, _wclass_at, _length_at],
    ids=["gme4", "bisep3", "wclass", "length"],
)
def test_every_criterion_decides_at_three_propagated_errors(build):
    """Each builder returns the verdict for inputs whose margin is
    ``sigmas`` propagated standard errors, and that error worked out by hand."""
    for sigmas, detected in ((2.9, False), (3.1, True)):
        verdict, std_error = build(sigmas)
        assert verdict.std_error == pytest.approx(std_error, rel=1e-12)
        assert verdict.margin == pytest.approx(sigmas * std_error, rel=1e-9)
        assert verdict.detected is detected


def test_exact_margin_floor_suppresses_float_noise():
    chi = w_class_chi(4)
    assert not w_class_witness(chi + DETECTION_ATOL / 2, 4).detected
    assert w_class_witness(chi + 1e-6, 4).detected


def test_verdict_serialization():
    verdict = w_class_witness(0.2, 4)
    data = verdict.to_dict()
    assert data["criterion"] == "w_class_exclusion"
    assert set(data) >= {"statistic", "threshold", "margin", "detected", "std_error"}


# ---------------------------------------------------------------------------
# Small-scale soundness sweeps (full-scale versions live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_biseparable_4q_states_respect_gme_bound():
    gen = RngStream(71).generator()
    for _ in range(100):
        rho = random_biseparable_state(4, gen)
        verdict = gme_test_4(exact_moment_map(rho), purity_direct(rho))
        assert not verdict.detected


def test_biseparable_3q_states_respect_line():
    gen = RngStream(72).generator()
    for _ in range(100):
        rho = random_biseparable_state(3, gen)
        r2 = moment_exact_t2(correlation_tensor(rho, (1, 2, 3)))
        r4 = moment_design(rho, (1, 2, 3), 4, D5)
        assert not bisep_line_3(r2, r4).detected


def test_w_class_mixtures_stay_below_chi():
    for n in (3, 4):
        gen = RngStream(73 + n).generator()
        full = tuple(range(1, n + 1))
        for _ in range(100):
            rho = random_w_class_mixture(n, gen)
            r2 = moment_exact_t2(correlation_tensor(rho, full))
            assert not w_class_witness(r2, n).detected


def test_cluster_state_m4_is_positive():
    value = m_quantifier(exact_moment_map(cluster_linear()), (1, 2, 3, 4))
    assert value == pytest.approx(4.0 / 81.0, abs=1e-12)
