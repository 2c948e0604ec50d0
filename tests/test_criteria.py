import numpy as np
import pytest

from randmeas.criteria import (
    DEFAULT_Z,
    DETECTION_ATOL,
    M_BOUND_COEFF,
    Verdict,
    bisep_line_3,
    bisep_line_3_r4,
    entanglement_by_length,
    gme_test_4,
    structure_report_from_state,
    w_class_chi,
    w_class_witness,
)
from randmeas.ensembles import (
    bipartitions,
    random_biseparable_state,
    random_pure_vector,
    random_w_class_mixture,
)
from randmeas.moments import (
    MomentEstimate,
    all_subsets,
    bootstrap_error,
    exact_moment_map,
    moments_design,
    moments_from_shots,
    moments_mc,
    purity_from_moments,
    simulate_shots,
)
from randmeas.sampling import RngStream, design_points, random_settings
from randmeas.states import (
    DensityMatrix,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    product_zero,
    trisep4,
    w_state,
)

from matrix_oracles import purity_direct, tensor

D5 = design_points(5)


def _m4(rho):
    """The m quantifier of a four-qubit state's full set: the gme4 statistic."""
    return gme_test_4(exact_moment_map(rho, all_subsets(4)), 1.0).statistic


def test_m_quantifier_ghz4():
    value = _m4(ghz(4))
    assert value == pytest.approx(6.0 / 81.0, abs=1e-12)


def test_m_quantifier_product_state():
    value = _m4(product_zero(4))
    assert value == pytest.approx(-6.0 / 81.0, abs=1e-12)


def test_m_quantifier_factorizes_for_pure_bipartition_products():
    gen = RngStream(70).generator()
    for _ in range(10):
        left = DensityMatrix.from_vector(random_pure_vector(4, gen))
        right = DensityMatrix.from_vector(random_pure_vector(4, gen))
        product = tensor(left, right)
        moments = exact_moment_map(product, [(1, 2, 3, 4), (1, 2), (3, 4)])
        m_full = moments[(1, 2, 3, 4)].value
        m_left = moments[(1, 2)].value
        m_right = moments[(3, 4)].value
        assert abs(m_full - m_left * m_right) < 1e-10


def test_m_quantifier_requires_all_subsets():
    moments = {s: 0.0 for s in all_subsets(4) if s != (2, 4)}
    with pytest.raises(ValueError, match=r"missing subset \(2, 4\)"):
        gme_test_4(moments, 1.0)
    with pytest.raises(ValueError, match=r"party must be an integer in 1\.\.8, got 0"):
        gme_test_4({**moments, (0,): 0.0}, 1.0)


def test_gme4_detects_ghz4():
    verdict = gme_test_4(exact_moment_map(ghz(4), all_subsets(4)), purity_direct(ghz(4)))
    assert verdict.detected
    assert verdict.statistic == pytest.approx(6.0 / 81.0, abs=1e-10)
    assert abs(verdict.threshold) < 1e-12


def test_gme4_does_not_detect_trisep4():
    rho = trisep4()
    verdict = gme_test_4(exact_moment_map(rho, all_subsets(4)), purity_direct(rho))
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(-2.0 / 27.0, abs=1e-12)


def test_gme4_white_noise():
    white = DensityMatrix(np.eye(16) / 16)
    verdict = gme_test_4(exact_moment_map(white, all_subsets(4)), 1.0 / 16.0)
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(0.0, abs=1e-12)
    assert verdict.threshold == pytest.approx((8.0 / 81.0) * (15.0 / 16.0), abs=1e-12)


def test_gme4_rejects_wrong_party_count():
    with pytest.raises(ValueError, match="four qubits"):
        gme_test_4(exact_moment_map(ghz(3), all_subsets(3)), 1.0)


def test_gme4_threshold_is_linear_in_purity():
    moments = exact_moment_map(ghz(4), all_subsets(4))
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


def test_bisep_line_white_noise_not_detected():
    verdict = bisep_line_3(0.0, 0.0)
    assert not verdict.detected
    assert verdict.statistic == pytest.approx(-5.0 / 425.0, abs=1e-15)


def test_bisep_line_detects_ghz3():
    rho = ghz(3)
    r2 = exact_moment_map(rho, [(1, 2, 3)])[(1, 2, 3)]
    (r4,) = moments_design(rho, [(1, 2, 3)], [4], D5)
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
    with pytest.raises(ValueError, match="W class qubit count n must be an integer >= 3, got 2"):
        w_class_chi(2)


def test_w_class_witness_excludes_ghz4_and_bell_pair():
    r2_ghz = exact_moment_map(ghz(4), [(1, 2, 3, 4)])[(1, 2, 3, 4)]
    assert r2_ghz.value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert w_class_witness(r2_ghz, 4).detected

    pair = tensor(bell_psi_minus(), bell_psi_minus())
    r2_pair = exact_moment_map(pair, [(1, 2, 3, 4)])[(1, 2, 3, 4)]
    assert r2_pair.value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert w_class_witness(r2_pair, 4).detected


def test_w_state_sits_on_the_boundary():
    for n in (3, 4):
        full = tuple(range(1, n + 1))
        r2 = exact_moment_map(w_state(n), [full])[full]
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
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            entanglement_by_length(bad)


def test_entanglement_by_length_reads_a_monte_carlo_second_moment():
    # the exact length of a Bell state is 3, its second moment 1/3
    (plain,) = moments_mc(bell_psi_minus(), [(1, 2)], (2,), 2000, RngStream(61))
    for r2 in (plain, bootstrap_error(plain)):
        verdict = entanglement_by_length(r2, 2)
        assert verdict.statistic == 9.0 * r2.value and verdict.std_error == 9.0 * r2.std_error
        assert verdict.detected and verdict.inputs_provenance == ("monte_carlo",)
    (r4,) = moments_mc(bell_psi_minus(), [(1, 2)], (4,), 100, RngStream(61))
    with pytest.raises(ValueError, match="needs a second moment, got t=4"):
        entanglement_by_length(r4, 2)


def test_statistical_inputs_require_z_sigma_margin():
    # margin of two standard errors: not detected at z = 3
    noisy = MomentEstimate((1, 2, 3, 4), 2, 0.35, 0.05, "monte_carlo", samples=100)
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
    # a three-party second moment R2 is decided as the length 27 R2
    r2 = _estimate((1, 2, 3), 2, (1.0 + sigmas * 0.01) / 27.0, 0.01 / 27.0)
    return entanglement_by_length(r2, 3), 0.01


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

def _permute_vector_qubits(vec: np.ndarray, order) -> np.ndarray:
    """Reorder a state vector whose qubits currently appear in ``order``
    (1-based party labels) into ascending party order: the helper that
    ``random_biseparable_state`` used to call, kept as its oracle."""
    order = list(order)
    tensor_form = np.asarray(vec).reshape((2,) * len(order))
    return np.transpose(tensor_form, [order.index(p) for p in sorted(order)]).ravel()


def _random_biseparable_state_oracle(n_qubits: int, gen) -> DensityMatrix:
    """``random_biseparable_state`` as it was built through ``np.kron`` and
    ``_permute_vector_qubits``, drawing the same numbers in the same order."""
    splits = bipartitions(n_qubits)
    block, complement = splits[gen.integers(len(splits))]
    psi_block = random_pure_vector(2 ** len(block), gen)
    psi_comp = random_pure_vector(2 ** len(complement), gen)
    vec = _permute_vector_qubits(np.kron(psi_block, psi_comp), block + complement)
    noise_weight = gen.uniform(0.0, 1.0)
    dim = 2**n_qubits
    return DensityMatrix((1.0 - noise_weight) * np.outer(vec, vec.conj()) + noise_weight * np.eye(dim) / dim)


def test_biseparable_states_keep_their_bits():
    for n in (2, 3, 4):
        gen, oracle_gen = RngStream(90 + n).generator(), RngStream(90 + n).generator()
        for _ in range(20):
            state = random_biseparable_state(n, gen)
            assert np.array_equal(state.matrix, _random_biseparable_state_oracle(n, oracle_gen).matrix)


def test_biseparable_4q_states_respect_gme_bound():
    gen = RngStream(71).generator()
    for _ in range(100):
        rho = random_biseparable_state(4, gen)
        verdict = gme_test_4(exact_moment_map(rho, all_subsets(4)), purity_direct(rho))
        assert not verdict.detected


def test_biseparable_3q_states_respect_line():
    gen = RngStream(72).generator()
    for _ in range(100):
        rho = random_biseparable_state(3, gen)
        r2 = exact_moment_map(rho, [(1, 2, 3)])[(1, 2, 3)]
        (r4,) = moments_design(rho, [(1, 2, 3)], [4], D5)
        assert not bisep_line_3(r2, r4).detected


def test_w_class_mixtures_stay_below_chi():
    for n in (3, 4):
        gen = RngStream(73 + n).generator()
        full = tuple(range(1, n + 1))
        for _ in range(100):
            rho = random_w_class_mixture(n, gen)
            r2 = exact_moment_map(rho, [full])[full]
            assert not w_class_witness(r2, n).detected


def test_cluster_state_m4_is_positive():
    value = _m4(cluster_linear())
    assert value == pytest.approx(4.0 / 81.0, abs=1e-12)


def _ghz3_design5(subset, t):
    (estimate,) = moments_design(ghz(3), [subset], [t], D5)
    return estimate


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gme_test_4(exact_moment_map(ghz(4), all_subsets(4)), 1.5), r"purity must lie in \(0, 1\], got 1.5"),
        (lambda: w_class_witness(1.5, 3), r"r2 must lie in \[0, 1\], got 1.5"),
        # an estimate of another order or party count than the criterion reads
        (lambda: bisep_line_3(_ghz3_design5((1, 2, 3), 4), _ghz3_design5((1, 2, 3), 2)), "r2 needs a second moment, got t=4"),
        (lambda: bisep_line_3(0.1, _ghz3_design5((1, 2, 3), 2)), "r4 needs a fourth moment, got t=2"),
        (lambda: bisep_line_3(_ghz3_design5((1, 2), 2), 0.1), r"r2 needs the moment of 3 parties, got subset \(1, 2\)"),
        (
            lambda: bisep_line_3(exact_moment_map(w_state(4), [(1, 2, 3)])[(1, 2, 3)],
                                 moments_design(w_state(4), [(2, 3, 4)], [4], D5)[0]),
            r"r2 and r4 must be moments of one subset, got \(1, 2, 3\) and \(2, 3, 4\)",
        ),
        (lambda: w_class_witness(_ghz3_design5((1, 2, 3), 4), 3), "r2 needs a second moment, got t=4"),
        (lambda: w_class_witness(_ghz3_design5((1, 2), 2), 3), r"r2 needs the moment of 3 parties, got subset \(1, 2\)"),
        (lambda: w_class_witness(0.1, 3.5), r"W class qubit count n must be an integer >= 3, got 3.5"),
        (lambda: w_class_chi(True), r"W class qubit count n must be an integer >= 3, got True"),
    ],
    ids=[
        "purity_above_one", "r2_above_one", "bisep3_swapped", "bisep3_r4_of_order_2", "bisep3_pair_r2",
        "bisep3_two_subsets",
        "wclass_r4", "wclass_pair_r2", "wclass_fractional_n", "chi_bool_n",
    ],
)
def test_criterion_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_bisep_line_notes_when_it_is_vacuous():
    assert bisep_line_3(0.9, 0.5).note.endswith("criterion vacuous here")


def test_verdict_derives_its_margin_and_decision():
    verdict = Verdict("c", 0.3, 0.1, 0.02)
    assert verdict.margin == 0.3 - 0.1 and verdict.detected
    # a margin of exactly DEFAULT_Z errors does not clear them
    at_z = Verdict("c", DEFAULT_Z * 0.25, 0.0, 0.25)
    assert at_z.margin == DEFAULT_Z * 0.25 and not at_z.detected
    # without a positive error the margin must clear DETECTION_ATOL
    for std_error in (None, 0.0):
        assert not Verdict("c", DETECTION_ATOL, 0.0, std_error).detected
        assert Verdict("c", 2 * DETECTION_ATOL, 0.0, std_error).detected
    with pytest.raises(TypeError):
        Verdict("c", 0.3, 0.1, 0.02, margin=0.2)


def _shot_estimates(rho, m, k, seed, subsets, orders):
    """``moments_from_shots`` of one seeded table of M settings and K shots."""
    table = simulate_shots(rho, random_settings(rho.n_qubits, m, RngStream(seed)), k, RngStream(seed, 1))
    return moments_from_shots(table, subsets, orders)


#: Finite-shot estimates outside [0, 1]: R2 = -0.1 (M = 20, K = 2) and
#: R4 = -0.2 (M = 10, K = 4) of product_zero:3, and the purity 1.012 of ghz:4
#: (M = 2,000, K = 20), which the unbiased estimators leave by their error.
NEGATIVE_R2 = _shot_estimates(product_zero(3), 20, 2, 18, [(1, 2, 3)], [2])[0]
R2_AT_K4, NEGATIVE_R4 = _shot_estimates(product_zero(3), 10, 4, 1, [(1, 2, 3)], [2, 4])
GHZ4_SHOTS = {e.subset: e for e in _shot_estimates(ghz(4), 2000, 20, 4, all_subsets(4), [2])}
GHZ4_DESIGN_T4 = {e.subset: e for e in moments_design(ghz(4), all_subsets(4), [4], D5)}
GHZ4_EXACT = exact_moment_map(ghz(4), all_subsets(4))


@pytest.mark.parametrize(
    "call, message",
    [
        # (a) every reader takes the finite-shot estimates the library returns
        (lambda: w_class_witness(NEGATIVE_R2, 3).statistic == NEGATIVE_R2.value == -0.1, None),
        (lambda: entanglement_by_length(NEGATIVE_R2, 3).statistic == 27 * NEGATIVE_R2.value < 0.0, None),
        (lambda: bisep_line_3(R2_AT_K4, NEGATIVE_R4).statistic == bisep_line_3_r4(R2_AT_K4.value) + 0.2, None),
        (lambda: gme_test_4(GHZ4_SHOTS, purity := purity_from_moments(GHZ4_SHOTS)).detected and purity > 1.0, None),
        # (b) no route returns a fourth moment where a second is read
        (lambda: gme_test_4(GHZ4_DESIGN_T4, 1.0), r"moment of subset \(1, 2, 3, 4\) needs a second moment, got t=4"),
        (lambda: purity_from_moments(GHZ4_DESIGN_T4), r"moment of subset \(1,\) needs a second moment, got t=4"),
        # (c) nor a plain moment outside [0, 1]
        (lambda: gme_test_4({**GHZ4_EXACT, (1, 2, 3, 4): 5.0}, 1.0), r"moment of subset \(1, 2, 3, 4\) must lie in \[0, 1\], got 5.0"),
        # (d) exact inputs keep their refusals
        (lambda: w_class_witness(-0.1, 3), r"r2 must lie in \[0, 1\], got -0.1"),
        (lambda: bisep_line_3(0.1, -0.2), r"r4 must lie in \[0, 1\], got -0.2"),
        (lambda: w_class_witness(-1e-8, 3), r"r2 must lie in \[0, 1\], got -1e-08"),
        (lambda: entanglement_by_length(-0.5), r"correlation length must be finite and non-negative, got -0.5"),
        (lambda: gme_test_4(GHZ4_EXACT, 1.0 + 1e-8), r"purity must lie in \(0, 1\], got 1.00000001"),
        (lambda: purity_from_moments({**GHZ4_EXACT, (2,): -0.1}), r"moment of subset \(2,\) must lie in \[0, 1\], got -0.1"),
    ],
    ids=[
        "wclass_negative_r2", "length_negative_r2", "bisep3_negative_r4", "gme4_purity_above_one",
        "gme4_design_t4", "purity_design_t4", "gme4_plain_r2_of_5",
        "wclass_plain_negative_r2", "bisep3_plain_negative_r4", "wclass_exact_below_zero", "length_negative",
        "gme4_exact_purity_above_one", "purity_plain_negative",
    ],
)
def test_readers_take_every_estimate_and_refuse_what_no_route_returns(call, message):
    if message is None:
        assert call()
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


#: Estimates of one setting (M = 1) carry no std_error, although they are
#: statistical: ghz:4 at K = 20, and ghz:3 at K = 4.
GHZ4_ONE_SETTING = {e.subset: e for e in _shot_estimates(ghz(4), 1, 20, 3, all_subsets(4), [2])}
GHZ3_R2, GHZ3_R4 = _shot_estimates(ghz(3), 1, 4, 3, [(1, 2, 3)], [2, 4])
NO_ERROR = "is a {} estimate without a std_error, which needs M >= 2 settings"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: purity_from_moments(GHZ4_ONE_SETTING), r"moment of subset \(1,\) " + NO_ERROR.format("finite_shot")),
        (lambda: gme_test_4(GHZ4_ONE_SETTING, 1.0), r"moment of subset \(1, 2, 3, 4\) " + NO_ERROR.format("finite_shot")),
        (lambda: bisep_line_3(GHZ3_R2, GHZ3_R4), "r2 " + NO_ERROR.format("finite_shot")),
        (lambda: w_class_witness(GHZ3_R2, 3), "r2 " + NO_ERROR.format("finite_shot")),
        (lambda: entanglement_by_length(GHZ3_R2), "a correlation length " + NO_ERROR.format("finite_shot")),
        (
            lambda: w_class_witness(MomentEstimate((1, 2, 3), 2, 0.5, None, "monte_carlo"), 3),
            "r2 " + NO_ERROR.format("monte_carlo"),
        ),
    ],
    ids=["purity", "gme4", "bisep3", "wclass", "length", "wclass_monte_carlo"],
)
def test_readers_refuse_a_statistical_estimate_without_an_error(call, message):
    # at M = 1, a missing error would otherwise be read as exact
    assert all(e.std_error is None for e in (*GHZ4_ONE_SETTING.values(), GHZ3_R2, GHZ3_R4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
