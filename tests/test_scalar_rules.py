"""One rule per scalar kind: every integer the library takes passes through
``states._check_int`` and every bounded real through ``states._check_real``.

Each entry point below refuses a bool, a fraction, an integral float and a
string, and accepts a numpy integer, whatever rule it applies after that.
"""

import re

import numpy as np
import pytest

from randmeas.correlations import CorrelationTensor, analytic_pdf, correlation, normalize_subset, sample_distribution
from randmeas.criteria import w_class_chi
from randmeas.moments import (
    MomentEstimate,
    moments_design,
    moments_from_shots,
    moments_mc,
    purity_from_moments,
    simulate_shots,
)
from randmeas.sampling import RngStream, SphericalDesign, design_points, random_settings
from randmeas.states import ghz, product_zero, w_state, werner

OCTAHEDRON = design_points(3).points
SHOTS = simulate_shots(ghz(2), random_settings(2, 5, RngStream(1)), 4, RngStream(2))

#: entry point -> (call taking the scalar, a valid value for it)
ENTRY_POINTS = {
    "normalize_subset": (lambda v: normalize_subset((v,), 3), 2),
    "estimate_subset": (lambda v: MomentEstimate((v,), 2, 0.5, None, "design"), 2),
    "estimate_order": (lambda v: MomentEstimate((1,), v, 0.5, None, "design"), 2),
    "moments_mc_order": (lambda v: moments_mc(ghz(2), [(1, 2)], [v], 10, RngStream(1)), 2),
    "moments_mc_m": (lambda v: moments_mc(ghz(2), [(1, 2)], [2], v, RngStream(1)), 2),
    "moments_design_order": (lambda v: moments_design(ghz(2), [(1, 2)], [v], design_points(3)), 2),
    "moments_from_shots_order": (lambda v: moments_from_shots(SHOTS, [(1, 2)], [v]), 2),
    "simulate_shots_k": (lambda v: simulate_shots(ghz(2), random_settings(2, 3, RngStream(1)), v, RngStream(2)), 2),
    "random_settings_m": (lambda v: random_settings(2, v, RngStream(1)), 2),
    "sample_distribution_m": (lambda v: sample_distribution(ghz(2), (1, 2), v, RngStream(1)), 2),
    "design_degree": (lambda v: SphericalDesign(v, OCTAHEDRON), 2),
    "design_points_degree": (design_points, 3),
    "seed": (lambda v: RngStream(v), 2),
    "stream_id": (lambda v: RngStream(1, v), 2),
    "product_zero_n": (product_zero, 2),
    "ghz_n": (ghz, 2),
    "w_state_n": (w_state, 2),
    "w_class_chi_n": (w_class_chi, 3),
    "werner_p": (werner, 1),
    "analytic_pdf_p": (lambda v: analytic_pdf("werner", v), 1),
}

BAD_SCALARS = {"bool": True, "fraction": 2.5, "integral_float": 2.0, "text": "2"}


@pytest.mark.parametrize("bad", BAD_SCALARS.values(), ids=BAD_SCALARS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_non_integer_scalars(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(f", got {bad!r}") + "$"):
        call(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_accept_numpy_integers(entry):
    call, good = ENTRY_POINTS[entry]
    call(np.int64(good))


def test_checked_integers_are_stored_as_python_ints():
    stream = RngStream(np.int64(3), np.uint64(4))
    estimate = MomentEstimate((np.int64(2),), np.int32(2), 0.5, None, "design")
    design = SphericalDesign(np.int16(3), OCTAHEDRON)
    assert (stream.seed, stream.stream_id, estimate.subset, estimate.order, design.degree) == (3, 4, (2,), 2, 3)
    assert all(type(x) is int for x in (stream.seed, stream.stream_id, *estimate.subset, estimate.order, design.degree))


# A fractional, boolean or text party used to be cast by int(), so these were
# answered for the wrong subset instead of refused.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normalize_subset((1.5, 2.9), 3), "party must be an integer in 1..3, got 1.5"),
        (lambda: normalize_subset((True, 2), 3), "party must be an integer in 1..3, got True"),
        (lambda: moments_mc(ghz(3), [("2",)], [2], 100, RngStream(1)), "party must be an integer in 1..3, got '2'"),
        (lambda: purity_from_moments({(1.2,): 0.0, (2.6,): 0.0, (1, 2): 1 / 9}), "party must be an integer in 1..8, got 1.2"),
        (lambda: correlation(ghz(2), {1.5: (0.0, 0.0, 1.0)}), "party must be an integer in 1..2, got 1.5"),
        (lambda: CorrelationTensor((1.7,), np.zeros(3)), "party must be an integer in 1..8, got 1.7"),
    ],
    ids=["fractional_parties", "bool_party", "text_party_mc", "fractional_moment_keys", "fractional_direction_key",
         "fractional_tensor_subset"],
)
def test_non_integer_parties_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: werner(np.True_), f"parameter p must be a real number, got {np.True_!r}"),
        (lambda: analytic_pdf("werner", "0.5"), "parameter p must be a real number, got '0.5'"),
        (lambda: analytic_pdf("werner", float("nan")), "parameter p must be finite, got nan"),
        (lambda: werner(-0.1), "parameter p must lie in [0, 1], got -0.1"),
    ],
    ids=["numpy_bool_p", "text_density_p", "nan_density_p", "negative_p"],
)
def test_bounded_reals_have_one_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("degree", [3.0, np.float64(5.0)])
def test_design_points_refuses_an_integral_float_of_a_built_in_degree(degree):
    # 3.0 == 3 used to find the octahedron in the degree table
    with pytest.raises(ValueError, match=f"^design degree must be an integer >= 1, got {re.escape(repr(degree))}$"):
        design_points(degree)
