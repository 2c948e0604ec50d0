import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from randmeas import sampling
from randmeas.cli import main
from randmeas.sampling import (
    RngStream,
    as_direction_array,
    design_points,
    haar_unitaries,
    half_design,
    random_settings,
    sphere_monomial_integral,
    uniform_directions,
    validate_design,
    SphericalDesign,
)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _half_design_by_partner_search(design):
    """The pairwise partner search that half_design used to run, kept as
    an oracle for its sign rule."""
    pts = design.as_array()
    n = len(pts)
    used = np.zeros(n, dtype=bool)
    kept = []
    for i in range(n):
        if used[i]:
            continue
        partner = None
        for j in range(i + 1, n):
            if not used[j] and np.max(np.abs(pts[i] + pts[j])) < 1e-12:
                partner = j
                break
        if partner is None:
            raise ValueError(f"point set is not antipodally symmetric: no partner for point {i}")
        used[i] = used[partner] = True
        rep = pts[i]
        for component in rep:
            if component != 0.0:
                if component < 0.0:
                    rep = pts[partner]
                break
        kept.append(rep)
    return np.array(kept)


def _z_components(unitaries):
    # z component of the Bloch vector of U sigma_z U^dagger
    rotated = np.einsum("nab,bc,ndc->nad", unitaries, SIGMA_Z, unitaries.conj())
    return rotated[:, 0, 0].real


def test_rng_stream_is_deterministic_bitwise():
    a = haar_unitaries(RngStream(42, 7), 50)
    b = haar_unitaries(RngStream(42, 7), 50)
    np.testing.assert_array_equal(a, b)
    da = uniform_directions(RngStream(42, 7), 1000)
    db = uniform_directions(RngStream(42, 7), 1000)
    np.testing.assert_array_equal(da, db)


def test_rng_streams_are_uncorrelated():
    za = uniform_directions(RngStream(5, 0), 10_000)[:, 2]
    zb = uniform_directions(RngStream(5, 1), 10_000)[:, 2]
    assert abs(np.corrcoef(za, zb)[0, 1]) < 0.05


def test_rng_stream_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match="seed"):
        RngStream(-1)
    with pytest.raises(ValueError, match="stream_id"):
        RngStream(0, 2**64)


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2.0), True, "3"])
def test_rng_stream_refuses_non_integer_ids(bad):
    # Philox would key 1.5 as 1 while the stream recorded seed=1.5
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in 0..{2**64 - 1}, got {bad!r}")):
        RngStream(bad)
    with pytest.raises(ValueError, match=re.escape(f"stream_id must be an integer in 0..{2**64 - 1}, got {bad!r}")):
        RngStream(1, bad)


def test_rng_stream_accepts_numpy_integers():
    stream = RngStream(np.uint64(2**64 - 1), np.int32(3))
    np.testing.assert_array_equal(stream.generator().random(4), RngStream(2**64 - 1, 3).generator().random(4))


@pytest.mark.parametrize("m", [0, -1])
def test_random_settings_refuses_fewer_than_one_setting_before_any_draw(m, monkeypatch):
    draws = []
    monkeypatch.setattr(sampling, "_settings_blocks", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"samples M must be an integer >= 1, got {m}"):
        sampling.random_settings(3, m, RngStream(0))
    assert draws == []


def test_haar_unitaries_are_unitary():
    us = haar_unitaries(RngStream(1), 10_000)
    prods = np.einsum("nba,nbc->nac", us.conj(), us)
    assert np.max(np.abs(prods - np.eye(2))) < 1e-12


def test_haar_pushforward_z_is_uniform():
    us = haar_unitaries(RngStream(2), 100_000)
    z = _z_components(us)
    pvalue = stats.kstest(z, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue
    assert pvalue > 1e-3


def test_haar_mean_overlap_is_one_half():
    us = haar_unitaries(RngStream(3), 100_000)
    overlap = np.abs(us[:, 0, 0]) ** 2
    se = overlap.std(ddof=1) / np.sqrt(overlap.size)
    assert abs(overlap.mean() - 0.5) < 3 * se


def test_haar_left_invariance():
    us = haar_unitaries(RngStream(4), 100_000)
    v = haar_unitaries(RngStream(99), 1)[0]
    vu = np.einsum("ab,nbc->nac", v, us)
    pvalue = stats.ks_2samp(_z_components(us), _z_components(vu)).pvalue
    assert pvalue > 1e-3


def test_uniform_direction_properties():
    single = uniform_directions(RngStream(6), 1)
    assert single.shape == (1, 3)
    dirs = uniform_directions(RngStream(7), 1_000_000)
    norms = np.linalg.norm(dirs, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    z = dirs[:, 2]
    assert abs(z.mean()) < 0.004  # standard error 1/sqrt(3e6)
    z2 = z**2
    se = z2.std(ddof=1) / np.sqrt(z2.size)
    assert abs(z2.mean() - 1.0 / 3.0) < 3 * se


def _uniform_directions_stacked(rng, count):
    """The body that ``uniform_directions`` used to run, kept as a
    bit-equality oracle: every product over the whole draw, then stacked."""
    gen = sampling._generator(rng)
    z = gen.uniform(-1.0, 1.0, size=count)
    azimuth = gen.uniform(0.0, 2.0 * np.pi, size=count)
    radial = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([radial * np.cos(azimuth), radial * np.sin(azimuth), z], axis=1)


@pytest.mark.parametrize(
    "count, forced_rows",
    [(1, None), (7, None), (7, 3), (3_001, 3)]
    + [(count, rows) for count in (800_000, 800_003) for rows in (None, 1000, 32768)],
)
def test_uniform_directions_match_stacked_oracle(count, forced_rows, monkeypatch):
    if forced_rows:
        monkeypatch.setattr(sampling, "_CONTRACTION_ROWS", forced_rows)
    dirs = uniform_directions(RngStream(29, count), count)
    assert np.array_equal(dirs, _uniform_directions_stacked(RngStream(29, count), count))


@pytest.mark.parametrize("n", range(1, 9))
def test_settings_blocks_concatenate_to_random_settings(n):
    # odd M, so M * n covers every offset of the azimuth stream in a
    # four-word Philox step
    for m, rows in ((1, 1), (1, 5), (7, 3), (1_001, 1), (1_001, 1_000), (1_001, 1_001)):
        blocks = list(sampling._settings_blocks(RngStream(31, n), n, m, rows))
        assert [len(block) for block in blocks] == [min(rows, m - start) for start in range(0, m, rows)]
        stacked = _uniform_directions_stacked(RngStream(31, n), m * n).reshape(m, n, 3)
        assert np.array_equal(np.concatenate(blocks), stacked)


def test_random_settings_of_no_party_is_an_empty_table_per_setting():
    assert random_settings(0, 5, RngStream(1)).shape == (5, 0, 3)


def _draw_peak(draw):
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Bytes one 1,024-row block of a draw may hold for each party: its z,
#: azimuth and points, and the temporaries of the points, within 12 floats a
#: direction.
_DRAW_BLOCK_BYTES = sampling._CONTRACTION_ROWS * 12 * 8


@pytest.mark.parametrize("n", [1, 8])
def test_random_settings_memory_is_the_table_and_one_block(n):
    # Only the table, 24 bytes a direction, grows with M; one block's draw
    # comes on top.  Both sizes of M span several blocks.
    small, big = 10_000, 50_000
    peaks = {m: _draw_peak(lambda m=m: random_settings(n, m, RngStream(33))) for m in (small, big)}
    assert peaks[big] <= 24 * big * n + n * _DRAW_BLOCK_BYTES + 2**16
    assert peaks[big] - peaks[small] <= 24 * (big - small) * n + 2**12


def test_uniform_directions_memory_is_capped_by_the_block_budget():
    count = 800_000
    peak = _draw_peak(lambda: uniform_directions(RngStream(30), count))
    # the (count, 3) output holds 3 floats a row; one block's draw stays
    # within its own bytes, plus interpreter slack
    assert peak <= 3 * 8 * count + _DRAW_BLOCK_BYTES + 2**16


def test_uniform_direction_marginals_are_uniform():
    dirs = uniform_directions(RngStream(8), 100_000)
    z_pvalue = stats.kstest(dirs[:, 2], stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue
    assert z_pvalue > 1e-3
    azimuth = np.arctan2(dirs[:, 1], dirs[:, 0])
    az_pvalue = stats.kstest(
        azimuth, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf
    ).pvalue
    assert az_pvalue > 1e-3


def test_direction_validates_norm():
    with pytest.raises(ValueError, match="norm"):
        as_direction_array((1.0, 1.0, 0.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            as_direction_array((bad, 0.0, 0.0))
    with pytest.raises(ValueError, match="3 components"):
        as_direction_array((1.0, 0.0))
    np.testing.assert_array_equal(as_direction_array([[0.0, -1.0, 0.0]]), [0.0, -1.0, 0.0])


def test_norms_are_bit_equal_to_linalg_norm():
    draws = random_settings(3, 3_196, RngStream(5, 0))
    gen = np.random.default_rng(5)
    units = draws.reshape(-1, 3)
    off = units * (1.0 + gen.choice([-1e-13, 1e-13], size=(len(units), 1)))
    scaled = [units * 2.0**power for power in (-1074, -600, -520, 500, 600)]
    spread = gen.normal(size=(64, 3)) * 10.0 ** gen.uniform(-300, 300, size=(64, 1))
    with np.errstate(over="ignore", under="ignore"):
        for vectors in [draws, units, off, units[0], spread] + scaled:
            np.testing.assert_array_equal(sampling._norms(vectors), np.linalg.norm(vectors, axis=-1))
    sampling._check_unit_norm(off)
    with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
        sampling._check_unit_norm(units * (1.0 + 2e-12))


def test_design_points_octahedron():
    design = design_points(3)
    assert len(design.points) == 6
    arrays = design.as_array()
    assert any(np.allclose(p, [0.0, 0.0, 1.0]) for p in arrays)
    assert validate_design(design)["passed"]


def test_design_points_icosahedron():
    design = design_points(5)
    assert len(design.points) == 12
    norms = np.linalg.norm(design.as_array(), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    report = validate_design(design)
    assert report["passed"] and report["max_abs_deviation"] < 1e-12


def test_design_points_rejects_unsupported_degree():
    with pytest.raises(ValueError, match="3, 5"):
        design_points(4)


def test_octahedron_monomial_values():
    design = design_points(3)
    pts = design.as_array()
    # z^2: design average (1 + 1)/6 = 1/3 equals the sphere integral
    assert abs(np.mean(pts[:, 2] ** 2) - 1.0 / 3.0) < 1e-15
    assert sphere_monomial_integral(0, 0, 2) == pytest.approx(1.0 / 3.0)
    # x^2 y^2 at degree 4: design average 0, sphere integral 1/15
    report = validate_design(SphericalDesign(4, design.points))
    assert not report["passed"]
    entry = next(e for e in report["monomials"] if (e["a"], e["b"], e["c"]) == (2, 2, 0))
    assert entry["design_average"] == 0.0 and entry["exact_integral"] == pytest.approx(1.0 / 15.0)
    # odd monomial z: both sides vanish
    entry = next(e for e in report["monomials"] if (e["a"], e["b"], e["c"]) == (0, 0, 1))
    assert entry["design_average"] == 0.0 and entry["exact_integral"] == 0.0


def test_half_design_octahedron_keeps_positive_axes():
    half = half_design(design_points(3))
    arrays = sorted(tuple(p) for p in half)
    assert half.shape == (3, 3)
    assert np.allclose(arrays, [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])


def test_half_design_icosahedron_and_even_average():
    design = design_points(5)
    half = half_design(design)
    assert half.shape == (6, 3)
    full_avg = np.mean(design.as_array()[:, 2] ** 2)
    half_avg = np.mean(half[:, 2] ** 2)
    assert abs(full_avg - half_avg) < 1e-14


@pytest.mark.parametrize("degree", [3, 5])
def test_half_design_sign_rule_matches_partner_search(degree):
    design = design_points(degree)
    np.testing.assert_array_equal(half_design(design), _half_design_by_partner_search(design))


def test_half_design_rejects_non_antipodal():
    lopsided = SphericalDesign(1, np.eye(3))
    for halve in (half_design, _half_design_by_partner_search):
        with pytest.raises(ValueError, match="antipodal"):
            halve(lopsided)


def test_spherical_design_points_are_a_checked_read_only_array():
    design = SphericalDesign(1, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert design.points.shape == (2, 3)
    np.testing.assert_array_equal(design.as_array(), [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        design.points[0, 0] = 0.5
    with pytest.raises(ValueError, match="norm"):
        SphericalDesign(1, np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))


def test_spherical_design_keeps_a_degree_its_points_fall_short_of():
    # validate_design is what reports the shortfall, so the design itself accepts it.
    design = SphericalDesign(np.int64(4), design_points(3).points)
    assert design.degree == 4 and type(design.degree) is int
    assert not validate_design(design)["passed"]


def test_design_csv_round_trip(tmp_path):
    assert main(["design", "--order", "5", "--output", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "design.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows, design_points(5).points)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sampling._generator(3), TypeError, "expected RngStream or numpy Generator"),
        (
            lambda: SphericalDesign(3, np.ones((4, 2))),
            ValueError,
            r"design points must have shape \(N, 3\), got \(4, 2\)",
        ),
        (lambda: random_settings(2, 2.5, RngStream(1)), ValueError, "samples M must be an integer >= 1, got 2.5"),
        (lambda: random_settings(2, True, RngStream(1)), ValueError, "samples M must be an integer >= 1, got True"),
        (lambda: uniform_directions(RngStream(1), 0), ValueError, "samples M must be an integer >= 1, got 0"),
    ]
    + [
        (lambda degree=degree: SphericalDesign(degree, np.eye(3)), ValueError,
         rf"^design degree must be an integer >= 1, got {re.escape(repr(degree))}$")
        for degree in (-1, 0, 2.5, True, "3")
    ],
    ids=["not_a_generator", "design_shape", "fractional_samples", "bool_samples", "no_directions"]
    + [f"design_degree_{name}" for name in ("negative", "zero", "fractional", "bool", "text")],
)
def test_sampling_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
