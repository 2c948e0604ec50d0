import re
import threading
import tracemalloc
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from randmeas import correlations, moments, sampling
from randmeas.correlations import (
    CorrelationTensor,
    SampleSet,
    _block_rows,
    _slab,
    _subset_values,
    correlation,
    correlation_length,
    correlation_tensor,
    pauli_coefficients,
    sample_distribution,
)
from randmeas.moments import (
    MomentEstimate,
    _power,
    _shot_weights,
    _check_mc_samples,
    _check_order,
    ShotTable,
    all_subsets,
    bootstrap_error,
    exact_moment_map,
    moment_exact_t2,
    moments_design,
    moments_from_shots,
    moments_mc,
    purity_from_moments,
    simulate_shots,
)
from randmeas.sampling import (
    _BLOCK_BYTES,
    MAX_TABLE_BYTES,
    RngStream,
    SphericalDesign,
    _generator,
    design_points,
    half_design,
    random_settings,
    uniform_directions,
)
from randmeas.states import (
    DensityMatrix,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    product_zero,
    trisep4,
    w_state,
    werner,
)

from matrix_oracles import purity_direct, random_density_matrix

D3 = design_points(3)
D5 = design_points(5)


def _rotated_octahedron() -> SphericalDesign:
    """The octahedron under a fixed rotation: a 3-design whose half is not
    the unit axes, so its sums take the grid products."""
    rotation, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    return SphericalDesign(3, np.concatenate([rotation, -rotation]))


D3_ROTATED = _rotated_octahedron()
E_Z = np.array([0.0, 0.0, 1.0])


def _record_block_rows(monkeypatch, module):
    """Let ``module`` size its blocks by the shared byte budget, recording
    every rows-per-block answer."""
    answers = []

    def recorded(row_bytes):
        answers.append(_block_rows(row_bytes))
        return answers[-1]

    monkeypatch.setattr(module, "_block_rows", recorded)
    return answers


def test_moment_mc_bell_second_moment():
    (est,) = moments_mc(bell_psi_minus(), [(1, 2)], (2,), 50_000, RngStream(30))
    assert abs(est.value - 1.0 / 3.0) < 4 * est.std_error
    assert est.method == "monte_carlo" and est.samples == 50_000
    assert est.seed == (30, 0)


def test_moment_mc_product_second_moment():
    (est,) = moments_mc(product_zero(2), [(1, 2)], (2,), 50_000, RngStream(31))
    assert abs(est.value - 1.0 / 9.0) < 4 * est.std_error


def test_moment_mc_point_mass_has_zero_error():
    (est,) = moments_mc(werner(0.0), [(1, 2)], (4,), 1000, RngStream(32))
    assert est.value == 0.0 and est.std_error == 0.0


def test_moment_mc_validation(monkeypatch):
    draws = []
    monkeypatch.setattr(moments, "random_settings", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="samples M must be an integer >= 2, got 1"):
        moments_mc(bell_psi_minus(), [(1, 2)], (2,), 1, RngStream(33))
    with pytest.raises(ValueError, match="moment order t must be an integer >= 1, got 0"):
        moments_mc(bell_psi_minus(), [(1, 2)], (0,), 10, RngStream(33))
    with pytest.raises(ValueError, match=r"party must be an integer in 1\.\.2, got 3"):
        moments_mc(bell_psi_minus(), [(1,), (1, 3)], (2,), 10, RngStream(33))
    assert draws == []


def test_moment_mc_bootstrap_error_is_close_to_plugin():
    m = 20_000
    (plain,) = moments_mc(bell_psi_minus(), [(1, 2)], (2,), m, RngStream(34))
    boot = bootstrap_error(plain)
    assert boot.value == plain.value and boot.seed == plain.seed
    assert boot.std_error == pytest.approx(plain.std_error * np.sqrt((m - 1) / m), rel=1e-15)


def test_bootstrap_error_refuses_exact_and_shot_estimates():
    for method, std_error in (("design", None), ("exact_tensor", None), ("finite_shot", 0.01)):
        estimate = MomentEstimate((1, 2), 2, 0.3, std_error, method, 100)
        with pytest.raises(ValueError, match=f"applies to monte_carlo estimates, got {method}"):
            bootstrap_error(estimate)


@pytest.mark.parametrize(
    "samples, std_error, message",
    [
        (None, 0.1, "samples M must be an integer >= 2, got None"),
        (5, None, "a bootstrap error needs the estimate's std_error"),
        (1, 0.1, "samples M must be an integer >= 2, got 1"),
    ],
    ids=["no_samples", "no_std_error", "one_setting"],
)
def test_bootstrap_error_refuses_records_it_cannot_rescale(samples, std_error, message):
    # sqrt((M - 1) / M) needs M >= 2, and at M = 1 it would zero the error
    with pytest.raises(ValueError, match=f"^{message}$"):
        bootstrap_error(MomentEstimate((1,), 2, 0.5, std_error, "monte_carlo", samples))


def _moments_mc_bootstrap(*args):
    """``moments_mc`` with every standard error turned into the bootstrap one."""
    return [bootstrap_error(e) for e in moments_mc(*args)]


def _moments_mc_oracle(samples, subset, orders, bootstrap=False):
    """The single-subset ``moments_mc`` that read one SampleSet of
    ``subset``: sample means of E^t with plug-in standard errors or, with
    ``bootstrap``, the 1/M-normalised spread over sqrt(M)."""
    orders = [_check_order(t) for t in orders]
    m = samples.settings_count
    _check_mc_samples(m)
    powers = [_power(samples.values, t) for t in orders]
    return [
        MomentEstimate(
            subset, t, float(power.mean()), float(power.std(ddof=0 if bootstrap else 1) / np.sqrt(m)),
            "monte_carlo", m,
        )
        for t, power in zip(orders, powers)
    ]


def _bootstrap_std_error_oracle(samples, orders, resamples, rng):
    """The resampling bootstrap that ``moments_mc`` used to run: for each
    order, the spread of ``resamples`` means of M powers drawn with
    replacement.  One draw of index rows, in blocks under the shared byte
    budget, serves every order."""
    powers = [_power(samples.values, t) for t in orders]
    m = samples.settings_count
    gen = _generator(rng)
    means = np.empty((len(powers), resamples))
    rows = _block_rows(16 * m)
    for start in range(0, resamples, rows):
        idx = gen.integers(0, m, size=(min(rows, resamples - start), m))
        for row, power in zip(means, powers):
            row[start : start + len(idx)] = power[idx].mean(axis=1)
    return [float(row.std(ddof=1)) for row in means]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bootstrap_error_is_the_spread_over_every_resample(m):
    """The ideal bootstrap enumerated: the population spread of the means
    of all M^M index tuples drawn with replacement."""
    rho = random_density_matrix(3, RngStream(36, m))
    subset = (1, 3)
    orders = (1, 2, 4)
    boot = _moments_mc_bootstrap(rho, [subset], orders, m, RngStream(37, m))
    values = _subset_values(rho, subset, [random_settings(2, m, RngStream(37, m))], m)
    idx = np.array(np.meshgrid(*[np.arange(m)] * m, indexing="ij")).reshape(m, -1).T
    for estimate, t in zip(boot, orders):
        spread = _power(values, t)[idx].mean(axis=1).std(ddof=0)
        assert spread > 0.0
        assert estimate.std_error == pytest.approx(spread, rel=1e-15, abs=0.0)


def test_bootstrap_error_matches_resampling():
    """4000 resamples estimate the ideal bootstrap error with relative noise
    about 1/sqrt(2 (B - 1)) = 1.1%; 7% is about six times that."""
    m, resamples = 20_000, 4000
    samples = sample_distribution(ghz(3), (1, 2, 3), m, RngStream(38))
    boot = _moments_mc_bootstrap(ghz(3), [(1, 2, 3)], (2, 4), m, RngStream(38))
    resampled = _bootstrap_std_error_oracle(samples, (2, 4), resamples, RngStream(39))
    for estimate, oracle in zip(boot, resampled):
        assert estimate.std_error == pytest.approx(oracle, rel=0.07)


@pytest.mark.parametrize("m", [2, 3, 20_000])
def test_shared_row_bootstrap_matches_per_order_calls(m):
    for call in (_moments_mc_bootstrap, moments_mc):
        shared = call(ghz(3), [(1, 2, 3)], (2, 4), m, RngStream(40, m))
        for t, estimate in zip((2, 4), shared):
            (alone,) = call(ghz(3), [(1, 2, 3)], (t,), m, RngStream(40, m))
            assert estimate.to_dict() == alone.to_dict()


@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "plugin"])
def test_every_subset_reads_its_columns_of_one_table(bootstrap):
    rho = random_density_matrix(4, RngStream(82))
    subsets = [(2, 4), (1,), (1, 2, 4), (4,)]
    m, orders = 3000, (1, 2, 4)
    got = (_moments_mc_bootstrap if bootstrap else moments_mc)(rho, subsets, orders, m, RngStream(83))
    union = [1, 2, 4]
    table = random_settings(len(union), m, RngStream(83))
    expected = []
    rows = correlations._CONTRACTION_ROWS
    for subset in subsets:
        columns = table[:, [union.index(p) for p in subset]]
        samples = SampleSet(_subset_values(rho, subset, np.split(columns, range(rows, m, rows)), m))
        expected += _moments_mc_oracle(samples, subset, orders, bootstrap)
    assert [(e.subset, e.order) for e in got] == [(e.subset, e.order) for e in expected]
    for estimate, oracle in zip(got, expected):
        assert estimate.value == oracle.value
        # exact for the plug-in error; the bootstrap error is the plug-in one
        # times sqrt((M - 1) / M), within a few ulps of the oracle's 1/M spread
        assert estimate.std_error == pytest.approx(oracle.std_error, rel=1e-15 if bootstrap else 0.0, abs=0.0)
        assert (estimate.samples, estimate.seed) == (m, (83, 0))


def test_monte_carlo_of_no_subset_is_empty():
    assert moments_mc(ghz(3), [], (2,), 10, RngStream(84)) == []


def test_monte_carlo_memory_is_the_table_and_a_few_value_columns():
    rho = ghz(8)
    rho.pauli  # cached on the state, not part of the estimate
    m, n = 10**5, 8
    tracemalloc.start()
    try:
        moments_mc(rho, [range(1, n + 1)], (2, 4), m, RngStream(85))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The table holds 24 bytes a direction; the values, one power and the
    # spread's temporary 8 bytes a setting each; one block's draw or
    # contraction stays within the budget.  No subset copies its whole
    # columns.
    assert peak <= 24 * m * n + 4 * 8 * m + _BLOCK_BYTES


def test_moment_exact_t2_values():
    assert moment_exact_t2(
        correlation_tensor(bell_psi_minus(), (1, 2))
    ).value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert moment_exact_t2(
        correlation_tensor(product_zero(2), (1, 2))
    ).value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert moment_exact_t2(
        correlation_tensor(ghz(4), (1, 2, 3, 4))
    ).value == pytest.approx(1.0 / 9.0, abs=1e-12)


def _exact_moment_map_oracle(rho, subsets):
    """The tensor-copy route: one validated CorrelationTensor copy per
    subset, summed by ``moment_exact_t2``."""
    return {s: moment_exact_t2(correlation_tensor(rho, s)) for s in subsets}


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_moment_map_is_bit_equal_to_per_subset_tensors(n):
    states = [random_density_matrix(n, RngStream(7, n))]
    if n >= 2:
        states += [ghz(n), w_state(n)]
    subsets = all_subsets(n)
    # the non-canonical [n, 1] is keyed (1, n), in the order asked
    asked = [[n, 1], *subsets] if n >= 2 else subsets
    for rho in states:
        got, oracle = exact_moment_map(rho, asked), _exact_moment_map_oracle(rho, subsets)
        assert list(got) == list(dict.fromkeys(tuple(sorted(s)) for s in asked))
        for subset, expected in oracle.items():
            assert got[subset].value == expected.value
            assert (got[subset].method, got[subset].std_error) == ("exact_tensor", None)
            assert correlation_length(rho, subset) == float(np.sum(correlation_tensor(rho, subset).components ** 2))


def test_moment_design_matches_exact_tensor():
    for state, subset in [
        (bell_psi_minus(), (1, 2)),
        (ghz(4), (1, 2, 3, 4)),
        (w_state(3), (1, 3)),
    ]:
        exact = exact_moment_map(state, [subset])[subset].value
        via_design = moments_design(state, [subset], [2], D3)[0].value
        assert abs(via_design - exact) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_state_pauli_is_one_read_only_pass(n):
    rho = random_density_matrix(n, RngStream(42, n))
    coefficients = rho.pauli
    assert np.array_equal(coefficients, pauli_coefficients(rho))
    assert rho.pauli is coefficients
    with pytest.raises(ValueError, match="read-only"):
        coefficients[(0,) * n] = 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_moment_design_with_precomputed_coefficients_is_bit_equal(n):
    # every sum reads the tensor cached on ``rho``; each fresh copy makes its own pass
    rho = random_density_matrix(n, RngStream(42, n))
    for subset in all_subsets(n):
        for t, design in ((2, D3), (3, D3), (4, D5)):
            if len(design.points) ** len(subset) > 12**4:
                continue  # 12^5 and more tuples: the 3-design sums cover them
            shared = moments_design(rho, [subset], [t], design)[0].value
            fresh = DensityMatrix(rho.matrix)
            assert np.array_equal(shared, moments_design(fresh, [subset], [t], design)[0].value)


def test_moment_design_fourth_moment_against_monte_carlo():
    rho = ghz(3)
    (exact,) = moments_design(rho, [(1, 2, 3)], [4], D5)
    (mc,) = moments_mc(rho, [(1, 2, 3)], (4,), 1_000_000, RngStream(36))
    assert abs(exact.value - mc.value) < 4 * mc.std_error
    # frozen analytic value for the three-qubit GHZ fourth moment
    assert exact.value == pytest.approx(64.0 / 1125.0, abs=1e-12)


def _float_power_chain(value: float, t: int) -> float:
    """((v * v) * v) * ... in Python floats, which numpy's CPU dispatch
    does not reach."""
    power = value
    for _ in range(t - 1):
        power *= value
    return power


@pytest.mark.parametrize("t", range(1, 7))
def test_power_is_bit_equal_to_a_float_product_chain(t):
    tiny = np.finfo(float).tiny
    values = np.array(
        [0.0, -0.0, 1.0, -1.0, 0.5, -0.7, 1e-30, -1e-60, 1e-300, tiny, -tiny, 5e-324, 0.999999]
        + list(np.random.default_rng(t).uniform(-1.0, 1.0, 64))
    )
    got = _power(values, t)
    expected = np.array([_float_power_chain(float(v), t) for v in values])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert got is not values and np.array_equal(values[:4], [0.0, -0.0, 1.0, -1.0])
    if t == 2:
        assert np.array_equal((values**2).view(np.uint64), got.view(np.uint64))


def _design_values(rho, subset, points):
    """E on every direction tuple of ``points``, in the grid's order."""
    grid = _slab(rho.pauli, subset, slice(1, 4))
    for _ in range(len(subset)):
        grid = np.tensordot(grid, points, axes=(0, 1))
    return grid.ravel()


def _design_moments_by_tensordot(rho, subsets, orders, design):
    """Oracle: ``moments_design``'s values with every grid built by the
    tensordot loop of ``_design_values``."""
    half = half_design(design)
    means = []
    for subset in subsets:
        values = _design_values(rho, subset, half)
        means += [float(np.sum(_power(values, t)) / values.size) if t % 2 == 0 else 0.0 for t in orders]
    return means


@pytest.mark.parametrize("n", range(1, 9))
def test_design_moments_equal_the_tensordot_oracle(n):
    states = [random_density_matrix(n, RngStream(47, n))]
    if n >= 2:
        states += [ghz(n), w_state(n)]
    subsets = all_subsets(n) if n <= 6 else [(2,), (1, n), (2, 3, n), (1, 3, 4, 6, n), tuple(range(1, n + 1))]
    for rho in states:
        for design in (D3, D3_ROTATED, D5):
            orders = range(1, design.degree + 1)
            got = [est.value for est in moments_design(rho, subsets, orders, design)]
            assert np.array_equal(got, _design_moments_by_tensordot(rho, subsets, orders, design))


def test_octahedron_sums_read_the_slab_with_no_matrix_product(monkeypatch):
    """The octahedron's half is bitwise the unit axes, so its sums take the
    slab as the grid; any other design, a rotated octahedron too, keeps the
    products."""
    half = half_design(D3)
    assert half.shape == (3, 3) and np.array_equal(half.view(np.uint64), np.eye(3).view(np.uint64))
    assert not np.array_equal(half_design(D3_ROTATED), np.eye(3))
    rho = random_density_matrix(4, RngStream(48))
    rho.pauli  # the Pauli pass runs before the products are counted
    products, dot = [], np.dot
    monkeypatch.setattr(np, "dot", lambda *args: products.append(1) or dot(*args))
    moments_design(rho, all_subsets(4), [1, 2, 3], D3)
    assert products == []
    moments_design(rho, [(1, 2)], [2], D3_ROTATED)
    assert len(products) == 2


def _full_design_moment(rho, subset, t, design):
    """Oracle: the mean of E^t over every tuple of the full design, odd t
    included, with no use of antipodal symmetry."""
    values = _design_values(rho, subset, design.points)
    return float(np.sum(_power(values, t)) / values.size)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_design_moment_matches_the_full_design_oracle(n):
    states = [random_density_matrix(n, RngStream(46, n))]
    if n >= 2:
        states += [ghz(n), w_state(n)]
    for rho in states:
        for design in (D3, D5):
            orders = range(1, design.degree + 1)
            subsets = all_subsets(n)
            got = iter(moments_design(rho, subsets, orders, design))
            for subset in subsets:
                for t in orders:
                    est = next(got)
                    assert (est.subset, est.order) == (subset, t)
                    assert abs(est.value - _full_design_moment(rho, subset, t, design)) <= 1e-15
                    if t % 2:
                        assert est.value == 0.0 and not np.signbit(est.value)


def test_design_moment_refuses_a_caller_design_over_the_cap_before_any_grid(monkeypatch):
    grids = []
    monkeypatch.setattr(moments, "_slab", lambda *args: grids.append(args))
    # 30 antipodal pairs: 30^5 tuples exceed MAX_DESIGN_TUPLES
    pairs = uniform_directions(RngStream(47), 30)
    design = SphericalDesign(5, np.concatenate([pairs, -pairs]))
    with pytest.raises(ValueError, match=r"design sum over 30\^5 tuples exceeds MAX_DESIGN_TUPLES"):
        moments_design(ghz(5), [(1, 2, 3, 4, 5)], [2], design)
    assert grids == []


def test_design_moment_refuses_a_design_short_of_its_declared_degree():
    # the octahedron declared a 5-design would give 0.3333 for the exact 0.2
    design = SphericalDesign(5, D3.points)
    with pytest.raises(ValueError, match=r"design points fail their declared degree 5 \(max deviation 1\.333e-01\)"):
        moments_design(ghz(2), [(1, 2)], [4], design)


def test_design_validation_runs_once_per_design(monkeypatch):
    runs, real = [], sampling.validate_design
    monkeypatch.setattr(sampling, "validate_design", lambda design: runs.append(design) or real(design))
    design = SphericalDesign(5, D5.points)
    for _ in range(3):
        moments_design(ghz(2), [(1, 2)], [2, 4], design)
    assert runs == [design]
    assert design_points(5) is design_points(5) and design_points(3) is D3


def _assert_near_pow_oracle(value, values, t):
    """``value`` is the mean of values^t to 4 ulps of the mean of |values|^t,
    the oracle being numpy's ``**`` (bit-equal at t <= 2)."""
    powers = values**t
    expected = float(np.sum(powers) / values.size)
    if t <= 2:
        assert value == expected
    else:
        scale = float(np.sum(np.abs(powers)) / values.size)
        assert abs(value - expected) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_product_chain_moments_match_the_pow_oracle(n):
    states = [ghz(n), w_state(n), random_density_matrix(n, RngStream(43, n))]
    for rho in states:
        for design in (D3, D5):
            # odd design moments are exactly 0, with no power taken
            orders = [t for t in (2, 4) if t <= design.degree]
            half = half_design(design)
            for subset in all_subsets(n):
                values = _design_values(rho, subset, half)
                for t, est in zip(orders, moments_design(rho, [subset], orders, design)):
                    _assert_near_pow_oracle(est.value, values, t)
        for subset in all_subsets(n):
            samples = sample_distribution(rho, subset, 500, RngStream(44, n))
            for est in moments_mc(rho, [subset], (2, 3, 4, 5), 500, RngStream(44, n)):
                _assert_near_pow_oracle(est.value, samples.values, est.order)


def test_multi_order_design_moment_is_bit_equal_to_single_orders():
    rho = random_density_matrix(4, RngStream(45))
    subsets = [(2,), (1, 3), (1, 2, 4), (1, 2, 3, 4)]
    for design, orders in ((D3, (3, 1, 2, 2)), (D5, (2, 3, 4, 5, 1))):
        shared = moments_design(rho, subsets, orders, design)
        assert [(e.subset, e.order) for e in shared] == [(s, t) for s in subsets for t in orders]
        for est in shared:
            (single,) = moments_design(rho, [est.subset], [est.order], design)
            assert est.to_dict() == single.to_dict()
    with pytest.raises(ValueError, match="degree 3 < t=4"):
        moments_design(rho, [(1, 2)], (2, 4), D3)


def test_moment_design_rejects_insufficient_degree():
    with pytest.raises(ValueError, match="design order insufficient"):
        moments_design(ghz(3), [(1, 2, 3)], [4], D3)


def test_half_design_moments_match_full():
    for rho, subset, t, design, exact in [
        (bell_psi_minus(), (1, 2), 2, D3, 1.0 / 3.0),
        (ghz(3), (1, 2, 3), 4, D5, 64.0 / 1125.0),
        (product_zero(2), (1, 2), 2, D3, 1.0 / 9.0),
    ]:
        half = moments_design(rho, [subset], [t], design)[0].value
        assert abs(half - _full_design_moment(rho, subset, t, design)) < 1e-13
        assert half == pytest.approx(exact, abs=1e-13)


def test_overcomplete_design_consistency():
    for state, subset in [(bell_psi_minus(), (1, 2)), (ghz(4), (1, 2, 3, 4))]:
        with_3 = moments_design(state, [subset], [2], D3)[0].value
        with_5 = moments_design(state, [subset], [2], D5)[0].value
        assert abs(with_3 - with_5) < 1e-12


def test_oracle_triangle_small_scale():
    for state, subset in [(bell_psi_minus(), (1, 2)), (ghz(3), (1, 2, 3))]:
        exact = exact_moment_map(state, [subset])[subset].value
        via_design = moments_design(state, [subset], [2], D3)[0].value
        assert abs(exact - via_design) < 1e-12
        (mc,) = moments_mc(state, [subset], (2,), 50_000, RngStream(37))
        assert abs(mc.value - exact) < 4 * mc.std_error


def test_vanishing_second_moment_implies_vanishing_fourth():
    for n in (2, 3):
        white = DensityMatrix(np.eye(2**n) / 2**n)
        full = tuple(range(1, n + 1))
        r2 = exact_moment_map(white, [full])[full].value
        assert r2 < 1e-12
        assert moments_design(white, [full], [4], D5)[0].value < 1e-10


# ---------------------------------------------------------------------------
# Finite shots
# ---------------------------------------------------------------------------

def test_simulate_shots_deterministic_outcomes():
    settings = np.array([[E_Z, E_Z]])
    table = simulate_shots(product_zero(2), settings, 25, RngStream(38))
    assert np.all(table.outcomes == 1)


def test_simulate_shots_singlet_is_anticorrelated():
    u = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    settings = np.array([[u, u]])
    table = simulate_shots(bell_psi_minus(), settings, 50, RngStream(39))
    products = table.outcomes.prod(axis=2)
    assert np.all(products == -1)


def test_simulate_shots_white_noise_is_unbiased_coin():
    white = DensityMatrix(np.eye(4) / 4)
    settings = random_settings(2, 1, RngStream(40))
    k = 10_000
    table = simulate_shots(white, settings, k, RngStream(41))
    mean = table.outcomes.prod(axis=2).mean()
    assert abs(mean) < 4 / np.sqrt(k)


def test_simulate_shots_empirical_correlation_converges():
    rho = w_state(3)
    settings = random_settings(3, 5, RngStream(42))
    table = simulate_shots(rho, settings, 40_000, RngStream(43))
    empirical = table.outcomes.prod(axis=2).mean(axis=1)
    for setting, estimate in zip(settings, empirical):
        exact = correlation(rho, {j + 1: setting[j] for j in range(3)})
        assert abs(estimate - exact) < 5 / np.sqrt(40_000)


def test_estimator_deterministic_case_is_exact():
    settings = np.array([[E_Z, E_Z]])
    table = simulate_shots(product_zero(2), settings, 7, RngStream(44))
    assert moments_from_shots(table, [(1, 2)], [2])[0].value == 1.0


def test_estimator_single_setting_fourth_order():
    settings = np.array([[E_Z, E_Z]])
    table = simulate_shots(product_zero(2), settings, 5, RngStream(45))
    (est,) = moments_from_shots(table, [(1, 2)], [4])
    assert est.value == 1.0 and est.std_error is None


def test_estimator_requires_enough_shots():
    settings = random_settings(2, 3, RngStream(46))
    table = simulate_shots(bell_psi_minus(), settings, 2, RngStream(47))
    with pytest.raises(ValueError, match="at least t shots"):
        moments_from_shots(table, [(1, 2)], [3])


def test_estimator_t2_matches_closed_form():
    # U-statistic at t=2 reduces to (K Ehat^2 - 1)/(K - 1) per setting
    settings = random_settings(2, 200, RngStream(48))
    table = simulate_shots(werner(0.7), settings, 6, RngStream(49))
    products = table.outcomes.prod(axis=2)
    ehat = products.mean(axis=1)
    k = 6
    closed = ((k * ehat**2 - 1.0) / (k - 1.0)).mean()
    (est,) = moments_from_shots(table, [(1, 2)], [2])
    assert abs(est.value - closed) < 1e-12


@pytest.mark.parametrize("t,k", [(2, 2), (2, 5), (2, 20), (4, 5), (4, 20)])
def test_estimator_is_unbiased(t, k):
    # 500 repetitions of 200 settings each, pooled into one table
    rho = bell_psi_minus()
    n_settings = 500 * 200
    settings = random_settings(2, n_settings, RngStream(50 + t))
    table = simulate_shots(rho, settings, k, RngStream(60 + t * 10 + k))
    (est,) = moments_from_shots(table, [(1, 2)], [t])
    exact = moments_design(rho, [(1, 2)], [t], D5)[0].value
    assert abs(est.value - exact) < 4 * est.std_error


def test_naive_squared_mean_is_biased_high():
    rho = bell_psi_minus()
    settings = random_settings(2, 30_000, RngStream(52))
    k = 2
    table = simulate_shots(rho, settings, k, RngStream(53))
    naive = (table.outcomes.prod(axis=2).mean(axis=1) ** 2).mean()
    exact = 1.0 / 3.0
    expected_bias = (1.0 - exact) / k
    assert abs(naive - exact - expected_bias) < 0.02


def test_marginal_moment_from_joint_shots():
    rho = w_state(3)
    settings = random_settings(3, 40_000, RngStream(54))
    table = simulate_shots(rho, settings, 4, RngStream(55))
    (est,) = moments_from_shots(table, [(1, 2)], [2])
    exact = exact_moment_map(rho, [(1, 2)])[(1, 2)].value
    assert abs(est.value - exact) < 4 * est.std_error


def test_shot_table_validation():
    settings = random_settings(2, 3, RngStream(56))
    table = simulate_shots(bell_psi_minus(), settings, 2, RngStream(57))
    with pytest.raises(ValueError, match="\\+-1"):
        ShotTable(np.zeros((3, 2, 2)))
    # a cast to int8 would store each of these as +-1
    for bad in (1.7, -1.2, 1 + 1e-9, 257, np.nan):
        outcomes = np.array(table.outcomes, dtype=float if isinstance(bad, float) else int)
        outcomes[2, 1, 0] = bad
        with pytest.raises(ValueError, match="\\+-1"):
            ShotTable(outcomes)
    for bad in (0, 2, -128):
        outcomes = np.array(table.outcomes)
        outcomes[0, 0, 1] = bad
        with pytest.raises(ValueError, match="\\+-1"):
            ShotTable(outcomes)
    assert np.array_equal(ShotTable(table.outcomes.astype(float)).outcomes, table.outcomes)
    for flat in (table.outcomes[0], table.outcomes[None], np.ones((0, 3, 2), np.int8),
                 np.ones((3, 0, 2), np.int8), np.ones((3, 3, 0), np.int8)):
        with pytest.raises(ValueError, match="outcomes must have shape \\(M, K, n\\)"):
            ShotTable(flat)


def test_frozen_arrays_leave_the_callers_arrays_writable():
    settings = random_settings(2, 3, RngStream(79))
    table = simulate_shots(bell_psi_minus(), settings, 2, RngStream(80))
    outcomes = np.array(table.outcomes)
    values = np.array([0.5, -0.25])
    components = np.array([0.0, 0.0, 1.0])
    frozen = {
        "outcomes": (outcomes, ShotTable(outcomes).outcomes),
        "values": (values, SampleSet(values).values),
        "components": (components, CorrelationTensor((1,), components).components),
    }
    for name, (given, stored) in frozen.items():
        assert given.flags.writeable, name
        assert np.shares_memory(given, stored), name
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[0]


def test_simulate_shots_rejects_bad_input():
    rho = bell_psi_minus()
    settings = random_settings(2, 3, RngStream(58))
    with pytest.raises(ValueError, match="samples M must be an integer >= 1, got 0"):
        simulate_shots(rho, np.empty((0, 2, 3)), 5, RngStream(59))
    with pytest.raises(ValueError, match=r"settings must have shape \(M, 2, 3\)"):
        simulate_shots(rho, settings[0], 5, RngStream(59))
    for k in (0, 2.0, 1.5, "3", True, False):
        with pytest.raises(ValueError, match="shots K must be an integer >= 1"):
            simulate_shots(rho, settings, k, RngStream(59))
    # refused before any outcome is allocated
    over = MAX_TABLE_BYTES // (3 * 2) - 24 + 1
    with pytest.raises(ValueError, match="bytes exceeds the 2147483648-byte cap"):
        simulate_shots(rho, settings, over, RngStream(59))
    for bad in (np.nan, np.inf):
        broken = settings.copy()
        broken[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            simulate_shots(rho, broken, 5, RngStream(59))
    stretched = settings.copy()
    stretched[1, 0] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
        simulate_shots(rho, stretched, 5, RngStream(59))


def test_simulate_shots_refuses_a_setting_over_the_block_budget_before_any_draw(monkeypatch):
    # One setting's temporaries, the larger of 8 * width and the search's
    # 8 * 2^n + 10 K bytes at n <= 4 or 8 * (2^n + 4 K) + K at n >= 5, must
    # fit _BLOCK_BYTES at any worker count; width is 5 * 2^n + 6n amplitude
    # floats or 3 * 4^(n-1) + 8n Pauli floats, below the search's bytes at
    # these K, so both routes share their largest K.  A setting over half
    # the budget runs on one worker.
    pure, mixed = bell_psi_minus(), DensityMatrix(bell_psi_minus().matrix)
    settings = random_settings(2, 1, RngStream(90))
    for rho in (pure, mixed):
        assert simulate_shots(rho, settings, 419_427, RngStream(91)).outcomes.shape == (1, 419_427, 2)
    for workers in (1, 2):
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        for rho in (ghz(8), DensityMatrix(np.eye(256) / 256)):
            assert moments._check_shot_budget(rho, 3, 127_038)[:2] == (1, 1)
    draws = []
    monkeypatch.setattr(moments, "_stream_generator", lambda *args: draws.append(args))
    for rho in (pure, mixed):
        with pytest.raises(ValueError, match=f"^one setting's temporaries for K=419428 shots = 4194312 bytes exceed "
                                             f"the {_BLOCK_BYTES}-byte block budget$"):
            simulate_shots(rho, settings, 419_428, RngStream(91))
    for rho in (ghz(8), DensityMatrix(np.eye(256) / 256)):
        with pytest.raises(ValueError, match="^one setting's temporaries for K=127039 shots = 4194335 bytes exceed "):
            moments._check_shot_budget(rho, 1, 127_039)
    assert draws == []


def test_simulate_shots_refuses_a_live_generator_before_any_draw():
    # A live Generator's position is unknown, so the outcomes would not be a
    # function of (seed, stream id) alone; the refusal leaves it unmoved.
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    for rho in (ghz(3), DensityMatrix(ghz(3).matrix)):
        with pytest.raises(TypeError, match="^expected RngStream, got <class 'numpy.random._generator.Generator'>$"):
            simulate_shots(rho, random_settings(3, 5, RngStream(92)), 4, gen)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("route", ["amplitudes", "pauli"])
def test_simulate_shots_block_peak_is_the_row_model(route, monkeypatch):
    """Each block of settings peaks at its rows times the row model of
    ``_check_shot_budget``.  One worker's blocks fill the whole budget: the
    peak lies within _BLOCK_BYTES plus numpy's ufunc buffers (at most 8,192
    elements of each of three complex operands of one call) and above 90%
    of _BLOCK_BYTES, so the model charges no phantom row.  Two workers'
    blocks fill half the budget each, and whether their peaks meet depends
    on timing, so there the peak is bounded from above only, with one set of
    buffers a worker.  Every case is Born-bound but the amplitude route at
    n = 3, K = 50, whose count search is the bound, and n = 5 at K = 200,
    whose level search is; three one-worker blocks each, so that a block's
    leftovers would add to the next block's peak."""
    buffers = 3 * 16 * np.getbufsize()
    for n, ks in ((3, (2, 50)), (5, (200,)), (6, (2, 50)), (8, (2, 50))):
        rho = w_state(n) if route == "amplitudes" else DensityMatrix(w_state(n).matrix)
        rho.pauli  # cached before the trace
        for k in ks:
            rows = moments._check_shot_budget(rho, 1, k)[0]
            settings = random_settings(n, 3 * rows, RngStream(93, n))
            for workers in (1, 2):
                monkeypatch.setattr(sampling, "_WORKERS", workers)
                tracemalloc.start()
                try:
                    simulate_shots(rho, settings, k, RngStream(94, n))
                    peak = tracemalloc.get_traced_memory()[1] - settings.shape[0] * k * n  # less the outcome table
                finally:
                    tracemalloc.stop()
                low = 0.9 * _BLOCK_BYTES if workers == 1 else 0
                assert low <= peak <= _BLOCK_BYTES + workers * buffers, (n, k, workers, rows, peak)


def _estimate_moment_from_shots_oracle(shots: ShotTable, t: int, parties=None) -> MomentEstimate:
    """Reference implementation of ``moments_from_shots`` for one subset
    and order: one product over the subset's columns and one e_t table per
    call."""
    k_shots = shots.shots_per_setting
    n = shots.n_parties
    if parties is None:
        columns = list(range(n))
        subset = tuple(range(1, n + 1))
    else:
        subset = tuple(sorted(parties))
        columns = [p - 1 for p in subset]
    products = shots.outcomes[:, :, columns].prod(axis=2)
    plus_counts = ((products + 1) // 2).sum(axis=1)
    table = np.zeros(k_shots + 1)
    for kp in range(k_shots + 1):
        km = k_shots - kp
        e_t = sum(
            comb(kp, j) * comb(km, t - j) * (-1) ** (t - j)
            for j in range(max(0, t - km), min(t, kp) + 1)
        )
        table[kp] = e_t / comb(k_shots, t)
    per_setting = table[plus_counts]
    value = float(per_setting.mean())
    m = shots.outcomes.shape[0]
    std_error = float(per_setting.std(ddof=1) / np.sqrt(m)) if m >= 2 else None
    return MomentEstimate(subset, t, value, std_error, "finite_shot", m, k_shots)


@pytest.mark.parametrize("k", range(1, 9))
def test_shot_weights_match_brute_force_u_statistics(k):
    for t in range(1, k + 1):
        weights = _shot_weights(k, t)
        for kp in range(k + 1):
            shots = [1] * kp + [-1] * (k - kp)
            total = sum(prod(chosen) for chosen in combinations(shots, t))
            assert weights[kp] == total / comb(k, t), (k, t, kp)


@pytest.mark.parametrize("n", range(1, 6))
def test_shot_moments_equal_the_per_estimate_oracle(n):
    settings = random_settings(n, 20, RngStream(81, n))
    subsets = all_subsets(n)
    for rho in _oracle_states(n):
        for k in (1, 2, 5, 50):
            orders = sorted({1, 2, 3, 4, k} & set(range(1, k + 1)))
            table = simulate_shots(rho, settings, k, RngStream(82, k))
            # the party-major table simulate_shots returns, and once a C-ordered copy
            copies = [ShotTable(np.ascontiguousarray(table.outcomes))] if k == 5 else []
            for shots in [table, *copies]:
                got = iter(moments_from_shots(shots, subsets, orders))
                for subset in subsets:
                    for t in orders:
                        est, oracle = next(got), _estimate_moment_from_shots_oracle(shots, t, subset)
                        assert (est.subset, est.order) == (subset, t)
                        assert (est.value, est.std_error) == (oracle.value, oracle.std_error)
            (full,) = moments_from_shots(table, [range(1, n + 1)], [k])
            oracle = _estimate_moment_from_shots_oracle(table, k)
            assert (full.subset, full.value, full.std_error) == (oracle.subset, oracle.value, oracle.std_error)


def _simulate_shots_oracle(rho: DensityMatrix, settings, k: int, rng) -> ShotTable:
    """Reference implementation of ``simulate_shots``: one n-operand
    einsum for the Born probabilities and a broadcast compare against
    every cumulative entry for the draws."""
    if k < 1:
        raise ValueError(f"shots must satisfy K >= 1, got {k}")
    settings = np.asarray(settings, dtype=float)
    if settings.ndim == 2:
        settings = settings[None, :, :]
    n = rho.n_qubits
    if settings.ndim != 3 or settings.shape[1:] != (n, 3):
        raise ValueError(
            f"settings must have shape (M, {n}, 3) for this state, got {settings.shape}"
        )
    m = settings.shape[0]
    coeffs = pauli_coefficients(rho)

    # Outcome distribution: p(s) = 2^-n sum_a c_a prod_j v_j[a_j] where
    # v_j = (1, s_j u_j) per party; evaluated for all sign tuples at once.
    paddings = np.empty((m, n, 2, 4))
    paddings[:, :, :, 0] = 1.0
    paddings[:, :, 0, 1:] = settings
    paddings[:, :, 1, 1:] = -settings
    letters = "abcdefgh"[:n]
    signs = "ABCDEFGH"[:n]
    subscripts = (
        letters
        + ","
        + ",".join(f"m{S}{a}" for S, a in zip(signs, letters))
        + f"->m{signs}"
    )
    operands = [coeffs] + [paddings[:, j] for j in range(n)]
    probs = np.einsum(subscripts, *operands, optimize=True).reshape(m, 2**n) / 2**n
    if float(probs.min()) < -1e-9:
        raise ValueError(f"negative Born probability {float(probs.min()):.3e}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)

    gen = _generator(rng)
    cumulative = np.cumsum(probs, axis=1)
    cumulative[:, -1] = 1.0
    draws = gen.random((m, k))
    indices = (draws[:, :, None] >= cumulative[:, None, :]).sum(axis=2)
    outcomes = np.empty((m, k, n), dtype=np.int8)
    for j in range(n):
        bits = (indices >> (n - 1 - j)) & 1
        outcomes[:, :, j] = 1 - 2 * bits
    return ShotTable(outcomes)


def _oracle_outcomes(rho, settings, k, stream):
    # Runs of 4 settings keep the einsum on a fast contraction order (at
    # n = 8 one of 17 settings takes seconds); consecutive draws from one
    # generator equal those of a single (M, K) call.
    gen = stream.generator()
    runs = [
        _simulate_shots_oracle(rho, settings[i : i + 4], k, gen).outcomes
        for i in range(0, len(settings), 4)
    ]
    return np.concatenate(runs)


def _oracle_states(n):
    mixed = random_density_matrix(n, RngStream(70, n))
    return [mixed, product_zero(1)] if n == 1 else [mixed, ghz(n), w_state(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_simulate_shots_matches_oracle(n, monkeypatch):
    # Blocks of 3 settings: M = 10 crosses three block boundaries and
    # ends on a partial block.
    monkeypatch.setattr(moments, "_block_rows", lambda _: 3)
    settings = random_settings(n, 10, RngStream(71, n))
    for rho in _oracle_states(n):
        for k in (1, 2, 7, 50):
            fast = simulate_shots(rho, settings, k, RngStream(72, k)).outcomes
            assert np.array_equal(fast, _oracle_outcomes(rho, settings, k, RngStream(72, k)))


@pytest.mark.parametrize("n,k", [(6, 2), (6, 50), (7, 20), (8, 7), (8, 50)])
def test_simulate_shots_matches_oracle_over_budget_blocks(n, k, monkeypatch):
    # Each state spans two and a half blocks of its own route.  The mixed
    # state's Pauli route meets the einsum oracle.  The pure states' blocks
    # are 6 to 23 times longer, too long for the einsum oracle, so their
    # amplitude route meets the Pauli route of the same matrix, which holds
    # no vector and which the einsum oracle checks here and in
    # test_simulate_shots_matches_oracle.
    answers = _record_block_rows(monkeypatch, moments)
    for rho in _oracle_states(n):
        simulate_shots(rho, random_settings(n, 1, RngStream(73)), k, RngStream(74))
        rows = answers[-1]
        settings = random_settings(n, 2 * rows + rows // 2, RngStream(73, n))
        fast = simulate_shots(rho, settings, k, RngStream(74, k)).outcomes
        if rho._vector is None:
            assert np.array_equal(fast, _oracle_outcomes(rho, settings, k, RngStream(74, k)))
        else:
            pauli = simulate_shots(DensityMatrix(rho.matrix), settings, k, RngStream(74, k)).outcomes
            assert np.array_equal(fast, pauli)


def _pole_settings(n, m, stream):
    """``m`` random settings whose first three are poles: every site at
    z = -1, every site at z = +1, and the two alternating."""
    settings = random_settings(n, m, stream)
    settings[:3] = 0.0
    settings[0, :, 2], settings[1, :, 2] = -1.0, 1.0
    settings[2, :, 2] = np.where(np.arange(n) % 2, 1.0, -1.0)
    return settings


@pytest.mark.parametrize("n", range(1, 9))
def test_shot_bits_do_not_depend_on_the_worker_count(n, monkeypatch):
    # Blocks of 3 settings: M = 10 is four blocks, the last one short, and at
    # odd K a block's first draw sits inside a four-word Philox step.
    threads = threading.active_count()
    monkeypatch.setattr(moments, "_block_rows", lambda _: 3)
    settings = _pole_settings(n, 10, RngStream(95, n))
    for rho in _oracle_states(n):
        for k in (7, 20):
            oracle = _oracle_outcomes(rho, settings, k, RngStream(96, k))
            for workers in (1, 2):
                monkeypatch.setattr(sampling, "_WORKERS", workers)
                assert np.array_equal(simulate_shots(rho, settings, k, RngStream(96, k)).outcomes, oracle), workers
    assert threading.active_count() == threads


@pytest.mark.parametrize("rho", [w_state(8), ghz(3), werner(0.6)], ids=["w8", "ghz3", "werner"])
def test_shot_bits_do_not_depend_on_the_budget_split(rho, monkeypatch):
    # At the real budget one worker's blocks are twice two workers' blocks;
    # M spans several of either, and is a multiple of neither.
    for k in (7, 50):
        rows = moments._check_shot_budget(rho, 1, k)[0]
        settings = _pole_settings(rho.n_qubits, 2 * rows + rows // 3, RngStream(97))
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(sampling, "_WORKERS", workers)
            tables.append(simulate_shots(rho, settings, k, RngStream(98, k)).outcomes)
        assert np.array_equal(*tables), k


@pytest.mark.parametrize("rho", [ghz(3), werner(0.6)], ids=["amplitude", "pauli"])
def test_a_bad_setting_in_any_block_raises_the_serial_error(rho, monkeypatch):
    # Blocks of 4 settings, two workers: the first bad setting's block raises
    # as the serial loop raises it, after the helper is joined, whichever
    # worker ran it and whatever a later block raised.
    threads = threading.active_count()
    monkeypatch.setattr(moments, "_block_rows", lambda _: 4)
    settings = random_settings(rho.n_qubits, 16, RngStream(99))
    late, early = settings.copy(), settings.copy()
    late[5, 1] *= 1.0 + 1e-9
    early[2, 0] *= 1.0 + 2e-9
    early[9, 0, 0] = np.nan
    for bad in (late, early):
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(sampling, "_WORKERS", workers)
            with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12") as error:
                simulate_shots(rho, bad, 5, RngStream(100))
            errors.append(str(error.value))
            assert threading.active_count() == threads
        assert errors[0] == errors[1]
    simulate_shots(rho, settings, 5, RngStream(100))
    assert threading.active_count() == threads


def _pure_states(n):
    """The named pure states on n qubits and two seeded random complex ones."""
    gen = np.random.default_rng(n)
    named = {1: [product_zero(1)], 2: [bell_psi_minus()], 4: [cluster_linear(), trisep4(), bisep4()]}
    return [
        *named.get(n, []),
        *([product_zero(n), ghz(n), w_state(n)] if n >= 2 else []),
        *(DensityMatrix.from_vector(gen.normal(size=2**n) + 1j * gen.normal(size=2**n)) for _ in range(2)),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_amplitude_route_matches_the_pauli_route(n):
    settings = random_settings(n, 50, RngStream(83, n))
    # the poles, where c = 0 or e carries no phase, on every site and alternating
    settings[:3] = 0.0
    settings[0, :, 2], settings[1, :, 2] = -1.0, 1.0
    settings[2, :, 2] = np.where(np.arange(n) % 2, 1.0, -1.0)
    # |+> on every site along directions off unit norm by 5e-13, within the
    # tolerance, at and near the pole z = -1, where e = (x + iy)/(2c)
    # magnifies the excess; the Pauli route reads u as given and errs by
    # about 5e-13 * x there
    plus = DensityMatrix.from_vector(np.full(2**n, 2.0 ** (-n / 2)))
    off_unit = np.array([[[np.sqrt(1e-12 + 1.0 - z * z), 0.0, z]] * n for z in (-1.0, -1.0 + 1e-10)])
    for rho, dirs in [*((rho, settings) for rho in _pure_states(n)), (plus, off_unit)]:
        # each row normalized, as simulate_shots draws from it: near the pole
        # the amplitude route's rows sum to 1 only within that magnified excess
        amplitude, pauli = (
            probs / probs.sum(axis=1, keepdims=True)
            for probs in (moments._amplitude_probabilities(rho, dirs), moments._pauli_probabilities(rho, dirs))
        )
        assert np.abs(amplitude - pauli).max() <= 1e-14


def test_only_states_built_from_a_vector_take_the_amplitude_route(monkeypatch):
    pure = ghz(3)
    assert not pure._vector.flags.writeable
    assert np.array_equal(np.outer(pure._vector, pure._vector.conj()), pure.matrix)
    mixed = [random_density_matrix(3, RngStream(84)), werner(0.6), DensityMatrix(pure.matrix)]
    assert all(rho._vector is None for rho in mixed)
    routes = []
    for name in ("_pauli_probabilities", "_amplitude_probabilities"):
        real = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, name=name, real=real: routes.append(name) or real(*args))
    for rho in [pure, *mixed]:
        simulate_shots(rho, random_settings(rho.n_qubits, 5, RngStream(85)), 3, RngStream(86))
    assert routes == ["_amplitude_probabilities"] + 3 * ["_pauli_probabilities"]


@pytest.mark.parametrize("rho", [w_state(3), werner(0.6)], ids=["amplitude", "pauli"])
def test_simulate_shots_normalizes_each_row_of_born_probabilities(rho, monkeypatch):
    # A route's rows need only be proportional to the Born probabilities:
    # doubled rows, an exact scaling, draw the same outcomes.
    settings = random_settings(rho.n_qubits, 40, RngStream(88))
    plain = simulate_shots(rho, settings, 20, RngStream(89)).outcomes
    name = "_pauli_probabilities" if rho._vector is None else "_amplitude_probabilities"
    real = getattr(moments, name)
    monkeypatch.setattr(moments, name, lambda *args: 2.0 * real(*args))
    assert np.array_equal(simulate_shots(rho, settings, 20, RngStream(89)).outcomes, plain)


def test_simulate_shots_at_eight_qubits():
    rho = ghz(8)
    settings = random_settings(8, 2000, RngStream(75))
    table = simulate_shots(rho, settings, 50, RngStream(76))
    (est,) = moments_from_shots(table, [range(1, 9)], [2])
    full = tuple(range(1, 9))
    exact = exact_moment_map(rho, [full])[full].value
    assert abs(est.value - exact) < 5 * est.std_error


def test_simulate_shots_memory_is_capped_by_the_block_budget(monkeypatch):
    n, k = 8, 50
    rho = ghz(n)
    answers = _record_block_rows(monkeypatch, moments)
    simulate_shots(rho, random_settings(n, 1, RngStream(77)), k, RngStream(78))
    # both runs span several blocks of one worker
    small, big = 3 * answers[-1], 10 * answers[-1]
    for workers in (1, 2):
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        peaks = {}
        for m in (small, big):
            settings = random_settings(n, m, RngStream(77))
            tracemalloc.start()
            try:
                simulate_shots(rho, settings, k, RngStream(78))
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Only the outcome table (n bytes per shot) grows with M; each block
        # draws its own uniforms.  Whether two workers' peaks meet depends on
        # timing, so there only the budget bounds them.
        assert peaks[big] <= big * k * n + _BLOCK_BYTES + workers * 3 * 16 * np.getbufsize()
        if workers == 1:
            assert peaks[big] - peaks[small] <= (big - small) * k * n + 64 * 1024


# ---------------------------------------------------------------------------
# Purity from moments
# ---------------------------------------------------------------------------

def test_purity_from_moments_named_states():
    assert purity_from_moments(exact_moment_map(ghz(4), all_subsets(4))) == pytest.approx(1.0, abs=1e-10)
    white = DensityMatrix(np.eye(4) / 4)
    assert purity_from_moments(exact_moment_map(white, all_subsets(2))) == pytest.approx(0.25, abs=1e-12)
    wern = werner(1 / np.sqrt(3))
    assert purity_from_moments(exact_moment_map(wern, all_subsets(2))) == pytest.approx(
        purity_direct(wern), abs=1e-10
    )


def test_purity_from_moments_accepts_plain_numbers():
    moments = {(1,): 0.0, (2,): 0.0, (1, 2): 1.0 / 9.0}
    assert purity_from_moments(moments) == pytest.approx(0.5, abs=1e-12)


def test_purity_from_moments_rejects_missing_subset():
    with pytest.raises(ValueError, match="\\(1, 2\\)"):
        purity_from_moments({(1,): 0.1, (2,): 0.1})


def test_purity_from_moments_rejects_negative():
    with pytest.raises(ValueError, match=r"moment of subset \(1,\) must lie in \[0, 1\], got -0.1"):
        purity_from_moments({(1,): -0.1, (2,): 0.0, (1, 2): 0.1})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got (nan|inf)"):
            purity_from_moments({(1,): bad})
    # keys are non-empty sets of parties in 1..MAX_QUBITS
    for message, moments_map in (
        ("party must be an integer in 1..8, got 0", {(1,): 0.1, (2,): 0.1, (1, 2): 0.2, (0,): 0.5}),
        ("party must be an integer in 1..8, got 0", {(0,): 0.1}),
        ("party subset must not be empty", {(): 1.0}),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            purity_from_moments(moments_map)


def test_purity_from_moments_accepts_negative_finite_shot_moments():
    table = simulate_shots(ghz(3), random_settings(3, 200, RngStream(1)), 5, RngStream(2))
    estimates = {e.subset: e for e in moments_from_shots(table, all_subsets(3), [2])}
    assert estimates[(1,)].value == pytest.approx(-0.014, abs=1e-12)
    purity = purity_from_moments(estimates)
    expected = 1.0 + sum(3.0 ** len(s) * e.value for s, e in estimates.items())
    assert purity == pytest.approx(expected / 8.0, abs=1e-15)
    # exact and plain-number moments below 0 past EXPECTATION_ATOL are still
    # refused; within it an exact one reads as MomentEstimate builds it
    exact = exact_moment_map(ghz(3), all_subsets(3))
    exact[(1,)] = MomentEstimate((1,), 2, -1e-10, None, "exact_tensor")
    assert purity_from_moments(exact) == pytest.approx(1.0, abs=1e-9)
    exact[(1,)] = -1e-8
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -1e-08"):
        purity_from_moments(exact)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -0.014"):
        purity_from_moments({s: e.value for s, e in estimates.items()})


def test_all_subsets_counts():
    assert len(all_subsets(4)) == 15
    assert len(all_subsets(4, min_size=2)) == 11


def test_moment_estimate_validation():
    with pytest.raises(ValueError, match="std_error=None"):
        MomentEstimate((1, 2), 2, 0.5, 0.01, "exact_tensor")
    with pytest.raises(ValueError, match="outside"):
        MomentEstimate((1, 2), 2, 1.5, None, "design")
    for value, std_error in ((np.nan, 0.1), (np.inf, 0.1), (0.5, np.nan), (0.5, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            MomentEstimate((1, 2), 2, value, std_error, "finite_shot")
    est = MomentEstimate((1, 2), 2, -0.2, 0.05, "finite_shot", samples=10, shots=2)
    assert est.to_dict()["t"] == 2 and est.to_dict()["K"] == 2
    # stored through normalize_subset and _check_order
    est = MomentEstimate([2, np.int64(1)], np.int64(4), 0.5, None, "design")
    assert est.subset == (1, 2) and type(est.subset[0]) is int
    assert est.order == 4 and type(est.order) is int


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MomentEstimate((1,), 2, 0.1, None, "bogus"), r"unknown method 'bogus'; expected one of \("),
        (lambda: purity_from_moments({}), "party-subset map is empty"),
        (
            lambda: purity_from_moments({(1,): MomentEstimate((1,), 2, -0.4, 0.1, "finite_shot")}),
            r"purity must be finite and positive, got -0\.1\d*",
        ),
        (lambda: purity_from_moments({(1,): 0.5}), r"purity must lie in \(0, 1\], got 1\.25"),
        (lambda: _check_order(True), "moment order t must be an integer >= 1, got True"),
        (
            lambda: moments_mc(bell_psi_minus(), [(1, 2)], [True], 10, RngStream(1)),
            "moment order t must be an integer >= 1, got True",
        ),
    ]
    # every estimate checks its own order and subset, whatever route made it
    + [
        (lambda t=t: MomentEstimate((1, 2), t, 0.5, None, "design"), f"^moment order t must be an integer >= 1, got {t!r}$")
        for t in (0, -2, 2.5, True)
    ]
    + [
        (lambda: MomentEstimate((), 2, 0.5, None, "design"), "^party subset must not be empty$"),
        (lambda: MomentEstimate((0,), 2, 0.5, None, "design"), r"^party must be an integer in 1\.\.8, got 0$"),
        (lambda: MomentEstimate((9,), 2, 0.5, None, "design"), r"^party must be an integer in 1\.\.8, got 9$"),
        (lambda: MomentEstimate((1, 2), 2, 0.5, -0.1, "monte_carlo", 10), r"^std_error -0\.1 must not be negative$"),
    ],
    ids=[
        "unknown_method", "empty_map", "purity_not_positive", "purity_above_one", "bool_order", "bool_order_mc",
        "estimate_order_zero", "estimate_order_negative", "estimate_order_fraction", "estimate_order_bool",
        "estimate_empty_subset", "estimate_party_zero", "estimate_party_nine", "estimate_negative_error",
    ],
)
def test_moment_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
