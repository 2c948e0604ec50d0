import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from randmeas import correlations, sampling
from randmeas.correlations import (
    HISTOGRAM_BINS,
    CorrelationDensity,
    CorrelationTensor,
    _subset_values,
    analytic_pdf,
    correlation,
    correlation_length,
    correlation_tensor,
    correlation_values,
    histogram_table,
    marginal_purity,
    normalize_subset,
    pauli_coefficients,
    sample_distribution,
)
from randmeas.moments import all_subsets, moments_mc
from randmeas.sampling import _BLOCK_BYTES, RngStream, haar_unitaries, random_settings, uniform_directions
from randmeas.states import (
    DensityMatrix,
    _check_int,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    product_zero,
    trisep4,
    w_state,
    werner,
)

from matrix_oracles import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, apply_local_unitaries, partial_trace, purity_direct,
                            random_density_matrix)

SRC = Path(__file__).resolve().parents[1] / "src"

E_Z = np.array([0.0, 0.0, 1.0])


def _correlation_by_kronecker(rho, dirs):
    """The dense-operator body that ``correlation`` used to run, kept as
    an oracle: tr(rho O) with O the Kronecker product of sigma_u on every
    keyed party and the identity elsewhere."""
    factors = []
    for party in range(1, rho.n_qubits + 1):
        if party in dirs:
            ux, uy, uz = dirs[party]
            factors.append(ux * SIGMA_X + uy * SIGMA_Y + uz * SIGMA_Z)
        else:
            factors.append(IDENTITY_2)
    value = np.trace(rho.matrix @ reduce(np.kron, factors))
    assert abs(value.imag) < 1e-10
    return value.real


def test_correlation_of_zz_eigenstate():
    assert correlation(product_zero(2), {1: E_Z, 2: E_Z}) == 1.0


def test_singlet_anticorrelation_along_equal_axes():
    rho = bell_psi_minus()
    for u in uniform_directions(RngStream(21), 25):
        assert abs(correlation(rho, {1: u, 2: u}) + 1.0) < 1e-12


def test_rotated_product_state_zz_correlation():
    # Bloch vectors tilted by 75 and 60 degrees about the y axis.
    alpha, beta = np.deg2rad(75.0), np.deg2rad(60.0)

    def rot_y(angle):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    rho = apply_local_unitaries(product_zero(2), [rot_y(alpha), rot_y(beta)])
    value = correlation(rho, {1: E_Z, 2: E_Z})
    assert abs(value - np.cos(alpha) * np.cos(beta)) < 1e-12
    assert round(value, 2) == 0.13


def test_correlation_requires_directions():
    with pytest.raises(ValueError, match="at least one"):
        correlation(product_zero(2), {})


def test_singlet_correlation_tensor():
    tensor = correlation_tensor(bell_psi_minus(), (1, 2))
    expected = -np.eye(3)
    np.testing.assert_allclose(tensor.components, expected, atol=1e-12)


def test_product_state_correlation_tensor():
    tensor = correlation_tensor(product_zero(2), (1, 2))
    expected = np.zeros((3, 3))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(tensor.components, expected, atol=1e-12)


def test_ghz4_tensor_component_census():
    comps = correlation_tensor(ghz(4), (1, 2, 3, 4)).components
    nonzero = {
        idx: comps[idx]
        for idx in np.ndindex(3, 3, 3, 3)
        if abs(comps[idx]) > 1e-12
    }
    assert len(nonzero) == 9
    x, y, z = 0, 1, 2
    assert nonzero[(z, z, z, z)] == pytest.approx(1.0, abs=1e-12)
    assert nonzero[(x, x, x, x)] == pytest.approx(1.0, abs=1e-12)
    assert nonzero[(y, y, y, y)] == pytest.approx(1.0, abs=1e-12)
    xxyy_perms = {idx for idx in nonzero if sorted(idx) == [x, x, y, y]}
    assert len(xxyy_perms) == 6
    for idx in xxyy_perms:
        assert nonzero[idx] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_length_values():
    assert abs(correlation_length(product_zero(3), (1, 2, 3)) - 1.0) < 1e-10
    assert abs(correlation_length(bell_psi_minus(), (1, 2)) - 3.0) < 1e-12
    white = DensityMatrix(np.eye(4) / 4)
    assert correlation_length(white, (1, 2)) < 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_marginal_purity_matches_partial_trace_oracle(n):
    states = [random_density_matrix(n, RngStream(7, n))]
    if n >= 2:
        states += [ghz(n), w_state(n)]
    for rho in states:
        for subset in all_subsets(n):
            oracle = purity_direct(partial_trace(rho, subset))
            assert abs(marginal_purity(rho, subset) - oracle) <= 1e-13


def test_tensor_component_matches_correlation_along_z():
    rho = w_state(3)
    tensor = correlation_tensor(rho, (1, 2, 3))
    direct = correlation(rho, {1: E_Z, 2: E_Z, 3: E_Z})
    assert abs(tensor.components[2, 2, 2] - direct) < 1e-12


@given(st.integers(min_value=0, max_value=2**31))
def test_negating_one_direction_negates_correlation_exactly(seed):
    u, v = uniform_directions(RngStream(seed), 2)
    rho = w_state(2)
    plus = correlation(rho, {1: u, 2: v})
    minus = correlation(rho, {1: u, 2: -v})
    assert minus == -plus


@pytest.mark.kernel_free
def test_marginal_tensor_routes_agree():
    # identity padding on the full state vs the tensor of the marginal
    rho = w_state(4)
    for subset in [(1,), (2, 4), (1, 2, 3)]:
        padded = correlation_tensor(rho, subset).components
        marginal_rho = partial_trace(rho, subset)
        reduced = correlation_tensor(
            marginal_rho, tuple(range(1, len(subset) + 1))
        ).components
        np.testing.assert_allclose(padded, reduced, atol=1e-12)


def test_contraction_matches_direct_correlation():
    rho = ghz(3)
    tensor = correlation_tensor(rho, (1, 2, 3))
    dirs = uniform_directions(RngStream(22), 60).reshape(20, 3, 3)
    contracted = correlation_values(tensor.components, dirs)
    for sample, value in zip(dirs, contracted):
        direct = _correlation_by_kronecker(rho, {1: sample[0], 2: sample[1], 3: sample[2]})
        assert abs(direct - value) < 1e-12


def _subset_values_oracle(rho, parties, directions):
    """The route ``_subset_values`` replaced, kept as an oracle: a validated
    CorrelationTensor copy of the subset, contracted and clamped."""
    return np.clip(correlation_values(correlation_tensor(rho, parties).components, directions), -1.0, 1.0)


@pytest.mark.kernel_free
@pytest.mark.parametrize("k", range(1, 9))
def test_subset_values_are_bit_equal_to_the_tensor_route(k):
    # a leading run of parties, and that run with its last party moved to
    # party 8 (the full set at k = 8): strided slabs without and with the
    # last Pauli axis
    rho = random_density_matrix(8, RngStream(92))
    dirs = uniform_directions(RngStream(93, k), 3001 * k).reshape(3001, k, 3)
    rows = correlations._CONTRACTION_ROWS
    blocks = np.split(dirs, range(rows, len(dirs), rows))
    for parties in {tuple(range(1, k + 1)), (*range(1, k), 8)}:
        assert np.array_equal(_subset_values(rho, parties, blocks, len(dirs)), _subset_values_oracle(rho, parties, dirs))


@pytest.mark.parametrize("n", range(1, 7))
def test_correlation_matches_kronecker_oracle(n):
    rng = RngStream(n).generator()
    states = [random_density_matrix(n, RngStream(23, n)), ghz(n) if n > 1 else product_zero(1)]
    for rho in states:
        for draw in range(12):
            size = int(rng.integers(1, n + 1))
            parties = rng.choice(np.arange(1, n + 1), size=size, replace=False)
            dirs = dict(zip(parties.tolist(), uniform_directions(RngStream(n, draw + 1), size)))
            assert abs(correlation(rho, dirs) - _correlation_by_kronecker(rho, dirs)) < 1e-12


@pytest.mark.parametrize("k", range(1, 9))
def test_correlation_values_blocks_match_one_block(k, monkeypatch):
    components = correlation_tensor(random_density_matrix(k, RngStream(24, k)), range(1, k + 1)).components
    dirs = uniform_directions(RngStream(25, k), 20 * k).reshape(20, k, 3)
    monkeypatch.setattr(correlations, "_CONTRACTION_ROWS", len(dirs))
    one_block = correlation_values(components, dirs)
    # Blocks of 3 rows: 20 rows cross six block boundaries and end on a
    # partial block.
    monkeypatch.setattr(correlations, "_CONTRACTION_ROWS", 3)
    assert np.array_equal(correlation_values(components, dirs), one_block)


@pytest.mark.kernel_free
def test_a_lone_row_contracts_as_it_does_in_a_full_block():
    # A call of M rows gives the first M values of a longer call, also when
    # its last block holds a single row: M = 1, 1,025 and 2,049.
    rho = w_state(8)
    for k in range(1, 9):
        components = correlation_tensor(rho, range(1, k + 1)).components
        dirs = random_settings(k, 4_100, RngStream(3))
        values = correlation_values(components, dirs)
        for m in (1, 1_025, 2_049):
            assert np.array_equal(correlation_values(components, dirs[:m]), values[:m]), (k, m)


def _correlation_values_sequential(components, directions):
    """The body that ``correlation_values`` used to run, kept as an oracle:
    per row block, a K = 3 ``tensordot`` with the first site and one
    ``einsum`` per further site."""
    k = components.ndim
    out = np.empty(directions.shape[0])
    rows = correlations._block_rows(4 * 3**k)
    for start in range(0, directions.shape[0], rows):
        block = directions[start : start + rows]
        vals = np.tensordot(block[:, 0, :], components, axes=(1, 0))
        for j in range(1, k):
            vals = np.einsum("mi...,mi->m...", vals, block[:, j, :])
        out[start : start + block.shape[0]] = vals
    return out


def _correlation_values_in_order(components, directions):
    """``correlation_values`` by its rule, kept as an exact oracle: per
    block of rows padded to ``_CONTRACTION_ROWS``, the same leading values
    (the exact sums (m0*x + m1*y) + m2*z at a = 1, the same matrix product
    at a >= 2), times the trailing outer product, added row by row, left to
    right, from +0.0 in a Python loop."""
    k = components.ndim
    a = (k + 1) // 2
    matrix = components.reshape(3**a, 3 ** (k - a))
    full = correlations._CONTRACTION_ROWS

    def outer(sites):  # (rows, 3^j), each entry a left-to-right product from 1
        prod = np.ones((len(sites), 1))
        for j in range(sites.shape[1]):
            prod = (prod[:, :, None] * sites[:, j, None, :]).reshape(len(sites), -1)
        return prod

    out = []
    for start in range(0, len(directions), full):
        chunk = directions[start : start + full]
        block = np.zeros((full, k, 3))
        block[: len(chunk)] = chunk
        lead = outer(block[:, :a])
        if a == 1:
            lead = (lead[:, :1] * matrix[0] + lead[:, 1:2] * matrix[1]) + lead[:, 2:] * matrix[2]
        else:
            lead = np.dot(matrix.T, lead.T.copy()).T
        terms = lead * outer(block[:, a:])
        total = np.zeros(full)
        for column in terms.T:
            total = total + column
        out.append(total[: len(chunk)])
    return np.concatenate(out)


@pytest.mark.kernel_free
@pytest.mark.parametrize("k", range(1, 9))
def test_correlation_values_match_sequential_oracle(k):
    states = [random_density_matrix(k, RngStream(27, k))]
    if k >= 2:
        states += [ghz(k), w_state(k)]
    for rho in states:
        components = correlation_tensor(rho, range(1, k + 1)).components
        for m in (1, 2, 3_001):
            dirs = uniform_directions(RngStream(28, m), m * k).reshape(m, k, 3)
            values = correlation_values(components, dirs)
            assert np.array_equal(values.view(np.uint64), _correlation_values_in_order(components, dirs).view(np.uint64))
            assert np.max(np.abs(values - _correlation_values_sequential(components, dirs))) <= 1e-15


@pytest.mark.kernel_free
@pytest.mark.parametrize("k", range(1, 9))
def test_correlation_values_are_in_order_sums_bit_for_bit(k, mixed8):
    # M = 1 is one padded block, 1,025 a full block and one row, 2,100 two
    # full blocks and a short one; odd-k values of ghz:8 are all zero
    for rho in (w_state(8), ghz(8), mixed8):
        components = correlation_tensor(rho, range(1, k + 1)).components
        for m in (1, 1_025, 2_100):
            dirs = uniform_directions(RngStream(36, m), m * k).reshape(m, k, 3)
            values = correlation_values(components, dirs)
            oracle = _correlation_values_in_order(components, dirs)
            assert np.array_equal(values.view(np.uint64), oracle.view(np.uint64)), (k, m)
            assert not np.signbit(values[values == 0.0]).any(), (k, m)


def _pruned_slabs(case):
    """Correlation-tensor slabs of which ``_contract`` builds only some rows
    or columns, or none (all-zero), or all (dense)."""
    tensor = lambda rho, parties: correlation_tensor(rho, parties).components
    return {
        "product_zero8": lambda: [tensor(product_zero(8), range(1, 9))],  # one nonzero entry
        # the canaries of a BLAS product shrunk to the nonzero rows or columns
        "bisep4": lambda: [tensor(bisep4(), parties) for parties in ((1, 2, 3), (2, 3, 4), (1, 2, 3, 4), (1, 3))],
        "trisep4": lambda: [tensor(trisep4(), parties) for parties in ((1, 2, 3), (1, 2, 3, 4), (2, 4))],
        "negative_zeros": lambda: [-tensor(ghz(4), range(1, 5)), -tensor(w_state(5), range(1, 6)),
                                   -tensor(ghz(8), range(1, 9))],
        "all_zero": lambda: [tensor(ghz(8), range(1, 4)), np.full((3,) * 5, -0.0)],
        "dense": lambda: [tensor(random_density_matrix(6, RngStream(37)), range(1, 7))],
    }[case]()


@pytest.mark.kernel_free
@pytest.mark.parametrize("case", ["product_zero8", "bisep4", "trisep4", "negative_zeros", "all_zero", "dense"])
def test_pruned_slabs_match_the_in_order_oracle(case):
    for components in _pruned_slabs(case):
        k = components.ndim
        a = (k + 1) // 2
        nonzero = components.reshape(3**a, -1) != 0.0
        complete = nonzero.any(axis=1).all() and nonzero.any(axis=0).all()
        assert complete == (case == "dense"), k
        assert not nonzero.any() or case != "all_zero"
        if case == "negative_zeros":
            assert np.signbit(components[components == 0.0]).all()
        for m in (1, 1_025, 2_100):
            dirs = uniform_directions(RngStream(38, m), m * k).reshape(m, k, 3)
            values = correlation_values(components, dirs)
            oracle = _correlation_values_in_order(components, dirs)
            assert np.array_equal(values.view(np.uint64), oracle.view(np.uint64)), (k, m)
            assert not np.signbit(values[values == 0.0]).any(), (k, m)


@pytest.mark.kernel_free
def test_monte_carlo_moments_of_ghz4_subsets_keep_their_bytes():
    # the odd subsets' slabs are all zero, so they read no block; the
    # digest was recorded before the contraction skipped zero rows and
    # columns
    estimates = moments_mc(ghz(4), all_subsets(4), (1, 2, 3, 4), 3_001, RngStream(97))
    data = np.array([[e.value, e.std_error] for e in estimates])
    digest = "5b6c86ff5abfeda2dab6c3b9b4a5b3e9db5c96d2b77ec1cba785e50b4d2decb8"
    assert hashlib.sha256(data.tobytes()).hexdigest() == digest


def _correlation_values_k1_ones(components, directions):
    """The k = 1 body that ``correlation_values`` used to run, kept as an
    oracle: the matrix product's transposed copy dotted row-wise with a
    (rows, 1) block of ones."""
    matrix = components.reshape(3, 1)
    out = np.empty(directions.shape[0])
    rows = correlations._block_rows(8 * (2 * 3 + 4))
    for start in range(0, directions.shape[0], rows):
        block = directions[start : start + rows]
        vals = np.tensordot(matrix, block[:, 0, :].T, axes=(0, 0)).T.copy()
        np.einsum("mi,mi->m", vals, np.ones((1, len(block))).T, out=out[start : start + len(block)])
    return out


@pytest.mark.kernel_free
def test_single_site_values_are_bit_equal_to_the_in_order_oracle(monkeypatch):
    tensors = [np.zeros(3), np.full(3, -0.0), np.array([0.5, -0.0, 0.0])]
    for n in (1, 3, 5):
        states = [random_density_matrix(n, RngStream(29, n))]
        if n >= 2:
            states += [ghz(n), w_state(n)]
        tensors += [correlation_tensor(rho, (p,)).components for rho in states for p in (1, n)]
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.0, 0.0, -1.0], [-1.0, -0.0, -0.0]])
    dirs = np.concatenate([axes, uniform_directions(RngStream(30), 3_001)])[:, None, :]
    oracles = [_correlation_values_in_order(components, dirs) for components in tensors]
    for components, oracle in zip(tensors, oracles):
        assert np.max(np.abs(oracle - _correlation_values_k1_ones(components, dirs))) <= 1e-15
        assert not np.signbit(oracle[oracle == 0.0]).any()
    # the contraction's block rows: full blocks, then short blocks and a tail
    for rows in (None, 1, 3, 1_000):
        if rows:
            monkeypatch.setattr(correlations, "_CONTRACTION_ROWS", rows)
        for components, oracle in zip(tensors, oracles):
            assert np.array_equal(correlation_values(components, dirs).view(np.uint64), oracle.view(np.uint64))


def test_sample_distribution_memory_is_capped_by_the_block_budget():
    rho = ghz(8)
    rho.pauli  # cached on the state, not part of the draw
    # The values hold 8 bytes a setting.  The rest is one block's draw or
    # its contraction temporaries (within the budget and 64 KiB), never the
    # 24 bytes a direction of a whole table, which a block kept alive through
    # the next draw would add up to.  Both sizes of M span several full
    # blocks, so only the values grow with M.
    for k, (small, big) in ((2, (10**5, 2 * 10**5)), (8, (10**4, 10**5))):
        peaks = {}
        for m in (small, big):
            tracemalloc.start()
            try:
                sample_distribution(rho, range(1, k + 1), m, RngStream(26))
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[big] <= 8 * big + _BLOCK_BYTES + 2**16, k
        assert peaks[big] - peaks[small] <= 8 * (big - small) + 2**16, k


def test_correlation_values_memory_is_capped_by_the_block_budget():
    components = correlation_tensor(random_density_matrix(8, RngStream(31)), range(1, 9)).components
    peaks = {}
    for m in (2 * 10**4, 2 * 10**5):
        dirs = uniform_directions(RngStream(32, m), m * 8).reshape(m, 8, 3)
        tracemalloc.start()
        try:
            correlation_values(components, dirs)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # Only the output (8 bytes a row) grows with M.
    assert peaks[2 * 10**5] - peaks[2 * 10**4] <= 8 * (2 * 10**5 - 2 * 10**4) + _BLOCK_BYTES


#: The site transfer matrix S[a, 2 r + c] = P_a[c, r]: contracting every
#: (row, col) index pair of rho with S yields tr(rho P_a1 (x) ... (x) P_an).
_SITE_TRANSFER = np.stack([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]).transpose(0, 2, 1).reshape(4, 4).copy()


def _pauli_coefficients_moveaxis(rho):
    """The transfer-matrix route that ``pauli_coefficients`` replaced by
    its four two-term sums, kept as an oracle: each site's transfer
    contracted in place by ``tensordot``, with a ``moveaxis`` copy per site."""
    n = rho.n_qubits
    tens = rho.matrix.reshape((2,) * (2 * n))
    perm = [axis for j in range(n) for axis in (j, n + j)]
    tens = np.transpose(tens, perm).reshape((4,) * n)
    for axis in range(n):
        tens = np.moveaxis(np.tensordot(_SITE_TRANSFER, tens, axes=(1, axis)), 0, axis)
    return np.ascontiguousarray(tens.real)


def _random_rank_state(n, rank, seed):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((2**n, rank)) + 1j * gen.standard_normal((2**n, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


@pytest.mark.kernel_free
@pytest.mark.parametrize("n", range(1, 9))
def test_pauli_coefficients_match_moveaxis_oracle_bit_for_bit(n):
    states = [_random_rank_state(n, rank, seed=10 * n + rank) for rank in sorted({1, 3, 2**n})]
    if n >= 2:
        states += [ghz(n), w_state(n)]
    states += {2: [werner(0.3)], 4: [bisep4(0.7), cluster_linear()]}.get(n, [])
    for rho in states:
        got, want = pauli_coefficients(rho), _pauli_coefficients_moveaxis(rho)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_pauli_coefficients_identity_entry_is_trace():
    coeffs = pauli_coefficients(werner(0.3))
    assert coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def _sample_distribution_whole(rho, parties, m, rng):
    """The route ``sample_distribution`` used to run, kept as an oracle: the
    whole (M, k, 3) settings table drawn at once, then contracted."""
    return _subset_values_oracle(rho, parties, random_settings(len(parties), m, rng))


@pytest.fixture(scope="module")
def mixed8():
    return random_density_matrix(8, RngStream(94))


@pytest.mark.kernel_free
@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("forced_rows, m", [(None, None), (1, 101), (3, 301), (1_000, 2_001)],
                         ids=["budget", "rows1", "rows3", "rows1000"])
def test_sample_distribution_streams_the_whole_table_bit_for_bit(k, forced_rows, m, mixed8, monkeypatch):
    if forced_rows:
        monkeypatch.setattr(correlations, "_CONTRACTION_ROWS", forced_rows)
    else:
        m = 2 * correlations._CONTRACTION_ROWS + 1  # two full blocks and one row
    parties = (*range(1, k), 8)
    streamed = sample_distribution(mixed8, parties, m, RngStream(95, k)).values
    assert np.array_equal(streamed, _sample_distribution_whole(mixed8, parties, m, RngStream(95, k)))


#: Writes the values of ``sample_distribution`` on parties 1..k, k = 1..ks
#: (its argument), of the 8-qubit state read from stdin at M = 3,001 (two
#: full contraction blocks and a short one).  It runs in fresh interpreters,
#: which read the state rather than draw it: a state drawn there would take
#: its bits from their BLAS kernel.
_SAMPLE_PROBE = """
import sys
import numpy as np
from randmeas.correlations import sample_distribution
from randmeas.sampling import RngStream
from randmeas.states import DensityMatrix

rho = DensityMatrix(np.frombuffer(sys.stdin.buffer.read(), dtype=complex).reshape(256, 256))
for k in range(1, int(sys.argv[1]) + 1):
    sys.stdout.buffer.write(sample_distribution(rho, range(1, k + 1), 3_001, RngStream(96, k)).values.tobytes())
"""


def test_sample_bits_do_not_depend_on_the_thread_count(mixed8):
    # Bits independent of the row block are pinned by
    # test_sample_distribution_streams_the_whole_table_bit_for_bit.
    runs = {}
    # OpenBLAS's Sandybridge kernel has no FMA.  Only k >= 3 values pass
    # through a BLAS product, so under another kernel only k <= 2 must hold.
    for name, ks, env in (("1 thread", 8, {"OPENBLAS_NUM_THREADS": "1"}),
                          ("2 threads", 8, {"OPENBLAS_NUM_THREADS": "2"}),
                          ("Sandybridge", 2, {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Sandybridge"})):
        env = dict(os.environ, **env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", _SAMPLE_PROBE, str(ks)], env=env,
                                input=mixed8.matrix.tobytes(), capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        runs[name] = np.frombuffer(result.stdout).reshape(ks, 3_001)
    for name, values in runs.items():
        for k, row in enumerate(values, 1):
            assert np.array_equal(row, runs["1 thread"][k - 1]), (k, name)


def test_one_contraction_block_fits_the_block_budget():
    # the row model of _CONTRACTION_ROWS at k = 8, a = b = 4: 2,376 bytes a
    # row, with the zero-filled leading workspace of a slab with zero rows
    block_bytes = correlations._CONTRACTION_ROWS * (24 * 8 + 8 * (3**4 + 2 * 3**4 + 3**3 + 3))
    assert block_bytes <= _BLOCK_BYTES
    for rho in (random_density_matrix(8, RngStream(34)), ghz(8), w_state(8)):  # dense, and two pruned slabs
        components = correlation_tensor(rho, range(1, 9)).components
        for m in (1_000, correlations._CONTRACTION_ROWS):  # a padded block and a full one
            dirs = uniform_directions(RngStream(35, m), m * 8).reshape(m, 8, 3)
            tracemalloc.start()
            try:
                correlation_values(components, dirs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= block_bytes + 2**17  # numpy's ufunc buffers and the output


def test_sample_distribution_refuses_a_live_generator():
    # and so does every whole-table draw, which is filled from the same blocks
    rng = np.random.default_rng(0)
    for call in (
        lambda: sample_distribution(ghz(2), (1, 2), 10, rng),
        lambda: moments_mc(ghz(2), [(1, 2)], (2,), 10, rng),
        lambda: random_settings(2, 10, rng),
        lambda: uniform_directions(rng, 10),
    ):
        with pytest.raises(TypeError, match="expected RngStream, got <class 'numpy.random._generator.Generator'>"):
            call()


def test_sample_caps_its_values_not_a_settings_table(monkeypatch):
    """``sample_distribution`` streams its settings and holds only its M
    float64 values, so the cap admits M up to MAX_TABLE_BYTES / 8 at any k,
    where a table of the same settings is refused; it runs before any draw."""

    class Drawn(Exception):
        pass

    def draw(rng, k, m, rows):
        raise Drawn(m)

    monkeypatch.setattr(correlations, "_settings_blocks", draw)
    limit = sampling.MAX_TABLE_BYTES // 8
    with pytest.raises(ValueError, match=r"^table of M\*n\*24 = 2147483712 bytes exceeds"):
        random_settings(8, 11_184_811, RngStream(1))
    for m in (11_184_811, limit):
        with pytest.raises(Drawn):
            sample_distribution(w_state(8), range(1, 9), m, RngStream(1))
    with pytest.raises(ValueError, match=r"^values of M\*8 = 2147483656 bytes exceeds the 2147483648-byte cap$"):
        sample_distribution(w_state(8), range(1, 9), limit + 1, RngStream(1))


def test_clamp_refuses_excess_and_passes_nan():
    values = np.array([0.5, -(1.0 + 5e-10), 1.0 + 5e-10, -0.0])
    assert correlations._clamped(values) is values
    assert values.tolist() == [0.5, -1.0, 1.0, -0.0] and np.signbit(values[3])
    for bad in (-(1.0 + 2e-9), 1.0 + 2e-9):
        with pytest.raises(ValueError, match="correlation exceeds 1 by 2.000e-09"):
            correlations._clamped(np.array([0.0, bad]))
    assert np.isnan(correlations._clamped(np.array([2.0, np.nan]))[1])


def test_sample_distribution_is_deterministic_and_validated():
    rho = bell_psi_minus()
    a = sample_distribution(rho, (1, 2), 500, RngStream(8))
    b = sample_distribution(rho, (1, 2), 500, RngStream(8))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.settings_count == 500
    with pytest.raises(AttributeError):
        a.settings_count = 3
    with pytest.raises(ValueError, match="one-dimensional"):
        correlations.SampleSet(np.zeros((2, 2)))
    for bad in (1.5, -1.5, np.nan):
        with pytest.raises(ValueError, match="outside \\[-1, 1\\]"):
            correlations.SampleSet([0.5, bad])
    assert np.max(np.abs(a.values)) <= 1.0
    with pytest.raises(ValueError, match="samples M must be an integer >= 1, got 0"):
        sample_distribution(rho, (1, 2), 0, RngStream(8))


def test_sampled_second_moment_is_lu_invariant():
    rho = ghz(3)
    rotated = apply_local_unitaries(rho, haar_unitaries(RngStream(9), 3))
    (m1,) = moments_mc(rho, [(1, 2, 3)], (2,), 20_000, RngStream(10))
    (m2,) = moments_mc(rotated, [(1, 2, 3)], (2,), 20_000, RngStream(11))
    combined = np.hypot(m1.std_error, m2.std_error)
    assert abs(m1.value - m2.value) < 4 * combined


def test_sample_set_csv_export(tmp_path):
    samples = sample_distribution(bell_psi_minus(), (1, 2), 50, RngStream(12))
    path = tmp_path / "samples.csv"
    samples.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1], samples.values)


def _sample_csv_by_rows(samples, path):
    """The row-by-row write that ``SampleSet.to_csv`` replaced."""
    with open(path, "w") as fh:
        fh.write("sample_index,E\n")
        for i, e in enumerate(samples.values):
            fh.write(f"{i},{e:.17g}\n")


def _csv_edge_values():
    """Values where %.17g is hardest to match: ``nextafter`` walks on both
    sides of 10^-k, dyadic k / 2^18 (at |k| / 2^18 >= 0.1 every odd k is an
    exact tie at 17 digits) and k / 2^40, and a three-digit exponent."""
    walks = []
    for k in range(8):
        for toward in (0.0, 2.0):
            value = 10.0**-k
            for _ in range(40):
                value = np.nextafter(value, toward)
                walks.append(value)
    dyadic18 = np.arange(-(2**18), 2**18 + 1, 97) / 2.0**18
    dyadic40 = np.random.default_rng(40).integers(-(2**40), 2**40, 4_000) / 2.0**40
    edges = np.concatenate([walks, [10.0**-k for k in range(8)], dyadic18, dyadic40, [1e-300, -1e-300]])
    return edges[np.abs(edges) <= 1.0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 40_000])
@pytest.mark.parametrize("forced_rows", [None, 3], ids=["budget", "rows3"])
def test_sample_csv_matches_row_loop_oracle(m, forced_rows, tmp_path, monkeypatch):
    budget_rows = []
    if forced_rows:
        monkeypatch.setattr(correlations, "_block_rows", lambda _: forced_rows)
    else:
        real = correlations._block_rows
        monkeypatch.setattr(
            correlations, "_block_rows", lambda row_bytes: budget_rows.append(real(row_bytes)) or budget_rows[-1]
        )
    values = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, 0.1, 1.0 / 3.0, -2.0 / 3.0]
    if m == 40_000:
        special += list(_csv_edge_values())
    values[: min(m, len(special))] = special[:m]
    samples = correlations.SampleSet(values)
    samples.to_csv(tmp_path / "chunks.csv")
    _sample_csv_by_rows(samples, tmp_path / "rows.csv")
    assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    if m == 40_000:
        rows = forced_rows or budget_rows[0]
        assert rows < m  # several chunks
        # one block holds rows 9,999 and 10,000, so its indices differ in width
        assert any(len(str(s)) < len(str(s + rows - 1)) for s in range(0, m, rows))


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=64))
def test_sample_csv_matches_row_loop_oracle_on_any_float(tmp_path_factory, values):
    directory = tmp_path_factory.mktemp("csv")
    samples = correlations.SampleSet(values)
    samples.to_csv(directory / "chunks.csv")
    _sample_csv_by_rows(samples, directory / "rows.csv")
    assert (directory / "chunks.csv").read_bytes() == (directory / "rows.csv").read_bytes()


def test_decade_starts_split_the_17_digit_roundings():
    for x, start in zip(range(-5, 2), correlations._DECADES):
        assert int(("%.16e" % start)[-3:]) == x
        assert int(("%.16e" % np.nextafter(start, 0.0))[-3:]) == x - 1


def test_sample_csv_memory_is_capped_by_the_block_budget(tmp_path):
    m = 2 * 10**5
    samples = correlations.SampleSet(np.random.default_rng(33).uniform(-1.0, 1.0, m))
    tracemalloc.start()
    try:
        samples.to_csv(tmp_path / "samples.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One block's temporaries at a time (3.2 MB); the text of the whole
    # file (5.4 MB here) is never held.
    assert peak <= _BLOCK_BYTES + 2**20


def test_histogram_table_centers_a_bin_at_zero():
    table = histogram_table(np.zeros(100))
    assert table.shape == (81, 4)
    center_bin = table[40]
    assert center_bin[0] < 0.0 < center_bin[1]
    assert center_bin[2] == 100


# ---------------------------------------------------------------------------
# Closed-form densities
# ---------------------------------------------------------------------------

def test_bell_density_is_one_half():
    assert analytic_pdf("bell").pdf(0.7) == 0.5


def test_bell_density_is_the_werner_law_at_one():
    bell, flat = analytic_pdf("bell"), analytic_pdf("werner", p=1.0)
    assert bell.kind == "bell" and bell.p == 1.0
    e = np.linspace(-1.25, 1.25, 51)
    np.testing.assert_array_equal(bell.pdf(e), flat.pdf(e))
    np.testing.assert_array_equal(bell.cdf(e), np.clip((e + 1.0) / 2.0, 0.0, 1.0))


def test_product2_density_vanishes_at_one():
    assert analytic_pdf("product2").pdf(1.0) == 0.0


def test_product2_second_moment_integral():
    density = analytic_pdf("product2")
    value, _ = integrate.quad(lambda e: e**2 * density.pdf(e), -1.0, 1.0, points=[0.0])
    assert abs(value - 1.0 / 9.0) < 1e-10


@pytest.mark.parametrize(
    "density",
    [analytic_pdf("product2"), analytic_pdf("bell"), analytic_pdf("werner", p=0.6)],
    ids=["product2", "bell", "werner"],
)
def test_densities_are_normalized(density):
    lo, hi = density.support
    total, _ = integrate.quad(density.pdf, lo, hi, points=[0.0], limit=200)
    assert abs(total - 1.0) < 1e-8


def test_werner_zero_maps_to_point_mass():
    density = analytic_pdf("werner", p=0.0)
    assert density.is_delta and density.kind == "mixed_white"
    with pytest.raises(ValueError, match="point-mass"):
        density.pdf(0.1)


def test_analytic_pdf_rejects_unknown_kind():
    with pytest.raises(ValueError, match="valid kinds"):
        analytic_pdf("gaussian")


@pytest.mark.parametrize(
    "state,density",
    [
        (bell_psi_minus(), analytic_pdf("bell")),
        (product_zero(2), analytic_pdf("product2")),
        (werner(0.6), analytic_pdf("werner", p=0.6)),
    ],
    ids=["bell", "product2", "werner"],
)
def test_sampled_distributions_match_closed_forms(state, density):
    samples = sample_distribution(state, (1, 2), 20_000, RngStream(13))
    assert stats.kstest(samples.values, density.cdf).pvalue > 1e-3


def test_correlation_tensor_validates_component_range():
    with pytest.raises(ValueError, match="exceeds 1"):
        CorrelationTensor((1,), np.array([1.1, 0.0, 0.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normalize_subset([], 3), "party subset must not be empty"),
        (lambda: CorrelationTensor((1, 2), np.zeros(3)), r"components shape \(3,\) does not match subset \(1, 2\)"),
        (lambda: analytic_pdf("werner"), "werner density requires the mixing parameter p"),
        (lambda: analytic_pdf("werner", 1.5), r"parameter p must lie in \[0, 1\], got 1.5"),
    ],
    ids=["empty_subset", "tensor_shape", "werner_without_p", "werner_p_above_one"],
)
def test_correlation_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _normalize_subset_oracle(subset, n):
    """The one slow rule: every party through ``_check_int``, then sorted
    with duplicates dropped."""
    parties = tuple(sorted({_check_int("party", p, 1, n) for p in subset}))
    if not parties:
        raise ValueError("party subset must not be empty")
    return parties


@pytest.mark.parametrize(
    "subset",
    [(1, 2), (2, 1), (1, 1, 2), (True, 2), (np.int64(1), 2), [1, 2], (0, 1), (1, 9), (), (1.0, 2)],
    ids=repr,
)
def test_normalize_subset_answers_as_the_slow_rule(subset):
    try:
        expected = _normalize_subset_oracle(subset, 8)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            normalize_subset(subset, 8)
        assert str(got.value) == str(exc)
    else:
        got = normalize_subset(subset, 8)
        assert got == expected and type(got) is tuple and all(type(p) is int for p in got)
        if type(subset) is tuple and all(type(p) is int for p in subset) and subset == expected:
            assert got is subset  # a canonical subset comes back as it is


BELL_TENSOR = correlation_tensor(bell_psi_minus(), (1, 2)).components
#: 2,000 settings, so that the last row falls in the second contraction block
BELL_DIRS = uniform_directions(RngStream(33), 4000).reshape(2000, 2, 3)


def _dirs_with(row, direction):
    dirs = BELL_DIRS.copy()
    dirs[row, 1] = direction
    return dirs


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CorrelationTensor((1,), [np.nan, 0.0, 0.0]), "tensor component exceeds 1 by nan"),
        (lambda: correlation_values(BELL_TENSOR, _dirs_with(0, [0.0, 0.0, 2.0])), "direction norm 2.0 deviates from 1 beyond 1e-12"),
        (lambda: correlation_values(BELL_TENSOR, _dirs_with(1999, [0.0, 0.0, 2.0])), "direction norm 2.0 deviates from 1 beyond 1e-12"),
        (lambda: correlation_values(BELL_TENSOR, _dirs_with(5, np.nan)), r"directions have non-finite \(NaN or inf\) entries"),
        (lambda: correlation_values(BELL_TENSOR, BELL_DIRS[:4, [0, 1, 1]]), r"directions must have shape \(M, 2, 3\) for a 2-site tensor, got \(4, 3, 3\)"),
        (lambda: correlation_values(BELL_TENSOR, BELL_DIRS[:4, 0, :2]), r"directions must have shape \(M, 2, 3\) for a 2-site tensor, got \(4, 2\)"),
    ],
    ids=["tensor_nan", "direction_off_norm", "direction_off_norm_in_the_last_block", "direction_nan", "three_sites_for_two", "two_components"],
)
def test_tensor_level_calls_refuse_nan_and_non_unit_directions(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_mixed_white_density_is_a_point_mass_at_zero():
    density = analytic_pdf("mixed_white")
    np.testing.assert_array_equal(density.cdf(np.array([-0.1, 0.0, 0.1])), [0.0, 1.0, 1.0])
    assert density.support == (0.0, 0.0)


#: The 82 bin edges of histogram.csv and density.csv.
DENSITY_EDGES = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
#: Each law by its ``analytic_pdf`` call, with a digest of its kind, its
#: support (with the sign of each zero), is_delta, and its cdf and bin_means
#: on DENSITY_EDGES, recorded when the record stored all four fields apart.
REFERENCE_LAWS = {
    "product2": (("product2",), "731b15154f300a1f"),
    "bell": (("bell",), "6af230ad63e5f6f7"),
    "mixed_white": (("mixed_white",), "da4aada15dd43094"),
    "werner_0": (("werner", 0.0), "da4aada15dd43094"),
    "werner_subnormal": (("werner", 5e-324), "4928a415b2e390f7"),
    "werner_0.3": (("werner", 0.3), "b11ca0aa639feca1"),
    "werner_1/sqrt3": (("werner", 1.0 / np.sqrt(3.0)), "7656d3fb93fb61b9"),
    "werner_1": (("werner", 1.0), "5a5880f31d59c652"),
}


def _density_digest(density):
    parts = [density.kind.encode(), np.array(density.support, dtype=float).tobytes(), bytes([density.is_delta]),
             density.cdf(DENSITY_EDGES).tobytes(), density.bin_means(DENSITY_EDGES).tobytes()]
    return hashlib.sha256(b"|".join(parts)).hexdigest()[:16]


@pytest.mark.parametrize("args, digest", REFERENCE_LAWS.values(), ids=REFERENCE_LAWS)
def test_reference_laws_keep_their_bits(args, digest):
    density = analytic_pdf(*args)
    assert _density_digest(density) == digest
    # kind is only a label: a relabelled law has the same support and bits
    relabelled = dataclasses.replace(density, kind="relabelled")
    assert (relabelled.support, relabelled.is_delta) == (density.support, density.is_delta)
    assert relabelled.bin_means(DENSITY_EDGES).tobytes() == density.bin_means(DENSITY_EDGES).tobytes()
    if not density.is_delta:
        assert relabelled.pdf(DENSITY_EDGES).tobytes() == density.pdf(DENSITY_EDGES).tobytes()


SPREAD_LAWS = {name: args for name, (args, _) in REFERENCE_LAWS.items() if not analytic_pdf(*args).is_delta}


@pytest.mark.parametrize("args", SPREAD_LAWS.values(), ids=SPREAD_LAWS)
def test_every_spread_law_has_unit_mass(args):
    density = analytic_pdf(*args)
    assert density.cdf(1.0) - density.cdf(-1.0) == 1.0
    assert abs(density.bin_means(DENSITY_EDGES) @ np.diff(DENSITY_EDGES) - 1.0) <= 1e-15


def test_a_reference_density_is_its_kind_and_p():
    assert [field.name for field in dataclasses.fields(CorrelationDensity)] == ["kind", "p"]
    assert analytic_pdf("werner", -0.0) == CorrelationDensity("mixed_white", 0.0)
    assert not np.signbit(CorrelationDensity("werner", -0.0).support).any()


@pytest.mark.parametrize(
    "p, message",
    [(-0.1, r"parameter p must lie in \[0, 1\], got -0.1"), (1.5, r"parameter p must lie in \[0, 1\], got 1.5"),
     (float("nan"), "parameter p must be finite, got nan"), ("0.5", "parameter p must be a real number, got '0.5'")],
    ids=["negative", "above_one", "nan", "text"],
)
def test_correlation_density_refuses_a_bad_p(p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CorrelationDensity("werner", p)


@pytest.mark.parametrize(
    "call",
    [lambda: CorrelationDensity("werner", (-1.0, 1.0), p=0.3), lambda: CorrelationDensity("bell", (-1.0, 1.0)),
     lambda: CorrelationDensity("werner", (-0.5, 0.5), is_delta=True, p=0.5)],
    ids=["werner_wide_support", "bell_without_p", "flagged_point_mass"],
)
def test_a_support_or_a_flag_cannot_contradict_p(call):
    with pytest.raises(TypeError):
        call()
