import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randmeas.correlations import correlation_length
from randmeas.sampling import RngStream, haar_unitaries
from randmeas.states import (
    STATES,
    DensityMatrix,
    StateSpec,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    make_state,
    product_zero,
    trisep4,
    w_state,
    werner,
)

from matrix_oracles import (
    apply_local_unitaries,
    check_density_matrix,
    partial_trace,
    purity_direct,
    random_density_matrix,
    tensor,
)

NAMED_STATES = {
    "product_zero(2)": lambda: product_zero(2),
    "bell": bell_psi_minus,
    "ghz(3)": lambda: ghz(3),
    "ghz(4)": lambda: ghz(4),
    "w(3)": lambda: w_state(3),
    "w(4)": lambda: w_state(4),
    "cluster": cluster_linear,
    "werner(0.577)": lambda: werner(1 / np.sqrt(3)),
    "trisep4": trisep4,
    "bisep4(0.2)": bisep4,
}


def test_product_zero_is_basis_projector():
    rho = product_zero(2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


def test_werner_endpoint_is_singlet():
    np.testing.assert_array_equal(werner(1.0).matrix, bell_psi_minus().matrix)


def test_werner_rejects_bad_mixing_parameter():
    with pytest.raises(ValueError, match="p"):
        werner(1.5)


def test_bisep4_marginals():
    phi = 0.2
    rho = bisep4(phi)
    assert abs(purity_direct(rho) - 1.0) < 1e-12
    expected_length = abs(np.cos(phi) ** 2 - np.sin(phi) ** 2)
    for party in (3, 4):
        marginal = partial_trace(rho, (party,))
        bloch_z = np.real(marginal.matrix[0, 0] - marginal.matrix[1, 1])
        bloch_xy = 2.0 * abs(marginal.matrix[0, 1])
        assert abs(np.hypot(bloch_z, bloch_xy) - expected_length) < 1e-12


@pytest.mark.parametrize("name", sorted(NAMED_STATES))
def test_named_states_satisfy_density_matrix_invariants(name):
    check_density_matrix(NAMED_STATES[name]().matrix)


def test_pure_states_pass_the_matrix_checks_from_vector_skips():
    gen = np.random.default_rng(31)
    states = [product_zero(n) for n in range(1, 9)]
    states += [build(n) for build in (ghz, w_state) for n in range(2, 9)]
    states += [bell_psi_minus(), cluster_linear(), trisep4()]
    states += [bisep4(phi) for phi in (0.0, 0.2, np.pi / 4, 1.3, np.pi / 2, -2.0)]
    # At 2^-600 every norm is below 1e-12, which is refused as numerically zero.
    states += [
        DensityMatrix.from_vector((gen.normal(size=2**n) + 1j * gen.normal(size=2**n)) * 2.0**power)
        for n in range(1, 9)
        for power in (-30, 0, 600)
    ]
    for rho in states:
        check_density_matrix(rho.matrix)
        assert not rho.matrix.flags.writeable and not rho._vector.flags.writeable
        assert rho.matrix.shape == (2**rho.n_qubits,) * 2
        np.testing.assert_array_equal(rho.matrix, np.outer(rho._vector, rho._vector.conj()))


def test_make_state_dispatch_matches_builders():
    np.testing.assert_array_equal(
        make_state(StateSpec("ghz", (3,))).matrix, ghz(3).matrix
    )
    np.testing.assert_array_equal(
        make_state(StateSpec("bisep4", (0.3,))).matrix, bisep4(0.3).matrix
    )
    # and bit for bit, amplitudes too, for one spec of every kind
    builders = {
        "product_zero": ((3,), lambda: product_zero(3)),
        "bell": ((), bell_psi_minus),
        "ghz": ((4,), lambda: ghz(4)),
        "w": ((5,), lambda: w_state(5)),
        "cluster_linear": ((), cluster_linear),
        "werner": ((0.3,), lambda: werner(0.3)),
        "trisep4": ((), trisep4),
        "bisep4": ((0.7,), lambda: bisep4(0.7)),
    }
    assert set(builders) == {kind for kind, row in STATES.items() if row.alias_of is None}
    for kind, (params, build) in builders.items():
        made, built = make_state(StateSpec(kind, params)), build()
        assert np.array_equal(made.matrix, built.matrix), kind
        assert (made._vector is None) == (built._vector is None), kind
        assert made._vector is None or np.array_equal(made._vector, built._vector), kind


def test_make_state_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"^state kind 'cluster_linear' takes 0 parameter\(s\) \(\), got 1$"):
        StateSpec("cluster_linear", (3,))
    with pytest.raises(ValueError, match="p"):
        make_state(StateSpec("werner", (-0.1,)))
    with pytest.raises(ValueError, match="kind"):
        StateSpec("squeezed")
    with pytest.raises(ValueError, match="kind"):
        StateSpec("product2")  # aliases are spellings, not kinds
    with pytest.raises(ValueError, match="takes 1 parameter"):
        make_state(StateSpec("ghz", ()))
    for bad in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer"):
            make_state(StateSpec("ghz", (bad,)))


def test_state_spec_refuses_a_parameter_count_naming_the_parameters():
    with pytest.raises(ValueError, match=r"^state kind 'ghz' takes 1 parameter\(s\) \(n\), got 2$"):
        StateSpec("ghz", (3, 4))
    with pytest.raises(ValueError, match=r"^state kind 'bell' takes 0 parameter\(s\) \(\), got 1$"):
        StateSpec("bell", [1])
    assert StateSpec("werner", [0.5]).params == (0.5,)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="MAX_QUBITS"):
        DensityMatrix(np.eye(2**9) / 2**9)
    one_nan = np.eye(2) / 2
    one_nan[0, 1] = np.nan
    for bad in (np.full((2, 2), np.nan), one_nan, np.diag([np.inf, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(bad)


def test_real_matrices_take_the_eigenvalue_floor_as_complex_ones_do():
    # The real part alone, [[0.5, 0], [0, 0.5]], is positive; the matrix is not.
    with pytest.raises(ValueError, match=r"semidefinite \(min eigenvalue -1.000e-01\)"):
        DensityMatrix(np.array([[0.5, 0.6j], [-0.6j, 0.5]]))
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    for depth, accepted in ((0.5e-10, True), (0.9e-10, True), (1.1e-10, False), (1.5e-10, False)):
        diagonal = np.diag([1.0 + depth, -depth])
        for mat in (diagonal, rotation @ diagonal @ rotation.T, diagonal.astype(complex)):
            if accepted:
                DensityMatrix(mat)
            else:
                with pytest.raises(ValueError, match="not positive semidefinite"):
                    DensityMatrix(mat)


def test_from_vector_scales_without_overflow_and_keeps_its_bits():
    gen = np.random.default_rng(17)
    for n in (1, 3, 6):
        vec = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        psi = vec / np.linalg.norm(vec)  # the unscaled rule, exact for O(1) amplitudes
        expected = np.outer(psi, psi.conj())
        for power in (-20, 0, 7, 600, 1000):
            np.testing.assert_array_equal(DensityMatrix.from_vector(vec * 2.0**power).matrix, expected)
    plus = DensityMatrix.from_vector([1, 1]).matrix
    np.testing.assert_array_equal(DensityMatrix.from_vector([1e200, 1e200]).matrix, plus)
    np.testing.assert_allclose(DensityMatrix.from_vector([1e-11, 0.0]).matrix, np.diag([1.0, 0.0]), atol=1e-15)
    with pytest.raises(ValueError, match="numerically zero"):
        DensityMatrix.from_vector([1e-13, 0.0])


def test_tensor_basics():
    zero = product_zero(1)
    np.testing.assert_array_equal(tensor(zero, zero).matrix, product_zero(2).matrix)
    mixed = DensityMatrix(np.eye(2) / 2)
    np.testing.assert_allclose(tensor(mixed, mixed).matrix, np.eye(4) / 4, atol=1e-15)


@given(st.integers(min_value=0, max_value=2**31))
def test_tensor_purity_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = random_density_matrix(1, rng)
    b = random_density_matrix(2, rng)
    product = tensor(a, b)
    assert abs(
        purity_direct(product) - purity_direct(a) * purity_direct(b)
    ) < 1e-12


def test_partial_trace_ghz_single_qubit_is_maximally_mixed():
    marginal = partial_trace(ghz(4), (1,))
    np.testing.assert_allclose(marginal.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    marginal = partial_trace(product_zero(2), (2,))
    np.testing.assert_allclose(marginal.matrix, product_zero(1).matrix, atol=1e-15)


def test_partial_trace_w3_pair_marginal():
    # Tracing one qubit of W(3) leaves (2/3)|psi+><psi+| + (1/3)|00><00|.
    marginal = partial_trace(w_state(3), (1, 2))
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    expected = (2 / 3) * np.outer(psi_plus, psi_plus) + (1 / 3) * product_zero(2).matrix
    np.testing.assert_allclose(marginal.matrix, expected, atol=1e-12)


def test_partial_trace_rejects_empty_and_bad_indices():
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(ghz(3), ())
    with pytest.raises(ValueError, match="outside"):
        partial_trace(ghz(3), (0, 1))


def test_partial_trace_keeping_everything_returns_state():
    rho = ghz(3)
    assert partial_trace(rho, (1, 2, 3)) is rho


@given(st.integers(min_value=0, max_value=2**31))
def test_partial_trace_composes(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(3, rng)
    two_step = partial_trace(partial_trace(rho, (1, 2)), (1,))
    one_step = partial_trace(rho, (1,))
    np.testing.assert_allclose(two_step.matrix, one_step.matrix, atol=1e-12)


def test_purity_direct_values():
    assert abs(purity_direct(ghz(4)) - 1.0) < 1e-12
    assert abs(purity_direct(DensityMatrix(np.eye(4) / 4)) - 0.25) < 1e-15
    p = 1 / np.sqrt(3)
    assert abs(purity_direct(werner(p)) - (p**2 + (1 - p**2) / 4)) < 1e-12
    assert abs(purity_direct(werner(p)) - 0.5) < 1e-12


def test_apply_local_unitaries_identity():
    rho = ghz(3)
    out = apply_local_unitaries(rho, [np.eye(2)] * 3)
    np.testing.assert_array_equal(out.matrix, rho.matrix)


def test_singlet_is_invariant_under_u_tensor_u():
    rho = bell_psi_minus()
    gen = RngStream(11).generator()
    for u in haar_unitaries(gen, 20):
        rotated = apply_local_unitaries(rho, [u, u])
        assert np.max(np.abs(rotated.matrix - rho.matrix)) < 1e-10


def test_random_local_rotations_preserve_product_correlation_length():
    rho = product_zero(2)
    gen = RngStream(12).generator()
    for _ in range(10):
        rotated = apply_local_unitaries(rho, haar_unitaries(gen, 2))
        assert abs(correlation_length(rotated, (1, 2)) - 1.0) < 1e-10


def test_purity_is_lu_invariant_over_100_frames():
    rho = werner(0.6)
    base = purity_direct(rho)
    gen = RngStream(13).generator()
    for _ in range(100):
        rotated = apply_local_unitaries(rho, haar_unitaries(gen, 2))
        assert abs(purity_direct(rotated) - base) < 1e-10


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DensityMatrix.from_vector([1, 0, 0]), "amplitude vector length 3 is not a power of 2"),
        (lambda: DensityMatrix.from_vector([]), "amplitude vector length 0 is not a power of 2"),
        (lambda: DensityMatrix.from_vector([0, 0]), "amplitude vector is numerically zero"),
        (lambda: product_zero(True), "parameter n must be an integer in 1..8, got True"),
        (lambda: make_state(StateSpec("product_zero", (True,))), "parameter n must be an integer in 1..8, got True"),
        # the builder checks its parameters as given, as ghz(4.0) is refused
        (lambda: make_state(StateSpec("ghz", (4.0,))), r"^parameter n must be an integer in 2\.\.8, got 4\.0$"),
        (lambda: make_state(StateSpec("ghz", ("4",))), r"^parameter n must be an integer in 2\.\.8, got '4'$"),
    ]
    + [
        (lambda shape=shape: DensityMatrix(np.zeros(shape)), rf"^matrix shape {re.escape(str(shape))} is not 2\^n x 2\^n for any n >= 1$")
        for shape in [(2, 3), (3, 3), (4,), (1, 1)]
    ]
    + [
        (lambda v=v: DensityMatrix.from_vector(v), r"^amplitude vector has non-finite \(NaN or inf\) entries$")
        for v in ([np.nan, 1.0], [1.0, 0.0, 0.0, complex(0.0, np.inf)])
    ]
    + [
        (lambda kind=kind, x=x: make_state(StateSpec(kind, (x,))), rf"^parameter {name} must be finite, got {x!r}$")
        for kind, name, x in (("bisep4", "phi", float("inf")), ("bisep4", "phi", float("nan")), ("werner", "p", -float("inf")))
    ]
    # refused by name before np.sin could warn (RuntimeWarnings are errors here)
    + [(lambda x=x: bisep4(x), rf"^parameter phi must be finite, got {x!r}$") for x in (float("inf"), float("nan"))]
    + [(lambda: DensityMatrix.from_vector([1.0]), r"^matrix shape \(1, 1\) is not 2\^n x 2\^n for any n >= 1$")]
    # refused before the 4^n-entry matrix is allocated (2^20 amplitudes would need 16 TiB)
    + [
        (lambda k=k: DensityMatrix.from_vector(np.ones(2**k)), rf"^n_qubits={k} exceeds the configured dense-matrix limit MAX_QUBITS=8$")
        for k in (9, 20)
    ],
    ids=[
        "vector_length", "empty_vector", "zero_vector", "bool_qubit_count", "bool_parameter",
        "float_qubit_count_spec", "text_qubit_count_spec",
        "shape_2x3", "shape_3x3", "shape_4", "shape_1x1",
        "nan_amplitude", "inf_amplitude", "inf_phi", "nan_phi", "negative_inf_p", "direct_inf_phi", "direct_nan_phi",
        "one_amplitude", "nine_qubit_vector", "twenty_qubit_vector",
    ],
)
def test_state_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_density_matrix_sizes_itself():
    assert DensityMatrix(np.eye(8) / 8).n_qubits == 3
    with pytest.raises(TypeError):
        DensityMatrix(2, np.eye(4) / 4)
