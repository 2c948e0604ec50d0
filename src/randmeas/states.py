"""Dense n-qubit density matrices and the named states used throughout.

Conventions: qubit 1 is the most significant (leftmost) tensor factor and
all party indices are 1-based.  States are kept as full 2^n x 2^n complex
matrices; nothing here is sparse.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

#: Dense matrices grow as 4^n; constructions beyond this size are refused.
MAX_QUBITS = 8

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit density matrix.

    ``n_qubits`` is read off the 2^n x 2^n shape.  Validation happens at
    construction: the matrix must be finite, Hermitian and unit-trace within
    1e-10 and positive semidefinite up to an eigenvalue floor of -1e-10;
    ``from_vector`` checks its vector instead, for reasons given there.
    Instances are immutable (the stored array is marked read-only), so
    they are safe to share across workers.  ``from_vector`` also keeps the
    read-only normalized amplitudes as ``_vector``; other states hold None.
    """

    matrix: np.ndarray
    n_qubits: int = field(init=False)
    _vector: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        n = _qubit_count(np.shape(self.matrix))
        mat = np.array(self.matrix, dtype=complex)
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite (NaN or inf) entries")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        trace_dev = abs(mat.trace() - 1.0)
        if trace_dev > TRACE_ATOL:
            raise ValueError(f"matrix trace deviates from 1 by {trace_dev:.3e}")
        # A real matrix (every named state) takes the faster real routine;
        # both read the same lower triangle.
        min_eig = float(np.linalg.eigvalsh(mat if mat.imag.any() else mat.real)[0])
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        self._freeze(mat, n)

    def _freeze(self, mat: np.ndarray, n: int) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "n_qubits", n)

    @cached_property
    def pauli(self) -> np.ndarray:
        """Read-only ``pauli_coefficients`` of this state, computed on first use."""
        from .correlations import pauli_coefficients  # correlations imports states

        coeffs = pauli_coefficients(self)
        coeffs.setflags(write=False)
        return coeffs

    @classmethod
    def from_vector(cls, amplitudes) -> "DensityMatrix":
        """Build the pure state |psi><psi| from an amplitude vector, normalized here.

        Only the vector is checked, its size before the matrix is allocated:
        the outer product of a finite unit vector is Hermitian to rounding,
        and its trace and only nonzero eigenvalue are the squared norm, 1.
        """
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        dim = psi.size
        if dim < 1 or dim & (dim - 1):
            raise ValueError(f"amplitude vector length {dim} is not a power of 2")
        if not np.all(np.isfinite(psi)):
            raise ValueError("amplitude vector has non-finite (NaN or inf) entries")
        # Dividing by the power of two at the largest component first is
        # exact, so the norm cannot overflow and the normalized bits stay.
        exponent = int(np.frexp(np.max(np.abs(psi.view(float))))[1])
        psi = np.ldexp(psi.view(float), -exponent).view(complex)
        norm = np.linalg.norm(psi)
        # The input's norm is norm * 2^exponent, which exceeds 1/2 at exponent > 0.
        if exponent <= 0 and np.ldexp(norm, exponent) < 1e-12:
            raise ValueError("amplitude vector is numerically zero")
        psi = psi / norm
        n = _qubit_count((dim, dim))
        rho = object.__new__(cls)
        rho._freeze(np.outer(psi, psi.conj()), n)
        psi.setflags(write=False)
        object.__setattr__(rho, "_vector", psi)
        return rho


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def product_zero(n: int) -> DensityMatrix:
    """|0...0><0...0| on n qubits."""
    n = _check_int("parameter n", n, 1, MAX_QUBITS)
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    return DensityMatrix.from_vector(vec)


def bell_psi_minus() -> DensityMatrix:
    """The singlet (|01> - |10>)/sqrt(2)."""
    return DensityMatrix.from_vector([0.0, 1.0, -1.0, 0.0])


def ghz(n: int) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _check_int("parameter n", n, 2, MAX_QUBITS)
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0
    return DensityMatrix.from_vector(vec)


def w_state(n: int) -> DensityMatrix:
    """Equal superposition of the n one-excitation basis states."""
    n = _check_int("parameter n", n, 2, MAX_QUBITS)
    vec = np.zeros(2**n, dtype=complex)
    for j in range(n):
        vec[1 << (n - 1 - j)] = 1.0
    return DensityMatrix.from_vector(vec)


def cluster_linear() -> DensityMatrix:
    """Four-qubit linear cluster state: CZ chain applied to |++++>.

    Amplitude of basis state b picks up (-1) for every adjacent 11 pair.
    """
    vec = np.empty(16, dtype=complex)
    for b in range(16):
        bits = [(b >> (3 - j)) & 1 for j in range(4)]
        sign = 1
        for j in range(3):
            if bits[j] and bits[j + 1]:
                sign = -sign
        vec[b] = sign * 0.25
    return DensityMatrix.from_vector(vec)


def werner(p: float) -> DensityMatrix:
    """Mixture p |psi-><psi-| + (1-p) I/4 of the singlet with white noise."""
    p = _check_real("parameter p", p, 0, 1)
    singlet = bell_psi_minus().matrix
    return DensityMatrix(p * singlet + (1.0 - p) * np.eye(4) / 4.0)


def _phi_plus_vec() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def trisep4() -> DensityMatrix:
    """Triseparable four-qubit state (|00>+|11>)/sqrt(2) x |0> x |0>."""
    e0 = np.array([1.0, 0.0], dtype=complex)
    vec = np.kron(np.kron(_phi_plus_vec(), e0), e0)
    return DensityMatrix.from_vector(vec)


def bisep4(phi: float = 0.2) -> DensityMatrix:
    """Biseparable four-qubit state (|00>+|11>)/sqrt(2) x (sin(phi)|00> + cos(phi)|11>)."""
    phi = _check_real("parameter phi", phi)
    second = np.array([np.sin(phi), 0.0, 0.0, np.cos(phi)], dtype=complex)
    return DensityMatrix.from_vector(np.kron(_phi_plus_vec(), second))


@dataclass(frozen=True)
class NamedState:
    """One row of :data:`STATES`.

    ``build`` takes the parameters named by ``params``; ``cast`` parses
    their text form and ``defaults`` stands in when a spec gives none.  An
    alias row carries only the ``(kind, params)`` it stands for.
    ``density`` names the closed-form correlation density of the full
    party set (an ``analytic_pdf`` kind taking the row's parameters).
    """

    build: Callable[..., DensityMatrix] | None = None
    params: tuple = ()
    cast: type = int
    defaults: tuple | None = None
    alias_of: tuple | None = None
    density: str | None = None


#: Every named state kind and alias; adding a kind means adding a row.
STATES = {
    "product_zero": NamedState(product_zero, ("n",), int),
    "bell": NamedState(bell_psi_minus, density="bell"),
    "ghz": NamedState(ghz, ("n",), int),
    "w": NamedState(w_state, ("n",), int),
    "cluster_linear": NamedState(cluster_linear),
    "werner": NamedState(werner, ("p",), float, density="werner"),
    "trisep4": NamedState(trisep4),
    "bisep4": NamedState(bisep4, ("phi",), float, (0.2,)),
    "product2": NamedState(alias_of=("product_zero", (2,)), density="product2"),
    "bell_psi_minus": NamedState(alias_of=("bell", ())),
}


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Symbolic description of a state: a kind name plus one value per
    parameter its :data:`STATES` row names."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        row = STATES.get(self.kind)
        if row is None or row.alias_of is not None:
            raise ValueError(
                f"unknown state kind {self.kind!r}; valid kinds: "
                + ", ".join(sorted(k for k, r in STATES.items() if r.alias_of is None))
            )
        params = tuple(self.params)
        if len(params) != len(row.params):
            raise ValueError(
                f"state kind {self.kind!r} takes {len(row.params)} parameter(s) "
                f"({', '.join(row.params)}), got {len(params)}"
            )
        object.__setattr__(self, "params", params)


def make_state(spec: StateSpec) -> DensityMatrix:
    """Construct the density matrix described by ``spec``.  Its builder is the
    one owner of the parameters' checks (``_check_int``, ``_check_real``)."""
    return STATES[spec.kind].build(*spec.params)


def _qubit_count(shape) -> int:
    """n of a 2^n x 2^n matrix ``shape``, refused unless 1 <= n <= MAX_QUBITS."""
    dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    n = dim.bit_length() - 1
    if n < 1 or dim != 2**n:
        raise ValueError(f"matrix shape {shape} is not 2^n x 2^n for any n >= 1")
    if n > MAX_QUBITS:
        raise ValueError(f"n_qubits={n} exceeds the configured dense-matrix limit MAX_QUBITS={MAX_QUBITS}")
    return n


def _check_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int: the one rule for every integer the library takes.
    Python and numpy integers in minimum..maximum pass; a bool, a float
    (2.0 too), a string or anything out of range is refused."""
    # a plain int, the common case, is tested first; a bool is an int subclass
    if type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
        if minimum <= value and (maximum is None or value <= maximum):
            return int(value)
    bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_real(name: str, value, low: float = -np.inf, high: float = np.inf) -> float:
    """``value`` as a finite float in [low, high]: the one rule for every
    real parameter.  A bool or a string is refused, not cast."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    as_float = float(value)
    if not np.isfinite(as_float):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not low <= as_float <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {as_float}")
    return as_float
