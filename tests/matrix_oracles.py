"""Matrix-route references that the package itself no longer needs.

``partial_trace`` and ``purity_direct`` are the oracles for
``correlations.marginal_purity``, which reads marginal purities off the
Pauli tensor instead.  ``random_density_matrix``, ``tensor`` and
``apply_local_unitaries`` build the generic, product and locally rotated
states the tests check invariants on.
"""

from functools import reduce

import numpy as np

from randmeas.sampling import _generator
from randmeas.states import DensityMatrix


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce ``rho`` to the parties in ``keep`` (1-based indices).

    The marginal's qubits are ordered by ascending party index.  Keeping
    every party returns ``rho`` unchanged.
    """
    n = rho.n_qubits
    keep_t = tuple(sorted({int(k) for k in keep}))
    if not keep_t:
        raise ValueError("keep must name at least one party")
    if keep_t[0] < 1 or keep_t[-1] > n:
        raise ValueError(f"keep indices {keep_t} outside 1..{n}")
    if len(keep_t) == n:
        return rho
    tensor_form = rho.matrix.reshape((2,) * (2 * n))
    remaining = n
    for party in sorted(set(range(1, n + 1)) - set(keep_t), reverse=True):
        axis = party - 1
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + remaining)
        remaining -= 1
    dim = 2 ** len(keep_t)
    return DensityMatrix(tensor_form.reshape(dim, dim))


def purity_direct(rho: DensityMatrix) -> float:
    """tr(rho^2), computed directly from the matrix."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def random_density_matrix(n_qubits: int, rng) -> DensityMatrix:
    """Generic full-rank mixed state from a square Ginibre matrix."""
    gen = _generator(rng)
    dim = 2**n_qubits
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product a (x) b; a's qubits come first."""
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def apply_local_unitaries(rho: DensityMatrix, unitaries) -> DensityMatrix:
    """Conjugate ``rho`` by U_1 (x) ... (x) U_n, one 2x2 unitary per qubit."""
    local = reduce(np.kron, [np.asarray(u, dtype=complex) for u in unitaries])
    return DensityMatrix(local @ rho.matrix @ local.conj().T)
