"""Random-state ensembles for property sweeps.

Generators target the hypothesis classes of the criteria directly:
biseparable states are built as Haar-random pure states on the blocks of
a random bipartition mixed with white noise, and mixed-W-class states as
convex mixtures of locally rotated W states.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .sampling import _generator, haar_unitaries
from .states import DensityMatrix, _conjugate_locally, w_state

MAX_W_COMPONENTS = 4


def random_pure_vector(dim: int, rng) -> np.ndarray:
    """Haar-random unit vector (complex Gaussian, normalized)."""
    gen = _generator(rng)
    vec = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_density_matrix(n_qubits: int, rng) -> DensityMatrix:
    """Generic full-rank mixed state from a square Ginibre matrix."""
    gen = _generator(rng)
    dim = 2**n_qubits
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def permute_vector_qubits(vec: np.ndarray, order) -> np.ndarray:
    """Reorder a state vector whose qubits currently appear in ``order``
    (1-based party labels) into ascending party order."""
    order = list(order)
    n = len(order)
    tensor_form = np.asarray(vec).reshape((2,) * n)
    perm = [order.index(p) for p in sorted(order)]
    return np.transpose(tensor_form, perm).ravel()


def bipartitions(n: int) -> list:
    """Unordered proper bipartitions of {1..n} as (block, complement)."""
    parties = tuple(range(1, n + 1))
    out = []
    for size in range(1, n // 2 + 1):
        for block in combinations(parties, size):
            complement = tuple(p for p in parties if p not in block)
            if size == n - size and block > complement:
                continue  # avoid double-counting balanced splits
            out.append((block, complement))
    return out


def random_biseparable_state(n_qubits: int, rng) -> DensityMatrix:
    """Haar pure states on the blocks of a random bipartition, mixed with
    white noise at a uniform random weight."""
    gen = _generator(rng)
    splits = bipartitions(n_qubits)
    block, complement = splits[gen.integers(len(splits))]
    psi_block = random_pure_vector(2 ** len(block), gen)
    psi_comp = random_pure_vector(2 ** len(complement), gen)
    vec = permute_vector_qubits(np.kron(psi_block, psi_comp), block + complement)
    noise_weight = gen.uniform(0.0, 1.0)
    dim = 2**n_qubits
    mat = (1.0 - noise_weight) * np.outer(vec, vec.conj()) + noise_weight * np.eye(dim) / dim
    return DensityMatrix(mat)


def random_w_class_mixture(n_qubits: int, rng) -> DensityMatrix:
    """Convex mixture of 1 to ``MAX_W_COMPONENTS`` locally rotated W states
    (a subset of the mixed W class)."""
    gen = _generator(rng)
    n_components = int(gen.integers(1, MAX_W_COMPONENTS + 1))
    weights = gen.dirichlet(np.ones(n_components))
    base = w_state(n_qubits).matrix
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for weight in weights:
        mat += weight * _conjugate_locally(base, haar_unitaries(gen, n_qubits))
    return DensityMatrix(mat)
