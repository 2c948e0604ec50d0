"""Random-state ensembles for property sweeps.

Generators target the hypothesis classes of the criteria directly:
biseparable states are built as Haar-random pure states on the blocks of
a random bipartition mixed with white noise, and mixed-W-class states as
convex mixtures of locally rotated W states.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

from .sampling import _generator, haar_unitaries
from .states import DensityMatrix, _unit_vector, w_state

MAX_W_COMPONENTS = 4


def random_pure_vector(dim: int, rng) -> np.ndarray:
    """Haar-random unit vector (complex Gaussian, normalized as
    ``DensityMatrix.from_vector`` normalizes, by no BLAS call)."""
    gen = _generator(rng)
    return _unit_vector(gen.standard_normal(dim) + 1j * gen.standard_normal(dim))


def bipartitions(n: int) -> list:
    """Unordered proper bipartitions of {1..n} as (block, complement)."""
    parties = tuple(range(1, n + 1))
    splits = [(b, tuple(p for p in parties if p not in b)) for size in range(1, n // 2 + 1) for b in combinations(parties, size)]
    # a balanced split comes twice; keep the order whose block sorts first
    return [(b, c) for b, c in splits if len(b) != len(c) or b < c]


def random_biseparable_state(n_qubits: int, rng) -> DensityMatrix:
    """Haar pure states on the blocks of a random bipartition, mixed with
    white noise at a uniform random weight."""
    gen = _generator(rng)
    splits = bipartitions(n_qubits)
    block, complement = splits[gen.integers(len(splits))]
    psi_block = random_pure_vector(2 ** len(block), gen)
    psi_comp = random_pure_vector(2 ** len(complement), gen)
    # one axis per qubit, in the order block + complement, moved to party order
    outer = np.multiply.outer(psi_block, psi_comp).reshape((2,) * n_qubits)
    vec = outer.transpose(np.argsort(block + complement)).ravel()
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
        local = reduce(np.kron, haar_unitaries(gen, n_qubits))
        mat += weight * (local @ base @ local.conj().T)
    return DensityMatrix(mat)
