"""Matrix-route references that the package itself no longer needs.

``partial_trace`` is the oracle for ``correlations.marginal_purity``,
which reads marginal purities off the Pauli tensor instead.
"""

import numpy as np

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
