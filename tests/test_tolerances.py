"""Every rounding tolerance a check forgives, pinned at its boundary.

Each row feeds its check one value inside the tolerance by 10% (accepted)
and one outside it by 10% (refused).  The tolerances are written here as
numbers, so moving one fails this table.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from randmeas import moments
from randmeas.cli import CrossCheckError, _cross_check
from randmeas.correlations import CorrelationTensor, _clamped, pauli_coefficients
from randmeas.criteria import gme_test_4, w_class_witness
from randmeas.moments import MomentEstimate, all_subsets, exact_moment_map
from randmeas.sampling import SphericalDesign, as_direction_array, half_design, validate_design
from randmeas.states import DensityMatrix, ghz

GHZ4_EXACT = exact_moment_map(ghz(4), all_subsets(4))


def _born(d):
    """Born probabilities of one qubit whose z coefficient is 1 + 2d, measured
    along z: p(-1) = -d."""
    rho = SimpleNamespace(pauli=np.array([1.0, 0.0, 0.0, 1.0 + 2.0 * d]))
    return moments._pauli_probabilities(rho, np.array([[[0.0, 0.0, 1.0]]]))


#: check -> (tolerance, call taking the amount d by which the value leaves
#: its exact range; a call returns False or raises when it refuses)
BOUNDARIES = {
    # a bounded expectation value's overshoot
    "correlation_above_1": (1e-9, lambda d: _clamped(np.array([1.0 + d]))),
    "correlation_below_-1": (1e-9, lambda d: _clamped(np.array([-1.0 - d]))),
    "correlation_tensor": (1e-9, lambda d: CorrelationTensor((1,), [0.0, 1.0 + d, 0.0])),
    "even_moment_below_0": (1e-9, lambda d: MomentEstimate((1,), 2, -d, None, "exact_tensor")),
    "even_moment_above_1": (1e-9, lambda d: MomentEstimate((1,), 2, 1.0 + d, None, "exact_tensor")),
    "read_moment": (1e-9, lambda d: w_class_witness(1.0 + d, 3)),
    "read_moment_below_0": (1e-9, lambda d: w_class_witness(-d, 3)),
    "exact_purity": (1e-9, lambda d: gme_test_4(GHZ4_EXACT, 1.0 + d)),
    "born_probability": (1e-9, _born),
    # a density matrix's and its Pauli tensor's rounding
    "hermiticity": (1e-10, lambda d: DensityMatrix(np.array([[0.5, d], [0.0, 0.5]]))),
    "trace": (1e-10, lambda d: DensityMatrix(np.diag([0.5 + d, 0.5]))),
    "eigenvalue_floor": (1e-10, lambda d: DensityMatrix(np.diag([1.0 + d, -d]))),
    "pauli_imaginary_residue": (
        1e-10,
        lambda d: pauli_coefficients(SimpleNamespace(n_qubits=1, matrix=np.array([[0.5, 0.0], [1j * d, 0.5]]))),
    ),
    # a direction's norm and the exact sums over directions
    "unit_norm": (1e-12, lambda d: as_direction_array([0.0, 0.0, 1.0 + d])),
    "design_validation": (
        1e-12,
        lambda d: validate_design(SphericalDesign(1, [[0.0, 0.0, 1.0], [2.0 * d, 0.0, -1.0]]))["passed"],
    ),
    "half_design_antipodes": (1e-12, lambda d: half_design(SphericalDesign(1, [[1.0, 0.0, 0.0], [-1.0, d, 0.0]]))),
    "design_cross_check": (1e-12, lambda d: _cross_check(MomentEstimate((1,), 2, 0.25, None, "design"), 0.25 + d)),
}


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("check", BOUNDARIES)
def test_each_tolerance_accepts_inside_and_refuses_outside(check, inside):
    tolerance, call = BOUNDARIES[check]
    try:
        accepted = call((0.9 if inside else 1.1) * tolerance) is not False
    except (ValueError, CrossCheckError):
        accepted = False
    assert accepted == inside
