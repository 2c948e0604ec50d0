"""randmeas: randomized-measurement simulation for few-qubit states.

Correlation distributions over random local measurement directions,
their statistical moments (Monte Carlo, exact tensor contraction,
spherical-design summation, finite-shot estimation), and moment-based
entanglement criteria.
"""

__version__ = "0.1.0"

from .correlations import (
    CorrelationDensity,
    CorrelationTensor,
    SampleSet,
    analytic_pdf,
    correlation,
    correlation_length,
    correlation_tensor,
    marginal_purity,
    sample_distribution,
)
from .criteria import (
    StructureReport,
    Verdict,
    bisep_line_3,
    bisep_line_3_r4,
    entanglement_by_length,
    gme_test_4,
    m_quantifier,
    structure_report_from_state,
    w_class_chi,
    w_class_witness,
)
from .moments import (
    MomentEstimate,
    ShotTable,
    bootstrap_error,
    exact_moment_map,
    moment_exact_t2,
    moments_design,
    moments_from_shots,
    moments_mc,
    purity_from_moments,
    simulate_shots,
)
from .sampling import (
    RngStream,
    SphericalDesign,
    design_points,
    haar_unitaries,
    half_design,
    uniform_directions,
    validate_design,
)
from .states import (
    DensityMatrix,
    StateSpec,
    apply_local_unitaries,
    bell_psi_minus,
    bisep4,
    cluster_linear,
    ghz,
    make_state,
    product_zero,
    purity_direct,
    tensor,
    trisep4,
    w_state,
    werner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
