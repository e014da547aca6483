"""Distance-matrix consistency checks and closed-form receiver positioning.

Given n anchor positions and n measured pseudoranges, this package decides
whether the measurement is geometrically self-consistent, projects it onto
the nearest consistent squared-range vector, and recovers the receiver
position in closed form.
"""

from .consistency import (
    ConsistencyVerdict,
    Measurement,
    Verdict,
    clock_bias_estimate,
    kappa,
    self_consistency_test,
)
from .edm_core import (
    EdmBundle,
    EdmClass,
    SatelliteConfig,
    augmented_edm_check,
    build_v_basis,
    factor_anchors,
)
from .errors import (
    BadShape,
    EdmPosError,
    GaleInfeasible,
    GeometryRejection,
    NegativeSquare,
    NoConvergence,
    PoleEvaluation,
    SingularGeometry,
)
from .harness import (
    BatchSpec,
    BatchStats,
    ConstantBias,
    GaussianSq,
    PipelineOptions,
    Scenario,
    SingleFault,
    apply_noise,
    generate_scenario,
    prepare_scenario,
    run_batch,
    run_pipeline,
)
from .position import PositionFix
from .report import SolveReport
from .solver_general import (
    SecularProblemGen,
    eval_f,
    nlp_oracle,
    solve_qcqp,
    solve_unconstrained,
)

__version__ = "0.1.0"

__all__ = [
    "BadShape",
    "BatchSpec",
    "BatchStats",
    "ConsistencyVerdict",
    "ConstantBias",
    "EdmBundle",
    "EdmClass",
    "EdmPosError",
    "GaleInfeasible",
    "GaussianSq",
    "GeometryRejection",
    "Measurement",
    "NegativeSquare",
    "NoConvergence",
    "PipelineOptions",
    "PoleEvaluation",
    "PositionFix",
    "SatelliteConfig",
    "Scenario",
    "SecularProblemGen",
    "SingleFault",
    "SingularGeometry",
    "SolveReport",
    "Verdict",
    "apply_noise",
    "augmented_edm_check",
    "build_v_basis",
    "clock_bias_estimate",
    "eval_f",
    "factor_anchors",
    "generate_scenario",
    "kappa",
    "nlp_oracle",
    "prepare_scenario",
    "run_batch",
    "run_pipeline",
    "self_consistency_test",
    "solve_qcqp",
    "solve_unconstrained",
]
