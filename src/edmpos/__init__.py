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
    classify_n4,
    clock_bias_estimate,
    kappa,
    self_consistency_test,
)
from .edm_core import (
    EdmBundle,
    EdmClass,
    SatelliteConfig,
    augmented_edm_check,
    build_edm,
    build_v_basis,
    factor_anchors,
    factor_edm,
)
from .errors import (
    BadShape,
    EdmPosError,
    GaleInfeasible,
    GeometryRejection,
    NegativeSquare,
    NoConvergence,
    NotAnEdm,
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
from .position import PositionFix, recover_position
from .report import SolveReport
from .solver_general import (
    SecularProblemGen,
    build_secular_general,
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
    "NotAnEdm",
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
    "build_edm",
    "build_secular_general",
    "build_v_basis",
    "classify_n4",
    "clock_bias_estimate",
    "eval_f",
    "factor_anchors",
    "factor_edm",
    "generate_scenario",
    "kappa",
    "nlp_oracle",
    "prepare_scenario",
    "recover_position",
    "run_batch",
    "run_pipeline",
    "self_consistency_test",
    "solve_qcqp",
    "solve_unconstrained",
]
