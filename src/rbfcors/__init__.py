"""Derivative-free global optimization of expensive black-box functions.

The toolkit combines a space-filling Latin-hypercube initial design, a cubic
radial-basis-function response surface with a linear tail, an exclusion-radius
sampling rule whose ball density shrinks to zero over the iteration budget,
covariance-based rescaling of the search space, and batch-parallel objective
evaluation.
"""

from .benchmarks import NamedObjective, builtin, grid_oracle, multimodal, sphere, valley
from .cors import (
    Proposal,
    ProposalSettings,
    RadiusSchedule,
    draw_batch,
    draw_candidates,
    exclusion_radius,
    propose_batch,
    propose_point,
    unit_ball_volume,
)
from .engine import (
    BatchEvaluationError,
    DriverError,
    EvaluationRecord,
    ObjectiveError,
    OptimizationConfig,
    OptimizationResult,
    RunError,
    best_so_far,
    evaluate_batch,
    run,
)
from .lhs import LatinHypercube, diagonal_lh, improve_lh, spread
from .rbf import (
    RbfModel,
    SingularFitError,
    SpaceScaling,
    compute_space_scaling,
    fit,
    refit_with_scaling,
    scaling_cloud,
)
from .scaling import BoundedDomain, ObjectiveRescaler, fit_rescaler

__all__ = [
    "BatchEvaluationError",
    "BoundedDomain",
    "DriverError",
    "EvaluationRecord",
    "LatinHypercube",
    "NamedObjective",
    "ObjectiveError",
    "ObjectiveRescaler",
    "OptimizationConfig",
    "OptimizationResult",
    "Proposal",
    "ProposalSettings",
    "RadiusSchedule",
    "RbfModel",
    "RunError",
    "SingularFitError",
    "SpaceScaling",
    "best_so_far",
    "builtin",
    "compute_space_scaling",
    "diagonal_lh",
    "draw_batch",
    "draw_candidates",
    "evaluate_batch",
    "exclusion_radius",
    "fit",
    "fit_rescaler",
    "grid_oracle",
    "improve_lh",
    "multimodal",
    "propose_batch",
    "propose_point",
    "refit_with_scaling",
    "run",
    "scaling_cloud",
    "sphere",
    "spread",
    "unit_ball_volume",
    "valley",
]

__version__ = "0.1.0"
