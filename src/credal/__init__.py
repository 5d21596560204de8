"""Structured credal sets over environments and labelers.

Core objects: distribution primitives and TV computations (:mod:`.measures`),
the structured credal set with diameter bounds (:mod:`.sets`), empirical
diameter estimation with finite-sample certificates (:mod:`.estimation`),
finite min-max robust training (:mod:`.dro`), seeded synthetic generators
(:mod:`.synthgen`), and the experiment CLI (:mod:`.harness`).
"""

from credal.measures import (
    DiscreteGrid,
    Environment,
    Gaussian,
    Interval,
    Labeler,
    Probit,
    QuadratureConfig,
    Sigmoid,
    SymmetricNoise,
    Tabular,
    Threshold,
    conditional_tv,
    expected_conditional_tv,
    joint_tv_exact,
    joint_tv_many,
    sup_conditional_tv,
    tv_discrete,
    tv_env,
)
from credal.sets import (
    CredalSpec,
    DiameterReport,
    PairwiseBounds,
    component_diameters,
    diameter_bounds,
    pairwise_bounds,
    robust_penalty,
)

__version__ = "0.1.0"

__all__ = [
    "CredalSpec",
    "DiameterReport",
    "DiscreteGrid",
    "Environment",
    "Gaussian",
    "Interval",
    "Labeler",
    "PairwiseBounds",
    "Probit",
    "QuadratureConfig",
    "Sigmoid",
    "SymmetricNoise",
    "Tabular",
    "Threshold",
    "component_diameters",
    "conditional_tv",
    "diameter_bounds",
    "expected_conditional_tv",
    "joint_tv_exact",
    "joint_tv_many",
    "pairwise_bounds",
    "robust_penalty",
    "sup_conditional_tv",
    "tv_discrete",
    "tv_env",
]
