"""Simulation and classification laboratory for additive processes with
periodically stationary increments.

Build processes from Levy segments tiling a period, sample their paths and
discrete skeletons exactly in law, and decide recurrence versus transience
by analytic criteria cross-checked against Monte Carlo occupation-time
diagnostics and law-of-large-numbers verifiers.
"""

from .models import (
    BrownianDrift,
    CompoundPoisson,
    DimensionMismatch,
    GaussianJump,
    LaplaceJump,
    LevyModel,
    PointMass,
    PureDrift,
    SumModel,
    SymmetricStable,
    UniformJump,
)
from .schedule import (
    PathSample,
    SemiLevySchedule,
    equivalent_levy_model,
    increment_exponent,
    make_splice,
    period_covariance,
    period_exponent,
    period_mean,
    sample_interval_increment,
    sample_path,
    sample_paths,
    single_segment,
)
from .skeleton import (
    BallVisitCurve,
    RationalStep,
    WalkSample,
    ball_visit_curve,
    occupation_time,
    sample_walk,
    sample_walks,
)
from .classify import (
    Criterion,
    Decision,
    OccupationReport,
    QuadratureError,
    Verdict,
    ball_integral_qmc,
    chung_fuchs_integral,
    chung_fuchs_verdict,
    drift_test,
    empirical_diagnostic,
    empirical_verdict,
    mean_criterion,
    radius_sweep,
)
from .lln import LLNReport, divergence_check, slln_check, wlln_conditions
from .util import split_seed

__version__ = "0.1.0"

__all__ = [
    "BrownianDrift",
    "CompoundPoisson",
    "DimensionMismatch",
    "GaussianJump",
    "LaplaceJump",
    "LevyModel",
    "PointMass",
    "PureDrift",
    "SumModel",
    "SymmetricStable",
    "UniformJump",
    "PathSample",
    "SemiLevySchedule",
    "equivalent_levy_model",
    "increment_exponent",
    "make_splice",
    "period_covariance",
    "period_exponent",
    "period_mean",
    "sample_interval_increment",
    "sample_path",
    "sample_paths",
    "single_segment",
    "BallVisitCurve",
    "RationalStep",
    "WalkSample",
    "ball_visit_curve",
    "occupation_time",
    "sample_walk",
    "sample_walks",
    "Criterion",
    "Decision",
    "OccupationReport",
    "QuadratureError",
    "Verdict",
    "ball_integral_qmc",
    "chung_fuchs_integral",
    "chung_fuchs_verdict",
    "drift_test",
    "empirical_diagnostic",
    "empirical_verdict",
    "mean_criterion",
    "radius_sweep",
    "LLNReport",
    "divergence_check",
    "slln_check",
    "wlln_conditions",
    "split_seed",
]
