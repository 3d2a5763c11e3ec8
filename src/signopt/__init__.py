"""Active threshold learning and gradient-sign coordinate descent.

A library plus CLI harness for locating 1-D thresholds from noisy binary
labels (passive ERM, probabilistic bisection, an adaptive epoch learner,
exact bisection) and for minimizing smooth uniformly convex functions given
only noisy gradient signs, by running a 1-D learner as the line search of
randomized coordinate descent.
"""

from .problems import (Box, DimensionMismatch, Interval, Line, OutOfDomain,
                       POSITIVE_LEFT, POSITIVE_RIGHT, Quadratic, Ridge,
                       SeparablePower, TncProblem, UcFunction, box_from_bounds,
                       load_ridge_text, make_tnc_problem)
from .oracles import (BudgetExhausted, DirectBernoulli, ExactSign,
                      GaussianNoise, LabelOracle, SignOracle, UniformNoise,
                      seeded_rng)
from .learners import (LearnerConfig, adaptive_epoch_schedule,
                       adaptive_learner, auto_grid_size, bisect_noiseless,
                       bz_learner, erm_cut, passive_erm, run_learner)
from .optimizer import (LineLabelOracle, OptimizerConfig,
                        default_epoch_count, line_label_oracle, rssgd)
from .metrics import (ErrorRecord, RateFit, error_record, excess_risk,
                      fit_rate_slope)
from .harness import (ConfigError, ExperimentConfig, RunTable, load_config,
                      run_experiment, slope_report)

__version__ = "0.1.0"

__all__ = [
    "Box", "BudgetExhausted", "ConfigError", "DimensionMismatch",
    "DirectBernoulli", "ErrorRecord", "ExactSign", "ExperimentConfig",
    "GaussianNoise", "Interval", "LabelOracle", "LearnerConfig", "Line",
    "LineLabelOracle", "OptimizerConfig", "OutOfDomain", "POSITIVE_LEFT",
    "POSITIVE_RIGHT", "Quadratic", "RateFit", "Ridge", "RunTable",
    "SeparablePower", "SignOracle", "TncProblem", "UcFunction", "UniformNoise",
    "adaptive_epoch_schedule", "adaptive_learner", "auto_grid_size",
    "bisect_noiseless", "box_from_bounds", "bz_learner", "default_epoch_count",
    "erm_cut", "error_record", "excess_risk", "fit_rate_slope", "line_label_oracle",
    "load_config", "load_ridge_text", "make_tnc_problem", "passive_erm",
    "rssgd", "run_experiment", "run_learner", "seeded_rng", "slope_report",
]
