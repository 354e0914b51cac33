"""Desk-scale laboratory for offline RL in stage-structured MDPs with skipping."""

from .design import (
    DesignResult,
    Guess,
    approx_optimal_design,
    build_true_guess,
    epsilon_net,
    guess_from_fit,
    guess_grid,
    panel_size,
)
from .envs import FeatureMap, estimate_misspecification, fit_policy_stack, random_linear_mdp
from .harness import ExperimentConfig, emit_plots, load_dataset, save_dataset, sweep, verify
from .learner import (
    ConfidenceSets,
    LearnerConfig,
    SolveOutcome,
    build_confidence_sets,
    calibrate,
    clipped_v,
    lstsq_anchor,
    skip_optimal_policy,
    solve,
    stage_covariance,
    tightness,
)
from .mdp import (
    Dataset,
    OccupancyMeasure,
    Policy,
    StagedMdp,
    ValueTables,
    evaluate_policy,
    occupancy,
    optimal_policy,
)
from .oracles import (
    ConcReport,
    StopDistribution,
    check_elliptical_potential,
    check_lsq_decomposition,
    check_perf_diff,
    check_projection_bound,
    check_range_bound,
    check_skip_realizability,
    concentrability,
    guess_range,
    skip_probability,
    skip_target,
    stop_distribution,
    suboptimality,
)
from .skipping import SkipParams

__version__ = "0.1.0"
