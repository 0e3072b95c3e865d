"""Stealth data-injection attacks on DC state estimation.

Builds the linearized measurement model of a power network, constructs
information-theoretic Gaussian stealth attacks, estimates by Monte Carlo
how the attack degrades when its statistics are learned from K training
samples, and evaluates a closed-form random-matrix upper bound on that
ergodic performance.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundProgram,
    BoundResult,
    EigBoundPair,
    digamma,
    ergodic_upper_bound,
    expected_logdet_std_wishart,
    extreme_eig_bounds,
    logdet_lower_bound,
    solve_bound_program,
    spectral_upper_bound,
)
from .detection import (
    DetectionExperiment,
    ExponentEstimate,
    ExponentPoint,
    calibrate_threshold,
    error_exponent_estimate,
    lrt_statistic,
    run_detection_experiment,
)
from .experiment import (
    DEFAULT_K_GRID,
    ExperimentConfig,
    emit_fig1_dataset,
    load_experiment_config,
    run_experiment,
)
from .gaussian import (
    AttackModel,
    DerivedCovariances,
    Scenario,
    SpectralData,
    StateCovariance,
    attack_from_matrix,
    derived_covariances,
    gaussian_kl_marginals,
    gaussian_mutual_information,
    nonzero_spectrum,
    optimal_attack_covariance,
    optimal_cost,
    sigma_from_snr,
    stealth_cost,
    toeplitz_covariance,
    zero_mean_gaussian_kl,
)
from .grid import (
    Branch,
    Bus,
    GridCase,
    MatpowerParseError,
    MeasurementModel,
    MeasurementSelection,
    build_dc_jacobian,
    load_ieee30,
    load_matpower_case,
    load_matrix_csv,
    load_measurement_matrix,
    parse_matpower_case,
)
from .learning import (
    ErgodicEstimate,
    SampleCovariance,
    TrainingConfig,
    draw_sample_covariance,
    estimate_ergodic_cost,
    learned_attack_covariance,
    sample_covariance,
    spectral_ergodic_costs,
)

__all__ = [
    "__version__",
    # grid
    "Bus",
    "Branch",
    "GridCase",
    "MeasurementSelection",
    "MeasurementModel",
    "MatpowerParseError",
    "parse_matpower_case",
    "load_matpower_case",
    "load_ieee30",
    "build_dc_jacobian",
    "load_matrix_csv",
    "load_measurement_matrix",
    # gaussian
    "StateCovariance",
    "AttackModel",
    "DerivedCovariances",
    "SpectralData",
    "Scenario",
    "toeplitz_covariance",
    "sigma_from_snr",
    "derived_covariances",
    "optimal_attack_covariance",
    "attack_from_matrix",
    "stealth_cost",
    "gaussian_mutual_information",
    "gaussian_kl_marginals",
    "zero_mean_gaussian_kl",
    "nonzero_spectrum",
    "optimal_cost",
    # learning
    "TrainingConfig",
    "SampleCovariance",
    "ErgodicEstimate",
    "sample_covariance",
    "draw_sample_covariance",
    "learned_attack_covariance",
    "estimate_ergodic_cost",
    "spectral_ergodic_costs",
    # bounds
    "digamma",
    "EigBoundPair",
    "extreme_eig_bounds",
    "expected_logdet_std_wishart",
    "BoundProgram",
    "solve_bound_program",
    "logdet_lower_bound",
    "BoundResult",
    "spectral_upper_bound",
    "ergodic_upper_bound",
    # detection
    "DetectionExperiment",
    "ExponentPoint",
    "ExponentEstimate",
    "lrt_statistic",
    "calibrate_threshold",
    "run_detection_experiment",
    "error_exponent_estimate",
    # experiment
    "ExperimentConfig",
    "load_experiment_config",
    "run_experiment",
    "emit_fig1_dataset",
    "DEFAULT_K_GRID",
]
