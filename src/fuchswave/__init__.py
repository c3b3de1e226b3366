"""Numerical laboratory for damped Klein-Gordon equations with
time-decaying dissipation and mass coefficients."""

__version__ = "0.1.0"

from .coeffs import (
    CoefficientModel,
    HypothesisReport,
    RegimeClassification,
    check_hypotheses,
    classify_regime,
    predicted_decay,
)
from .zones import ZoneConfig, ZoneLabel, classify, cutoffs, micro_weight, theta
from .modal import (
    FundamentalMatrix,
    MicroEnergy,
    ModalSystem,
    check_cocycle,
    evolve_micro_energy,
    integrate_fundamental,
)
from .asymptotic import (
    FuchsSystem,
    HWTransform,
    LevinsonSolution,
    hartman_wintner,
    levinson_solve,
)
from .diagonalize import (
    DiagonalizationStage,
    QResult,
    assemble_representation,
    build_stage,
    min_zone_constant,
    preliminary_transform,
    q_limit,
    q_propagator,
)
from .estimates import (
    DataSpec,
    DecayFit,
    EnergyTrace,
    energy_trace,
    fit_decay,
    improved_u_bound,
    lp_lq_rate,
    moment_experiment,
    scattering_operator,
    scattering_residual,
    sharpness_limit,
)
from .solver import Grid, simulate_fields
from .experiments import ExperimentConfig, ResultRecord, persist, run_experiment
