"""Numerical laboratory for logistic damping in chemotaxis-growth systems.

Closed-form damping and convergence thresholds, coefficient selection for
the coupled dissipation systems, an IMEX finite-volume solver on box grids
with blow-up detection, functional/decay diagnostics, and a scenario
harness with CLI.
"""

__version__ = "0.1.0"

from .params import Grid, Parameters, SourceFunction, State, validate
from .thresholds import (
    CoefficientSet3D,
    CoefficientSet45D,
    ThresholdReport,
    feasibility_floor_45d,
    gamma_rate,
    minimize_h,
    mu0_general,
    mu1,
    report,
    select_coefficients_3d,
    select_coefficients_45d,
    verify_system_3d,
    verify_system_45d,
)
from .solver import (
    SolverConfig,
    Trajectory,
    initial_condition,
    refinement_study,
    run,
    step,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsSeries,
    convergence_audit,
    fit_decay,
    mass_bound_check,
)
from .harness import (
    ExperimentConfig,
    parse_config,
    run_scenario,
    run_sweep,
    serialize_config,
)
