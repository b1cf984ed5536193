"""Payload-aware nonlinear centroidal MPC with a contact-stable wrench parametrization."""

from .contact import (
    ContactSurface,
    StabilityReport,
    invert_parametrization,
    is_contact_stable,
    parametrization_jacobian,
    parametrize,
)
from .costs import (
    Weights,
    footstep_cost,
    parameter_regularization_cost,
    payload_attenuation_cost,
    tracking_cost,
)
from .dynamics import (
    GRAVITY,
    CentroidalState,
    PayloadDisturbance,
    RobotConstants,
    Wrench,
    centroidal_dynamics,
    euler_step,
    gravity_vector,
    skew,
    wrench_transport_map,
)
from .errors import (
    ConfigurationError,
    InfeasiblePhaseError,
    InversionError,
    NonFiniteStartError,
    ParameterRangeError,
    SolverFailure,
)
from .baseline import BaselineProblem, build_constrained_mpc
from .gait import (
    GaitParameters,
    GaitSchedule,
    generate_gait_schedule,
    generate_nominal_com_reference,
    payload_from_mass,
)
from .mpc import (
    ControlStep,
    HorizonProblem,
    HorizonReferences,
    MpcConfig,
    build_mpc_problem,
    footstep_bound_residuals,
    receding_horizon_step,
)
from .simulation import (
    PayloadSpec,
    Scenario,
    SimLog,
    TimingReport,
    compare_timing,
    default_payload_scenario,
    run_closed_loop,
)
from .solver import (
    NlpFunctions,
    SolverOptions,
    SolverResult,
    finite_difference_gradient,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
