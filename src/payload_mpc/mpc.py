"""Receding-horizon problems: the single-shooting core and the parametrized controller.

`ShootingProblem` is what both controllers share.  Decision variables per
stage are one input 6-vector per contact plus one swing velocity 3-vector
per contact; states are eliminated by forward rollout (single shooting).  It
owns the layout, the point memo, the tracking and footstep tasks, the
footstep-error bounds, the exact reverse-mode gradient, the evaluator and
the receding-horizon step; a subclass plugs in its input model, as in
Crocoddyl's shooting problem with per-stage action models (Mastalli et al.
2020).  So the two controllers differ only in the parametrization.

`HorizonProblem` takes the wrench parameters as inputs.  Because commanded
wrenches come out of the parametrization they satisfy the contact-stability
conditions by construction, so the only inequality constraints left are
boxes on the footstep tracking errors.  `baseline.BaselineProblem` takes the
wrenches themselves and adds explicit stability residuals.

An evaluated point costs a fixed number of numpy calls whatever the number of
contacts: the parameters of every contact go through one contact-map call
(surface constants stacked once per problem), the tanh/exp factors of that
call stay in the point's memo for the gradient's Jacobian, and the frame
rotations and the J^T product each run once over all contacts.  The
rotations are stacked matmuls, not einsums: matmul rounds each entry exactly
as the per-contact products did, an einsum does not (it skips the fused
multiply-add).  J^T v runs over the Jacobian's 13 structural nonzeros
(`contact.parametrization_vjp`), bitwise what the dense einsum gave.  The
payload targets take their stage constants (active counts, the weight share)
from `costs.TargetConstants`, built on first use.

Each quantity is computed once per point: the value keeps in the point memo
what the gradient needs again (task errors, gated forces, input factors,
payload residual), and the value itself, so the solver's repeated value at
the start and the end of each inner loop costs one key comparison.
The merit guard on the parameters is the only check of a point's xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import costs as _costs
from . import shooting as _shooting
from .contact import (  # noqa: F401  (perfbench/spans.py wraps `mpc.parametrization_jacobian_batch`)
    SurfaceConstants,
    invert_parametrization,
    parametrization_jacobian_batch,
    parametrization_vjp,
    rotate_wrenches,
    _unchecked_factors,
)
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from .errors import ConfigurationError, InversionError, ParameterRangeError, SolverFailure
from .solver import NlpFunctions, SolverOptions, SolverResult, solve

BOUND_MODE_BOX = "box"
BOUND_MODE_NORM = "norm"

# merit-function trust guard: exp(50) N is far beyond any physical wrench, and
# the parameter regularizer diverges long before, so rejecting these points
# with an infinite objective cannot cut off a minimizer; it only keeps the
# line search from wandering into overflow territory
_XI3_GUARD = 50.0

# the longest prediction horizon a config may ask for: ten times the paper's
# K=10; one tick's problem grows linearly with it (9 variables per
# contact-stage) and a much longer one cannot be solved within a tick
MAX_HORIZON = 100


@dataclass
class MpcConfig:
    horizon: int = 10  # prediction steps
    dt: float = 0.2  # s, controller period
    footstep_bound_lower: np.ndarray = field(default_factory=lambda: np.array([-0.05, -0.05, -0.001]))
    footstep_bound_upper: np.ndarray = field(default_factory=lambda: np.array([0.05, 0.05, 0.001]))
    footstep_bound_mode: str = BOUND_MODE_BOX
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigurationError(f"horizon must be in [1, {MAX_HORIZON}], got {self.horizon}")
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        lb = np.asarray(self.footstep_bound_lower, dtype=float)
        ub = np.asarray(self.footstep_bound_upper, dtype=float)
        if lb.size != 3 or ub.size != 3:
            raise ConfigurationError(f"footstep bounds must have 3 components, got shapes {lb.shape} and {ub.shape}")
        lb, ub = lb.reshape(3), ub.reshape(3)
        for name, bound in (("footstep_bound_lower", lb), ("footstep_bound_upper", ub)):
            if not np.isfinite(bound).all():
                raise ConfigurationError(f"{name} must be finite, got {bound}")
        if np.any(lb > 0) or np.any(ub < 0):
            raise ConfigurationError("footstep bounds must satisfy lb <= 0 <= ub componentwise")
        self.footstep_bound_lower = lb
        self.footstep_bound_upper = ub
        if self.footstep_bound_mode not in (BOUND_MODE_BOX, BOUND_MODE_NORM):
            raise ConfigurationError(f"unknown footstep_bound_mode {self.footstep_bound_mode!r}")


@dataclass
class HorizonReferences:
    """Reference window for one controller period: horizon+1 samples of everything."""

    com_refs: np.ndarray  # (K+1, 3)
    footstep_refs: np.ndarray  # (n_c, K+1, 3)
    gait: np.ndarray  # (n_c, K+1) activity flags
    contact_orientations: np.ndarray  # (n_c, 3, 3)

    def __post_init__(self):
        self.com_refs = np.asarray(self.com_refs, dtype=float)
        self.footstep_refs = np.asarray(self.footstep_refs, dtype=float)
        self.gait = np.asarray(self.gait)
        self.contact_orientations = np.asarray(self.contact_orientations, dtype=float)
        if self.com_refs.ndim != 2 or self.com_refs.shape[1] != 3:
            raise ConfigurationError(f"com_refs must be (K+1, 3), got {self.com_refs.shape}")
        samples = self.com_refs.shape[0]
        n_c = self.footstep_refs.shape[0]
        if self.footstep_refs.shape != (n_c, samples, 3):
            raise ConfigurationError(
                f"footstep_refs must be (n_c, {samples}, 3), got {self.footstep_refs.shape}"
            )
        if self.gait.shape != (n_c, samples):
            raise ConfigurationError(f"gait must be (n_c, {samples}), got {self.gait.shape}")
        if not np.isin(self.gait, (0, 1)).all():
            raise ConfigurationError("gait flags must be 0 or 1")
        if self.contact_orientations.shape != (n_c, 3, 3):
            raise ConfigurationError(
                f"contact_orientations must be (n_c, 3, 3), got {self.contact_orientations.shape}"
            )

    @property
    def horizon(self) -> int:
        return self.com_refs.shape[0] - 1

    @property
    def n_contacts(self) -> int:
        return self.footstep_refs.shape[0]


def footstep_bound_residuals(feet_err: np.ndarray, refs: HorizonReferences, config: MpcConfig) -> np.ndarray:
    """Inequality residuals (positive = satisfied) of the footstep error bounds.

    `feet_err` is the feet minus their references (K+1, n_c, 3).  Errors are
    expressed in each contact frame.  Box mode emits lower and upper
    residuals per axis (6 per contact-stage); norm mode emits a single upper
    residual on the error norm (the printed lower bound is vacuous for
    non-negative bounds).  Stage 0 is the measured state and carries no
    residuals.
    """
    steps, n_c = feet_err.shape[0] - 1, feet_err.shape[1]
    err_world = feet_err[1:]  # (K, n_c, 3)
    err = np.einsum("iba,kib->kia", refs.contact_orientations, err_world)  # R' e, contact frame
    if config.footstep_bound_mode == BOUND_MODE_BOX:
        lower = err - config.footstep_bound_lower
        upper = config.footstep_bound_upper - err
        return np.concatenate([lower, upper], axis=2).reshape(steps * n_c * 6)
    norm = np.linalg.norm(err, axis=2)
    return (config.footstep_bound_upper[0] - norm).reshape(steps * n_c)


class ShootingProblem:
    """One single-shooting MPC instance, less its input model.

    The decision vector stacks, stage by stage, one input 6-vector per
    contact followed by the swing velocities of every contact (length
    horizon * n_contacts * 9).  A subclass plugs in the input model:
    `_wrenches_world` and `_input_factors` (the map to inertial-frame wrenches
    and what the gradient reuses of it), `_input_costs` (the input cost parts,
    in summation order), `_input_seeds` (their seeds, with the extra
    residuals'), `_input_gradient` (the chain back to the inputs),
    `_input_curvature` (the input half of the metric) and
    `initial_warm_start`.  Extra residuals override `_residuals` and
    `num_constraints`; `_input_factors` rejects inputs before any rollout by
    raising `ParameterRangeError`, which the evaluator reads as an infinite
    objective.
    """

    parametrized = False  # whether the inputs are wrench parameters (ControlStep.xi)

    def __init__(
        self,
        state: CentroidalState,
        refs: HorizonReferences,
        payload_estimate: PayloadDisturbance,
        weights: Weights,
        config: MpcConfig,
        constants: RobotConstants,
        surfaces,
    ):
        if refs.horizon != config.horizon:
            raise ConfigurationError(
                f"references cover {refs.horizon} steps, config expects {config.horizon}"
            )
        if state.n_contacts != refs.n_contacts:
            raise ConfigurationError(
                f"state has {state.n_contacts} contacts, references {refs.n_contacts}"
            )
        if len(surfaces) != refs.n_contacts:
            raise ConfigurationError("one surface per contact required")
        self.state = state
        self.refs = refs
        self.weights = weights
        self.config = config
        self.constants = constants
        self.surfaces = tuple(surfaces)
        self._surface_constants = SurfaceConstants.of(self.surfaces)
        self.horizon = config.horizon
        self.n_contacts = refs.n_contacts
        # zero-order hold: the one estimate acts at every stage of the horizon
        self._payload = _shooting.PayloadArrays.of(payload_estimate)
        self.activity = np.asarray(refs.gait, dtype=float)[:, : self.horizon].T.copy()  # (K, n_c)
        self.dim = self.horizon * self.n_contacts * 9
        self._x0 = state.as_vector()
        self._last_point = None
        # tick constants: the activity gates of every rollout and adjoint, and
        # the footstep references in the feet's (K+1, n_c, 3) layout
        self._gates = _shooting.StageGates.of(self.activity, constants, config.dt)
        self._feet_refs = refs.footstep_refs.transpose(1, 0, 2)

    # -- decision vector layout ------------------------------------------------

    def decode(self, z: np.ndarray):
        """Split a decision vector into inputs (K, n_c, 6) and velocities (K, n_c, 3)."""
        z = np.asarray(z, dtype=float).reshape(self.horizon, self.n_contacts * 9)
        inputs = z[:, : self.n_contacts * 6].reshape(self.horizon, self.n_contacts, 6)
        vel = z[:, self.n_contacts * 6 :].reshape(self.horizon, self.n_contacts, 3)
        return inputs, vel

    def encode(self, inputs: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        z = np.concatenate(
            [
                inputs.reshape(self.horizon, self.n_contacts * 6),
                velocities.reshape(self.horizon, self.n_contacts * 3),
            ],
            axis=1,
        )
        return z.reshape(self.dim)

    # -- model ------------------------------------------------------------------

    def _input_factors(self, inputs: np.ndarray):
        return None

    def _point(self, z: np.ndarray) -> _shooting.ShootingPoint:
        """Inputs, rollout and task errors at `z`; value and gradient share the last one.

        Inputs that `_input_factors` rejects raise before the memo changes.
        """
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        point = self._last_point
        if point is None or point.key != key:
            inputs, vel = self.decode(z.copy())
            factors = self._input_factors(inputs)
            wrenches = self._wrenches_world(inputs, factors)
            forces = _shooting.stage_forces(wrenches, self._gates, self._payload)
            states = _shooting.rollout(self._x0, vel, self._payload, self.config.dt, self._gates, forces)
            com, _, feet = _costs.split_states(states, self.n_contacts)
            point = self._last_point = _shooting.ShootingPoint(
                key, inputs, vel, wrenches, states, forces,
                com_err=com - self.refs.com_refs, feet_err=feet - self._feet_refs, factors=factors,
            )
        return point

    def rollout(self, z: np.ndarray) -> np.ndarray:
        return self._point(z).states.copy()

    # -- objective and constraints ----------------------------------------------

    def _cost_parts(self, point: _shooting.ShootingPoint) -> dict:
        parts = {
            "tracking": _costs.tracking_cost(point.states, self.refs, self.weights, point.com_err),
            "footsteps": _costs.footstep_cost(point.feet_err, self.weights),
        }
        parts.update(self._input_costs(point))
        return parts

    def cost_breakdown(self, z: np.ndarray) -> dict:
        try:
            point = self._point(z)
        except ParameterRangeError:  # inputs past the merit guard
            return {"total": np.inf}
        parts = self._cost_parts(point)
        parts["total"] = sum(parts.values())
        return parts

    def objective(self, z: np.ndarray) -> float:
        return float(self.cost_breakdown(z)["total"])

    def _residuals(self, point: _shooting.ShootingPoint) -> np.ndarray:
        return footstep_bound_residuals(point.feet_err, self.refs, self.config)

    def constraints(self, z: np.ndarray) -> np.ndarray:
        return self._residuals(self._point(z))

    @property
    def num_bound_constraints(self) -> int:
        per_stage = 6 if self.config.footstep_bound_mode == BOUND_MODE_BOX else 1
        return self.horizon * self.n_contacts * per_stage

    @property
    def num_constraints(self) -> int:
        return self.num_bound_constraints

    def gradient(self, z: np.ndarray, constraint_weights=None) -> np.ndarray:
        """Exact gradient of objective + s . constraints via one reverse sweep."""
        point = self._point(z)
        states = point.states
        steps, n_c = self.horizon, self.n_contacts
        seeds = np.zeros_like(states)
        # tracking task: CoM error and angular momentum
        seeds[:, 0:3] += point.com_err @ self.weights.q_c
        seeds[:, 6:9] += states[:, 6:9] @ self.weights.q_h
        # footstep task
        seeds[:, 9:] += (point.feet_err @ self.weights.q_pc).reshape(steps + 1, n_c * 3)
        # the residual weights: footstep bounds first, then any extra residuals
        s = constraint_weights if constraint_weights is not None and constraint_weights.size else None
        n_bounds = self.num_bound_constraints
        wrench_direct = self._input_seeds(point, seeds, None if s is None else s[n_bounds:])
        # footstep bound residuals, folded in through their stage states
        if s is not None:
            seeds += self._bound_state_seeds(point, s[:n_bounds])
        wrench_adj, vel_adj = _shooting.rollout_adjoint(states, self.config.dt, seeds, self._gates, point.forces)
        vel_grad = vel_adj + point.velocities @ self.weights.q_v
        return self.encode(self._input_gradient(point, wrench_adj, wrench_direct), vel_grad)

    def _bound_state_seeds(self, point: _shooting.ShootingPoint, s: np.ndarray) -> np.ndarray:
        steps, n_c = self.horizon, self.n_contacts
        seeds = np.zeros_like(point.states)
        rots = self.refs.contact_orientations
        if self.config.footstep_bound_mode == BOUND_MODE_BOX:
            sw = s.reshape(steps, n_c, 6)
            # d(e - lb)/dp = R', d(ub - e)/dp = -R'
            delta = sw[..., :3] - sw[..., 3:]
            seeds[1:, 9:] = np.einsum("iab,kib->kia", rots, delta).reshape(steps, n_c * 3)
        else:
            sw = s.reshape(steps, n_c)
            err = np.einsum("iba,kib->kia", rots, point.feet_err[1:])
            norm = np.linalg.norm(err, axis=2, keepdims=True)
            unit = np.where(norm > 1e-12, err / np.maximum(norm, 1e-12), 0.0)
            contrib = -sw[..., None] * np.einsum("iab,kib->kia", rots, unit)
            seeds[1:, 9:] = contrib.reshape(steps, n_c * 3)
        return seeds

    # -- solver plumbing ---------------------------------------------------------

    def evaluator(self) -> NlpFunctions:
        def value(z):
            """(f, c) at `z`, kept in the point memo; `c` is read-only."""
            try:
                point = self._point(z)
            except ParameterRangeError:  # inputs past the merit guard
                return np.inf, np.zeros(self.num_constraints)
            if point.value is None:
                # reject blown-up rollouts (line-search overshoot): far beyond
                # any physical trajectory, and lever arms this large would make
                # the payload-target solve numerically singular
                if not np.abs(point.states).max() <= 1e6:  # also rejects nan and inf
                    f, c = np.inf, np.zeros(self.num_constraints)
                else:
                    f, c = float(sum(self._cost_parts(point).values())), self._residuals(point)
                c.flags.writeable = False
                point.value = (f, c)
            return point.value

        return NlpFunctions(
            dim=self.dim,
            num_constraints=self.num_constraints,
            value=value,
            gradient=self.gradient,
            metric_diag=self.curvature_metric(),
        )

    def curvature_metric(self) -> np.ndarray:
        """Per-variable inverse-curvature estimates seeding the quasi-Newton matrix.

        Variable stiffness spans six orders of magnitude (payload-task force
        directions versus gated swing velocities), which cripples an
        unpreconditioned L-BFGS.  Order-of-magnitude structural estimates are
        enough: the subclass estimates its inputs' curvature from their own
        costs and the tracking tasks, and a swing velocity's comes from the
        footstep task.
        """
        steps, n_c = self.horizon, self.n_contacts
        dt = self.config.dt
        mass = self.constants.mass
        weight = float(self._gates.mg[2])  # m g, the model's weight
        w = self.weights
        q_h_m = float(np.diag(w.q_h).mean())
        q_c_max = float(np.diag(w.q_c).max())
        q_pc_m = float(np.diag(w.q_pc).mean())
        q_v_d = np.diag(w.q_v)
        # cost per unit squared stage force or moment from momentum and CoM
        # tracking, mapped through the one-step impulse response of the
        # rollout (a stage force acts for a single period)
        momentum = [q_h_m * dt * dt * (steps - k) for k in range(steps)]
        com = [q_c_max * dt**4 * (steps - k) ** 3 / (3.0 * mass * mass) for k in range(steps)]
        curvature = np.empty((steps, n_c, 9))
        self._input_curvature(curvature, momentum, com)
        for k in range(steps):
            remaining = steps - k
            for i in range(n_c):
                gamma = self.activity[k, i]
                # swing velocity: footstep tracking over the remaining stages
                # plus, once the foot lands inside the horizon, the lever-arm
                # coupling of its frozen position into the accumulated angular
                # momentum (hence the cubic stage count)
                landed_after = int(self.activity[k + 1 :, i].sum()) if gamma < 0.5 else 0
                lever = q_h_m * dt**4 * weight**2 * landed_after**3 / 3.0
                curvature[k, i, 6:] = q_v_d + (1.0 - gamma) * (q_pc_m * dt * dt * remaining + lever)
        metric = np.empty((steps, n_c * 9))
        metric[:, : n_c * 6] = (1.0 / curvature[:, :, :6]).reshape(steps, n_c * 6)
        metric[:, n_c * 6 :] = (1.0 / curvature[:, :, 6:]).reshape(steps, n_c * 3)
        return metric.reshape(self.dim)

    # -- warm starts ---------------------------------------------------------------

    def _weight_shares(self) -> np.ndarray:
        """Each active contact's equal share of the weight, as a contact-frame wrench (K, n_c, 6)."""
        shares = np.zeros((self.horizon, self.n_contacts, 6))
        weight = float(self._gates.mg[2])
        for k, i in zip(*np.nonzero(self.activity)):
            n_active = int(self.activity[k].sum())
            shares[k, i, :3] = self.refs.contact_orientations[i].T @ [0.0, 0.0, weight / n_active]
        return shares

    def shift_warm_start(self, z: np.ndarray) -> np.ndarray:
        """Drop the first stage, duplicate the last one."""
        blocks = np.asarray(z, dtype=float).reshape(self.horizon, self.n_contacts * 9)
        return np.concatenate([blocks[1:], blocks[-1:]], axis=0).reshape(self.dim)

    def first_input(self, z: np.ndarray):
        """Stage-0 command: inputs, inertial-frame wrenches (+0.0 rows for swing contacts), swing velocities."""
        inputs, vel = self.decode(z)
        wrenches = np.where(self._gates.stance[0] != 0, self._wrenches_world(inputs[:1])[0], 0.0)
        return inputs[0].copy(), wrenches, vel[0].copy()


class HorizonProblem(ShootingProblem):
    """The parametrized problem: the inputs are the wrench parameters xi.

    The input costs are the parameter regularizer and the payload task, and
    the footstep bounds are the only residuals.
    """

    parametrized = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.use_payload_task = bool(np.any(self.weights.q_d))
        self._target_constants = None  # costs.TargetConstants, built on first use

    # the class's own binding: perfbench/spans.py wraps `cls.__dict__["evaluator"]`
    evaluator = ShootingProblem.evaluator

    def _input_factors(self, xi: np.ndarray):
        """The contact-map factors of xi; |xi_3| past the merit guard, or a non-finite xi, is rejected.

        The guard is stricter than the map's own range checks, so the
        factors come from the unchecked core: one check per point.
        """
        if np.abs(xi[..., 2]).max() > _XI3_GUARD or not np.isfinite(xi).all():
            raise ParameterRangeError(f"xi must be finite with |xi_3| <= {_XI3_GUARD}")
        return _unchecked_factors(xi, self._surface_constants)

    def _wrenches_world(self, xi: np.ndarray, factors=None) -> np.ndarray:
        return _costs.wrenches_from_parameters(
            xi, self.refs.contact_orientations, self._surface_constants, factors
        )

    def _payload_targets(self, point: _shooting.ShootingPoint):
        if point.payload_targets is None:
            if self._target_constants is None:
                self._target_constants = _costs.TargetConstants.build(self.activity, self.constants)
            point.payload_targets = _costs.payload_compensation_targets(
                point.states, self.activity, self._payload, self.constants, self._target_constants
            )
        return point.payload_targets

    def _input_costs(self, point: _shooting.ShootingPoint) -> dict:
        parts = {
            "parameter_reg": _costs.parameter_regularization_cost(point.inputs, self.weights),
            "velocity_reg": _costs.velocity_regularization_cost(point.velocities, self.weights),
            "payload": 0.0,
        }
        if self.use_payload_task:
            parts["payload"] = _costs.payload_attenuation_from_residual(self._payload_residual(point), self.weights)
        return parts

    def _payload_residual(self, point: _shooting.ShootingPoint) -> np.ndarray:
        if point.payload_residual is None:
            targets, _ = self._payload_targets(point)
            point.payload_residual = _costs.payload_residual(point.wrenches, targets, self._gates.stance)
        return point.payload_residual

    def _input_seeds(self, point: _shooting.ShootingPoint, seeds: np.ndarray, s_extra) -> np.ndarray:
        """Payload task: pseudo-inverse state terms into `seeds`, the direct wrench gradient returned."""
        if not self.use_payload_task:
            return np.zeros((self.horizon, self.n_contacts, 6))
        _, cache = self._payload_targets(point)
        payload_seeds, wrench_direct = _shooting.payload_cost_state_seeds(
            self._payload_residual(point), cache, self.activity, self._payload, self.weights.q_d
        )
        seeds += payload_seeds
        return wrench_direct

    def _input_gradient(self, point: _shooting.ShootingPoint, wrench_adj, wrench_direct) -> np.ndarray:
        # chain through the contact rotations and the parametrization Jacobian,
        # every contact at once and on the factors the value computed
        xi = point.inputs
        local = rotate_wrenches(wrench_adj + wrench_direct, self.refs.contact_orientations)
        xi_grad = parametrization_vjp(local, self._surface_constants, point.factors)
        xi_grad += xi @ self.weights.q_xi
        return xi_grad

    def _input_curvature(self, curvature: np.ndarray, momentum: list, com: list) -> None:
        """Parameter curvature: the payload task and the tracking tasks through the contact map."""
        weight = float(self._gates.mg[2])
        w = self.weights
        qd_f = float(np.diag(w.q_d)[:3].mean())
        qd_m = float(np.diag(w.q_d)[3:].mean())
        q_xi_d = np.diag(w.q_xi)
        s = self._surface_constants
        for k in range(self.horizon):
            n_active = max(self.activity[k].sum(), 1.0)
            share = weight / n_active
            curv_force = qd_f + momentum[k] + com[k]
            curv_moment = qd_m + momentum[k]
            for i in range(self.n_contacts):
                gamma = self.activity[k, i]
                c = curvature[k, i]
                c[0] = q_xi_d[0] + gamma * curv_force * (s.mu_c[i] * share) ** 2
                c[1] = q_xi_d[1] + gamma * curv_force * (s.mu_c[i] * share) ** 2
                c[2] = q_xi_d[2] + gamma * curv_force * share**2
                c[3] = q_xi_d[3] + gamma * curv_moment * (s.delta_y[i] * share) ** 2
                c[4] = q_xi_d[4] + gamma * curv_moment * (s.delta_x[i] * share) ** 2
                c[5] = q_xi_d[5] + gamma * curv_moment * (s.mu_z[i] * share) ** 2

    def initial_warm_start(self) -> np.ndarray:
        """Static gravity-share guess: invert the per-contact share of the weight."""
        shares = self._weight_shares()
        xi = np.zeros_like(shares)
        inverted = {}  # by contact and active count
        for k, i in zip(*np.nonzero(self.activity)):
            key = (i, self.activity[k].sum())
            if key not in inverted:
                try:
                    inverted[key] = invert_parametrization(Wrench.from_array(shares[k, i]), self.surfaces[i])
                except InversionError:
                    inverted[key] = np.zeros(6)
            xi[k, i] = inverted[key]
        return self.encode(xi, np.zeros((self.horizon, self.n_contacts, 3)))


@dataclass
class ControlStep:
    """Outcome of one receding-horizon update."""

    xi: np.ndarray  # (n_c, 6) stage-0 parameters, zeros for the baseline
    wrenches: np.ndarray  # (n_c, 6) inertial frame, +0.0 rows for swing contacts
    contact_velocities: np.ndarray  # (n_c, 3)
    warm_start: np.ndarray  # shifted solution for the next period
    stats: SolverResult


def build_mpc_problem(
    state: CentroidalState,
    refs: HorizonReferences,
    payload_estimate: PayloadDisturbance,
    weights: Weights,
    config: MpcConfig,
    constants: RobotConstants,
    surfaces,
) -> HorizonProblem:
    return HorizonProblem(state, refs, payload_estimate, weights, config, constants, surfaces)


def receding_horizon_step(problem: ShootingProblem, warm_start=None) -> ControlStep:
    """Solve the horizon problem and return the first input plus a shifted warm start.

    Serves both controllers; the baseline's `ControlStep.xi` is zeros, since
    its inputs are wrenches, not parameters.  Raises `SolverFailure` (with
    the last iterate attached) when the solver returns a non-finite iterate;
    degraded-but-usable outcomes are reported through `stats.status` instead.
    """
    z0 = problem.initial_warm_start() if warm_start is None else np.asarray(warm_start, dtype=float)
    result = solve(problem.evaluator(), z0, problem.config.solver)
    if not np.all(np.isfinite(result.z)) or not np.isfinite(result.objective):
        raise SolverFailure("solver returned a non-finite iterate", result=result)
    inputs0, wrenches, velocities = problem.first_input(result.z)
    return ControlStep(
        xi=inputs0 if problem.parametrized else np.zeros_like(inputs0),
        wrenches=wrenches,
        contact_velocities=velocities,
        warm_start=problem.shift_warm_start(result.z),
        stats=result,
    )
