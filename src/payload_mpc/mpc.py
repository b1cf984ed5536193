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
(against the surface constants held at every stage, one record per problem),
the tanh/exp factors of that call stay in the point's memo for the gradient's
Jacobian, and the frame rotations and the J^T product each run once over all
contacts.  The rotations are stacked matmuls, not einsums: matmul rounds each
entry exactly as the per-contact products did, an einsum does not (it skips
the fused multiply-add).  J^T v runs over the Jacobian's 13 structural nonzeros
(`contact.parametrization_vjp`), bitwise what the dense einsum gave.  The
payload targets take their stage constants (active counts, the weight share)
from `costs.TargetConstants`, built on first use.

Each quantity is computed once per point: the value keeps in the point memo
what the gradient needs again (task errors, gated forces, input factors,
payload residual), and the value itself, so the solver's repeated value at
the start and the end of each inner loop costs one key comparison.  The
command a tick applies is stage 0 of the solved point's memo, not a second
map of its inputs.
The merit guard on the parameters is the only check of a point's xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import costs as _costs
from . import shooting as _shooting
from .contact import (
    SurfaceConstants,
    invert_parametrization,
    parametrization_jacobian_batch,  # noqa: F401  (perfbench/spans.py wraps `mpc.parametrization_jacobian_batch`)
    parametrization_vjp,
    rotate_wrenches,
    _unchecked_factors,
)
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from .errors import ConfigurationError, InversionError, ParameterRangeError, SolverFailure
from .solver import NlpFunctions, SolverOptions, SolverResult, solve

# merit-function trust guard: exp(50) N is far beyond any physical wrench, and
# the parameter regularizer diverges long before, so rejecting these points
# with an infinite objective cannot cut off a minimizer; it only keeps the
# line search from wandering into overflow territory
_XI3_GUARD = 50.0

# the longest prediction horizon a config may ask for: ten times the paper's
# K=10; one tick's problem grows linearly with it (9 variables per
# contact-stage) and a much longer one cannot be solved within a tick
MAX_HORIZON = 100

# the state columns that the core tasks' residuals live on
_COM, _H, _FEET = slice(0, 3), slice(6, 9), slice(9, None)


@dataclass
class MpcConfig:
    horizon: int = 10  # prediction steps
    dt: float = 0.2  # s, controller period
    footstep_bound_lower: np.ndarray = field(default_factory=lambda: np.array([-0.05, -0.05, -0.001]))
    footstep_bound_upper: np.ndarray = field(default_factory=lambda: np.array([0.05, 0.05, 0.001]))
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
    expressed in each contact frame and bounded by a per-axis box: each
    contact-stage emits the lower residuals `R'e - lb` and then the upper
    residuals `ub - R'e` (6 per contact-stage).  Stage 0 is the measured
    state and carries no residuals.
    """
    steps, n_c = feet_err.shape[0] - 1, feet_err.shape[1]
    err_world = feet_err[1:]  # (K, n_c, 3)
    err = _shooting.einsum("iba,kib->kia", refs.contact_orientations, err_world)  # R' e, contact frame
    out = np.empty((steps, n_c, 6))
    np.subtract(err, config.footstep_bound_lower, out[..., :3])
    np.subtract(config.footstep_bound_upper, err, out[..., 3:])
    return out.reshape(steps * n_c * 6)


def _blown_up(states: np.ndarray) -> bool:
    """Whether a rollout overshot (a line-search step too far): its objective is +inf.

    Such states are far beyond any physical trajectory, and lever arms this
    large would make the payload-target solve numerically singular.  A nan
    or an inf counts as blown up.
    """
    return not np.maximum.reduce(np.abs(states), None) <= 1e6


class ShootingProblem:
    """One single-shooting MPC instance, less its input model.

    The decision vector stacks, stage by stage, one input 6-vector per
    contact followed by the swing velocities of every contact (length
    horizon * n_contacts * 9).  A subclass plugs in the input model:
    `_wrenches_world` and `_input_factors` (the map to inertial-frame wrenches
    and what the gradient reuses of it), `cost_groups` and `_input_blocks`
    (the cost keys and the input tasks' weighted residuals, in summation
    order), `_input_seeds` (their seeds, with the extra residuals'),
    `_input_gradient` (the chain back to the inputs),
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
        self.horizon = config.horizon
        self.n_contacts = refs.n_contacts
        # the surfaces' constants at every stage, for the kernels on (K, n_c) components and rows
        self._stage_surface = SurfaceConstants.of(self.surfaces).over(self.horizon)
        # zero-order hold: the one estimate acts at every stage of the horizon
        self._payload = _shooting.PayloadArrays.of(payload_estimate, self.horizon)
        self.activity = np.asarray(refs.gait, dtype=float)[:, : self.horizon].T.copy()  # (K, n_c)
        self.dim = self.horizon * self.n_contacts * 9
        self._x0 = state.as_vector()
        self._last_point = None
        # tick constants: the activity gates of every rollout and adjoint, the
        # footstep references in the feet's (K+1, n_c, 3) layout (a contiguous
        # copy), and the transposed orientations that rotate contact-frame
        # wrenches into the inertial frame
        self._gates = _shooting.StageGates.of(self.activity, constants, config.dt)
        self._feet_refs = refs.footstep_refs.transpose(1, 0, 2).copy()
        self._to_world = refs.contact_orientations.transpose(0, 2, 1)
        # the decision vector's positions of the inputs (K, n_c, 6) and the
        # velocities (K, n_c, 3): one `take` each gathers them contiguous
        layout = np.arange(self.dim).reshape(self.horizon, self.n_contacts * 9)
        n_in = self.n_contacts * 6
        self._input_index = layout[:, :n_in].reshape(self.horizon, self.n_contacts, 6).copy()
        self._velocity_index = layout[:, n_in:].reshape(self.horizon, self.n_contacts, 3).copy()

    # -- decision vector layout ------------------------------------------------

    def decode(self, z: np.ndarray):
        """Copies of a decision vector's inputs (K, n_c, 6) and velocities (K, n_c, 3)."""
        z = np.asarray(z, dtype=float)
        return z.take(self._input_index), z.take(self._velocity_index)

    def encode(self, inputs: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        z = np.empty(self.dim)
        z.put(self._input_index, inputs)
        z.put(self._velocity_index, velocities)
        return z

    # -- model ------------------------------------------------------------------

    def _input_factors(self, inputs: np.ndarray):
        return None

    def _point(self, z: np.ndarray) -> _shooting.ShootingPoint:
        """Inputs, rollout and task errors at `z`; value and gradient share the last one.

        Inputs that `_input_factors` rejects raise before the memo changes.
        `decode` copies the inputs and velocities: the memo's arrays are its
        own, contiguous, whatever the caller does with `z`.
        """
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        point = self._last_point
        if point is None or point.key != key:
            inputs, vel = self.decode(z)
            factors = self._input_factors(inputs)
            wrenches = self._wrenches_world(inputs, factors)
            forces = _shooting.stage_forces(wrenches, self._gates, self._payload)
            states = _shooting.rollout(self._x0, vel, self._payload, self.config.dt, self._gates, forces)
            feet = states[:, 9:].reshape(self._feet_refs.shape)
            point = self._last_point = _shooting.ShootingPoint(
                key, inputs, vel, wrenches, states, forces,
                com_err=states[:, 0:3] - self.refs.com_refs, feet_err=feet - self._feet_refs, factors=factors,
            )
        return point

    def rollout(self, z: np.ndarray) -> np.ndarray:
        return self._point(z).states.copy()

    # -- objective and constraints ----------------------------------------------

    # the `cost_breakdown` keys, in order; each sums the blocks of its group
    cost_groups = ("tracking", "footsteps")

    def _state_blocks(self, point: _shooting.ShootingPoint) -> list:
        """The tasks on the states, as (group, residual r, weight W, state columns).

        Angular-momentum damping and CoM tracking make up the tracking group;
        linear momentum is deliberately left unpenalized, the CoM term shapes
        it indirectly.  The objective sums `costs.quad(r, W)` of these and of
        the subclass's `_input_blocks`; the gradient seeds `r @ W` into the
        columns.
        """
        w = self.weights
        return [
            ("tracking", point.states[:, _H], w.q_h, _H),
            ("tracking", point.com_err, w.q_c, _COM),
            ("footsteps", point.feet_err, w.q_pc, _FEET),
        ]

    def _cost_parts(self, point: _shooting.ShootingPoint) -> dict:
        parts = dict.fromkeys(self.cost_groups, 0.0)
        for group, r, weight, _ in self._state_blocks(point) + self._input_blocks(point):
            parts[group] += _costs.quad(r, weight)
        return parts

    def cost_breakdown(self, z: np.ndarray) -> dict:
        try:
            point = self._point(z)
        except ParameterRangeError:  # inputs past the merit guard
            return {"total": np.inf}
        if _blown_up(point.states):
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
        return self.horizon * self.n_contacts * 6

    @property
    def num_constraints(self) -> int:
        return self.num_bound_constraints

    def gradient(self, z: np.ndarray, constraint_weights=None) -> np.ndarray:
        """Exact gradient of objective + s . constraints via one reverse sweep."""
        point = self._point(z)
        states = point.states
        seeds = np.zeros(states.shape)
        for _, r, weight, columns in self._state_blocks(point):
            seeds[:, columns] += (r @ weight).reshape(self.horizon + 1, -1)
        # the residual weights: footstep bounds first, then any extra residuals
        s = constraint_weights if constraint_weights is not None and constraint_weights.size else None
        n_bounds = self.num_bound_constraints
        wrench_direct = self._input_seeds(point, seeds, None if s is None else s[n_bounds:])
        # footstep bound residuals, folded in through their stage states
        if s is not None:
            self._bound_state_seeds(s[:n_bounds], seeds)
        wrench_adj, vel_adj = _shooting.rollout_adjoint(states, self.config.dt, seeds, self._gates, point.forces)
        vel_grad = vel_adj + point.velocities @ self.weights.q_v
        return self.encode(self._input_gradient(point, wrench_adj, wrench_direct), vel_grad)

    def _bound_state_seeds(self, s: np.ndarray, seeds: np.ndarray) -> None:
        """Add the footstep bounds' state gradients, weighted by `s`, into the gradient's `seeds` in place.

        The bounds are affine in the feet, so their gradients do not depend on the point.
        """
        steps, n_c = self.horizon, self.n_contacts
        sw = s.reshape(steps, n_c, 6)
        # d(e - lb)/dp = R', d(ub - e)/dp = -R'
        delta = sw[..., :3] - sw[..., 3:]
        rots = self.refs.contact_orientations
        seeds[1:, 9:] += _shooting.einsum("iab,kib->kia", rots, delta).reshape(steps, n_c * 3)

    # -- solver plumbing ---------------------------------------------------------

    def evaluator(self) -> NlpFunctions:
        def value(z):
            """(f, c) at `z`, kept in the point memo; `c` is read-only."""
            try:
                point = self._point(z)
            except ParameterRangeError:  # inputs past the merit guard
                return np.inf, np.zeros(self.num_constraints)
            if point.value is None:
                if _blown_up(point.states):
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
        weight = float(self._gates.mg_force[0, 2])  # m g, the model's weight
        w = self.weights
        q_h_m = float(np.diag(w.q_h).mean())
        q_c_max = float(np.diag(w.q_c).max())
        q_pc_m = float(np.diag(w.q_pc).mean())
        # cost per unit squared stage force or moment from momentum and CoM
        # tracking, mapped through the one-step impulse response of the
        # rollout (a stage force acts for a single period)
        remaining = np.arange(steps, 0, -1)  # stages left from each stage on
        momentum = q_h_m * dt * dt * remaining
        com = q_c_max * dt**4 * remaining**3 / (3.0 * mass * mass)
        # swing velocity: footstep tracking over the remaining stages plus,
        # once the foot lands inside the horizon, the lever-arm coupling of its
        # frozen position into the accumulated angular momentum (hence the
        # cubic count of the stance stages after a swing stage)
        gamma = self.activity
        landed_after = np.zeros((steps, n_c), dtype=int)
        landed_after[:-1] = np.add.accumulate(gamma[:0:-1].astype(int), 0)[::-1]
        landed_after[gamma >= 0.5] = 0
        lever = q_h_m * dt**4 * weight**2 * landed_after**3 / 3.0
        swing = (1.0 - gamma) * ((q_pc_m * dt * dt * remaining)[:, None] + lever)
        return self.encode(1.0 / self._input_curvature(momentum, com), 1.0 / (np.diag(w.q_v) + swing[..., None]))

    # -- warm starts ---------------------------------------------------------------

    def _weight_shares(self) -> np.ndarray:
        """Each active contact's equal share of the weight, as a contact-frame wrench (K, n_c, 6)."""
        shares = np.zeros((self.horizon, self.n_contacts, 6))
        weight = float(self._gates.mg_force[0, 2])
        for k, i in zip(*np.nonzero(self.activity)):
            n_active = int(self.activity[k].sum())
            shares[k, i, :3] = self.refs.contact_orientations[i].T @ [0.0, 0.0, weight / n_active]
        return shares

    def shift_warm_start(self, z: np.ndarray) -> np.ndarray:
        """Drop the first stage, duplicate the last one."""
        blocks = np.asarray(z, dtype=float).reshape(self.horizon, self.n_contacts * 9)
        return np.concatenate([blocks[1:], blocks[-1:]], axis=0).reshape(self.dim)

    def first_input(self, z: np.ndarray):
        """Stage-0 command: inputs, inertial-frame wrenches (+0.0 rows for swing contacts), swing velocities.

        Read from the point memo at `z`, so `z` must have a finite objective
        (inputs past the merit guard raise), as a solver result does; the
        solver's last evaluation is the value at its result, so this is a hit.
        """
        point = self._point(z)
        wrenches = np.where(self._gates.stance[0] != 0, point.wrenches[0], 0.0)
        return point.inputs[0].copy(), wrenches, point.velocities[0].copy()


class HorizonProblem(ShootingProblem):
    """The parametrized problem: the inputs are the wrench parameters xi.

    The input tasks are the parameter and swing-velocity regularizers and
    the payload task, and the footstep bounds are the only residuals.
    """

    parametrized = True
    cost_groups = ShootingProblem.cost_groups + ("parameter_reg", "velocity_reg", "payload")

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
        if (
            np.maximum.reduce(np.abs(xi[..., 2]), None) > _XI3_GUARD
            or not np.logical_and.reduce(np.isfinite(xi), None)
        ):
            raise ParameterRangeError(f"xi must be finite with |xi_3| <= {_XI3_GUARD}")
        return _unchecked_factors(xi, self._stage_surface)

    def _wrenches_world(self, xi: np.ndarray, factors) -> np.ndarray:
        return rotate_wrenches(_costs.parametrize_batch(xi, self._stage_surface, factors), self._to_world)

    def _payload_task(self, point: _shooting.ShootingPoint) -> tuple:
        """The payload residual (K, n_c, 6) and its targets' solve cache at `point`, kept in its memo."""
        if point.payload is None:
            if self._target_constants is None:
                self._target_constants = _costs.TargetConstants.build(self.activity, self.constants)
            targets, cache = _costs.payload_compensation_targets(
                point.states, self.activity, self._payload, self.constants, self._target_constants
            )
            point.payload = (_costs.payload_residual(point.wrenches, targets, self._gates.stance), cache)
        return point.payload

    def _input_blocks(self, point: _shooting.ShootingPoint) -> list:
        """The input tasks as (group, residual, weight, None); "payload" reads 0.0 with the task off."""
        w = self.weights
        blocks = [("parameter_reg", point.inputs, w.q_xi, None), ("velocity_reg", point.velocities, w.q_v, None)]
        if self.use_payload_task:
            blocks.append(("payload", self._payload_task(point)[0], w.q_d, None))
        return blocks

    def _input_seeds(self, point: _shooting.ShootingPoint, seeds: np.ndarray, s_extra) -> np.ndarray:
        """Payload task: pseudo-inverse state terms into `seeds`, the direct wrench gradient returned."""
        if not self.use_payload_task:
            return np.zeros((self.horizon, self.n_contacts, 6))
        residual, cache = self._payload_task(point)
        return _shooting.payload_cost_state_seeds(
            residual, cache, self._target_constants, self._payload, self.weights.q_d, seeds
        )

    def _input_gradient(self, point: _shooting.ShootingPoint, wrench_adj, wrench_direct) -> np.ndarray:
        # chain through the contact rotations and the parametrization Jacobian,
        # every contact at once and on the factors the value computed
        xi = point.inputs
        local = rotate_wrenches(wrench_adj + wrench_direct, self.refs.contact_orientations)
        xi_grad = parametrization_vjp(local, self._stage_surface, point.factors)
        xi_grad += xi @ self.weights.q_xi
        return xi_grad

    def _input_curvature(self, momentum: np.ndarray, com: np.ndarray) -> np.ndarray:
        """Parameter curvature (K, n_c, 6): the payload task and the tracking tasks through the contact map.

        `momentum` and `com` are the (K,) tracking curvatures per unit stage
        force.  Each row's surface factor times the stage's weight share is
        squared with `np.float_power`, the C library's `pow` that a scalar
        `** 2` calls (an array's `** 2` multiplies, which rounds differently).
        """
        weight = float(self._gates.mg_force[0, 2])
        w = self.weights
        qd_f = float(np.diag(w.q_d)[:3].mean())
        qd_m = float(np.diag(w.q_d)[3:].mean())
        s = self._stage_surface
        for i, surface in enumerate(self.surfaces):
            # each factor below is squared times a weight share, at most the whole
            # weight; Python floats overflow to inf without a warning
            largest = float(max(s.mu_c[0, i], s.mu_z[0, i], s.delta_x[0, i], s.delta_y[0, i])) * abs(weight)
            if not largest * largest < math.inf:
                raise ConfigurationError(
                    f"surface {surface} overflows the curvature metric: its largest factor times "
                    f"the weight, {largest:.3g}, squares past the float range"
                )
        share = weight / np.maximum(np.add.reduce(self.activity, 1), 1.0)
        # the rows' factors: mu_c, mu_c, 1 (the normal force), delta_y, delta_x, mu_z
        factor = s.row_scale.copy()
        factor[..., 2] = 1.0
        tasks = np.empty((self.horizon, 6))
        tasks[:, :3] = (qd_f + momentum + com)[:, None]
        tasks[:, 3:] = (qd_m + momentum)[:, None]
        squared = np.float_power(factor * share[:, None, None], 2)
        return np.diag(w.q_xi) + self.activity[..., None] * tasks[:, None, :] * squared

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
