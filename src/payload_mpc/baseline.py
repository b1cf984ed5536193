"""Comparison controller with explicit contact-stability constraints.

Same prediction model and tracking objective as the parametrized controller,
but the decision variables are the contact wrenches themselves and the five
stability conditions are imposed as smooth inequalities on every active
contact stage (two-sided center-of-pressure conditions become products, the
friction and torsion cones are squared, ratios are multiplied through by the
normal force).  Payload tasks are replaced by a force-similarity regularizer
that pulls the two feet wrenches together during double support.  Used for
like-for-like computational comparison: wrench decision variables isolate the
parametrization-versus-constraints change.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import costs as _costs
from . import shooting as _shooting
from .contact import SurfaceConstants, rotate_wrenches
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from .errors import ConfigurationError, SolverFailure
from .mpc import ControlStep, HorizonReferences, MpcConfig, footstep_bound_residuals, hold_payload_over_horizon
from .solver import NlpFunctions, solve

STABILITY_RESIDUALS_PER_CONTACT = 5


class BaselineProblem:
    """Wrench-decision MPC instance with explicit stability constraints.

    Decision layout per stage: one 6D wrench (contact frame) per contact,
    then one swing velocity per contact, matching the parametrized problem's
    9 variables per contact per stage.
    """

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
        self.state = state
        self.refs = refs
        self.weights = weights
        self.config = config
        self.constants = constants
        self.surfaces = tuple(surfaces)
        self._surface_constants = SurfaceConstants.of(self.surfaces)
        self.horizon = config.horizon
        self.n_contacts = refs.n_contacts
        self.payload_hold = hold_payload_over_horizon(payload_estimate, self.horizon)
        self._payload = _shooting.PayloadArrays.from_hold(self.payload_hold)
        self.activity = np.asarray(refs.gait, dtype=float)[:, : self.horizon].T.copy()  # (K, n_c)
        self.dim = self.horizon * self.n_contacts * 9
        self._x0 = state.as_vector()
        self._last_point = None
        # double-support mask for the similarity term (exactly two active feet)
        self._both_active = (self.activity.sum(axis=1) == 2.0) if self.n_contacts == 2 else np.zeros(
            self.horizon, dtype=bool
        )

    # -- layout -----------------------------------------------------------------

    def decode(self, z: np.ndarray):
        z = np.asarray(z, dtype=float).reshape(self.horizon, self.n_contacts * 9)
        wrenches = z[:, : self.n_contacts * 6].reshape(self.horizon, self.n_contacts, 6)
        vel = z[:, self.n_contacts * 6 :].reshape(self.horizon, self.n_contacts, 3)
        return wrenches, vel

    def encode(self, wrenches: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        z = np.concatenate(
            [
                wrenches.reshape(self.horizon, self.n_contacts * 6),
                velocities.reshape(self.horizon, self.n_contacts * 3),
            ],
            axis=1,
        )
        return z.reshape(self.dim)

    def _wrenches_world(self, wrenches: np.ndarray) -> np.ndarray:
        return rotate_wrenches(wrenches, self.refs.contact_orientations.transpose(0, 2, 1))

    def _point(self, z: np.ndarray) -> _shooting.ShootingPoint:
        """Inputs and rollout at `z`; value and gradient share the last one."""
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        point = self._last_point
        if point is None or point.key != key:
            wrenches, vel = self.decode(z.copy())
            world = self._wrenches_world(wrenches)
            states = _shooting.rollout(
                self._x0, world, vel, self.activity, self._payload, self.constants, self.config.dt
            )
            point = self._last_point = _shooting.ShootingPoint(key, wrenches, vel, world, states)
        return point

    def rollout(self, z: np.ndarray) -> np.ndarray:
        return self._point(z).states.copy()

    # -- objective ----------------------------------------------------------------

    def _input_cost(self, wrenches: np.ndarray, vel: np.ndarray) -> float:
        w = self.weights
        cost = _costs.velocity_regularization_cost(vel, w)
        cost += 0.5 * float(np.einsum("kli,ij,klj->", wrenches, w.q_wrench_reg, wrenches))
        if self._both_active.any():
            diff = wrenches[self._both_active, 0, :] - wrenches[self._both_active, 1, :]
            cost += 0.5 * float(np.einsum("ki,ij,kj->", diff, w.q_force_similarity, diff))
        return cost

    def _cost_parts(self, point: _shooting.ShootingPoint) -> dict:
        return {
            "tracking": _costs.tracking_cost(point.states, self.refs, self.weights),
            "footsteps": _costs.footstep_cost(point.states, self.refs, self.weights),
            "input_reg": self._input_cost(point.inputs, point.velocities),
        }

    def cost_breakdown(self, z: np.ndarray) -> dict:
        parts = self._cost_parts(self._point(z))
        parts["total"] = sum(parts.values())
        return parts

    def objective(self, z: np.ndarray) -> float:
        return float(self.cost_breakdown(z)["total"])

    # -- constraints ----------------------------------------------------------------

    def stability_residuals(self, wrenches: np.ndarray) -> np.ndarray:
        """Smooth stability residuals for active contact stages, flattened.

        Per active contact stage: normal force, squared friction cone, CoP-y
        product, CoP-x product, squared torsion cone.  Inactive stages emit a
        constant satisfied residual so the constraint count stays fixed.
        """
        s = self._surface_constants
        fx, fy, fz = wrenches[..., 0], wrenches[..., 1], wrenches[..., 2]
        mx, my, mz = wrenches[..., 3], wrenches[..., 4], wrenches[..., 5]
        res = np.empty((self.horizon, self.n_contacts, STABILITY_RESIDUALS_PER_CONTACT))
        res[..., 0] = fz - s.fz_min
        res[..., 1] = (s.mu_c * fz) ** 2 - fx**2 - fy**2
        res[..., 2] = (s.y_max * fz - mx) * (mx - s.y_min * fz)
        res[..., 3] = (s.x_max * fz + my) * (-my - s.x_min * fz)
        res[..., 4] = (s.mu_z * fz) ** 2 - mz**2
        inactive = self.activity < 0.5
        res[inactive] = 1.0
        return res.reshape(-1)

    def _stability_gradient(self, wrenches: np.ndarray, s_weights: np.ndarray) -> np.ndarray:
        """Accumulate sum_j s_j * d(stability residual j)/d(wrench) per stage."""
        s = self._surface_constants
        sw = s_weights.reshape(self.horizon, self.n_contacts, STABILITY_RESIDUALS_PER_CONTACT)
        fx, fy, fz = wrenches[..., 0], wrenches[..., 1], wrenches[..., 2]
        mx, my, mz = wrenches[..., 3], wrenches[..., 4], wrenches[..., 5]
        g = np.zeros_like(wrenches)
        g[..., 2] += sw[..., 0]
        g[..., 0] += sw[..., 1] * (-2.0 * fx)
        g[..., 1] += sw[..., 1] * (-2.0 * fy)
        g[..., 2] += sw[..., 1] * (2.0 * s.mu_c**2 * fz)
        a = s.y_max * fz - mx
        b = mx - s.y_min * fz
        g[..., 2] += sw[..., 2] * (s.y_max * b - s.y_min * a)
        g[..., 3] += sw[..., 2] * (a - b)
        a = s.x_max * fz + my
        b = -my - s.x_min * fz
        g[..., 2] += sw[..., 3] * (s.x_max * b - s.x_min * a)
        g[..., 4] += sw[..., 3] * (b - a)
        g[..., 2] += sw[..., 4] * (2.0 * s.mu_z**2 * fz)
        g[..., 5] += sw[..., 4] * (-2.0 * mz)
        return g * self.activity[..., None]

    def constraints(self, z: np.ndarray) -> np.ndarray:
        point = self._point(z)
        bounds = footstep_bound_residuals(point.states, self.refs, self.config)
        return np.concatenate([bounds, self.stability_residuals(point.inputs)])

    @property
    def num_bound_constraints(self) -> int:
        per_stage = 6 if self.config.footstep_bound_mode == "box" else 1
        return self.horizon * self.n_contacts * per_stage

    @property
    def num_constraints(self) -> int:
        return self.num_bound_constraints + self.horizon * self.n_contacts * STABILITY_RESIDUALS_PER_CONTACT

    def constraints_per_step(self, step: int) -> int:
        """Inequality count charged to one prediction stage (bounds + active cones)."""
        per_stage_bounds = 6 if self.config.footstep_bound_mode == "box" else 1
        active = int(self.activity[step].sum())
        return self.n_contacts * per_stage_bounds + active * STABILITY_RESIDUALS_PER_CONTACT

    # -- gradient ----------------------------------------------------------------

    def gradient(self, z: np.ndarray, constraint_weights=None) -> np.ndarray:
        point = self._point(z)
        wrenches, vel, wrenches_world, states = point.inputs, point.velocities, point.wrenches, point.states
        steps, n_c = self.horizon, self.n_contacts
        seeds = np.zeros_like(states)
        com, momentum, feet = _costs.split_states(states, n_c)
        seeds[:, 0:3] += (com - self.refs.com_refs) @ self.weights.q_c
        seeds[:, 6:9] += momentum[:, 3:] @ self.weights.q_h
        feet_err = feet - self.refs.footstep_refs.transpose(1, 0, 2)
        seeds[:, 9:] += (feet_err @ self.weights.q_pc).reshape(steps + 1, n_c * 3)
        wrench_direct = np.zeros((steps, n_c, 6))
        wrench_direct += wrenches @ self.weights.q_wrench_reg
        if self._both_active.any():
            diff = (wrenches[self._both_active, 0, :] - wrenches[self._both_active, 1, :]) @ self.weights.q_force_similarity
            wrench_direct[self._both_active, 0, :] += diff
            wrench_direct[self._both_active, 1, :] -= diff
        if constraint_weights is not None and constraint_weights.size:
            s_bounds = constraint_weights[: self.num_bound_constraints]
            s_cones = constraint_weights[self.num_bound_constraints :]
            seeds += self._bound_state_seeds(states, s_bounds)
            wrench_direct += self._stability_gradient(wrenches, s_cones)
        wrench_adj, vel_adj = _shooting.rollout_adjoint(
            states, wrenches_world, self.activity, self._payload, self.constants, self.config.dt, seeds
        )
        # rotate the dynamics-path gradient back into the contact frames; the
        # direct terms above already live there
        wrench_grad = rotate_wrenches(wrench_adj, self.refs.contact_orientations)
        wrench_grad += wrench_direct
        vel_grad = vel_adj + vel @ self.weights.q_v
        return self.encode(wrench_grad, vel_grad)

    def _bound_state_seeds(self, states: np.ndarray, s: np.ndarray) -> np.ndarray:
        steps, n_c = self.horizon, self.n_contacts
        seeds = np.zeros_like(states)
        rots = self.refs.contact_orientations
        if self.config.footstep_bound_mode == "box":
            sw = s.reshape(steps, n_c, 6)
            delta = sw[..., :3] - sw[..., 3:]
            seeds[1:, 9:] = np.einsum("iab,kib->kia", rots, delta).reshape(steps, n_c * 3)
        else:
            sw = s.reshape(steps, n_c)
            _, _, feet = _costs.split_states(states, n_c)
            err_world = feet[1:] - self.refs.footstep_refs.transpose(1, 0, 2)[1:]
            err = np.einsum("iba,kib->kia", rots, err_world)
            norm = np.linalg.norm(err, axis=2, keepdims=True)
            unit = np.where(norm > 1e-12, err / np.maximum(norm, 1e-12), 0.0)
            seeds[1:, 9:] = (-sw[..., None] * np.einsum("iab,kib->kia", rots, unit)).reshape(steps, n_c * 3)
        return seeds

    # -- solver plumbing -----------------------------------------------------------

    def evaluator(self) -> NlpFunctions:
        def value(z):
            point = self._point(z)
            if not np.abs(point.states).max() <= 1e6:  # also rejects nan and inf
                return np.inf, np.zeros(self.num_constraints)
            f = sum(self._cost_parts(point).values())
            residuals = np.concatenate(
                [
                    footstep_bound_residuals(point.states, self.refs, self.config),
                    self.stability_residuals(point.inputs),
                ]
            )
            return float(f), residuals

        return NlpFunctions(
            dim=self.dim,
            num_constraints=self.num_constraints,
            value=value,
            gradient=self.gradient,
            metric_diag=self.curvature_metric(),
        )

    def curvature_metric(self) -> np.ndarray:
        """Per-variable inverse-curvature estimates (wrench and velocity scales)."""
        steps, n_c = self.horizon, self.n_contacts
        dt = self.config.dt
        mass = self.constants.mass
        w = self.weights
        q_wreg = np.diag(w.q_wrench_reg)
        q_sim = np.diag(w.q_force_similarity)
        q_h_m = float(np.diag(w.q_h).mean())
        q_c_max = float(np.diag(w.q_c).max())
        q_pc_m = float(np.diag(w.q_pc).mean())
        q_v_d = np.diag(w.q_v)
        curvature = np.empty((steps, n_c, 9))
        for k in range(steps):
            remaining = steps - k
            curv_force = (
                q_h_m * dt * dt * remaining
                + q_c_max * dt**4 * remaining**3 / (3.0 * mass * mass)
            )
            curv_moment = q_h_m * dt * dt * remaining
            similarity = q_sim if self._both_active[k] else 0.0 * q_sim
            for i in range(n_c):
                gamma = self.activity[k, i]
                c = curvature[k, i]
                c[:3] = q_wreg[:3] + similarity[:3] + gamma * curv_force
                c[3:6] = q_wreg[3:] + similarity[3:] + gamma * curv_moment
                landed_after = int(self.activity[k + 1 :, i].sum()) if gamma < 0.5 else 0
                lever = q_h_m * dt**4 * (mass * 9.81) ** 2 * landed_after**3 / 3.0
                c[6:] = q_v_d + (1.0 - gamma) * (q_pc_m * dt * dt * remaining + lever)
        metric = np.empty((steps, n_c * 9))
        metric[:, : n_c * 6] = (1.0 / curvature[:, :, :6]).reshape(steps, n_c * 6)
        metric[:, n_c * 6 :] = (1.0 / curvature[:, :, 6:]).reshape(steps, n_c * 3)
        return metric.reshape(self.dim)

    # -- warm starts -----------------------------------------------------------------

    def initial_warm_start(self) -> np.ndarray:
        wrenches = np.zeros((self.horizon, self.n_contacts, 6))
        mass = self.constants.mass
        for k in range(self.horizon):
            active = self.activity[k]
            n_active = max(int(active.sum()), 1)
            for i in range(self.n_contacts):
                if active[i]:
                    rot = self.refs.contact_orientations[i]
                    wrenches[k, i, :3] = rot.T @ [0.0, 0.0, mass * 9.81 / n_active]
        return self.encode(wrenches, np.zeros((self.horizon, self.n_contacts, 3)))

    def shift_warm_start(self, z: np.ndarray) -> np.ndarray:
        blocks = np.asarray(z, dtype=float).reshape(self.horizon, self.n_contacts * 9)
        return np.concatenate([blocks[1:], blocks[-1:]], axis=0).reshape(self.dim)

    def first_input(self, z: np.ndarray):
        wrenches, vel = self.decode(z)
        world = self._wrenches_world(wrenches[:1])[0]
        out = [
            Wrench.from_array(world[i]) if self.activity[0, i] else Wrench.zero()
            for i in range(self.n_contacts)
        ]
        return wrenches[0].copy(), out, vel[0].copy()


def build_constrained_mpc(
    state: CentroidalState,
    refs: HorizonReferences,
    payload_estimate: PayloadDisturbance,
    weights: Weights,
    config: MpcConfig,
    constants: RobotConstants,
    surfaces,
) -> BaselineProblem:
    return BaselineProblem(state, refs, payload_estimate, weights, config, constants, surfaces)


def baseline_receding_horizon_step(problem: BaselineProblem, warm_start=None) -> ControlStep:
    """Baseline counterpart of the parametrized receding-horizon update."""
    z0 = problem.initial_warm_start() if warm_start is None else np.asarray(warm_start, dtype=float)
    result = solve(problem.evaluator(), z0, problem.config.solver)
    if not np.all(np.isfinite(result.z)) or not np.isfinite(result.objective):
        raise SolverFailure("solver returned a non-finite iterate", result=result)
    w0, wrenches, velocities = problem.first_input(result.z)
    return ControlStep(
        xi=np.zeros((problem.n_contacts, 6)),  # no parameters in the baseline
        wrenches=wrenches,
        contact_velocities=velocities,
        warm_start=problem.shift_warm_start(result.z),
        stats=result,
    )


@dataclass
class TickTiming:
    tick: int
    controller: str
    solve_ms: float
    iterations: int
    status: str


@dataclass
class TimingReport:
    """Per-tick solve records for both controllers plus summary statistics."""

    rows: list = field(default_factory=list)

    def append(self, row: TickTiming) -> None:
        self.rows.append(row)

    def controllers(self):
        return sorted({r.controller for r in self.rows})

    def summary(self) -> dict:
        out = {}
        for name in self.controllers():
            times = np.array([r.solve_ms for r in self.rows if r.controller == name])
            iters = np.array([r.iterations for r in self.rows if r.controller == name])
            failures = sum(
                1 for r in self.rows if r.controller == name and r.status not in ("converged",)
            )
            out[name] = {
                "ticks": int(times.size),
                "mean_solve_ms": float(times.mean()) if times.size else float("nan"),
                "median_solve_ms": float(np.median(times)) if times.size else float("nan"),
                "mean_iterations": float(iters.mean()) if iters.size else float("nan"),
                "median_iterations": float(np.median(iters)) if iters.size else float("nan"),
                "non_converged": int(failures),
            }
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tick", "controller", "solve_ms", "iterations", "status"])
            for r in self.rows:
                writer.writerow([r.tick, r.controller, f"{r.solve_ms:.3f}", r.iterations, r.status])


def compare_timing(scenario, runs: int = 1, shared_trace: bool = False) -> TimingReport:
    """Run the parametrized and constrained controllers on the same scenario.

    Each controller runs its own closed loop over identical references and
    payload streams (`runs` repetitions).  With `shared_trace` the baseline
    instead re-solves the exact state/reference stream recorded from the
    parametrized closed loop, eliminating trajectory divergence from the
    comparison.
    """
    from . import simulation as _sim  # late import: simulation depends on this module

    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    report = TimingReport()
    for _ in range(runs):
        if shared_trace:
            _sim.run_shared_trace(scenario, report)
        else:
            for controller in ("param", "baseline"):
                log = _sim.run_closed_loop(_sim.with_controller(scenario, controller))
                for tick, (ms, iters, status) in enumerate(
                    zip(log.solve_ms_per_tick, log.iterations_per_tick, log.status_per_tick)
                ):
                    report.append(TickTiming(tick, controller, ms, iters, status))
    return report
