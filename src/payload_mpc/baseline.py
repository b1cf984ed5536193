"""Comparison controller with explicit contact-stability constraints.

A `mpc.ShootingProblem` like the parametrized controller, so it shares its
prediction model, tracking objective, gradient, evaluator and receding-horizon
step.  Its decision variables are the contact wrenches themselves, and the
five stability conditions are imposed as smooth inequalities on every active
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
from .contact import rotate_wrenches
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants
from .errors import ConfigurationError
from .mpc import HorizonReferences, MpcConfig, ShootingProblem, receding_horizon_step
from .solver import solve  # noqa: F401  (perfbench/spans.py wraps `baseline.solve`)

STABILITY_RESIDUALS_PER_CONTACT = 5


class BaselineProblem(ShootingProblem):
    """Wrench-decision MPC instance with explicit stability constraints.

    The inputs are one 6D wrench (contact frame) per contact and stage, so
    the layout matches the parametrized problem's 9 variables per contact
    per stage.  The stability residuals follow the footstep bounds in the
    constraint vector.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # double-support mask for the similarity term (exactly two active feet)
        self._both_active = (self.activity.sum(axis=1) == 2.0) if self.n_contacts == 2 else np.zeros(
            self.horizon, dtype=bool
        )

    # the class's own binding: perfbench/spans.py wraps `cls.__dict__["evaluator"]`
    evaluator = ShootingProblem.evaluator

    def _wrenches_world(self, wrenches: np.ndarray, factors=None) -> np.ndarray:
        return rotate_wrenches(wrenches, self.refs.contact_orientations.transpose(0, 2, 1))

    # -- objective ----------------------------------------------------------------

    def _input_costs(self, point) -> dict:
        wrenches, w = point.inputs, self.weights
        cost = _costs.velocity_regularization_cost(point.velocities, w)
        cost += 0.5 * float(np.einsum("kli,ij,klj->", wrenches, w.q_wrench_reg, wrenches))
        if self._both_active.any():
            diff = wrenches[self._both_active, 0, :] - wrenches[self._both_active, 1, :]
            cost += 0.5 * float(np.einsum("ki,ij,kj->", diff, w.q_force_similarity, diff))
        return {"input_reg": cost}

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

    def _residuals(self, point) -> np.ndarray:
        return np.concatenate([super()._residuals(point), self.stability_residuals(point.inputs)])

    @property
    def num_constraints(self) -> int:
        return self.num_bound_constraints + self.horizon * self.n_contacts * STABILITY_RESIDUALS_PER_CONTACT

    def constraints_per_step(self, step: int) -> int:
        """Inequality count charged to one prediction stage (bounds + active cones)."""
        active = int(self.activity[step].sum())
        return self.num_bound_constraints // self.horizon + active * STABILITY_RESIDUALS_PER_CONTACT

    # -- gradient ----------------------------------------------------------------

    def _input_seeds(self, point, seeds: np.ndarray, s_stability) -> np.ndarray:
        """Direct contact-frame gradient of the input costs and the stability residuals."""
        wrenches, w = point.inputs, self.weights
        wrench_direct = np.zeros((self.horizon, self.n_contacts, 6))
        wrench_direct += wrenches @ w.q_wrench_reg
        if self._both_active.any():
            diff = (wrenches[self._both_active, 0, :] - wrenches[self._both_active, 1, :]) @ w.q_force_similarity
            wrench_direct[self._both_active, 0, :] += diff
            wrench_direct[self._both_active, 1, :] -= diff
        if s_stability is not None:
            wrench_direct += self._stability_gradient(wrenches, s_stability)
        return wrench_direct

    def _input_gradient(self, point, wrench_adj: np.ndarray, wrench_direct: np.ndarray) -> np.ndarray:
        # rotate the dynamics-path gradient back into the contact frames; the
        # direct terms already live there
        wrench_grad = rotate_wrenches(wrench_adj, self.refs.contact_orientations)
        wrench_grad += wrench_direct
        return wrench_grad

    def _input_curvature(self, curvature: np.ndarray, momentum: list, com: list) -> None:
        """Wrench curvature: the regularizers and the tracking tasks."""
        q_wreg = np.diag(self.weights.q_wrench_reg)
        q_sim = np.diag(self.weights.q_force_similarity)
        for k in range(self.horizon):
            curv_force = momentum[k] + com[k]
            similarity = q_sim if self._both_active[k] else 0.0 * q_sim
            for i in range(self.n_contacts):
                gamma = self.activity[k, i]
                c = curvature[k, i]
                c[:3] = q_wreg[:3] + similarity[:3] + gamma * curv_force
                c[3:6] = q_wreg[3:] + similarity[3:] + gamma * momentum[k]

    # -- warm start -----------------------------------------------------------------

    def initial_warm_start(self) -> np.ndarray:
        return self.encode(self._weight_shares(), np.zeros((self.horizon, self.n_contacts, 3)))


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


# one receding-horizon update serves both controllers
baseline_receding_horizon_step = receding_horizon_step


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
