"""Closed-loop reduced-model experiments.

Every controller period: slice the reference window, hold the current payload
estimate over the horizon, solve the receding-horizon problem, then apply the
first input zero-order-held to a plant integrated with the same centroidal
dynamics at a finer step.  The payload's grip points track the simulated CoM
(the load is carried), and the payload-blind controller variant simply
receives a zero estimate while the plant keeps the disturbance.

Logs are recorded per plant tick and exported to CSV with a fixed header.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .baseline import baseline_receding_horizon_step, build_constrained_mpc
from .contact import ContactSurface, stability_margins
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants, euler_step
from .errors import ConfigurationError, SolverFailure
from .gait import GaitParameters, generate_gait_schedule, generate_nominal_com_reference, payload_from_mass
from .mpc import HorizonReferences, MpcConfig, build_mpc_problem, receding_horizon_step
from .solver import SolverOptions

CONTROLLER_PARAM = "param"
CONTROLLER_BASELINE = "baseline"
CONTROLLER_PARAM_NO_PAYLOAD_TASK = "param-no-td"
CONTROLLERS = (CONTROLLER_PARAM, CONTROLLER_BASELINE, CONTROLLER_PARAM_NO_PAYLOAD_TASK)

# the most plant ticks one run may log (about 0.5 kB each): far above the
# 3,000 of the 30 s timing walk, and a bound on what a config can allocate
MAX_PLANT_TICKS = 100_000

# practical solver settings for closed-loop runs: the absolute 1e-6 library
# default is below the line-search noise floor of these cost magnitudes
def default_run_solver_options() -> SolverOptions:
    return SolverOptions(max_iterations=200, kkt_tolerance=3e-3)


@dataclass
class PayloadSpec:
    mass: float = 0.0  # kg
    left_offset: tuple = (0.25, 0.1, -0.1325)  # m, CoM-relative grip points
    right_offset: tuple = (0.25, -0.1, -0.1325)
    onset_time: float = 0.0  # s

    def validate(self) -> None:
        for name in ("mass", "left_offset", "right_offset", "onset_time"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"payload {name} must be finite, got {getattr(self, name)}")
        # `not x >= 0` also rejects nan
        if not self.mass >= 0:
            raise ConfigurationError(f"payload mass must be >= 0, got {self.mass}")
        if not self.onset_time >= 0:
            raise ConfigurationError(f"payload onset_time must be >= 0, got {self.onset_time}")


@dataclass
class Scenario:
    constants: RobotConstants = field(default_factory=lambda: RobotConstants(mass=1.0))
    surface: ContactSurface = field(default_factory=lambda: ContactSurface(-0.2, 0.2, -0.075, 0.075))
    gait: GaitParameters = field(default_factory=GaitParameters)
    payload: PayloadSpec = field(default_factory=PayloadSpec)
    controller: str = CONTROLLER_PARAM
    plant_dt: float = 0.01  # s
    duration: float = 8.0  # s
    seed: int = 0
    weights: Weights = field(default_factory=Weights)
    mpc: MpcConfig = field(default_factory=lambda: MpcConfig(solver=default_run_solver_options()))

    def validate(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ConfigurationError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.plant_dt <= 0:
            raise ConfigurationError(f"plant_dt must be positive, got {self.plant_dt}")
        ratio = self.mpc.dt / self.plant_dt
        if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigurationError(
                f"plant_dt={self.plant_dt} must divide the controller period {self.mpc.dt}"
            )
        periods = self.duration / self.mpc.dt
        if not (np.isfinite(periods) and round(periods) * round(ratio) <= MAX_PLANT_TICKS):
            raise ConfigurationError(
                f"duration={self.duration} at plant_dt={self.plant_dt} exceeds {MAX_PLANT_TICKS} plant ticks"
            )
        self.payload.validate()
        self.gait.validate(self.mpc.dt)
        # the gait schedule holds every tick of the walk, padded past the run
        # by one horizon: bound its length before anything builds it
        if max(self.gait.walk_ticks(self.mpc.dt), round(periods) + self.mpc.horizon + 1) > MAX_PLANT_TICKS:
            raise ConfigurationError(
                f"the gait schedule of number_of_steps={self.gait.number_of_steps} and "
                f"horizon={self.mpc.horizon} exceeds {MAX_PLANT_TICKS} controller ticks"
            )


def with_controller(scenario: Scenario, controller: str) -> Scenario:
    return dataclasses.replace(scenario, controller=controller)


def default_payload_scenario(**overrides) -> Scenario:
    """Carry-walk demo: 1 kg floating mass with a 1.5 kg payload held ahead.

    The support rectangles extend toward the toes so the stationary center of
    pressure demanded by the forward payload (0.15 m ahead of each ankle)
    sits at the interior rest point of the wrench parametrization.
    """
    base = dict(
        constants=RobotConstants(mass=1.0),
        surface=ContactSurface(-0.05, 0.35, -0.075, 0.075),
        gait=GaitParameters(),
        payload=PayloadSpec(mass=1.5),
        duration=8.0,
    )
    base.update(overrides)
    return Scenario(**base)


@dataclass
class SimLog:
    """Per-plant-tick record of one closed-loop run."""

    n_contacts: int
    times: np.ndarray
    com: np.ndarray  # (T, 3)
    com_ref: np.ndarray  # (T, 3)
    momentum: np.ndarray  # (T, 6)
    feet: np.ndarray  # (T, n_c, 3)
    feet_ref: np.ndarray  # (T, n_c, 3)
    feet_active: np.ndarray  # (T, n_c)
    wrenches: np.ndarray  # (T, n_c, 6) applied, inertial frame
    xi: np.ndarray  # (T, n_c, 6)
    payload_fz_total: np.ndarray  # (T,)
    costs: np.ndarray  # (T, 4) tracking, footsteps, payload, parameter_reg
    completed: bool = True
    failure_reason: str = ""
    # per-controller-tick solver records; a tick spans len(times) // len(status_per_tick) rows
    solve_ms_per_tick: np.ndarray = None
    iterations_per_tick: np.ndarray = None
    status_per_tick: list = None
    value_evaluations_per_tick: np.ndarray = None
    gradient_evaluations_per_tick: np.ndarray = None
    backtracks_per_tick: np.ndarray = None
    outer_iterations_per_tick: np.ndarray = None
    kkt_norm_per_tick: np.ndarray = None  # inf-norm of each solve's last merit gradient
    shadow_per_tick: list = field(default_factory=list)  # TickTiming of the shadow controller's solves

    def tracking_error(self) -> np.ndarray:
        return self.com - self.com_ref

    def summary(self) -> dict:
        err = self.tracking_error()
        horizontal = np.linalg.norm(err[:, :2], axis=1)
        return {
            "completed": self.completed,
            "failure_reason": self.failure_reason,
            "duration_s": float(self.times[-1]) if self.times.size else 0.0,
            "final_com_error_m": [float(v) for v in err[-1]] if err.size else [],
            "max_horizontal_error_m": float(horizontal.max()) if horizontal.size else 0.0,
            "mean_horizontal_error_m": float(horizontal.mean()) if horizontal.size else 0.0,
            "max_height_deviation_m": float(np.abs(err[:, 2]).max()) if err.size else 0.0,
            "mean_solve_ms": _mean(self.solve_ms_per_tick),
            "mean_iterations": _mean(self.iterations_per_tick),
            "non_converged_ticks": sum(status != "converged" for status in self.status_per_tick or ()),
            "mean_value_evaluations": _mean(self.value_evaluations_per_tick),
            "mean_gradient_evaluations": _mean(self.gradient_evaluations_per_tick),
            "mean_outer_iterations": _mean(self.outer_iterations_per_tick),
            "mean_kkt_norm": _mean(self.kkt_norm_per_tick),
            "cost_totals": [float(v) for v in self.costs.sum(axis=0)] if self.costs.size else [],
        }

    def csv_header(self) -> list:
        header = ["t", "com_x", "com_y", "com_z", "ref_com_x", "ref_com_y", "ref_com_z",
                  "hl_x", "hl_y", "hl_z", "hw_x", "hw_y", "hw_z"]
        for i in range(1, self.n_contacts + 1):
            header += [f"c{i}_{a}" for a in "xyz"]
            header += [f"c{i}_ref_{a}" for a in "xyz"]
            header += [f"c{i}_active"]
            header += [f"f{i}_{a}" for a in "xyz"]
            header += [f"m{i}_{a}" for a in "xyz"]
            header += [f"xi_{i}_{j}" for j in range(1, 7)]
        header += ["d_fz_total", "cost_Th", "cost_Tpc", "cost_Td", "cost_Txi",
                   "solve_ms", "iterations", "status"]
        return header

    def to_csv(self, path) -> None:
        rows_per_tick = len(self.times) // max(len(self.status_per_tick), 1)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.csv_header())
            for t in range(len(self.times)):
                tick = t // rows_per_tick
                row = [f"{self.times[t]:.6f}"]
                row += [f"{v:.9g}" for v in self.com[t]]
                row += [f"{v:.9g}" for v in self.com_ref[t]]
                row += [f"{v:.9g}" for v in self.momentum[t]]
                for i in range(self.n_contacts):
                    row += [f"{v:.9g}" for v in self.feet[t, i]]
                    row += [f"{v:.9g}" for v in self.feet_ref[t, i]]
                    row += [int(self.feet_active[t, i])]
                    row += [f"{v:.9g}" for v in self.wrenches[t, i]]
                    row += [f"{v:.9g}" for v in self.xi[t, i]]
                row += [f"{self.payload_fz_total[t]:.9g}"]
                row += [f"{v:.9g}" for v in self.costs[t]]
                row += [f"{self.solve_ms_per_tick[tick]:.3f}", int(self.iterations_per_tick[tick]),
                        self.status_per_tick[tick]]
                writer.writerow(row)

    def write_summary(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, indent=2)


def _mean(values) -> float:
    return float(np.mean(values)) if values is not None and len(values) else 0.0


def _reference_window(schedule, com_refs, tick, horizon):
    window = slice(tick, tick + horizon + 1)
    return (
        com_refs[window],
        schedule.footstep_refs[:, window, :],
        schedule.activity[:, window],
    )


def _payload_at(spec: PayloadSpec, com: np.ndarray, t: float, gravity: float) -> PayloadDisturbance:
    if spec.mass <= 0 or t < spec.onset_time - 1e-12:
        return PayloadDisturbance.zero()
    return payload_from_mass(spec.mass, spec.left_offset, spec.right_offset, gravity).translated(com)


def _controller(name: str):
    """(problem builder, receding-horizon stepper) of one controller.

    Looked up in this module's globals at call time, so that the benchmark's
    replacements of these bindings time both the driving and the shadow solve.
    """
    if name == CONTROLLER_BASELINE:
        return build_constrained_mpc, baseline_receding_horizon_step
    return build_mpc_problem, receding_horizon_step


def _timed_step(controller: str, instance: tuple, warm):
    """Build one controller's problem for `instance` (the builder's arguments) and solve it.

    Returns the problem, its `ControlStep` and the solve's wall time in ms.
    """
    build, stepper = _controller(controller)
    problem = build(*instance)
    start = time.perf_counter()
    step = stepper(problem, warm)
    return problem, step, 1000.0 * (time.perf_counter() - start)


def run_closed_loop(scenario: Scenario, shadow: str = None) -> SimLog:
    """Simulate one scenario; deterministic for a fixed scenario and seed.

    With a `shadow` controller, every tick also solves that controller's
    problem, open loop and from its own warm start, on the driving tick's
    exact state, references, payload estimate and weights, and keeps its
    timing in `SimLog.shadow_per_tick`.  The shadow never touches the plant.
    """
    scenario.validate()
    if shadow is not None and shadow not in CONTROLLERS:
        raise ConfigurationError(f"shadow controller must be one of {CONTROLLERS}, got {shadow!r}")
    config = scenario.mpc
    horizon = config.horizon
    n_mpc_ticks = int(round(scenario.duration / config.dt))
    substeps = int(round(config.dt / scenario.plant_dt))
    schedule = generate_gait_schedule(scenario.gait, config, min_ticks=n_mpc_ticks + horizon + 1)
    com_refs = generate_nominal_com_reference(schedule, scenario.gait)
    n_c = schedule.n_contacts
    surfaces = [scenario.surface] * n_c
    orientations = np.tile(np.eye(3), (n_c, 1, 1))
    gravity = scenario.constants.gravity_vector[2]

    weights = scenario.weights
    payload_blind = scenario.controller == CONTROLLER_PARAM_NO_PAYLOAD_TASK
    if payload_blind:
        weights = weights.without_payload_task()

    feet0 = schedule.footstep_refs[:, 0, :].copy()
    state = CentroidalState(com_refs[0], np.zeros(6), feet0)

    total_plant_ticks = n_mpc_ticks * substeps
    log = SimLog(
        n_contacts=n_c,
        times=np.zeros(total_plant_ticks),
        com=np.zeros((total_plant_ticks, 3)),
        com_ref=np.zeros((total_plant_ticks, 3)),
        momentum=np.zeros((total_plant_ticks, 6)),
        feet=np.zeros((total_plant_ticks, n_c, 3)),
        feet_ref=np.zeros((total_plant_ticks, n_c, 3)),
        feet_active=np.zeros((total_plant_ticks, n_c), dtype=int),
        wrenches=np.zeros((total_plant_ticks, n_c, 6)),
        xi=np.zeros((total_plant_ticks, n_c, 6)),
        payload_fz_total=np.zeros(total_plant_ticks),
        costs=np.zeros((total_plant_ticks, 4)),
        solve_ms_per_tick=np.zeros(n_mpc_ticks),
        iterations_per_tick=np.zeros(n_mpc_ticks, dtype=int),
        status_per_tick=[""] * n_mpc_ticks,
        value_evaluations_per_tick=np.zeros(n_mpc_ticks, dtype=int),
        gradient_evaluations_per_tick=np.zeros(n_mpc_ticks, dtype=int),
        backtracks_per_tick=np.zeros(n_mpc_ticks, dtype=int),
        outer_iterations_per_tick=np.zeros(n_mpc_ticks, dtype=int),
        kkt_norm_per_tick=np.zeros(n_mpc_ticks),
    )

    warm = None
    shadow_warm = None
    row = 0
    for tick in range(n_mpc_ticks):
        t = tick * config.dt
        com_window, feet_window, gait_window = _reference_window(schedule, com_refs, tick, horizon)
        refs = HorizonReferences(com_window, feet_window, gait_window, orientations)
        payload_true = _payload_at(scenario.payload, state.com_position, t, gravity)
        estimate = PayloadDisturbance.zero() if payload_blind else payload_true
        instance = (state, refs, estimate, weights, config, scenario.constants, surfaces)
        try:
            problem, step, solve_ms = _timed_step(scenario.controller, instance, warm)
            if shadow is not None:
                _, shadow_step, shadow_ms = _timed_step(shadow, instance, shadow_warm)
        except SolverFailure as failure:
            return _truncate_log(log, row, tick, str(failure))
        warm = step.warm_start
        if shadow is not None:
            log.shadow_per_tick.append(
                TickTiming(tick, shadow, shadow_ms, shadow_step.stats.iterations, shadow_step.stats.status)
            )
            shadow_warm = shadow_step.warm_start
        breakdown = problem.cost_breakdown(step.stats.z)
        active = schedule.activity[:, tick]
        # stability audit of the applied wrenches (parametrized controllers
        # satisfy it by construction; the baseline within solver tolerance)
        for i in range(n_c):
            if active[i]:
                margins = stability_margins(step.wrenches[i], scenario.surface)
                slack = -1e-12 if scenario.controller != CONTROLLER_BASELINE else -1e-5
                if margins.min() < slack:
                    return _truncate_log(
                        log, row, tick,
                        f"applied wrench violates contact stability at t={t:.2f}s "
                        f"(contact {i}, margins {margins})",
                    )
        log.solve_ms_per_tick[tick] = solve_ms
        log.iterations_per_tick[tick] = step.stats.iterations
        log.status_per_tick[tick] = step.stats.status
        log.value_evaluations_per_tick[tick] = step.stats.value_evaluations
        log.gradient_evaluations_per_tick[tick] = step.stats.gradient_evaluations
        log.backtracks_per_tick[tick] = step.stats.backtracks
        log.outer_iterations_per_tick[tick] = step.stats.outer_iterations
        log.kkt_norm_per_tick[tick] = step.stats.kkt_norm
        cost_row = np.array(
            [
                breakdown.get("tracking", 0.0),
                breakdown.get("footsteps", 0.0),
                breakdown.get("payload", 0.0),
                breakdown.get("parameter_reg", breakdown.get("input_reg", 0.0)),
            ]
        )
        for sub in range(substeps):
            t_plant = t + sub * scenario.plant_dt
            payload_plant = _payload_at(scenario.payload, state.com_position, t_plant, gravity)
            alpha = sub / substeps
            log.times[row] = t_plant
            log.com[row] = state.com_position
            # references interpolated to plant resolution (they are piecewise
            # linear across controller ticks)
            log.com_ref[row] = (1 - alpha) * com_refs[tick] + alpha * com_refs[tick + 1]
            log.feet_ref[row] = (
                (1 - alpha) * schedule.footstep_refs[:, tick, :]
                + alpha * schedule.footstep_refs[:, tick + 1, :]
            )
            log.momentum[row] = state.momentum
            log.feet[row] = state.contact_positions
            log.feet_active[row] = active
            log.wrenches[row] = step.wrenches
            log.xi[row] = step.xi
            log.payload_fz_total[row] = payload_plant.total_force()[2]
            log.costs[row] = cost_row
            state = euler_step(
                state,
                step.wrenches,
                step.contact_velocities,
                payload_plant,
                active,
                scenario.constants,
                scenario.plant_dt,
            )
            row += 1
    return log


def _truncate_log(log: SimLog, rows: int, ticks: int, reason: str) -> SimLog:
    """The log of a run that ended early: `*_per_tick` fields cut to `ticks`, the others to `rows`."""
    cut = {}
    for f in dataclasses.fields(log):
        value = getattr(log, f.name)
        if isinstance(value, (np.ndarray, list)):
            cut[f.name] = value[: ticks if f.name.endswith("_per_tick") else rows]
    return dataclasses.replace(log, completed=False, failure_reason=reason, **cut)


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
            rows = [r for r in self.rows if r.controller == name]
            times = np.array([r.solve_ms for r in rows])
            iters = np.array([r.iterations for r in rows])
            converged = np.array([r.status == "converged" for r in rows])
            out[name] = {
                "ticks": int(times.size),
                "mean_solve_ms": float(times.mean()),
                "median_solve_ms": float(np.median(times)),
                "mean_iterations": float(iters.mean()),
                "median_iterations": float(np.median(iters)),
                "non_converged": int((~converged).sum()),
                "mean_converged_solve_ms": float(times[converged].mean()) if converged.any() else float("nan"),
                "non_converged_share": float((~converged).mean()),
            }
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tick", "controller", "solve_ms", "iterations", "status"])
            for r in self.rows:
                writer.writerow([r.tick, r.controller, f"{r.solve_ms:.3f}", r.iterations, r.status])


def _tick_timings(log: SimLog, controller: str) -> list:
    """The driving controller's rows of one completed run."""
    if not log.completed:
        raise SolverFailure(log.failure_reason)
    return [
        TickTiming(tick, controller, ms, iters, status)
        for tick, (ms, iters, status) in enumerate(
            zip(log.solve_ms_per_tick, log.iterations_per_tick, log.status_per_tick)
        )
    ]


def compare_timing(scenario: Scenario, runs: int = 1, shared_trace: bool = False) -> TimingReport:
    """Run the parametrized and constrained controllers on the same scenario.

    Each controller runs its own closed loop over identical references and
    payload streams (`runs` repetitions).  With `shared_trace` the
    parametrized controller drives one loop and the baseline shadows it,
    re-solving every tick's exact instance, which removes trajectory
    divergence from the comparison.  Raises `SolverFailure` when a loop ends
    early.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    report = TimingReport()
    for _ in range(runs):
        if shared_trace:
            log = run_closed_loop(with_controller(scenario, CONTROLLER_PARAM), shadow=CONTROLLER_BASELINE)
            for pair in zip(_tick_timings(log, CONTROLLER_PARAM), log.shadow_per_tick):
                report.rows.extend(pair)
        else:
            for controller in (CONTROLLER_PARAM, CONTROLLER_BASELINE):
                log = run_closed_loop(with_controller(scenario, controller))
                report.rows.extend(_tick_timings(log, controller))
    return report
