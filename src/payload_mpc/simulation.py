"""Closed-loop reduced-model experiments.

Every controller period: slice the reference window, hold the current payload
estimate over the horizon, solve the receding-horizon problem, then apply the
first input zero-order-held to a plant integrated with the same centroidal
dynamics at a finer step.  The payload's grip points track the simulated CoM
(the load is carried), and the payload-blind controller variant simply
receives a zero estimate while the plant keeps the disturbance.

Logs are recorded per plant tick and exported to CSV with a fixed header;
each controller solve leaves one `TickRecord` of its wall time and the
solver's report.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .baseline import baseline_receding_horizon_step, build_constrained_mpc
from .contact import ContactSurface, stability_margins
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants, euler_step
from .errors import ConfigurationError, NonFiniteStartError, SolverFailure
from .gait import GaitParameters, generate_gait_schedule, generate_nominal_com_reference, payload_from_mass
from .mpc import HorizonReferences, MpcConfig, build_mpc_problem, receding_horizon_step
from .solver import SolverOptions, SolverResult

CONTROLLER_PARAM = "param"
CONTROLLER_BASELINE = "baseline"
CONTROLLER_PARAM_NO_PAYLOAD_TASK = "param-no-td"
CONTROLLERS = (CONTROLLER_PARAM, CONTROLLER_BASELINE, CONTROLLER_PARAM_NO_PAYLOAD_TASK)

_logger = logging.getLogger(__name__)

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
        for name in ("left_offset", "right_offset"):
            if np.shape(getattr(self, name)) != (3,):
                raise ConfigurationError(f"payload {name} must have shape (3,), got {np.shape(getattr(self, name))}")
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
class TickRecord:
    """One controller solve of one tick: its wall time and the solver's scalar report."""

    tick: int
    controller: str
    solve_ms: float
    iterations: int
    status: str
    value_evaluations: int
    gradient_evaluations: int
    backtracks: int
    outer_iterations: int
    kkt_norm: float  # inf-norm of the solve's last merit gradient
    constraint_violation: float  # inf-norm of the solve's unmet constraints
    over_period: bool  # solve_ms > 1000 * the controller period: the command comes late

    @classmethod
    def of(cls, tick: int, controller: str, solve_ms: float, stats: SolverResult, period: float) -> "TickRecord":
        """The record of one solve; `period` is the controller period in seconds."""
        return cls(tick, controller, solve_ms, stats.iterations, stats.status, stats.value_evaluations,
                   stats.gradient_evaluations, stats.backtracks, stats.outer_iterations, stats.kkt_norm,
                   stats.constraint_violation, solve_ms > 1000.0 * period)


@dataclass
class SimLog:
    """Per-plant-tick arrays and per-controller-tick `TickRecord`s of one closed-loop run."""

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
    # (T, 4) cost_breakdown groups: tracking, footsteps, payload, then parameter_reg
    # (parametrized; velocity_reg is not logged) or input_reg (baseline, whose payload is 0)
    costs: np.ndarray
    completed: bool = True
    failure_reason: str = ""
    # one TickRecord per completed controller tick; a tick spans len(times) // len(ticks) rows
    ticks: list = field(default_factory=list)
    shadow_per_tick: list = field(default_factory=list)  # TickRecord of the shadow controller's solves

    @property
    def iterations_per_tick(self) -> np.ndarray:
        return np.array([r.iterations for r in self.ticks], dtype=int)

    @property
    def status_per_tick(self) -> list:
        return [r.status for r in self.ticks]

    @property
    def solve_ms_per_tick(self) -> np.ndarray:
        return np.array([r.solve_ms for r in self.ticks])

    def tracking_error(self) -> np.ndarray:
        return self.com - self.com_ref

    def summary(self) -> dict:
        err = self.tracking_error()
        horizontal = np.linalg.norm(err[:, :2], axis=1)

        def mean(name: str) -> float:
            return float(np.mean([getattr(r, name) for r in self.ticks])) if self.ticks else 0.0

        converged = [r.constraint_violation for r in self.ticks if r.status == "converged"]
        return {
            "completed": self.completed,
            "failure_reason": self.failure_reason,
            "duration_s": float(self.times[-1]) if self.times.size else 0.0,
            "final_com_error_m": [float(v) for v in err[-1]] if err.size else [],
            "max_horizontal_error_m": float(horizontal.max()) if horizontal.size else 0.0,
            "mean_horizontal_error_m": float(horizontal.mean()) if horizontal.size else 0.0,
            "max_height_deviation_m": float(np.abs(err[:, 2]).max()) if err.size else 0.0,
            "mean_solve_ms": mean("solve_ms"),
            "mean_iterations": mean("iterations"),
            "non_converged_ticks": sum(r.status != "converged" for r in self.ticks),
            "ticks_over_period": sum(r.over_period for r in self.ticks),
            "mean_value_evaluations": mean("value_evaluations"),
            "mean_gradient_evaluations": mean("gradient_evaluations"),
            "mean_backtracks": mean("backtracks"),
            "mean_outer_iterations": mean("outer_iterations"),
            "mean_kkt_norm": mean("kkt_norm"),
            "max_converged_violation": float(max(converged, default=0.0)),
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
        rows_per_tick = len(self.times) // max(len(self.ticks), 1)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.csv_header())
            for t in range(len(self.times)):
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
                record = self.ticks[t // rows_per_tick]
                row += [f"{record.solve_ms:.3f}", record.iterations, record.status]
                writer.writerow(row)

    def write_summary(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, indent=2)


def _reference_window(schedule, com_refs, tick, horizon):
    window = slice(tick, tick + horizon + 1)
    return (
        com_refs[window],
        schedule.footstep_refs[:, window, :],
        schedule.activity[:, window],
    )


def _payload_at(hold: PayloadDisturbance | None, onset_time: float, com: np.ndarray, t: float) -> PayloadDisturbance:
    """The payload acting at time t: the CoM-relative `hold` moved to `com`, zero before onset or without one."""
    if hold is None or t < onset_time - 1e-12:
        return PayloadDisturbance.zero()
    return hold.translated(com)


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
    Without a `warm` start the solve starts from the problem's own
    `initial_warm_start`, which the configuration alone fixes; if the
    objective is not finite there, no tick of the run can start, so that
    raises `ConfigurationError`, not the `SolverFailure` that ends a run
    mid-way.
    """
    build, stepper = _controller(controller)
    problem = build(*instance)
    start = time.perf_counter()
    try:
        step = stepper(problem, warm)
    except NonFiniteStartError as failure:
        if warm is not None:
            raise
        message = f"the {controller} controller cannot start from its own initial guess: {failure}"
        raise ConfigurationError(message) from failure
    return problem, step, 1000.0 * (time.perf_counter() - start)


def run_closed_loop(scenario: Scenario, shadow: str = None) -> SimLog:
    """Simulate one scenario; deterministic for a fixed scenario and seed.

    With a `shadow` controller, every tick also solves that controller's
    problem, open loop and from its own warm start, on the driving tick's
    exact state, references, payload estimate and weights, and keeps its
    `TickRecord` in `SimLog.shadow_per_tick`.  The shadow never touches the
    plant.  Each record is also logged as one DEBUG line.
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
    spec = scenario.payload
    gravity = scenario.constants.gravity_vector[2]
    hold = payload_from_mass(spec.mass, spec.left_offset, spec.right_offset, gravity) if spec.mass > 0 else None

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
    )

    warm = None
    shadow_warm = None
    row = 0
    for tick in range(n_mpc_ticks):
        t = tick * config.dt
        com_window, feet_window, gait_window = _reference_window(schedule, com_refs, tick, horizon)
        refs = HorizonReferences(com_window, feet_window, gait_window, orientations)
        payload_true = _payload_at(hold, spec.onset_time, state.com_position, t)
        estimate = PayloadDisturbance.zero() if payload_blind else payload_true
        instance = (state, refs, estimate, weights, config, scenario.constants, surfaces)
        try:
            problem, step, solve_ms = _timed_step(scenario.controller, instance, warm)
            if shadow is not None:
                _, shadow_step, shadow_ms = _timed_step(shadow, instance, shadow_warm)
        except SolverFailure as failure:
            return _truncate_log(log, row, str(failure))
        warm = step.warm_start
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
                        log, row,
                        f"applied wrench violates contact stability at t={t:.2f}s "
                        f"(contact {i}, margins {margins})",
                    )
        log.ticks.append(TickRecord.of(tick, scenario.controller, solve_ms, step.stats, config.dt))
        _logger.debug("%s", log.ticks[-1])
        if shadow is not None:
            log.shadow_per_tick.append(TickRecord.of(tick, shadow, shadow_ms, shadow_step.stats, config.dt))
            _logger.debug("%s", log.shadow_per_tick[-1])
            shadow_warm = shadow_step.warm_start
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
            payload_plant = _payload_at(hold, spec.onset_time, state.com_position, t_plant)
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


def _truncate_log(log: SimLog, rows: int, reason: str) -> SimLog:
    """The log of a run that ended early: its plant-tick arrays cut to `rows`.

    The tick records need no cut: a tick's records are appended only once it
    has passed its solves and its audit.
    """
    cut = {name: value[:rows] for name, value in vars(log).items() if isinstance(value, np.ndarray)}
    return dataclasses.replace(log, completed=False, failure_reason=reason, **cut)


@dataclass
class TimingReport:
    """The closed loops' `TickRecord`s for both controllers plus summary statistics."""

    rows: list = field(default_factory=list)

    def append(self, row: TickRecord) -> None:
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
                "ticks_over_period": sum(r.over_period for r in rows),
            }
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tick", "controller", "solve_ms", "iterations", "status"])
            for r in self.rows:
                writer.writerow([r.tick, r.controller, f"{r.solve_ms:.3f}", r.iterations, r.status])


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
    if shared_trace:
        loops = [(CONTROLLER_PARAM, CONTROLLER_BASELINE)]
    else:
        loops = [(CONTROLLER_PARAM, None), (CONTROLLER_BASELINE, None)]
    for _ in range(runs):
        for controller, shadow in loops:
            log = run_closed_loop(with_controller(scenario, controller), shadow=shadow)
            if not log.completed:
                raise SolverFailure(log.failure_reason)
            # a stable sort by tick puts each driving record before its shadow's
            report.rows.extend(sorted(log.ticks + log.shadow_per_tick, key=lambda r: r.tick))
    return report
