"""Gait schedule, nominal references and payload construction for the reduced model.

The schedule alternates single-support swings (left foot first) separated by
double-support phases; each swing advances that foot by one step length along
x while the feet keep their lateral lanes at +/- half the step width.  The
nominal CoM reference interpolates linearly, within each phase, toward the
support midpoint of that phase (both feet in double support, the stance foot
in single support) at a constant height.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GRAVITY, PayloadDisturbance
from .errors import ConfigurationError

PHASE_DOUBLE = "double"
PHASE_SINGLE = "single"

# grip points of a carried box, relative to the CoM (m): ahead, one per hand,
# a quarter of the default CoM height below
DEFAULT_LEFT_GRIP = (0.25, 0.1, -0.1325)
DEFAULT_RIGHT_GRIP = (0.25, -0.1, -0.1325)


@dataclass
class GaitParameters:
    # defaults keep the nominal CoM reference trackable by the closed loop:
    # narrow lanes bound the lateral zigzag and the slow cadence leaves time
    # to settle over each phase's support before it changes again
    step_length: float = 0.15  # m
    step_width: float = 0.06  # m, lateral distance between foot centers
    single_support_duration: float = 1.2  # s
    double_support_duration: float = 0.6  # s
    number_of_steps: int = 4
    com_height: float = 0.53  # m

    def validate(self, dt: float) -> None:
        for name in ("step_length", "step_width", "single_support_duration", "double_support_duration", "com_height"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"gait {name} must be finite, got {getattr(self, name)}")
        if self.number_of_steps < 0:
            raise ConfigurationError(f"number_of_steps must be >= 0, got {self.number_of_steps}")
        if self.com_height <= 0:
            raise ConfigurationError(f"com_height must be positive, got {self.com_height}")
        if self.step_width <= 0:
            raise ConfigurationError(f"step_width must be positive, got {self.step_width}")
        for name in ("single_support_duration", "double_support_duration"):
            duration = getattr(self, name)
            if duration <= 0:
                raise ConfigurationError(f"{name} must be positive, got {duration}")
            ticks = duration / dt
            if not np.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-9:
                raise ConfigurationError(
                    f"{name}={duration} is not an integer multiple of the controller period {dt}"
                )
            if round(ticks) < 1:
                raise ConfigurationError(f"{name}={duration} is shorter than one controller period {dt}")

    def walk_ticks(self, dt: float) -> int:
        """Controller ticks of the walk: the opening double support, then each step's two phases."""
        ds_ticks = round(self.double_support_duration / dt)
        return ds_ticks + self.number_of_steps * (round(self.single_support_duration / dt) + ds_ticks)


@dataclass
class Phase:
    start: int  # tick index, inclusive
    end: int  # tick index, exclusive
    kind: str  # PHASE_DOUBLE or PHASE_SINGLE
    swing_foot: int = -1  # contact index, single support only


@dataclass
class GaitSchedule:
    """Tick-indexed activity flags, footstep references and phase list."""

    dt: float
    activity: np.ndarray  # (n_c, T) in {0, 1}
    footstep_refs: np.ndarray  # (n_c, T, 3)
    phases: list = field(default_factory=list)

    @property
    def ticks(self) -> int:
        return self.activity.shape[1]

    @property
    def n_contacts(self) -> int:
        return self.activity.shape[0]


def generate_gait_schedule(params: GaitParameters, config, min_ticks: int = 0) -> GaitSchedule:
    """Build the full-run schedule (left foot index 0, right index 1).

    The run opens with one double-support phase, then alternates swing and
    double-support phases for `number_of_steps` steps, and ends in permanent
    double support (padded to at least `min_ticks`).
    """
    dt = config.dt
    params.validate(dt)
    ss_ticks = round(params.single_support_duration / dt)
    ds_ticks = round(params.double_support_duration / dt)
    n_c = 2
    feet = np.array(
        [[0.0, params.step_width / 2.0, 0.0], [0.0, -params.step_width / 2.0, 0.0]]
    )
    activity_cols = []
    ref_cols = []
    phases = []

    def emit(ticks, active, phase):
        for _ in range(ticks):
            activity_cols.append(active.copy())
            ref_cols.append(feet.copy())
        phases.append(phase)

    tick = 0
    emit(ds_ticks, np.ones(n_c), Phase(tick, tick + ds_ticks, PHASE_DOUBLE))
    tick += ds_ticks
    for step in range(params.number_of_steps):
        swing = step % 2  # left first
        start_pos = feet[swing].copy()
        target = start_pos + np.array([params.step_length, 0.0, 0.0])
        active = np.ones(n_c)
        active[swing] = 0.0
        phases.append(Phase(tick, tick + ss_ticks, PHASE_SINGLE, swing_foot=swing))
        for j in range(ss_ticks):
            # reference slides to the landing target across the swing; at the
            # first swing column it has already moved 1/ss_ticks of the step
            alpha = (j + 1) / ss_ticks
            feet[swing] = (1.0 - alpha) * start_pos + alpha * target
            activity_cols.append(active.copy())
            ref_cols.append(feet.copy())
        tick += ss_ticks
        feet[swing] = target
        emit(ds_ticks, np.ones(n_c), Phase(tick, tick + ds_ticks, PHASE_DOUBLE))
        tick += ds_ticks
    if tick < min_ticks:
        pad = min_ticks - tick
        emit(pad, np.ones(n_c), Phase(tick, tick + pad, PHASE_DOUBLE))
        tick += pad
    activity = np.array(activity_cols).T.astype(int)  # (n_c, T)
    refs = np.array(ref_cols).transpose(1, 0, 2)  # (n_c, T, 3)
    return GaitSchedule(dt=dt, activity=activity, footstep_refs=refs, phases=phases)


def generate_nominal_com_reference(schedule: GaitSchedule, params: GaitParameters) -> np.ndarray:
    """Per-tick CoM reference: piecewise-linear toward each phase's support midpoint."""
    ticks = schedule.ticks
    out = np.empty((ticks, 3))
    out[:, 2] = params.com_height
    feet0 = schedule.footstep_refs[:, 0, :]
    current = feet0[:, :2].mean(axis=0)
    for phase in schedule.phases:
        end_tick = min(phase.end, ticks) - 1
        if phase.kind == PHASE_DOUBLE:
            target = schedule.footstep_refs[:, end_tick, :2].mean(axis=0)
        else:
            stance = 1 - phase.swing_foot
            target = schedule.footstep_refs[stance, end_tick, :2]
        span = phase.end - phase.start
        for j, tick in enumerate(range(phase.start, min(phase.end, ticks))):
            alpha = (j + 1) / span
            out[tick, :2] = (1.0 - alpha) * current + alpha * target
        current = target.copy()
    return out


def payload_from_mass(
    mass: float, left_offset=DEFAULT_LEFT_GRIP, right_offset=DEFAULT_RIGHT_GRIP, gravity: float = GRAVITY
) -> PayloadDisturbance:
    """Downward payload of the given mass split evenly between the two grips.

    `gravity` is the magnitude (m/s^2) that weighs the load; pass the robot's
    `RobotConstants.gravity_vector[2]` so that load and robot share one field.

    The returned grip points are CoM-relative offsets; shift them by the
    current CoM position (`PayloadDisturbance.translated`) before applying.
    """
    if mass < 0:
        raise ConfigurationError(f"payload mass must be >= 0, got {mass}")
    half = np.array([0.0, 0.0, -mass * gravity / 2.0])
    return PayloadDisturbance(forces=[half, half], moments=np.zeros((2, 3)), points=[left_offset, right_offset])
