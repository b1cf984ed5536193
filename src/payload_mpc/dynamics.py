"""Reduced centroidal dynamics of a legged floating mass.

The state collects the CoM position, the stacked 6D momentum (linear first,
angular second, both in the inertial frame) and one position per contact
point.  Inputs are a 6D wrench per active contact, expressed in the inertial
frame about the contact point, plus a commanded linear velocity per inactive
(swing) contact.  A carried payload enters as an external wrench pair acting
at two grip points.

All types are immutable value data and every operation is a pure function,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

GRAVITY = 9.81


def gravity_vector() -> np.ndarray:
    """Extended gravity direction (0, 0, g, 0, 0, 0); enters the momentum balance as -m * g_vec."""
    return np.array([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0])


def _vec(x, n: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=float).reshape(n)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{name} must be a {n}-vector: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite, got {arr}")
    return arr


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix S(v) with S(v) @ u == np.cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def wrench_transport_map(application_point, com_position) -> np.ndarray:
    """6x6 map carrying a wrench applied at a point to an equivalent wrench about the CoM.

    Block form [[I, 0], [S(p - c), I]]: forces are preserved, moments pick up
    the lever-arm cross product.
    """
    p = _vec(application_point, 3, "application_point")
    c = _vec(com_position, 3, "com_position")
    out = np.eye(6)
    out[3:, :3] = skew(p - c)
    return out


@dataclass(frozen=True)
class Wrench:
    """6D contact wrench: force (N) and moment (N*m) about the application point."""

    force: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _vec(self.force, 3, "force"))
        object.__setattr__(self, "moment", _vec(self.moment, 3, "moment"))

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_array(cls, a) -> "Wrench":
        a = _vec(a, 6, "wrench")
        return cls(a[:3], a[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.moment])


@dataclass(frozen=True)
class RobotConstants:
    mass: float  # kg
    gravity_vector: np.ndarray = field(default_factory=gravity_vector)  # m/s^2, extended to 6D

    def __post_init__(self):
        # the curvature metric divides by 3 m^2, which underflows to zero below
        # about 1e-154 kg; no legged robot weighs under a gram
        if not (np.isfinite(self.mass) and self.mass >= 1e-3):
            raise ConfigurationError(f"mass must be finite and at least 1e-3 kg, got {self.mass}")
        object.__setattr__(self, "gravity_vector", _vec(self.gravity_vector, 6, "gravity_vector"))


@dataclass(frozen=True)
class CentroidalState:
    """MPC state: CoM position (m), 6D momentum (kg*m/s, kg*m^2/s), contact positions (m)."""

    com_position: np.ndarray
    momentum: np.ndarray
    contact_positions: np.ndarray  # (n_contacts, 3)

    def __post_init__(self):
        object.__setattr__(self, "com_position", _vec(self.com_position, 3, "com_position"))
        object.__setattr__(self, "momentum", _vec(self.momentum, 6, "momentum"))
        feet = np.asarray(self.contact_positions, dtype=float)
        if feet.ndim != 2 or feet.shape[1] != 3:
            raise ConfigurationError(f"contact_positions must be (n, 3), got shape {feet.shape}")
        if not np.all(np.isfinite(feet)):
            raise ConfigurationError("contact_positions must be finite")
        object.__setattr__(self, "contact_positions", feet)

    @property
    def n_contacts(self) -> int:
        return self.contact_positions.shape[0]

    @property
    def linear_momentum(self) -> np.ndarray:
        return self.momentum[:3]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.com_position, self.momentum, self.contact_positions.ravel()])


@dataclass(frozen=True)
class PayloadDisturbance:
    """External wrench pair from a carried load, applied at the two grip points."""

    left_wrench: Wrench
    right_wrench: Wrench
    left_point: np.ndarray
    right_point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "left_point", _vec(self.left_point, 3, "left_point"))
        object.__setattr__(self, "right_point", _vec(self.right_point, 3, "right_point"))

    @classmethod
    def zero(cls) -> "PayloadDisturbance":
        return cls(Wrench.zero(), Wrench.zero(), np.zeros(3), np.zeros(3))

    def total_force(self) -> np.ndarray:
        return self.left_wrench.force + self.right_wrench.force

    def translated(self, offset) -> "PayloadDisturbance":
        """Same wrenches with both grip points shifted by `offset`."""
        offset = _vec(offset, 3, "offset")
        return PayloadDisturbance(
            self.left_wrench, self.right_wrench, self.left_point + offset, self.right_point + offset
        )


def _per_contact(x, n_c: int, width: int, name: str) -> np.ndarray:
    """`x` as a finite (n_c, width) array, one row per contact."""
    try:
        arr = np.asarray(x, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{name} must be an ({n_c}, {width}) array: {exc}") from exc
    if arr.shape != (n_c, width):
        raise ConfigurationError(f"{name} must be ({n_c}, {width}) for {n_c} contacts, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite")
    return arr


def centroidal_dynamics(
    state: CentroidalState,
    active,
    wrenches,
    velocities,
    payload: PayloadDisturbance,
    constants: RobotConstants,
) -> CentroidalState:
    """Continuous-time state derivative.

    `active` holds one 0/1 stance flag per contact, `wrenches` one row
    (force, moment) per contact (n_c, 6) and `velocities` one commanded
    velocity per contact (n_c, 3).  CoM velocity is the linear momentum over
    the mass; the momentum rate sums the active contact wrenches and the
    payload wrenches transported to the CoM minus gravity, contact by contact
    in order; swing contacts move with their commanded velocity while active
    contacts stay put.

    Wrenches must already be expressed in the inertial frame about the contact
    points held in `state.contact_positions`.
    """
    n_c = len(active)
    if state.n_contacts != n_c:
        raise ConfigurationError(f"contact count mismatch: {n_c} flags, state has {state.n_contacts}")
    wrenches = _per_contact(wrenches, n_c, 6, "wrenches")
    velocities = _per_contact(velocities, n_c, 3, "contact velocities")
    com = state.com_position
    h_dot = -constants.mass * constants.gravity_vector
    for flag, wrench, position in zip(active, wrenches, state.contact_positions):
        if flag:
            h_dot = h_dot + np.concatenate([wrench[:3], wrench[3:] + np.cross(position - com, wrench[:3])])
    for grip_wrench, grip_point in (
        (payload.left_wrench, payload.left_point),
        (payload.right_wrench, payload.right_point),
    ):
        h_dot = h_dot + np.concatenate(
            [grip_wrench.force, grip_wrench.moment + np.cross(grip_point - com, grip_wrench.force)]
        )
    com_dot = state.linear_momentum / constants.mass
    feet_dot = (1.0 - np.asarray(active, dtype=float))[:, None] * velocities
    return CentroidalState(com_dot, h_dot, feet_dot)


def euler_step(
    state: CentroidalState,
    wrenches,
    velocities,
    payload: PayloadDisturbance,
    active,
    constants: RobotConstants,
    dt: float,
) -> CentroidalState:
    """One explicit Euler step of the centroidal dynamics; `active` as for `centroidal_dynamics`.

    Active contact positions are carried over unchanged (bitwise), matching
    the gated derivative exactly.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    deriv = centroidal_dynamics(state, active, wrenches, velocities, payload, constants)
    feet = np.where(
        np.asarray(active, dtype=bool)[:, None],
        state.contact_positions,
        state.contact_positions + dt * deriv.contact_positions,
    )
    return CentroidalState(
        state.com_position + dt * deriv.com_position,
        state.momentum + dt * deriv.momentum,
        feet,
    )
