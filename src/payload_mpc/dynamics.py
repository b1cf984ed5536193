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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

GRAVITY = 9.81


def gravity_vector() -> np.ndarray:
    """Extended gravity direction (0, 0, g, 0, 0, 0); enters the momentum balance as -m * g_vec."""
    return np.array([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0])


def _vec(x, n: int, name: str, exact: bool = False) -> np.ndarray:
    """`x` as a finite (n,) float array; any n-element shape is reshaped unless `exact`."""
    try:
        arr = np.asarray(x, dtype=float)
        if exact and arr.shape != (n,):
            raise ValueError(f"got shape {arr.shape}")
        arr = arr.reshape(n)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{name} must be a {n}-vector: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite, got {arr}")
    return arr


# the six products of a cross product: a[_L] * b[_R] gives (a1 b2, a2 b0, a0 b1,
# a2 b1, a0 b2, a1 b0), and the first three minus the last three are the result
_L = np.array([1, 2, 0, 2, 0, 1])
_R = np.array([2, 0, 1, 1, 2, 0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the trailing axis of two arrays that broadcast.

    The same six multiplies and three subtractions as `np.cross`, as one
    gather-multiply and one subtraction, without its axis bookkeeping.
    `take` keeps the component axis last, so the products and the result
    are C-ordered in the broadcast shape (a fancy-index gather would put
    that axis outermost); an einsum or matmul over the result sums in an
    order that follows this layout.
    """
    p = a.take(_L, -1) * b.take(_R, -1)
    return p[..., :3] - p[..., 3:]


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
        object.__setattr__(self, "gravity_vector", _vec(self.gravity_vector, 6, "gravity_vector", exact=True))
        # the curvature metric squares the weight m g_z (Python floats overflow to inf)
        weight = float(self.mass) * float(self.gravity_vector[2])
        if not math.isfinite(weight * weight):
            raise ConfigurationError(f"weight mass * gravity_vector[2] must have a finite square, got {weight}")


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
        if not np.isfinite(feet).all():
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


def stage_constant(value, shape: tuple) -> np.ndarray:
    """`value` broadcast to `shape` as a C-contiguous, read-only float64 array of its own."""
    out = np.array(np.broadcast_to(value, shape), float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PayloadDisturbance:
    """External wrench pair from a carried load, applied at the two grip points.

    Rows are the grips, left then right: (2, 3) for one estimate, or (K, 2, 3)
    for that estimate held at each of K stages (`over`).  Every kernel takes
    either shape.  `force_sum` and `pivot_moment` (the moments plus points x
    forces, summed about the origin) are derived once, so the held form's
    (K, 3) sums meet the (K, 3) stage totals at their own shape.  Each array
    is read-only.
    """

    forces: np.ndarray  # (..., 2, 3) N
    moments: np.ndarray  # (..., 2, 3) N*m about the grip points
    points: np.ndarray  # (..., 2, 3) m
    force_sum: np.ndarray = field(init=False)  # (..., 3)
    pivot_moment: np.ndarray = field(init=False)  # (..., 3)

    def __post_init__(self):
        names = ("forces", "moments", "points")
        try:
            grips = [np.array(getattr(self, name), dtype=float) for name in names]
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"payload grips must be numeric arrays: {exc}") from exc
        for name, grip in zip(names, grips):
            if grip.shape[-2:] != (2, 3) or grip.shape != grips[0].shape:
                raise ConfigurationError(f"payload {name} must be (..., 2, 3) as the forces, got {grip.shape}")
            if not np.isfinite(grip).all():
                raise ConfigurationError(f"payload {name} must be finite")
            grip.flags.writeable = False
            object.__setattr__(self, name, grip)
        forces, moments, points = grips
        object.__setattr__(self, "force_sum", forces.sum(axis=-2))
        object.__setattr__(self, "pivot_moment", (moments + cross(points, forces)).sum(axis=-2))
        self.force_sum.flags.writeable = self.pivot_moment.flags.writeable = False

    @classmethod
    def zero(cls) -> "PayloadDisturbance":
        return cls(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))

    def translated(self, offset) -> "PayloadDisturbance":
        """Same wrenches with both grip points shifted by `offset`."""
        return PayloadDisturbance(self.forces, self.moments, self.points + _vec(offset, 3, "offset"))

    def over(self, steps: int) -> "PayloadDisturbance":
        """This one estimate held at each of `steps` stages, every array (steps, 2, 3).

        The held form's sums are the two-term sums of the same rows, so each
        of its (K, 3) rows is bitwise the (3,) sum of the one-estimate form.
        """
        grips = (self.forces, self.moments, self.points)
        return PayloadDisturbance(*(stage_constant(grip, (steps, 2, 3)) for grip in grips))


def _per_contact(x, n_c: int, width: int, name: str) -> np.ndarray:
    """`x` as a finite (n_c, width) array, one row per contact."""
    try:
        arr = np.asarray(x, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{name} must be an ({n_c}, {width}) array: {exc}") from exc
    if arr.shape != (n_c, width):
        raise ConfigurationError(f"{name} must be ({n_c}, {width}) for {n_c} contacts, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
            h_dot = h_dot + np.concatenate([wrench[:3], wrench[3:] + cross(position - com, wrench[:3])])
    for force, moment, point in zip(payload.forces, payload.moments, payload.points):
        h_dot = h_dot + np.concatenate([force, moment + cross(point - com, force)])
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
