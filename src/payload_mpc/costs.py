"""Cost tasks of the receding-horizon controller.

All tasks are weighted quadratic penalties evaluated on a rolled-out state
trajectory (flat state vectors, one row per stage) and the per-stage inputs.
The payload-attenuation task compares the commanded contact wrenches against
a feedforward target: the minimum-norm wrench distribution cancelling the
payload (via the pseudo-inverse of the stacked CoM transport maps) plus an
even share of the robot weight over the active contacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import parametrize_batch, rotate_wrenches
from .dynamics import PayloadDisturbance, RobotConstants
from .errors import ConfigurationError, InfeasiblePhaseError
from .shooting import PayloadArrays
from .shooting import cross as _cross


def _weight_matrix(value, n: int, name: str) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ConfigurationError(f"{name} must be finite")
    if mat.ndim == 0:
        mat = float(mat) * np.eye(n)
    elif mat.ndim == 1:
        mat = np.diag(mat.astype(float))
    if mat.shape != (n, n):
        raise ConfigurationError(f"{name} must be {n}x{n}, got {mat.shape}")
    if np.abs(mat - mat.T).max() > 1e-12:
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() < -1e-10:
        raise ConfigurationError(f"{name} must be positive semidefinite")
    return mat


@dataclass
class Weights:
    """Penalty matrices for the controller tasks.

    Defaults: angular momentum 100*I, CoM diag(1, 1, 1000), footsteps 200*I,
    payload attenuation diag(100, 100, 100, 10, 10, 10) per contact
    (strong on forces, softer on moments), parameter regularization 10*I,
    plus a small swing-velocity regularizer that keeps the swing inputs
    well conditioned.  The last two entries only matter for the
    explicitly-constrained baseline controller.
    """

    q_h: np.ndarray = field(default_factory=lambda: 100.0 * np.eye(3))
    q_c: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 1000.0]))
    q_pc: np.ndarray = field(default_factory=lambda: 200.0 * np.eye(3))
    q_d: np.ndarray = field(default_factory=lambda: np.diag([100.0, 100.0, 100.0, 10.0, 10.0, 10.0]))
    q_xi: np.ndarray = field(default_factory=lambda: 10.0 * np.eye(6))
    q_v: np.ndarray = field(default_factory=lambda: 0.01 * np.eye(3))
    # baseline-only: wrench similarity across feet in double support, and a
    # small magnitude regularizer that pins down otherwise-free swing wrenches
    q_force_similarity: np.ndarray = field(
        default_factory=lambda: np.diag([100.0, 100.0, 100.0, 10.0, 10.0, 10.0])
    )
    q_wrench_reg: np.ndarray = field(default_factory=lambda: 1e-3 * np.eye(6))

    def __post_init__(self):
        self.q_h = _weight_matrix(self.q_h, 3, "q_h")
        self.q_c = _weight_matrix(self.q_c, 3, "q_c")
        self.q_pc = _weight_matrix(self.q_pc, 3, "q_pc")
        self.q_d = _weight_matrix(self.q_d, 6, "q_d")
        self.q_xi = _weight_matrix(self.q_xi, 6, "q_xi")
        self.q_v = _weight_matrix(self.q_v, 3, "q_v")
        self.q_force_similarity = _weight_matrix(self.q_force_similarity, 6, "q_force_similarity")
        self.q_wrench_reg = _weight_matrix(self.q_wrench_reg, 6, "q_wrench_reg")

    def without_payload_task(self) -> "Weights":
        """Copy with the payload-attenuation weight zeroed (ablation)."""
        return Weights(
            q_h=self.q_h,
            q_c=self.q_c,
            q_pc=self.q_pc,
            q_d=np.zeros((6, 6)),
            q_xi=self.q_xi,
            q_v=self.q_v,
            q_force_similarity=self.q_force_similarity,
            q_wrench_reg=self.q_wrench_reg,
        )


def _quad(err: np.ndarray, weight: np.ndarray) -> float:
    # err rows are vectors; total 0.5 * sum_k err_k' W err_k
    flat = np.asarray(err, dtype=float).reshape(-1, weight.shape[0])
    return 0.5 * float(np.einsum("ki,ij,kj->", flat, weight, flat))


def split_states(states: np.ndarray, n_contacts: int):
    """Views into a (K, 9 + 3*n_c) stacked-state array: com, momentum, feet."""
    states = np.asarray(states, dtype=float)
    com = states[..., 0:3]
    momentum = states[..., 3:9]
    feet = states[..., 9:].reshape(states.shape[:-1] + (n_contacts, 3))
    return com, momentum, feet


def tracking_cost(states: np.ndarray, refs, weights: Weights, com_err: np.ndarray) -> float:
    """Angular-momentum damping plus CoM reference tracking, summed over stages.

    Linear momentum is deliberately left unpenalized; the CoM term shapes it
    indirectly.  `com_err` is the CoM minus its reference (K+1, 3).
    """
    n_c = refs.n_contacts
    com, momentum, _ = split_states(states, n_c)
    if com.shape[0] != refs.horizon + 1:
        raise ConfigurationError(
            f"trajectory has {com.shape[0]} stages, references expect {refs.horizon + 1}"
        )
    return _quad(momentum[:, 3:], weights.q_h) + _quad(com_err, weights.q_c)


def footstep_cost(feet_err: np.ndarray, weights: Weights) -> float:
    """Quadratic penalty on the feet minus their planned references (K+1, n_c, 3)."""
    return _quad(feet_err, weights.q_pc)


def parameter_regularization_cost(xi_traj: np.ndarray, weights: Weights) -> float:
    """Penalty pulling the wrench parameters toward the interior point at xi = 0."""
    return _quad(np.asarray(xi_traj, dtype=float), weights.q_xi)


def velocity_regularization_cost(velocities: np.ndarray, weights: Weights) -> float:
    return _quad(np.asarray(velocities, dtype=float), weights.q_v)


@dataclass(frozen=True)
class TargetConstants:
    """The parts of the payload targets that one problem never changes.

    They depend only on the contact activity and the robot, not on the
    states, so a problem builds them once and passes them to every
    `payload_compensation_targets` call.  Building them is where a stage with
    no active contact is rejected.
    """

    eye_scaled: np.ndarray  # (K, 3, 3) active contacts * I, the force block of M
    gravity_share: np.ndarray  # (K, 1, 3) even share of the robot weight per active contact

    @classmethod
    def build(cls, activity: np.ndarray, constants: RobotConstants) -> "TargetConstants":
        n_active = np.asarray(activity, dtype=float).sum(axis=1)
        if np.any(n_active < 1):
            raise InfeasiblePhaseError("payload attenuation needs at least one active contact per stage")
        return cls(
            eye_scaled=n_active[:, None, None] * np.eye(3),
            gravity_share=(constants.mass / n_active)[:, None, None] * constants.gravity_vector[None, None, :],
        )


def payload_compensation_targets(
    states: np.ndarray,
    activity: np.ndarray,
    payload: PayloadArrays,
    constants: RobotConstants,
    fixed: TargetConstants | None = None,
):
    """Per-stage, per-contact wrench targets cancelling the held payload.

    `fixed` is the problem's `TargetConstants` for this activity and robot,
    built here when not given.
    Returns (targets (K, n_c, 6), solve cache) where targets are only
    meaningful where `activity` is 1.  The cache carries the stacked transport
    products needed by the analytic gradient, among them the top block
    `z1 = c1 - r x c2` of the targets before the gravity share.
    """
    activity = np.asarray(activity, dtype=float)
    if fixed is None:
        fixed = TargetConstants.build(activity, constants)
    steps, n_c = activity.shape
    com, _, feet = split_states(states, n_c)
    com = com[:steps]
    feet = feet[:steps]

    r = feet - com[:, None, :]  # (K, n_c, 3) contact lever arms
    rx = _skew_batch(r)  # (K, n_c, 3, 3)
    # M = sum_i gamma_i * A_i A_i' with A_i = [[I, 0], [S(r_i), I]]
    m_mat = np.empty((steps, 6, 6))
    m_mat[:, :3, :3] = fixed.eye_scaled
    s_sum = np.einsum("ki,kiab->kab", activity, rx)
    m_mat[:, :3, 3:] = -s_sum  # S' = -S
    m_mat[:, 3:, :3] = s_sum
    m_mat[:, 3:, 3:] = np.einsum("ki,kiab,kicb->kac", activity, rx, rx) + fixed.eye_scaled

    # wrench of the payload about the current CoM, negated
    b = np.empty((steps, 6))
    b[:, :3] = -payload.force_sum
    b[:, 3:] = -(payload.pivot_moment - _cross(com, payload.force_sum))

    c = np.linalg.solve(m_mat, b[..., None])[..., 0]  # (K, 6)
    # A_i' c = (c1 - r_i x c2, c2)
    z1 = c[:, None, :3] - _cross(r, c[:, None, 3:])
    targets = np.empty((steps, n_c, 6))
    targets[..., :3] = z1
    targets[..., 3:] = c[:, None, 3:]
    targets = targets + fixed.gravity_share
    cache = {"m": m_mat, "c": c, "r": r, "z1": z1}
    return targets, cache


def payload_residual(wrenches: np.ndarray, targets: np.ndarray, stance: np.ndarray) -> np.ndarray:
    """Inertial wrenches (K, n_c, 6) minus their targets, zero where `stance` (activity[..., None]) is."""
    return (wrenches - targets) * stance


def payload_attenuation_from_residual(residual: np.ndarray, weights: Weights) -> float:
    """Payload-attenuation penalty of a `payload_residual`."""
    return _quad(residual, weights.q_d)


def payload_attenuation_cost(
    xi_traj: np.ndarray,
    states: np.ndarray,
    payload: PayloadDisturbance,
    gait: np.ndarray,
    orientations: np.ndarray,
    surfaces,
    constants: RobotConstants,
    weights: Weights,
) -> float:
    """Distance of the commanded wrenches from the payload-cancelling distribution.

    `xi_traj` is (K, n_c, 6); wrenches are mapped through the parametrization
    and rotated into the inertial frame before comparison.  The `payload`
    estimate is held over every stage.  Only active contacts contribute.
    """
    xi_traj = np.asarray(xi_traj, dtype=float)
    steps, n_c = xi_traj.shape[:2]
    activity = np.asarray(gait, dtype=float)[:, :steps].T  # (K, n_c)
    wrenches = wrenches_from_parameters(xi_traj, orientations, surfaces)
    targets, _ = payload_compensation_targets(states, activity, PayloadArrays.of(payload), constants)
    return payload_attenuation_from_residual(payload_residual(wrenches, targets, activity[..., None]), weights)


def wrenches_from_parameters(xi_traj: np.ndarray, orientations: np.ndarray, surfaces, factors=None) -> np.ndarray:
    """Map parameters (K, n_c, 6) to inertial-frame wrenches via the parametrization.

    One contact-map call covers every contact: `surfaces` holds one surface
    per contact, or is their stacked `contact.SurfaceConstants`.  `factors`
    are the `contact.ParametrizationFactors` of `xi_traj`, when known.
    """
    local = parametrize_batch(xi_traj, surfaces, factors)
    return rotate_wrenches(local, np.asarray(orientations, dtype=float).transpose(0, 2, 1))


# rows of [[0, -v2, v1], [v2, 0, -v0], [-v1, v0, 0]] as indices into (v, -v, 0)
_SKEW = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])


def _skew_batch(v: np.ndarray) -> np.ndarray:
    """Skew matrices for an (..., 3) array of vectors."""
    v = np.asarray(v, dtype=float)
    signed = np.concatenate([v, -v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
    # `take`, not `signed[..., _SKEW]`: that result is not C-ordered, and the
    # einsums over these matrices sum in an order that follows the layout
    return np.take(signed, _SKEW, axis=-1).reshape(v.shape + (3,))
