"""Cost weights and the primitives of the receding-horizon controller's tasks.

Every task is a weighted quadratic penalty `quad(r, W)` of a residual of the
rolled-out state trajectory (flat state vectors, one row per stage) or of
the per-stage inputs; `mpc.ShootingProblem` lists the (residual, weight)
pairs.  The payload-attenuation residual compares the commanded contact
wrenches against a feedforward target: the minimum-norm wrench distribution
cancelling the payload (via the pseudo-inverse of the stacked CoM transport
maps) plus an even share of the robot weight over the active contacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import parametrize_batch  # noqa: F401  (mpc maps through it here, where perfbench/spans.py wraps it)
from .dynamics import RobotConstants
from .errors import ConfigurationError, InfeasiblePhaseError
from .shooting import PayloadArrays
from .shooting import cross as _cross
from .shooting import einsum as _einsum
from .shooting import linalg_solve as _linalg_solve
from .shooting import stage_constant


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
    # the solver's L-BFGS pair products are quadratic in the weights (Python floats overflow to inf)
    peak = float(np.abs(mat).max())
    if not math.isfinite(peak * peak):
        raise ConfigurationError(f"{name} entries must have finite squares, got largest magnitude {peak}")
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


def quad(r: np.ndarray, weight: np.ndarray) -> float:
    """0.5 * sum_k r_k' W r_k over the rows r_k of a residual (any leading shape)."""
    flat = np.asarray(r, dtype=float).reshape(-1, weight.shape[0])
    return 0.5 * float(_einsum("ki,ij,kj->", flat, weight, flat))


@dataclass(frozen=True)
class TargetConstants:
    """The parts of the payload targets that one problem never changes.

    They depend only on the contact activity and the robot, not on the
    states, so a problem builds them once and passes them to every
    `payload_compensation_targets` and `shooting.payload_cost_state_seeds`
    call.  Each is held at the shape its kernel reads (`shooting.stage_constant`).
    Building them is where a stage with no active contact is rejected.
    """

    eye_scaled: np.ndarray  # (K, 3, 3) active contacts * I, the force block of M
    gravity_share: np.ndarray  # (K, n_c, 6) even share of the robot weight per active contact
    position_mask: np.ndarray  # (K, n_c, 3) activity flags, the gate of the payload seeds' contact-position gradients

    @classmethod
    def build(cls, activity: np.ndarray, constants: RobotConstants) -> "TargetConstants":
        activity = np.asarray(activity, dtype=float)
        steps, n_c = activity.shape
        n_active = activity.sum(axis=1)
        if np.any(n_active < 1):
            raise InfeasiblePhaseError("payload attenuation needs at least one active contact per stage")
        share = (constants.mass / n_active)[:, None, None] * constants.gravity_vector[None, None, :]
        return cls(
            eye_scaled=n_active[:, None, None] * np.eye(3),
            gravity_share=stage_constant(share, (steps, n_c, 6)),
            position_mask=stage_constant(activity[..., None], (steps, n_c, 3)),
        )


def payload_compensation_targets(
    states: np.ndarray,
    activity: np.ndarray,
    payload: PayloadArrays,
    constants: RobotConstants,
    fixed: TargetConstants | None = None,
):
    """Per-stage, per-contact wrench targets cancelling the held payload.

    `states` holds the stacked states of at least the K stages (K+1, nx)
    and `fixed` is the problem's `TargetConstants` for this activity and
    robot, built here when not given.
    Returns (targets (K, n_c, 6), solve cache) where targets are only
    meaningful where `activity` is 1.  The cache carries the stacked transport
    products needed by the analytic gradient, among them the top block
    `z1 = c1 - r x c2` of the targets before the gravity share.
    """
    activity = np.asarray(activity, dtype=float)
    if fixed is None:
        fixed = TargetConstants.build(activity, constants)
    steps, n_c = activity.shape
    com = states[:steps, 0:3]
    feet = states[:steps, 9:].reshape(steps, n_c, 3)

    r = feet - com[:, None, :]  # (K, n_c, 3) contact lever arms
    rx = _skew_batch(r)  # (K, n_c, 3, 3)
    # M = sum_i gamma_i * A_i A_i' with A_i = [[I, 0], [S(r_i), I]]
    m_mat = np.empty((steps, 6, 6))
    m_mat[:, :3, :3] = fixed.eye_scaled
    s_sum = _einsum("ki,kiab->kab", activity, rx)
    m_mat[:, :3, 3:] = -s_sum  # S' = -S
    m_mat[:, 3:, :3] = s_sum
    m_mat[:, 3:, 3:] = _einsum("ki,kiab,kicb->kac", activity, rx, rx) + fixed.eye_scaled

    # wrench of the payload about the current CoM, negated
    b = np.empty((steps, 6))
    b[:, :3] = -payload.force_sum
    b[:, 3:] = -(payload.pivot_moment - _cross(com, payload.force_sum))

    c = _linalg_solve(m_mat, b[..., None])[..., 0]  # (K, 6)
    # A_i' c = (c1 - r_i x c2, c2)
    z1 = c[:, None, :3] - _cross(r, c[:, None, 3:])
    targets = np.empty((steps, n_c, 6))
    targets[..., :3] = z1
    targets[..., 3:] = c[:, None, 3:]
    targets += fixed.gravity_share
    cache = {"m": m_mat, "c": c, "r": r, "z1": z1}
    return targets, cache


def payload_residual(wrenches: np.ndarray, targets: np.ndarray, stance: np.ndarray) -> np.ndarray:
    """Inertial wrenches (K, n_c, 6) minus their targets, zero where `stance` (activity[..., None]) is."""
    return (wrenches - targets) * stance


# rows of [[0, -v2, v1], [v2, 0, -v0], [-v1, v0, 0]] as indices into (v, -v, 0)
_SKEW = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])


def _skew_batch(v: np.ndarray) -> np.ndarray:
    """Skew matrices for an (..., 3) array of vectors."""
    v = np.asarray(v, dtype=float)
    signed = np.empty(v.shape[:-1] + (7,))
    signed[..., :3] = v
    np.negative(v, signed[..., 3:6])
    signed[..., 6] = 0.0
    # `take`, not `signed[..., _SKEW]`: that result is not C-ordered, and the
    # einsums over these matrices sum in an order that follows the layout
    return signed.take(_SKEW, -1).reshape(v.shape + (3,))
