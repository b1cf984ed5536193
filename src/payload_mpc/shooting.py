"""Single-shooting rollout of the centroidal dynamics and its reverse-mode adjoint.

States are flat vectors (com 3, momentum 6, contact positions 3 per contact).
Inputs are per-stage inertial-frame wrenches (applied only where the contact
is active) and swing velocities (applied only where it is not).  The adjoint
runs the Euler recursion backwards and accumulates exact gradients with
respect to every input; stage-wise cost gradients enter as seeds on the
states, wrenches and velocities.

This is the optimizer's hot path, and it has no Python loop over stages.
The forward recursion is a chain of running sums: the feet move only by
gated swing velocities, linear momentum by the net force, the CoM by the
linear momentum, and the angular momentum by moments that need only those
three.  So the rollout takes three in-place cumsums over the stage axis,
with every increment computed for all stages at once: one over the momentum
and feet columns together (the angular block rides along as zeros), then the
CoM, then the angular momentum, whose increments overwrite the zeros before
its own scan.  Columns never mix in a scan, and accumulation is strictly
sequential (`x0 + d0`, then `+ d1`, ...), so the result is bitwise equal to
the stage-by-stage recursion, not merely close to it.

The adjoint's angular-momentum costate is a reverse running sum of its
seeds.  Every other block has the form `lam_k = (lam_{k+1} + s_k) + t_k`,
where the transport term `t_k` needs only costate blocks already scanned.
Scanning the interleaved sequence `s_K, s_{K-1}, t_{K-1}, ..., s_0, t_0`
performs exactly those additions in exactly that association, so this scan
too is bitwise equal to the backward loop; a block with no transport term
is padded with `-0.0`, the one value whose addition changes no bit.

`cross` is the one helper every layer leans on, so it skips `np.cross`'s
bookkeeping: one gather of each operand into the six factor pairs, one
multiply and one subtraction, the same six products and three differences
as the component formulas.  Cross products that share an operand are taken
in one call on the stacked other operands: the gated forces and the lever
arms with the angular costate in the adjoint, the lever arms, the target top
blocks and the grip forces with `h2` in the payload seeds.  Every such
product is elementwise, so stacking changes no bit; an evaluated point and
its gradient make nine cross calls.

A `ShootingPoint` keeps everything one decision vector needs more than once:
its inputs, world wrenches and states, the gated forces that the rollout and
the adjoint share, the tracking and footstep errors that the cost and its
seeds share, the input factors, the payload targets and residual, and the
evaluator's value.  `StageGates` holds what a problem derives from its
activity flags alone (the dt-scaled stance and swing gates, m g), built once
per problem instead of once per rollout and adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PayloadDisturbance, RobotConstants


# the six products of a cross product: a[_L] * b[_R] gives (a1 b2, a2 b0, a0 b1,
# a2 b1, a0 b2, a1 b0), and the first three minus the last three are the result
_L = np.array([1, 2, 0, 2, 0, 1])
_R = np.array([2, 0, 1, 1, 2, 0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the trailing axis of two arrays that broadcast.

    The same six multiplies and three subtractions as `np.cross`, as one
    gather-multiply and one subtraction, without its axis bookkeeping.  The
    result is not C-ordered (the gather puts the component axis outermost);
    elementwise use does not care, an einsum or matmul over it might.
    """
    p = a[..., _L] * b[..., _R]
    return p[..., :3] - p[..., 3:]


@dataclass(frozen=True)
class PayloadArrays:
    """A payload's two grips as arrays: (2, 3) for one estimate, or (K, 2, 3) for one per stage.

    The problems hold one estimate over the whole horizon (`of`), whose
    (2, 3) arrays and (3,) sums broadcast against every stage; every kernel
    takes either shape.
    """

    forces: np.ndarray  # (..., 2, 3)
    moments: np.ndarray  # (..., 2, 3)
    points: np.ndarray  # (..., 2, 3)
    force_sum: np.ndarray = field(init=False)  # (..., 3)
    pivot_moment: np.ndarray = field(init=False)  # (..., 3) sum of moments + points x forces (about the origin)

    def __post_init__(self):
        object.__setattr__(self, "force_sum", self.forces.sum(axis=-2))
        object.__setattr__(self, "pivot_moment", (self.moments + cross(self.points, self.forces)).sum(axis=-2))

    @classmethod
    def of(cls, estimate: PayloadDisturbance) -> "PayloadArrays":
        left, right = estimate.left_wrench, estimate.right_wrench
        return cls(
            forces=np.array([left.force, right.force]),
            moments=np.array([left.moment, right.moment]),
            points=np.array([estimate.left_point, estimate.right_point]),
        )


@dataclass(frozen=True)
class StageGates:
    """What a problem's rollouts and adjoints derive from its contact activity alone.

    A problem builds these once (`of`) and passes them to every `rollout` and
    `rollout_adjoint` call.
    """

    stance: np.ndarray  # (K, n_c, 1) activity flags
    stance_dt: np.ndarray  # (K, n_c, 1) dt * activity
    swing_dt: np.ndarray  # (K, n_c, 1) dt * (1 - activity)
    mg: np.ndarray  # (6,) mass * gravity_vector
    dt_over_mass: float

    @classmethod
    def of(cls, activity: np.ndarray, constants: RobotConstants, dt: float) -> "StageGates":
        stance = activity[..., None]
        return cls(
            stance=stance,
            stance_dt=dt * stance,
            swing_dt=dt * (1.0 - activity)[..., None],
            mg=constants.mass * constants.gravity_vector,
            dt_over_mass=dt / constants.mass,
        )


def stage_forces(wrenches: np.ndarray, gates: StageGates, payload: PayloadArrays):
    """The gated wrenches (K, n_c, 6) and each stage's total force (K, 3), payload included."""
    gated = wrenches * gates.stance
    return gated, gated[:, :, :3].sum(axis=1) + payload.force_sum


@dataclass
class ShootingPoint:
    """One evaluated decision vector, shared by a problem's value and gradient.

    `key` is the byte image of the decision vector.  The arrays derive from a
    private copy of it, so a caller that reuses its own buffer cannot make
    them stale.  Everything the value computes that the gradient needs again
    is kept: the gated forces of the rollout, the tracking and footstep
    errors, the input factors (the parametrization's tanh and exp, or the
    baseline's center-of-pressure factors), the payload targets and residual
    (filled on first use) and the evaluator's `(f, c)`.
    """

    key: bytes
    inputs: np.ndarray  # (K, n_c, 6) wrench parameters, or contact-frame wrenches
    velocities: np.ndarray  # (K, n_c, 3)
    wrenches: np.ndarray  # (K, n_c, 6) inertial frame
    states: np.ndarray  # (K+1, nx)
    forces: tuple  # stage_forces: (gated wrenches, total force)
    com_err: np.ndarray  # (K+1, 3) CoM minus its reference
    feet_err: np.ndarray  # (K+1, n_c, 3) feet minus their references
    factors: object = None  # what the subclass's `_input_factors` keeps of `inputs`
    payload_targets: tuple | None = None  # (targets, cache) of costs.payload_compensation_targets
    payload_residual: np.ndarray | None = None  # (K, n_c, 6) active wrenches minus their targets
    value: tuple | None = None  # (f, c) of the evaluator


def rollout(
    x0: np.ndarray,
    velocities: np.ndarray,  # (K, n_c, 3)
    payload: PayloadArrays,
    dt: float,
    gates: StageGates,
    forces: tuple,
) -> np.ndarray:
    """Forward Euler rollout; returns the (K+1, nx) state trajectory.

    `gates` are the `StageGates` of (activity, constants, dt) and `forces`
    the `stage_forces` of the inertial-frame wrenches (about the contact
    points) under those gates.
    """
    steps, n_c = velocities.shape[:2]
    gated, total_force = forces
    gated_f = gated[:, :, :3]
    mg = gates.mg
    # zeros: the angular block rides along in the first scan, then is
    # overwritten with its own increments and scanned again
    states = np.zeros((steps + 1, x0.size))
    states[0] = x0
    # linear momentum and feet: increments known up front, one scan for both
    states[1:, 3:6] = dt * (total_force - mg[:3])
    states[1:, 9:] = (gates.swing_dt * velocities).reshape(steps, n_c * 3)
    _scan(states, 3, None)
    # CoM: driven by the momentum just accumulated
    states[1:, 0:3] = gates.dt_over_mass * states[:-1, 3:6]
    _scan(states, 0, 3)
    # angular momentum: moments about the stage CoM, now known for every stage
    com = states[:-1, 0:3]
    feet = states[:-1, 9:].reshape(steps, n_c, 3)
    base_moment = gated[:, :, 3:].sum(axis=1) + payload.pivot_moment
    moment = base_moment + cross(feet, gated_f).sum(axis=1) - cross(com, total_force)
    states[1:, 6:9] = dt * (moment - mg[3:])
    _scan(states, 6, 9)
    return states


def rollout_adjoint(
    states: np.ndarray,
    dt: float,
    state_seeds: np.ndarray,  # (K+1, nx) stage-cost gradients w.r.t. the states
    gates: StageGates,
    forces: tuple,
):
    """Backward sweep; returns (wrench gradients (K, n_c, 6), velocity gradients (K, n_c, 3)).

    Only the dynamics path is accumulated here; direct input-cost gradients
    are the caller's business.  `gates` and `forces` as for `rollout`.
    """
    gated, total_force = forces
    steps, n_c = gated.shape[:2]
    gated_f = gated[:, :, :3]
    # interleaved scan buffer read backwards: s_K, s_{K-1}, t_{K-1}, ..., s_0,
    # t_0, so the costate of stage k ends up in row 2k
    chain = np.empty((2 * steps + 1, states.shape[1]))
    chain[1::2] = state_seeds[:steps]
    chain[-1] = state_seeds[steps]
    lam = chain[0::2]  # (K+1, nx) costates once scanned
    terms = chain[0:-1:2]  # (K, nx) transport terms t_k
    backward = chain[::-1]
    lam_hm = lam[1:, 6:9]  # angular-momentum costate of the next stage
    r = states[:-1, 9:].reshape(steps, n_c, 3) - states[:-1, None, 0:3]  # lever arms
    terms[:, 6:9] = -0.0  # the additive identity for every sign of zero
    _scan(backward, 6, 9)
    terms[:, 0:3] = dt * cross(lam_hm, total_force)
    # the gated forces and the lever arms meet the same costate: one cross for both
    f_r_cross = cross(np.concatenate([gated_f, r], axis=1), lam_hm[:, None, :])
    terms[:, 9:] = (dt * f_r_cross[:, :n_c]).reshape(steps, n_c * 3)
    _scan(backward, 0, 3)
    _scan(backward, 9, None)
    terms[:, 3:6] = gates.dt_over_mass * lam[1:, 0:3]
    _scan(backward, 3, 6)
    # input gradients: transported wrench hits the momentum, velocity moves swing feet
    lam_next = lam[1:]
    gd = gates.stance_dt
    wrench_grads = np.empty((steps, n_c, 6))
    wrench_grads[:, :, :3] = gd * (lam_next[:, None, 3:6] - f_r_cross[:, n_c:])
    wrench_grads[:, :, 3:] = gd * lam_hm[:, None, :]
    velocity_grads = gates.swing_dt * lam_next[:, 9:].reshape(steps, n_c, 3)
    return wrench_grads, velocity_grads


def _scan(rows: np.ndarray, start: int, stop) -> None:
    """Running sum down the rows of one column block, in place and in row order."""
    block = rows[:, start:stop]
    block.cumsum(axis=0, out=block)


def payload_cost_state_seeds(
    residual: np.ndarray,
    cache: dict,
    activity: np.ndarray,
    payload: PayloadArrays,
    q_d: np.ndarray,
):
    """Gradients of the payload-attenuation cost.

    `residual` is `costs.payload_residual` of the wrenches and their targets,
    `cache` the solve cache of `costs.payload_compensation_targets` at the
    same states.  Returns (state seeds (K+1, nx), direct wrench gradients
    (K, n_c, 6)).  The state dependence runs through the pseudo-inverse
    wrench targets; the reverse-mode algebra differentiates the batched
    linear solves against the stacked transport maps directly.
    """
    steps, n_c = activity.shape
    nx = 9 + 3 * n_c
    mask = activity[..., None]
    v = (residual @ q_d) * mask  # (K, n_c, 6), rows v_i = Q_d rho_i
    m_mat, c, r = cache["m"], cache["c"], cache["r"]
    # w = sum_i A_i v_i, h = M^{-1} w, all batched over stages
    w_vec = np.concatenate(
        [v[:, :, :3].sum(axis=1), (v[:, :, 3:] + cross(r, v[:, :, :3])).sum(axis=1)], axis=1
    )
    h = np.linalg.solve(m_mat, w_vec[..., None])[..., 0]  # (K, 6)
    c2 = c[:, None, 3:]
    h1, h2 = h[:, None, :3], h[:, None, 3:]
    z1 = cache["z1"]  # (K, n_c, 3) top block of A_i' c
    # every cross with h2 in one call: lever arms, z1, then the grip forces,
    # stacked in place (the assignment broadcasts a held payload's (2, 3) forces)
    stacked = np.empty((steps, 2 * n_c + 2, 3))
    stacked[:, :n_c], stacked[:, n_c : 2 * n_c], stacked[:, 2 * n_c :] = r, z1, payload.forces
    by_h2 = cross(stacked, h2)
    zeta1 = h1 - by_h2[:, :n_c]
    by_c2 = cross(np.concatenate([zeta1, v[:, :, :3]], axis=1), c2)
    d_r = (-by_h2[:, n_c : 2 * n_c] - by_c2[:, :n_c] + by_c2[:, n_c:]) * mask
    d_q = -by_h2[:, 2 * n_c :].sum(axis=1)  # (K, 3)
    seeds = np.zeros((steps + 1, nx))
    seeds[:steps, 9:] = -d_r.reshape(steps, n_c * 3)
    seeds[:steps, 0:3] = d_r.sum(axis=1) + d_q
    return seeds, v
