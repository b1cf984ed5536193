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
three.  So the rollout takes three in-place running sums over the stage
axis, with every increment computed for all stages at once: one over the
momentum and feet columns together (the angular block rides along as zeros),
then the CoM, then the angular momentum, whose increments overwrite the
zeros before its own scan.  Columns never mix in a scan, and accumulation is strictly
sequential (`x0 + d0`, then `+ d1`, ...), so the result is bitwise equal to
the stage-by-stage recursion, not merely close to it.

The adjoint's angular-momentum costate is a reverse running sum of its
seeds.  Every other block has the form `lam_k = (lam_{k+1} + s_k) + t_k`,
where the transport term `t_k` needs only costate blocks already scanned.
Scanning the interleaved sequence `s_K, s_{K-1}, t_{K-1}, ..., s_0, t_0`
performs exactly those additions in exactly that association, so this scan
too is bitwise equal to the backward loop; a block with no transport term
is padded with `-0.0`, the one value whose addition changes no bit.

`cross` (from `dynamics`, where the plant uses it too) is the one helper
every layer leans on, so it skips `np.cross`'s bookkeeping: one `take` of
each operand into the six factor pairs, one multiply and one subtraction,
the same six products and three differences as the component formulas.
Cross products that share an operand are taken in one call on the stacked
other operands: the gated forces and the lever arms with the angular
costate in the adjoint, the lever arms, the target top blocks and the grip
forces with `h2` in the payload seeds.  Every such product is elementwise,
so stacking changes no bit; an evaluated point and its gradient make nine
cross calls.

A `ShootingPoint` keeps everything one decision vector needs more than once:
its inputs, world wrenches and states, the gated forces that the rollout and
the adjoint share, the tracking and footstep errors that the cost and its
seeds share, the input factors, the payload task (its residual and its
targets' solve cache, in one field) and the evaluator's value.  `StageGates`
holds what a problem derives from its activity flags alone (the dt-scaled
stance and swing gates, m g), built once per problem instead of once per
rollout and adjoint.

An iteration's arrays are tiny, so a numpy function's Python wrapper can
cost as much as its kernel.  The hot path therefore calls kernels: `einsum`
and `linalg_solve` below, the scans as `np.add.accumulate(block, 0, None,
block)` in place, the reductions as `np.add.reduce`, `np.maximum.reduce`
and `np.logical_and.reduce` rather than the `ndarray` methods that reach
them through Python, and `ndarray.take` for gathers, each with its axis
positional.  Each gives its wrapper's result bitwise.  The gradient's state
seeds go into one buffer: every seed term, the payload task's and the
footstep bounds' included, is added into it in place.  Buffers that stack
two operands are filled by slice assignment or a ufunc's `out`, not
`np.concatenate`, whose Python dispatcher costs more than the copy.

The same holds for the operands of an elementwise call.  On a (10, 2, 6)
array a multiply costs 0.4-0.5 us when its operands are contiguous and of
one shape, and 1.0-1.7 us when one of them is a broadcast (K, n_c, 1) gate
or a strided column view; `np.tanh` costs 0.5-0.7 against 1.0-1.3 us
(`timeit`, one BLAS thread, a shared 2-vCPU x86-64 host).  So the fast path
feeds ufuncs contiguous operands of one shape.  What a problem holds
constant is built once, by `stage_constant`, at the width its kernels read
it: the gates below, the payload's sums, the payload targets' constants and
the contact map's surface rows.  Each is contiguous and read-only, and each
element is the value the broadcast gave, so every product is bitwise the
same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg import _umath_linalg

from .dynamics import PayloadDisturbance, RobotConstants, cross

# `np.einsum` without `optimize` hands its arguments straight to this kernel,
# after a dispatcher and a generator that cost about as much as the einsum.
# This module is the only one that imports numpy's private names (numpy 2.x
# layout; tests/test_numpy_kernels.py fails if a numpy release changes them).
einsum = c_einsum


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def linalg_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve` of float64 stacks a (..., M, M) and b (..., M, K), bitwise.

    The same gufunc under the same error policy (a singular matrix raises
    `np.linalg.LinAlgError`), without the wrapper's type and shape checks:
    the callers pass float64 arrays of these shapes.
    """
    return _umath_linalg.solve(a, b, signature="dd->d")


def stage_constant(value, shape: tuple) -> np.ndarray:
    """`value` broadcast to `shape` as a C-contiguous, read-only float64 array of its own."""
    out = np.array(np.broadcast_to(value, shape), float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PayloadArrays:
    """A payload's two grips as arrays: (2, 3) for one estimate, or (K, 2, 3) for one per stage.

    Every kernel takes either shape.  The problems hold one estimate over the
    whole horizon, built by `of` with the horizon's stage count, so that the
    (K, 3) sums meet the (K, 3) stage totals at their own shape.
    """

    forces: np.ndarray  # (..., 2, 3)
    moments: np.ndarray  # (..., 2, 3)
    points: np.ndarray  # (..., 2, 3)
    force_sum: np.ndarray = field(init=False)  # (..., 3)
    pivot_moment: np.ndarray = field(init=False)  # (..., 3) sum of moments + points x forces (about the origin)

    def __post_init__(self):
        object.__setattr__(self, "force_sum", self.forces.sum(axis=-2))
        object.__setattr__(self, "pivot_moment", (self.moments + cross(self.points, self.forces)).sum(axis=-2))
        self.force_sum.flags.writeable = self.pivot_moment.flags.writeable = False

    @classmethod
    def of(cls, estimate: PayloadDisturbance, steps: int | None = None) -> "PayloadArrays":
        """The (2, 3) arrays of one estimate or, given `steps`, that estimate held at each of K stages.

        The held form's sums are the two-term sums of the same rows, so each
        of its (K, 3) rows is bitwise the (3,) sum of the one-estimate form.
        """
        left, right = estimate.left_wrench, estimate.right_wrench
        grips = (
            np.array([left.force, right.force]),
            np.array([left.moment, right.moment]),
            np.array([estimate.left_point, estimate.right_point]),
        )
        if steps is not None:
            grips = tuple(stage_constant(grip, (steps, 2, 3)) for grip in grips)
        return cls(*grips)


@dataclass(frozen=True)
class StageGates:
    """What a problem's rollouts and adjoints derive from its contact activity alone.

    A problem builds these once (`of`) and passes them to every `rollout` and
    `rollout_adjoint` call.  Each is held at the width its readers use.
    """

    stance: np.ndarray  # (K, n_c, 6) activity flags
    stance_dt: np.ndarray  # (K, n_c, 3) dt * activity
    swing_dt: np.ndarray  # (K, n_c, 3) dt * (1 - activity)
    mg_force: np.ndarray  # (K, 3) mass * gravity_vector[:3] at every stage
    mg_moment: np.ndarray  # (K, 3) mass * gravity_vector[3:] at every stage
    dt_over_mass: float

    @classmethod
    def of(cls, activity: np.ndarray, constants: RobotConstants, dt: float) -> "StageGates":
        steps, n_c = activity.shape
        stance = activity[..., None]
        mg = constants.mass * constants.gravity_vector
        return cls(
            stance=stage_constant(stance, (steps, n_c, 6)),
            stance_dt=stage_constant(dt * stance, (steps, n_c, 3)),
            swing_dt=stage_constant(dt * (1.0 - activity)[..., None], (steps, n_c, 3)),
            mg_force=stage_constant(mg[:3], (steps, 3)),
            mg_moment=stage_constant(mg[3:], (steps, 3)),
            dt_over_mass=dt / constants.mass,
        )


def stage_forces(wrenches: np.ndarray, gates: StageGates, payload: PayloadArrays):
    """The gated wrenches (K, n_c, 6) and each stage's total force (K, 3), payload included."""
    gated = wrenches * gates.stance
    return gated, np.add.reduce(gated[:, :, :3], 1) + payload.force_sum


@dataclass
class ShootingPoint:
    """One evaluated decision vector, shared by a problem's value and gradient.

    `key` is the byte image of the decision vector.  The arrays derive from a
    private copy of it, so a caller that reuses its own buffer cannot make
    them stale.  Everything the value computes that the gradient needs again
    is kept: the gated forces of the rollout, the tracking and footstep
    errors, the input factors (the parametrization's tanh and exp, or the
    baseline's center-of-pressure factors), the payload task's residual and
    its targets' solve cache (filled on first use) and the evaluator's `(f, c)`.
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
    payload: tuple | None = None  # (residual (K, n_c, 6) active wrenches minus their targets, solve cache)
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
    # zeros: the angular block rides along in the first scan, then is
    # overwritten with its own increments and scanned again
    states = np.zeros((steps + 1, x0.size))
    states[0] = x0
    # linear momentum and feet: increments known up front, one scan for both
    states[1:, 3:6] = dt * (total_force - gates.mg_force)
    states[1:, 9:] = (gates.swing_dt * velocities).reshape(steps, n_c * 3)
    block = states[:, 3:]
    np.add.accumulate(block, 0, None, block)
    # CoM: driven by the momentum just accumulated
    states[1:, 0:3] = gates.dt_over_mass * states[:-1, 3:6]
    block = states[:, 0:3]
    np.add.accumulate(block, 0, None, block)
    # angular momentum: moments about the stage CoM, now known for every stage
    com = states[:-1, 0:3]
    feet = states[:-1, 9:].reshape(steps, n_c, 3)
    base_moment = np.add.reduce(gated[:, :, 3:], 1) + payload.pivot_moment
    moment = base_moment + np.add.reduce(cross(feet, gated_f), 1) - cross(com, total_force)
    states[1:, 6:9] = dt * (moment - gates.mg_moment)
    block = states[:, 6:9]
    np.add.accumulate(block, 0, None, block)
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
    # the gated forces and the lever arms meet the same costate: one cross for both
    f_r = np.empty((steps, 2 * n_c, 3))
    f_r[:, :n_c] = gated_f
    np.subtract(states[:-1, 9:].reshape(steps, n_c, 3), states[:-1, None, 0:3], f_r[:, n_c:])  # lever arms
    terms[:, 6:9] = -0.0  # the additive identity for every sign of zero
    block = backward[:, 6:9]
    np.add.accumulate(block, 0, None, block)
    terms[:, 0:3] = dt * cross(lam_hm, total_force)
    f_r_cross = cross(f_r, lam_hm[:, None, :])
    terms[:, 9:] = (dt * f_r_cross[:, :n_c]).reshape(steps, n_c * 3)
    block = backward[:, 0:3]
    np.add.accumulate(block, 0, None, block)
    block = backward[:, 9:]
    np.add.accumulate(block, 0, None, block)
    terms[:, 3:6] = gates.dt_over_mass * lam[1:, 0:3]
    block = backward[:, 3:6]
    np.add.accumulate(block, 0, None, block)
    # input gradients: transported wrench hits the momentum, velocity moves swing feet
    lam_next = lam[1:]
    gd = gates.stance_dt
    wrench_grads = np.empty((steps, n_c, 6))
    wrench_grads[:, :, :3] = gd * (lam_next[:, None, 3:6] - f_r_cross[:, n_c:])
    wrench_grads[:, :, 3:] = gd * lam_hm[:, None, :]
    velocity_grads = gates.swing_dt * lam_next[:, 9:].reshape(steps, n_c, 3)
    return wrench_grads, velocity_grads


def payload_cost_state_seeds(
    residual: np.ndarray,
    cache: dict,
    fixed,
    payload: PayloadArrays,
    q_d: np.ndarray,
    seeds: np.ndarray,
) -> np.ndarray:
    """Gradients of the payload-attenuation cost.

    `residual` is `costs.payload_residual` of the wrenches and their targets,
    `cache` the solve cache of `costs.payload_compensation_targets` at the
    same states and `fixed` the problem's `costs.TargetConstants`, whose
    position mask gates the contact-position gradients.  The residual's swing
    rows are ±0 already, so `residual @ q_d` needs no gate.  The state
    gradients are added into `seeds` (K+1, nx) in place; the direct wrench
    gradients (K, n_c, 6) are returned.  The state dependence runs through
    the pseudo-inverse wrench targets; the reverse-mode algebra
    differentiates the batched linear solves against the stacked transport
    maps directly.  Adding in place gives bitwise what adding a zero buffer
    of these terms would while `seeds` holds no -0.0 (x + 0.0 == x for every
    other x); a buffer that starts at +0.0 and is only added to never does.
    """
    steps, n_c = residual.shape[:2]
    v = residual @ q_d  # (K, n_c, 6), rows v_i = Q_d rho_i
    m_mat, c, r = cache["m"], cache["c"], cache["r"]
    # w = sum_i A_i v_i, h = M^{-1} w, all batched over stages
    w_vec = np.empty((steps, 6))
    np.add.reduce(v[:, :, :3], 1, None, w_vec[:, :3])
    np.add.reduce(v[:, :, 3:] + cross(r, v[:, :, :3]), 1, None, w_vec[:, 3:])
    h = linalg_solve(m_mat, w_vec[..., None])[..., 0]  # (K, 6)
    c2 = c[:, None, 3:]
    h1, h2 = h[:, None, :3], h[:, None, 3:]
    z1 = cache["z1"]  # (K, n_c, 3) top block of A_i' c
    # every cross with h2 in one call: lever arms, z1, then the grip forces,
    # stacked in place (the assignment broadcasts a one-estimate payload's (2, 3) forces)
    stacked = np.empty((steps, 2 * n_c + 2, 3))
    stacked[:, :n_c], stacked[:, n_c : 2 * n_c], stacked[:, 2 * n_c :] = r, z1, payload.forces
    by_h2 = cross(stacked, h2)
    # zeta1 = h1 - r x h2 and the force rows of v meet the same c2: one cross for both
    zeta1_v = np.empty((steps, 2 * n_c, 3))
    np.subtract(h1, by_h2[:, :n_c], zeta1_v[:, :n_c])
    zeta1_v[:, n_c:] = v[:, :, :3]
    by_c2 = cross(zeta1_v, c2)
    d_r = (-by_h2[:, n_c : 2 * n_c] - by_c2[:, :n_c] + by_c2[:, n_c:]) * fixed.position_mask
    d_q = -np.add.reduce(by_h2[:, 2 * n_c :], 1)  # (K, 3)
    seeds[:steps, 9:] -= d_r.reshape(steps, n_c * 3)
    seeds[:steps, 0:3] += np.add.reduce(d_r, 1) + d_q
    return v
