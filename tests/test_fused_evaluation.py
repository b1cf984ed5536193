"""The fused per-point evaluation against the per-contact code it replaced.

Both problems now evaluate every contact at once: the contact map and its
Jacobian take the surface constants stacked along the contact axis, the
parametrized problem keeps the map's tanh/exp factors for its gradient, the
frame rotations are one stacked matmul, and the payload targets reuse
per-problem constants.  The gradients add the payload and footstep-bound
state seeds into one buffer, and the curvature metric is array expressions.
The per-contact loops, the separate seed buffers and the metric's loops
they replaced are kept here as the oracle, and every test demands bitwise
equality (`tobytes()`), not a tolerance.  The random surfaces differ per
contact: no scenario exercises per-contact constants.  The baseline's
stability kernels now read component-major wrench rows against per-problem
constants held at full width; their draws include signed zeros and
schedules with no stance or no double support.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from payload_mpc import costs, shooting
from payload_mpc.baseline import STABILITY_RESIDUALS_PER_CONTACT, build_constrained_mpc
from payload_mpc.contact import (
    ContactSurface,
    SurfaceConstants,
    parametrization_factors,
    parametrization_jacobian_batch,
    parametrize_batch,
    rotate_wrenches,
)
from payload_mpc.costs import TargetConstants, Weights, payload_compensation_targets
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants
from payload_mpc.errors import InfeasiblePhaseError
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem

CONSTANTS = RobotConstants(mass=1.0)
seeds = st.integers(0, 2**32 - 1)


def random_surfaces(rng, n_c):
    return [
        ContactSurface(
            x_min=rng.uniform(-0.3, -0.01),
            x_max=rng.uniform(0.01, 0.4),
            y_min=rng.uniform(-0.1, -0.01),
            y_max=rng.uniform(0.01, 0.1),
            mu_c=rng.uniform(0.1, 1.0),
            mu_z=rng.uniform(0.01, 0.3),
            fz_min=rng.uniform(0.0, 1.0),
        )
        for _ in range(n_c)
    ]


def random_rotations(rng, n_c):
    q, r = np.linalg.qr(rng.normal(size=(n_c, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def random_xi(rng, shape, scale):
    xi = rng.normal(0.0, scale, shape)
    xi[..., 2] = np.clip(xi[..., 2], -50.0, 50.0)
    return xi


# -- the per-contact oracles ----------------------------------------------------


def reference_contact_map(xi, orientations, surfaces):
    out = np.empty_like(xi)
    for i in range(xi.shape[1]):
        local = parametrize_batch(xi[:, i, :], surfaces[i])
        rot = orientations[i]
        out[:, i, :3] = local[:, :3] @ rot.T
        out[:, i, 3:] = local[:, 3:] @ rot.T
    return out


def split_states(states, n_c):
    """Views of the CoM, the momentum and the feet (K+1, n_c, 3) of stacked states."""
    return states[:, 0:3], states[:, 3:9], states[:, 9:].reshape(states.shape[0], n_c, 3)


def reference_payload_seeds(residual, cache, activity, payload, q_d):
    """`shooting.payload_cost_state_seeds` as it was: the state seeds in a zero buffer of their own."""
    steps, n_c = activity.shape
    mask = activity[..., None]
    v = (residual @ q_d) * mask
    m_mat, c, r = cache["m"], cache["c"], cache["r"]
    w_vec = np.concatenate(
        [np.add.reduce(v[:, :, :3], axis=1), np.add.reduce(v[:, :, 3:] + shooting.cross(r, v[:, :, :3]), axis=1)],
        axis=1,
    )
    h = shooting.linalg_solve(m_mat, w_vec[..., None])[..., 0]
    c2 = c[:, None, 3:]
    h1, h2 = h[:, None, :3], h[:, None, 3:]
    stacked = np.empty((steps, 2 * n_c + 2, 3))
    stacked[:, :n_c], stacked[:, n_c : 2 * n_c], stacked[:, 2 * n_c :] = r, cache["z1"], payload.forces
    by_h2 = shooting.cross(stacked, h2)
    zeta1 = h1 - by_h2[:, :n_c]
    by_c2 = shooting.cross(np.concatenate([zeta1, v[:, :, :3]], axis=1), c2)
    d_r = (-by_h2[:, n_c : 2 * n_c] - by_c2[:, :n_c] + by_c2[:, n_c:]) * mask
    d_q = -np.add.reduce(by_h2[:, 2 * n_c :], axis=1)
    seeds = np.zeros((steps + 1, 9 + 3 * n_c))
    seeds[:steps, 9:] = -d_r.reshape(steps, n_c * 3)
    seeds[:steps, 0:3] = np.add.reduce(d_r, axis=1) + d_q
    return seeds, v


def reference_bound_seeds(problem, point, s):
    """`ShootingProblem._bound_state_seeds` as it was: a zero buffer of its own."""
    steps, n_c = problem.horizon, problem.n_contacts
    seeds = np.zeros(point.states.shape)
    rots = problem.refs.contact_orientations
    sw = s.reshape(steps, n_c, 6)
    delta = sw[..., :3] - sw[..., 3:]
    seeds[1:, 9:] = shooting.einsum("iab,kib->kia", rots, delta).reshape(steps, n_c * 3)
    return seeds


def reference_adjoint(problem, states, wrenches, seeds):
    """`shooting.rollout_adjoint` on gates and forces built afresh from the problem's activity."""
    gates = shooting.StageGates.of(problem.activity, problem.constants, problem.config.dt)
    forces = shooting.stage_forces(wrenches, gates, problem._payload)
    return shooting.rollout_adjoint(states, problem.config.dt, seeds, gates, forces)


def reference_mpc_gradient(problem, z, constraint_weights):
    """`HorizonProblem.gradient` with its former loop: one rotation and one Jacobian per contact."""
    point = problem._point(z)
    xi, vel, wrenches, states = point.inputs, point.velocities, point.wrenches, point.states
    steps, n_c = problem.horizon, problem.n_contacts
    weights, refs = problem.weights, problem.refs
    seeds = np.zeros((steps + 1, states.shape[1]))
    com, momentum, feet = split_states(states, n_c)
    seeds[:, 0:3] += (com - refs.com_refs) @ weights.q_c
    seeds[:, 6:9] += momentum[:, 3:] @ weights.q_h
    feet_err = feet - refs.footstep_refs.transpose(1, 0, 2)
    seeds[:, 9:] += (feet_err @ weights.q_pc).reshape(steps + 1, n_c * 3)
    wrench_direct = np.zeros((steps, n_c, 6))
    if problem.use_payload_task:
        targets, cache = payload_compensation_targets(states, problem.activity, problem._payload, problem.constants)
        residual = costs.payload_residual(wrenches, targets, problem.activity[..., None])
        payload_seeds, wrench_direct = reference_payload_seeds(
            residual, cache, problem.activity, problem._payload, weights.q_d
        )
        seeds += payload_seeds
    seeds += reference_bound_seeds(problem, point, constraint_weights)
    wrench_adj, vel_adj = reference_adjoint(problem, states, wrenches, seeds)
    wrench_total = wrench_adj + wrench_direct
    xi_grad = np.empty_like(xi)
    for i in range(n_c):
        rot = refs.contact_orientations[i]
        local = np.empty((steps, 6))
        local[:, :3] = wrench_total[:, i, :3] @ rot
        local[:, 3:] = wrench_total[:, i, 3:] @ rot
        jac = parametrization_jacobian_batch(xi[:, i, :], problem.surfaces[i])
        xi_grad[:, i, :] = np.einsum("kab,ka->kb", jac, local)
    xi_grad += xi @ weights.q_xi
    return problem.encode(xi_grad, vel_adj + vel @ weights.q_v)


def reference_wrenches_world(problem, wrenches):
    out = np.empty_like(wrenches)
    for i in range(problem.n_contacts):
        rot = problem.refs.contact_orientations[i]
        out[:, i, :3] = wrenches[:, i, :3] @ rot.T
        out[:, i, 3:] = wrenches[:, i, 3:] @ rot.T
    return out


def reference_stability_residuals(problem, wrenches):
    res = np.empty((problem.horizon, problem.n_contacts, STABILITY_RESIDUALS_PER_CONTACT))
    for i in range(problem.n_contacts):
        s = problem.surfaces[i]
        w = wrenches[:, i, :]
        fx, fy, fz = w[:, 0], w[:, 1], w[:, 2]
        mx, my, mz = w[:, 3], w[:, 4], w[:, 5]
        res[:, i, 0] = fz - s.fz_min
        res[:, i, 1] = (s.mu_c * fz) ** 2 - fx**2 - fy**2
        res[:, i, 2] = (s.y_max * fz - mx) * (mx - s.y_min * fz)
        res[:, i, 3] = (s.x_max * fz + my) * (-my - s.x_min * fz)
        res[:, i, 4] = (s.mu_z * fz) ** 2 - mz**2
    res[problem.activity < 0.5] = 1.0
    return res.reshape(-1)


def reference_stability_gradient(problem, wrenches, s_weights):
    grads = np.zeros_like(wrenches)
    sw = s_weights.reshape(problem.horizon, problem.n_contacts, STABILITY_RESIDUALS_PER_CONTACT)
    for i in range(problem.n_contacts):
        s = problem.surfaces[i]
        w = wrenches[:, i, :]
        fx, fy, fz = w[:, 0], w[:, 1], w[:, 2]
        mx, my, mz = w[:, 3], w[:, 4], w[:, 5]
        g = np.zeros((problem.horizon, 6))
        g[:, 2] += sw[:, i, 0]
        g[:, 0] += sw[:, i, 1] * (-2.0 * fx)
        g[:, 1] += sw[:, i, 1] * (-2.0 * fy)
        g[:, 2] += sw[:, i, 1] * (2.0 * s.mu_c**2 * fz)
        a = s.y_max * fz - mx
        b = mx - s.y_min * fz
        g[:, 2] += sw[:, i, 2] * (s.y_max * b - s.y_min * a)
        g[:, 3] += sw[:, i, 2] * (a - b)
        a = s.x_max * fz + my
        b = -my - s.x_min * fz
        g[:, 2] += sw[:, i, 3] * (s.x_max * b - s.x_min * a)
        g[:, 4] += sw[:, i, 3] * (b - a)
        g[:, 2] += sw[:, i, 4] * (2.0 * s.mu_z**2 * fz)
        g[:, 5] += sw[:, i, 4] * (-2.0 * mz)
        grads[:, i, :] = g * problem.activity[:, i][:, None]
    return grads


def reference_baseline_gradient(problem, z, constraint_weights):
    """`BaselineProblem.gradient` with its former per-contact loops."""
    point = problem._point(z)
    wrenches, vel, states = point.inputs, point.velocities, point.states
    steps, n_c = problem.horizon, problem.n_contacts
    weights, refs = problem.weights, problem.refs
    seeds = np.zeros_like(states)
    com, momentum, feet = split_states(states, n_c)
    seeds[:, 0:3] += (com - refs.com_refs) @ weights.q_c
    seeds[:, 6:9] += momentum[:, 3:] @ weights.q_h
    feet_err = feet - refs.footstep_refs.transpose(1, 0, 2)
    seeds[:, 9:] += (feet_err @ weights.q_pc).reshape(steps + 1, n_c * 3)
    wrench_direct = np.zeros((steps, n_c, 6))
    wrench_direct += wrenches @ weights.q_wrench_reg
    both = problem._both_active
    if both.any():
        diff = (wrenches[both, 0, :] - wrenches[both, 1, :]) @ weights.q_force_similarity
        wrench_direct[both, 0, :] += diff
        wrench_direct[both, 1, :] -= diff
    seeds += reference_bound_seeds(problem, point, constraint_weights[: problem.num_bound_constraints])
    wrench_direct += reference_stability_gradient(
        problem, wrenches, constraint_weights[problem.num_bound_constraints :]
    )
    wrench_adj, vel_adj = reference_adjoint(problem, states, point.wrenches, seeds)
    wrench_grad = np.empty_like(wrenches)
    for i in range(n_c):
        rot = refs.contact_orientations[i]
        wrench_grad[:, i, :3] = wrench_adj[:, i, :3] @ rot
        wrench_grad[:, i, 3:] = wrench_adj[:, i, 3:] @ rot
    wrench_grad += wrench_direct
    return problem.encode(wrench_grad, vel_adj + vel @ weights.q_v)


def reference_targets(states, activity, payload, constants):
    """`costs.payload_compensation_targets` as it was, every part computed per call."""
    steps, n_c = activity.shape
    com, _, feet = split_states(states, n_c)
    com = com[:steps]
    feet = feet[:steps]
    n_active = activity.sum(axis=1)
    r = feet - com[:, None, :]
    rx = costs._skew_batch(r)
    eye_scaled = n_active[:, None, None] * np.eye(3)
    m_mat = np.empty((steps, 6, 6))
    m_mat[:, :3, :3] = eye_scaled
    s_sum = np.einsum("ki,kiab->kab", activity, rx)
    m_mat[:, :3, 3:] = -s_sum
    m_mat[:, 3:, :3] = s_sum
    m_mat[:, 3:, 3:] = np.einsum("ki,kiab,kicb->kac", activity, rx, rx) + eye_scaled
    b = np.empty((steps, 6))
    b[:, :3] = -payload.force_sum
    b[:, 3:] = -(payload.pivot_moment - shooting.cross(com, payload.force_sum))
    c = np.linalg.solve(m_mat, b[..., None])[..., 0]
    targets = np.empty((steps, n_c, 6))
    targets[..., :3] = c[:, None, :3] - shooting.cross(r, c[:, None, 3:])
    targets[..., 3:] = c[:, None, 3:]
    gravity_share = (constants.mass / n_active)[:, None, None] * constants.gravity_vector[None, None, :]
    return targets + gravity_share, {"m": m_mat, "c": c, "r": r}


def reference_input_curvature(problem, curvature, momentum, com):
    """Both problems' `_input_curvature` as they were: one Python loop over stages and contacts."""
    w = problem.weights
    if problem.parametrized:
        weight = float(problem._gates.mg_force[0, 2])
        qd_f = float(np.diag(w.q_d)[:3].mean())
        qd_m = float(np.diag(w.q_d)[3:].mean())
        q_xi_d = np.diag(w.q_xi)
        s = SurfaceConstants.of(problem.surfaces)
        for k in range(problem.horizon):
            n_active = max(problem.activity[k].sum(), 1.0)
            share = weight / n_active
            curv_force = qd_f + momentum[k] + com[k]
            curv_moment = qd_m + momentum[k]
            for i in range(problem.n_contacts):
                gamma = problem.activity[k, i]
                c = curvature[k, i]
                c[0] = q_xi_d[0] + gamma * curv_force * (s.mu_c[i] * share) ** 2
                c[1] = q_xi_d[1] + gamma * curv_force * (s.mu_c[i] * share) ** 2
                c[2] = q_xi_d[2] + gamma * curv_force * share**2
                c[3] = q_xi_d[3] + gamma * curv_moment * (s.delta_y[i] * share) ** 2
                c[4] = q_xi_d[4] + gamma * curv_moment * (s.delta_x[i] * share) ** 2
                c[5] = q_xi_d[5] + gamma * curv_moment * (s.mu_z[i] * share) ** 2
        return
    q_wreg = np.diag(w.q_wrench_reg)
    q_sim = np.diag(w.q_force_similarity)
    for k in range(problem.horizon):
        curv_force = momentum[k] + com[k]
        similarity = q_sim if problem._both_active[k] else 0.0 * q_sim
        for i in range(problem.n_contacts):
            gamma = problem.activity[k, i]
            c = curvature[k, i]
            c[:3] = q_wreg[:3] + similarity[:3] + gamma * curv_force
            c[3:6] = q_wreg[3:] + similarity[3:] + gamma * momentum[k]


def reference_metric(problem):
    """`ShootingProblem.curvature_metric` as it was: Python floats and loops over stages and contacts."""
    steps, n_c = problem.horizon, problem.n_contacts
    dt = problem.config.dt
    mass = problem.constants.mass
    weight = float(problem._gates.mg_force[0, 2])
    w = problem.weights
    q_h_m = float(np.diag(w.q_h).mean())
    q_c_max = float(np.diag(w.q_c).max())
    q_pc_m = float(np.diag(w.q_pc).mean())
    q_v_d = np.diag(w.q_v)
    momentum = [q_h_m * dt * dt * (steps - k) for k in range(steps)]
    com = [q_c_max * dt**4 * (steps - k) ** 3 / (3.0 * mass * mass) for k in range(steps)]
    curvature = np.empty((steps, n_c, 9))
    reference_input_curvature(problem, curvature, momentum, com)
    for k in range(steps):
        remaining = steps - k
        for i in range(n_c):
            gamma = problem.activity[k, i]
            landed_after = int(problem.activity[k + 1 :, i].sum()) if gamma < 0.5 else 0
            lever = q_h_m * dt**4 * weight**2 * landed_after**3 / 3.0
            curvature[k, i, 6:] = q_v_d + (1.0 - gamma) * (q_pc_m * dt * dt * remaining + lever)
    metric = np.empty((steps, n_c * 9))
    metric[:, : n_c * 6] = (1.0 / curvature[:, :, :6]).reshape(steps, n_c * 6)
    metric[:, n_c * 6 :] = (1.0 / curvature[:, :, 6:]).reshape(steps, n_c * 3)
    return metric.reshape(problem.dim)


# -- problems with a different surface and frame per contact ---------------------


def make_problem(builder, seed, n_c=2, payload=True, gait=None):
    rng = np.random.default_rng(seed)
    feet = np.column_stack([rng.normal(0, 0.05, n_c), np.linspace(0.1, -0.1, n_c), np.zeros(n_c)])
    if gait is None:
        gait = np.ones((n_c, 11), dtype=int)
        if n_c > 1:
            gait[0, 3:7] = 0  # a swing phase; the other contacts stay active
    state = CentroidalState(np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.2, 6), feet)
    refs = HorizonReferences(
        np.tile([0.05, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
        np.tile(feet[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (n_c, 11, 3)),
        gait,
        random_rotations(rng, n_c),
    )
    if payload:
        grips = rng.normal(0, 2, (2, 6))  # left then right: force, moment
        estimate = PayloadDisturbance(grips[:, :3], grips[:, 3:], state.com_position + rng.normal(0, 0.2, (2, 3)))
    else:
        estimate = PayloadDisturbance.zero()
    return builder(state, refs, estimate, Weights(), MpcConfig(), CONSTANTS, random_surfaces(rng, n_c))


# -- tests -------------------------------------------------------------------------


# The oracle needs two stages or more: numpy multiplies a one-row matrix by a
# matrix on its vector-matrix path, which rounds differently from the
# matrix-matrix one.  The stacked product always takes the latter, so the
# stage-0 wrench a problem applies is bitwise the one its solver evaluated.
@given(seed=seeds, steps=st.integers(2, 12), n_c=st.integers(1, 3), scale=st.sampled_from([0.1, 1.0, 5.0]))
@settings(max_examples=200, deadline=None)
def test_contact_map_bitwise_equals_per_contact_map(seed, steps, n_c, scale):
    rng = np.random.default_rng(seed)
    surfaces = random_surfaces(rng, n_c)
    rotations = random_rotations(rng, n_c)
    xi = random_xi(rng, (steps, n_c, 6), scale)
    want = reference_contact_map(xi, rotations, surfaces)
    to_world = rotations.transpose(0, 2, 1)  # as a problem keeps them

    def stacked_map(xi, surfaces):
        return rotate_wrenches(parametrize_batch(xi, surfaces), to_world)

    assert stacked_map(xi, surfaces).tobytes() == want.tobytes()
    # a problem's stacked record and kept factors give the same map
    stacked = SurfaceConstants.of(surfaces)
    assert stacked_map(xi, stacked).tobytes() == want.tobytes()
    kept = parametrize_batch(xi, stacked, parametrization_factors(xi, stacked))
    assert kept.tobytes() == parametrize_batch(xi, stacked).tobytes()
    # and so does the map of the first stage alone
    assert stacked_map(xi[:1], surfaces).tobytes() == want[:1].tobytes()


@given(seed=seeds, steps=st.integers(1, 12), n_c=st.integers(1, 3), scale=st.sampled_from([0.1, 1.0, 5.0]))
@settings(max_examples=200, deadline=None)
def test_stacked_jacobian_bitwise_equals_per_contact_jacobian(seed, steps, n_c, scale):
    rng = np.random.default_rng(seed)
    surfaces = random_surfaces(rng, n_c)
    xi = random_xi(rng, (steps, n_c, 6), scale)
    stacked = SurfaceConstants.of(surfaces)
    got = parametrization_jacobian_batch(xi, stacked, parametrization_factors(xi, stacked))
    for i in range(n_c):
        assert got[:, i].tobytes() == parametrization_jacobian_batch(xi[:, i], surfaces[i]).tobytes()


@given(seed=seeds, n_c=st.integers(1, 3), payload=st.booleans())
@settings(max_examples=60, deadline=None)
def test_mpc_gradient_bitwise_equals_per_contact_loop(seed, n_c, payload):
    problem = make_problem(build_mpc_problem, seed, n_c, payload)
    rng = np.random.default_rng(seed + 1)
    z = problem.initial_warm_start() + rng.normal(0, 0.3, problem.dim)
    weights = rng.uniform(0, 3, problem.num_constraints)
    want = reference_mpc_gradient(problem, z, weights)
    assert problem.gradient(z, weights).tobytes() == want.tobytes()


@given(seed=seeds, n_c=st.integers(1, 3))
# a surface whose 2 mu_c^2 differs in the last bit between multiplying and
# the C library's `pow` (the oracle's scalar `mu ** 2`)
@example(seed=1820149, n_c=1)
@settings(max_examples=60, deadline=None)
def test_baseline_rotations_and_residuals_bitwise_equal_per_contact_loops(seed, n_c):
    problem = make_problem(build_constrained_mpc, seed, n_c)
    rng = np.random.default_rng(seed + 1)
    z = problem.initial_warm_start() + rng.normal(0, 0.5, problem.dim)
    weights = rng.uniform(0, 3, problem.num_constraints)
    wrenches, _ = problem.decode(z)
    # contact frame -> inertial frame
    factors = problem._input_factors(wrenches)
    assert problem._wrenches_world(wrenches, factors).tobytes() == reference_wrenches_world(problem, wrenches).tobytes()
    residuals = problem.stability_residuals(factors)
    assert residuals.tobytes() == reference_stability_residuals(problem, wrenches).tobytes()
    # inertial-frame gradient -> contact frame, with the stability terms
    want = reference_baseline_gradient(problem, z, weights)
    assert problem.gradient(z, weights).tobytes() == want.tobytes()


def with_signed_zeros(rng, values, share):
    """`values` with about `share` of its entries replaced by +0.0 or -0.0, half each."""
    zeros = rng.random(values.shape) < share
    values[zeros] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[zeros]
    return values


def schedule(kind, n_c, rng):
    """An (n_c, 11) gait: a swing phase, every contact in swing, one contact in stance, or random."""
    if kind == "swing-phase":
        return None  # `make_problem`'s own
    if kind == "all-swing":
        return np.zeros((n_c, 11), dtype=int)
    if kind == "one-in-stance":  # never double support
        gait = np.zeros((n_c, 11), dtype=int)
        gait[rng.integers(0, n_c, 11), np.arange(11)] = 1
        return gait
    return rng.integers(0, 2, (n_c, 11))


@given(
    seed=seeds,
    n_c=st.integers(1, 3),
    kind=st.sampled_from(["swing-phase", "all-swing", "one-in-stance", "random"]),
    share=st.sampled_from([1.0 / 3.0, 0.9]),
)
@settings(max_examples=100, deadline=None)
def test_baseline_kernels_bitwise_equal_per_contact_loops_with_signed_zeros(seed, n_c, kind, share):
    """The component-major stability kernels on wrenches and weights with ±0.0 entries, on any schedule.

    With most entries zero, a stability gradient entry can be a sum of zeros
    only, whose sign the oracle's `zeros` start fixes.
    """
    rng = np.random.default_rng(seed + 2)
    problem = make_problem(build_constrained_mpc, seed, n_c, gait=schedule(kind, n_c, rng))
    z = with_signed_zeros(rng, problem.initial_warm_start() + rng.normal(0, 0.5, problem.dim), share)
    weights = with_signed_zeros(rng, rng.uniform(0, 3, problem.num_constraints), share)
    n_bounds = problem.num_bound_constraints
    wrenches, _ = problem.decode(z)
    factors = problem._input_factors(wrenches)
    residuals = problem.stability_residuals(factors)
    assert residuals.tobytes() == reference_stability_residuals(problem, wrenches).tobytes()
    got = problem._stability_gradient(factors, weights[n_bounds:])
    assert got.tobytes() == reference_stability_gradient(problem, wrenches, weights[n_bounds:]).tobytes()
    assert problem.gradient(z, weights).tobytes() == reference_baseline_gradient(problem, z, weights).tobytes()


def reference_baseline_breakdown(problem, z):
    """`BaselineProblem.cost_breakdown` as summed on a schedule with no double-support stage: no similarity term."""
    wrenches, vel = problem.decode(z)
    com, momentum, feet = split_states(problem.rollout(z), problem.n_contacts)
    w, refs = problem.weights, problem.refs
    parts = {
        "tracking": 0.0 + costs.quad(momentum[:, 3:], w.q_h) + costs.quad(com - refs.com_refs, w.q_c),
        "footsteps": 0.0 + costs.quad(feet - refs.footstep_refs.transpose(1, 0, 2), w.q_pc),
        "input_reg": 0.0 + costs.quad(vel, w.q_v) + costs.quad(wrenches, w.q_wrench_reg),
    }
    parts["total"] = sum(parts.values())
    return parts


@given(seed=seeds, n_c=st.integers(1, 3), kind=st.sampled_from(["all-swing", "one-in-stance"]))
@settings(max_examples=40, deadline=None)
def test_baseline_breakdown_without_double_support_bitwise_equals_a_sum_without_similarity(seed, n_c, kind):
    """With no double-support stage the similarity is an empty block, whose 0.0 changes no group's sum."""
    rng = np.random.default_rng(seed + 3)
    problem = make_problem(build_constrained_mpc, seed, n_c, gait=schedule(kind, n_c, rng))
    assert not problem._both_active.any()
    z = problem.initial_warm_start() + rng.normal(0, 0.5, problem.dim)
    got, want = problem.cost_breakdown(z), reference_baseline_breakdown(problem, z)
    assert list(got) == list(want)
    assert [np.float64(v).tobytes() for v in got.values()] == [np.float64(v).tobytes() for v in want.values()]


def assert_held(array, former):
    """`array` is a contiguous, read-only float64 array of its own, bitwise `np.broadcast_to(former, its shape)`."""
    assert array.dtype == np.float64 and array.flags.c_contiguous and not array.flags.writeable
    assert array.tobytes() == np.broadcast_to(former, array.shape).tobytes()


@given(seed=seeds, n_c=st.integers(1, 3), builder=st.sampled_from([build_mpc_problem, build_constrained_mpc]))
@settings(max_examples=30, deadline=None)
def test_per_problem_constants_are_read_only_broadcasts_of_the_former_gates(seed, n_c, builder):
    problem = make_problem(builder, seed, n_c)
    steps, activity, dt = problem.horizon, problem.activity, problem.config.dt
    constants = problem.constants
    gates = problem._gates
    mg = constants.mass * constants.gravity_vector
    assert_held(gates.stance, activity[..., None])
    assert gates.stance.shape == (steps, n_c, 6)
    assert_held(gates.stance_dt, dt * activity[..., None])
    assert_held(gates.swing_dt, dt * (1.0 - activity)[..., None])
    assert gates.stance_dt.shape == gates.swing_dt.shape == (steps, n_c, 3)
    assert_held(gates.mg_force, mg[:3])
    assert_held(gates.mg_moment, mg[3:])
    assert gates.mg_force.shape == gates.mg_moment.shape == (steps, 3)
    # the payload's sums, against the one-estimate (2, 3) form
    payload = problem._payload
    single = PayloadDisturbance(payload.forces[0], payload.moments[0], payload.points[0])
    assert_held(payload.force_sum, single.force_sum)
    assert_held(payload.pivot_moment, single.pivot_moment)
    assert payload.force_sum.shape == payload.pivot_moment.shape == (steps, 3)
    # the payload targets' constants
    fixed = TargetConstants.build(activity, constants)
    n_active = activity.sum(axis=1)
    assert_held(fixed.gravity_share, (constants.mass / n_active)[:, None, None] * constants.gravity_vector)
    assert_held(fixed.position_mask, activity[..., None])
    assert fixed.gravity_share.shape == (steps, n_c, 6)
    assert fixed.position_mask.shape == (steps, n_c, 3)
    # the surface constants at every stage
    stacked, staged = SurfaceConstants.of(problem.surfaces), problem._stage_surface
    for name in stacked.__dataclass_fields__:
        assert_held(getattr(staged, name), getattr(stacked, name))
        assert getattr(staged, name).shape == (steps,) + np.shape(getattr(stacked, name))
    if builder is build_constrained_mpc:
        for held, mu in ((problem._two_mu_c_sq, "mu_c"), (problem._two_mu_z_sq, "mu_z")):
            assert_held(held, [2.0 * float(getattr(surface, mu)) ** 2 for surface in problem.surfaces])
            assert held.shape == (steps, n_c)


@given(shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=4), seed=seeds)
@settings(max_examples=200, deadline=None)
def test_cross_bitwise_equals_numpy_cross(shapes, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shapes.input_shapes[0] + (3,))
    b = rng.normal(size=shapes.input_shapes[1] + (3,))
    got = shooting.cross(a, b)
    assert got.shape == shapes.result_shape + (3,)
    assert got.tobytes() == np.cross(a, b).tobytes()


def metric_problem(builder, seed, horizon, n_c, zero_q_d):
    """A problem with a random gait, surfaces, weights, mass and period (the metric reads nothing else)."""
    rng = np.random.default_rng(seed)
    feet = np.column_stack([np.zeros(n_c), np.linspace(0.1, -0.1, n_c), np.zeros(n_c)])
    refs = HorizonReferences(
        np.tile([0.0, 0.0, 0.5], (horizon + 1, 1)),
        np.tile(feet[:, None, :], (1, horizon + 1, 1)),
        rng.integers(0, 2, (n_c, horizon + 1)),
        random_rotations(rng, n_c),
    )

    def diag(n, low, high):
        return np.diag(rng.uniform(low, high, n))

    weights = Weights(
        q_h=diag(3, 1.0, 200.0), q_c=diag(3, 1.0, 2000.0), q_pc=diag(3, 1.0, 400.0),
        q_d=np.zeros((6, 6)) if zero_q_d else diag(6, 1.0, 200.0), q_xi=diag(6, 0.1, 20.0),
        q_v=diag(3, 1e-3, 1.0), q_force_similarity=diag(6, 1.0, 200.0), q_wrench_reg=diag(6, 1e-4, 1e-2),
    )
    config = MpcConfig(horizon=horizon, dt=float(rng.choice([0.05, 0.137, 0.2])))
    constants = RobotConstants(mass=float(rng.uniform(0.5, 40.0)))
    state = CentroidalState([0.0, 0.0, 0.5], np.zeros(6), feet)
    return builder(state, refs, PayloadDisturbance.zero(), weights, config, constants, random_surfaces(rng, n_c))


@given(
    seed=seeds,
    horizon=st.integers(1, 12),
    n_c=st.integers(1, 3),
    zero_q_d=st.booleans(),
    builder=st.sampled_from([build_mpc_problem, build_constrained_mpc]),
)
# on these instances an array's `** 2`, which multiplies, rounds a square
# differently from the loops' scalar `** 2`, which calls the C library's `pow`
@example(seed=151, horizon=10, n_c=2, zero_q_d=False, builder=build_mpc_problem)
@example(seed=91, horizon=10, n_c=3, zero_q_d=False, builder=build_mpc_problem)
@settings(max_examples=300, deadline=None)
def test_curvature_metric_bitwise_equals_loops(seed, horizon, n_c, zero_q_d, builder):
    problem = metric_problem(builder, seed, horizon, n_c, zero_q_d)
    assert problem.curvature_metric().tobytes() == reference_metric(problem).tobytes()


@given(seed=seeds, n_c=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_targets_with_problem_constants_equal_fresh_call(seed, n_c):
    problem = make_problem(build_mpc_problem, seed, n_c=n_c)
    rng = np.random.default_rng(seed + 1)
    robot = RobotConstants(mass=rng.uniform(0.5, 3.0))
    fixed = TargetConstants.build(problem.activity, robot)
    for _ in range(2):  # one set of constants serves every point of the problem
        states = problem.rollout(problem.initial_warm_start() + rng.normal(0, 0.3, problem.dim))
        want, want_cache = reference_targets(states, problem.activity, problem._payload, robot)
        got, got_cache = payload_compensation_targets(states, problem.activity, problem._payload, robot, fixed)
        fresh, _ = payload_compensation_targets(states, problem.activity, problem._payload, robot)
        assert got.tobytes() == want.tobytes()
        assert fresh.tobytes() == want.tobytes()
        for key in want_cache:
            assert got_cache[key].tobytes() == want_cache[key].tobytes()
        # the kept top block is the one the gradient used to recompute
        c, r = want_cache["c"], want_cache["r"]
        assert got_cache["z1"].tobytes() == (c[:, None, :3] - shooting.cross(r, c[:, None, 3:])).tobytes()


def test_stage_without_active_contact_raises_at_first_value():
    gait = np.ones((2, 11), dtype=int)
    gait[:, 4] = 0
    problem = make_problem(build_mpc_problem, 3, gait=gait)  # building does not raise
    z = problem.initial_warm_start()
    problem.constraints(z)  # neither does a rollout
    with pytest.raises(InfeasiblePhaseError):
        problem.evaluator().value(z)
    with pytest.raises(InfeasiblePhaseError):  # nor is the failure remembered as a success
        problem.objective(z)
    with pytest.raises(InfeasiblePhaseError):
        TargetConstants.build(problem.activity, CONSTANTS)
