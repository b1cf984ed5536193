"""The fused per-point evaluation against the per-contact code it replaced.

Both problems now evaluate every contact at once: the contact map and its
Jacobian take the surface constants stacked along the contact axis, the
parametrized problem keeps the map's tanh/exp factors for its gradient, the
frame rotations are one stacked matmul, and the payload targets reuse
per-problem constants.  The per-contact loops they replaced are kept here as
the oracle, and every test demands bitwise equality (`tobytes()`), not a
tolerance.  The random surfaces differ per contact: no scenario exercises
per-contact constants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from payload_mpc.costs import TargetConstants, Weights, payload_compensation_targets, wrenches_from_parameters
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
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
    com, momentum, feet = costs.split_states(states, n_c)
    seeds[:, 0:3] += (com - refs.com_refs) @ weights.q_c
    seeds[:, 6:9] += momentum[:, 3:] @ weights.q_h
    feet_err = feet - refs.footstep_refs.transpose(1, 0, 2)
    seeds[:, 9:] += (feet_err @ weights.q_pc).reshape(steps + 1, n_c * 3)
    wrench_direct = np.zeros((steps, n_c, 6))
    if problem.use_payload_task:
        targets, cache = problem._payload_targets(point)
        residual = costs.payload_residual(wrenches, targets, problem.activity[..., None])
        payload_seeds, wrench_direct = shooting.payload_cost_state_seeds(
            residual, cache, problem.activity, problem._payload, weights.q_d
        )
        seeds += payload_seeds
    seeds += problem._bound_state_seeds(point, constraint_weights)
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
    com, momentum, feet = costs.split_states(states, n_c)
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
    seeds += problem._bound_state_seeds(point, constraint_weights[: problem.num_bound_constraints])
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
    com, _, feet = costs.split_states(states, n_c)
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


# -- problems with a different surface and frame per contact ---------------------


def make_problem(builder, seed, mode="box", n_c=2, payload=True, gait=None):
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
    estimate = (
        PayloadDisturbance(
            Wrench.from_array(rng.normal(0, 2, 6)), Wrench.from_array(rng.normal(0, 2, 6)),
            state.com_position + rng.normal(0, 0.2, 3), state.com_position + rng.normal(0, 0.2, 3),
        )
        if payload
        else PayloadDisturbance.zero()
    )
    config = MpcConfig(footstep_bound_mode=mode)
    return builder(state, refs, estimate, Weights(), config, CONSTANTS, random_surfaces(rng, n_c))


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
    assert wrenches_from_parameters(xi, rotations, surfaces).tobytes() == want.tobytes()
    # a problem's stacked record and kept factors give the same map
    stacked = SurfaceConstants.of(surfaces)
    factors = parametrization_factors(xi, stacked)
    assert wrenches_from_parameters(xi, rotations, stacked, factors).tobytes() == want.tobytes()
    # and so does the map of the first stage alone
    assert wrenches_from_parameters(xi[:1], rotations, surfaces).tobytes() == want[:1].tobytes()


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


@given(seed=seeds, mode=st.sampled_from(["box", "norm"]), n_c=st.integers(1, 3), payload=st.booleans())
@settings(max_examples=60, deadline=None)
def test_mpc_gradient_bitwise_equals_per_contact_loop(seed, mode, n_c, payload):
    problem = make_problem(build_mpc_problem, seed, mode, n_c, payload)
    rng = np.random.default_rng(seed + 1)
    z = problem.initial_warm_start() + rng.normal(0, 0.3, problem.dim)
    weights = rng.uniform(0, 3, problem.num_constraints)
    want = reference_mpc_gradient(problem, z, weights)
    assert problem.gradient(z, weights).tobytes() == want.tobytes()


@given(seed=seeds, mode=st.sampled_from(["box", "norm"]), n_c=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_baseline_rotations_and_residuals_bitwise_equal_per_contact_loops(seed, mode, n_c):
    problem = make_problem(build_constrained_mpc, seed, mode, n_c)
    rng = np.random.default_rng(seed + 1)
    z = problem.initial_warm_start() + rng.normal(0, 0.5, problem.dim)
    weights = rng.uniform(0, 3, problem.num_constraints)
    wrenches, _ = problem.decode(z)
    # contact frame -> inertial frame
    assert problem._wrenches_world(wrenches).tobytes() == reference_wrenches_world(problem, wrenches).tobytes()
    residuals = problem.stability_residuals(wrenches, problem._input_factors(wrenches).cop)
    assert residuals.tobytes() == reference_stability_residuals(problem, wrenches).tobytes()
    # inertial-frame gradient -> contact frame, with the stability terms
    want = reference_baseline_gradient(problem, z, weights)
    assert problem.gradient(z, weights).tobytes() == want.tobytes()


@given(shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=4), seed=seeds)
@settings(max_examples=200, deadline=None)
def test_cross_bitwise_equals_numpy_cross(shapes, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shapes.input_shapes[0] + (3,))
    b = rng.normal(size=shapes.input_shapes[1] + (3,))
    got = shooting.cross(a, b)
    assert got.shape == shapes.result_shape + (3,)
    assert got.tobytes() == np.cross(a, b).tobytes()


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
