"""The scan-based shooting core against the stage-by-stage Euler recursion.

`reference_rollout` and `reference_adjoint` are the per-stage loops the scans
replaced, kept here as the oracle.  The scans perform the same floating-point
operations in the same association, so the property tests demand bitwise
equality, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, euler_step
from payload_mpc.shooting import StageGates, cross, rollout, rollout_adjoint, stage_forces


def reference_rollout(x0, wrenches, velocities, activity, payload, constants, dt):
    steps, n_c = activity.shape
    gated = wrenches * activity[..., None]
    gated_f = gated[:, :, :3]
    total_force = gated_f.sum(axis=1) + payload.force_sum
    base_moment = gated[:, :, 3:].sum(axis=1) + payload.pivot_moment
    swing_delta = (dt * (1.0 - activity)[..., None] * velocities).reshape(steps, n_c * 3)
    mg = constants.mass * constants.gravity_vector
    inv_mass_dt = dt / constants.mass
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    for k in range(steps):
        x = states[k]
        out = states[k + 1]
        com = x[0:3]
        feet = x[9:].reshape(n_c, 3)
        moment = base_moment[k] + cross(feet, gated_f[k]).sum(axis=0) - cross(com, total_force[k])
        out[0:3] = com + inv_mass_dt * x[3:6]
        out[3:6] = x[3:6] + dt * (total_force[k] - mg[:3])
        out[6:9] = x[6:9] + dt * (moment - mg[3:])
        out[9:] = x[9:] + swing_delta[k]
    return states


def reference_adjoint(states, wrenches, activity, payload, constants, dt, state_seeds):
    steps, n_c = activity.shape
    gated_f = wrenches[:, :, :3] * activity[..., None]
    total_force = gated_f.sum(axis=1) + payload.force_sum
    inv_mass_dt = dt / constants.mass
    wrench_grads = np.zeros((steps, n_c, 6))
    velocity_grads = np.empty((steps, n_c, 3))
    lam = state_seeds[steps].copy()
    for k in range(steps - 1, -1, -1):
        x = states[k]
        com = x[0:3]
        feet = x[9:].reshape(n_c, 3)
        gamma = activity[k]
        lam_hm = lam[6:9]
        r = feet - com[None, :]
        gd = dt * gamma[:, None]
        wrench_grads[k, :, :3] = gd * (lam[3:6][None, :] - cross(r, lam_hm[None, :]))
        wrench_grads[k, :, 3:] = gd * lam_hm[None, :]
        velocity_grads[k] = dt * (1.0 - gamma)[:, None] * lam[9:].reshape(n_c, 3)
        new_lam = lam + state_seeds[k]
        new_lam[0:3] += dt * cross(lam_hm, total_force[k])
        new_lam[3:6] += inv_mass_dt * lam[0:3]
        new_lam[9:] += (dt * cross(gated_f[k], lam_hm[None, :])).ravel()
        lam = new_lam
    return wrench_grads, velocity_grads


def gates_and_forces(wrenches, activity, payload, constants, dt):
    """The `StageGates` and `stage_forces` that a problem passes to the scans."""
    gates = StageGates.of(activity, constants, dt)
    return gates, stage_forces(wrenches, gates, payload)


PATTERNS = ("stance", "swing", "alternating", "random")


def draw(rng, shape, scale, zeros):
    """Normal samples; with `zeros`, about half of them are +0.0 or -0.0."""
    out = rng.normal(0.0, scale, shape)
    if zeros:
        out[rng.random(shape) < 0.25] = 0.0
        out[rng.random(shape) < 0.25] = -0.0
    return out


def instance(horizon, n_c, pattern, payload_scale, seed, zeros, held):
    rng = np.random.default_rng(seed)
    if pattern == "stance":
        activity = np.ones((horizon, n_c))
    elif pattern == "swing":
        activity = np.zeros((horizon, n_c))
    elif pattern == "alternating":
        activity = (np.add.outer(np.arange(horizon), np.arange(n_c)) % 2).astype(float)
    else:
        activity = rng.integers(0, 2, (horizon, n_c)).astype(float)
    # one held estimate (2, 3) that broadcasts against every stage, or a
    # different payload per stage (K, 2, 3)
    grips = (2, 3) if held else (horizon, 2, 3)
    payload = PayloadDisturbance(
        draw(rng, grips, payload_scale, zeros), draw(rng, grips, payload_scale, zeros), draw(rng, grips, 0.3, zeros)
    )
    constants = RobotConstants(mass=float(rng.uniform(0.5, 40.0)))
    dt = float(rng.choice([0.2, 0.05, 0.137]))
    x0 = draw(rng, 9 + 3 * n_c, 0.5, zeros)
    wrenches = draw(rng, (horizon, n_c, 6), 10.0, zeros)
    velocities = draw(rng, (horizon, n_c, 3), 0.3, zeros)
    seeds = draw(rng, (horizon + 1, 9 + 3 * n_c), 1.0, zeros)
    return x0, wrenches, velocities, activity, payload, constants, dt, seeds


instances = st.builds(
    instance,
    horizon=st.integers(1, 12),
    n_c=st.integers(1, 3),
    pattern=st.sampled_from(PATTERNS),
    payload_scale=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
    held=st.booleans(),
)


@given(instances)
@settings(max_examples=300, deadline=None)
def test_rollout_bitwise_equals_stage_loop(case):
    x0, wrenches, velocities, activity, payload, constants, dt, _ = case
    expected = reference_rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    gates, forces = gates_and_forces(wrenches, activity, payload, constants, dt)
    actual = rollout(x0, velocities, payload, dt, gates, forces)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@given(instances)
@settings(max_examples=300, deadline=None)
def test_adjoint_bitwise_equals_stage_loop(case):
    x0, wrenches, velocities, activity, payload, constants, dt, seeds = case
    states = reference_rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    expected = reference_adjoint(states, wrenches, activity, payload, constants, dt, seeds)
    gates, forces = gates_and_forces(wrenches, activity, payload, constants, dt)
    actual = rollout_adjoint(states, dt, seeds, gates, forces)
    for got, want in zip(actual, expected):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_adjoint_leaves_seeds_untouched():
    x0, wrenches, velocities, activity, payload, constants, dt, seeds = instance(10, 2, "random", 1.0, 7, True, False)
    gates, forces = gates_and_forces(wrenches, activity, payload, constants, dt)
    states = rollout(x0, velocities, payload, dt, gates, forces)
    before = seeds.copy()
    rollout_adjoint(states, dt, seeds, gates, forces)
    assert seeds.tobytes() == before.tobytes()


def test_one_rollout_stage_agrees_with_the_plant_step():
    # the model and the plant read one payload record: one stage of the
    # rollout is one Euler step of the plant.  Both grips push and twist,
    # contact 0 stands and contact 1 swings.  The two sum their terms in
    # different orders, so they agree to round-off, not bitwise.
    payload = PayloadDisturbance(
        [[0.3, -0.2, -7.0], [-0.1, 0.4, -6.5]],
        [[0.05, -0.02, 0.1], [-0.04, 0.03, -0.08]],
        [[0.27, 0.09, 0.4], [0.25, -0.11, 0.38]],
    )
    state = CentroidalState(
        [0.02, -0.01, 0.55], [0.1, -0.2, 0.3, 0.05, 0.02, -0.04], [[0.0, 0.1, 0.0], [0.05, -0.1, 0.01]]
    )
    active = np.array([1.0, 0.0])
    wrenches = np.array([[0.4, -0.2, 16.0, 0.02, -0.05, 0.01], [0.3, 0.1, 2.0, 0.01, 0.0, -0.02]])
    velocities = np.array([[0.1, 0.0, 0.0], [0.25, 0.0, 0.05]])
    constants = RobotConstants(mass=1.0)
    dt = 0.01
    gates = StageGates.of(active[None], constants, dt)
    held = payload.over(1)
    forces = stage_forces(wrenches[None], gates, held)
    model = rollout(state.as_vector(), velocities[None], held, dt, gates, forces)[1]
    plant = euler_step(state, wrenches, velocities, payload, active, constants, dt).as_vector()
    np.testing.assert_allclose(model, plant, rtol=1e-12, atol=0.0)
    # the swing foot moved and the stance foot did not: both paths were exercised
    assert not np.array_equal(plant[12:15], state.contact_positions[1])
    assert np.array_equal(plant[9:12], state.contact_positions[0])
