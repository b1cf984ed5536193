"""The scan-based shooting core against the stage-by-stage Euler recursion.

`reference_rollout` and `reference_adjoint` are the per-stage loops the scans
replaced, kept here as the oracle.  The scans perform the same floating-point
operations in the same association, so the property tests demand bitwise
equality, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_mpc.dynamics import PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.shooting import PayloadArrays, cross, rollout, rollout_adjoint


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


PATTERNS = ("stance", "swing", "alternating", "random")


def draw(rng, shape, scale, zeros):
    """Normal samples; with `zeros`, about half of them are +0.0 or -0.0."""
    out = rng.normal(0.0, scale, shape)
    if zeros:
        out[rng.random(shape) < 0.25] = 0.0
        out[rng.random(shape) < 0.25] = -0.0
    return out


def instance(horizon, n_c, pattern, payload_scale, seed, zeros):
    rng = np.random.default_rng(seed)
    if pattern == "stance":
        activity = np.ones((horizon, n_c))
    elif pattern == "swing":
        activity = np.zeros((horizon, n_c))
    elif pattern == "alternating":
        activity = (np.add.outer(np.arange(horizon), np.arange(n_c)) % 2).astype(float)
    else:
        activity = rng.integers(0, 2, (horizon, n_c)).astype(float)
    hold = [
        PayloadDisturbance(
            Wrench.from_array(draw(rng, 6, payload_scale, zeros)),
            Wrench.from_array(draw(rng, 6, payload_scale, zeros)),
            draw(rng, 3, 0.3, zeros),
            draw(rng, 3, 0.3, zeros),
        )
        for _ in range(horizon)
    ]
    constants = RobotConstants(mass=float(rng.uniform(0.5, 40.0)))
    dt = float(rng.choice([0.2, 0.05, 0.137]))
    x0 = draw(rng, 9 + 3 * n_c, 0.5, zeros)
    wrenches = draw(rng, (horizon, n_c, 6), 10.0, zeros)
    velocities = draw(rng, (horizon, n_c, 3), 0.3, zeros)
    seeds = draw(rng, (horizon + 1, 9 + 3 * n_c), 1.0, zeros)
    return x0, wrenches, velocities, activity, PayloadArrays.from_hold(hold), constants, dt, seeds


instances = st.builds(
    instance,
    horizon=st.integers(1, 12),
    n_c=st.integers(1, 3),
    pattern=st.sampled_from(PATTERNS),
    payload_scale=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)


@given(instances)
@settings(max_examples=300, deadline=None)
def test_rollout_bitwise_equals_stage_loop(case):
    x0, wrenches, velocities, activity, payload, constants, dt, _ = case
    expected = reference_rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    actual = rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@given(instances)
@settings(max_examples=300, deadline=None)
def test_adjoint_bitwise_equals_stage_loop(case):
    x0, wrenches, velocities, activity, payload, constants, dt, seeds = case
    states = reference_rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    expected = reference_adjoint(states, wrenches, activity, payload, constants, dt, seeds)
    actual = rollout_adjoint(states, wrenches, activity, payload, constants, dt, seeds)
    for got, want in zip(actual, expected):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_adjoint_leaves_seeds_untouched():
    x0, wrenches, velocities, activity, payload, constants, dt, seeds = instance(10, 2, "random", 1.0, 7, True)
    states = rollout(x0, wrenches, velocities, activity, payload, constants, dt)
    before = seeds.copy()
    rollout_adjoint(states, wrenches, activity, payload, constants, dt, seeds)
    assert seeds.tobytes() == before.tobytes()
