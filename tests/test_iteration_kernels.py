"""The per-iteration kernels against the formulas they replaced.

`shooting.cross` is a gather, one multiply and one subtraction; the adjoint
and the payload seeds stack the cross products that share an operand, and
the payload seeds add into the gradient's seed buffer; the contact map and
its Jacobian build their rows from the shared prefactors `ft`; the plant
crosses with the package's `cross`, not `np.cross`.  Each
computes the same products in the same order as the code it replaced, which
is kept here as the oracle, so every test demands bitwise equality
(`tobytes()`), not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from payload_mpc import costs
from payload_mpc.contact import (
    ContactSurface,
    SurfaceConstants,
    parametrization_factors,
    parametrization_jacobian_batch,
    parametrize_batch,
)
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench, euler_step
from payload_mpc.shooting import (
    PayloadArrays,
    StageGates,
    cross,
    payload_cost_state_seeds,
    rollout,
    rollout_adjoint,
    stage_forces,
)

# -- the oracles ------------------------------------------------------------------


def reference_cross(a, b):
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    first = a1 * b2 - a2 * b1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def reference_adjoint(states, wrenches, activity, payload, constants, dt, state_seeds):
    """The scan adjoint with one cross per product, as before the stacking."""
    steps, n_c = activity.shape
    gated_f = wrenches[:, :, :3] * activity[..., None]
    total_force = gated_f.sum(axis=1) + payload.force_sum
    chain = np.empty((2 * steps + 1, states.shape[1]))
    chain[1::2] = state_seeds[:steps]
    chain[-1] = state_seeds[steps]
    lam = chain[0::2]
    terms = chain[0:-1:2]
    backward = chain[::-1]
    lam_hm = lam[1:, 6:9]
    terms[:, 6:9] = -0.0
    np.cumsum(backward[:, 6:9], axis=0, out=backward[:, 6:9])
    terms[:, 0:3] = dt * reference_cross(lam_hm, total_force)
    terms[:, 9:] = (dt * reference_cross(gated_f, lam_hm[:, None, :])).reshape(steps, n_c * 3)
    np.cumsum(backward[:, 0:3], axis=0, out=backward[:, 0:3])
    np.cumsum(backward[:, 9:], axis=0, out=backward[:, 9:])
    terms[:, 3:6] = (dt / constants.mass) * lam[1:, 0:3]
    np.cumsum(backward[:, 3:6], axis=0, out=backward[:, 3:6])
    lam_next = lam[1:]
    r = states[:-1, 9:].reshape(steps, n_c, 3) - states[:-1, None, 0:3]
    gd = dt * activity[..., None]
    wrench_grads = np.empty((steps, n_c, 6))
    wrench_grads[:, :, :3] = gd * (lam_next[:, None, 3:6] - reference_cross(r, lam_hm[:, None, :]))
    wrench_grads[:, :, 3:] = gd * lam_hm[:, None, :]
    velocity_grads = dt * (1.0 - activity)[..., None] * lam_next[:, 9:].reshape(steps, n_c, 3)
    return wrench_grads, velocity_grads


def reference_payload_seeds(targets, cache, wrenches, activity, payload, q_d):
    """The payload seeds with one cross per product, as before the stacking."""
    steps, n_c = activity.shape
    nx = 9 + 3 * n_c
    mask = activity[..., None]
    residual = (wrenches - targets) * mask
    v = (residual @ q_d) * mask
    m_mat, c, r = cache["m"], cache["c"], cache["r"]
    w_vec = np.concatenate(
        [v[:, :, :3].sum(axis=1), (v[:, :, 3:] + reference_cross(r, v[:, :, :3])).sum(axis=1)], axis=1
    )
    h = np.linalg.solve(m_mat, w_vec[..., None])[..., 0]
    c2 = c[:, None, 3:]
    h1, h2 = h[:, None, :3], h[:, None, 3:]
    z1 = cache["z1"]
    zeta1 = h1 - reference_cross(r, h2)
    d_r = (-reference_cross(z1, h2) - reference_cross(zeta1, c2) + reference_cross(v[:, :, :3], c2)) * mask
    d_q = -reference_cross(payload.forces, h[:, None, 3:]).sum(axis=1)
    seeds = np.zeros((steps + 1, nx))
    seeds[:steps, 9:] = -d_r.reshape(steps, n_c * 3)
    seeds[:steps, 0:3] = d_r.sum(axis=1) + d_q
    return seeds, v


def reference_roots(t):
    """The friction rows' square roots, one array each: r1 = sqrt(1 + t1^2), r2 = sqrt(1 + t2^2)."""
    return np.sqrt(1.0 + t[..., 0] ** 2), np.sqrt(1.0 + t[..., 1] ** 2)


def reference_map(factors, c):
    t, fz = factors.t, factors.fz
    r1, r2 = reference_roots(t)
    out = np.empty(t.shape)
    out[..., 0] = c.mu_c * t[..., 0] * fz / r2
    out[..., 1] = c.mu_c * t[..., 1] * fz / r1
    out[..., 2] = fz
    out[..., 3] = (c.delta_y * t[..., 3] + c.delta_y0) * fz
    out[..., 4] = (c.delta_x * t[..., 4] + c.delta_x0) * fz
    out[..., 5] = c.mu_z * t[..., 5] * fz
    return out


def reference_jacobian(factors, c):
    t, e3, fz = factors.t, factors.e3, factors.fz
    r1, r2 = reference_roots(t)
    s = 1.0 - t**2
    jac = np.zeros(t.shape[:-1] + (6, 6))
    mu_c, mu_z = c.mu_c, c.mu_z
    jac[..., 0, 0] = mu_c * s[..., 0] * fz / r2
    jac[..., 0, 1] = -mu_c * t[..., 0] * fz * t[..., 1] * s[..., 1] / r2**3
    jac[..., 0, 2] = mu_c * t[..., 0] * e3 / r2
    jac[..., 1, 0] = -mu_c * t[..., 1] * fz * t[..., 0] * s[..., 0] / r1**3
    jac[..., 1, 1] = mu_c * s[..., 1] * fz / r1
    jac[..., 1, 2] = mu_c * t[..., 1] * e3 / r1
    jac[..., 2, 2] = e3
    jac[..., 3, 2] = (c.delta_y * t[..., 3] + c.delta_y0) * e3
    jac[..., 3, 3] = c.delta_y * s[..., 3] * fz
    jac[..., 4, 2] = (c.delta_x * t[..., 4] + c.delta_x0) * e3
    jac[..., 4, 4] = c.delta_x * s[..., 4] * fz
    jac[..., 5, 2] = mu_z * t[..., 5] * e3
    jac[..., 5, 5] = mu_z * s[..., 5] * fz
    return jac


# -- cross ------------------------------------------------------------------------

SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
ELEMENTS = st.one_of(SPECIAL, st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300))


@st.composite
def cross_operands(draw):
    shapes = draw(mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=4))
    a = draw(arrays(np.float64, shapes.input_shapes[0] + (3,), elements=ELEMENTS))
    b = draw(arrays(np.float64, shapes.input_shapes[1] + (3,), elements=ELEMENTS))
    return a, b


@given(cross_operands())
@settings(max_examples=300, deadline=None)
def test_cross_bitwise_equals_component_form(operands):
    a, b = operands
    with np.errstate(invalid="ignore", over="ignore"):
        expected = reference_cross(a, b)
        actual = cross(a, b)
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == expected.tobytes()


# -- adjoint and payload seeds ----------------------------------------------------


def draw_values(rng, shape, scale, zeros):
    out = rng.normal(0.0, scale, shape)
    if zeros:
        out[rng.random(shape) < 0.2] = 0.0
        out[rng.random(shape) < 0.2] = -0.0
    return out


def shooting_instance(horizon, n_c, pattern, payload_scale, seed, zeros, held):
    """A random horizon with at least one active contact per stage and a 2-grip payload.

    The payload is one held estimate (2, 3), or with `held` false one per stage (K, 2, 3).
    """
    rng = np.random.default_rng(seed)
    if pattern == "stance":
        activity = np.ones((horizon, n_c))
    elif pattern == "alternating":
        activity = (np.add.outer(np.arange(horizon), np.arange(n_c)) % 2).astype(float)
    else:
        activity = rng.integers(0, 2, (horizon, n_c)).astype(float)
    idle = activity.sum(axis=1) == 0
    activity[idle, rng.integers(0, n_c, idle.sum())] = 1.0
    grips = (2, 3) if held else (horizon, 2, 3)
    payload = PayloadArrays(
        draw_values(rng, grips, payload_scale, zeros),
        draw_values(rng, grips, payload_scale, zeros),
        draw_values(rng, grips, 0.3, zeros),
    )
    constants = RobotConstants(mass=float(rng.uniform(0.5, 40.0)))
    dt = float(rng.choice([0.2, 0.05, 0.137]))
    x0 = draw_values(rng, 9 + 3 * n_c, 0.5, zeros)
    wrenches = draw_values(rng, (horizon, n_c, 6), 10.0, zeros)
    velocities = draw_values(rng, (horizon, n_c, 3), 0.3, zeros)
    gates = StageGates.of(activity, constants, dt)
    states = rollout(x0, velocities, payload, dt, gates, stage_forces(wrenches, gates, payload))
    seeds = draw_values(rng, (horizon + 1, 9 + 3 * n_c), 1.0, zeros)
    q_d = np.diag(rng.uniform(0.0, 100.0, 6))
    return states, wrenches, activity, payload, constants, dt, seeds, q_d


shooting_instances = st.builds(
    shooting_instance,
    horizon=st.integers(1, 12),
    n_c=st.integers(1, 3),
    pattern=st.sampled_from(["stance", "alternating", "random"]),
    payload_scale=st.sampled_from([0.0, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
    held=st.booleans(),
)


@given(shooting_instances)
@settings(max_examples=200, deadline=None)
def test_stacked_adjoint_bitwise_equals_unstacked(case):
    states, wrenches, activity, payload, constants, dt, seeds, _ = case
    expected = reference_adjoint(states, wrenches, activity, payload, constants, dt, seeds)
    gates = StageGates.of(activity, constants, dt)
    actual = rollout_adjoint(states, dt, seeds, gates, stage_forces(wrenches, gates, payload))
    for got, want in zip(actual, expected):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(shooting_instances)
@settings(max_examples=200, deadline=None)
def test_stacked_payload_seeds_bitwise_equal_unstacked(case):
    """The kernel adds into the gradient's seeds what the oracle puts in a zero buffer of its own.

    Both are bitwise the same sum for seeds that hold no -0.0, which the
    kernel keeps so: the seeds here start with +0.0 entries and the masked
    residual rows of swing contacts add signed zeros.
    """
    states, wrenches, activity, payload, constants, _, seeds, q_d = case
    seeds[seeds == 0.0] = 0.0  # +0.0 where the draw gave either zero
    targets, cache = costs.payload_compensation_targets(states, activity, payload, constants)
    expected_seeds, expected_v = reference_payload_seeds(targets, cache, wrenches, activity, payload, q_d)
    residual = costs.payload_residual(wrenches, targets, activity[..., None])
    actual_seeds = seeds.copy()
    fixed = costs.TargetConstants.build(activity, constants)
    actual_v = payload_cost_state_seeds(residual, cache, fixed, payload, q_d, actual_seeds)
    assert actual_v.shape == expected_v.shape
    assert actual_v.tobytes() == expected_v.tobytes()
    assert actual_seeds.shape == seeds.shape == expected_seeds.shape
    assert actual_seeds.tobytes() == (seeds + expected_seeds).tobytes()
    assert not np.signbit(actual_seeds[actual_seeds == 0.0]).any()


def reference_skew(v):
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


@given(shooting_instances)
@settings(max_examples=100, deadline=None)
def test_skew_matrices_and_target_system_bitwise(case):
    states, _, activity, payload, constants, _, _, _ = case
    steps, n_c = activity.shape
    r = states[:steps, 9:].reshape(steps, n_c, 3) - states[:steps, None, 0:3]
    rx = costs._skew_batch(r)
    expected = reference_skew(r)
    assert rx.tobytes() == expected.tobytes()
    assert rx.flags.c_contiguous  # the einsums below sum in a layout-dependent order
    _, cache = costs.payload_compensation_targets(states, activity, payload, constants)
    inner = np.einsum("ki,kiab,kicb->kac", activity, expected, expected)
    assert cache["m"][:, 3:, 3:].tobytes() == (inner + activity.sum(axis=1)[:, None, None] * np.eye(3)).tobytes()


# -- the plant --------------------------------------------------------------------


def reference_euler_step(state, wrenches, velocities, payload, active, constants, dt):
    """`dynamics.euler_step` as it was, on `np.cross`: (com, momentum, feet) of the next state."""
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
    feet_dot = (1.0 - np.asarray(active, dtype=float))[:, None] * velocities
    feet = np.where(
        np.asarray(active, dtype=bool)[:, None],
        state.contact_positions,
        state.contact_positions + dt * feet_dot,
    )
    return com + dt * (state.linear_momentum / constants.mass), state.momentum + dt * h_dot, feet


@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(1, 3), zeros=st.booleans())
@settings(max_examples=200, deadline=None)
def test_euler_step_bitwise_equals_numpy_cross_plant(seed, n_c, zeros):
    rng = np.random.default_rng(seed)
    state = CentroidalState(
        draw_values(rng, 3, 0.5, zeros), draw_values(rng, 6, 2.0, zeros), draw_values(rng, (n_c, 3), 0.3, zeros)
    )
    payload = PayloadDisturbance(
        Wrench.from_array(draw_values(rng, 6, 10.0, zeros)), Wrench.from_array(draw_values(rng, 6, 10.0, zeros)),
        draw_values(rng, 3, 0.5, zeros), draw_values(rng, 3, 0.5, zeros),
    )
    active = rng.integers(0, 2, n_c)
    wrenches = draw_values(rng, (n_c, 6), 10.0, zeros)
    velocities = draw_values(rng, (n_c, 3), 0.3, zeros)
    constants = RobotConstants(mass=float(rng.uniform(0.5, 40.0)))
    dt = float(rng.choice([0.01, 0.05, 0.2]))
    got = euler_step(state, wrenches, velocities, payload, active, constants, dt)
    want = reference_euler_step(state, wrenches, velocities, payload, active, constants, dt)
    for got_part, want_part in zip((got.com_position, got.momentum, got.contact_positions), want):
        assert got_part.tobytes() == want_part.tobytes()


# -- contact map and Jacobian -----------------------------------------------------


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


@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 12),
    n_c=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 5.0]),
    zeros=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_map_and_jacobian_from_shared_prefactors(seed, steps, n_c, scale, zeros):
    rng = np.random.default_rng(seed)
    surfaces = random_surfaces(rng, n_c)
    stacked = SurfaceConstants.of(surfaces)
    xi = draw_values(rng, (steps, n_c, 6), scale, zeros)
    xi[..., 2] = np.clip(xi[..., 2], -50.0, 50.0)
    factors = parametrization_factors(xi, stacked)
    expected_map = reference_map(factors, stacked).tobytes()
    expected_jac = reference_jacobian(factors, stacked).tobytes()
    assert parametrize_batch(xi, stacked, factors).tobytes() == expected_map
    assert parametrize_batch(xi, surfaces).tobytes() == expected_map
    assert parametrization_jacobian_batch(xi, stacked, factors).tobytes() == expected_jac
    assert parametrization_jacobian_batch(xi, surfaces).tobytes() == expected_jac  # no factors given
    # one surface at a time, unstacked, gives the same rows
    for i, surface in enumerate(surfaces):
        single = SurfaceConstants.of(surface)
        own = parametrization_factors(xi[:, i], single)
        assert parametrize_batch(xi[:, i], surface).tobytes() == reference_map(own, single).tobytes()
        assert parametrization_jacobian_batch(xi[:, i], surface).tobytes() == reference_jacobian(own, single).tobytes()
