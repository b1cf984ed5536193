import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_mpc.dynamics import (
    CentroidalState,
    PayloadDisturbance,
    RobotConstants,
    centroidal_dynamics,
    euler_step,
    gravity_vector,
    skew,
    wrench_transport_map,
)
from payload_mpc.errors import ConfigurationError

finite_vec = st.lists(st.floats(-50, 50), min_size=3, max_size=3).map(np.array)


def test_skew_basis():
    assert np.allclose(skew([0, 0, 1]) @ [1, 0, 0], [0, 1, 0])


@given(finite_vec)
def test_skew_self_product_vanishes(v):
    assert np.allclose(skew(v) @ v, 0.0)


@given(finite_vec, finite_vec)
def test_skew_matches_cross_product(v, u):
    assert np.allclose(skew(v) @ u, np.cross(v, u))
    assert np.allclose(skew(v).T, -skew(v))


def test_skew_payload_arm_example():
    v = np.array([0.25, 0.1, -0.1325])
    u = np.array([0.0, 0.0, -14.715])
    expected = np.cross(v, u)  # oracle: hand cross product
    assert np.allclose(expected, [-1.4715, 3.67875, 0.0])
    assert np.allclose(skew(v) @ u, expected)


def test_transport_identity_at_com():
    m = wrench_transport_map([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.array_equal(m, np.eye(6))


def test_transport_vertical_force_through_com_axis():
    m = wrench_transport_map([0.0, 0.0, -0.53], [0.0, 0.0, 0.0])
    w = np.array([0.0, 0.0, 9.81, 0.0, 0.0, 0.0])
    assert np.allclose(m @ w, w)


def test_transport_offset_example():
    com = np.zeros(3)
    p = np.array([0.25, 0.1, -0.1325])
    w = np.array([0.0, 0.0, -14.715, 0.0, 0.0, 0.0])
    moment = np.cross(p - com, w[:3])  # oracle
    out = wrench_transport_map(p, com) @ w
    assert np.allclose(out, np.concatenate([w[:3], moment]))
    assert np.allclose(out[3:], [-1.4715, 3.67875, 0.0])


@given(finite_vec, finite_vec, st.lists(st.floats(-20, 20), min_size=6, max_size=6))
def test_transport_preserves_force(p, c, w):
    w = np.array(w)
    out = wrench_transport_map(p, c) @ w
    assert np.array_equal(out[:3], w[:3])


def constants():
    return RobotConstants(mass=1.0)


def test_free_fall_drift():
    state = CentroidalState([0, 0, 1.0], np.zeros(6), [[0.1, 0, 0], [-0.1, 0, 0]])
    active = np.array([0, 0])
    vel = [np.array([0.3, 0, 0]), np.array([0, 0.5, 0])]
    deriv = centroidal_dynamics(state, active, np.zeros((2, 6)), vel, PayloadDisturbance.zero(), constants())
    assert np.allclose(deriv.momentum, [0, 0, -9.81, 0, 0, 0])
    assert np.allclose(deriv.contact_positions, vel)


def test_static_equilibrium_single_support():
    state = CentroidalState([0, 0, 0.53], np.zeros(6), [[0, 0, 0]])
    active = np.array([1])
    w = np.array([[0, 0, 9.81, 0, 0, 0]])
    deriv = centroidal_dynamics(state, active, w, [np.zeros(3)], PayloadDisturbance.zero(), constants())
    assert np.allclose(deriv.momentum, 0.0, atol=1e-12)
    assert np.allclose(deriv.contact_positions, 0.0)


def test_com_velocity_is_linear_momentum_over_mass():
    state = CentroidalState([0, 0, 0], [1, 0, 0, 0, 0, 0], [[0, 0, 0]])
    active = np.array([0])
    deriv = centroidal_dynamics(state, active, np.zeros((1, 6)), [np.zeros(3)], PayloadDisturbance.zero(), constants())
    assert np.allclose(deriv.com_position, [1, 0, 0])


def test_length_mismatch_rejected():
    state = CentroidalState([0, 0, 0], np.zeros(6), [[0, 0, 0]])
    active = np.array([1])
    with pytest.raises(ConfigurationError):
        centroidal_dynamics(state, active, np.zeros((2, 6)), [np.zeros(3)], PayloadDisturbance.zero(), constants())


def test_euler_free_fall_one_step():
    state = CentroidalState([0, 0, 1.0], np.zeros(6), [[0, 0, 0]])
    active = np.array([0])
    nxt = euler_step(state, np.zeros((1, 6)), [np.zeros(3)], PayloadDisturbance.zero(), active, constants(), 0.2)
    # oracle: one hand integration step of -m g dt
    assert nxt.momentum[2] == pytest.approx(-1.962, abs=1e-12)


def test_euler_active_contact_position_bitwise_frozen():
    feet = np.array([[0.123456789, -0.2, 1e-9]])
    state = CentroidalState([0, 0, 0.5], np.zeros(6), feet)
    active = np.array([1])
    nxt = euler_step(state, np.zeros((1, 6)), [np.array([5.0, -3.0, 2.0])], PayloadDisturbance.zero(), active, constants(), 0.2)
    assert np.array_equal(nxt.contact_positions, feet)


def test_euler_static_equilibrium_is_fixed_point():
    state = CentroidalState([0, 0, 0.53], np.zeros(6), [[0, 0, 0]])
    active = np.array([1])
    w = np.array([[0, 0, 9.81, 0, 0, 0]])
    nxt = euler_step(state, w, [np.zeros(3)], PayloadDisturbance.zero(), active, constants(), 0.2)
    assert np.allclose(nxt.as_vector(), state.as_vector(), atol=1e-12)


def _rich_setup():
    state = CentroidalState(
        [0.02, -0.01, 0.55],
        [0.1, -0.2, 0.3, 0.05, 0.02, -0.04],
        [[0.0, 0.1, 0.0], [0.05, -0.1, 0.01]],
    )
    active = np.array([1, 0])
    wrenches = np.array([[0.4, -0.2, 6.0, 0.02, -0.05, 0.01], [0.1, 0.2, 3.0, 0, 0, 0]])
    velocities = [np.zeros(3), np.array([0.25, 0.0, 0.05])]
    payload = PayloadDisturbance(
        [[0, 0, -7.3575], [0, 0, -7.3575]],
        np.zeros((2, 3)),
        [[0.27, 0.09, 0.4], [0.27, -0.11, 0.4]],
    )
    return state, active, wrenches, velocities, payload


def test_euler_consistency_with_true_flow():
    # single-step consistency: (euler(dt) - x)/dt approaches the exact flow's
    # difference quotient linearly in dt (oracle: 1000-substep integration)
    state, active, wrenches, velocities, payload = _rich_setup()
    cst = constants()

    def fine_flow(dt, substeps=1000):
        s = state
        for _ in range(substeps):
            s = euler_step(s, wrenches, velocities, payload, active, cst, dt / substeps)
        return s

    errors = []
    for dt in (1e-2, 1e-3, 1e-4):
        coarse = euler_step(state, wrenches, velocities, payload, active, cst, dt)
        exact = fine_flow(dt)
        errors.append(np.linalg.norm((coarse.as_vector() - exact.as_vector()) / dt))
    assert errors[0] > errors[1] > errors[2]
    for first, second in zip(errors, errors[1:]):
        assert first / second == pytest.approx(10.0, rel=0.25)


def test_free_fall_conservation_many_steps():
    state = CentroidalState([0, 0, 2.0], [0.3, -0.1, 0.0, 0.07, -0.02, 0.11], [[0, 0, 0]])
    active = np.array([0])
    cst = constants()
    angular0 = state.momentum[3:].copy()
    dt = 0.2
    s = state
    for k in range(1, 51):
        s = euler_step(s, np.zeros((1, 6)), [np.zeros(3)], PayloadDisturbance.zero(), active, cst, dt)
        assert np.array_equal(s.momentum[3:], angular0)  # exactly conserved
        expected = state.momentum[2] - cst.mass * 9.81 * k * dt
        assert s.momentum[2] == pytest.approx(expected, rel=1e-13)


@given(finite_vec)
@settings(max_examples=50)
def test_gating_active_contact_velocity_is_ignored(v):
    state, active, wrenches, velocities, payload = _rich_setup()
    cst = constants()
    base = euler_step(state, wrenches, velocities, payload, active, cst, 0.2)
    modified = [v, velocities[1]]  # contact 0 is active
    out = euler_step(state, wrenches, modified, payload, active, cst, 0.2)
    assert np.array_equal(base.as_vector(), out.as_vector())


def test_payload_record_holds_two_grips_read_only():
    forces = np.array([[0.0, 0.0, -7.0], [0.5, 0.0, -6.0]])
    payload = PayloadDisturbance(forces, np.zeros((2, 3)), [[0.2, 0.1, 0.0], [0.2, -0.1, 0.0]])
    forces[0, 2] = 1.0  # the record keeps its own copy
    assert payload.forces[0, 2] == -7.0
    assert np.array_equal(payload.force_sum, [0.5, 0.0, -13.0])
    # about the origin: sum of points x forces (the moments are zero here)
    assert np.allclose(payload.pivot_moment, np.cross(payload.points, payload.forces).sum(axis=0))
    for name in ("forces", "moments", "points", "force_sum", "pivot_moment"):
        assert not getattr(payload, name).flags.writeable
    moved = payload.translated([1.0, 0.0, 0.0])
    assert np.array_equal(moved.points, payload.points + [1.0, 0.0, 0.0])
    held = payload.over(4)
    assert held.forces.shape == held.moments.shape == held.points.shape == (4, 2, 3)
    assert held.force_sum.shape == held.pivot_moment.shape == (4, 3)
    assert all(row.tobytes() == payload.force_sum.tobytes() for row in held.force_sum)


@pytest.mark.parametrize(
    "forces, moments, points",
    [
        (np.zeros(3), np.zeros(3), np.zeros(3)),  # one grip's row, not two
        (np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))),  # three grips
        (np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros((2, 3))),  # shapes disagree
        (np.full((2, 3), np.nan), np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros((2, 3)), np.zeros((2, 3)), np.full((2, 3), np.inf)),
        ([[0.0, 0.0, 1.0], [0.0, 1.0]], np.zeros((2, 3)), np.zeros((2, 3))),  # ragged rows
    ],
)
def test_payload_record_rejects_bad_grips(forces, moments, points):
    with pytest.raises(ConfigurationError):
        PayloadDisturbance(forces, moments, points)


def test_state_validation():
    with pytest.raises(ConfigurationError):
        CentroidalState([0, 0, np.nan], np.zeros(6), [[0, 0, 0]])
    with pytest.raises(ConfigurationError):
        CentroidalState([0, 0, 0], np.zeros(5), [[0, 0, 0]])


def test_robot_constants_validation():
    with pytest.raises(ConfigurationError):
        RobotConstants(mass=0.0)
    assert np.allclose(gravity_vector(), [0, 0, 9.81, 0, 0, 0])
