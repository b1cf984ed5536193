import numpy as np
import pytest

from payload_mpc.costs import (
    Weights,
    footstep_cost,
    parameter_regularization_cost,
    payload_attenuation_cost,
    payload_compensation_targets,
    tracking_cost,
)
from payload_mpc.contact import ContactSurface
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.errors import ConfigurationError, InfeasiblePhaseError
from payload_mpc.mpc import HorizonReferences
from payload_mpc.shooting import PayloadArrays

FOOT = ContactSurface(-0.1, 0.1, -0.05, 0.05)


def single_stage_refs(com_ref, feet_ref, gait=((1,), (1,))):
    return HorizonReferences(
        com_refs=np.array([com_ref]),
        footstep_refs=np.array([[f] for f in feet_ref]),
        gait=np.array(gait),
        contact_orientations=np.tile(np.eye(3), (len(feet_ref), 1, 1)),
    )


def stack_state(com, momentum, feet):
    return CentroidalState(com, momentum, feet).as_vector()[None, :]


def task_errors(states, refs):
    """CoM and feet minus their references, as a problem's point memo keeps them."""
    feet = states[:, 9:].reshape(states.shape[0], refs.n_contacts, 3)
    return states[:, 0:3] - refs.com_refs, feet - refs.footstep_refs.transpose(1, 0, 2)


def tracking(states, refs, weights):
    return tracking_cost(states, refs, weights, task_errors(states, refs)[0])


def footsteps(states, refs, weights):
    return footstep_cost(task_errors(states, refs)[1], weights)


def test_weights_defaults_match_documented_values():
    w = Weights()
    assert np.array_equal(w.q_h, 100.0 * np.eye(3))
    assert np.array_equal(w.q_c, np.diag([1.0, 1.0, 1000.0]))
    assert np.array_equal(w.q_pc, 200.0 * np.eye(3))
    assert np.array_equal(w.q_d, np.diag([100.0, 100.0, 100.0, 10.0, 10.0, 10.0]))
    assert np.array_equal(w.q_xi, 10.0 * np.eye(6))


def test_weights_reject_asymmetric():
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ConfigurationError):
        Weights(q_h=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, [1.0, np.nan, 1.0]])
def test_weights_reject_non_finite(value):
    with pytest.raises(ConfigurationError, match="finite"):
        Weights(q_c=value)


def test_weights_reject_indefinite():
    with pytest.raises(ConfigurationError):
        Weights(q_c=np.diag([1.0, -1.0, 1.0]))


def test_tracking_cost_zero_on_reference():
    refs = single_stage_refs([0, 0, 0.53], [[0, 0.1, 0], [0, -0.1, 0]])
    states = stack_state([0, 0, 0.53], np.zeros(6), [[0, 0.1, 0], [0, -0.1, 0]])
    assert tracking(states, refs, Weights()) == 0.0


def test_tracking_cost_com_height_error():
    refs = single_stage_refs([0, 0, 0.53], [[0, 0.1, 0], [0, -0.1, 0]])
    states = stack_state([0, 0, 0.63], np.zeros(6), [[0, 0.1, 0], [0, -0.1, 0]])
    # oracle: 0.5 * 1000 * 0.1^2
    assert tracking(states, refs, Weights()) == pytest.approx(5.0)


def test_tracking_cost_angular_momentum():
    refs = single_stage_refs([0, 0, 0.53], [[0, 0.1, 0], [0, -0.1, 0]])
    states = stack_state([0, 0, 0.53], [0, 0, 0, 0.1, 0, 0], [[0, 0.1, 0], [0, -0.1, 0]])
    # oracle: 0.5 * 100 * 0.1^2; linear momentum is never penalized
    assert tracking(states, refs, Weights()) == pytest.approx(0.5)
    linear_only = stack_state([0, 0, 0.53], [5, -3, 2, 0, 0, 0], [[0, 0.1, 0], [0, -0.1, 0]])
    assert tracking(linear_only, refs, Weights()) == 0.0


def test_footstep_cost_examples():
    refs = single_stage_refs([0, 0, 0.53], [[0, 0.1, 0], [0, -0.1, 0]])
    exact = stack_state([0, 0, 0.53], np.zeros(6), [[0, 0.1, 0], [0, -0.1, 0]])
    assert footsteps(exact, refs, Weights()) == 0.0
    off = stack_state([0, 0, 0.53], np.zeros(6), [[0.01, 0.1, 0], [0, -0.1, 0]])
    # oracle: 0.5 * 200 * 0.01^2
    assert footsteps(off, refs, Weights()) == pytest.approx(0.01)


def test_footstep_cost_additive_over_axes():
    refs = single_stage_refs([0, 0, 0], [[0, 0, 0]], gait=((1,),))
    a = stack_state([0, 0, 0], np.zeros(6), [[0.02, 0, 0]])
    b = stack_state([0, 0, 0], np.zeros(6), [[0, 0.03, 0]])
    both = stack_state([0, 0, 0], np.zeros(6), [[0.02, 0.03, 0]])
    w = Weights()
    assert footsteps(both, refs, w) == pytest.approx(
        footsteps(a, refs, w) + footsteps(b, refs, w)
    )


def test_parameter_regularization():
    w = Weights()
    assert parameter_regularization_cost(np.zeros((3, 2, 6)), w) == 0.0
    xi = np.zeros((1, 1, 6))
    xi[0, 0, 0] = 1.0
    # oracle: 0.5 * 10 * 1
    assert parameter_regularization_cost(xi, w) == pytest.approx(5.0)
    assert parameter_regularization_cost(2 * xi, w) == pytest.approx(20.0)


def payload_cost_args(xi, state_vec, payload, gait):
    n_c = gait.shape[0]
    return dict(
        xi_traj=xi,
        states=state_vec,
        payload=payload,
        gait=gait,
        orientations=np.tile(np.eye(3), (n_c, 1, 1)),
        surfaces=[FOOT] * n_c,
        constants=RobotConstants(mass=1.0),
        weights=Weights(),
    )


def test_payload_cost_gravity_share_single_contact():
    # one active contact at the CoM: a wrench equal to m g cancels gravity
    from payload_mpc.contact import invert_parametrization

    xi = invert_parametrization(Wrench([0, 0, 9.81], [0, 0, 0]), FOOT)[None, None, :]
    com = np.array([0.0, 0.0, 0.0])
    states = np.concatenate([com, np.zeros(6), com])[None, :].repeat(2, axis=0)
    cost = payload_attenuation_cost(
        **payload_cost_args(xi, states, PayloadDisturbance.zero(), np.array([[1, 1]]))
    )
    assert cost == pytest.approx(0.0, abs=1e-10)


def test_payload_cost_equal_distribution_two_contacts():
    from payload_mpc.contact import invert_parametrization

    half = invert_parametrization(Wrench([0, 0, 9.81 / 2], [0, 0, 0]), FOOT)
    xi = np.stack([half, half])[None, :, :]
    com = np.array([0.0, 0.0, 0.0])
    states = np.concatenate([com, np.zeros(6), com, com])[None, :].repeat(2, axis=0)
    cost = payload_attenuation_cost(
        **payload_cost_args(xi, states, PayloadDisturbance.zero(), np.array([[1, 1], [1, 1]]))
    )
    assert cost == pytest.approx(0.0, abs=1e-10)


def test_payload_target_with_disturbance_at_com():
    # payload applied at the CoM, one active contact at the CoM:
    # target wrench = -d + m g share = (0,0,24.525,...)
    payload = PayloadDisturbance(
        Wrench([0, 0, -14.715], [0, 0, 0]), Wrench.zero(), [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    )
    com = np.array([0.0, 0.0, 0.0])
    states = np.concatenate([com, np.zeros(6), com])[None, :]
    targets, _ = payload_compensation_targets(
        states, np.array([[1.0]]), PayloadArrays.of(payload), RobotConstants(mass=1.0)
    )
    assert np.allclose(targets[0, 0], [0, 0, 24.525, 0, 0, 0], atol=1e-12)


def test_payload_cost_requires_active_contact():
    xi = np.zeros((1, 1, 6))
    com = np.array([0.0, 0.0, 0.5])
    states = np.concatenate([com, np.zeros(6), [0.0, 0.0, 0.0]])[None, :]
    with pytest.raises(InfeasiblePhaseError):
        payload_attenuation_cost(
            **payload_cost_args(xi, states, PayloadDisturbance.zero(), np.array([[0, 0]]))
        )


def test_hold_payload_over_horizon():
    # one estimate's (2, 3) grip arrays act at every stage: its targets equal,
    # bitwise, those of the same estimate stacked once per stage
    payload = PayloadDisturbance(
        Wrench([0, 0, -14.715], [0.1, 0, 0]), Wrench([0, 0.2, -1.0], [0, 0, 0.3]),
        [0.25, 0.1, -0.1325], [0.25, -0.1, -0.1325],
    )
    held = PayloadArrays.of(payload)
    assert held.forces.shape == held.moments.shape == held.points.shape == (2, 3)
    assert np.array_equal(held.force_sum, payload.total_force())
    steps = 10
    stacked = PayloadArrays(
        *(np.broadcast_to(a, (steps, 2, 3)).copy() for a in (held.forces, held.moments, held.points))
    )
    rng = np.random.default_rng(3)
    states = rng.normal(0.0, 0.2, (steps + 1, 15))
    activity = np.ones((steps, 2))
    robot = RobotConstants(mass=1.0)
    got, _ = payload_compensation_targets(states, activity, held, robot)
    want, _ = payload_compensation_targets(states, activity, stacked, robot)
    assert got.tobytes() == want.tobytes()
    zero = PayloadArrays.of(PayloadDisturbance.zero())
    assert np.array_equal(zero.force_sum, [0, 0, 0]) and np.array_equal(zero.pivot_moment, [0, 0, 0])


def test_hold_is_per_call():
    first = PayloadDisturbance(Wrench([0, 0, -1], [0, 0, 0]), Wrench.zero(), np.zeros(3), np.zeros(3))
    second = PayloadDisturbance(Wrench([0, 0, -2], [0, 0, 0]), Wrench.zero(), np.zeros(3), np.zeros(3))
    hold1 = PayloadArrays.of(first)
    hold2 = PayloadArrays.of(second)
    assert hold1.forces[0, 2] == -1 and hold1.force_sum[2] == -1
    assert hold2.forces[0, 2] == -2 and hold2.force_sum[2] == -2
