"""Cost weights, the payload targets, and the weightings of the problems' task blocks.

The task tests read the cost groups of a horizon-1 `HorizonProblem` at a
hand-made point (`ShootingProblem._cost_parts`), so they check the
problem's own pairing of each residual with its weight.
"""

import numpy as np
import pytest

from payload_mpc.costs import Weights, payload_compensation_targets
from payload_mpc.contact import ContactSurface, invert_parametrization
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.errors import ConfigurationError, InfeasiblePhaseError
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem
from payload_mpc.shooting import PayloadArrays, ShootingPoint

FOOT = ContactSurface(-0.1, 0.1, -0.05, 0.05)


def held_refs(com_ref, feet_ref, gait=None):
    """References held over a horizon of one stage; every contact active unless `gait` says otherwise."""
    n_c = len(feet_ref)
    return HorizonReferences(
        com_refs=np.array([com_ref, com_ref]),
        footstep_refs=np.array([[f, f] for f in feet_ref]),
        gait=np.ones((n_c, 2)) if gait is None else np.array(gait),
        contact_orientations=np.tile(np.eye(3), (n_c, 1, 1)),
    )


def stack_state(com, momentum, feet):
    return CentroidalState(com, momentum, feet).as_vector()[None, :]


def task_errors(states, refs):
    """CoM and feet minus their references, as a problem's point memo keeps them."""
    feet = states[:, 9:].reshape(states.shape[0], refs.n_contacts, 3)
    return states[:, 0:3] - refs.com_refs, feet - refs.footstep_refs.transpose(1, 0, 2)


def cost_parts(refs, stage, xi=None):
    """The cost groups of a horizon-1 problem at a point whose stage 0 is `stage`.

    Stage 1 sits on the references, the swing velocities are zero and the
    wrench parameters `xi` (1, n_c, 6) zero unless given.  The weights are
    the defaults and the robot's mass is 1 kg.
    """
    n_c = refs.n_contacts
    states = np.vstack([stage, stack_state(refs.com_refs[1], np.zeros(6), refs.footstep_refs[:, 1])])
    xi = np.zeros((1, n_c, 6)) if xi is None else xi
    problem = build_mpc_problem(
        CentroidalState(states[0, :3], states[0, 3:9], states[0, 9:].reshape(n_c, 3)),
        refs, PayloadDisturbance.zero(), Weights(), MpcConfig(horizon=1),
        RobotConstants(mass=1.0), [FOOT] * n_c,
    )
    com_err, feet_err = task_errors(states, refs)
    wrenches = problem._wrenches_world(xi, problem._input_factors(xi))
    point = ShootingPoint(b"", xi, np.zeros((1, n_c, 3)), wrenches, states, None, com_err, feet_err)
    return problem._cost_parts(point)


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


STANCE = [[0, 0.1, 0], [0, -0.1, 0]]


def test_tracking_cost_zero_on_reference():
    refs = held_refs([0, 0, 0.53], STANCE)
    parts = cost_parts(refs, stack_state([0, 0, 0.53], np.zeros(6), STANCE))
    assert parts["tracking"] == 0.0 and parts["footsteps"] == 0.0


def test_tracking_cost_com_height_error():
    refs = held_refs([0, 0, 0.53], STANCE)
    stage = stack_state([0, 0, 0.63], np.zeros(6), STANCE)
    # oracle: 0.5 * 1000 * 0.1^2
    assert cost_parts(refs, stage)["tracking"] == pytest.approx(5.0)


def test_tracking_cost_angular_momentum():
    refs = held_refs([0, 0, 0.53], STANCE)
    stage = stack_state([0, 0, 0.53], [0, 0, 0, 0.1, 0, 0], STANCE)
    # oracle: 0.5 * 100 * 0.1^2; linear momentum is never penalized
    assert cost_parts(refs, stage)["tracking"] == pytest.approx(0.5)
    linear_only = stack_state([0, 0, 0.53], [5, -3, 2, 0, 0, 0], STANCE)
    assert cost_parts(refs, linear_only)["tracking"] == 0.0


def test_footstep_cost_examples():
    refs = held_refs([0, 0, 0.53], STANCE)
    assert cost_parts(refs, stack_state([0, 0, 0.53], np.zeros(6), STANCE))["footsteps"] == 0.0
    off = stack_state([0, 0, 0.53], np.zeros(6), [[0.01, 0.1, 0], [0, -0.1, 0]])
    # oracle: 0.5 * 200 * 0.01^2, and the feet are no tracking task
    parts = cost_parts(refs, off)
    assert parts["footsteps"] == pytest.approx(0.01)
    assert parts["tracking"] == 0.0


def test_footstep_cost_additive_over_axes():
    refs = held_refs([0, 0, 0], [[0, 0, 0]])
    a = stack_state([0, 0, 0], np.zeros(6), [[0.02, 0, 0]])
    b = stack_state([0, 0, 0], np.zeros(6), [[0, 0.03, 0]])
    both = stack_state([0, 0, 0], np.zeros(6), [[0.02, 0.03, 0]])
    assert cost_parts(refs, both)["footsteps"] == pytest.approx(
        cost_parts(refs, a)["footsteps"] + cost_parts(refs, b)["footsteps"]
    )


def test_parameter_regularization():
    on_ref = stack_state([0, 0, 0.53], np.zeros(6), STANCE)
    assert cost_parts(held_refs([0, 0, 0.53], STANCE), on_ref)["parameter_reg"] == 0.0
    refs = held_refs([0, 0, 0], [[0, 0, 0]])
    stage = stack_state([0, 0, 0], np.zeros(6), [[0, 0, 0]])
    xi = np.zeros((1, 1, 6))
    xi[0, 0, 0] = 1.0
    # oracle: 0.5 * 10 * 1
    assert cost_parts(refs, stage, xi)["parameter_reg"] == pytest.approx(5.0)
    assert cost_parts(refs, stage, 2 * xi)["parameter_reg"] == pytest.approx(20.0)


def test_payload_cost_gravity_share_single_contact():
    # one active contact at the CoM: a wrench equal to m g cancels gravity
    xi = invert_parametrization(Wrench([0, 0, 9.81], [0, 0, 0]), FOOT)[None, None, :]
    origin = [0.0, 0.0, 0.0]
    parts = cost_parts(held_refs(origin, [origin]), stack_state(origin, np.zeros(6), [origin]), xi)
    assert parts["payload"] == pytest.approx(0.0, abs=1e-10)


def test_payload_cost_equal_distribution_two_contacts():
    full = invert_parametrization(Wrench([0, 0, 9.81], [0, 0, 0]), FOOT)
    half = invert_parametrization(Wrench([0, 0, 9.81 / 2], [0, 0, 0]), FOOT)
    origin = [0.0, 0.0, 0.0]
    refs = held_refs(origin, [origin, origin])
    stage = stack_state(origin, np.zeros(6), [origin, origin])
    assert cost_parts(refs, stage, np.stack([half, half])[None])["payload"] == pytest.approx(0.0, abs=1e-10)
    # oracle: 0.5 * 100 * (9.81 / 2)^2, the first foot's normal force above its share
    lopsided = cost_parts(refs, stage, np.stack([full, half])[None])["payload"]
    assert lopsided == pytest.approx(0.5 * 100.0 * (9.81 / 2) ** 2, rel=1e-9)


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
    refs = held_refs([0.0, 0.0, 0.5], [[0.0, 0.0, 0.0]], gait=[[0, 0]])
    with pytest.raises(InfeasiblePhaseError):
        cost_parts(refs, stack_state([0.0, 0.0, 0.5], np.zeros(6), [[0.0, 0.0, 0.0]]))


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
