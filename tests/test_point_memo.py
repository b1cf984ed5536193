"""The one-point memo that a problem's value and gradient share.

Both controllers keep the inputs, wrenches and rollout of the last decision
vector they evaluated.  A memo hit must give bitwise the same result as a
fresh problem, a different or mutated vector must never hit, and a solve
must roll out each evaluated point once.
"""

import dataclasses

import numpy as np
import pytest

from payload_mpc import shooting
from payload_mpc.baseline import baseline_receding_horizon_step, build_constrained_mpc
from payload_mpc.contact import ContactSurface, parametrize_batch, rotate_wrenches
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem, receding_horizon_step
from payload_mpc.solver import SolverOptions

SURFACE = ContactSurface(-0.2, 0.2, -0.075, 0.075)
CONSTANTS = RobotConstants(mass=1.0)
FEET = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
CONTROLLERS = {
    "param": (build_mpc_problem, receding_horizon_step),
    "baseline": (build_constrained_mpc, baseline_receding_horizon_step),
}


def make_problem(controller, max_iterations=200, gait=None):
    rng = np.random.default_rng(5)
    if gait is None:
        gait = np.ones((2, 11), dtype=int)
        gait[0, 3:7] = 0
    state = CentroidalState(
        np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.2, 6), FEET
    )
    refs = HorizonReferences(
        np.tile([0.05, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
        np.tile(FEET[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
        gait,
        np.tile(np.eye(3), (2, 1, 1)),
    )
    payload = PayloadDisturbance(
        Wrench.from_array(rng.normal(0, 2, 6)), Wrench.from_array(rng.normal(0, 2, 6)),
        state.com_position + rng.normal(0, 0.2, 3), state.com_position + rng.normal(0, 0.2, 3),
    )
    config = MpcConfig(solver=SolverOptions(max_iterations=max_iterations))
    build, _ = CONTROLLERS[controller]
    return build(state, refs, payload, Weights(), config, CONSTANTS, [SURFACE, SURFACE])


def points(problem):
    rng = np.random.default_rng(11)
    z1 = problem.initial_warm_start() + rng.normal(0, 0.2, problem.dim)
    z2 = z1 + rng.normal(0, 0.05, problem.dim)
    weights = rng.uniform(0, 3, problem.num_constraints)
    return z1, z2, weights


def assert_same_value(got, want):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_gradient_after_value_elsewhere_matches_fresh_problem(controller):
    problem = make_problem(controller)
    z1, z2, weights = points(problem)
    problem.evaluator().value(z1)
    got = problem.gradient(z2, weights)
    want = make_problem(controller).gradient(z2, weights)
    assert got.tobytes() == want.tobytes()
    # and the point just memoized serves its own value unchanged
    assert_same_value(problem.evaluator().value(z2), make_problem(controller).evaluator().value(z2))


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_memo_hit_matches_fresh_problem(controller):
    problem = make_problem(controller)
    z1, _, weights = points(problem)
    evaluator = problem.evaluator()
    first = evaluator.value(z1)
    got = problem.gradient(z1, weights)  # served from the memo
    fresh = make_problem(controller)
    assert got.tobytes() == fresh.gradient(z1, weights).tobytes()
    assert_same_value(first, fresh.evaluator().value(z1))
    assert_same_value(evaluator.value(z1), first)


def reference_first_input(problem, z):
    """The stage-0 command as a second map of stage 0's inputs alone: the contact map, the rotations, the gate."""
    inputs, velocities = problem.decode(z)
    local = parametrize_batch(inputs[:1], problem.surfaces) if problem.parametrized else inputs[:1]
    world = rotate_wrenches(local, problem.refs.contact_orientations.transpose(0, 2, 1))[0]
    return inputs[0], np.where(problem.activity[0][:, None] != 0, world, 0.0), velocities[0]


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_first_input_reads_stage_zero_of_the_point(controller):
    gait = np.ones((2, 11), dtype=int)
    gait[1, 0:3] = 0  # contact 1 swings at stage 0: its wrench row is +0.0
    problem = make_problem(controller, gait=gait)
    z1, z2, _ = points(problem)
    want = [a.tobytes() for a in reference_first_input(problem, z1)]
    value = problem.evaluator().value
    value(z1)
    hit = problem.first_input(z1)  # the memo holds z1
    value(z2)
    moved = problem.first_input(z1)  # the memo held z2
    for got in (hit, moved):
        assert [a.tobytes() for a in got] == want
        point = problem._last_point
        for array, memo in zip(got, (point.inputs, point.wrenches, point.velocities)):
            assert not np.shares_memory(array, memo)


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_in_place_mutation_is_not_served_stale(controller):
    problem = make_problem(controller)
    z1, _, weights = points(problem)
    z = z1.copy()
    evaluator = problem.evaluator()
    evaluator.value(z)
    z[::7] += 0.05  # the caller reuses its buffer
    # the memo still describes z1, not what the buffer holds now
    assert problem.gradient(z1, weights).tobytes() == make_problem(controller).gradient(z1, weights).tobytes()
    # and the mutated vector is a point of its own
    got_value = evaluator.value(z)
    got_gradient = problem.gradient(z, weights)
    assert_same_value(got_value, make_problem(controller).evaluator().value(z.copy()))
    assert got_gradient.tobytes() == make_problem(controller).gradient(z.copy(), weights).tobytes()
    assert not np.array_equal(got_gradient, make_problem(controller).gradient(z1, weights))


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_rollout_returns_a_private_copy(controller):
    problem = make_problem(controller)
    z1, _, _ = points(problem)
    states = problem.rollout(z1)
    states[:] = np.nan
    value, _ = problem.evaluator().value(z1)
    assert np.isfinite(value)
    assert problem.rollout(z1).tobytes() == make_problem(controller).rollout(z1).tobytes()


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_one_rollout_per_evaluated_point(controller, monkeypatch):
    problem = make_problem(controller, max_iterations=40)
    _, step = CONTROLLERS[controller]
    counts = {"rollout": 0, "value": 0, "gradient": 0}
    real_rollout = shooting.rollout

    def counting_rollout(*args):
        counts["rollout"] += 1
        return real_rollout(*args)

    real_evaluator = problem.evaluator

    def counting_evaluator():
        nlp = real_evaluator()

        def value(z):
            counts["value"] += 1
            return nlp.value(z)

        def gradient(z, s=None):
            counts["gradient"] += 1
            return nlp.gradient(z, s)

        return dataclasses.replace(nlp, value=value, gradient=gradient)

    monkeypatch.setattr(shooting, "rollout", counting_rollout)
    problem.evaluator = counting_evaluator
    result = step(problem)
    assert result.stats.iterations > 0
    assert counts["gradient"] > 0
    assert counts["rollout"] <= counts["value"]
