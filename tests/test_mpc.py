import numpy as np
import pytest

from payload_mpc.baseline import build_constrained_mpc
from payload_mpc.contact import ContactSurface, invert_parametrization, is_contact_stable, parametrize
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.errors import ConfigurationError
from payload_mpc.mpc import (
    MAX_HORIZON,
    HorizonReferences,
    MpcConfig,
    build_mpc_problem,
    footstep_bound_residuals,
    receding_horizon_step,
)
from payload_mpc.solver import SolverOptions, finite_difference_gradient, solve

SURFACE = ContactSurface(-0.2, 0.2, -0.075, 0.075)
CONSTANTS = RobotConstants(mass=1.0)
FEET = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])


def static_refs(horizon=10, n_c=2, com=(0.0, 0.0, 0.53), feet=FEET, gait=None):
    if gait is None:
        gait = np.ones((n_c, horizon + 1), dtype=int)
    return HorizonReferences(
        com_refs=np.tile(com, (horizon + 1, 1)),
        footstep_refs=np.tile(np.asarray(feet)[:, None, :], (1, horizon + 1, 1)),
        gait=gait,
        contact_orientations=np.tile(np.eye(3), (n_c, 1, 1)),
    )


def static_problem(payload=None, weights=None, config=None, gait=None):
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    refs = static_refs(gait=gait)
    return build_mpc_problem(
        state,
        refs,
        payload or PayloadDisturbance.zero(),
        weights or Weights(),
        config or MpcConfig(),
        CONSTANTS,
        [SURFACE, SURFACE],
    )


def test_decision_vector_length():
    prob = static_problem()
    # oracle: 10 steps * 2 contacts * (6 + 3)
    assert prob.dim == 180
    assert prob.num_constraints == 10 * 2 * 6


BUILDERS = {"param": build_mpc_problem, "baseline": build_constrained_mpc}


def test_horizon_is_bounded():
    assert MpcConfig(horizon=MAX_HORIZON).horizon == MAX_HORIZON
    for horizon in (0, MAX_HORIZON + 1, 99990):
        with pytest.raises(ConfigurationError, match="horizon"):
            MpcConfig(horizon=horizon)


@pytest.mark.parametrize("controller", BUILDERS)
@pytest.mark.parametrize(
    "horizon, n_surfaces", [(7, 2), (10, 1), (10, 3)], ids=["horizon", "one-surface", "three-surfaces"]
)
def test_reference_length_mismatch_rejected(horizon, n_surfaces, controller):
    state = CentroidalState([0, 0, 0.53], np.zeros(6), FEET)
    refs = static_refs(horizon=horizon)
    with pytest.raises(ConfigurationError):
        BUILDERS[controller](
            state, refs, PayloadDisturbance.zero(), Weights(), MpcConfig(), CONSTANTS, [SURFACE] * n_surfaces
        )


@pytest.mark.parametrize("controller", BUILDERS)
def test_warm_start_carries_the_model_weight_under_any_gravity(controller):
    # at 3.71 m/s^2 each stage's warm-start normal forces sum to the model's m g
    constants = RobotConstants(mass=1.0, gravity_vector=[0.0, 0.0, 3.71, 0.0, 0.0, 0.0])
    gait = np.ones((2, 11), dtype=int)
    gait[1, 3:6] = 0  # a single-support phase: one share, then two
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    prob = BUILDERS[controller](
        state, static_refs(gait=gait), PayloadDisturbance.zero(), Weights(), MpcConfig(), constants, [SURFACE] * 2
    )
    inputs, _ = prob.decode(prob.initial_warm_start())
    applied = prob._wrenches_world(inputs, prob._input_factors(inputs)) * prob.activity[..., None]
    np.testing.assert_allclose(applied[..., 2].sum(axis=1), 3.71, rtol=1e-9)


@pytest.mark.parametrize("controller", BUILDERS)
def test_non_finite_input_evaluates_to_inf(controller):
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    prob = BUILDERS[controller](
        state, static_refs(), PayloadDisturbance.zero(), Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2
    )
    z = prob.initial_warm_start()
    z[0] = np.nan  # the first input entry of contact 0 at stage 0
    value, residuals = prob.evaluator().value(z)
    assert value == np.inf
    assert residuals.tobytes() == np.zeros(prob.num_constraints).tobytes()


def test_objective_decomposition_matches_breakdown():
    # the evaluator's value is the breakdown's total, bitwise, for every problem;
    # with the payload task off its group is still reported, at 0.0
    groups = {
        "param": ("tracking", "footsteps", "parameter_reg", "velocity_reg", "payload"),
        "param-no-td": ("tracking", "footsteps", "parameter_reg", "velocity_reg", "payload"),
        "baseline": ("tracking", "footsteps", "input_reg"),
    }
    builders = {"param": build_mpc_problem, "param-no-td": build_mpc_problem, "baseline": build_constrained_mpc}
    gait = np.ones((2, 11), dtype=int)
    gait[1, 3:6] = 0  # a single-support phase, so the baseline's similarity term is partial
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    for controller, builder in builders.items():
        weights = Weights().without_payload_task() if controller == "param-no-td" else Weights()
        prob = builder(
            state, static_refs(gait=gait), PayloadDisturbance.zero(), weights, MpcConfig(), CONSTANTS, [SURFACE] * 2
        )
        rng = np.random.default_rng(0)
        z = prob.initial_warm_start() + rng.normal(0, 0.3, prob.dim)
        parts = prob.cost_breakdown(z)
        assert tuple(parts) == groups[controller] + ("total",)
        assert parts["total"] == pytest.approx(sum(parts[g] for g in groups[controller]), abs=1e-12)
        value, _ = prob.evaluator().value(z)
        assert np.float64(value).tobytes() == np.float64(parts["total"]).tobytes(), controller
        assert prob.objective(z) == value
        if controller == "param-no-td":
            assert parts["payload"] == 0.0
        elif controller == "param":
            assert parts["payload"] > 0.0


@pytest.mark.parametrize("controller", BUILDERS)
def test_blown_up_rollout_is_inf_in_every_reader(controller):
    # swing velocities far past any step: the rollout leaves the 1e6 guard, and the
    # objective and the breakdown read the evaluator's +inf, not a finite huge sum
    gait = np.ones((2, 11), dtype=int)
    gait[1, 3:6] = 0
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    prob = BUILDERS[controller](
        state, static_refs(gait=gait), PayloadDisturbance.zero(), Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2
    )
    inputs, velocities = prob.decode(prob.initial_warm_start())
    z = prob.encode(inputs, velocities + 1e9)
    assert np.abs(prob.rollout(z)).max() > 1e6
    assert prob.objective(z) == np.inf
    assert prob.cost_breakdown(z) == {"total": np.inf}
    assert prob.evaluator().value(z)[0] == np.inf


def test_bound_residual_count_and_satisfaction():
    prob = static_problem()
    residuals = prob.constraints(prob.initial_warm_start())
    assert residuals.size == 120
    assert (residuals > 0).all()  # static stance well inside the box


def feet_err(states, refs):
    """Feet minus their references (K+1, n_c, 3) of a stacked-state trajectory."""
    return states[:, 9:].reshape(len(states), refs.n_contacts, 3) - refs.footstep_refs.transpose(1, 0, 2)


def test_footstep_bound_examples():
    config = MpcConfig(horizon=1)
    refs = static_refs(horizon=1)
    state = np.concatenate([[0, 0, 0.53], np.zeros(6), FEET.ravel()])
    inside = np.vstack([state, state])
    inside[1, 9:12] = FEET[0] + [0.02, 0, 0]
    res = footstep_bound_residuals(feet_err(inside, refs), refs, config)
    assert (res > 0).all()
    outside = np.vstack([state, state])
    outside[1, 9:12] = FEET[0] + [0.06, 0, 0]
    res = footstep_bound_residuals(feet_err(outside, refs), refs, config)
    assert res.min() < 0  # +x upper bound violated


def test_footstep_bound_rotated_frame():
    # 90 degree yaw: a world +x error lands on the contact-frame -y axis
    yaw = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    refs = HorizonReferences(
        com_refs=np.tile([0, 0, 0.53], (2, 1)),
        footstep_refs=np.tile(FEET[:, None, :], (1, 2, 1)),
        gait=np.ones((2, 2), dtype=int),
        contact_orientations=np.stack([yaw, np.eye(3)]),
    )
    config = MpcConfig(horizon=1, footstep_bound_upper=[0.05, 0.01, 0.001],
                       footstep_bound_lower=[-0.05, -0.01, -0.001])
    state = np.concatenate([[0, 0, 0.53], np.zeros(6), FEET.ravel()])
    moved = np.vstack([state, state])
    moved[1, 9:12] = FEET[0] + [0.02, 0.0, 0.0]
    res = footstep_bound_residuals(feet_err(moved, refs), refs, config).reshape(1, 2, 6)
    # contact frame error for contact 0: R' e = (0, -0.02, 0)
    assert res[0, 0, 1] == pytest.approx(-0.02 - (-0.01))  # lower residual on y: violated
    assert res[0, 0, 4] == pytest.approx(0.01 + 0.02)


def test_gradient_matches_finite_differences_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(3):
        gait = np.ones((2, 11), dtype=int)
        if trial:
            gait[trial % 2, 3:7] = 0
        state = CentroidalState(
            np.array([0, 0, 0.53]) + rng.normal(0, 0.05, 3),
            rng.normal(0, 0.2, 6),
            FEET + rng.normal(0, 0.02, (2, 3)),
        )
        refs = HorizonReferences(
            np.tile([0, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
            np.tile(FEET[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
            gait,
            np.tile(np.eye(3), (2, 1, 1)),
        )
        payload = PayloadDisturbance(
            Wrench.from_array(rng.normal(0, 3, 6)),
            Wrench.from_array(rng.normal(0, 3, 6)),
            state.com_position + rng.normal(0, 0.2, 3),
            state.com_position + rng.normal(0, 0.2, 3),
        )
        prob = build_mpc_problem(state, refs, payload, Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2)
        z = rng.normal(0, 0.5, prob.dim)
        ev = prob.evaluator()
        analytic = prob.gradient(z)
        numeric = finite_difference_gradient(ev, z)
        assert np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-5
        s = rng.uniform(0, 3, prob.num_constraints)
        analytic_c = prob.gradient(z, s)
        numeric_c = finite_difference_gradient(lambda p: ev.value(p)[0] + s @ ev.value(p)[1], z)
        assert np.abs(analytic_c - numeric_c).max() / max(1.0, np.abs(numeric_c).max()) < 1e-5


def test_receding_horizon_gravity_share():
    # the library-default 1e-6 gradient tolerance sits below this problem's
    # line-search noise floor; status assertions use an attainable one
    prob = static_problem(config=MpcConfig(solver=SolverOptions(kkt_tolerance=1e-4, max_iterations=400)))
    step = receding_horizon_step(prob)
    assert step.stats.status == "converged"
    share = invert_parametrization(Wrench([0, 0, 9.81 / 2], [0, 0, 0]), SURFACE)
    expected = parametrize(share, SURFACE).as_array()
    for wrench in step.wrenches:
        # force balance oracle: each foot carries about half the weight
        assert wrench[2] == pytest.approx(9.81 / 2, rel=0.01)
        assert np.allclose(wrench, expected, atol=0.05)
    assert np.allclose(step.contact_velocities, 0.0, atol=1e-4)


def test_receding_horizon_fixed_point():
    options = MpcConfig(solver=SolverOptions(kkt_tolerance=1e-4, max_iterations=400))
    prob = static_problem(config=options)
    first = receding_horizon_step(prob)
    prob2 = static_problem(config=options)
    second = receding_horizon_step(prob2, first.stats.z)
    assert np.abs(second.xi - first.xi).max() < 1e-6
    assert second.stats.iterations == 0


def test_payload_between_feet_force_balance():
    # 1.5 kg payload hanging straight below the CoM between the feet
    payload = PayloadDisturbance(
        Wrench([0, 0, -1.5 * 9.81 / 2], [0, 0, 0]),
        Wrench([0, 0, -1.5 * 9.81 / 2], [0, 0, 0]),
        [0.0, 0.05, 0.4],
        [0.0, -0.05, 0.4],
    )
    prob = static_problem(payload=payload)
    step = receding_horizon_step(prob)
    total = step.wrenches[:, 2].sum()
    # force balance oracle: momentum rate zero needs (m + 1.5) g total
    assert total == pytest.approx(2.5 * 9.81, rel=0.01)


def test_first_input_always_contact_stable():
    rng = np.random.default_rng(9)
    gait = np.ones((2, 11), dtype=int)
    gait[1, 0:4] = 0
    state = CentroidalState(
        np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.3, 6), FEET
    )
    refs = static_refs(gait=gait)
    payload = PayloadDisturbance(
        Wrench.from_array(rng.normal(0, 3, 6)), Wrench.zero(),
        state.com_position + [0.2, 0.0, -0.1], state.com_position,
    )
    prob = build_mpc_problem(state, refs, payload, Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2)
    step = receding_horizon_step(prob)
    for i, wrench in enumerate(step.wrenches):
        if gait[i, 0]:
            assert is_contact_stable(Wrench.from_array(wrench), SURFACE).satisfied


@pytest.mark.parametrize("controller", sorted(BUILDERS))
def test_control_step_wrenches_are_stage0_world_rows_with_zero_swing_rows(controller):
    rng = np.random.default_rng(4)
    gait = np.ones((2, 11), dtype=int)
    gait[1, 0:3] = 0  # contact 1 swings at stage 0
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    refs = static_refs(gait=gait)
    refs.contact_orientations[1] = rot
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    config = MpcConfig(solver=SolverOptions(max_iterations=1))
    prob = BUILDERS[controller](state, refs, PayloadDisturbance.zero(), Weights(), config, CONSTANTS, [SURFACE] * 2)
    step = receding_horizon_step(prob, rng.normal(0.0, 0.5, prob.dim))
    inputs, _ = prob.decode(step.stats.z)
    world = prob._wrenches_world(inputs, prob._input_factors(inputs))[0]
    assert isinstance(step.wrenches, np.ndarray) and step.wrenches.shape == (2, 6)
    assert step.wrenches[0].tobytes() == world[0].tobytes()
    # the swing row is masked, not zero already: a negative entry times a zero gate would be -0.0
    assert np.signbit(world[1]).any()
    assert step.wrenches[1].tobytes() == np.zeros(6).tobytes()  # +0.0, not -0.0


def test_symmetric_stance_forces_match():
    prob = static_problem()
    step = receding_horizon_step(prob)
    fz = step.wrenches[:, 2]
    assert abs(fz[0] - fz[1]) / max(fz) < 0.01


def test_shifted_warm_start_quality():
    # the shifted optimum evaluates the advanced problem near the previous
    # optimal cost; threshold recorded at first implementation: the measured
    # single-step truncation gap on the static instance is ~0.08%
    prob = static_problem()
    step = receding_horizon_step(prob)
    z_star = step.stats.z
    prob2 = static_problem()
    shifted_cost = prob2.objective(step.warm_start)
    assert shifted_cost <= prob.objective(z_star) * 1.005


def test_swing_velocity_moves_footstep_prediction():
    gait = np.ones((2, 11), dtype=int)
    gait[0, :] = 0  # contact 0 swings the whole horizon
    prob = static_problem(gait=gait)
    xi = np.zeros((10, 2, 6))
    vel = np.zeros((10, 2, 3))
    vel[:, 0, 0] = 0.25
    states = prob.rollout(prob.encode(xi, vel))
    feet = states[:, 9:12]
    assert feet[-1, 0] == pytest.approx(0.25 * 0.2 * 10)
    assert np.array_equal(states[:, 12:15], np.tile(FEET[1], (11, 1)))


def test_static_optimum_against_random_restarts():
    # brute-force oracle: the warm-started solve must match the best of
    # several random restarts on a small instance
    config = MpcConfig(horizon=3, solver=SolverOptions(kkt_tolerance=1e-5, max_iterations=400))
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    refs = static_refs(horizon=3)
    prob = build_mpc_problem(
        state, refs, PayloadDisturbance.zero(), Weights(), config, CONSTANTS, [SURFACE] * 2
    )
    nominal = solve(prob.evaluator(), prob.initial_warm_start(), config.solver)
    rng = np.random.default_rng(123)
    best = np.inf
    for _ in range(8):
        start = rng.normal(0, 1.0, prob.dim)
        result = solve(prob.evaluator(), start, config.solver)
        if result.constraint_violation <= 1e-6:
            best = min(best, result.objective)
    assert nominal.objective <= best + 1e-6
    assert nominal.objective == pytest.approx(best, rel=1e-4)
    share = invert_parametrization(Wrench([0, 0, 9.81 / 2], [0, 0, 0]), SURFACE)
    xi0, _, _ = prob.first_input(nominal.z)
    assert np.allclose(xi0, share, atol=0.05)


def test_warm_start_benefit_over_walking_run():
    # regression metric: shifted warm starts should not need more iterations
    # than cold starts over a 50-tick walking run
    from payload_mpc.gait import GaitParameters, generate_gait_schedule, generate_nominal_com_reference
    from payload_mpc.simulation import default_run_solver_options
    from payload_mpc.dynamics import euler_step

    config = MpcConfig(solver=default_run_solver_options())
    gait = GaitParameters(number_of_steps=5)
    ticks = 50
    schedule = generate_gait_schedule(gait, config, min_ticks=ticks + config.horizon + 1)
    com_refs = generate_nominal_com_reference(schedule, gait)
    orientations = np.tile(np.eye(3), (2, 1, 1))
    state = CentroidalState(com_refs[0], np.zeros(6), schedule.footstep_refs[:, 0, :])
    payload = PayloadDisturbance.zero()  # no load on this walk
    warm = None
    warm_iters, cold_iters = [], []
    for tick in range(ticks):
        window = slice(tick, tick + config.horizon + 1)
        refs = HorizonReferences(
            com_refs[window], schedule.footstep_refs[:, window, :],
            schedule.activity[:, window], orientations,
        )
        prob = build_mpc_problem(state, refs, payload, Weights(), config, CONSTANTS, [SURFACE] * 2)
        step = receding_horizon_step(prob, warm)
        warm_iters.append(step.stats.iterations)
        cold = build_mpc_problem(state, refs, payload, Weights(), config, CONSTANTS, [SURFACE] * 2)
        cold_step = receding_horizon_step(cold, None)
        cold_iters.append(cold_step.stats.iterations)
        warm = step.warm_start
        for _ in range(4):
            state = euler_step(
                state, step.wrenches, step.contact_velocities, payload, schedule.activity[:, tick], CONSTANTS, 0.05
            )
    assert np.median(warm_iters) <= np.median(cold_iters)


def test_gradients_with_rotated_contact_frames():
    # exercises the rotation chain: wrench mapping, Jacobian chain rule and
    # bound-residual seeds, in both controllers
    from payload_mpc.baseline import build_constrained_mpc

    def rot_z(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])

    def rot_y(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

    rng = np.random.default_rng(17)
    orient = np.stack([rot_z(0.7) @ rot_y(0.2), rot_z(-1.1)])
    gait = np.ones((2, 11), dtype=int)
    gait[0, 2:6] = 0
    state = CentroidalState(
        np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.2, 6), FEET
    )
    refs = HorizonReferences(
        np.tile([0, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
        np.tile(FEET[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
        gait,
        orient,
    )
    payload = PayloadDisturbance(
        Wrench.from_array(rng.normal(0, 3, 6)), Wrench.from_array(rng.normal(0, 3, 6)),
        state.com_position + rng.normal(0, 0.2, 3), state.com_position + rng.normal(0, 0.2, 3),
    )
    for builder in (build_mpc_problem, build_constrained_mpc):
        prob = builder(state, refs, payload, Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2)
        z = rng.normal(0, 0.4, prob.dim)
        ev = prob.evaluator()
        gfd = finite_difference_gradient(ev, z)
        assert np.abs(prob.gradient(z) - gfd).max() / max(1.0, np.abs(gfd).max()) < 1e-5
        s = rng.uniform(0, 2, prob.num_constraints)
        gfd_c = finite_difference_gradient(lambda p: ev.value(p)[0] + s @ ev.value(p)[1], z)
        assert np.abs(prob.gradient(z, s) - gfd_c).max() / max(1.0, np.abs(gfd_c).max()) < 1e-5
