import numpy as np
import pytest

from payload_mpc.baseline import baseline_receding_horizon_step, build_constrained_mpc
from payload_mpc.contact import ContactSurface, is_contact_stable
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.errors import ConfigurationError
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem, receding_horizon_step
from payload_mpc.simulation import Scenario, TickTiming, TimingReport, compare_timing, default_run_solver_options
from payload_mpc.gait import GaitParameters
from payload_mpc.solver import CONSTRAINT_TOLERANCE, SolverOptions, finite_difference_gradient

SURFACE = ContactSurface(-0.2, 0.2, -0.075, 0.075)
CONSTANTS = RobotConstants(mass=1.0)
FEET = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])


def static_refs(horizon=10, gait=None):
    if gait is None:
        gait = np.ones((2, horizon + 1), dtype=int)
    return HorizonReferences(
        com_refs=np.tile([0.0, 0.0, 0.53], (horizon + 1, 1)),
        footstep_refs=np.tile(FEET[:, None, :], (1, horizon + 1, 1)),
        gait=gait,
        contact_orientations=np.tile(np.eye(3), (2, 1, 1)),
    )


def static_problem(gait=None):
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    return build_constrained_mpc(
        state, static_refs(gait=gait), PayloadDisturbance.zero(), Weights(), MpcConfig(),
        CONSTANTS, [SURFACE, SURFACE],
    )


def test_constraint_counts():
    prob = static_problem()
    # double support: 2*5 cone residuals + 2*6 bound residuals per step
    assert prob.constraints_per_step(0) == 22
    assert prob.num_constraints == 120 + 100
    assert prob.dim == 180
    gait = np.ones((2, 11), dtype=int)
    gait[0, 0] = 0
    single = static_problem(gait=gait)
    assert single.constraints_per_step(0) == 17


def test_static_gravity_split():
    prob = static_problem()
    step = baseline_receding_horizon_step(prob)
    for wrench in step.wrenches:
        # symmetry + force balance oracle: half the weight each
        assert wrench[2] == pytest.approx(9.81 / 2, rel=0.01)


def test_solution_respects_stability_conditions():
    # the terminal-stage wrenches sit on the minimum-normal-force boundary
    # (the magnitude regularizer pulls them there), so the feasibility polish
    # needs more than the benchmark iteration budget
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    config = MpcConfig(solver=SolverOptions(max_iterations=400))
    prob = build_constrained_mpc(
        state, static_refs(), PayloadDisturbance.zero(), Weights(), config, CONSTANTS, [SURFACE] * 2
    )
    step = baseline_receding_horizon_step(prob)
    assert step.stats.status == "converged"
    assert step.stats.constraint_violation <= CONSTRAINT_TOLERANCE
    for wrench in step.wrenches:
        margins = is_contact_stable(Wrench.from_array(wrench), SURFACE).margins
        assert margins.min() > -1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    gait = np.ones((2, 11), dtype=int)
    gait[1, 4:8] = 0
    state = CentroidalState(
        np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.2, 6), FEET
    )
    payload = PayloadDisturbance(
        Wrench.from_array(rng.normal(0, 2, 6)), Wrench.zero(),
        state.com_position + [0.2, 0.1, -0.1], state.com_position,
    )
    prob = build_constrained_mpc(
        state, static_refs(gait=gait), payload, Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2
    )
    z = prob.initial_warm_start() + rng.normal(0, 0.5, prob.dim)
    ev = prob.evaluator()
    analytic = prob.gradient(z)
    numeric = finite_difference_gradient(ev, z)
    assert np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-5
    s = rng.uniform(0, 2, prob.num_constraints)
    analytic_c = prob.gradient(z, s)
    numeric_c = finite_difference_gradient(lambda p: ev.value(p)[0] + s @ ev.value(p)[1], z)
    assert np.abs(analytic_c - numeric_c).max() / max(1.0, np.abs(numeric_c).max()) < 1e-5


def test_static_behavior_agrees_with_parametrized():
    # same physics on static double support: first inputs nearly coincide and
    # the closed-loop trajectories stay together.  The parameter regularizer
    # biases the parametrized equilibrium by a few millimetres relative to
    # the baseline (measured 3.3e-3 m), so the agreement threshold records
    # that; the open-loop plan tails differ more (the regularizer lets the
    # tail wrenches defect toward the interior point once tracking no longer
    # pays for it).
    state = CentroidalState([0.0, 0.0, 0.53], np.zeros(6), FEET)
    refs = static_refs()
    base = build_constrained_mpc(
        state, refs, PayloadDisturbance.zero(), Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2
    )
    param = build_mpc_problem(
        state, refs, PayloadDisturbance.zero(), Weights(), MpcConfig(), CONSTANTS, [SURFACE] * 2
    )
    base_step = baseline_receding_horizon_step(base)
    param_step = receding_horizon_step(param)
    assert np.abs(base_step.wrenches - param_step.wrenches).max() < 0.01

    from payload_mpc.gait import GaitParameters
    from payload_mpc.simulation import Scenario, run_closed_loop, with_controller

    scenario = Scenario(duration=2.0, gait=GaitParameters(number_of_steps=0))
    param_log = run_closed_loop(scenario)
    base_log = run_closed_loop(with_controller(scenario, "baseline"))
    assert np.abs(param_log.com - base_log.com).max() < 5e-3


def test_timing_report_identical_controller_ratio():
    report = TimingReport()
    rng = np.random.default_rng(0)
    for tick in range(20):
        ms = float(rng.uniform(50, 60))
        report.append(TickTiming(tick, "param", ms, 10, "converged"))
        report.append(TickTiming(tick, "baseline", ms, 10, "converged"))
    summary = report.summary()
    assert summary["param"]["mean_solve_ms"] == pytest.approx(summary["baseline"]["mean_solve_ms"])
    report.append(TickTiming(20, "baseline", 500.0, 200, "max-iterations"))
    summary = report.summary()
    assert summary["baseline"]["non_converged"] == 1
    assert summary["baseline"]["non_converged_share"] == pytest.approx(1 / 21)
    assert summary["baseline"]["mean_converged_solve_ms"] == pytest.approx(summary["param"]["mean_solve_ms"])
    assert summary["param"]["non_converged_share"] == 0.0
    assert summary["param"]["mean_converged_solve_ms"] == summary["param"]["mean_solve_ms"]


def test_timing_report_no_converged_tick():
    report = TimingReport()
    report.append(TickTiming(0, "baseline", 500.0, 200, "max-iterations"))
    summary = report.summary()["baseline"]
    assert np.isnan(summary["mean_converged_solve_ms"])
    assert summary["non_converged_share"] == 1.0


def test_timing_report_csv(tmp_path):
    report = TimingReport()
    report.append(TickTiming(0, "param", 12.5, 7, "converged"))
    path = tmp_path / "timing.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tick,controller,solve_ms,iterations,status"
    assert lines[1].startswith("0,param,12.5")


def test_compare_timing_runs_validation():
    scenario = Scenario(duration=0.4, gait=GaitParameters(number_of_steps=0))
    with pytest.raises(ConfigurationError):
        compare_timing(scenario, runs=0)


def test_compare_timing_smoke():
    scenario = Scenario(
        duration=0.6,
        gait=GaitParameters(number_of_steps=0),
        mpc=MpcConfig(solver=default_run_solver_options()),
    )
    report = compare_timing(scenario, runs=1)
    summary = report.summary()
    assert set(summary) == {"baseline", "param"}
    assert summary["param"]["ticks"] == 3
    assert summary["baseline"]["ticks"] == 3


def test_compare_timing_shared_trace():
    scenario = Scenario(
        duration=0.6,
        gait=GaitParameters(number_of_steps=0),
        mpc=MpcConfig(solver=default_run_solver_options()),
    )
    report = compare_timing(scenario, runs=1, shared_trace=True)
    assert {r.controller for r in report.rows} == {"param", "baseline"}
    assert len(report.rows) == 6


def test_compare_timing_zero_ticks_empty_report():
    scenario = Scenario(duration=0.1, gait=GaitParameters(number_of_steps=0))  # shorter than one period
    report = compare_timing(scenario, runs=1)
    assert report.rows == []
    assert report.summary() == {}
