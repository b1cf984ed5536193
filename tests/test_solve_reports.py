"""What a solve reports: its evaluation counters, and a start it cannot use.

`SolverResult` counts the evaluator's value and gradient calls and the
line-search backtracks, and `SimLog` keeps them per tick.  A warm start whose
objective is not finite raises `NonFiniteStartError`, which is a
`SolverFailure`, so a closed loop ends the run with the reason and the CLI
exits 2 instead of printing a traceback.
"""

import dataclasses
import json

import numpy as np
import pytest

from payload_mpc import mpc
from payload_mpc.baseline import BaselineProblem, baseline_receding_horizon_step, build_constrained_mpc
from payload_mpc.cli import main
from payload_mpc.contact import ContactSurface
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench
from payload_mpc.errors import NonFiniteStartError, SolverFailure
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem, receding_horizon_step
from payload_mpc.simulation import default_payload_scenario, run_closed_loop
from payload_mpc.solver import SolverOptions, solve

SURFACE = ContactSurface(-0.2, 0.2, -0.075, 0.075)
FEET = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
CONTROLLERS = {
    "param": (build_mpc_problem, receding_horizon_step),
    "baseline": (build_constrained_mpc, baseline_receding_horizon_step),
}


def make_problem(controller, max_iterations=60):
    rng = np.random.default_rng(3)
    gait = np.ones((2, 11), dtype=int)
    gait[1, 2:6] = 0
    state = CentroidalState(np.array([0, 0, 0.53]), rng.normal(0, 0.1, 6), FEET)
    refs = HorizonReferences(
        np.tile([0.05, 0, 0.53], (11, 1)),
        np.tile(FEET[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
        gait,
        np.tile(np.eye(3), (2, 1, 1)),
    )
    payload = PayloadDisturbance(
        Wrench.from_array(rng.normal(0, 2, 6)), Wrench.from_array(rng.normal(0, 2, 6)),
        np.array([0.2, 0.1, 0.6]), np.array([0.2, -0.1, 0.6]),
    )
    config = MpcConfig(solver=SolverOptions(max_iterations=max_iterations))
    build, _ = CONTROLLERS[controller]
    return build(state, refs, payload, Weights(), config, RobotConstants(mass=1.0), [SURFACE, SURFACE])


def counted(nlp):
    counts = {"value": 0, "gradient": 0}

    def value(z):
        counts["value"] += 1
        return nlp.value(z)

    def gradient(z, s=None):
        counts["gradient"] += 1
        return nlp.gradient(z, s)

    return dataclasses.replace(nlp, value=value, gradient=gradient), counts


# -- evaluation counters ----------------------------------------------------------


@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
@pytest.mark.parametrize("max_iterations", [3, 60])
def test_counters_match_a_counting_evaluator(controller, max_iterations):
    problem = make_problem(controller, max_iterations)
    nlp, counts = counted(problem.evaluator())
    result = solve(nlp, problem.initial_warm_start(), problem.config.solver)
    assert result.value_evaluations == counts["value"]
    assert result.gradient_evaluations == counts["gradient"]
    assert 0 < result.gradient_evaluations <= result.value_evaluations
    assert result.iterations <= max_iterations
    # every value earns a gradient except the solve's first, each inner
    # loop's last, and the trial steps that were cut back
    outer = len(result.outer_violations)
    assert result.value_evaluations - result.gradient_evaluations == 1 + outer + result.backtracks


def test_sim_log_keeps_counters_per_tick(tmp_path):
    log = run_closed_loop(default_payload_scenario(duration=0.6))
    ticks = len(log.status_per_tick)
    for name in ("value_evaluations", "gradient_evaluations", "backtracks"):
        assert len(getattr(log, f"{name}_per_tick")) == ticks
    assert np.all(log.gradient_evaluations_per_tick <= log.value_evaluations_per_tick)
    summary = log.summary()
    assert summary["mean_value_evaluations"] == float(np.mean(log.value_evaluations_per_tick))
    assert summary["mean_gradient_evaluations"] == float(np.mean(log.gradient_evaluations_per_tick))
    assert summary["mean_value_evaluations"] > summary["mean_iterations"]
    log.to_csv(tmp_path / "sim_log.csv")
    header = (tmp_path / "sim_log.csv").read_text().splitlines()[0]
    assert header == ",".join(log.csv_header())
    assert "evaluations" not in header


# -- a warm start with no finite objective ----------------------------------------


def test_non_finite_start_error_is_both_kinds():
    assert issubclass(NonFiniteStartError, SolverFailure)
    assert issubclass(NonFiniteStartError, ValueError)


@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_steppers_raise_solver_failure_on_a_non_finite_warm_start(controller):
    problem = make_problem(controller)
    _, step = CONTROLLERS[controller]
    warm = problem.initial_warm_start()
    if controller == "param":
        xi, vel = problem.decode(warm)
        xi = xi.copy()
        xi[..., 2] = 60.0  # past the merit guard: the objective is inf
        warm = problem.encode(xi, vel)
    else:
        warm = warm + 1e9  # the rollout blows up past the guard: inf
    with pytest.raises(SolverFailure, match="not finite"):
        step(problem, warm)


def poison_the_warm_start(monkeypatch):
    shift = mpc.HorizonProblem.shift_warm_start

    def poisoned(self, z):
        xi, vel = self.decode(shift(self, z))
        xi = xi.copy()
        xi[..., 2] = 60.0
        return self.encode(xi, vel)

    monkeypatch.setattr(mpc.HorizonProblem, "shift_warm_start", poisoned)


def test_closed_loop_ends_on_a_non_finite_warm_start(monkeypatch):
    poison_the_warm_start(monkeypatch)
    log = run_closed_loop(default_payload_scenario(duration=0.4))
    assert log.completed is False
    assert "not finite" in log.failure_reason
    assert len(log.status_per_tick) == 1  # the first tick solved from its own guess
    assert len(log.value_evaluations_per_tick) == 1


def test_shadow_failure_ends_the_run(monkeypatch):
    shift = mpc.ShootingProblem.shift_warm_start
    monkeypatch.setattr(BaselineProblem, "shift_warm_start", lambda self, z: shift(self, z) + 1e9)
    log = run_closed_loop(default_payload_scenario(duration=0.4), shadow="baseline")
    assert log.completed is False
    assert "not finite" in log.failure_reason
    assert len(log.status_per_tick) == 1
    assert len(log.shadow_per_tick) == 1
    assert len(log.com) == len(log.times) == 20


def test_cli_exits_2_on_a_non_finite_warm_start(tmp_path, capsys, monkeypatch):
    poison_the_warm_start(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"payload": {"mass": 1.5}, "gait": {"number_of_steps": 0}, "duration": 0.4}))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "not finite" in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["completed"] is False


@pytest.mark.parametrize("mode", [[], ["--shared-trace"]], ids=["closed-loops", "shared-trace"])
def test_shared_trace_benchmark_exits_2_on_a_non_finite_warm_start(tmp_path, capsys, monkeypatch, mode):
    poison_the_warm_start(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"payload": {"mass": 1.5}, "gait": {"number_of_steps": 0}, "duration": 0.4}))
    code = main(["benchmark", "--config", str(config), "--out-dir", str(tmp_path / "out")] + mode)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["solver failure: objective is not finite at the initial point"]
