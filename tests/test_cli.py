import csv
import json
import warnings

import numpy as np
import pytest

from payload_mpc import mpc, simulation
from payload_mpc.cli import _DEFAULT_SURFACE, _scenario_from_config, main
from payload_mpc.contact import ContactSurface
from payload_mpc.solver import SolverOptions


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def quick_config(tmp_path, **extra):
    data = {
        "payload": {"mass": 1.5},
        "gait": {"number_of_steps": 0},
        "duration": 0.6,
        **extra,
    }
    return write_config(tmp_path, data)


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    config = quick_config(tmp_path)
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "sim_log.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and rows[0]["t"] == "0.000000"
    assert "xi_1_1" in rows[0] and "d_fz_total" in rows[0]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["completed"] is True
    printed = json.loads(capsys.readouterr().out)
    assert printed["completed"] is True


def test_simulate_rejects_invalid_mass(tmp_path, capsys):
    config = write_config(tmp_path, {"robot": {"mass": -1.0}})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "mass" in capsys.readouterr().err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = write_config(tmp_path, {"paylod": {"mass": 1.0}})
    code = main(["simulate", "--config", config])
    assert code == 3
    assert "paylod" in capsys.readouterr().err


def test_simulate_payload_mass_override(tmp_path):
    config = quick_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", config, "--out-dir", str(out), "--payload-mass", "0"])
    assert code == 0
    with open(out / "sim_log.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert all(float(r["d_fz_total"]) == 0.0 for r in rows)


def test_benchmark_two_controllers(tmp_path, capsys):
    config = quick_config(tmp_path)
    code = main(["benchmark", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"baseline", "param"}
    with open(tmp_path / "out" / "timing.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["controller"] for r in rows} == {"baseline", "param"}


def test_benchmark_zero_runs_rejected(tmp_path):
    config = quick_config(tmp_path)
    assert main(["benchmark", "--config", config, "--runs", "0", "--out-dir", str(tmp_path / "o")]) == 3


def test_benchmark_deterministic_iterations(tmp_path, capsys):
    config = quick_config(tmp_path)
    main(["benchmark", "--config", config, "--out-dir", str(tmp_path / "a")])
    first = json.loads(capsys.readouterr().out)
    main(["benchmark", "--config", config, "--out-dir", str(tmp_path / "b")])
    second = json.loads(capsys.readouterr().out)
    for name in ("param", "baseline"):
        assert first[name]["mean_iterations"] == second[name]["mean_iterations"]


def test_verify_param_small_sample(capsys):
    code = main(["verify-param", "--samples", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "coverage" in out


def test_verify_param_moderate_sample(capsys):
    code = main(["verify-param", "--samples", "50000", "--seed", "3"])
    assert code == 0
    assert "0 failures" in capsys.readouterr().out


def test_verify_param_invalid_surface(tmp_path, capsys):
    config = write_config(tmp_path, {"surface": {"x_min": 0.1, "x_max": -0.1, "y_min": -0.05, "y_max": 0.05}})
    code = main(["verify-param", "--samples", "10", "--config", config])
    assert code == 3


@pytest.mark.parametrize(
    "document",
    [{"surfce": {"x_min": -0.3}}, {"surface": {"x_min": -0.3}, "robot": {"mass": -5}}],
    ids=lambda d: json.dumps(d),
)
def test_verify_param_parses_the_whole_config_like_simulate(tmp_path, capsys, document):
    # an unknown key, or an invalid section other than `surface`, is a configuration error
    config = write_config(tmp_path, document)
    code = main(["verify-param", "--samples", "10", "--config", config])
    captured = capsys.readouterr()
    assert code == 3
    assert "PASS" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")


def test_verify_param_with_a_valid_surface_section(tmp_path, capsys):
    config = write_config(tmp_path, {"surface": {"x_min": -0.3}})
    assert main(["verify-param", "--samples", "10", "--config", config]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_param_rejects_a_floor_that_absorbs_the_sampled_normal_force(tmp_path, capsys):
    # exp(xi_3) + 1e300 rounds to 1e300 over the whole sampled xi_3 range, as
    # `simulate` also rejects this surface: a configuration error, not a failure
    config = write_config(tmp_path, {"surface": {"fz_min": 1e300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify-param", "--samples", "10", "--config", config])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ") and "fz_min" in lines[0]


def test_verify_param_zero_samples_rejected():
    assert main(["verify-param", "--samples", "0"]) == 3


def test_verify_param_negative_seed_rejected(capsys):
    # the sampler takes non-negative seeds only; exit 1 is for property failures
    assert main(["verify-param", "--samples", "10", "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["configuration error: seed must be >= 0, got -1"]


def test_simulate_rejects_invalid_solver_option(tmp_path, capsys):
    config = write_config(tmp_path, {"solver": {"max_iterations": 0}})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["configuration error: max_iterations must be >= 1, got 0"]


MISTYPED_CONFIGS = [
    {"solver": {"max_iterations": "abc"}},
    {"robot": {"mass": "abc"}},
    {"mpc": {"horizon": 2.5}},
    {"payload": {"mass": "x"}},
    # a partial surface keeps the other defaults, so only an invalid merge fails
    {"surface": {"x_min": 0.4}},
    {"robot": {}},
    {"mpc": {"footstep_bound_lower": [1, 2]}},
    {"mpc": {"footstep_bound_upper": [[1, 2, 3], [1, 2, 3]]}},
    # a tick ratio that overflows to inf
    {"mpc": {"dt": 1e308}},
    {"gait": {"single_support_duration": 1e308}},
    # support phases that round to zero controller ticks
    {"mpc": {"dt": 1e308}, "plant_dt": 1e308, "duration": 0.4, "gait": {"number_of_steps": 2}},
    # runs past the plant-tick bound
    {"plant_dt": 1e-300},
    {"plant_dt": 1e-7},
    {"duration": 1e308},
    # gait schedules past the same bound
    {"gait": {"number_of_steps": 1000000000000}},
    {"mpc": {"horizon": 1000000000000}},
    # a horizon past mpc.MAX_HORIZON, inside the schedule bound
    {"mpc": {"horizon": 99990}, "duration": 0.4},
    # JSON's non-standard constants, which `json.dumps` writes for non-finite floats
    {"weights": {"q_c": float("nan")}},
    {"solver": {"kkt_tolerance": float("inf")}},
    {"solver": {"kkt_tolerance": float("nan")}},
    {"payload": {"mass": 1.5, "onset_time": float("nan")}},
    # finite surface numbers whose half-extent or squared friction overflows
    {"surface": {"x_min": -1e308, "x_max": 1e308}, "duration": 0.4},
    {"surface": {"mu_c": 1e308}, "duration": 0.4},
    # a finite half-extent whose square, times the weight, overflows the curvature metric
    {"surface": {"x_min": -1e307, "x_max": 1e307}, "duration": 0.4},
    # a finite weight m g_z whose square, in the curvature metric, overflows
    {"robot": {"mass": 1e300}, "duration": 0.4},
    {"robot": {"mass": 1.0, "gravity_vector": [0, 0, -1e200, 0, 0, 0]}, "duration": 0.4},
    # finite task weights whose squares, in the solver's L-BFGS pair products, overflow
    {"weights": {"q_h": 1e300}, "duration": 0.4},
    {"weights": {"q_c": 1e160}, "duration": 0.4},
    # vectors of the right element count in the wrong shape
    {"payload": {"mass": 1.5, "left_offset": [[0.25], [0.1], [-0.1]]}, "duration": 0.4},
    {"robot": {"mass": 33.0, "gravity_vector": [[0], [0], [-9.81], [0], [0], [0]]}, "duration": 0.4},
    # finite numbers whose first solve has no finite objective at its own initial guess
    {"robot": {"mass": 1e150}, "duration": 0.4},
    {"payload": {"mass": 1e150}, "duration": 0.4},
    {"gait": {"step_length": 1e300}, "duration": 0.4},
    {"surface": {"fz_min": 1e300}, "duration": 0.4},
]


@pytest.mark.parametrize("document", MISTYPED_CONFIGS, ids=lambda d: json.dumps(d))
def test_simulate_rejects_bad_config_with_one_line(tmp_path, capsys, document):
    config = write_config(tmp_path, document)
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")


# solver settings that are constants, not options
FIXED_SOLVER_SETTINGS = [
    ("constraint_tolerance", 1e-8),
    ("penalty_init", 10.0),
    ("penalty_growth", 10.0),
    ("max_outer_iterations", 15),
    ("lbfgs_memory", 10),
    ("armijo_coefficient", 1e-4),
    ("backtrack_factor", 0.5),
    ("max_line_search_steps", 40),
]


@pytest.mark.parametrize("key, value", FIXED_SOLVER_SETTINGS, ids=[key for key, _ in FIXED_SOLVER_SETTINGS])
def test_simulate_rejects_fixed_solver_settings(tmp_path, capsys, key, value):
    config = write_config(tmp_path, {"solver": {key: value}, "duration": 0.4})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.strip().splitlines() == [f"configuration error: unknown configuration key solver.{key}"]


def test_simulate_rejects_a_footstep_bound_mode(tmp_path, capsys):
    # the footstep bounds have one form, a per-axis box, and no mode to choose
    config = write_config(tmp_path, {"mpc": {"footstep_bound_mode": "box"}, "duration": 0.4})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    expected = ["configuration error: unknown configuration key mpc.footstep_bound_mode"]
    assert capsys.readouterr().err.strip().splitlines() == expected


def test_non_finite_line_search_trial_does_not_end_the_run(tmp_path, capsys, monkeypatch):
    # an overflowed gradient entry puts inf parameters into its line-search
    # trials; weights that large are configuration errors, so the first
    # gradient of the run is overflowed here
    gradient, input_factors = mpc.ShootingProblem.gradient, mpc.HorizonProblem._input_factors
    overflowed, non_finite_trials = [], []

    def overflowed_once(self, z, constraint_weights=None):
        grad = gradient(self, z, constraint_weights)
        if not overflowed:
            grad[0] = np.inf
            overflowed.append(z)
        return grad

    def counting(self, xi):
        if not np.isfinite(xi).all():
            non_finite_trials.append(xi)
        return input_factors(self, xi)

    monkeypatch.setattr(mpc.ShootingProblem, "gradient", overflowed_once)
    monkeypatch.setattr(mpc.HorizonProblem, "_input_factors", counting)
    config = write_config(tmp_path, {"duration": 0.4})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert non_finite_trials
    assert "Traceback" not in capsys.readouterr().err


def test_partial_surface_keeps_the_other_defaults(tmp_path, capsys):
    config = quick_config(tmp_path, surface={"x_min": 0.1}, duration=0.2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    scenario, _, _, _ = _scenario_from_config({"surface": {"x_min": 0.1}})
    assert scenario.surface == ContactSurface(**{**_DEFAULT_SURFACE, "x_min": 0.1})


def test_partial_solver_keeps_the_run_defaults():
    run = simulation.default_run_solver_options()
    for section, want in (
        ({}, run),
        ({"max_iterations": 100}, SolverOptions(max_iterations=100, kkt_tolerance=run.kkt_tolerance)),
        ({"kkt_tolerance": 1e-4}, SolverOptions(max_iterations=run.max_iterations, kkt_tolerance=1e-4)),
    ):
        scenario, _, _, _ = _scenario_from_config({"solver": section})
        assert scenario.mpc.solver == want, section
    assert run == SolverOptions(max_iterations=200, kkt_tolerance=3e-3)


def test_simulate_reports_non_converged_ticks(tmp_path, capsys):
    config = quick_config(tmp_path, solver={"max_iterations": 5})
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "sim_log.csv") as handle:
        rows = list(csv.DictReader(handle))
    substeps = 20  # plant rows per controller tick: 0.2 s / 0.01 s
    expected = sum(r["status"] != "converged" for r in rows[::substeps])
    assert expected > 0  # five iterations cannot converge a carry tick
    assert printed["non_converged_ticks"] == summary["non_converged_ticks"] == expected
