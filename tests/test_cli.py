import csv
import json

import pytest

from payload_mpc.cli import _DEFAULT_SURFACE, _scenario_from_config, main
from payload_mpc.contact import ContactSurface


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


def test_non_finite_line_search_trial_does_not_end_the_run(tmp_path, capsys):
    # a huge weight overflows the gradient, so line-search trials carry inf and nan parameters
    config = write_config(tmp_path, {"weights": {"q_h": 1e308}, "duration": 0.4})
    code = main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_partial_surface_keeps_the_other_defaults(tmp_path, capsys):
    config = quick_config(tmp_path, surface={"x_min": 0.1}, duration=0.2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    scenario, _, _, _ = _scenario_from_config({"surface": {"x_min": 0.1}})
    assert scenario.surface == ContactSurface(**{**_DEFAULT_SURFACE, "x_min": 0.1})


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
