import csv

import numpy as np
import pytest

from payload_mpc.baseline import BaselineProblem
from payload_mpc.contact import stability_margins
from payload_mpc.dynamics import RobotConstants
from payload_mpc.errors import ConfigurationError
from payload_mpc.gait import GaitParameters
from payload_mpc.simulation import (
    MAX_PLANT_TICKS,
    PayloadSpec,
    Scenario,
    compare_timing,
    default_payload_scenario,
    run_closed_loop,
    with_controller,
)


def quick_scenario(**overrides):
    base = dict(
        gait=GaitParameters(number_of_steps=0),
        duration=2.0,
        payload=PayloadSpec(mass=0.0),
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="module")
def standing_log():
    return run_closed_loop(quick_scenario(duration=10.0))


def test_standing_regulation(standing_log):
    # closed-loop regulation oracle: static force balance holds the CoM at
    # the reference
    log = standing_log
    assert log.completed
    err = np.linalg.norm(log.tracking_error(), axis=1)
    assert err.max() < 0.005


def test_no_flight_invariant(standing_log):
    assert (standing_log.feet_active.sum(axis=1) >= 1).all()


def test_applied_wrenches_always_stable():
    scenario = default_payload_scenario(duration=3.0)
    log = run_closed_loop(scenario)
    assert log.completed
    for t in range(0, len(log.times), 7):
        for i in range(log.n_contacts):
            if log.feet_active[t, i]:
                margins = stability_margins(log.wrenches[t, i], scenario.surface)
                assert margins.min() > 0


def test_active_feet_hold_position():
    log = run_closed_loop(quick_scenario(duration=1.0))
    assert np.array_equal(log.feet[0], log.feet[-1])


def test_determinism_bitwise():
    first = run_closed_loop(quick_scenario())
    second = run_closed_loop(quick_scenario())
    assert np.array_equal(first.com, second.com)
    assert np.array_equal(first.xi, second.xi)
    assert np.array_equal(first.iterations_per_tick, second.iterations_per_tick)


def test_payload_zero_matches_disabled_payload():
    # a zero-mass payload reproduces the undisturbed trajectory exactly
    with_zero = run_closed_loop(quick_scenario(payload=PayloadSpec(mass=0.0)))
    ambient = run_closed_loop(quick_scenario())
    assert np.array_equal(with_zero.com, ambient.com)
    assert np.array_equal(with_zero.momentum, ambient.momentum)


def test_payload_onset_time():
    scenario = quick_scenario(payload=PayloadSpec(mass=1.0, onset_time=1.0), duration=2.0)
    log = run_closed_loop(scenario)
    assert (log.payload_fz_total[log.times < 0.99] == 0).all()
    assert np.allclose(log.payload_fz_total[log.times >= 1.0], -9.81)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        quick_scenario(duration=-1.0).validate()
    with pytest.raises(ConfigurationError):
        quick_scenario(controller="other").validate()
    with pytest.raises(ConfigurationError):
        quick_scenario(plant_dt=0.03).validate()  # does not divide 0.2
    with pytest.raises(ConfigurationError):
        quick_scenario(payload=PayloadSpec(mass=-2.0)).validate()


@pytest.mark.parametrize("spec", [PayloadSpec(mass=np.nan), PayloadSpec(mass=1.5, onset_time=np.nan)])
def test_payload_spec_rejects_nan(spec):
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_run_size_is_bounded():
    # at the bound: 0.2 s periods of 2,000 plant ticks each, 50 periods
    quick_scenario(plant_dt=1e-4, duration=10.0).validate()
    assert 50 * 2000 == MAX_PLANT_TICKS
    with pytest.raises(ConfigurationError, match="plant ticks"):
        quick_scenario(plant_dt=1e-4, duration=10.2).validate()
    with pytest.raises(ConfigurationError, match="plant ticks"):
        quick_scenario(plant_dt=1e-300).validate()
    with pytest.raises(ConfigurationError, match="plant ticks"):
        quick_scenario(duration=1e308).validate()
    quick_scenario(duration=0.05).validate()  # shorter than one period: a valid empty run


def test_with_controller_round_trip():
    scenario = quick_scenario()
    for name in ("param", "baseline", "param-no-td"):
        assert with_controller(scenario, name).controller == name


def test_baseline_controller_runs():
    log = run_closed_loop(quick_scenario(controller="baseline", duration=1.0))
    assert log.completed
    err = np.linalg.norm(log.tracking_error(), axis=1)
    assert err.max() < 0.01


def test_param_no_td_ignores_payload_estimate():
    # payload-blind controller still completes; plant carries the payload
    scenario = default_payload_scenario(
        duration=2.0, gait=GaitParameters(number_of_steps=0), controller="param-no-td"
    )
    log = run_closed_loop(scenario)
    assert log.completed
    aware = run_closed_loop(default_payload_scenario(duration=2.0, gait=GaitParameters(number_of_steps=0)))
    blind_err = np.abs(log.tracking_error()[:, 2]).max()
    aware_err = np.abs(aware.tracking_error()[:, 2]).max()
    assert blind_err > aware_err


def test_csv_export_round_trip(tmp_path):
    scenario = quick_scenario(duration=0.6, payload=PayloadSpec(mass=0.5))
    log = run_closed_loop(scenario)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(log.times)
    header = log.csv_header()
    assert list(rows[0].keys()) == header
    assert header[:13] == [
        "t", "com_x", "com_y", "com_z", "ref_com_x", "ref_com_y", "ref_com_z",
        "hl_x", "hl_y", "hl_z", "hw_x", "hw_y", "hw_z",
    ]
    assert header[-8:] == [
        "d_fz_total", "cost_Th", "cost_Tpc", "cost_Td", "cost_Txi",
        "solve_ms", "iterations", "status",
    ]
    mid = len(rows) // 2
    assert float(rows[mid]["com_z"]) == pytest.approx(log.com[mid, 2], rel=1e-8)
    assert float(rows[mid]["d_fz_total"]) == pytest.approx(-0.5 * 9.81, rel=1e-8)
    assert rows[mid]["status"] in ("converged", "max-iterations", "line-search-failure")
    # every plant row carries its controller tick's solver record
    rows_per_tick = round(scenario.mpc.dt / scenario.plant_dt)
    assert len(rows) == rows_per_tick * len(log.status_per_tick)
    for k, row in enumerate(rows):
        tick = k // rows_per_tick
        assert row["solve_ms"] == f"{log.solve_ms_per_tick[tick]:.3f}"
        assert int(row["iterations"]) == log.iterations_per_tick[tick]
        assert row["status"] == log.status_per_tick[tick]


def test_payload_is_weighed_with_the_configured_gravity():
    mars = RobotConstants(mass=1.0, gravity_vector=[0.0, 0.0, 3.71, 0.0, 0.0, 0.0])
    log = run_closed_loop(quick_scenario(duration=0.2, constants=mars, payload=PayloadSpec(mass=1.5)))
    assert log.completed
    np.testing.assert_allclose(log.payload_fz_total, -1.5 * 3.71, rtol=1e-12)


def test_summary_contents(standing_log):
    summary = standing_log.summary()
    assert summary["completed"] is True
    assert summary["max_horizontal_error_m"] < 0.005
    assert summary["mean_solve_ms"] > 0


def test_active_positions_constant_within_phases():
    scenario = default_payload_scenario(duration=3.0, gait=GaitParameters(number_of_steps=1))
    log = run_closed_loop(scenario)
    assert log.completed
    for i in range(log.n_contacts):
        active = log.feet_active[:, i].astype(bool)
        for t in range(1, len(active)):
            if active[t] and active[t - 1]:
                assert np.array_equal(log.feet[t, i], log.feet[t - 1, i])


def test_summary_counts_non_converged_ticks():
    log = run_closed_loop(default_payload_scenario(duration=1.0))
    expected = sum(status != "converged" for status in log.status_per_tick)
    assert log.summary()["non_converged_ticks"] == expected


def test_shadow_leaves_the_driving_loop_bitwise_alone():
    scenario = default_payload_scenario(duration=1.0)
    plain = run_closed_loop(scenario)
    shadowed = run_closed_loop(scenario, shadow="baseline")
    assert shadowed.completed
    assert shadowed.com.tobytes() == plain.com.tobytes()
    assert shadowed.iterations_per_tick.tobytes() == plain.iterations_per_tick.tobytes()
    assert shadowed.status_per_tick == plain.status_per_tick
    assert plain.shadow_per_tick == []
    assert [(r.tick, r.controller) for r in shadowed.shadow_per_tick] == [(k, "baseline") for k in range(5)]

    report = compare_timing(scenario, shared_trace=True)
    param = [r for r in report.rows if r.controller == "param"]
    assert [r.iterations for r in param] == list(plain.iterations_per_tick)
    assert [r.status for r in param] == plain.status_per_tick
    # one param row, then its shadow's row, per tick
    assert [(r.tick, r.controller) for r in report.rows] == [
        (k, name) for k in range(5) for name in ("param", "baseline")
    ]
    shadow = [(r.iterations, r.status) for r in shadowed.shadow_per_tick]
    assert [(r.iterations, r.status) for r in report.rows if r.controller == "baseline"] == shadow


def test_unknown_shadow_controller_rejected():
    with pytest.raises(ConfigurationError):
        run_closed_loop(quick_scenario(duration=0.2), shadow="x")


def test_a_first_solve_that_cannot_start_from_its_own_guess_is_a_configuration_error(monkeypatch):
    # the baseline's own initial guess rolls out past the blow-up guard: no tick can start
    guess = BaselineProblem.initial_warm_start
    monkeypatch.setattr(BaselineProblem, "initial_warm_start", lambda self: guess(self) + 1e9)
    scenario = default_payload_scenario(duration=0.4)
    message = "the baseline controller cannot start from its own initial guess"
    with pytest.raises(ConfigurationError, match=message):  # driving the plant
        run_closed_loop(with_controller(scenario, "baseline"))
    with pytest.raises(ConfigurationError, match=message):  # shadowing the parametrized controller
        run_closed_loop(scenario, shadow="baseline")
