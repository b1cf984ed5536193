import numpy as np
import pytest

from payload_mpc.errors import ConfigurationError
from payload_mpc.gait import (
    GaitParameters,
    generate_gait_schedule,
    generate_nominal_com_reference,
    payload_from_mass,
)
from payload_mpc.mpc import MpcConfig


def make_params(**kw):
    defaults = dict(
        step_length=0.2,
        step_width=0.2,
        single_support_duration=0.8,
        double_support_duration=0.4,
        number_of_steps=4,
        com_height=0.53,
    )
    defaults.update(kw)
    return GaitParameters(**defaults)


def test_zero_steps_permanent_double_support():
    schedule = generate_gait_schedule(make_params(number_of_steps=0), MpcConfig(), min_ticks=30)
    assert schedule.ticks == 30
    assert np.all(schedule.activity == 1)
    assert np.all(schedule.footstep_refs == schedule.footstep_refs[:, :1, :])


@pytest.mark.parametrize("steps", [0, 1, 4, 7])
@pytest.mark.parametrize("single, double", [(0.8, 0.4), (0.2, 0.2), (1.2, 0.6)])
def test_walk_ticks_is_the_unpadded_schedule_length(steps, single, double):
    params = make_params(number_of_steps=steps, single_support_duration=single, double_support_duration=double)
    config = MpcConfig()
    assert params.walk_ticks(config.dt) == generate_gait_schedule(params, config).ticks


def test_four_steps_final_positions():
    params = make_params()
    schedule = generate_gait_schedule(params, MpcConfig())
    # oracle: four alternating swings each advancing one foot by 0.2 m
    assert schedule.footstep_refs[0, -1, 0] == pytest.approx(0.4)
    assert schedule.footstep_refs[1, -1, 0] == pytest.approx(0.4)
    assert schedule.footstep_refs[0, -1, 1] == pytest.approx(0.1)
    assert schedule.footstep_refs[1, -1, 1] == pytest.approx(-0.1)
    assert np.all(schedule.footstep_refs[:, :, 2] == 0.0)


def test_at_least_one_contact_active():
    schedule = generate_gait_schedule(make_params(), MpcConfig())
    assert (schedule.activity.sum(axis=0) >= 1).all()


def test_swing_phases_alternate():
    schedule = generate_gait_schedule(make_params(number_of_steps=3), MpcConfig())
    singles = [p for p in schedule.phases if p.kind == "single"]
    assert [p.swing_foot for p in singles] == [0, 1, 0]


def test_durations_must_divide_controller_period():
    with pytest.raises(ConfigurationError):
        generate_gait_schedule(make_params(single_support_duration=0.5), MpcConfig())
    with pytest.raises(ConfigurationError):
        generate_gait_schedule(make_params(double_support_duration=0.3), MpcConfig())


def test_support_phase_of_zero_ticks_rejected():
    # 1.2 / 1e308 is within 1e-9 of zero ticks, so the multiple check alone passes it
    with pytest.raises(ConfigurationError, match="shorter than one controller period"):
        make_params(single_support_duration=1.2, double_support_duration=0.6).validate(1e308)
    make_params().validate(0.2)  # the default walk's phases are whole periods


def test_com_reference_constant_in_double_support():
    params = make_params(number_of_steps=0)
    schedule = generate_gait_schedule(params, MpcConfig(), min_ticks=25)
    com = generate_nominal_com_reference(schedule, params)
    assert np.allclose(com[:, 2], 0.53)
    assert np.allclose(com[:, :2], 0.0)  # symmetric stance: midpoint at origin


def test_com_reference_continuity():
    params = make_params()
    schedule = generate_gait_schedule(params, MpcConfig(), min_ticks=60)
    com = generate_nominal_com_reference(schedule, params)
    jumps = np.abs(np.diff(com, axis=0)).max(axis=1)
    ss_ticks = params.single_support_duration / MpcConfig().dt
    # piecewise linear: per-tick motion bounded by the per-phase travel
    assert jumps.max() <= (params.step_length + params.step_width) / ss_ticks + 1e-12


def test_com_reference_targets_stance_foot_in_single_support():
    params = make_params(number_of_steps=1)
    schedule = generate_gait_schedule(params, MpcConfig(), min_ticks=40)
    com = generate_nominal_com_reference(schedule, params)
    swing_phase = next(p for p in schedule.phases if p.kind == "single")
    end = swing_phase.end - 1
    stance = 1 - swing_phase.swing_foot
    assert np.allclose(com[end, :2], schedule.footstep_refs[stance, end, :2], atol=1e-12)


def test_payload_from_mass_zero():
    payload = payload_from_mass(0.0)
    assert np.array_equal(payload.total_force(), [0, 0, 0])


def test_payload_from_mass_split():
    payload = payload_from_mass(1.5)
    # oracle: 1.5 * 9.81 / 2 per grip
    assert payload.left_wrench.force[2] == pytest.approx(-7.3575)
    assert payload.right_wrench.force[2] == pytest.approx(-7.3575)
    assert np.allclose(payload.left_wrench.moment, 0)
    assert np.allclose(payload.left_point, [0.25, 0.1, -0.1325])
    assert np.allclose(payload.right_point, [0.25, -0.1, -0.1325])


def test_payload_from_mass_two_kilograms():
    payload = payload_from_mass(2.0)
    assert payload.total_force()[2] == pytest.approx(-19.62)


def test_payload_from_mass_weighs_the_load_with_the_given_gravity():
    payload = payload_from_mass(1.5, gravity=3.71)
    assert payload.total_force()[2] == pytest.approx(-1.5 * 3.71)
    assert payload.left_wrench.force[2] == payload.right_wrench.force[2]


def test_payload_from_mass_rejects_negative():
    with pytest.raises(ConfigurationError):
        payload_from_mass(-1.0)


def test_payload_translation():
    payload = payload_from_mass(1.0)
    moved = payload.translated([1.0, 2.0, 3.0])
    assert np.allclose(moved.left_point, payload.left_point + [1, 2, 3])
    assert np.array_equal(moved.left_wrench.force, payload.left_wrench.force)
