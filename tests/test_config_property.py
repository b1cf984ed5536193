"""Property: whatever configuration document `simulate` reads, it exits 0, 2 or 3, never with a traceback.

The documents start from a small valid walk and replace a few known keys
with wrong types, wrong shapes, negative or zero values, extreme
magnitudes and non-finite numbers (written as JSON's non-standard `NaN`,
`Infinity` and `-Infinity`), or drop the one required field (`robot.mass`).  The run length
and the gait schedule's length are bounded (`simulation.MAX_PLANT_TICKS`), and
so is the horizon (`mpc.MAX_HORIZON`), so `duration`, `plant_dt`,
`gait.number_of_steps` and `mpc.horizon` are also drawn from extremes: a
huge duration, a tiny valid plant step (1e-300 divides any period), a
duration shorter than one period (an empty run), a step count or a horizon
of 2**40 or 1e12, and a horizon just past its bound or far past it but
within the schedule bound (101, 99990).  The other fields that size the
run are drawn only from small valid values or plainly invalid ones: no range
check bounds the support durations or the iteration budget.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from payload_mpc.cli import main

SMALL_WALK = {
    "duration": 0.4,
    "gait": {"number_of_steps": 2},
    "mpc": {"horizon": 3},
    "solver": {"max_iterations": 20},
}
# BIG is finite, but its square is not: a weight or a mass times g of this
# size overflows the solve's quadratic terms, where HUGE times 9.81 is inf
HUGE, BIG, TINY = 1e308, 1e300, 1e-300
NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN, Infinity and -Infinity
WRONG_TYPE = st.sampled_from(["x", True, None, [], {}, [1, "a"], [[1, 2], [3]], {"a": 1}])
# any number of the right type, with the signs and magnitudes of a bad document
ANY_NUMBER = st.sampled_from([0, 0.0, -1, -1.0, HUGE, -HUGE, BIG, TINY, 0.5, 2, 7, NAN, INF, -INF])


def field(*valid, invalid=(0, -1, -HUGE)):
    """A value for a field that sizes the run: one of `valid`, a plainly invalid number, or a wrong type."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid), WRONG_TYPE)


def number():
    return st.one_of(ANY_NUMBER, WRONG_TYPE)


def vector():
    shapes = [[1.0, 2.0], [0.1, 0.2, 0.3], [1, 2, 3, 4, 5, 6], [[1, 2, 3], [1, 2, 3]], [HUGE] * 3, [-HUGE] * 6]
    return st.one_of(st.sampled_from(shapes), ANY_NUMBER, WRONG_TYPE)


def matrix():
    shapes = [[1.0, 2.0], [1, 2, 3], [1, 2, 3, 4, 5, 6], [[1, 2], [3, 4]], [[1, 2, 3]] * 3, [-1, 1, 1], [HUGE] * 6]
    return st.one_of(st.sampled_from(shapes), ANY_NUMBER, WRONG_TYPE)


FIELDS = {
    # shorter than one period (an empty run), or past the plant-tick bound
    ("duration",): field(0.2, 0.4, TINY, 1e6, HUGE),
    # divisors of the 0.2 s controller period, or plainly not one; the tiny
    # divisors exceed the plant-tick bound
    ("plant_dt",): field(
        0.2, 0.1, 0.05, 0.04, 0.025, 0.02, 0.01, 1e-7, TINY, invalid=(0, -0.01, 0.03, 0.3, HUGE, -HUGE)
    ),
    ("seed",): field(0, 7, invalid=(-1, 2**40)),
    ("controller",): st.one_of(st.sampled_from(["param", "baseline", "param-no-td", "x", ""]), WRONG_TYPE),
    ("output_dir",): WRONG_TYPE,
    ("benchmark_runs",): field(1, 2),
    ("benchmark_shared_trace",): st.one_of(st.booleans(), WRONG_TYPE),
    ("robot", "mass"): number(),
    ("robot", "gravity_vector"): vector(),
    ("gait", "step_length"): number(),
    ("gait", "step_width"): number(),
    ("gait", "com_height"): number(),
    ("gait", "number_of_steps"): field(0, 1, 2, 2**40, 10**12, invalid=(-1, -(2**40), 1.5)),
    ("gait", "single_support_duration"): field(0.2, 0.4, 1.2, invalid=(0, -1, 0.3, HUGE, -HUGE)),
    ("gait", "double_support_duration"): field(0.2, 0.6, invalid=(0, -1, 0.1, HUGE, -HUGE)),
    ("payload", "mass"): number(),
    ("payload", "left_offset"): vector(),
    ("payload", "right_offset"): vector(),
    ("payload", "onset_time"): number(),
    ("mpc", "horizon"): field(1, 2, 3, 101, 99990, 2**40, 10**12, invalid=(0, -1, -(2**40), 2.5)),
    ("mpc", "dt"): field(0.2, 0.1, invalid=(0, -0.2, HUGE, -HUGE)),
    ("mpc", "footstep_bound_lower"): vector(),
    ("mpc", "footstep_bound_upper"): vector(),
    # the bounds have one form, the box, and no mode key: naming one exits 3
    ("mpc", "footstep_bound_mode"): st.just("box"),
    ("solver", "max_iterations"): field(1, 5, 20, invalid=(0, -1, 2.5)),
    ("solver", "kkt_tolerance"): number(),
}
for _key in ("x_min", "x_max", "y_min", "y_max", "mu_c", "mu_z", "fz_min"):
    FIELDS[("surface", _key)] = number()
for _key in ("q_h", "q_c", "q_pc", "q_d", "q_xi", "q_v", "q_force_similarity", "q_wrench_reg"):
    FIELDS[("weights", _key)] = matrix()
SECTIONS = ("robot", "surface", "gait", "payload", "weights", "mpc", "solver")


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(SMALL_WALK))
    paths = draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=4, unique=True))
    for path in paths:
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = draw(FIELDS[path])
    if draw(st.integers(0, 9)) == 0:  # a robot section without its required mass
        doc["robot"] = {k: v for k, v in doc.get("robot", {}).items() if k != "mass"}
    if draw(st.integers(0, 9)) == 0:  # a section that is not an object
        doc[draw(st.sampled_from(SECTIONS))] = draw(WRONG_TYPE.filter(lambda v: not isinstance(v, dict)))
    return doc


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents())
def test_any_config_document_exits_cleanly(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, document, err)
    assert "Traceback" not in err, (document, err)


# numbers past the double range: `json.load` reads `1e400` as inf without
# calling its `parse_constant` hook, and `json.dumps` cannot write one, so
# these documents are raw text
OVERFLOWING = [
    ('"surface": {"x_min": -1e400}', "x_min"),
    ('"surface": {"mu_c": 1e400}', "mu_c"),
    ('"gait": {"step_length": 1e400}', "step_length"),
    ('"mpc": {"footstep_bound_upper": [1e400, 0.05, 0.001]}', "footstep_bound_upper"),
    ('"payload": {"mass": 1.5, "left_offset": [0.25, 1e400, 0.0]}', "left_offset"),
]


@pytest.mark.parametrize("section, name", OVERFLOWING)
def test_overflowing_number_exits_3_naming_its_field(tmp_path, capsys, section, name):
    config = tmp_path / "config.json"
    config.write_text('{"duration": 0.4, ' + section + "}")
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert len(lines) == 1 and name in lines[0] and "must be finite" in lines[0], lines
