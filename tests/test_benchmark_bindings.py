"""The bindings that `perfbench/` replaces are where it looks for them.

`perfbench/spans.py` wraps a function by replacing `owner.__dict__[attr]`,
and `perfbench/setup_probe.py` replaces the two step functions in
`simulation`.  A binding that only a base class holds, or a function a
module no longer looks up through its globals, stops the benchmark or makes
it time nothing, while every other test passes.  This module imports the
harness read-only and runs one short tick of each benchmark workload under
both of its contexts, and runs `perfbench/run.py` itself end to end: every
gate, the exact seed-0 iteration and convergence counts included, must pass.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
from workloads import make_scenario  # noqa: E402

from payload_mpc import simulation  # noqa: E402

WORKLOADS = ("carry-walk", "flat-walk-baseline")
STEPPERS = [(simulation, "receding_horizon_step"), (simulation, "baseline_receding_horizon_step")]


def bindings():
    return spans.all_bindings() + STEPPERS


@pytest.mark.parametrize("owner, attr", bindings(), ids=lambda v: getattr(v, "__name__", v))
def test_binding_is_in_its_owners_own_namespace(owner, attr):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is inherited or missing"


def one_tick(name):
    return simulation.run_closed_loop(dataclasses.replace(make_scenario(name, 0), duration=0.2))


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_records_the_solver_layers_and_restores(name):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in bindings()]
    with spans.Tracer() as tracer:
        log = one_tick(name)
    assert log.completed
    layer = "baseline" if name.endswith("baseline") else "mpc"
    for span in (f"{layer}.evaluator", f"{layer}.value", f"{layer}.gradient", "solver.solve", "shooting.rollout"):
        assert span in tracer.names, span
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


@pytest.mark.parametrize("name", WORKLOADS)
def test_clock_stamps_every_evaluation_and_restores(name):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in bindings()]
    clock = spans.Clock()
    with clock:
        log = one_tick(name)
    assert log.completed
    assert len(clock.steps) == 1  # one controller step
    entry, exit = clock.steps[0]
    evaluations = log.ticks[0].value_evaluations + log.ticks[0].gradient_evaluations
    assert exit - entry == evaluations + 1  # a stamp per value and gradient, then the step's exit
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


# `--trace 1` runs every span and every gate; `--trace 0` runs the clock and
# the setup probe's stepper replacement
@pytest.mark.parametrize(
    "name, trace", [("carry-walk", 1), ("flat-walk-baseline", 1), ("flat-walk-baseline", 0)]
)
def test_benchmark_run_passes_every_gate(tmp_path, name, trace):
    # run from a scratch directory: the benchmark writes `.perfbench_out/` into its working directory
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
