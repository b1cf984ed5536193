"""Benchmark workloads: seeded closed-loop scenarios for `run_closed_loop`.

Each workload turns a seed into one `Scenario`; the program receives nothing
else.  Seed 0 is exactly the scenario of the acceptance suite, other seeds
perturb the input properties the controller's behaviour depends on.  A run
measures a prefix of the scenario (`slice_s` simulated seconds): the gait
schedule covers the whole walk whatever the duration, so the prefix ticks are
bitwise the first ticks of the full walk.  The slices are short (2-3 s of
wall time a pass) so that a run makes 15-20 passes, which the per-segment
minimum of `run.py` needs; `--full` runs the whole scenario instead.

BENCHMARK.json lists carry-walk and flat-walk-baseline only: between them they
call every layer, and the run budget allows two workloads at a run length of
55 s.  flat-walk stays runnable by hand for the criterion-7 comparison and the
easy-tick regime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from payload_mpc.contact import ContactSurface
from payload_mpc.gait import DEFAULT_LEFT_GRIP, DEFAULT_RIGHT_GRIP, GaitParameters
from payload_mpc.simulation import PayloadSpec, Scenario, default_payload_scenario


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full_s: float  # simulated seconds of the acceptance scenario
    slice_s: float  # simulated seconds measured per pass
    # exact seed-0 counts (ticks, mean iterations, non-converged ticks) of the
    # full scenario and of the measured slice; `run.py` checks both
    full_counts: tuple
    slice_counts: tuple


def carry_walk(seed: int, duration: float) -> Scenario:
    if seed == 0:
        return default_payload_scenario(duration=duration)
    rng = np.random.default_rng(seed)
    mass = rng.uniform(1.4, 1.6)
    shift = rng.uniform(-0.02, 0.02)
    left = (DEFAULT_LEFT_GRIP[0] + shift,) + DEFAULT_LEFT_GRIP[1:]
    right = (DEFAULT_RIGHT_GRIP[0] + shift,) + DEFAULT_RIGHT_GRIP[1:]
    return default_payload_scenario(
        duration=duration, seed=seed, payload=PayloadSpec(mass=mass, left_offset=left, right_offset=right)
    )


def flat_walk(seed: int, duration: float) -> Scenario:
    # the criterion-7 timing scenario: wide surface, 16 steps, no payload
    gait = GaitParameters(number_of_steps=16)
    if seed != 0:
        rng = np.random.default_rng(seed)
        gait = dataclasses.replace(gait, step_length=gait.step_length + rng.uniform(-0.003, 0.003))
    return Scenario(
        duration=duration,
        surface=ContactSurface(-0.2, 0.2, -0.075, 0.075),
        gait=gait,
        seed=seed,
    )


def flat_walk_baseline(seed: int, duration: float) -> Scenario:
    return dataclasses.replace(flat_walk(seed, duration), controller="baseline")


WORKLOADS = {
    "carry-walk": (
        Workload(
            "carry-walk",
            "headline 1.5 kg carry: payload layer and contact map busiest, hard solver regime "
            "with many ticks at the iteration budget",
            # the slice: 178.8 iterations a tick and 2/5 ticks at the budget, against
            # 147.9 and 11/43 for the whole walk, whose last 8 ticks stand still at
            # about 40 iterations
            full_s=8.6,
            slice_s=1.0,
            full_counts=(43, 147.88372093023256, 11),
            slice_counts=(5, 178.8, 2),
        ),
        carry_walk,
    ),
    "flat-walk": (
        Workload(
            "flat-walk",
            "criterion-7 walk with the param controller: easy ticks, so per-tick fixed costs "
            "(problem build, metric, plant, audit) weigh most",
            # slice: 72.3 iterations a tick and 0/10 ticks at the budget; whole walk 65.5, 0/150
            full_s=30.0,
            slice_s=2.0,
            full_counts=(150, 65.46666666666667, 0),
            slice_counts=(10, 72.3, 0),
        ),
        flat_walk,
    ),
    "flat-walk-baseline": (
        Workload(
            "flat-walk-baseline",
            "same walk with the constrained baseline: never calls the contact map or payload "
            "layer, so changes there must show no change here",
            # slice: 200.0 iterations a tick and 5/5 ticks at the budget; whole walk 197.8,
            # 131/150
            full_s=30.0,
            slice_s=1.0,
            full_counts=(150, 197.84666666666666, 131),
            slice_counts=(5, 200.0, 5),
        ),
        flat_walk_baseline,
    ),
}


def make_scenario(name: str, seed: int, full: bool = False) -> Scenario:
    workload, build = WORKLOADS[name]
    return build(seed, workload.full_s if full else workload.slice_s)
