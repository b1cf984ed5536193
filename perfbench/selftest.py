#!/usr/bin/env python3
"""Harness self-test: a 1 s slice of every workload, untraced and traced.

Usage: python3 perfbench/selftest.py   (from the checkout root; about a minute)

Checks that every printed metric is declared in BENCHMARK.json with the same
unit, that the traced pass restores every wrapped binding, that each layer a
workload calls reads nonzero and each layer it never calls reads zero, and
that the set-up probe runs.
"""

from __future__ import annotations

import bootstrap

import dataclasses
import json
import sys

from run import END_TO_END, PER_LAYER, end_to_end, gates, per_layer, probe_setup, run_passes
from spans import all_bindings
from workloads import WORKLOADS, make_scenario

SLICE_S = 1.0
# layers a workload never calls; everything else it must exercise
UNUSED = {
    "carry-walk": ("baseline.",),
    "flat-walk": ("baseline.",),
    "flat-walk-baseline": ("mpc.", "contact.", "costs.", "shooting.payload_seeds_us"),
}
# may legitimately read zero anywhere: no failures, or overhead inside the noise
MAY_BE_ZERO = ("solver.nonconverged_frac", "trace.")


def declared() -> dict:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    units = declared()
    problems = []
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        if units.get(name) != unit:
            problems.append(f"{name} [{unit}] is not declared in BENCHMARK.json with that unit")
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in all_bindings()]
    for name in WORKLOADS:
        scenario = dataclasses.replace(make_scenario(name, 0), duration=SLICE_S)
        # untraced, traced, untraced: the determinism gate needs two untraced passes
        plain, tracked, _, clock = run_passes(scenario, 0.0, traced=True, min_passes=3)
        for check, ok, detail in gates(name, 0, False, scenario, plain, tracked, clock):
            if not ok:
                problems.append(f"{name}: gate {check} failed ({detail})")
        restored = all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
        if not restored:
            problems.append(f"{name}: a wrapped binding was not restored after the traced pass")
        values = {**end_to_end(plain, clock, scenario, [probe_setup(name, 0)]), **per_layer(plain, tracked, clock)}
        for key, value in values.items():
            if key.startswith(MAY_BE_ZERO):
                continue
            unused = key.startswith(UNUSED[name])
            if unused and value != 0:
                problems.append(f"{name}: {key} = {value}, but the workload never calls that layer")
            if not unused and not value > 0:
                problems.append(f"{name}: {key} = {value}, expected a positive value")
        print(f"{name}: {len(values)} metrics checked", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
