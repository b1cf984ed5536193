#!/usr/bin/env python3
"""In-process per-tick A/B timing of two checkouts of payload-mpc.

Imports `payload_mpc` and `perfbench/workloads.py` from a base checkout and
from the checkout this script sits in, under distinct module names in one
process with one BLAS thread.  For each benchmark slice (carry-walk and
flat-walk-baseline, each at seeds 0 and 7), each tree runs the slice once
through its `run_closed_loop`, keeping every tick's problem-builder
arguments and warm start; then, round after round, every tick is rebuilt and
solved by both trees in alternating order, and each tick's time is its
fastest solve over the rounds.  Whole passes drift by up to 1.5x within
minutes on a shared host; two solves of the same tick a few milliseconds
apart see nearly the same host phase.  For every slice it records the
per-tick fastest solve, the iterations, the status counts and the
evaluation counters, together with the numpy and BLAS versions, the CPU
count and the load average.  Every solve's iterate, objective, status and
counters must be bitwise the same in both trees (exit 1 otherwise).

    python3 scripts/ab_bench.py --base /path/to/base/checkout --base-label f252976 \\
        --rounds 30 --out BENCH_label.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CASES = (("carry-walk", 0), ("carry-walk", 7), ("flat-walk-baseline", 0), ("flat-walk-baseline", 7))


def _load(name: str, path: Path, package: bool):
    location = path / "__init__.py" if package else path
    spec = importlib.util.spec_from_file_location(
        name, location, submodule_search_locations=[str(path)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One checkout's `run_closed_loop` and `make_scenario`, imported under its own names."""

    def __init__(self, label: str, root: Path):
        self.label = label
        prefix = f"payload_mpc_{label}"
        package = _load(prefix, root / "src" / "payload_mpc", package=True)
        # workloads.py imports `payload_mpc.<module>`: point that name at this
        # tree while it loads, then take the alias away again
        saved = {k: v for k, v in sys.modules.items() if k == "payload_mpc" or k.startswith("payload_mpc.")}
        for key in saved:
            del sys.modules[key]
        sys.modules["payload_mpc"] = package
        for key, module in list(sys.modules.items()):
            if key.startswith(prefix + "."):
                sys.modules["payload_mpc" + key[len(prefix):]] = module
        try:
            workloads = _load(f"workloads_{label}", root / "perfbench" / "workloads.py", package=False)
        finally:
            for key in [k for k in sys.modules if k == "payload_mpc" or k.startswith("payload_mpc.")]:
                del sys.modules[key]
            sys.modules.update(saved)
        self.simulation = sys.modules[prefix + ".simulation"]
        self.run_closed_loop = self.simulation.run_closed_loop
        self.make_scenario = workloads.make_scenario

    def capture(self, workload: str, seed: int) -> list:
        """(builder, its arguments, stepper, warm start) of every tick of one closed loop of the slice."""
        sim = self.simulation
        ticks, pending = [], {}
        names = ("build_mpc_problem", "build_constrained_mpc", "receding_horizon_step", "baseline_receding_horizon_step")
        originals = {name: getattr(sim, name) for name in names}

        def builder(name):
            def build(*args):
                problem = originals[name](*args)
                pending[id(problem)] = (originals[name], args)
                return problem

            return build

        def stepper(name):
            def step(problem, warm=None):
                build, args = pending.pop(id(problem))
                ticks.append((build, args, originals[name], None if warm is None else np.array(warm)))
                return originals[name](problem, warm)

            return step

        for name in names:
            setattr(sim, name, builder(name) if "build" in name else stepper(name))
        try:
            self.run_closed_loop(self.make_scenario(workload, seed, full=False))
        finally:
            for name, fn in originals.items():
                setattr(sim, name, fn)
        return ticks


def solve_tick(tick) -> tuple:
    """Rebuild one captured tick's problem and solve it: (seconds, bitwise fingerprint, stats)."""
    build, args, step, warm = tick
    problem = build(*args)
    start = time.perf_counter()
    result = step(problem, warm)
    elapsed = time.perf_counter() - start
    stats = result.stats
    counts = tuple(getattr(stats, name, None) for name in ("value_evaluations", "gradient_evaluations", "backtracks"))
    fingerprint = (
        stats.z.tobytes(),
        np.float64(stats.objective).tobytes(),
        stats.iterations,
        stats.status,
        counts,
        result.warm_start.tobytes(),
    )
    return elapsed, fingerprint, stats


def environment() -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy: no dict mode, or another layout
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_ticks(trees, rounds: int) -> tuple:
    """Per-tick alternating solves of every case; returns (records, identical)."""
    records, identical = [], True
    for workload, seed in CASES:
        captured = {t.label: t.capture(workload, seed) for t in trees}
        same = len(captured["base"]) == len(captured["change"])
        n_ticks = min(len(captured["base"]), len(captured["change"]))
        fastest = {t.label: np.full(n_ticks, np.inf) for t in trees}
        stats = {}
        for round_ in range(rounds + 1):  # round 0 warms up and is not timed
            for tick in range(n_ticks):
                order = trees if (round_ + tick) % 2 == 0 else trees[::-1]
                prints = {}
                for tree in order:
                    elapsed, prints[tree.label], stats[tree.label, tick] = solve_tick(captured[tree.label][tick])
                    if round_:
                        fastest[tree.label][tick] = min(fastest[tree.label][tick], 1e3 * elapsed)
                same &= prints["base"] == prints["change"]
        identical &= same
        record = {"workload": workload, "seed": seed, "identical_results": same, "rounds": rounds}
        for tree in trees:
            ticks = [stats[tree.label, k] for k in range(n_ticks)]
            record[tree.label] = {
                "tick_solve_ms_fastest": [round(float(v), 3) for v in fastest[tree.label]],
                "sum_ms": float(fastest[tree.label].sum()),
                "tick_solve_ms_p50": float(np.median(fastest[tree.label])),
                "iterations": [int(s.iterations) for s in ticks],
                "mean_iterations": float(np.mean([s.iterations for s in ticks])),
                "status_counts": dict(Counter(s.status for s in ticks)),
                "mean_value_evaluations": float(np.mean([s.value_evaluations for s in ticks])),
                "mean_gradient_evaluations": float(np.mean([s.gradient_evaluations for s in ticks])),
            }
        ratios = fastest["change"] / fastest["base"]
        record["sum_ratio"] = record["change"]["sum_ms"] / record["base"]["sum_ms"]
        record["tick_p50_ratio"] = record["change"]["tick_solve_ms_p50"] / record["base"]["tick_solve_ms_p50"]
        record["tick_ratios"] = [round(float(r), 4) for r in ratios]
        record["change_faster_ticks"] = int((ratios < 1.0).sum())
        records.append(record)
        base, change = record["base"], record["change"]
        print(
            f"{workload} seed={seed}: sum of tick minima {base['sum_ms']:.1f} -> {change['sum_ms']:.1f} ms "
            f"({record['sum_ratio']:.3f}), tick p50 {base['tick_solve_ms_p50']:.1f} -> "
            f"{change['tick_solve_ms_p50']:.1f} ms, faster ticks {record['change_faster_ticks']}/{n_ticks}, "
            f"iterations {base['mean_iterations']:.1f} / {change['mean_iterations']:.1f}, identical={same}"
        )
        sys.stdout.flush()
    return records, identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="root of the base checkout")
    parser.add_argument("--base-label", default="base", help="name of the base tree in the output")
    parser.add_argument("--rounds", type=int, default=10, help="timed solves of every tick per tree")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    trees = (Tree("base", Path(args.base).resolve()), Tree("change", ROOT))
    env_start = environment()
    records, identical = run_ticks(trees, args.rounds)
    if args.out:
        out = {
            "script": "scripts/ab_bench.py",
            "base": args.base_label,
            "rounds": args.rounds,
            "env_start": env_start,
            "env_end": environment(),
            "identical_results": identical,
            "cases": records,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if not identical:
        print("FAIL: the trees' solve results differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
