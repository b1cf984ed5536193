#!/usr/bin/env python3
"""In-process A/B timing of two checkouts of payload-mpc.

Imports `payload_mpc` and `perfbench/workloads.py` from a base checkout and
from the checkout this script sits in, under distinct module names in one
process with one BLAS thread.  It then runs passes of the benchmark slices
(carry-walk and flat-walk-baseline, each at seeds 0 and 7) through each
tree's `run_closed_loop`, alternating which tree goes first from pass to
pass, so that both see the same host phases.  For every slice it records the
min and median pass wall, the per-tick solve time (fastest over the passes),
the iterations, the status counts and, where a tree reports them, the
evaluation counters, together with the numpy and BLAS versions, the CPU count
and the load average.  It exits 1 when the two trees' iteration, status or
CoM logs differ, or when one tree's passes are not bitwise alike.

    python3 scripts/ab_bench.py --base /path/to/base/checkout --base-label f252976 \\
        --rounds 12 --out BENCH_label.json
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
        self.run_closed_loop = sys.modules[prefix + ".simulation"].run_closed_loop
        self.make_scenario = workloads.make_scenario

    def run(self, workload: str, seed: int):
        scenario = self.make_scenario(workload, seed, full=False)
        start = time.perf_counter()
        log = self.run_closed_loop(scenario)
        return time.perf_counter() - start, log


def fingerprint(log) -> tuple:
    return (
        tuple(int(i) for i in log.iterations_per_tick),
        tuple(log.status_per_tick),
        np.ascontiguousarray(log.com).tobytes(),
    )


def counters(log) -> dict:
    """Mean evaluation counters per tick, for a tree whose `SimLog` has them."""
    out = {}
    for name in ("value_evaluations", "gradient_evaluations", "backtracks"):
        values = getattr(log, f"{name}_per_tick", None)
        if values is not None:
            out[f"mean_{name}"] = float(np.mean(values))
    return out


def summarize(walls: list, tick_ms: list, log) -> dict:
    fastest = np.min(np.array(tick_ms), axis=0)
    return {
        "passes": len(walls),
        "pass_s_min": float(np.min(walls)),
        "pass_s_median": float(np.median(walls)),
        "tick_solve_ms_fastest": [round(float(v), 3) for v in fastest],
        "tick_solve_ms_p50": float(np.median(fastest)),
        "iterations": [int(i) for i in log.iterations_per_tick],
        "mean_iterations": float(np.mean(log.iterations_per_tick)),
        "status_counts": dict(Counter(log.status_per_tick)),
        **counters(log),
    }


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="root of the base checkout")
    parser.add_argument("--base-label", default="base", help="name of the base tree in the output")
    parser.add_argument("--rounds", type=int, default=10, help="timed passes per tree and slice")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    trees = (Tree("base", Path(args.base).resolve()), Tree("change", ROOT))
    env_start = environment()
    records, identical = [], True
    for index, (workload, seed) in enumerate(CASES):
        for tree in trees:  # warm-up pass, not timed
            tree.run(workload, seed)
        walls = {t.label: [] for t in trees}
        ticks = {t.label: [] for t in trees}
        prints = {t.label: set() for t in trees}
        logs = {}
        for round_ in range(args.rounds):
            order = trees if (round_ + index) % 2 == 0 else trees[::-1]
            for tree in order:
                wall, log = tree.run(workload, seed)
                walls[tree.label].append(wall)
                ticks[tree.label].append(log.solve_ms_per_tick)
                prints[tree.label].add(fingerprint(log))
                logs[tree.label] = log
        same = len(prints["base"]) == 1 and prints["base"] == prints["change"]
        identical &= same
        base, change = (summarize(walls[t.label], ticks[t.label], logs[t.label]) for t in trees)
        ratios = np.array(walls["change"]) / np.array(walls["base"])
        record = {
            "workload": workload,
            "seed": seed,
            "identical_logs": same,
            "base": base,
            "change": change,
            "pass_min_ratio": change["pass_s_min"] / base["pass_s_min"],
            "paired_ratio_median": float(np.median(ratios)),
            "change_faster_pairs": int((ratios < 1.0).sum()),
            "tick_p50_ratio": change["tick_solve_ms_p50"] / base["tick_solve_ms_p50"],
        }
        records.append(record)
        print(
            f"{workload} seed={seed}: pass min {base['pass_s_min']:.3f} -> {change['pass_s_min']:.3f} s, "
            f"tick p50 {base['tick_solve_ms_p50']:.1f} -> {change['tick_solve_ms_p50']:.1f} ms, "
            f"paired ratio {record['paired_ratio_median']:.3f}, faster {record['change_faster_pairs']}/{args.rounds}, "
            f"iterations {base['mean_iterations']:.1f} / {change['mean_iterations']:.1f}, identical={same}"
        )
        sys.stdout.flush()
    if args.out:
        out = {
            "script": "scripts/ab_bench.py",
            "base": args.base_label,
            "rounds": args.rounds,
            "env_start": env_start,
            "env_end": environment(),
            "identical_logs": identical,
            "cases": records,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if not identical:
        print("FAIL: the trees' iteration, status or CoM logs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
