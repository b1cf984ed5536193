#!/usr/bin/env python3
"""Bitwise fingerprints of whole closed-loop walks.

Runs the full benchmark walks (`perfbench/workloads.py`) and prints, per
walk, its tick count, mean iterations and non-converged ticks, and a sha256
over the bytes of the per-tick iterations and statuses and of every
per-plant-tick log that `SimLog.to_csv` writes (times, CoM and its reference,
momentum, feet, their references and activity flags, applied wrenches, wrench
parameters, the payload's total vertical force and the costs), with a short
digest of each of those logs below it.  `flat-walk-shared` is the
shared-trace timing comparison on the flat walk instead: its digest covers
the `(tick, controller, iterations, status)` rows of
`compare_timing(..., shared_trace=True)`, in order.  Two source trees that
print the same lines computed every iterate bitwise alike, which is how a
change meant to leave the arithmetic untouched is checked:

    python3 scripts/walk_digest.py                       # this checkout
    python3 /path/to/other/checkout/scripts/walk_digest.py

`--seed` takes several seeds and runs them in one process, seed after seed,
each seed's walks in order; the benchmark slices at seeds 0-24:

    python3 scripts/walk_digest.py --slice --walk carry-walk --walk flat-walk-baseline --seed $(seq 0 24)

The script imports `payload_mpc` from the checkout it sits in, whatever the
working directory, and pins BLAS to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from payload_mpc import compare_timing  # noqa: E402
from payload_mpc.simulation import run_closed_loop  # noqa: E402
from workloads import make_scenario  # noqa: E402

WALKS = ("carry-walk", "flat-walk", "flat-walk-baseline", "flat-walk-shared")
# the per-tick logs, then the per-plant-tick logs in the order of the CSV's columns
LOGS = (
    "iterations", "status", "times", "com", "com_ref", "momentum", "feet", "feet_ref", "feet_active",
    "wrenches", "xi", "payload_fz_total", "costs",
)


def log_bytes(log) -> dict:
    """Byte image of every fingerprinted log of one run."""
    arrays = {"iterations": np.asarray(log.iterations_per_tick, dtype=np.int64)}
    arrays.update((name, getattr(log, name)) for name in LOGS[2:])
    out = {name: np.ascontiguousarray(a).tobytes() for name, a in arrays.items()}
    out["status"] = "\n".join(log.status_per_tick).encode()
    return out


def print_shared_trace(seed: int, full: bool) -> None:
    """Digest of the shared-trace timing rows of the flat walk."""
    report = compare_timing(make_scenario("flat-walk", seed, full=full), shared_trace=True)
    rows = "\n".join(f"{r.tick},{r.controller},{int(r.iterations)},{r.status}" for r in report.rows).encode()
    summary = report.summary()
    print(
        f"flat-walk-shared seed={seed} rows={len(report.rows)} "
        + " ".join(
            f"{name}_mean_iterations={summary[name]['mean_iterations']:.6f} "
            f"{name}_non_converged={summary[name]['non_converged']}"
            for name in sorted(summary)
        )
        + f" sha256={hashlib.sha256(rows).hexdigest()}"
    )
    sys.stdout.flush()


def print_walk(name: str, seed: int, full: bool) -> None:
    """Digest of one closed-loop walk, and a short digest of each of its logs."""
    log = run_closed_loop(make_scenario(name, seed, full=full))
    parts = log_bytes(log)
    total = hashlib.sha256()
    for key in LOGS:
        total.update(hashlib.sha256(parts[key]).digest())
    statuses = log.status_per_tick
    print(
        f"{name} seed={seed} ticks={len(statuses)} "
        f"mean_iterations={float(np.mean(log.iterations_per_tick)):.6f} "
        f"non_converged={sum(s != 'converged' for s in statuses)} sha256={total.hexdigest()}"
    )
    for key in LOGS:
        print(f"  {key:<16} {hashlib.sha256(parts[key]).hexdigest()[:16]}")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--walk", choices=WALKS, action="append", help="walk to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0], help="seeds to run, in order (default 0)")
    parser.add_argument("--slice", action="store_true", help="run the benchmark slice instead of the whole walk")
    args = parser.parse_args()

    for seed in args.seed:
        for name in args.walk or WALKS:
            if name == "flat-walk-shared":
                print_shared_trace(seed, full=not args.slice)
            else:
                print_walk(name, seed, full=not args.slice)
    return 0


if __name__ == "__main__":
    sys.exit(main())
