#!/usr/bin/env python3
"""Every workload of BENCHMARK.json, untraced then traced, in one command.

Usage: python3 perfbench/all.py [--seed 0] [--seconds 55]

Runs `run.py` once per workload and trace mode, each in its own process,
echoes its output (metric lines with units, gates, the JSON result) and exits
non-zero when any run fails a correctness gate or errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    failures = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            print(f"== {label}", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                timeout=600,
            )
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}")
    for line in failures:
        print("FAILED " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
