"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times package import, scenario validation, gait schedule and reference
generation inside `run_closed_loop`, up to the first controller solve, and
prints the seconds.  The solve itself never runs: the step functions are
replaced by one that stops the loop.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402,F401  (BLAS threads, checkout path, package import)
from payload_mpc import simulation  # noqa: E402
from workloads import make_scenario  # noqa: E402


class _FirstSolve(Exception):
    pass


def _stop(problem, warm_start=None):
    raise _FirstSolve


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    simulation.receding_horizon_step = _stop
    simulation.baseline_receding_horizon_step = _stop
    try:
        simulation.run_closed_loop(make_scenario(name, seed))
    except _FirstSolve:
        print(repr(time.perf_counter() - _START))
        return
    sys.exit("perfbench: the closed loop ended without a solve")


if __name__ == "__main__":
    main()
