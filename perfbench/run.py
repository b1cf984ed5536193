#!/usr/bin/env python3
"""Closed-loop benchmark of the payload-aware MPC, one workload per call.

Usage:
    python3 perfbench/run.py --workload carry-walk --seed 0 --trace 0

Run from the root of a source checkout.  Load model: one caller in a closed
loop, single process, one BLAS thread; each controller tick is issued only
after the previous solve returns.  The operation is one controller tick.

A run repeats passes of the workload's scenario slice through
`run_closed_loop` until `--seconds` are used (at least two passes), reading
iterations, statuses and tracking from the returned `SimLog`.  The passes are
bitwise identical in work.  On a shared host the neighbours slow the same
work by up to 2x, for a millisecond or for minutes, so the times are built
from the fastest run of each small segment of the pass (`spans.Clock`: one
segment per solver evaluation, with the solver work up to the next one, and
one per stretch of loop work between two solves).  `tick_ms_p50` is the
median over the slice's ticks of the solve time so summed, and `rtf` is the
slice's simulated time over the pass's wall time so summed; both depart from
reading the wall time of a single pass.  In ten 52 s runs of each workload
on a 2-vCPU shared host, these sums spread by 0.12-0.16 (IQR/median), against
0.28-0.33 for the fastest pass, 0.14-0.21 for the median pass and 0.10-0.26
for the median of `SimLog.solve_ms_per_tick`: the smallest worst case.
`setup_s` is the median of fresh
interpreters (`setup_probe.py`), one before each pass and at least nine.
`--seconds` defaults to `run_seconds` of BENCHMARK.json.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes (spans from `spans.py`) and prints the per-layer metrics of
the fastest traced pass, plus the tracing overhead and the figures that are
not steady enough across seeds to bound (the tick-time tail over a slice's few
ticks, the tracking errors).  `--full` runs the whole acceptance scenario once
instead of the slice and, at seed 0, checks the exact iteration and
convergence counts.

Correctness gates, each named on failure (exit 1): every pass completes with
no `SolverFailure` and no stability-audit abort; all passes give bitwise
identical iteration, status and CoM sequences; traced passes equal untraced
ones; on carry-walk the criterion-5 checks hold; at seed 0 the slice's
iteration and convergence counts equal those recorded in `workloads.py`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A tick fails when its solver status is anything
other than `converged` (the rule of `TimingReport.summary`) or when it was
lost to an abort, so a change that trades convergence for speed shows in
`failed`.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (must come first: BLAS threads, checkout path)

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import payload_mpc
from payload_mpc import simulation
from spans import Clock, Tracer, layer_metrics
from workloads import WORKLOADS, make_scenario

OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 9
MIN_PASSES = 2

END_TO_END = {
    "tick_ms_p50": "ms",
    "rtf": "ratio",
    "iters_per_tick": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.tick_ms_p90": "ms",
    "simulation.max_horizontal_err_m": "m",
    "simulation.max_height_err_m": "m",
    "shooting.rollout_us": "us",
    "shooting.adjoint_us": "us",
    "shooting.payload_seeds_us": "us",
    "shooting.rollout_calls_per_tick": "count",
    "shooting.self_share": "ratio",
    "mpc.value_calls_per_tick": "count",
    "mpc.gradient_calls_per_tick": "count",
    "mpc.value_us": "us",
    "mpc.gradient_us": "us",
    "mpc.build_ms_per_tick": "ms",
    "mpc.rollouts_per_gradient": "ratio",
    "baseline.value_calls_per_tick": "count",
    "baseline.gradient_calls_per_tick": "count",
    "baseline.value_us": "us",
    "baseline.gradient_us": "us",
    "baseline.build_ms_per_tick": "ms",
    "baseline.rollouts_per_gradient": "ratio",
    "baseline.stability_residuals_us": "us",
    "costs.payload_targets_us": "us",
    "costs.payload_targets_calls_per_tick": "count",
    "contact.parametrize_us": "us",
    "contact.jacobian_us": "us",
    "contact.parametrize_calls_per_tick": "count",
    "solver.outer_iters_per_tick": "count",
    "solver.accept_ratio": "ratio",
    "solver.self_ms_per_tick": "ms",
    "solver.nonconverged_frac": "ratio",
    "dynamics.euler_step_us": "us",
    "dynamics.plant_ms_per_tick": "ms",
    "simulation.loop_self_ms_per_tick": "ms",
    "simulation.audit_ms_per_tick": "ms",
    "gait.schedule_ms": "ms",
    "trace.overhead_ms_per_tick": "ms",
    "trace.overhead_share": "ratio",
}


@dataclass
class Pass:
    log: simulation.SimLog
    wall: float  # s, wall time of run_closed_loop
    tracer: Tracer = None


def run_pass(scenario, tracer: Tracer = None, clock: Clock = None) -> Pass:
    if tracer is None:
        with clock:
            start = time.perf_counter()
            log = simulation.run_closed_loop(scenario)
            wall = time.perf_counter() - start
        return Pass(log, wall)
    with tracer:
        start = time.perf_counter()
        log = tracer.span("simulation.run", simulation.run_closed_loop)(scenario)
        wall = time.perf_counter() - start
    return Pass(log, wall, tracer)


def run_passes(scenario, seconds: float, traced: bool, min_passes: int = MIN_PASSES, probe=None) -> tuple:
    """Passes until `seconds` are used; traced runs alternate untraced/traced.

    `probe`, when given, is called before each pass, so its samples spread
    over the run.  Returns (untraced passes, traced passes, probe results,
    the untraced passes' clock).  Stops at the first pass that did not
    complete.
    """
    plain, tracked, probed, clock = [], [], [], Clock()
    start = time.perf_counter()
    while True:
        if probe is not None:
            probed.append(probe())
        use_tracer = traced and len(tracked) < len(plain)
        p = run_pass(scenario, Tracer() if use_tracer else None, clock)
        (tracked if use_tracer else plain).append(p)
        if not p.log.completed:
            break
        done = len(plain) + len(tracked)
        longest = max(q.wall for q in plain + tracked) + max(probed, default=0.0)
        if done >= min_passes and time.perf_counter() - start + longest > seconds:
            break
    if traced and tracked:
        # keep only the fastest traced pass's spans in memory
        best = min(tracked, key=lambda q: q.wall)
        for q in tracked:
            if q is not best:
                q.tracer = None
    return plain, tracked, probed, clock


# -- correctness gates ---------------------------------------------------------


def sequences(log):
    return (list(log.iterations_per_tick), list(log.status_per_tick), log.com.tobytes())


def criterion_5(scenario, log, expect_all_landings: bool) -> tuple:
    """Peak horizontal error below 0.05 m and every landing inside the footstep box."""
    horizontal = np.linalg.norm(log.tracking_error()[:, :2], axis=1)
    if horizontal.max() >= 0.05:
        return False, f"peak horizontal error {horizontal.max():.4f} m"
    lb = scenario.mpc.footstep_bound_lower - 1e-6
    ub = scenario.mpc.footstep_bound_upper + 1e-6
    landings = 0
    for i in range(log.n_contacts):
        active = log.feet_active[:, i]
        for t in range(1, len(active)):
            if active[t] and not active[t - 1]:
                error = log.feet[t, i] - log.feet_ref[t, i]
                if not ((error >= lb).all() and (error <= ub).all()):
                    return False, f"landing of contact {i} at t={log.times[t]:.2f}s outside the box: {error}"
                landings += 1
    if expect_all_landings and landings != scenario.gait.number_of_steps:
        return False, f"{landings} landings, expected {scenario.gait.number_of_steps}"
    return True, f"peak horizontal error {horizontal.max():.4f} m, {landings} landings inside the box"


def gates(name, seed, full, scenario, plain, tracked, clock) -> list:
    """(check name, passed, detail) for every correctness gate of the run."""
    passes = plain + tracked
    out = []
    aborted = [p.log.failure_reason for p in passes if not p.log.completed]
    out.append(("completed", not aborted, aborted[0] if aborted else f"{len(passes)} passes"))
    if aborted:
        return out
    reference = sequences(plain[0].log)
    if len(plain) > 1:
        same = clock.aligned and all(sequences(p.log) == reference for p in plain[1:])
        out.append(("deterministic", same, f"{len(plain)} untraced passes"))
    if tracked:
        same = all(sequences(p.log) == reference for p in tracked)
        out.append(("trace-transparent", same, f"{len(tracked)} traced passes"))
    log = plain[0].log
    if name == "carry-walk":
        ok, detail = criterion_5(scenario, log, expect_all_landings=full)
        out.append(("criterion-5", ok, detail))
    workload = WORKLOADS[name][0]
    expected = {workload.full_s: workload.full_counts, workload.slice_s: workload.slice_counts}.get(scenario.duration)
    if seed == 0 and expected:
        got = (
            len(log.status_per_tick),
            float(np.mean(log.iterations_per_tick)),
            sum(s != "converged" for s in log.status_per_tick),
        )
        out.append(("exact-counts", got == expected, f"got {got}, expected {expected}"))
    return out


# -- metrics ---------------------------------------------------------------------


def probe_setup(name: str, seed: int) -> float:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), name, str(seed)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(plain: list, clock: Clock, scenario, setup: list) -> dict:
    return {
        "tick_ms_p50": float(np.median(clock.tick_ms())),
        "rtf": scenario.duration / clock.wall(),
        "iters_per_tick": float(np.mean(plain[0].log.iterations_per_tick)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: list, tracked: list, clock: Clock) -> dict:
    best = next(p for p in tracked if p.tracer is not None)
    ticks = len(best.log.status_per_tick)
    out = layer_metrics(best.tracer, ticks)
    out["solver.tick_ms_p90"] = float(np.percentile(clock.tick_ms(), 90))
    summary = plain[0].log.summary()
    out["simulation.max_horizontal_err_m"] = summary["max_horizontal_error_m"]
    out["simulation.max_height_err_m"] = summary["max_height_deviation_m"]
    overhead_s = best.wall - min(p.wall for p in plain)
    out["trace.overhead_ms_per_tick"] = 1e3 * overhead_s / ticks
    out["trace.overhead_share"] = overhead_s / min(p.wall for p in plain)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "payload_mpc": payload_mpc.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true", help="one pass of the whole acceptance scenario")
    args = parser.parse_args(argv)
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    scenario = make_scenario(args.workload, args.seed, full=args.full)
    probe = None if args.trace else lambda: probe_setup(args.workload, args.seed)
    seconds, min_passes = (0.0, 1 + args.trace) if args.full else (args.seconds, MIN_PASSES)
    plain, tracked, setup, clock = run_passes(scenario, seconds, bool(args.trace), min_passes, probe)
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    checks = gates(args.workload, args.seed, args.full, scenario, plain, tracked, clock)
    correct = all(ok for _, ok, _ in checks)
    for check, ok, detail in checks:
        print(f"# gate {check}: {'ok' if ok else 'FAILED'} ({detail})")

    passes = plain + tracked
    ticks = int(round(scenario.duration / scenario.mpc.dt))
    attempted = ticks * len(passes)
    failed = sum(ticks - sum(s == "converged" for s in p.log.status_per_tick) for p in passes)
    metrics = {}
    if correct:
        log = plain[0].log
        nonconverged = sum(s != "converged" for s in log.status_per_tick)
        print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {ticks} ticks, "
              f"{nonconverged}/{ticks} ticks not converged, pass walls "
              + " ".join(f"{p.wall:.2f}s" for p in passes))
        if args.trace:
            values, units = per_layer(plain, tracked, clock), PER_LAYER
        else:
            values, units = end_to_end(plain, clock, scenario, setup), END_TO_END
        for key, unit in units.items():
            metrics[key] = {"value": values[key], "unit": unit}
            print(f"{key:36s} {values[key]:14.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"env": env, "metrics": metrics, "gates": checks, "iterations": [int(i) for i in log.iterations_per_tick],
                  "status": list(log.status_per_tick), "solve_ms": [list(p.log.solve_ms_per_tick) for p in passes]}
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            next(p for p in tracked if p.tracer is not None).tracer.write(OUT_DIR / f"{stem}-spans.csv")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
