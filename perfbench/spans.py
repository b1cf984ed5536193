"""Outside-in tracing: spans around calls into the program's public functions.

Every wrap replaces one binding, the one its caller actually looks up (for
example `shooting.rollout`, which `mpc` and `baseline` reach through their
`_shooting.` module alias), and leaving the `Tracer` or `Clock` context puts
every original back.  `Tracer` keeps spans (name, start, end, parent) in
memory; a layer's self time is its span minus its direct children.  The
helper `shooting.cross` is deliberately not wrapped: a walk calls it about
half a million times.  `Clock` only stamps the solver's evaluations, for the
untraced end-to-end times.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from payload_mpc import baseline, costs, mpc, shooting, simulation

# (owner, attribute, span name); the evaluators are wrapped separately
BINDINGS = (
    (shooting, "rollout", "shooting.rollout"),
    (shooting, "rollout_adjoint", "shooting.adjoint"),
    (shooting, "payload_cost_state_seeds", "shooting.payload_seeds"),
    (costs, "payload_compensation_targets", "costs.payload_targets"),
    (costs, "parametrize_batch", "contact.parametrize"),
    (mpc, "parametrization_jacobian_batch", "contact.jacobian"),
    (mpc, "solve", "solver.solve"),
    (baseline, "solve", "solver.solve"),
    (baseline.BaselineProblem, "stability_residuals", "baseline.stability_residuals"),
    (simulation, "build_mpc_problem", "mpc.build"),
    (simulation, "build_constrained_mpc", "baseline.build"),
    (simulation, "receding_horizon_step", "mpc.step"),
    (simulation, "baseline_receding_horizon_step", "baseline.step"),
    (simulation, "euler_step", "dynamics.euler_step"),
    (simulation, "stability_margins", "simulation.audit"),
    (simulation, "generate_gait_schedule", "gait.schedule"),
)
EVALUATORS = ((mpc.HorizonProblem, "mpc"), (baseline.BaselineProblem, "baseline"))


def all_bindings():
    """Every (owner, attribute) the tracer or the clock replaces, for restore checks."""
    return [(owner, attr) for owner, attr, _ in BINDINGS] + [(cls, "evaluator") for cls, _ in EVALUATORS]


class Tracer:
    """Span recorder; use as a context manager to install and restore the wraps."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.solver_results: list = []
        self._stack: list = []
        self._originals: list = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()

        return wrapper

    def _solve(self, fn):
        timed = self.span("solver.solve", fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.solver_results.append(result)
            return result

        return wrapper

    def _evaluator(self, fn, layer: str):
        timed = self.span(f"{layer}.evaluator", fn)

        def wrapper(problem):
            nlp = timed(problem)
            return dataclasses.replace(
                nlp,
                value=self.span(f"{layer}.value", nlp.value),
                gradient=self.span(f"{layer}.gradient", nlp.gradient),
            )

        return wrapper

    # -- install / restore ----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        for owner, attr, name in BINDINGS:
            fn = owner.__dict__[attr]
            self._replace(owner, attr, self._solve(fn) if name == "solver.solve" else self.span(name, fn))
        for cls, layer in EVALUATORS:
            self._replace(cls, "evaluator", self._evaluator(cls.__dict__["evaluator"], layer))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        names = np.array(self.names)
        durations = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        children = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], durations[has_parent])
        return names, durations, durations - children

    def write(self, path) -> None:
        """Spans as CSV: index, name, start and end in us from the first span, parent index."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            for i, (name, start, end, parent) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                handle.write(f"{i},{name},{1e6 * (start - origin):.3f},{1e6 * (end - origin):.3f},{parent}\n")


class Clock:
    """Timestamps at every controller step boundary and solver evaluation.

    The stamps cut a pass of `run_closed_loop` into segments: one per
    objective value or gradient call together with the solver work that
    follows it (about a millisecond), and one per stretch of loop work between
    two solves.  Passes of one scenario make the same calls in the same order
    (the determinism gate checks it), so segment k is the same work in every
    pass.  Use one clock for all passes of a scenario: each `with clock:`
    block times one pass and folds its segments into `fastest`, so memory does
    not grow with the number of passes.  A stamp costs one clock read and one
    list append.  Stamping the rollout, adjoint, cost terms and plant step as
    well lowered the summed times by 1-2% and left their run-to-run spread as
    it was, so the clock keeps to the solver's interface.
    """

    def __init__(self):
        self.fastest = None  # s, shortest duration of each segment over the passes
        self.steps: list = []  # (entry, exit) stamp indices of each controller step
        self.aligned = True  # every pass made the same number of stamped calls
        self._stamps: list = []
        self._steps: list = []
        self._originals: list = []

    def _stamped(self, fn):
        stamps = self._stamps

        def wrapper(*args, **kwargs):
            stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def _step(self, fn):
        stamps, steps = self._stamps, self._steps

        def wrapper(*args, **kwargs):
            entry = len(stamps)
            stamps.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                steps.append((entry, len(stamps)))
                stamps.append(time.perf_counter())

        return wrapper

    def _evaluator(self, fn):
        def wrapper(problem):
            nlp = fn(problem)
            return dataclasses.replace(nlp, value=self._stamped(nlp.value), gradient=self._stamped(nlp.gradient))

        return wrapper

    def __enter__(self):
        self._stamps, self._steps = [], []
        for attr in ("receding_horizon_step", "baseline_receding_horizon_step"):
            fn = simulation.__dict__[attr]
            self._originals.append((simulation, attr, fn))
            setattr(simulation, attr, self._step(fn))
        for cls, _ in EVALUATORS:
            fn = cls.__dict__["evaluator"]
            self._originals.append((cls, "evaluator", fn))
            setattr(cls, "evaluator", self._evaluator(fn))
        self._stamps.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        self._stamps.append(time.perf_counter())
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        segments = np.diff(self._stamps)
        if self.fastest is None:
            self.fastest, self.steps = segments, self._steps
        elif len(segments) == len(self.fastest):
            np.minimum(self.fastest, segments, out=self.fastest)
        else:
            self.aligned = False
        return False

    def tick_ms(self) -> np.ndarray:
        """Solve time of each tick (ms), summed from the fastest segments.

        On a shared host the neighbours slow a stretch of work for anything
        from a millisecond to minutes; the shortest of several runs of a
        millisecond-sized segment is far less exposed to that than the time
        of a whole solve or pass.
        """
        return np.array([1e3 * self.fastest[entry:exit].sum() for entry, exit in self.steps])

    def wall(self) -> float:
        """Wall time of a pass (s), summed from the fastest segments."""
        return float(self.fastest.sum())


def layer_metrics(tracer: Tracer, ticks: int) -> dict:
    """Per-layer metrics of one traced pass of `ticks` controller ticks.

    Per-call times are medians over the pass (us); per-tick figures divide
    the pass total by the tick count.  A layer the workload never calls
    reads zero.
    """
    names, durations, self_times = tracer.arrays()

    def sel(name):
        return names == name

    def count(name):
        return int(sel(name).sum())

    def median_us(name):
        mask = sel(name)
        return float(1e6 * np.median(durations[mask])) if mask.any() else 0.0

    def total_ms(name, times=durations):
        return float(1e3 * times[sel(name)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    solve_ms = total_ms("solver.solve")
    shooting_self_ms = sum(
        total_ms(n, self_times) for n in ("shooting.rollout", "shooting.adjoint", "shooting.payload_seeds")
    )
    out = {
        "shooting.rollout_us": median_us("shooting.rollout"),
        "shooting.adjoint_us": median_us("shooting.adjoint"),
        "shooting.payload_seeds_us": median_us("shooting.payload_seeds"),
        "shooting.rollout_calls_per_tick": count("shooting.rollout") / ticks,
        "shooting.self_share": ratio(shooting_self_ms, solve_ms),
    }
    for layer in ("mpc", "baseline"):
        gradients = count(f"{layer}.gradient")
        rollouts = count("shooting.rollout") if gradients else 0
        out.update(
            {
                f"{layer}.value_calls_per_tick": count(f"{layer}.value") / ticks,
                f"{layer}.gradient_calls_per_tick": gradients / ticks,
                f"{layer}.value_us": median_us(f"{layer}.value"),
                f"{layer}.gradient_us": median_us(f"{layer}.gradient"),
                f"{layer}.build_ms_per_tick": (total_ms(f"{layer}.build") + total_ms(f"{layer}.evaluator")) / ticks,
                f"{layer}.rollouts_per_gradient": ratio(rollouts, gradients),
            }
        )
    out["baseline.stability_residuals_us"] = median_us("baseline.stability_residuals")
    out["costs.payload_targets_us"] = median_us("costs.payload_targets")
    out["costs.payload_targets_calls_per_tick"] = count("costs.payload_targets") / ticks
    out["contact.parametrize_us"] = median_us("contact.parametrize")
    out["contact.jacobian_us"] = median_us("contact.jacobian")
    out["contact.parametrize_calls_per_tick"] = count("contact.parametrize") / ticks

    results = tracer.solver_results
    value_calls = count("mpc.value") + count("baseline.value")
    out["solver.outer_iters_per_tick"] = sum(len(r.outer_violations) for r in results) / ticks
    out["solver.accept_ratio"] = ratio(sum(r.iterations for r in results), value_calls)
    out["solver.self_ms_per_tick"] = total_ms("solver.solve", self_times) / ticks
    out["solver.nonconverged_frac"] = sum(r.status != "converged" for r in results) / ticks
    out["dynamics.euler_step_us"] = median_us("dynamics.euler_step")
    out["dynamics.plant_ms_per_tick"] = total_ms("dynamics.euler_step") / ticks
    out["simulation.loop_self_ms_per_tick"] = total_ms("simulation.run", self_times) / ticks
    out["simulation.audit_ms_per_tick"] = total_ms("simulation.audit") / ticks
    out["gait.schedule_ms"] = total_ms("gait.schedule")
    return out
