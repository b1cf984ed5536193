"""Derivative-based solver for smooth inequality-constrained programs.

Inequalities c(z) >= 0 are handled by an augmented Lagrangian outer loop
(multiplier updates with penalty growth when feasibility stalls); the inner
minimizer is limited-memory BFGS with a backtracking weak-Wolfe line search.
Everything is plain numpy and fully deterministic: two solves from identical
inputs produce identical iterates.

Problems are supplied as an `NlpFunctions` pair: `value(z) -> (f, c)` and
`gradient(z, s) -> grad(f + s . c)`, the latter doubling as the residual
Jacobian-transpose product needed by the augmented Lagrangian gradient (a
problem without residuals gets an empty `s`).

`SolverOptions` holds what a caller sets: the iteration budget and the KKT
tolerance.  The rest are module constants: `CONSTRAINT_TOLERANCE`, the
penalty schedule (`PENALTY_INIT`, `PENALTY_GROWTH`, `MAX_OUTER_ITERATIONS`),
`LBFGS_MEMORY` and the line search's `ARMIJO_COEFFICIENT`,
`BACKTRACK_FACTOR` and `MAX_LINE_SEARCH_STEPS`, at the textbook values
(c1 = 1e-4 and m = 10; Nocedal & Wright, *Numerical Optimization*, §3.1 and
§7.2), like the literals next to them: the 0.9 curvature coefficient, the
1e8 penalty cap and the five-step 1e-13 stall test.

The loop computes each quantity once: a point's multiplier shift
max(0, lam - rho c) serves its merit value and its gradient, lam^2 is taken
once per inner solve, and each curvature pair's scalars once at `push`.
Scalars stay Python floats (`ndarray.dot`, `math`), which round exactly as
the numpy scalars did, so the iterates are bitwise those of a direct
transcription of the formulas.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NonFiniteStartError

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINE_SEARCH_FAILURE = "line-search-failure"

CONSTRAINT_TOLERANCE = 1e-8  # largest violation max(0, -c) that counts as feasible
PENALTY_INIT = 10.0  # the first augmented-Lagrangian penalty
PENALTY_GROWTH = 10.0  # the penalty's factor when feasibility stalls or is reached
MAX_OUTER_ITERATIONS = 15  # multiplier/penalty rounds
LBFGS_MEMORY = 10  # curvature pairs kept
ARMIJO_COEFFICIENT = 1e-4  # sufficient decrease
BACKTRACK_FACTOR = 0.5  # step cut after a failed sufficient-decrease test
MAX_LINE_SEARCH_STEPS = 40  # trial steps per line search


@dataclass
class SolverOptions:
    max_iterations: int = 200  # total inner iterations across all outer loops
    kkt_tolerance: float = 1e-6  # infinity norm of the (augmented) Lagrangian gradient

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.kkt_tolerance) and self.kkt_tolerance > 0):
            raise ConfigurationError(f"kkt_tolerance must be finite and positive, got {self.kkt_tolerance}")


@dataclass
class SolverResult:
    z: np.ndarray
    objective: float
    status: str  # converged | max-iterations | line-search-failure
    iterations: int
    wall_time: float  # seconds
    constraint_violation: float  # infinity norm of max(0, -c)
    outer_violations: list = field(default_factory=list)  # per outer iteration, for diagnostics
    value_evaluations: int = 0  # calls of the evaluator's value
    gradient_evaluations: int = 0  # calls of the evaluator's gradient
    backtracks: int = 0  # line-search trial steps that failed the sufficient-decrease test
    outer_iterations: int = 0  # augmented-Lagrangian multiplier/penalty rounds, len(outer_violations)
    kkt_norm: float = math.nan  # inf-norm of the last inner loop's merit gradient


@dataclass
class _Counters:
    value: int = 0
    gradient: int = 0
    backtracks: int = 0


@dataclass
class NlpFunctions:
    """Evaluator bundle: objective/residual values and combined gradient.

    `metric_diag`, when given, is a positive per-variable estimate of inverse
    curvature used as the quasi-Newton seed matrix; it rescales badly
    conditioned problems without changing their solutions.
    """

    dim: int
    num_constraints: int
    value: Callable[[np.ndarray], tuple]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    metric_diag: Optional[np.ndarray] = None


def unconstrained(fun: Callable[[np.ndarray], float], grad: Callable[[np.ndarray], np.ndarray], dim: int) -> NlpFunctions:
    """Wrap a plain objective/gradient pair as an evaluator with no constraints."""
    empty = np.zeros(0)
    return NlpFunctions(
        dim=dim,
        num_constraints=0,
        value=lambda z: (float(fun(z)), empty),
        gradient=lambda z, s: np.asarray(grad(z), dtype=float),
    )


def _violation(c: np.ndarray) -> float:
    if c.size == 0:
        return 0.0
    return float(np.maximum(0.0, -c).max())


class _LbfgsMemory:
    """The curvature pairs and the two-loop recursion (Nocedal & Wright, Alg. 7.4).

    Each pair is `(s, y, 1/s'y)`; the newest `LBFGS_MEMORY` are kept.  `push`
    also keeps the H0 scale of the newest pair, `s'y / y'(M y)` (M the
    metric), so a direction computes no product that a pair has already
    fixed.  The recursion runs in place on one copy of the gradient with one
    preallocated work vector, in the products and the order of the textbook
    formulas, so its result is bitwise that of a direct transcription; a
    metric of ones is the scaled identity, bitwise, since x * 1.0 == x.
    """

    def __init__(self, metric: np.ndarray):
        self.metric = metric  # positive diagonal seed for H0
        self.pairs: list = []
        self.scale = None  # H0 scale of the newest pair
        self._work = None

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s.dot(y))
        if sy <= 1e-12 * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
            return  # curvature too weak; skip the pair
        if len(self.pairs) == LBFGS_MEMORY:
            self.pairs.pop(0)
        self.pairs.append((s, y, 1.0 / sy))
        self.scale = sy / float(y.dot(self.metric * y))

    def direction(self, grad: np.ndarray) -> np.ndarray:
        q = grad.copy()
        if self._work is None:
            self._work = np.empty_like(q)
        work = self._work
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s.dot(q))
            alphas.append(a)
            q -= np.multiply(a, y, out=work)
        q *= self.metric
        if self.scale is not None:
            q *= self.scale
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y.dot(q))
            q += np.multiply(a - b, s, out=work)
        return np.negative(q, out=q)


def _minimize_lagrangian(problem, z, lam, rho, budget, tolerance, counters):
    """Inner L-BFGS on the augmented Lagrangian; returns (z, f, c, status, iters, kkt_norm).

    Each point's shift `max(0, lam - rho c)` is computed once, by its value,
    and reused by its gradient; without residuals it is empty and the merit
    value is f + 0.0.  `kkt_norm` is the inf-norm of the last gradient.
    """
    lam_sq = lam**2
    two_rho = 2.0 * rho
    metric = problem.metric_diag
    if metric is None:
        metric = np.ones(problem.dim)

    def al_value(point):
        """The merit value at `point`, its residuals and their shift."""
        counters.value += 1
        f, c = problem.value(point)
        shift = np.maximum(0.0, lam - rho * c)
        return f + float((shift**2 - lam_sq).sum()) / two_rho, c, shift

    def al_gradient(point, shift):
        counters.gradient += 1
        return problem.gradient(point, np.negative(shift))

    value, c, shift = al_value(z)
    if not math.isfinite(value):
        raise NonFiniteStartError("objective is not finite at the initial point")
    grad = al_gradient(z, shift)
    memory = _LbfgsMemory(metric)
    status = MAX_ITERATIONS
    iters = 0
    stalled = 0
    while iters < budget:
        if _inf_norm(grad) <= tolerance:
            status = CONVERGED
            break
        direction = memory.direction(grad)
        descent = float(grad.dot(direction))
        if not math.isfinite(descent) or descent >= 0.0:
            direction = -(metric * grad)
            descent = float(grad.dot(direction))
            memory = _LbfgsMemory(metric)
        # weak-Wolfe line search by backtracking/bisection: the curvature
        # condition keeps the quasi-Newton pairs well posed, and its gradient
        # evaluation is reused as the next iterate's gradient
        curvature = 0.9 * descent
        step = 1.0
        lo, hi = 0.0, math.inf
        best = None
        for _ in range(MAX_LINE_SEARCH_STEPS):
            candidate = z + step * direction
            cand_value, cand_c, cand_shift = al_value(candidate)
            armijo = math.isfinite(cand_value) and (
                cand_value <= value + ARMIJO_COEFFICIENT * step * descent
            )
            if not armijo:
                counters.backtracks += 1
                hi = step
                step = lo + BACKTRACK_FACTOR * (hi - lo)
                continue
            cand_grad = al_gradient(candidate, cand_shift)
            best = (step, candidate, cand_value, cand_c, cand_grad)
            if float(cand_grad.dot(direction)) >= curvature:
                break
            lo = step
            step = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        iters += 1
        if best is None:
            status = LINE_SEARCH_FAILURE
            break
        step, candidate, cand_value, cand_c, cand_grad = best
        memory.push(step * direction, cand_grad - grad)
        improvement = value - cand_value
        z, value, c, grad = candidate, cand_value, cand_c, cand_grad
        # tolerance below the line-search noise floor: stop once successive
        # accepted steps no longer change the merit value measurably
        if improvement <= 1e-13 * max(1.0, abs(value)):
            stalled += 1
            if stalled >= 5:
                status = LINE_SEARCH_FAILURE
                break
        else:
            stalled = 0
    counters.value += 1
    f, c = problem.value(z)
    return z, f, c, status, iters, _inf_norm(grad)


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def solve(problem: NlpFunctions, initial_point, options: SolverOptions = None) -> SolverResult:
    """Minimize the evaluator's objective subject to its residuals c(z) >= 0."""
    options = options or SolverOptions()
    z = np.asarray(initial_point, dtype=float).reshape(problem.dim).copy()
    if not np.all(np.isfinite(z)):
        raise NonFiniteStartError("initial point must be finite")
    start = time.perf_counter()
    m = problem.num_constraints
    lam = np.zeros(m)
    rho = PENALTY_INIT
    # safeguarded schedule: solve inner problems loosely at first and tighten
    # as the iterates become feasible, so multiplier/penalty updates are not
    # starved of budget by early high-accuracy inner solves
    omega = max(1.0 / rho, options.kkt_tolerance)
    eta = max(0.1 * rho**-0.1, CONSTRAINT_TOLERANCE)
    total_iters = 0
    outer_violations = []
    status = MAX_ITERATIONS
    counters = _Counters(value=1)
    f, c = problem.value(z)
    if not math.isfinite(f):
        raise NonFiniteStartError("objective is not finite at the initial point")
    violation = _violation(c)
    kkt_norm = math.nan
    for _ in range(MAX_OUTER_ITERATIONS):
        budget = options.max_iterations - total_iters
        if budget <= 0:
            status = MAX_ITERATIONS
            break
        tolerance = options.kkt_tolerance if m == 0 else max(omega, options.kkt_tolerance)
        z, f, c, inner_status, used, kkt_norm = _minimize_lagrangian(
            problem, z, lam, rho, budget, tolerance, counters
        )
        total_iters += used
        violation = _violation(c)
        outer_violations.append(violation)
        feasible = violation <= CONSTRAINT_TOLERANCE
        if feasible and inner_status == CONVERGED and tolerance <= options.kkt_tolerance:
            status = CONVERGED
            break
        if m == 0 or (inner_status == LINE_SEARCH_FAILURE and feasible):
            # unconstrained outcome, or feasible and stationary to numerical
            # precision: nothing more to gain
            status = inner_status
            break
        if total_iters >= options.max_iterations:
            status = MAX_ITERATIONS
            break
        status = inner_status
        if violation <= max(eta, CONSTRAINT_TOLERANCE):
            # making feasibility progress: update multipliers, tighten targets
            lam = np.maximum(0.0, lam - rho * c)
            if feasible:
                # final stationarity polish; the stiffer penalty keeps the
                # remaining multiplier error from re-violating the constraints
                omega = options.kkt_tolerance
                rho = min(rho * PENALTY_GROWTH, 1e8)
            else:
                omega = max(omega / rho, options.kkt_tolerance)
            eta = max(eta / rho**0.9, CONSTRAINT_TOLERANCE)
        else:
            rho *= PENALTY_GROWTH
            omega = max(1.0 / rho, options.kkt_tolerance)
            eta = max(0.1 * rho**-0.1, CONSTRAINT_TOLERANCE)
    return SolverResult(
        z=z,
        objective=float(f),
        status=status,
        iterations=total_iters,
        wall_time=time.perf_counter() - start,
        constraint_violation=violation,
        outer_violations=outer_violations,
        value_evaluations=counters.value,
        gradient_evaluations=counters.gradient,
        backtracks=counters.backtracks,
        outer_iterations=len(outer_violations),
        kkt_norm=kkt_norm,
    )


def finite_difference_gradient(evaluator, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of an objective; the test-side oracle.

    `evaluator` may be an `NlpFunctions` (its objective part is used) or any
    callable mapping a vector to a float.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if isinstance(evaluator, NlpFunctions):
        fun = lambda z: evaluator.value(z)[0]
    else:
        fun = evaluator
    point = np.asarray(point, dtype=float)
    grad = np.zeros(point.size)
    flat = point.ravel()
    for i in range(flat.size):
        forward = flat.copy()
        backward = flat.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (fun(forward.reshape(point.shape)) - fun(backward.reshape(point.shape))) / (2.0 * step)
    return grad
