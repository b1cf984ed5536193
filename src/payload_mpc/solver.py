"""Derivative-based solver for smooth inequality-constrained programs.

Inequalities c(z) >= 0 are handled by an augmented Lagrangian outer loop
(multiplier updates with penalty growth when feasibility stalls); the inner
minimizer is limited-memory BFGS with a backtracking weak-Wolfe line search.
Everything is plain numpy and fully deterministic: two solves from identical
inputs produce identical iterates.

Problems are supplied as an `NlpFunctions` pair: `value(z) -> (f, c)` and
`gradient(z, s) -> grad(f + s . c)`, the latter doubling as the residual
Jacobian-transpose product needed by the augmented Lagrangian gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NonFiniteStartError

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINE_SEARCH_FAILURE = "line-search-failure"


@dataclass
class SolverOptions:
    max_iterations: int = 200  # total inner iterations across all outer loops
    kkt_tolerance: float = 1e-6  # infinity norm of the (augmented) Lagrangian gradient
    constraint_tolerance: float = 1e-8
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    max_outer_iterations: int = 15
    lbfgs_memory: int = 10
    armijo_coefficient: float = 1e-4
    backtrack_factor: float = 0.5
    max_line_search_steps: int = 40

    def __post_init__(self):
        for name in ("max_iterations", "lbfgs_memory"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("kkt_tolerance", "constraint_tolerance", "penalty_init"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.penalty_growth >= 1:
            raise ConfigurationError(f"penalty_growth must be >= 1, got {self.penalty_growth}")


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
    gradient: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]
    metric_diag: Optional[np.ndarray] = None


def unconstrained(fun: Callable[[np.ndarray], float], grad: Callable[[np.ndarray], np.ndarray], dim: int) -> NlpFunctions:
    """Wrap a plain objective/gradient pair as an evaluator with no constraints."""
    empty = np.zeros(0)
    return NlpFunctions(
        dim=dim,
        num_constraints=0,
        value=lambda z: (float(fun(z)), empty),
        gradient=lambda z, s=None: np.asarray(grad(z), dtype=float),
    )


def _violation(c: np.ndarray) -> float:
    if c.size == 0:
        return 0.0
    return float(np.maximum(0.0, -c).max())


class _LbfgsMemory:
    def __init__(self, memory: int, metric: Optional[np.ndarray] = None):
        self.memory = memory
        self.metric = metric  # positive diagonal seed for H0, or None for scaled identity
        self.s: list = []
        self.y: list = []
        self.rho: list = []

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy <= 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            return  # curvature too weak; skip the pair
        if len(self.s) == self.memory:
            self.s.pop(0)
            self.y.pop(0)
            self.rho.pop(0)
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)

    def _apply_h0(self, q: np.ndarray) -> np.ndarray:
        if self.s:
            s, y = self.s[-1], self.y[-1]
            if self.metric is not None:
                my = self.metric * y
                return (float(s @ y) / float(y @ my)) * (self.metric * q)
            return (float(s @ y) / float(y @ y)) * q
        if self.metric is not None:
            return self.metric * q
        return q

    def direction(self, grad: np.ndarray) -> np.ndarray:
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(self.s), reversed(self.y), reversed(self.rho)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        q = self._apply_h0(q)
        for (s, y, rho), a in zip(zip(self.s, self.y, self.rho), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return -q


def _minimize_lagrangian(problem, z, lam, rho, options, budget, tolerance, counters):
    """Inner L-BFGS on the augmented Lagrangian; returns (z, f, c, status, iters)."""

    def al_value(point):
        counters.value += 1
        f, c = problem.value(point)
        if c.size:
            shifted = np.maximum(0.0, lam - rho * c)
            f = f + float((shifted**2 - lam**2).sum()) / (2.0 * rho)
        return f, c

    def al_gradient(point, c):
        counters.gradient += 1
        if c.size:
            s = -np.maximum(0.0, lam - rho * c)
            return problem.gradient(point, s)
        return problem.gradient(point, None)

    value, c = al_value(z)
    if not np.isfinite(value):
        raise NonFiniteStartError("objective is not finite at the initial point")
    grad = al_gradient(z, c)
    metric = getattr(problem, "metric_diag", None)
    memory = _LbfgsMemory(options.lbfgs_memory, metric)
    status = MAX_ITERATIONS
    iters = 0
    stalled = 0
    while iters < budget:
        grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
        if grad_norm <= tolerance:
            status = CONVERGED
            break
        direction = memory.direction(grad)
        descent = float(grad @ direction)
        if not np.isfinite(descent) or descent >= 0.0:
            direction = -grad if metric is None else -(metric * grad)
            descent = float(grad @ direction)
            memory = _LbfgsMemory(options.lbfgs_memory, metric)
        # weak-Wolfe line search by backtracking/bisection: the curvature
        # condition keeps the quasi-Newton pairs well posed, and its gradient
        # evaluation is reused as the next iterate's gradient
        step = 1.0
        lo, hi = 0.0, np.inf
        accepted = False
        best = None
        for _ in range(options.max_line_search_steps):
            candidate = z + step * direction
            cand_value, cand_c = al_value(candidate)
            armijo = np.isfinite(cand_value) and (
                cand_value <= value + options.armijo_coefficient * step * descent
            )
            if not armijo:
                counters.backtracks += 1
                hi = step
                step = lo + options.backtrack_factor * (hi - lo)
                continue
            cand_grad = al_gradient(candidate, cand_c)
            best = (step, candidate, cand_value, cand_c, cand_grad)
            if float(cand_grad @ direction) >= 0.9 * descent:
                accepted = True
                break
            lo = step
            step = 2.0 * lo if np.isinf(hi) else 0.5 * (lo + hi)
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
    else:
        status = MAX_ITERATIONS
    counters.value += 1
    f, c = problem.value(z)
    return z, f, c, status, iters


def solve(problem: NlpFunctions, initial_point, options: SolverOptions = None) -> SolverResult:
    """Minimize the evaluator's objective subject to its residuals c(z) >= 0."""
    options = options or SolverOptions()
    z = np.asarray(initial_point, dtype=float).reshape(problem.dim).copy()
    if not np.all(np.isfinite(z)):
        raise NonFiniteStartError("initial point must be finite")
    start = time.perf_counter()
    m = problem.num_constraints
    lam = np.zeros(m)
    rho = options.penalty_init
    # safeguarded schedule: solve inner problems loosely at first and tighten
    # as the iterates become feasible, so multiplier/penalty updates are not
    # starved of budget by early high-accuracy inner solves
    omega = max(1.0 / rho, options.kkt_tolerance)
    eta = max(0.1 * rho**-0.1, options.constraint_tolerance)
    total_iters = 0
    outer_violations = []
    status = MAX_ITERATIONS
    counters = _Counters(value=1)
    f, c = problem.value(z)
    if not np.isfinite(f):
        raise NonFiniteStartError("objective is not finite at the initial point")
    violation = _violation(c)
    for _ in range(options.max_outer_iterations):
        budget = options.max_iterations - total_iters
        if budget <= 0:
            status = MAX_ITERATIONS
            break
        tolerance = options.kkt_tolerance if m == 0 else max(omega, options.kkt_tolerance)
        z, f, c, inner_status, used = _minimize_lagrangian(
            problem, z, lam, rho, options, budget, tolerance, counters
        )
        total_iters += used
        violation = _violation(c)
        outer_violations.append(violation)
        feasible = violation <= options.constraint_tolerance
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
        if violation <= max(eta, options.constraint_tolerance):
            # making feasibility progress: update multipliers, tighten targets
            lam = np.maximum(0.0, lam - rho * c)
            if feasible:
                # final stationarity polish; the stiffer penalty keeps the
                # remaining multiplier error from re-violating the constraints
                omega = options.kkt_tolerance
                rho = min(rho * options.penalty_growth, 1e8)
            else:
                omega = max(omega / rho, options.kkt_tolerance)
            eta = max(eta / rho**0.9, options.constraint_tolerance)
        else:
            rho *= options.penalty_growth
            omega = max(1.0 / rho, options.kkt_tolerance)
            eta = max(0.1 * rho**-0.1, options.constraint_tolerance)
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
