"""Every quantity computed once per solver iteration, every iterate bitwise unchanged.

The solver's L-BFGS memory keeps each pair's H0 scale and runs the two-loop
recursion in place; the inner loop computes each point's AL shift once; the
evaluators keep in their point memo what the gradient used to recompute (the
task errors, the gated forces, the payload residual, the baseline's
center-of-pressure factors and the value itself); the parametrized gradient
takes J'v over the Jacobian's structural nonzeros.  The code each of these
replaced is kept here as the oracle, and every property demands `tobytes()`
equality, not a tolerance.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_mpc.baseline import build_constrained_mpc
from payload_mpc.contact import (
    ContactSurface,
    SurfaceConstants,
    parametrization_factors,
    parametrization_jacobian_batch,
    parametrization_vjp,
)
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants
from payload_mpc.errors import NonFiniteStartError
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem
from payload_mpc.simulation import default_payload_scenario, run_closed_loop
from payload_mpc.solver import (
    ARMIJO_COEFFICIENT,
    BACKTRACK_FACTOR,
    CONSTRAINT_TOLERANCE,
    CONVERGED,
    LBFGS_MEMORY,
    LINE_SEARCH_FAILURE,
    MAX_ITERATIONS,
    MAX_LINE_SEARCH_STEPS,
    MAX_OUTER_ITERATIONS,
    PENALTY_GROWTH,
    PENALTY_INIT,
    NlpFunctions,
    SolverOptions,
    SolverResult,
    _Counters,
    _LbfgsMemory,
    _violation,
    solve,
)

# -- the oracles: the solver as it was -----------------------------------------------


class ReferenceLbfgsMemory:
    """`solver._LbfgsMemory` as it was: the H0 scale recomputed on every direction."""

    def __init__(self, memory, metric=None):
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


def reference_minimize_lagrangian(problem, z, lam, rho, budget, tolerance, counters):
    """The inner loop as it was: the AL closures recompute the shift, `_apply_h0` its scale.

    The former options read the solver's constants, which keep their values.
    """

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
    memory = ReferenceLbfgsMemory(LBFGS_MEMORY, metric)
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
            memory = ReferenceLbfgsMemory(LBFGS_MEMORY, metric)
        # weak-Wolfe line search by backtracking/bisection: the curvature
        # condition keeps the quasi-Newton pairs well posed, and its gradient
        # evaluation is reused as the next iterate's gradient
        step = 1.0
        lo, hi = 0.0, np.inf
        accepted = False
        best = None
        for _ in range(MAX_LINE_SEARCH_STEPS):
            candidate = z + step * direction
            cand_value, cand_c = al_value(candidate)
            armijo = np.isfinite(cand_value) and (
                cand_value <= value + ARMIJO_COEFFICIENT * step * descent
            )
            if not armijo:
                counters.backtracks += 1
                hi = step
                step = lo + BACKTRACK_FACTOR * (hi - lo)
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

def reference_solve(problem, initial_point, options=None):
    """`solver.solve` as it was, with the loop above."""
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
    if not np.isfinite(f):
        raise NonFiniteStartError("objective is not finite at the initial point")
    violation = _violation(c)
    for _ in range(MAX_OUTER_ITERATIONS):
        budget = options.max_iterations - total_iters
        if budget <= 0:
            status = MAX_ITERATIONS
            break
        tolerance = options.kkt_tolerance if m == 0 else max(omega, options.kkt_tolerance)
        z, f, c, inner_status, used = reference_minimize_lagrangian(
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
    )


def reference_vjp(v, surface, factors, xi):
    """J'v as it was: an einsum over the dense (..., 6, 6) Jacobian."""
    return np.einsum("kiab,kia->kib", parametrization_jacobian_batch(xi, surface, factors), v)


# -- L-BFGS directions ------------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


def signed_zeros(rng, a, share=0.2):
    """`a` with a share of its entries replaced by +0.0 or -0.0."""
    a = a.copy()
    mask = rng.random(a.shape) < share
    a[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    return a


@given(seed=seeds, dim=st.integers(1, 40), metric=st.booleans(), steps=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_directions_bitwise_equal_the_reference_over_pair_streams(seed, dim, metric, steps):
    """A metric of ones gives the reference's scaled-identity (`metric=None`) directions."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(1e-3, 1e3, dim) if metric else None
    ones = np.ones(dim)

    def fresh():
        return _LbfgsMemory(ones if diag is None else diag), ReferenceLbfgsMemory(LBFGS_MEMORY, diag)

    new, old = fresh()
    for _ in range(steps):
        kind = rng.integers(0, 6)
        if kind == 0:  # a reset, as after a non-descent direction
            new, old = fresh()
        elif kind == 1:  # a weak pair: y nearly orthogonal to s, or pointing against it
            s = rng.normal(size=dim)
            y = -s * rng.uniform(0, 2) if dim == 1 or rng.random() < 0.5 else np.roll(s, 1) - s * (s @ np.roll(s, 1)) / (s @ s)
            new.push(s, y)
            old.push(s, y)
        else:  # a curvature pair; more of them than the memory wraps around
            s = signed_zeros(rng, rng.normal(size=dim) * 10.0 ** rng.integers(-4, 4))
            y = s * rng.uniform(0.1, 10.0, dim) + rng.normal(size=dim) * 0.1
            new.push(s, y)
            old.push(s, y)
        grad = signed_zeros(rng, rng.normal(size=dim) * 10.0 ** rng.integers(-6, 6))
        assert new.direction(grad).tobytes() == old.direction(grad).tobytes()
        assert len(new.pairs) == len(old.s) <= LBFGS_MEMORY


# -- the whole solve on a stub problem ------------------------------------------------


def stub_problem(rng, dim, m, metric, poison):
    """A smooth nonconvex program with `m` residuals; `poison` makes part of the space evaluate to inf."""
    scale = rng.uniform(0.1, 10.0, dim)
    a = rng.normal(size=(m, dim))
    b = rng.normal(size=m)

    def value(z):
        if poison and z[0] > 2.5:
            return math.inf, np.zeros(m)
        f = 0.5 * float(scale @ (z * z)) + float(np.sin(z).sum()) + 0.25 * float((z**4).sum()) * 0.1
        return f, a @ z - b - 0.1 * z[: m % dim + 1].sum()

    def gradient(z, s=None):
        g = scale * z + np.cos(z) + 0.1 * z**3
        if s is not None:
            g = g + a.T @ s
            g[: m % dim + 1] -= 0.1 * s.sum()
        return g

    return NlpFunctions(dim, m, value, gradient, rng.uniform(0.05, 2.0, dim) if metric else None)


def assert_same_result(got: SolverResult, want: SolverResult):
    assert got.z.tobytes() == want.z.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.outer_violations == want.outer_violations
    assert (got.value_evaluations, got.gradient_evaluations, got.backtracks) == (
        want.value_evaluations,
        want.gradient_evaluations,
        want.backtracks,
    )


@given(
    seed=seeds,
    dim=st.integers(1, 25),
    m=st.integers(0, 12),
    metric=st.booleans(),
    poison=st.booleans(),
    budget=st.integers(1, 120),
)
@settings(max_examples=150, deadline=None)
def test_solve_bitwise_equals_the_reference_on_stub_problems(seed, dim, m, metric, poison, budget):
    rng = np.random.default_rng(seed)
    problem = stub_problem(rng, dim, m, metric, poison)
    z0 = rng.normal(size=dim)
    z0[0] = -abs(z0[0])  # a finite start; trial steps may still reach the poisoned part
    options = SolverOptions(max_iterations=budget)
    assert_same_result(solve(problem, z0, options), reference_solve(problem, z0, options))


@pytest.mark.parametrize("metric", [False, True])
def test_unsatisfiable_residual_runs_every_outer_round(metric):
    """c(z) = -(1 + z0^2) < 0 everywhere: the penalty grows every round until the rounds run out."""
    scale = np.array([1.0, 4.0, 0.5])

    def value(z):
        return 0.5 * float(scale @ (z * z)), np.array([-(1.0 + z[0] ** 2)])

    def gradient(z, s):
        g = scale * z
        g[0] -= 2.0 * z[0] * s[0]
        return g

    problem = NlpFunctions(3, 1, value, gradient, 1.0 / scale if metric else None)
    z0 = np.array([0.7, -0.3, 1.1])
    options = SolverOptions(max_iterations=10_000)
    result = solve(problem, z0, options)
    assert result.outer_iterations == len(result.outer_violations) == MAX_OUTER_ITERATIONS
    assert result.iterations < options.max_iterations  # the rounds ran out, not the budget
    assert min(result.outer_violations) >= 1.0
    assert_same_result(result, reference_solve(problem, z0, options))


# -- J'v through the parametrization ------------------------------------------------


def random_surfaces(rng, n_c):
    surfaces = []
    for _ in range(n_c):
        x_min, y_min = -rng.uniform(0.02, 0.3), -rng.uniform(0.02, 0.2)
        surfaces.append(
            ContactSurface(
                x_min, x_min + rng.uniform(0.05, 0.5), y_min, y_min + rng.uniform(0.05, 0.3),
                mu_c=rng.uniform(0.1, 1.0), mu_z=rng.uniform(0.02, 0.3), fz_min=rng.uniform(0.0, 0.5),
            )
        )
    return surfaces


@given(seed=seeds, steps=st.integers(1, 12), n_c=st.integers(1, 3), scale=st.sampled_from([0.1, 1.0, 5.0, 30.0]))
@settings(max_examples=300, deadline=None)
def test_vjp_bitwise_equals_the_dense_jacobian_einsum(seed, steps, n_c, scale):
    rng = np.random.default_rng(seed)
    stacked = SurfaceConstants.of(random_surfaces(rng, n_c))
    xi = signed_zeros(rng, rng.normal(0.0, scale, (steps, n_c, 6)))
    factors = parametrization_factors(xi, stacked)
    v = signed_zeros(rng, rng.normal(size=(steps, n_c, 6)) * 10.0 ** rng.integers(-3, 4), share=0.4)
    assert parametrization_vjp(v, stacked, factors).tobytes() == reference_vjp(v, stacked, factors, xi).tobytes()
    # all-zero seeds of either sign give the einsum's +0.0
    zeros = np.where(rng.random(v.shape) < 0.5, 0.0, -0.0)
    assert parametrization_vjp(zeros, stacked, factors).tobytes() == reference_vjp(zeros, stacked, factors, xi).tobytes()


# -- value then gradient, against a fresh gradient ---------------------------------------

SURFACE = ContactSurface(-0.2, 0.2, -0.075, 0.075)
FEET = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
BUILDERS = {"param": build_mpc_problem, "baseline": build_constrained_mpc}


def make_problem(controller, seed):
    rng = np.random.default_rng(seed)
    gait = np.ones((2, 11), dtype=int)
    gait[int(rng.integers(0, 2)), 3:7] = 0
    state = CentroidalState(np.array([0, 0, 0.53]) + rng.normal(0, 0.03, 3), rng.normal(0, 0.2, 6), FEET)
    refs = HorizonReferences(
        np.tile([0.05, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
        np.tile(FEET[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
        gait,
        np.tile(np.eye(3), (2, 1, 1)),
    )
    grips = rng.normal(0, 2, (2, 6))  # left then right: force, moment
    payload = PayloadDisturbance(grips[:, :3], grips[:, 3:], state.com_position + rng.normal(0, 0.2, (2, 3)))
    return BUILDERS[controller](state, refs, payload, Weights(), MpcConfig(), RobotConstants(mass=1.0), [SURFACE, SURFACE])


@given(seed=seeds, controller=st.sampled_from(sorted(BUILDERS)), zero_share=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_value_then_gradient_bitwise_equals_a_fresh_gradient(seed, controller, zero_share):
    problem = make_problem(controller, seed)
    rng = np.random.default_rng(seed + 1)
    z = problem.initial_warm_start() + rng.normal(0, 0.3, problem.dim)
    # the solver's residual weights are -max(0, .): many are -0.0
    weights = -np.maximum(0.0, rng.uniform(-3, 3, problem.num_constraints))
    weights[rng.random(weights.size) < zero_share] = -0.0
    f, c = problem.evaluator().value(z)
    got = problem.gradient(z, weights)
    fresh = make_problem(controller, seed)
    assert got.tobytes() == fresh.gradient(z, weights).tobytes()
    # and the value kept in the memo is the value of a fresh problem
    f_fresh, c_fresh = fresh.evaluator().value(z.copy())
    assert np.float64(f).tobytes() == np.float64(f_fresh).tobytes()
    assert c.tobytes() == c_fresh.tobytes()


@pytest.mark.parametrize("controller", sorted(BUILDERS))
def test_value_residuals_are_read_only_and_kept(controller):
    problem = make_problem(controller, 3)
    z = problem.initial_warm_start()
    evaluator = problem.evaluator()
    f, c = evaluator.value(z)
    assert not c.flags.writeable
    assert evaluator.value(z.copy())[1] is c  # the repeat is served from the memo


def test_guarded_trial_leaves_the_memo_alone():
    problem = make_problem("param", 4)
    evaluator = problem.evaluator()
    z = problem.initial_warm_start()
    _, c = evaluator.value(z)
    xi, vel = problem.decode(z)
    xi = xi.copy()
    xi[0, 0, 2] = 60.0  # past the merit guard
    assert evaluator.value(problem.encode(xi, vel))[0] == math.inf
    assert evaluator.value(z)[1] is c


# -- the solve's own report ---------------------------------------------------------------


@given(seed=seeds, dim=st.integers(1, 12), m=st.integers(0, 8), budget=st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_outer_iterations_and_kkt_norm_agree_with_the_run(seed, dim, m, budget):
    rng = np.random.default_rng(seed)
    options = SolverOptions(max_iterations=budget, kkt_tolerance=1e-4)
    result = solve(stub_problem(rng, dim, m, False, False), rng.normal(size=dim), options)
    assert result.outer_iterations == len(result.outer_violations) <= MAX_OUTER_ITERATIONS
    assert result.outer_iterations >= 1
    assert result.kkt_norm >= 0.0
    # a solve that runs out of outer rounds reports its last inner status,
    # which may be a loose inner convergence; every other `converged` is tight
    if result.status == CONVERGED and result.outer_iterations < MAX_OUTER_ITERATIONS:
        assert result.kkt_norm <= options.kkt_tolerance


def test_sim_log_keeps_outer_iterations_and_kkt_norms():
    log = run_closed_loop(default_payload_scenario(duration=0.6))
    options = default_payload_scenario().mpc.solver
    assert [r.tick for r in log.ticks] == [0, 1, 2]
    assert all(1 <= r.outer_iterations <= MAX_OUTER_ITERATIONS for r in log.ticks)
    for r in log.ticks:
        if r.status == CONVERGED:
            assert r.kkt_norm <= options.kkt_tolerance
    summary = log.summary()
    assert summary["mean_outer_iterations"] == float(np.mean([r.outer_iterations for r in log.ticks]))
    assert summary["mean_kkt_norm"] == float(np.mean([r.kkt_norm for r in log.ticks]))
