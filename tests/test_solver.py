import numpy as np
import pytest

from payload_mpc.errors import ConfigurationError
from payload_mpc.solver import (
    NlpFunctions,
    SolverOptions,
    finite_difference_gradient,
    solve,
    unconstrained,
)


def quadratic_about(z0):
    z0 = np.asarray(z0, dtype=float)
    return unconstrained(
        lambda z: 0.5 * float((z - z0) @ (z - z0)),
        lambda z: z - z0,
        dim=z0.size,
    )


def test_unconstrained_quadratic():
    z0 = np.array([1.0, -2.0, 3.0])
    result = solve(quadratic_about(z0), np.zeros(3), SolverOptions())
    assert result.status == "converged"
    assert result.iterations <= 5
    assert result.constraint_violation == 0.0
    assert np.allclose(result.z, z0, atol=1e-6)


def test_active_inequality_1d():
    # min z^2 subject to z >= 1
    problem = NlpFunctions(
        dim=1,
        num_constraints=1,
        value=lambda z: (float(z[0] ** 2), np.array([z[0] - 1.0])),
        gradient=lambda z, s=None: np.array([2.0 * z[0] + (s[0] if s is not None else 0.0)]),
    )
    result = solve(problem, np.array([0.0]), SolverOptions())
    assert result.z[0] == pytest.approx(1.0, abs=1e-6)
    assert result.constraint_violation <= 1e-8


def test_rosenbrock():
    def fun(z):
        return float((1 - z[0]) ** 2 + 100 * (z[1] - z[0] ** 2) ** 2)

    def grad(z):
        return np.array(
            [
                -2 * (1 - z[0]) - 400 * z[0] * (z[1] - z[0] ** 2),
                200 * (z[1] - z[0] ** 2),
            ]
        )

    result = solve(unconstrained(fun, grad, 2), np.array([-1.2, 1.0]), SolverOptions(max_iterations=500))
    assert np.allclose(result.z, [1.0, 1.0], atol=1e-4)


@pytest.mark.parametrize("tolerance", [np.inf, np.nan, 0.0, -1.0])
def test_kkt_tolerance_must_be_finite_and_positive(tolerance):
    with pytest.raises(ConfigurationError):
        SolverOptions(kkt_tolerance=tolerance)


def test_non_finite_initial_objective_rejected():
    problem = unconstrained(lambda z: float("nan"), lambda z: np.zeros(1), 1)
    with pytest.raises(ValueError):
        solve(problem, np.array([0.0]), SolverOptions())
    with pytest.raises(ValueError):
        solve(quadratic_about([0.0]), np.array([np.inf]), SolverOptions())


def test_determinism_bitwise():
    rng = np.random.default_rng(5)
    q = rng.normal(0, 1, (8, 8))
    q = q @ q.T + 0.5 * np.eye(8)
    b = rng.normal(0, 1, 8)

    def make():
        return NlpFunctions(
            dim=8,
            num_constraints=1,
            value=lambda z: (0.5 * float(z @ q @ z) - float(b @ z), np.array([z[0] - 0.1])),
            gradient=lambda z, s=None: q @ z - b + (np.eye(8)[0] * s[0] if s is not None else 0.0),
        )

    z0 = rng.normal(0, 1, 8)
    first = solve(make(), z0, SolverOptions())
    second = solve(make(), z0, SolverOptions())
    assert np.array_equal(first.z, second.z)
    assert first.objective == second.objective
    assert first.iterations == second.iterations
    assert first.status == second.status


def test_outer_violation_monotone_on_converged_run():
    # several constraints, infeasible start
    a = np.array([[1.0, 1.0], [1.0, -2.0]])
    b = np.array([1.0, -0.5])

    problem = NlpFunctions(
        dim=2,
        num_constraints=2,
        value=lambda z: (0.5 * float(z @ z), a @ z - b),
        gradient=lambda z, s=None: z + (a.T @ s if s is not None else 0.0),
    )
    result = solve(problem, np.array([-2.0, -2.0]), SolverOptions())
    assert result.status == "converged"
    viols = result.outer_violations
    assert all(x >= y - 1e-12 for x, y in zip(viols, viols[1:]))


def test_metric_diag_accelerates_badly_scaled_problem():
    scales = np.array([1e4, 1.0, 1e-2, 1e2])
    z0 = np.full(4, 3.0)

    def fun(z):
        return 0.5 * float(scales @ (z**2))

    def grad(z, s=None):
        return scales * z

    plain = solve(NlpFunctions(4, 0, lambda z: (fun(z), np.zeros(0)), grad), z0, SolverOptions())
    metric = solve(
        NlpFunctions(4, 0, lambda z: (fun(z), np.zeros(0)), grad, metric_diag=1.0 / scales),
        z0,
        SolverOptions(),
    )
    assert metric.status == "converged"
    assert metric.iterations <= plain.iterations
    assert metric.iterations <= 3


def test_finite_difference_gradient_simple():
    grad = finite_difference_gradient(lambda z: float(z @ z), np.array([1.0, 2.0]))
    assert np.allclose(grad, [2.0, 4.0], atol=1e-8)


def test_finite_difference_gradient_constant():
    grad = finite_difference_gradient(lambda z: 7.0, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(grad, np.zeros(3))


def test_finite_difference_accepts_evaluator():
    problem = quadratic_about([1.0, -1.0])
    grad = finite_difference_gradient(problem, np.zeros(2))
    assert np.allclose(grad, [-1.0, 1.0], atol=1e-8)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(kkt_tolerance=0.0)
