"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import contextlib
import time

import numpy as np
import pytest

from payload_mpc.contact import (
    ContactSurface,
    invert_parametrization,
    parametrize,
    parametrize_batch,
    stability_margins,
)
from payload_mpc.costs import Weights
from payload_mpc.dynamics import (
    CentroidalState,
    PayloadDisturbance,
    RobotConstants,
    Wrench,
    centroidal_dynamics,
    euler_step,
    wrench_transport_map,
)
from payload_mpc.errors import InversionError
from payload_mpc.gait import GaitParameters, payload_from_mass
from payload_mpc.mpc import HorizonReferences, MpcConfig, build_mpc_problem
from payload_mpc.baseline import build_constrained_mpc
from payload_mpc.simulation import Scenario, compare_timing, default_payload_scenario, run_closed_loop
from payload_mpc.solver import SolverOptions, finite_difference_gradient, solve


@contextlib.contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL ({time.perf_counter()-start:.1f}s)")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS ({time.perf_counter()-start:.1f}s)")


def random_surface(rng):
    x0, y0 = rng.uniform(-0.1, 0.1, 2)
    return ContactSurface(
        x_min=x0 - rng.uniform(0.02, 0.25),
        x_max=x0 + rng.uniform(0.02, 0.25),
        y_min=y0 - rng.uniform(0.02, 0.15),
        y_max=y0 + rng.uniform(0.02, 0.15),
        mu_c=rng.uniform(0.1, 1.0),
        mu_z=rng.uniform(0.01, 0.5),
        fz_min=rng.uniform(0.0, 0.5),
    )


# -- shared expensive runs ------------------------------------------------------


@pytest.fixture(scope="module")
def payload_walk():
    scenario = default_payload_scenario(duration=8.6)
    start = time.perf_counter()
    log = run_closed_loop(scenario)
    return scenario, log, time.perf_counter() - start


@pytest.fixture(scope="module")
def ablation_walk():
    scenario = default_payload_scenario(duration=8.6, controller="param-no-td")
    return run_closed_loop(scenario)


def test_criterion_1_parametrization_soundness():
    with criterion(1, "parametrization soundness, 1e6 samples"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        failures = 0
        smallest = np.inf
        for _ in range(10):
            surface = random_surface(rng)
            xi = rng.uniform(-10.0, 10.0, (100_000, 6))
            margins = stability_margins(parametrize_batch(xi, surface), surface)
            failures += int((margins.min(axis=1) <= 0).sum())
            smallest = min(smallest, float(margins.min()))
        elapsed = time.perf_counter() - start
        assert failures == 0, f"{failures} unstable samples (worst margin {smallest})"
        assert smallest > 0.0
        assert elapsed < 30.0, f"soundness sweep took {elapsed:.1f}s"


def test_criterion_2_interior_limit():
    with criterion(2, "interior point at zero parameter"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            half_x = rng.uniform(0.02, 0.3)
            half_y = rng.uniform(0.02, 0.2)
            surface = ContactSurface(
                -half_x, half_x, -half_y, half_y,
                mu_c=rng.uniform(0.1, 1.0), mu_z=rng.uniform(0.01, 0.5),
                fz_min=rng.uniform(0.0, 0.5),
            )
            w = parametrize(np.zeros(6), surface).as_array()
            expected = np.array([0.0, 0.0, 1.0 + surface.fz_min, 0.0, 0.0, 0.0])
            assert np.array_equal(w, expected)  # exact, not approximate
            for _ in range(10):
                direction = rng.normal(0, 1, 6)
                xi = 1e-6 * direction / np.linalg.norm(direction)
                deviation = np.linalg.norm(parametrize(xi, surface).as_array() - expected)
                assert deviation < 1e-5


def test_criterion_3_gradient_fidelity():
    with criterion(3, "gradient fidelity on 20 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        surface = ContactSurface(-0.1, 0.1, -0.05, 0.05)
        constants = RobotConstants(mass=1.0)
        feet = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
        worst = 0.0
        for instance in range(20):
            gait = np.ones((2, 11), dtype=int)
            if instance % 3:
                swing = instance % 2
                a, b = sorted(rng.integers(0, 11, 2))
                gait[swing, a : b + 1] = 0
            state = CentroidalState(
                np.array([0, 0, 0.53]) + rng.normal(0, 0.05, 3),
                rng.normal(0, 0.3, 6),
                feet + rng.normal(0, 0.02, (2, 3)),
            )
            refs = HorizonReferences(
                np.tile([0, 0, 0.53], (11, 1)) + rng.normal(0, 0.02, (11, 3)),
                np.tile(feet[:, None, :], (1, 11, 1)) + rng.normal(0, 0.01, (2, 11, 3)),
                gait,
                np.tile(np.eye(3), (2, 1, 1)),
            )
            payload = PayloadDisturbance(
                Wrench.from_array(rng.normal(0, 4, 6)),
                Wrench.from_array(rng.normal(0, 4, 6)),
                state.com_position + rng.normal(0, 0.2, 3),
                state.com_position + rng.normal(0, 0.2, 3),
            )
            problem = build_mpc_problem(
                state, refs, payload, Weights(), MpcConfig(), constants, [surface, surface]
            )
            z = rng.normal(0, 0.5, problem.dim)
            analytic = problem.gradient(z)
            numeric = finite_difference_gradient(problem.evaluator(), z)
            error = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
            worst = max(worst, error)
            assert error < 1e-5, f"instance {instance}: relative error {error:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_4_static_equilibrium_with_payload():
    with criterion(4, "static equilibrium under 1.5 kg payload"):
        scenario = default_payload_scenario(
            duration=2.0, gait=GaitParameters(number_of_steps=0)
        )
        log = run_closed_loop(scenario)
        assert log.completed
        # force balance at the final tick
        state = CentroidalState(log.com[-1], log.momentum[-1], log.feet[-1])
        payload = payload_from_mass(scenario.payload.mass).translated(log.com[-1])
        deriv = centroidal_dynamics(
            state, log.feet_active[-1], log.wrenches[-1], [np.zeros(3)] * 2, payload, scenario.constants
        )
        residual = np.linalg.norm(deriv.momentum)
        assert residual < 0.1, f"momentum rate residual {residual:.3f}"
        total_fz = log.wrenches[-1][:, 2].sum()
        expected = (1.0 + 1.5) * 9.81
        assert abs(total_fz - expected) <= 0.01 * expected, f"sum Fz {total_fz:.3f}"
        com_error = np.linalg.norm(log.tracking_error()[-1])
        assert com_error < 0.01, f"CoM error {com_error:.4f} m"


def test_criterion_5_walking_with_payload(payload_walk):
    with criterion(5, "4-step walk carrying the payload"):
        scenario, log, elapsed = payload_walk
        assert log.completed, log.failure_reason
        horizontal = np.linalg.norm(log.tracking_error()[:, :2], axis=1)
        assert horizontal.max() < 0.05, f"peak horizontal error {horizontal.max():.4f} m"
        # every landing inside the footstep error box
        lb = scenario.mpc.footstep_bound_lower - 1e-6
        ub = scenario.mpc.footstep_bound_upper + 1e-6
        landings = 0
        for i in range(log.n_contacts):
            active = log.feet_active[:, i]
            for t in range(1, len(active)):
                if active[t] and not active[t - 1]:
                    error = log.feet[t, i] - log.feet_ref[t, i]
                    assert (error >= lb).all() and (error <= ub).all(), (
                        f"landing {landings} of contact {i} at t={log.times[t]:.2f}s "
                        f"outside the box: {error}"
                    )
                    landings += 1
        assert landings == scenario.gait.number_of_steps
        assert elapsed < 300.0, f"walk took {elapsed:.1f}s"


def test_criterion_6_payload_task_ablation(payload_walk, ablation_walk):
    with criterion(6, "payload-task ablation ordering"):
        _, aware, _ = payload_walk
        blind = ablation_walk
        assert blind.completed
        aware_err = aware.tracking_error()
        blind_err = blind.tracking_error()
        aware_peak_height = np.abs(aware_err[:, 2]).max()
        blind_peak_height = np.abs(blind_err[:, 2]).max()
        assert blind_peak_height > aware_peak_height, (
            f"height deviation: blind {blind_peak_height:.4f} vs aware {aware_peak_height:.4f}"
        )
        aware_mean = np.linalg.norm(aware_err, axis=1).mean()
        blind_mean = np.linalg.norm(blind_err, axis=1).mean()
        assert blind_mean > aware_mean, (
            f"mean tracking error: blind {blind_mean:.4f} vs aware {aware_mean:.4f}"
        )


def test_criterion_7_timing_ordering():
    with criterion(7, "solve-time and constraint-count ordering"):
        scenario = Scenario(
            duration=30.0,
            surface=ContactSurface(-0.2, 0.2, -0.075, 0.075),
            gait=GaitParameters(number_of_steps=16),
        )
        report = compare_timing(scenario, runs=1)
        summary = report.summary()
        param_mean = summary["param"]["mean_solve_ms"]
        baseline_mean = summary["baseline"]["mean_solve_ms"]
        assert param_mean <= baseline_mean, (
            f"mean solve: param {param_mean:.1f} ms vs baseline {baseline_mean:.1f} ms"
        )
        # structural count: 12 vs 22 inequalities per double-support step
        feet = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
        refs = HorizonReferences(
            np.tile([0, 0, 0.53], (11, 1)),
            np.tile(feet[:, None, :], (1, 11, 1)),
            np.ones((2, 11), dtype=int),
            np.tile(np.eye(3), (2, 1, 1)),
        )
        state = CentroidalState([0, 0, 0.53], np.zeros(6), feet)
        param_problem = build_mpc_problem(
            state, refs, PayloadDisturbance.zero(), scenario.weights, scenario.mpc,
            scenario.constants, [scenario.surface] * 2,
        )
        baseline_problem = build_constrained_mpc(
            state, refs, PayloadDisturbance.zero(), scenario.weights, scenario.mpc,
            scenario.constants, [scenario.surface] * 2,
        )
        param_per_step = param_problem.num_constraints // param_problem.horizon
        baseline_per_step = baseline_problem.constraints_per_step(0)
        assert param_per_step == 12 and baseline_per_step == 22
        assert param_per_step < baseline_per_step
        print(
            f"  [timing] param {param_mean:.1f} ms ({summary['param']['mean_iterations']:.0f} it) "
            f"vs baseline {baseline_mean:.1f} ms ({summary['baseline']['mean_iterations']:.0f} it)"
        )


def test_criterion_8_coverage():
    with criterion(8, "inversion coverage of the interior"):
        start = time.perf_counter()
        surfaces = [
            ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.33, mu_z=0.1, fz_min=0.01),
            ContactSurface(-0.05, 0.35, -0.075, 0.075, mu_c=0.33, mu_z=0.1, fz_min=0.01),
            ContactSurface(-0.2, 0.15, -0.12, 0.04, mu_c=0.6, mu_z=0.3, fz_min=0.2),
        ]
        attempts = 0
        successes = 0
        for surface in surfaces:
            x_span = surface.x_max - surface.x_min
            y_span = surface.y_max - surface.y_min
            for fz in np.linspace(max(1.0, 10 * surface.fz_min), 40.0, 4):
                for radius_frac in np.linspace(0.0, 0.95, 4):
                    radius = radius_frac * surface.mu_c * fz
                    for angle in np.linspace(0.0, 2 * np.pi, 7, endpoint=False):
                        for cop_x in np.linspace(
                            surface.x_min + 0.05 * x_span, surface.x_max - 0.05 * x_span, 4
                        ):
                            for cop_y in np.linspace(
                                surface.y_min + 0.05 * y_span, surface.y_max - 0.05 * y_span, 4
                            ):
                                for mz_frac in (-0.95, 0.0, 0.95):
                                    w = Wrench.from_array(
                                        [
                                            radius * np.cos(angle),
                                            radius * np.sin(angle),
                                            fz,
                                            cop_y * fz,
                                            -cop_x * fz,
                                            mz_frac * surface.mu_z * fz,
                                        ]
                                    )
                                    attempts += 1
                                    try:
                                        invert_parametrization(w, surface)
                                        successes += 1
                                    except InversionError:
                                        pass
        fraction = successes / attempts
        elapsed = time.perf_counter() - start
        print(f"  [coverage] {successes}/{attempts} = {100 * fraction:.1f}%")
        assert fraction >= 0.85, f"coverage {100 * fraction:.1f}% below 85%"
        assert elapsed < 120.0, f"coverage sweep took {elapsed:.1f}s"


def test_criterion_9_dynamics_invariants_and_determinism():
    with criterion(9, "dynamics invariants and determinism"):
        surface = ContactSurface(-0.1, 0.1, -0.05, 0.05)
        constants = RobotConstants(mass=1.0)
        state = CentroidalState(
            [0.02, -0.01, 0.55],
            [0.1, -0.2, 0.3, 0.05, 0.02, -0.04],
            [[0.0, 0.1, 0.0], [0.05, -0.1, 0.01]],
        )
        active = np.array([1, 0])  # stance flags
        wrenches = np.array([[0.4, -0.2, 6.0, 0.02, -0.05, 0.01], [0.0] * 6])
        velocities = [np.zeros(3), np.array([0.25, 0.0, 0.05])]
        payload = payload_from_mass(1.5).translated(state.com_position)

        # 1: Euler single-step consistency, linear in dt
        def fine_flow(dt, substeps=1000):
            s = state
            for _ in range(substeps):
                s = euler_step(s, wrenches, velocities, payload, active, constants, dt / substeps)
            return s

        errors = []
        for dt in (1e-2, 1e-3, 1e-4):
            coarse = euler_step(state, wrenches, velocities, payload, active, constants, dt)
            exact = fine_flow(dt)
            errors.append(np.linalg.norm((coarse.as_vector() - exact.as_vector()) / dt))
        for first, second in zip(errors, errors[1:]):
            assert first / second == pytest.approx(10.0, rel=0.25)

        # 2: free-fall conservation (angular exact, linear to rounding)
        free = np.zeros(2)
        s = state
        for k in range(1, 41):
            s = euler_step(
                s, np.zeros((2, 6)), velocities, PayloadDisturbance.zero(), free, constants, 0.2
            )
            assert np.array_equal(s.momentum[3:], state.momentum[3:])
            expected = state.momentum[2] - constants.mass * 9.81 * k * 0.2
            assert s.momentum[2] == pytest.approx(expected, rel=1e-13)

        # 3: gating: active-contact velocities never matter
        base = euler_step(state, wrenches, velocities, payload, active, constants, 0.2)
        out = euler_step(
            state, wrenches, [np.array([123.0, -14.0, 0.5]), velocities[1]], payload, active,
            constants, 0.2,
        )
        assert np.array_equal(base.as_vector(), out.as_vector())

        # 4: transport identity: force part unchanged bitwise
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.normal(0, 10, 6)
            out = wrench_transport_map(rng.normal(0, 1, 3), rng.normal(0, 1, 3)) @ w
            assert np.array_equal(out[:3], w[:3])

        # solver determinism on an MPC instance
        feet = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
        refs = HorizonReferences(
            np.tile([0, 0, 0.53], (11, 1)),
            np.tile(feet[:, None, :], (1, 11, 1)),
            np.ones((2, 11), dtype=int),
            np.tile(np.eye(3), (2, 1, 1)),
        )
        mpc_state = CentroidalState([0, 0, 0.52], [0.1, 0, 0, 0, 0, 0], feet)
        options = SolverOptions(max_iterations=60, kkt_tolerance=1e-3)

        def solve_once():
            problem = build_mpc_problem(
                mpc_state, refs, payload, Weights(), MpcConfig(solver=options), constants,
                [surface] * 2,
            )
            return solve(problem.evaluator(), problem.initial_warm_start(), options)

        first, second = solve_once(), solve_once()
        assert np.array_equal(first.z, second.z)
        assert first.iterations == second.iterations
        assert first.objective == second.objective
