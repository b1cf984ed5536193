"""Command-line entry point: closed-loop runs, timing benchmarks, parametrization checks.

Configuration is a JSON document mirroring the scenario dataclasses; unknown
keys are rejected.  Exit codes: 0 success, 1 property failure, 2 solver
failure mid-run (partial outputs still written), 3 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .contact import ContactSurface, invert_parametrization, parametrize_batch, stability_margins
from .costs import Weights
from .dynamics import RobotConstants, Wrench
from .errors import ConfigurationError, InversionError, SolverFailure
from .gait import GaitParameters
from .mpc import MpcConfig
from .simulation import (
    CONTROLLERS,
    PayloadSpec,
    Scenario,
    compare_timing,
    default_payload_scenario,
    default_run_solver_options,
    run_closed_loop,
)
from .solver import SolverOptions

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_SOLVER_FAILURE = 2
EXIT_CONFIG_ERROR = 3

log = logging.getLogger("payload_mpc")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numeric_array(value) -> bool:
    if not (_is_number(value) or isinstance(value, list) and all(_is_numeric_array(v) for v in value)):
        return False
    try:
        np.asarray(value, dtype=float)
    except ValueError:  # ragged nesting
        return False
    return True


# JSON value checks per dataclass field annotation: (expected, check)
_FIELD_TYPES = {
    "float": ("a number", _is_number),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple": ("an array of numbers", lambda v: isinstance(v, list) and _is_numeric_array(v)),
    "np.ndarray": ("a number or an array of numbers", _is_numeric_array),
}


def _check_value(path: str, value, annotation: str) -> None:
    expected, check = _FIELD_TYPES[annotation]
    if not check(value):
        raise ConfigurationError(f"{path} must be {expected}, got {value!r}")


def _check_fields(cls, data, path: str) -> None:
    """Reject a non-object section, unknown keys and values of the wrong JSON type."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must be an object, got {data!r}")
    # fields a document cannot set (nested dataclasses) count as unknown
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.type in _FIELD_TYPES}
    for key, value in data.items():
        if key not in types:
            raise ConfigurationError(f"unknown configuration key {path}.{key}")
        _check_value(f"{path}.{key}", value, types[key])


def _build_from_dict(cls, data: dict, path: str):
    """Construct a dataclass from a dict, rejecting unknown keys, mistyped values and missing fields."""
    _check_fields(cls, data, path)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and f.name not in data:
            raise ConfigurationError(f"{path}.{f.name} is required")
    return cls(**data)


def _amend(cls, defaults: dict, data, path: str):
    """A `cls` from a config section; the keys it leaves out keep their `defaults` values."""
    _check_fields(cls, data, path)
    return cls(**{**defaults, **data})


# top-level scalars and their field annotations
_TOP_LEVEL_TYPES = {
    "controller": "str",
    "plant_dt": "float",
    "duration": "float",
    "seed": "int",
    "output_dir": "str",
    "benchmark_runs": "int",
    "benchmark_shared_trace": "bool",
}

def _scenario_from_config(data: dict) -> tuple:
    """Parse the config document into (Scenario, output_dir, runs, shared_trace)."""
    data = dict(data)
    sections = {"robot", "surface", "gait", "payload", "weights", "mpc", "solver"}
    for key, value in data.items():
        if key in sections:
            continue
        if key not in _TOP_LEVEL_TYPES:
            raise ConfigurationError(f"unknown configuration key {key}")
        _check_value(key, value, _TOP_LEVEL_TYPES[key])
    out_dir = data.pop("output_dir", "out")
    runs = data.pop("benchmark_runs", 1)
    shared_trace = data.pop("benchmark_shared_trace", False)
    robot = _build_from_dict(RobotConstants, data.get("robot", {"mass": 1.0}), "robot")
    surface = _amend(ContactSurface, _DEFAULT_SURFACE, data.get("surface", {}), "surface")
    gait = _build_from_dict(GaitParameters, data.get("gait", {}), "gait")
    payload = _build_from_dict(PayloadSpec, data.get("payload", {}), "payload")
    solver = _amend(SolverOptions, dataclasses.asdict(default_run_solver_options()), data.get("solver", {}), "solver")
    mpc_data = data.get("mpc", {})
    _check_fields(MpcConfig, mpc_data, "mpc")
    mpc = MpcConfig(solver=solver, **mpc_data)
    weights_data = data.get("weights", {})
    weights = _build_from_dict(Weights, weights_data, "weights")
    scenario = Scenario(
        constants=robot,
        surface=surface,
        gait=gait,
        payload=payload,
        controller=data.get("controller", "param"),
        plant_dt=data.get("plant_dt", 0.01),
        duration=data.get("duration", 8.0),
        seed=data.get("seed", 0),
        weights=weights,
        mpc=mpc,
    )
    scenario.validate()
    return scenario, out_dir, runs, shared_trace


# the carry-walk demo's foot, which a config's `surface` section amends
_DEFAULT_SURFACE = dataclasses.asdict(default_payload_scenario().surface)


def _reject_constant(name: str):
    """`json.load`'s hook for `NaN`, `Infinity` and `-Infinity`, which standard JSON does not have."""
    raise ConfigurationError(f"config file has the non-finite number {name}")


def _load_config(path) -> dict:
    if path is None:
        return {"payload": {"mass": 1.5}}
    try:
        with open(path) as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"the configuration must be a JSON object, got {data!r}")
    return data


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    updates = {}
    if getattr(args, "controller", None) is not None:
        updates["controller"] = args.controller
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "payload_mass", None) is not None:
        updates["payload"] = dataclasses.replace(scenario.payload, mass=args.payload_mass)
    if getattr(args, "steps", None) is not None:
        updates["gait"] = dataclasses.replace(scenario.gait, number_of_steps=args.steps)
    if getattr(args, "duration", None) is not None:
        updates["duration"] = args.duration
    scenario = dataclasses.replace(scenario, **updates)
    scenario.validate()
    return scenario


def cmd_simulate(args) -> int:
    scenario, out_dir, _, _ = _scenario_from_config(_load_config(args.config))
    scenario = _apply_overrides(scenario, args)
    out = Path(args.out_dir or out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log.info("running closed loop: controller=%s duration=%.1fs", scenario.controller, scenario.duration)
    sim_log = run_closed_loop(scenario)
    sim_log.to_csv(out / "sim_log.csv")
    sim_log.write_summary(out / "summary.json")
    summary = sim_log.summary()
    print(json.dumps(summary, indent=2))
    if not sim_log.completed:
        print(f"run failed: {sim_log.failure_reason}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def cmd_benchmark(args) -> int:
    scenario, out_dir, runs, shared_trace = _scenario_from_config(_load_config(args.config))
    scenario = _apply_overrides(scenario, args)
    if args.runs is not None:
        runs = args.runs
    if runs < 1:
        raise ConfigurationError(f"benchmark runs must be >= 1, got {runs}")
    out = Path(args.out_dir or out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = compare_timing(scenario, runs=runs, shared_trace=shared_trace or args.shared_trace)
    report.to_csv(out / "timing.csv")
    summary = report.summary()
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify_param(args) -> int:
    if args.samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {args.samples}")
    if args.seed < 0:  # the sampler's seed sequence takes non-negative integers only
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    # the whole document is parsed as `simulate` parses it: unknown keys and
    # invalid sections are configuration errors here too
    surface = _scenario_from_config(_load_config(args.config))[0].surface
    rng = np.random.default_rng(args.seed)
    failures = 0
    remaining = args.samples
    worst = np.inf
    while remaining > 0:
        batch = min(remaining, 200_000)
        xi = rng.uniform(-10.0, 10.0, (batch, 6))
        margins = stability_margins(parametrize_batch(xi, surface), surface)
        failures += int((margins.min(axis=1) <= 0).sum())
        worst = min(worst, float(margins.min()))
        remaining -= batch
    print(f"soundness: {args.samples} samples, {failures} failures, smallest margin {worst:.3e}")

    # coverage over a deterministic interior grid (margins >= 5% of each bound)
    attempts = 0
    successes = 0
    for fz in np.linspace(max(10 * surface.fz_min, 1.0), 50.0, 4):
        friction_max = 0.95 * surface.mu_c * fz
        for radius in np.linspace(0.0, friction_max, 4):
            for angle in np.linspace(0.0, 2 * np.pi, 7, endpoint=False):
                for cop_x in np.linspace(surface.x_min, surface.x_max, 5)[1:-1]:
                    for cop_y in np.linspace(surface.y_min, surface.y_max, 5)[1:-1]:
                        for mz in np.linspace(-0.95, 0.95, 3) * surface.mu_z * fz:
                            w = Wrench.from_array(
                                [radius * np.cos(angle), radius * np.sin(angle), fz,
                                 cop_y * fz, -cop_x * fz, mz]
                            )
                            attempts += 1
                            try:
                                invert_parametrization(w, surface)
                                successes += 1
                            except InversionError:
                                pass
    coverage = successes / attempts
    print(f"coverage: {successes}/{attempts} interior grid wrenches invertible ({100*coverage:.1f}%)")
    if failures:
        print("FAIL: parametrization produced unstable wrenches", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    print("PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="payload-mpc",
        description="Payload-aware centroidal MPC: simulation, benchmarking and parametrization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one closed-loop scenario and export CSV + summary")
    sim.add_argument("--config", help="JSON scenario configuration")
    sim.add_argument("--out-dir", help="output directory (default from config, else ./out)")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--controller", choices=CONTROLLERS)
    sim.add_argument("--payload-mass", type=float, dest="payload_mass")
    sim.add_argument("--steps", type=int, help="number of footsteps")
    sim.add_argument("--duration", type=float, help="simulated seconds")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark", help="compare parametrized vs constrained controller timing")
    bench.add_argument("--config", help="JSON scenario configuration")
    bench.add_argument("--out-dir")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--runs", type=int, help="closed-loop repetitions")
    bench.add_argument("--shared-trace", action="store_true",
                       help="baseline re-solves the parametrized loop's exact instances")
    bench.add_argument("--steps", type=int)
    bench.add_argument("--duration", type=float)
    bench.set_defaults(func=cmd_benchmark)

    verify = sub.add_parser("verify-param", help="sample the parametrization soundness and coverage")
    verify.add_argument("--samples", type=int, default=1_000_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--config", help="JSON config providing the surface")
    verify.set_defaults(func=cmd_verify_param)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PAYLOAD_MPC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverFailure as exc:  # `compare_timing`: one of its closed loops ended early
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
