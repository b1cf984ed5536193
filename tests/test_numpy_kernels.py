"""numpy's kernels, called directly on the hot path, against the public functions they stand for.

`shooting.einsum` is numpy's `c_einsum` and `shooting.linalg_solve` the
gufunc behind `np.linalg.solve`, both reached through numpy's private
modules.  The walks stay bitwise the same only while each gives its public
function's result bit for bit, so every test here demands `tobytes()`
equality: a numpy release that changes these internals fails here, not in a
walk.  The einsum checks replay every call one evaluation of each problem
makes, on the operands the package itself builds (strided views included);
`costs._skew_batch` must return a C-ordered array, because the M einsum of
the payload targets sums in an order that follows its operands' layout.
"""

import numpy as np
import pytest

from payload_mpc import baseline, costs, mpc, shooting
from payload_mpc.contact import ContactSurface
from payload_mpc.costs import Weights
from payload_mpc.dynamics import CentroidalState, PayloadDisturbance, RobotConstants, Wrench

SUBSCRIPTS = {"ki,ij,kj->", "ki,kiab->kab", "ki,kiab,kicb->kac", "iba,kib->kia", "iab,kib->kia"}


def rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def make_problem(builder, rng, steps=10):
    feet = np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]])
    gait = np.ones((2, steps + 1), dtype=int)
    gait[0, 3:6] = 0  # a swing phase, so both single and double support occur
    refs = mpc.HorizonReferences(
        com_refs=np.tile([0.05, 0.0, 0.53], (steps + 1, 1)) + 0.01 * rng.standard_normal((steps + 1, 3)),
        footstep_refs=np.tile(feet[:, None, :], (1, steps + 1, 1)),
        gait=gait,
        contact_orientations=np.array([rotation(rng), rotation(rng)]),
    )
    grip = Wrench([0.0, 0.0, -7.0], [0.1, -0.2, 0.0])
    payload = PayloadDisturbance(grip, grip, [0.25, 0.1, 0.4], [0.25, -0.1, 0.4])
    return builder(
        state=CentroidalState([0.0, 0.0, 0.53], 0.1 * rng.standard_normal(6), feet),
        refs=refs,
        payload_estimate=payload,
        weights=Weights(),
        config=mpc.MpcConfig(horizon=steps),
        constants=RobotConstants(mass=1.0),
        surfaces=[ContactSurface(-0.05, 0.35, -0.075, 0.075)] * 2,
    )


def recorded_einsums(monkeypatch):
    """Every einsum call of one value and one gradient of each problem kind."""
    calls = []
    kernel = shooting.einsum

    def recorder(subscripts, *operands):
        calls.append((subscripts, operands))
        return kernel(subscripts, *operands)

    # each module's own binding; mpc looks `einsum` up on `shooting` at call time,
    # and the baseline's costs go through `costs.quad`
    monkeypatch.setattr(shooting, "einsum", recorder)
    monkeypatch.setattr(costs, "_einsum", recorder)
    rng = np.random.default_rng(3)
    for builder in (mpc.build_mpc_problem, baseline.build_constrained_mpc):
        problem = make_problem(builder, rng)
        z = problem.initial_warm_start() + 0.05 * rng.standard_normal(problem.dim)
        nlp = problem.evaluator()
        nlp.value(z)
        nlp.gradient(z, -rng.uniform(0.0, 1.0, problem.num_constraints))
    monkeypatch.undo()
    return calls


def test_einsum_binding_is_numpy_einsum_bitwise_on_every_call_the_package_makes(monkeypatch):
    calls = recorded_einsums(monkeypatch)
    assert {subscripts for subscripts, _ in calls} == SUBSCRIPTS
    # the tracking cost's angular momentum is the strided view `states[:, 6:9]` (15 state columns)
    assert any(op.shape == (11, 3) and op.strides == (15 * 8, 8) for _, operands in calls for op in operands)
    for subscripts, operands in calls:
        expected = np.einsum(subscripts, *operands)
        got = shooting.einsum(subscripts, *operands)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), subscripts


@pytest.mark.parametrize("steps", [1, 10, 37])
def test_solve_binding_is_numpy_solve_bitwise(steps):
    rng = np.random.default_rng(steps)
    a = rng.standard_normal((steps, 6, 6)) + 3.0 * np.eye(6)
    for b in (rng.standard_normal((steps, 6, 1)), rng.standard_normal((steps, 6, 4))):
        assert shooting.linalg_solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


def test_solve_binding_raises_on_a_singular_stack():
    a = np.tile(np.eye(6), (4, 1, 1))
    a[2, 3] = a[2, 4]  # two equal rows
    with pytest.raises(np.linalg.LinAlgError):
        shooting.linalg_solve(a, np.ones((4, 6, 1)))


def test_skew_batch_and_cross_return_c_ordered_arrays():
    rng = np.random.default_rng(0)
    states = rng.standard_normal((11, 15))
    r = states[:-1, 9:].reshape(10, 2, 3) - states[:-1, None, 0:3]
    rx = costs._skew_batch(r)
    assert rx.flags.c_contiguous and rx.shape == (10, 2, 3, 3)
    assert shooting.cross(states[:-1, 0:3], rng.standard_normal((10, 3))).flags.c_contiguous
