"""Comparison controller with explicit contact-stability constraints.

A `mpc.ShootingProblem` like the parametrized controller, so it shares its
prediction model, tracking objective, gradient, evaluator and receding-horizon
step.  Its decision variables are the contact wrenches themselves, and the
five stability conditions are imposed as smooth inequalities on every active
contact stage (two-sided center-of-pressure conditions become products, the
friction and torsion cones are squared, ratios are multiplied through by the
normal force).  Payload tasks are replaced by a force-similarity regularizer
that pulls the two feet wrenches together during double support.  Used for
like-for-like computational comparison: wrench decision variables isolate the
parametrization-versus-constraints change.

The stability kernels work component-major.  A point's `WrenchFactors` keep
the (6, K, n_c) component rows of its wrenches, gathered once by one `take`,
so that the center-of-pressure factors, the residuals and their gradient
read each component as a contiguous (K, n_c) row against the surface
constants held at the same shape (`SurfaceConstants.over`), instead of a
strided `wrenches[..., k]` column.  The residuals and the gradient are
computed as (5, K, n_c) and (6, K, n_c) rows and put back into the
constraint vector's (K, n_c, 5) order, and the wrench gradient's (K, n_c, 6)
layout, by one gather and one product each.  The double-support similarity
gathers its left and right wrenches through index arrays, an empty (0, 6)
block on a horizon with no double-support stage: its cost is 0.0 and its
seeds write nothing, so every schedule takes one path.  Every entry is the
same product or sum, in the same order, as the per-contact formulas.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .contact import rotate_wrenches
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants
from .mpc import HorizonReferences, MpcConfig, ShootingProblem, receding_horizon_step
from .shooting import stage_constant
from .solver import solve  # noqa: F401  (perfbench/spans.py wraps `baseline.solve`)

STABILITY_RESIDUALS_PER_CONTACT = 5


class WrenchFactors(NamedTuple):
    """What an evaluated point's value computes of its wrenches that the gradient needs again."""

    rows: np.ndarray  # (6, K, n_c) the wrench components, component-major
    cop: tuple  # (a_y, b_y, a_x, b_x): the two factors of each center-of-pressure product, (K, n_c) each
    similarity: np.ndarray  # (n_double_support, 6) left minus right wrench at the double-support stages


class BaselineProblem(ShootingProblem):
    """Wrench-decision MPC instance with explicit stability constraints.

    The inputs are one 6D wrench (contact frame) per contact and stage, so
    the layout matches the parametrized problem's 9 variables per contact
    per stage.  The stability residuals follow the footstep bounds in the
    constraint vector.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        steps, n_c = self.horizon, self.n_contacts
        # double-support mask for the similarity term (exactly two active feet)
        self._both_active = (self.activity.sum(axis=1) == 2.0) if n_c == 2 else np.zeros(steps, dtype=bool)
        # flat positions in a (K, n_c, 6) array of the left and right wrenches
        # at those stages, (0, 6) when there are none
        left = (n_c * 6 * np.flatnonzero(self._both_active))[:, None] + np.arange(6)
        self._similarity_index = (left, left + 6)
        # the flat positions of a (K, n_c, m) array's entries, component-major
        # (m, K, n_c): the wrenches' and the residual weights' component rows
        residual_entries = np.arange(steps * n_c * STABILITY_RESIDUALS_PER_CONTACT)
        self._wrench_rows = np.arange(steps * n_c * 6).reshape(steps, n_c, 6).transpose(2, 0, 1).copy()
        self._residual_rows = residual_entries.reshape(steps, n_c, -1).transpose(2, 0, 1).copy()
        # and back: the (5, K, n_c) rows' positions in the constraint order
        # (K, n_c, 5), and the entries of the contacts in swing there
        self._residual_order = residual_entries.reshape(-1, steps, n_c).transpose(1, 2, 0).reshape(-1)
        self._inactive_residuals = residual_entries.reshape(steps, n_c, -1)[self.activity < 0.5].reshape(-1)
        # the squared cones' gradient factors, 2 mu^2, with the C library's `pow`
        # for the square, as a scalar `mu ** 2` computes it
        s = self._stage_surface
        self._two_mu_c_sq = stage_constant(2.0 * np.float_power(s.mu_c, 2), (steps, n_c))
        self._two_mu_z_sq = stage_constant(2.0 * np.float_power(s.mu_z, 2), (steps, n_c))

    # the class's own binding: perfbench/spans.py wraps `cls.__dict__["evaluator"]`
    evaluator = ShootingProblem.evaluator

    def _wrenches_world(self, wrenches: np.ndarray, factors) -> np.ndarray:
        return rotate_wrenches(wrenches, self._to_world)

    def _input_factors(self, wrenches: np.ndarray) -> WrenchFactors:
        s = self._stage_surface
        rows = wrenches.take(self._wrench_rows)
        fz, mx, my = rows[2], rows[3], rows[4]
        left, right = self._similarity_index
        return WrenchFactors(
            rows=rows,
            cop=(s.y_max * fz - mx, mx - s.y_min * fz, s.x_max * fz + my, -my - s.x_min * fz),
            similarity=wrenches.take(left) - wrenches.take(right),
        )

    # -- objective ----------------------------------------------------------------

    cost_groups = ShootingProblem.cost_groups + ("input_reg",)

    def _input_blocks(self, point) -> list:
        """The input regularizer: swing velocities, wrenches and the double-support similarity."""
        w = self.weights
        return [
            ("input_reg", point.velocities, w.q_v, None),
            ("input_reg", point.inputs, w.q_wrench_reg, None),
            ("input_reg", point.factors.similarity, w.q_force_similarity, None),
        ]

    # -- constraints ----------------------------------------------------------------

    def stability_residuals(self, factors: WrenchFactors) -> np.ndarray:
        """Smooth stability residuals for active contact stages, flattened.

        Per active contact stage: normal force, squared friction cone, CoP-y
        product, CoP-x product, squared torsion cone.  Inactive stages emit a
        constant satisfied residual so the constraint count stays fixed.
        `factors` are the `WrenchFactors` of the wrenches.
        """
        s = self._stage_surface
        a_y, b_y, a_x, b_x = factors.cop
        fx, fy, fz, _, _, mz = factors.rows
        res = np.empty((STABILITY_RESIDUALS_PER_CONTACT, self.horizon, self.n_contacts))
        np.subtract(fz, s.fz_min, res[0])
        np.subtract((s.mu_c * fz) ** 2 - fx**2, fy**2, res[1])
        np.multiply(a_y, b_y, res[2])
        np.multiply(a_x, b_x, res[3])
        np.subtract((s.mu_z * fz) ** 2, mz**2, res[4])
        out = res.take(self._residual_order)
        out.put(self._inactive_residuals, 1.0)
        return out

    def _stability_gradient(self, factors: WrenchFactors, s_weights: np.ndarray) -> np.ndarray:
        """Accumulate sum_j s_j * d(stability residual j)/d(wrench) per stage, as (K, n_c, 6)."""
        s = self._stage_surface
        sw0, sw1, sw2, sw3, sw4 = s_weights.take(self._residual_rows)
        fx, fy, fz, _, _, mz = factors.rows
        a_y, b_y, a_x, b_x = factors.cop
        g = np.zeros(factors.rows.shape)
        g0, g1, g2, g3, g4, g5 = g
        g2 += sw0
        g0 += sw1 * (-2.0 * fx)
        g1 += sw1 * (-2.0 * fy)
        g2 += sw1 * (self._two_mu_c_sq * fz)
        g2 += sw2 * (s.y_max * b_y - s.y_min * a_y)
        g3 += sw2 * (a_y - b_y)
        g2 += sw3 * (s.x_max * b_x - s.x_min * a_x)
        g4 += sw3 * (b_x - a_x)
        g2 += sw4 * (self._two_mu_z_sq * fz)
        g5 += sw4 * (-2.0 * mz)
        return g.transpose(1, 2, 0) * self._gates.stance

    def _residuals(self, point) -> np.ndarray:
        return np.concatenate([super()._residuals(point), self.stability_residuals(point.factors)])

    @property
    def num_constraints(self) -> int:
        return self.num_bound_constraints + self.horizon * self.n_contacts * STABILITY_RESIDUALS_PER_CONTACT

    def constraints_per_step(self, step: int) -> int:
        """Inequality count charged to one prediction stage (bounds + active cones)."""
        active = int(self.activity[step].sum())
        return self.num_bound_constraints // self.horizon + active * STABILITY_RESIDUALS_PER_CONTACT

    # -- gradient ----------------------------------------------------------------

    def _input_seeds(self, point, seeds: np.ndarray, s_stability) -> np.ndarray:
        """Direct contact-frame gradient of the input costs and the stability residuals."""
        wrenches, w = point.inputs, self.weights
        wrench_direct = np.zeros((self.horizon, self.n_contacts, 6))
        wrench_direct += wrenches @ w.q_wrench_reg
        left, right = self._similarity_index
        diff = point.factors.similarity @ w.q_force_similarity
        flat = wrench_direct.reshape(-1)
        flat.put(left, flat.take(left) + diff)
        flat.put(right, flat.take(right) - diff)
        if s_stability is not None:
            wrench_direct += self._stability_gradient(point.factors, s_stability)
        return wrench_direct

    def _input_gradient(self, point, wrench_adj: np.ndarray, wrench_direct: np.ndarray) -> np.ndarray:
        # rotate the dynamics-path gradient back into the contact frames; the
        # direct terms already live there
        wrench_grad = rotate_wrenches(wrench_adj, self.refs.contact_orientations)
        wrench_grad += wrench_direct
        return wrench_grad

    def _input_curvature(self, momentum: np.ndarray, com: np.ndarray) -> np.ndarray:
        """Wrench curvature (K, n_c, 6): the regularizers and the tracking tasks."""
        q_sim = np.diag(self.weights.q_force_similarity)
        similarity = np.where(self._both_active[:, None], q_sim, 0.0 * q_sim)
        tasks = np.empty((self.horizon, 6))
        tasks[:, :3] = (momentum + com)[:, None]
        tasks[:, 3:] = momentum[:, None]
        regularizers = np.diag(self.weights.q_wrench_reg) + similarity
        return regularizers[:, None, :] + self.activity[..., None] * tasks[:, None, :]

    # -- warm start -----------------------------------------------------------------

    def initial_warm_start(self) -> np.ndarray:
        return self.encode(self._weight_shares(), np.zeros((self.horizon, self.n_contacts, 3)))


def build_constrained_mpc(
    state: CentroidalState,
    refs: HorizonReferences,
    payload_estimate: PayloadDisturbance,
    weights: Weights,
    config: MpcConfig,
    constants: RobotConstants,
    surfaces,
) -> BaselineProblem:
    return BaselineProblem(state, refs, payload_estimate, weights, config, constants, surfaces)


# one receding-horizon update serves both controllers
baseline_receding_horizon_step = receding_horizon_step
