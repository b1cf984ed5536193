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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .contact import rotate_wrenches
from .costs import Weights
from .dynamics import CentroidalState, PayloadDisturbance, RobotConstants
from .mpc import HorizonReferences, MpcConfig, ShootingProblem, receding_horizon_step
from .solver import solve  # noqa: F401  (perfbench/spans.py wraps `baseline.solve`)

STABILITY_RESIDUALS_PER_CONTACT = 5


class WrenchFactors(NamedTuple):
    """What an evaluated point's value computes of its wrenches that the gradient needs again."""

    cop: tuple  # (a_y, b_y, a_x, b_x): the two factors of each center-of-pressure product
    similarity: np.ndarray | None  # left minus right wrench at the double-support stages


class BaselineProblem(ShootingProblem):
    """Wrench-decision MPC instance with explicit stability constraints.

    The inputs are one 6D wrench (contact frame) per contact and stage, so
    the layout matches the parametrized problem's 9 variables per contact
    per stage.  The stability residuals follow the footstep bounds in the
    constraint vector.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # double-support mask for the similarity term (exactly two active feet)
        self._both_active = (self.activity.sum(axis=1) == 2.0) if self.n_contacts == 2 else np.zeros(
            self.horizon, dtype=bool
        )
        self._both_stages = np.flatnonzero(self._both_active)
        self._inactive = self.activity < 0.5
        # the squared cones' gradient factors, 2 mu^2
        s = self._surface_constants
        self._two_mu_c_sq = 2.0 * s.mu_c**2
        self._two_mu_z_sq = 2.0 * s.mu_z**2

    # the class's own binding: perfbench/spans.py wraps `cls.__dict__["evaluator"]`
    evaluator = ShootingProblem.evaluator

    def _wrenches_world(self, wrenches: np.ndarray, factors=None) -> np.ndarray:
        return rotate_wrenches(wrenches, self._to_world)

    def _input_factors(self, wrenches: np.ndarray) -> WrenchFactors:
        s = self._surface_constants
        fz, mx, my = wrenches[..., 2], wrenches[..., 3], wrenches[..., 4]
        both = self._both_stages
        return WrenchFactors(
            cop=(s.y_max * fz - mx, mx - s.y_min * fz, s.x_max * fz + my, -my - s.x_min * fz),
            similarity=wrenches[both, 0, :] - wrenches[both, 1, :] if self._both_stages.size else None,
        )

    # -- objective ----------------------------------------------------------------

    cost_groups = ShootingProblem.cost_groups + ("input_reg",)

    def _input_blocks(self, point) -> list:
        """The input regularizer: swing velocities, wrenches and the double-support similarity."""
        w = self.weights
        blocks = [("input_reg", point.velocities, w.q_v, None), ("input_reg", point.inputs, w.q_wrench_reg, None)]
        if self._both_stages.size:
            blocks.append(("input_reg", point.factors.similarity, w.q_force_similarity, None))
        return blocks

    # -- constraints ----------------------------------------------------------------

    def stability_residuals(self, wrenches: np.ndarray, cop_factors: tuple) -> np.ndarray:
        """Smooth stability residuals for active contact stages, flattened.

        Per active contact stage: normal force, squared friction cone, CoP-y
        product, CoP-x product, squared torsion cone.  Inactive stages emit a
        constant satisfied residual so the constraint count stays fixed.
        `cop_factors` are the `WrenchFactors.cop` of the wrenches.
        """
        s = self._surface_constants
        a_y, b_y, a_x, b_x = cop_factors
        fx, fy, fz, mz = wrenches[..., 0], wrenches[..., 1], wrenches[..., 2], wrenches[..., 5]
        res = np.empty((self.horizon, self.n_contacts, STABILITY_RESIDUALS_PER_CONTACT))
        res[..., 0] = fz - s.fz_min
        res[..., 1] = (s.mu_c * fz) ** 2 - fx**2 - fy**2
        res[..., 2] = a_y * b_y
        res[..., 3] = a_x * b_x
        res[..., 4] = (s.mu_z * fz) ** 2 - mz**2
        res[self._inactive] = 1.0
        return res.reshape(-1)

    def _stability_gradient(self, wrenches: np.ndarray, s_weights: np.ndarray, cop_factors: tuple) -> np.ndarray:
        """Accumulate sum_j s_j * d(stability residual j)/d(wrench) per stage."""
        s = self._surface_constants
        sw = s_weights.reshape(self.horizon, self.n_contacts, STABILITY_RESIDUALS_PER_CONTACT)
        fz, mz = wrenches[..., 2], wrenches[..., 5]
        a_y, b_y, a_x, b_x = cop_factors
        sw1 = sw[..., 1]
        g = np.zeros(wrenches.shape)
        g2 = g[..., 2]
        g2 += sw[..., 0]
        g[..., :2] += sw1[..., None] * (-2.0 * wrenches[..., :2])
        g2 += sw1 * (self._two_mu_c_sq * fz)
        g2 += sw[..., 2] * (s.y_max * b_y - s.y_min * a_y)
        g[..., 3] += sw[..., 2] * (a_y - b_y)
        g2 += sw[..., 3] * (s.x_max * b_x - s.x_min * a_x)
        g[..., 4] += sw[..., 3] * (b_x - a_x)
        g2 += sw[..., 4] * (self._two_mu_z_sq * fz)
        g[..., 5] += sw[..., 4] * (-2.0 * mz)
        return g * self._gates.stance

    def _residuals(self, point) -> np.ndarray:
        return np.concatenate([super()._residuals(point), self.stability_residuals(point.inputs, point.factors.cop)])

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
        if self._both_stages.size:
            both = self._both_stages
            diff = point.factors.similarity @ w.q_force_similarity
            wrench_direct[both, 0, :] += diff
            wrench_direct[both, 1, :] -= diff
        if s_stability is not None:
            wrench_direct += self._stability_gradient(wrenches, s_stability, point.factors.cop)
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
