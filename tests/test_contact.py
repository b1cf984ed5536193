import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_mpc.contact import (
    ContactSurface,
    SurfaceConstants,
    invert_parametrization,
    is_contact_stable,
    parametrization_jacobian,
    parametrize,
    parametrize_batch,
    stability_margins,
)
from payload_mpc.dynamics import Wrench
from payload_mpc.errors import ConfigurationError, InversionError, ParameterRangeError

SYMMETRIC = ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.33, mu_z=0.01, fz_min=0.01)


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


# -- surface offsets ---------------------------------------------------------


def test_offsets_symmetric():
    d = SurfaceConstants.of(SYMMETRIC)
    assert (d.delta_x, d.delta_x0, d.delta_y, d.delta_y0) == (0.1, 0.0, 0.05, 0.0)


def test_offsets_shifted_x():
    d = SurfaceConstants.of(ContactSurface(0.0, 0.2, -0.05, 0.05))
    # oracle: half-width (0.2-0)/2, negated center -(0.2+0)/2
    assert d.delta_x == pytest.approx(0.1)
    assert d.delta_x0 == pytest.approx(-0.1)


def test_offsets_shifted_y_sign_asymmetry():
    d = SurfaceConstants.of(ContactSurface(-0.1, 0.1, 0.0, 0.1))
    assert d.delta_y == pytest.approx(0.05)
    assert d.delta_y0 == pytest.approx(+0.05)  # y center keeps its sign


def test_surface_validation():
    with pytest.raises(ConfigurationError):
        ContactSurface(0.1, -0.1, -0.05, 0.05)
    with pytest.raises(ConfigurationError):
        ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.0)
    with pytest.raises(ConfigurationError):
        ContactSurface(-0.1, 0.1, -0.05, 0.05, fz_min=-0.1)


# -- parametrization ----------------------------------------------------------


def test_parametrize_at_zero_is_interior_normal_force():
    w = parametrize(np.zeros(6), SYMMETRIC)
    assert np.array_equal(w.as_array(), [0.0, 0.0, 1.01, 0.0, 0.0, 0.0])


def test_parametrize_friction_saturation():
    w = parametrize([20.0, 0.0, np.log(8.81), 0.0, 0.0, 0.0], SYMMETRIC)
    assert w.force[2] == pytest.approx(8.82)
    # oracle: mu_c * tanh(20) * F_z with tanh(20) ~ 1
    assert w.force[0] == pytest.approx(0.33 * np.tanh(20.0) * 8.82, rel=1e-12)
    assert w.force[0] == pytest.approx(2.9106, abs=1e-4)
    assert np.allclose([w.force[1], *w.moment], 0.0)


def test_parametrize_torsion_row():
    w = parametrize([0, 0, 0, 0, 0, 20.0], SYMMETRIC)
    # oracle: mu_z * tanh(20) * (1 + fz_min)
    assert w.moment[2] == pytest.approx(0.01 * np.tanh(20.0) * 1.01, rel=1e-12)
    assert w.moment[2] == pytest.approx(0.0101, abs=1e-6)


def test_parametrize_overflow_guard():
    with pytest.raises(ParameterRangeError):
        parametrize([0, 0, 701.0, 0, 0, 0], SYMMETRIC)
    with pytest.raises(ParameterRangeError):
        parametrize([np.nan, 0, 0, 0, 0, 0], SYMMETRIC)


# -- stability check -----------------------------------------------------------


def test_stable_pure_normal_force():
    foot = ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.33)
    report = is_contact_stable(Wrench([0, 0, 10], [0, 0, 0]), foot)
    assert report.satisfied
    assert report.margins[1] == pytest.approx(3.3)


def test_friction_violation():
    foot = ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.33)
    report = is_contact_stable(Wrench([5, 0, 10], [0, 0, 0]), foot)
    # oracle: sqrt(25) = 5 > 0.33 * 10
    assert not report.satisfied
    assert report.margins[1] == pytest.approx(3.3 - 5.0)


def test_zero_normal_force_fails_without_division():
    report = is_contact_stable(Wrench.zero(), SYMMETRIC)
    assert not report.satisfied
    assert report.margins[0] == pytest.approx(-0.01)
    assert np.isneginf(report.margins[2:]).all()


def test_report_consistency():
    report = is_contact_stable(Wrench([0, 0, 5], [0, 0, 0]), SYMMETRIC)
    assert report.satisfied == bool((report.margins > 0).all())


# -- soundness and coverage properties -------------------------------------------


@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_soundness_property(xi, seed):
    surface = random_surface(np.random.default_rng(seed))
    margins = stability_margins(parametrize(np.array(xi), surface).as_array(), surface)
    assert (margins > 0).all()


def test_soundness_batch_sampling():
    rng = np.random.default_rng(0)
    for _ in range(5):
        surface = random_surface(rng)
        xi = rng.uniform(-10, 10, (20_000, 6))
        margins = stability_margins(parametrize_batch(xi, surface), surface)
        assert (margins > 0).all()


def test_friction_tightness():
    rng = np.random.default_rng(1)
    xi = rng.uniform(-10, 10, (50_000, 6))
    w = parametrize_batch(xi, SYMMETRIC)
    ratio = np.hypot(w[:, 0], w[:, 1]) / (SYMMETRIC.mu_c * w[:, 2])
    assert ratio.max() < 1.0
    at_saturation = parametrize([20.0, 0, 0, 0, 0, 0], SYMMETRIC)
    sat = np.hypot(*at_saturation.force[:2]) / (SYMMETRIC.mu_c * at_saturation.force[2])
    assert sat > 0.999


def test_cop_stays_inside_rectangle():
    rng = np.random.default_rng(2)
    surface = ContactSurface(-0.03, 0.21, -0.11, 0.02, mu_c=0.5, mu_z=0.2, fz_min=0.05)
    xi = rng.uniform(-10, 10, (50_000, 6))
    w = parametrize_batch(xi, surface)
    cop_y = w[:, 3] / w[:, 2]
    cop_x = -w[:, 4] / w[:, 2]
    assert (cop_y > surface.y_min).all() and (cop_y < surface.y_max).all()
    assert (cop_x > surface.x_min).all() and (cop_x < surface.x_max).all()


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=100)
def test_normal_force_monotone_in_xi3(a, b):
    lo, hi = sorted([a, b])
    if hi - lo < 1e-9:
        return
    xi = np.array([0.3, -0.2, 0.0, 0.1, 0.4, -0.5])
    w_lo = parametrize(np.r_[xi[:2], lo, xi[3:]], SYMMETRIC)
    w_hi = parametrize(np.r_[xi[:2], hi, xi[3:]], SYMMETRIC)
    assert w_hi.force[2] > w_lo.force[2]


# -- Jacobian --------------------------------------------------------------------


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    surface = random_surface(rng)
    for _ in range(100):
        xi = rng.uniform(-3, 3, 6)
        jac = parametrization_jacobian(xi, surface)
        fd = np.zeros((6, 6))
        eps = 1e-7
        for j in range(6):
            dp = np.zeros(6)
            dp[j] = eps
            fd[:, j] = (
                parametrize(xi + dp, surface).as_array() - parametrize(xi - dp, surface).as_array()
            ) / (2 * eps)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(jac - fd).max() / scale < 1e-6


# -- inversion --------------------------------------------------------------------


def test_invert_interior_point():
    xi = invert_parametrization(Wrench([0, 0, 1.01], [0, 0, 0]), SYMMETRIC)
    assert np.allclose(xi, 0.0, atol=1e-9)


def test_invert_normal_force_row():
    xi = invert_parametrization(Wrench([0, 0, 9.81], [0, 0, 0]), SYMMETRIC)
    assert xi[2] == pytest.approx(np.log(9.8), abs=1e-9)
    assert np.allclose(np.delete(xi, 2), 0.0, atol=1e-9)


def test_invert_boundary_rejected():
    # exactly on the friction cone: strict inequality fails
    w = Wrench([0.33 * 5, 0, 5], [0, 0, 0])
    with pytest.raises(InversionError):
        invert_parametrization(w, SYMMETRIC)


def test_invert_outside_image_rejected():
    # inside the friction cone but outside the parametrized image; the gap
    # appears off-diagonal where one tangential ratio dominates
    s = ContactSurface(-0.1, 0.1, -0.05, 0.05, mu_c=0.5, mu_z=0.1, fz_min=0.01)
    fz = 10.0
    a, b = 0.9, 0.4  # a^2 (1+b^2) / (1 - a^2 b^2) > 1: no preimage
    w = Wrench([a * s.mu_c * fz, b * s.mu_c * fz, fz], [0, 0, 0])
    assert is_contact_stable(w, s).satisfied
    with pytest.raises(InversionError):
        invert_parametrization(w, s)


def test_invert_round_trip_random_interior():
    rng = np.random.default_rng(4)
    for _ in range(50):
        surface = random_surface(rng)
        xi_true = rng.uniform(-2.5, 2.5, 6)
        w = parametrize(xi_true, surface)
        xi = invert_parametrization(w, surface)
        reconstructed = parametrize(xi, surface).as_array()
        target = w.as_array()
        assert np.linalg.norm(reconstructed - target) <= 1e-6 * max(1.0, np.linalg.norm(target))


def test_invert_honors_initial_guess():
    w = parametrize([0.5, -0.3, 1.0, 0.2, -0.1, 0.4], SYMMETRIC)
    xi = invert_parametrization(w, SYMMETRIC, xi_init=np.zeros(6))
    assert np.linalg.norm(parametrize(xi, SYMMETRIC).as_array() - w.as_array()) < 1e-6 * max(
        1.0, np.linalg.norm(w.as_array())
    )
