"""Contact-stability conditions and a smooth wrench parametrization of their interior.

A planar unilateral contact on a rectangular patch is stable when the wrench
satisfies five conditions: positive normal force, Coulomb friction on the
tangential force, center of pressure inside the rectangle (both axes) and
bounded torsional moment.  Those conditions carve out an open set K of
admissible wrenches.

`parametrize` maps an unconstrained 6-vector xi smoothly onto (most of) the
interior of K:

    F_z = exp(xi3) + fz_min
    F_x = mu_c * tanh(xi1) * F_z / sqrt(1 + tanh(xi2)^2)
    F_y = mu_c * tanh(xi2) * F_z / sqrt(1 + tanh(xi1)^2)
    M_x = (delta_y * tanh(xi4) + delta_y0) * F_z
    M_y = (delta_x * tanh(xi5) + delta_x0) * F_z
    M_z = mu_z * tanh(xi6) * F_z

with the delta offsets derived from the rectangle bounds.  Every image point
satisfies the stability conditions strictly, which lets an optimizer search
over xi with no contact-stability constraints at all.  As xi -> 0 the wrench
tends to a pure normal force of magnitude 1 + fz_min through the rectangle
center.

The map and its Jacobian share one set of factors (tanh(xi), exp(xi3), F_z,
the two square roots and the row prefactors
ft = (mu_c t1, mu_c t2, 1, delta_y t4 + delta_y0, delta_x t5 + delta_x0, mu_z t6)),
computed once per xi by `parametrization_factors` together with the finite
and overflow checks; an optimizer that evaluates the map at a point and later
its Jacobian there keeps the factors in between.  The map is ft * F_z and the
Jacobian's xi3 column is ft * exp(xi3), each with its first two rows divided
by their square roots: the same products in the same order as the formulas
above, so bitwise the same values.
Surface constants may be stacked along the contact axis (`SurfaceConstants`),
so one call maps the parameters of every contact, each with its own surface,
and `rotate_wrenches` turns them into the inertial frame with one stacked
matmul.  Both give every entry bitwise as the per-contact calls would.

`invert_parametrization` recovers xi for wrenches inside the image; targets
near the corners of the friction disc fall outside the image (the map covers
almost but not all of K) and raise `InversionError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dynamics import Wrench
from .errors import ConfigurationError, InversionError, ParameterRangeError

# exp() overflows IEEE doubles just above 709; stay clear of it
XI3_LIMIT = 700.0

_INVERT_MAX_ITERATIONS = 100
_INVERT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ContactSurface:
    """Rectangular contact patch in its own frame plus friction limits.

    x/y bounds are the rectangle edges (m) around the contact frame origin,
    mu_c/mu_z the static and torsional friction coefficients, fz_min the
    minimum admissible normal force (N).
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    mu_c: float = 0.33
    mu_z: float = 0.1
    fz_min: float = 0.01

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"surface {f.name} must be finite, got {getattr(self, f.name)}")
        if not (self.x_min < self.x_max):
            raise ConfigurationError(f"surface x bounds invalid: x_min={self.x_min} >= x_max={self.x_max}")
        if not (self.y_min < self.y_max):
            raise ConfigurationError(f"surface y bounds invalid: y_min={self.y_min} >= y_max={self.y_max}")
        if not (self.mu_c > 0):
            raise ConfigurationError(f"mu_c must be positive, got {self.mu_c}")
        if not (self.mu_z > 0):
            raise ConfigurationError(f"mu_z must be positive, got {self.mu_z}")
        if not (self.fz_min >= 0):
            raise ConfigurationError(f"fz_min must be non-negative, got {self.fz_min}")


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the five stability conditions; positive margin = satisfied with slack."""

    satisfied: bool
    margins: np.ndarray  # (5,): normal force, friction, CoP-y, CoP-x, torsion

    def __post_init__(self):
        object.__setattr__(self, "margins", np.asarray(self.margins, dtype=float).reshape(5))


@dataclass(frozen=True)
class SurfaceConstants:
    """The constants of one surface, or of one surface per contact stacked.

    Built from one `ContactSurface` the fields are floats.  Built from a
    sequence of them they are (n_c,) arrays, which broadcast against
    parameters or wrenches shaped (..., n_c, 6): one call then maps every
    contact with its own surface, and every entry is computed exactly as the
    one-surface call would compute it.  The problems build theirs once.

    The deltas are the rectangle's half-extents and center offsets as the
    parametrization uses them.  Note the sign asymmetry: delta_x0 is the
    negated x-center, delta_y0 the plain y-center.  That is what makes
    M_y = -CoP_x * F_z and M_x = CoP_y * F_z land the center of pressure
    inside the rectangle.
    """

    x_min: float | np.ndarray
    x_max: float | np.ndarray
    y_min: float | np.ndarray
    y_max: float | np.ndarray
    mu_c: float | np.ndarray
    mu_z: float | np.ndarray
    fz_min: float | np.ndarray
    delta_x: float | np.ndarray
    delta_x0: float | np.ndarray
    delta_y: float | np.ndarray
    delta_y0: float | np.ndarray
    # (..., 6) rows of ft = row_scale * tanh(xi) + row_offset; the -0.0 offsets
    # add nothing to any value, signed zeros included
    row_scale: np.ndarray
    row_offset: np.ndarray

    @classmethod
    def of(cls, surfaces) -> "SurfaceConstants":
        """From a `ContactSurface`, a sequence of them (stacked), or an existing record."""
        if isinstance(surfaces, cls):
            return surfaces
        if isinstance(surfaces, ContactSurface):
            s = surfaces
            delta_x, delta_x0 = 0.5 * (s.x_max - s.x_min), -0.5 * (s.x_max + s.x_min)
            delta_y, delta_y0 = 0.5 * (s.y_max - s.y_min), 0.5 * (s.y_max + s.y_min)
            return cls(
                s.x_min, s.x_max, s.y_min, s.y_max, s.mu_c, s.mu_z, s.fz_min,
                delta_x, delta_x0, delta_y, delta_y0,
                row_scale=np.array([s.mu_c, s.mu_c, 0.0, delta_y, delta_x, s.mu_z]),
                row_offset=np.array([-0.0, -0.0, 1.0, delta_y0, delta_x0, -0.0]),
            )
        singles = [cls.of(s) for s in surfaces]
        return cls(*(np.array([getattr(s, f.name) for s in singles]) for f in dataclasses.fields(cls)))


@dataclass(frozen=True)
class ParametrizationFactors:
    """The transcendental factors of the map at one xi, shared by the map and its Jacobian."""

    t: np.ndarray  # (..., 6) tanh(xi)
    e3: np.ndarray  # (...,) exp(xi3)
    fz: np.ndarray  # (...,) normal force exp(xi3) + fz_min
    r1: np.ndarray  # (...,) sqrt(1 + tanh(xi1)^2)
    r2: np.ndarray  # (...,) sqrt(1 + tanh(xi2)^2)
    ft: np.ndarray  # (..., 6) row prefactors of F_z in the map (of exp(xi3) in its Jacobian)


def parametrization_factors(xi: np.ndarray, surface) -> ParametrizationFactors:
    """Check xi (..., 6) and compute its factors; `surface` as for `parametrize_batch`."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 6:
        raise ConfigurationError(f"xi must have 6 components, got shape {xi.shape}")
    if not np.isfinite(xi).all():
        raise ParameterRangeError("xi must be finite")
    if np.abs(xi[..., 2]).max() > XI3_LIMIT:
        raise ParameterRangeError(f"|xi_3| exceeds the overflow guard {XI3_LIMIT}")
    return _unchecked_factors(xi, SurfaceConstants.of(surface))


def _unchecked_factors(xi: np.ndarray, c: SurfaceConstants) -> ParametrizationFactors:
    """`parametrization_factors` for a caller that has checked xi itself (finite, |xi_3| <= XI3_LIMIT)."""
    t = np.tanh(xi)
    e3 = np.exp(xi[..., 2])
    return ParametrizationFactors(
        t=t,
        e3=e3,
        fz=e3 + c.fz_min,
        r1=np.sqrt(1.0 + t[..., 0] ** 2),
        r2=np.sqrt(1.0 + t[..., 1] ** 2),
        ft=c.row_scale * t + c.row_offset,
    )


def parametrize_batch(xi: np.ndarray, surface, factors: ParametrizationFactors | None = None) -> np.ndarray:
    """Vectorized parametrization: xi (..., 6) -> wrench components (..., 6).

    `surface` is a `ContactSurface`, or a sequence of them (or their stacked
    `SurfaceConstants`) for xi shaped (..., n_c, 6).  Pass the `factors` of
    the same xi to skip recomputing them.
    """
    if factors is None:
        factors = parametrization_factors(xi, surface)
    out = factors.ft * factors.fz[..., None]
    out[..., 0] /= factors.r2
    out[..., 1] /= factors.r1
    return out


def parametrize(xi, surface: ContactSurface) -> Wrench:
    """Map a parameter 6-vector to a stability-satisfying contact wrench."""
    w = parametrize_batch(np.asarray(xi, dtype=float).reshape(6), surface)
    return Wrench.from_array(w)


def parametrization_jacobian_batch(
    xi: np.ndarray, surface, factors: ParametrizationFactors | None = None
) -> np.ndarray:
    """Closed-form Jacobians of the parametrization: xi (..., 6) -> (..., 6, 6).

    `surface` and `factors` as for `parametrize_batch`.
    """
    if factors is None:
        factors = parametrization_factors(xi, surface)
    diag, column, j01, j10 = _jacobian_entries(factors, SurfaceConstants.of(surface))
    jac = np.zeros(diag.shape + (6,))
    jac.reshape(diag.shape[:-1] + (36,))[..., ::7] = diag
    jac[..., :, 2] = column  # overwrites the diagonal's xi3 entry
    jac[..., 0, 1] = j01
    jac[..., 1, 0] = j10
    return jac


def _jacobian_entries(factors: ParametrizationFactors, c: SurfaceConstants):
    """The Jacobian's 13 structural nonzeros: (diagonal, xi3 column, J[0, 1], J[1, 0]).

    The diagonal's xi3 entry is not one of them: the column replaces it.
    """
    t, e3, fz, r1, r2, ft = factors.t, factors.e3, factors.fz, factors.r1, factors.r2, factors.ft
    s = 1.0 - t**2  # sech^2
    # diagonal: row_scale * sech^2 * F_z
    diag = c.row_scale * s * fz[..., None]
    diag[..., 0] /= r2
    diag[..., 1] /= r1
    # the xi3 column: the map's rows with exp(xi3) in place of F_z
    column = ft * e3[..., None]
    column[..., 0] /= r2
    column[..., 1] /= r1
    # the friction rows' coupling through the other square root
    j01 = -ft[..., 0] * fz * t[..., 1] * s[..., 1] / r2**3
    j10 = -ft[..., 1] * fz * t[..., 0] * s[..., 0] / r1**3
    return diag, column, j01, j10


def parametrization_vjp(v: np.ndarray, surface, factors: ParametrizationFactors) -> np.ndarray:
    """J(xi)' v for every (..., 6) row of `v`, from the `factors` of xi.

    Bitwise `einsum("...ab,...a->...b", J, v)` over the dense Jacobian, for
    finite v: that einsum sums each output over a = 0..5 in order from +0.0,
    and a structural zero adds a zero, which changes no nonzero sum.  So
    J'v is the diagonal products, plus the coupling product in the two
    friction entries (a two-term sum, whose order cannot matter), with the
    xi3 entry the column's six products summed in order (`cumsum`, which
    differs from that sum only in the sign of an all-zero prefix), and the
    final `+ 0.0` gives the einsum's +0.0 for a sum of zeros.
    """
    diag, column, j01, j10 = _jacobian_entries(factors, SurfaceConstants.of(surface))
    out = diag * v
    out[..., 0] += j10 * v[..., 1]
    out[..., 1] += j01 * v[..., 0]
    out[..., 2] = (column * v).cumsum(axis=-1)[..., 5]
    out += 0.0
    return out


def parametrization_jacobian(xi, surface: ContactSurface) -> np.ndarray:
    return parametrization_jacobian_batch(np.asarray(xi, dtype=float).reshape(6), surface)


def rotate_wrenches(wrenches: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Right-multiply the force and the moment of every wrench (..., n_c, 6) by its contact's 3x3.

    `rotations` is (n_c, 3, 3): pass the transposed orientations to map
    contact-frame wrenches into the inertial frame, the orientations
    themselves to pull inertial-frame gradients back.  This is one stacked
    matmul, (..., n_c, 2, 3) @ (n_c, 3, 3), and it is bitwise equal to the
    per-contact `w[:, i, :3] @ rot` products over two or more stages: matmul
    rounds each entry the same way whatever the stacking (numpy multiplies a
    single row on a vector-matrix path that rounds differently).  An `einsum`
    or a hand-written three-term sum is not; both differ in the last bit
    (matmul fuses multiply-adds).
    """
    return (wrenches.reshape(wrenches.shape[:-1] + (2, 3)) @ rotations).reshape(wrenches.shape)


def stability_margins(w: np.ndarray, surface: ContactSurface) -> np.ndarray:
    """Margins of the five stability conditions for wrench components (..., 6).

    Ratio-based margins (CoP and torsion) are only meaningful for positive
    normal force; they are reported as -inf whenever F_z <= 0 so that
    "all margins positive" remains equivalent to stability.
    """
    w = np.asarray(w, dtype=float)
    fx, fy, fz = w[..., 0], w[..., 1], w[..., 2]
    mx, my, mz = w[..., 3], w[..., 4], w[..., 5]
    margins = np.empty(w.shape[:-1] + (5,))
    margins[..., 0] = fz - surface.fz_min
    margins[..., 1] = surface.mu_c * fz - np.hypot(fx, fy)
    positive = fz > 0
    safe_fz = np.where(positive, fz, 1.0)
    cop_y = mx / safe_fz
    cop_x = -my / safe_fz
    margins[..., 2] = np.where(
        positive, np.minimum(cop_y - surface.y_min, surface.y_max - cop_y), -np.inf
    )
    margins[..., 3] = np.where(
        positive, np.minimum(cop_x - surface.x_min, surface.x_max - cop_x), -np.inf
    )
    margins[..., 4] = np.where(positive, surface.mu_z - np.abs(mz) / safe_fz, -np.inf)
    return margins


def is_contact_stable(w: Wrench, surface: ContactSurface) -> StabilityReport:
    """Check the five planar-contact stability conditions for a single wrench."""
    margins = stability_margins(w.as_array(), surface)
    return StabilityReport(satisfied=bool(np.all(margins > 0)), margins=margins)


def _closed_form_seed(w: np.ndarray, surface: ContactSurface) -> np.ndarray:
    """Algebraic inverse of the parametrization, exact on its image.

    Friction rows follow from t1 = a*sqrt(1+t2^2), t2 = b*sqrt(1+t1^2) with
    a, b the normalized tangential components; solving the pair gives
    t1^2 = a^2 (1+b^2) / (1 - a^2 b^2) and symmetrically for t2.  Ratios are
    clipped into the open unit interval so targets outside the image still
    produce a usable starting point.
    """
    s = SurfaceConstants.of(surface)
    fz = w[2]
    lim = 1.0 - 1e-12
    a = w[0] / (s.mu_c * fz)
    b = w[1] / (s.mu_c * fz)
    den = max(1.0 - (a * b) ** 2, 1e-12)
    t1 = np.sign(a) * np.sqrt(np.clip(a * a * (1.0 + b * b) / den, 0.0, lim))
    t2 = np.sign(b) * np.sqrt(np.clip(b * b * (1.0 + a * a) / den, 0.0, lim))
    return np.array(
        [
            np.arctanh(t1),
            np.arctanh(t2),
            np.log(max(fz - s.fz_min, 1e-300)),
            np.arctanh(np.clip((w[3] / fz - s.delta_y0) / s.delta_y, -lim, lim)),
            np.arctanh(np.clip((w[4] / fz - s.delta_x0) / s.delta_x, -lim, lim)),
            np.arctanh(np.clip(w[5] / (s.mu_z * fz), -lim, lim)),
        ]
    )


def invert_parametrization(w_target: Wrench, surface: ContactSurface, xi_init=None) -> np.ndarray:
    """Recover xi with parametrize(xi) ~= w_target for targets strictly inside K.

    Starts from the closed-form seed (or `xi_init` when provided) and refines
    with damped Gauss-Newton plus backtracking.  Raises `InversionError` when
    the target is not strictly stable or lies outside the parametrized image.
    """
    w = w_target.as_array()
    margins = stability_margins(w, surface)
    if not np.all(margins > 0):
        raise InversionError(f"target wrench is not strictly inside the stable set (margins {margins})")
    scale = max(1.0, float(np.linalg.norm(w)))
    xi = (
        np.asarray(xi_init, dtype=float).reshape(6).copy()
        if xi_init is not None
        else _closed_form_seed(w, surface)
    )
    xi[2] = np.clip(xi[2], -XI3_LIMIT, XI3_LIMIT)
    residual = parametrize_batch(xi, surface) - w
    err = np.linalg.norm(residual)
    for _ in range(_INVERT_MAX_ITERATIONS):
        if err <= _INVERT_TOLERANCE * scale:
            return xi
        jac = parametrization_jacobian_batch(xi, surface)
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + 1e-12 * np.trace(jtj) * np.eye(6), jac.T @ residual)
        alpha = 1.0
        for _ in range(30):
            candidate = xi - alpha * step
            candidate[2] = np.clip(candidate[2], -XI3_LIMIT, XI3_LIMIT)
            if not np.isfinite(candidate).all():  # an overflowed step: no descent this way
                alpha *= 0.5
                continue
            new_residual = parametrize_batch(candidate, surface) - w
            new_err = np.linalg.norm(new_residual)
            if new_err < err:
                xi, residual, err = candidate, new_residual, new_err
                break
            alpha *= 0.5
        else:
            break  # no descent possible
    if err <= _INVERT_TOLERANCE * scale:
        return xi
    raise InversionError(
        f"no parameter found for target {w} (residual {err:.3e}); "
        "the wrench likely lies outside the parametrized image"
    )
