"""Leafwise symplectic geometry: the induced 2-form, sphere areas, and the
transverse variation covector of radius families.

The induced form on a leaf is evaluated by inverting the anchor on tangent
vectors: omega(u, v) = -<alpha, v> where #alpha = u, taking the minimum-norm
alpha. In dimension 3 the structure matrix is the cross product with the dual
vector p = (Pi^23, Pi^31, Pi^12), which gives the closed forms

    #alpha = p x alpha,   omega(u, v) = -det(u, p, v) / |p|^2,

used on quadrature grids. Spheres about the origin are integrated in the
usual polar chart with the theta nodes pulled half a cell off the poles;
Simpson weights on both axes. Areas carry a grid-doubling consistency check,
derivatives a step-halving one, so silent quadrature garbage gets raised as
NumericalError instead of returned.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError

_P_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_TANGENCY_TOL = 1e-8


def dual_vector_field(structure):
    """Compiled evaluator for p = (Pi^23, Pi^31, Pi^12), dim 3 only."""
    if structure.dim != 3:
        raise ValidationError("dual vector shortcut needs dimension 3")
    fn = _P_CACHE.get(structure)
    if fn is None:
        comps = [structure.entry(2, 3), structure.entry(3, 1), structure.entry(1, 2)]
        fn = expr.compile_exprs_vec(comps, params=structure.params)
        _P_CACHE[structure] = fn
    return fn


def leaf_form_many(structure, xs, us, vs):
    """omega(u, v) rows on a batch of dim-3 points. Raises if the structure
    vanishes somewhere or a vector sticks out of its leaf."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    p = dual_vector_field(structure)(xs.T).T
    nrm2 = np.einsum("mi,mi->m", p, p)
    if np.any(nrm2 <= 0.0) or not np.all(np.isfinite(nrm2)):
        raise ValidationError("structure is degenerate on the evaluation set")
    scale = np.sqrt(nrm2)
    for w, name in ((us, "first"), (vs, "second")):
        wn = np.linalg.norm(w, axis=1)
        resid = np.abs(np.einsum("mi,mi->m", p, w))
        mask = wn > 1e-300
        if np.any(resid[mask] > _TANGENCY_TOL * scale[mask] * wn[mask]):
            worst = float(np.max(resid[mask] / (scale[mask] * wn[mask])))
            raise ValidationError(
                f"{name} argument is not tangent to the leaves (residual {worst:.3e})")
    return -np.einsum("mi,mi->m", np.cross(us, p), vs) / nrm2


def leaf_form(structure, x, u, v):
    """omega(u, v) at a single point, any dimension.

    Solves #alpha = u for the minimum-norm covector and returns -<alpha, v>.
    Both vectors must lie in the image of the anchor at x.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if structure.dim == 3:
        return float(leaf_form_many(structure, x[None], u[None], v[None])[0])
    P = structure.pi_at(x)
    scale = np.linalg.norm(P)
    if scale == 0.0:
        raise ValidationError("structure vanishes at the point")
    alpha, *_ = np.linalg.lstsq(P.T, u, rcond=None)
    for w, name in ((u, "first"), (v, "second")):
        sol, *_ = np.linalg.lstsq(P.T, w, rcond=None)
        resid = np.linalg.norm(P.T @ sol - w)
        if resid > _TANGENCY_TOL * max(1.0, np.linalg.norm(w)) * max(1.0, scale):
            raise ValidationError(f"{name} argument is not tangent to the leaf")
    return float(-np.dot(alpha, v))


def sphere_grid(n_theta, n_phi):
    """Polar quadrature nodes: theta shifted half a cell off each pole."""
    if n_theta % 2 or n_phi % 2 or n_theta < 4 or n_phi < 4:
        raise ValidationError("grid counts must be even and at least 4")
    h = np.pi / n_theta
    theta = np.linspace(h / 2, np.pi - h / 2, n_theta + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
    return theta, phi


def _chart(tau, theta, phi):
    T, F = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(T), np.cos(T)
    sf, cf = np.sin(F), np.cos(F)
    x = tau * np.stack([st * cf, st * sf, ct])
    dth = tau * np.stack([ct * cf, ct * sf, -st])
    dph = tau * np.stack([-st * sf, st * cf, np.zeros_like(T)])
    return x, dth, dph


def sphere_simpson(dens, theta, phi):
    """Simpson rule over phi, then over theta, of a density sampled on the
    (theta, phi) nodes of sphere_grid."""
    from scipy.integrate import simpson

    return float(simpson(simpson(dens, x=phi, axis=1), x=theta))


def _sphere_area_once(structure, tau, n_theta, n_phi):
    theta, phi = sphere_grid(n_theta, n_phi)
    x, dth, dph = _chart(tau, theta, phi)
    shape = x.shape[1:]
    dens = leaf_form_many(structure,
                          x.reshape(3, -1).T,
                          dth.reshape(3, -1).T,
                          dph.reshape(3, -1).T).reshape(shape)
    return sphere_simpson(dens, theta, phi)


def sphere_area(structure, tau, grid=None, check=True):
    """Symplectic area of the radius-tau sphere about the origin.

    The sphere must be (numerically) a union of leaves; the tangency check
    inside the form evaluation rejects charts that cut across leaves. With
    check=True the quadrature is repeated on a doubled grid and the finer
    value is returned; disagreement beyond the configured relative band is a
    NumericalError.
    """
    if structure.dim != 3:
        raise ValidationError("sphere areas are defined for dimension 3")
    tau = float(tau)
    if tau <= 0.0:
        raise ValidationError(f"sphere radius must be positive, got {tau}")
    n_theta, n_phi = grid or get_default("area_grid")
    value = _sphere_area_once(structure, tau, n_theta, n_phi)
    if not check:
        return value
    finer = _sphere_area_once(structure, tau, 2 * n_theta, 2 * n_phi)
    band = get_default("area_check_rel") * max(1.0, abs(finer))
    if abs(finer - value) > band:
        raise NumericalError(
            f"sphere area at tau={tau} unstable under grid doubling: "
            f"{value:.10g} vs {finer:.10g}")
    return finer


@dataclass
class AreaVariation:
    """Radial derivative of leaf area together with its covector form.

    xi is the transverse covector at base_point representing the variation:
    xi = (dA/dtau / <zeta, w>) zeta with zeta the unit kernel covector and w
    the transverse part of the family velocity. Its magnitude |derivative| is
    what period scans compare against.
    """

    tau: float
    area: float
    derivative: float
    xi: np.ndarray
    zeta: np.ndarray
    base_point: np.ndarray

    @property
    def generator_magnitude(self):
        return abs(self.derivative)


def _kernel_and_image(structure, x):
    P = structure.pi_at(x)
    U, s, Vh = np.linalg.svd(P)
    tol = get_default("rank_tol") * (s[0] if s[0] > 0 else 1.0)
    rank = int(np.sum(s > tol))
    corank = structure.dim - rank
    if corank != 1:
        raise ValidationError(
            f"variation needs a corank-1 point, got corank {corank} at {x.tolist()}")
    zeta = Vh[-1]
    image = U[:, :rank]
    return zeta, image


def _stencil_derivative(structure, tau, step, grid):
    vals = [
        _sphere_area_once(structure, tau + k * step, *grid)
        for k in (-2, -1, 1, 2)
    ]
    return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)


def area_variation(structure, tau, step=None, grid=None, verify=True):
    """dA/dtau of the sphere family, packaged as a transverse covector.

    Five-point central differences of the quadrature areas; with verify=True
    the derivative is recomputed at half the step and both must agree inside
    max(1e-3 relative, 1e-6 in units of the area) or NumericalError is
    raised. The returned derivative is the half-step one.
    """
    if structure.dim != 3:
        raise ValidationError("area variation is defined for dimension 3")
    tau = float(tau)
    step = get_default("variation_step") if step is None else float(step)
    if step <= 0 or tau - 2 * step <= 0:
        raise ValidationError(f"bad stencil: tau={tau}, step={step}")
    grid = tuple(grid or get_default("area_grid"))

    x0 = np.array([tau, 0.0, 0.0])
    zeta, image = _kernel_and_image(structure, x0)
    # transverse component of the family velocity (radial unit at x0)
    v = x0 / tau
    w = v - image @ (image.T @ v)
    wn = np.linalg.norm(w)
    if wn < 1e-8:
        raise NumericalError("family velocity is tangent to the leaf; "
                             "variation direction degenerate")
    pairing = float(np.dot(zeta, w))
    if abs(pairing) < 1e-8 * wn:
        raise NumericalError("kernel covector nearly annihilates the "
                             "variation direction")
    # orient the reported kernel covector by the structure itself (dim 3:
    # along the dual vector p); the xi formula is insensitive to this sign
    p0 = dual_vector_field(structure)(x0[:, None])[:, 0]
    if np.dot(zeta, p0) < 0:
        zeta = -zeta
        pairing = -pairing

    area = sphere_area(structure, tau, grid=grid, check=False)
    d = _stencil_derivative(structure, tau, step, grid)
    if verify:
        d_half = _stencil_derivative(structure, tau, step / 2.0, grid)
        band = max(1e-3 * abs(d_half), 1e-6 * max(1.0, abs(area)))
        if abs(d - d_half) > band:
            raise NumericalError(
                f"area derivative at tau={tau} unstable under step halving: "
                f"{d:.10g} vs {d_half:.10g}")
        d = d_half

    xi = (d / pairing) * zeta
    return AreaVariation(tau=tau, area=area, derivative=d, xi=xi,
                         zeta=zeta, base_point=x0)
