"""Cotangent paths: time-dependent covectors and the base curves they drive.

A path here is a pair (gamma, a) sampled on a uniform grid over [0, 1] with
the compatibility gamma'(t) = #(a(t)) at gamma(t). The stored defect is the
largest violation of that relation measured with high-order finite
differences, so a path that claims compatibility can be audited after the
fact.

Orientation note: for paths produced this way the line integral of a
Hamiltonian field along the path satisfies

    integral_0^1 <a(t), X_h(gamma(t))> dt = ENDPOINT_SIGN * (h(gamma(1)) - h(gamma(0)))

with a single global ENDPOINT_SIGN = -1 fixed by the anchor convention.
"""

from __future__ import annotations

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError

ENDPOINT_SIGN = -1.0

_TIME = "t"


def solve_ivp(fun, t_span, y0, **options):
    """scipy.integrate.solve_ivp, imported on first use to keep scipy out of
    start-up; integrate_base and transport call it through this name."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def fd_weights(offsets):
    """First-derivative weights on the given node offsets (in steps h):
    sum_j w_j f(x + o_j h) = h f'(x) + O(h^k) for k offsets, from the
    order-conditions Vandermonde system."""
    k = len(offsets)
    V = np.vander(np.asarray(offsets, dtype=float), k, increasing=True).T
    rhs = np.zeros(k)
    rhs[1] = 1.0
    return np.linalg.solve(V, rhs)


def differentiate_samples(y, h):
    """Sixth-order derivative of uniformly sampled values, axis 0."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if m < 7:
        raise ValidationError("need at least 7 samples for the derivative stencils")
    d = np.empty_like(y)
    w = fd_weights(np.arange(-3, 4))
    core = sum(w[k] * y[k:m - 6 + k] for k in range(7))
    d[3:m - 3] = core / h
    for i in range(3):
        wl = fd_weights(np.arange(7) - i)
        d[i] = np.tensordot(wl, y[:7], axes=(0, 0)) / h
        wr = fd_weights(np.arange(7) - 6 + i)
        d[m - 1 - i] = np.tensordot(wr, y[m - 7:], axes=(0, 0)) / h
    return d


def path_defect(structure, t, gamma, a):
    """Largest |gamma' - #a| along the samples."""
    h = t[1] - t[0]
    dgamma = differentiate_samples(gamma, h)
    sharp = structure.sharp_many(gamma, a)
    return float(np.max(np.linalg.norm(dgamma - sharp, axis=1)))


class CotangentPath:
    """Sampled pair (gamma, a) over [0, 1] with its compatibility defect.

    a_exprs, when present, are the generating covector components as
    expressions in x1..xn and the time symbol t.
    """

    def __init__(self, structure, t, gamma, a, a_exprs=None, defect=None):
        self.structure = structure
        self.t = np.asarray(t, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.a_exprs = list(a_exprs) if a_exprs is not None else None
        m = self.t.shape[0]
        if self.gamma.shape != (m, structure.dim) or self.a.shape != (m, structure.dim):
            raise ValidationError(
                f"inconsistent path shapes: t {self.t.shape}, gamma {self.gamma.shape}, "
                f"a {self.a.shape} for dim {structure.dim}")
        self.defect = path_defect(structure, self.t, self.gamma, self.a) \
            if defect is None else float(defect)

    @property
    def n_intervals(self):
        return self.t.shape[0] - 1

    @property
    def start(self):
        return self.gamma[0]

    @property
    def end(self):
        return self.gamma[-1]


def _check_intervals(n):
    if n < 8 or n % 2:
        raise ValidationError(f"interval count must be even and at least 8, got {n}")
    return n


def integrate_base(structure, a, x0, n_intervals=None, method=None,
                   rtol=None, atol=None):
    """Drive the base point by a time-dependent covector field.

    Solves gamma' = #(a(t, gamma)) from gamma(0) = x0 over [0, 1] and samples
    the solution and the covector on a uniform grid. a is a sequence of
    component expressions (strings are parsed; the time variable is ``t``).
    """
    n = _check_intervals(get_default("t_intervals") if n_intervals is None else int(n_intervals))
    method = (method or get_default("ode_method")).lower()
    rtol = get_default("ode_rtol") if rtol is None else float(rtol)
    atol = get_default("ode_atol") if atol is None else float(atol)
    dim = structure.dim
    a_exprs = expr.components(a, dim, symbols=(_TIME,), params=structure.params,
                              what="covector")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValidationError(f"start point must have shape ({dim},), got {x0.shape}")

    field_exprs = structure.sharp_form(a_exprs)
    field = expr.compile_exprs(field_exprs, symbols=(_TIME,), params=structure.params)
    grid = np.linspace(0.0, 1.0, n + 1)

    if method == "rk45":
        sol = solve_ivp(lambda t, y: field(y, t), (0.0, 1.0), x0,
                        method="RK45", t_eval=grid, rtol=rtol, atol=atol)
        if not sol.success:
            raise NumericalError(f"base integration failed: {sol.message}")
        gamma = sol.y.T
    elif method == "rk4":
        gamma = np.empty((n + 1, dim))
        gamma[0] = x0
        h = 1.0 / n
        y = x0.astype(float)
        for k in range(n):
            t0 = grid[k]
            k1 = np.asarray(field(y, t0))
            k2 = np.asarray(field(y + 0.5 * h * k1, t0 + 0.5 * h))
            k3 = np.asarray(field(y + 0.5 * h * k2, t0 + 0.5 * h))
            k4 = np.asarray(field(y + h * k3, t0 + h))
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            gamma[k + 1] = y
    else:
        raise ValidationError(f"unknown integration method {method!r}")

    if not np.all(np.isfinite(gamma)):
        raise NumericalError("base integration produced non-finite values")
    a_fn = expr.compile_exprs_vec(a_exprs, symbols=(_TIME,), params=structure.params)
    a_vals = a_fn(gamma.T, grid).T
    return CotangentPath(structure, grid, gamma, a_vals, a_exprs=a_exprs)


def constant_path(structure, x0, n_intervals=None):
    """The trivial path sitting at x0 with zero covector."""
    n = _check_intervals(get_default("t_intervals") if n_intervals is None else int(n_intervals))
    grid = np.linspace(0.0, 1.0, n + 1)
    x0 = np.asarray(x0, dtype=float)
    gamma = np.tile(x0, (n + 1, 1))
    a = np.zeros_like(gamma)
    zero = [expr.Num(0.0)] * structure.dim
    return CotangentPath(structure, grid, gamma, a, a_exprs=zero, defect=0.0)


def path_integral(path, h):
    """Simpson value of integral <a(t), X_h(gamma(t))> dt over the samples."""
    from scipy.integrate import simpson

    structure = path.structure
    h_expr = expr.as_expression(h, structure.dim, params=structure.params)
    field = expr.compile_exprs_vec(structure.hamiltonian_field(h_expr),
                                   params=structure.params)
    X = field(path.gamma.T).T
    integrand = np.einsum("mi,mi->m", path.a, X)
    return float(simpson(integrand, x=path.t))


def field_integral(path, components):
    """Line integral <a(t), X(gamma(t))> dt for a vector field X on M."""
    from scipy.integrate import simpson

    structure = path.structure
    exprs = expr.components(components, structure.dim, params=structure.params,
                            what="vector field")
    fn = expr.compile_exprs_vec(exprs, params=structure.params)
    X = fn(path.gamma.T).T
    integrand = np.einsum("mi,mi->m", path.a, X)
    return float(simpson(integrand, x=path.t))


def endpoint_pairing(path, h):
    """ENDPOINT_SIGN * (h at the far end minus h at the start)."""
    structure = path.structure
    h_expr = expr.as_expression(h, structure.dim, params=structure.params)
    env = dict(structure.params)
    return ENDPOINT_SIGN * (expr.evaluate(h_expr, path.end, env)
                            - expr.evaluate(h_expr, path.start, env))


def concatenate(first, second, tol=1e-8):
    """Run two paths back to back, reparametrized to [0, 1].

    Requires matching structures, equal grids, and first.end == second.start.
    The covector doubles under the reparametrization so the compatibility
    gamma' = #a survives; integrals of the pieces add. The defect is carried
    over as the max of the inputs, since the seam is generally a corner the
    smooth-stencil estimate cannot see.
    """
    if first.structure is not second.structure and \
            first.structure.to_dict() != second.structure.to_dict():
        raise ValidationError("paths live over different structures")
    if first.n_intervals != second.n_intervals:
        raise ValidationError(
            f"grid mismatch: {first.n_intervals} vs {second.n_intervals} intervals")
    gap = float(np.max(np.abs(first.end - second.start)))
    if gap > tol:
        raise ValidationError(f"endpoint mismatch {gap:.3e} exceeds {tol:.1e}")
    n = first.n_intervals
    grid = np.linspace(0.0, 1.0, 2 * n + 1)
    gamma = np.vstack([first.gamma, second.gamma[1:]])
    a = 2.0 * np.vstack([first.a, second.a[1:]])
    return CotangentPath(first.structure, grid, gamma, a,
                         defect=max(first.defect, second.defect))


def reverse(path):
    """Traverse backwards: gamma(1 - t) driven by -a(1 - t)."""
    a_exprs = None
    if path.a_exprs is not None:
        flip = expr.sub(expr.Num(1.0), expr.Sym(_TIME))
        a_exprs = [expr.neg(expr.substitute(c, sym_map={_TIME: flip}))
                   for c in path.a_exprs]
    return CotangentPath(path.structure, path.t, path.gamma[::-1].copy(),
                         -path.a[::-1], a_exprs=a_exprs, defect=path.defect)


def transport(path, s0, rtol=None, atol=None):
    """Carry a covector along the path by the canonical linear transport

        ds_i/dt = -(d_i Pi^(jk))(gamma(t)) a_j(t) s_k,

    returning s(1). Depends only on the covector values along the path, not
    on any off-path extension.
    """
    from scipy.interpolate import CubicSpline

    structure = path.structure
    rtol = get_default("ode_rtol") if rtol is None else float(rtol)
    atol = get_default("ode_atol") if atol is None else float(atol)
    gamma_sp = CubicSpline(path.t, path.gamma, axis=0)
    a_sp = CubicSpline(path.t, path.a, axis=0)

    def rhs(t, s):
        x = gamma_sp(t)[None, :]
        a = a_sp(t)[None, :]
        return -structure.coupling_many(x, a, s[None, :])[0]

    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (structure.dim,):
        raise ValidationError(f"covector must have shape ({structure.dim},)")
    sol = solve_ivp(rhs, (0.0, 1.0), s0, method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalError(f"transport integration failed: {sol.message}")
    return sol.y[:, -1]
