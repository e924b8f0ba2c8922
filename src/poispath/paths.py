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

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError, require_finite, require_within
from .quadrature import simpson

ENDPOINT_SIGN = -1.0

_TIME = "t"


# The Dormand-Prince 5(4) pair and its quartic dense output, written as the
# same fractions as scipy's RK45 writes them.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# scipy raises a smaller rtol to this floor with a warning; integrate_base
# rejects it instead, so a report never states a tolerance it did not use
_MIN_RTOL = 100 * np.finfo(float).eps


@dataclass
class OdeResult:
    """A solve_ivp run: y is (dim, samples), nfev counts every RHS call."""
    y: np.ndarray
    success: bool
    message: str
    nfev: int


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None):
    """Adaptive Dormand-Prince 5(4) for y' = fun(t, y) forward over t_span.

    The RK45 path of scipy's solve_ivp, float operation for float
    operation: its initial step, its accept and reject loop, its error norm
    and, at t_eval, its dense output, so y and nfev carry scipy's bits. Without
    t_eval, y holds y0 and the state after each step. The caller checks y0 and
    the tolerances. integrate_base and transport call it through this name.
    A step-size failure after a NaN of fun at a finite state names that state.
    """
    t0, tf = map(float, t_span)
    nfev, nan_at = 0, None

    def rhs(t, y):
        nonlocal nfev, nan_at
        nfev += 1
        value = np.asarray(fun(t, y), dtype=float)
        if nan_at is None and np.isnan(value).any() and np.isfinite(y).all():
            nan_at = f"right-hand side is not finite (NaN) at t={float(t)!r}, y={y.tolist()}"
        return value

    y = np.asarray(y0).astype(float, copy=False)
    f = rhs(t0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, tf - t0)
    d2 = _rms((rhs(t0 + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, tf - t0)  # scipy's min also takes max_step, inf here

    K = np.empty((len(_C) + 1, y.size))
    t, samples, t_eval_i = t0, ([y0] if t_eval is None else []), 0
    while t < tf:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails here too
                return OdeResult(_stack(samples, t_eval), False, nan_at or _TOO_SMALL_STEP, nfev)
            t_new = min(t + h_abs, tf)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, len(_C)):
                K[s] = rhs(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t_eval is None:
            samples.append(y)
            continue
        t_eval_i_new = np.searchsorted(t_eval, t, side="right")
        t_step = t_eval[t_eval_i:t_eval_i_new]
        if t_step.size:
            h = t - t_old
            powers = np.cumprod(np.tile((t_step - t_old) / h, (_P.shape[1], 1)), axis=0)
            samples.append(h * np.dot(K.T.dot(_P), powers) + y_old[:, None])
            t_eval_i = t_eval_i_new
    return OdeResult(_stack(samples, t_eval), True,
                     "The solver successfully reached the end of the integration interval.",
                     nfev)


def _stack(samples, t_eval):
    if t_eval is None:
        return np.vstack(samples).T
    # a first step that fails (a NaN field at the start) leaves no sample
    return np.hstack(samples) if samples else np.empty((0, 0))


@functools.lru_cache(maxsize=32)
def _spline_factors(x_bytes):
    """LAPACK dgtsv's elimination of the not-a-knot band that scipy builds
    for the nodes whose float64 bytes are x_bytes, on Python floats.

    Returns the (interchange, multiplier) of each elimination step and the
    eliminated diagonal d, superdiagonal du and fill-in dl that the back
    substitution reads (dl is 0.0 where rows were not interchanged)."""
    x = np.frombuffer(x_bytes).tolist()
    n = len(x)
    dx = [b - a for a, b in zip(x, x[1:])]
    d = [dx[1]] + [2 * (a + b) for a, b in zip(dx, dx[1:])] + [dx[-2]]
    du = [x[2] - x[0]] + dx[:-1]
    dl = dx[1:] + [x[-1] - x[-3]]
    steps = []
    for i in range(n - 1):
        swap = abs(d[i]) < abs(dl[i])
        if swap:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
        else:
            if d[i] == 0.0:
                raise NumericalError("spline system is singular")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            dl[i] = 0.0
        steps.append((swap, fact))
    if d[-1] == 0.0:
        raise NumericalError("spline system is singular")
    return tuple(steps), tuple(d), tuple(du), tuple(dl)


# below this many columns the substitutions run column by column on Python
# floats: a transport spline (2 dim columns) builds that way in less than
# half the time of a numpy call per row, while a variation part (over 100
# columns) would take about five times as long
_NARROW = 16


def _substitute(rows, steps, d, du, dl):
    """dgtsv's forward and back substitution with the factors of
    _spline_factors, in place on the list rows: the right-hand side row by
    row, as Python floats (one column) or numpy arrays (all columns)."""
    for i, (swap, fact) in enumerate(steps):
        if swap:
            rows[i], rows[i + 1] = rows[i + 1], rows[i] - fact * rows[i + 1]
        else:
            rows[i + 1] = rows[i + 1] - fact * rows[i]
    rows[-1] = rows[-1] / d[-1]
    rows[-2] = (rows[-2] - du[-1] * rows[-1]) / d[-2]
    for i in range(len(rows) - 3, -1, -1):
        rows[i] = (rows[i] - du[i] * rows[i + 1] - dl[i] * rows[i + 2]) / d[i]
    return rows


class CubicSpline:
    """Not-a-knot cubic spline through (x, y) along axis 0, with the bits of
    scipy's CubicSpline(x, y, axis=0).

    The right-hand side and the band are scipy's, float for float. The
    tridiagonal solve replays LAPACK dgtsv, which scipy's solve_banded
    calls: the elimination depends on x only and is done once per grid
    (_spline_factors); its row operations run on all columns of y at once,
    or column by column on Python floats when y is narrow. The
    coefficients are scipy's Hermite ones, and a call evaluates them as
    PPoly does: the interval from the right-closed search, clamped to the
    first and last (so it extrapolates), and the power sum
    0.0 + c3 + c2 s + c1 s^2 + c0 s^3 with s = t - x[i]. A scalar t, which
    each ODE right-hand side passes, bisects a Python list instead, in about
    a quarter of the time of the numpy search.

    x must be finite, strictly increasing and hold at least 4 nodes. scipy
    solves 3 nodes by a dense LAPACK solve that this does not replay; no
    caller needs it, as path grids have at least 9 nodes and the isotropy
    interpolant takes at least 4 samples. y must be finite.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (x.ndim == 1 and x.size >= 4 and np.all(np.isfinite(x))
                and np.all(np.diff(x) > 0)):
            raise ValidationError(f"spline nodes must be at least 4 finite, strictly "
                                  f"increasing values, got {x}")
        if y.ndim == 0 or y.shape[0] != x.size:
            raise ValidationError(f"spline values of shape {y.shape} do not match "
                                  f"{x.size} nodes")
        require_finite(y, "spline values must be finite", ValidationError)
        dxr = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # scipy's not-a-knot right-hand side, solved for the node slopes s
        b = np.empty(y.shape)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        w = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * w) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / w
        w = x[-1] - x[-3]
        b[-1] = (dxr[-1]**2 * slope[-2] + (2 * w + dxr[-1]) * dxr[-2] * slope[-1]) / w
        factors = _spline_factors(x.tobytes())
        rows = b.reshape(x.size, -1)
        if rows.shape[1] < _NARROW:
            s = np.array([_substitute(col, *factors) for col in rows.T.tolist()]).T
        else:
            s = np.array(_substitute(list(rows), *factors))
        s = s.reshape(y.shape)
        tk = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        self.c = (tk / dxr, (slope - s[:-1]) / dxr - tk, s[:-1], y[:-1])
        self._nodes = x.tolist()

    def __call__(self, t):
        """Values at t, of shape t's shape + y.shape[1:]."""
        c0, c1, c2, c3 = self.c
        if np.ndim(t) == 0:
            t = float(t)
            i = min(max(bisect.bisect_right(self._nodes, t) - 1, 0), len(self._nodes) - 2)
            s = t - self._nodes[i]
            return 0.0 + c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        s = (t - self.x[i]).reshape(t.shape + (1,) * (c0.ndim - 1))
        # the power sum, with one scratch array for the terms
        out = np.take(c3, i, axis=0)
        out += 0.0
        term = np.empty_like(out)
        for c, z in ((c2, s), (c1, s * s), (c0, s * s * s)):
            np.take(c, i, axis=0, out=term)
            term *= z
            out += term
        return out


def fd_weights(offsets):
    """First-derivative weights on the given node offsets (in steps h):
    sum_j w_j f(x + o_j h) = h f'(x) + O(h^k) for k offsets, from the
    order-conditions Vandermonde system."""
    k = len(offsets)
    V = np.vander(np.asarray(offsets, dtype=float), k, increasing=True).T
    rhs = np.zeros(k)
    rhs[1] = 1.0
    return np.linalg.solve(V, rhs)


@functools.cache
def _stencils():
    """The 7-point weights of differentiate_samples: central, then for the
    three nodes at each end the one-sided (left, right) pairs."""
    return fd_weights(np.arange(-3, 4)), [
        (fd_weights(np.arange(7) - i), fd_weights(np.arange(7) - 6 + i)) for i in range(3)]


def differentiate_samples(y, h):
    """Sixth-order derivative of uniformly sampled values, axis 0."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if m < 7:
        raise ValidationError("need at least 7 samples for the derivative stencils")
    d = np.empty_like(y)
    w, ends = _stencils()
    core = sum(w[k] * y[k:m - 6 + k] for k in range(7))
    d[3:m - 3] = core / h
    for i, (wl, wr) in enumerate(ends):
        d[i] = np.tensordot(wl, y[:7], axes=(0, 0)) / h
        d[m - 1 - i] = np.tensordot(wr, y[m - 7:], axes=(0, 0)) / h
    return d


def path_defect(structure, t, gamma, a):
    """Largest |gamma' - #a| along the samples."""
    h = t[1] - t[0]
    dgamma = differentiate_samples(gamma, h)
    sharp = structure.sharp_many(gamma, a)
    return float(np.max(np.linalg.norm(dgamma - sharp, axis=1)))


class CotangentPath:
    """Sampled pair (gamma, a) over [0, 1] with its compatibility defect."""

    def __init__(self, structure, t, gamma, a, defect=None):
        self.structure = structure
        self.t = np.asarray(t, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.a = np.asarray(a, dtype=float)
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


def even_intervals(n, what="interval count"):
    """n as an int; the grids of paths and path families need it even and
    at least 8."""
    n = int(n)
    if n < 8 or n % 2:
        raise ValidationError(f"{what} must be even and at least 8, got {n}")
    return n


def rk4_step(rhs, y, h):
    """One classical RK4 step of size h from y. rhs(j, y) is the field at
    the step's j-th half point, j = 0, 1, 2 (start, middle, end). Every
    fixed-step integrator of the package steps through here, so all of them
    share this float order."""
    k1 = rhs(0, y)
    k2 = rhs(1, y + 0.5 * h * k1)
    k3 = rhs(1, y + 0.5 * h * k2)
    k4 = rhs(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_base(structure, a, x0, n_intervals=None, method=None,
                   rtol=None, atol=None):
    """Drive the base point by a time-dependent covector field.

    Solves gamma' = #(a(t, gamma)) from gamma(0) = x0 over [0, 1] and samples
    the solution and the covector on a uniform grid. a is a sequence of
    component expressions (strings are parsed; the time variable is ``t``).
    """
    n = even_intervals(get_default("t_intervals") if n_intervals is None else n_intervals)
    method = (method or get_default("ode_method")).lower()
    rtol = get_default("ode_rtol") if rtol is None else float(rtol)
    atol = get_default("ode_atol") if atol is None else float(atol)
    dim = structure.dim
    a_exprs = expr.components(a, dim, symbols=(_TIME,), params=structure.params,
                              what="covector")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValidationError(f"start point must have shape ({dim},), got {x0.shape}")
    require_finite(x0, f"start point must be finite, got {x0}", ValidationError)
    if not _MIN_RTOL <= rtol < math.inf:
        raise ValidationError(f"ODE rtol must be finite and at least {_MIN_RTOL:.3g}, "
                              f"got {rtol}")
    if not 0 < atol < math.inf:  # atol = 0 makes the error scale 0/0 at a zero component
        raise ValidationError(f"ODE atol must be positive and finite, got {atol}")

    field_exprs = structure.sharp_form(a_exprs)
    field = expr.compile_exprs(field_exprs, symbols=(_TIME,), params=structure.params)
    grid = np.linspace(0.0, 1.0, n + 1)

    if method == "rk45":
        sol = solve_ivp(lambda t, y: field(y, t), (0.0, 1.0), x0,
                        t_eval=grid, rtol=rtol, atol=atol)
        if not sol.success:
            raise NumericalError(f"base integration failed: {sol.message}")
        gamma = sol.y.T
    elif method == "rk4":
        gamma = np.empty((n + 1, dim))
        gamma[0] = x0
        h = 1.0 / n

        def rhs(j, y):
            return np.asarray(field(y, (t0, t0 + 0.5 * h, t0 + h)[j]))

        # a diverging base overflows; the check below raises on it
        with np.errstate(all="ignore"):
            for k in range(n):
                t0 = grid[k]
                gamma[k + 1] = rk4_step(rhs, gamma[k], h)
    else:
        raise ValidationError(f"unknown integration method {method!r}")

    require_finite(gamma, "base integration produced non-finite values")
    a_fn = expr.compile_exprs_vec(a_exprs, symbols=(_TIME,), params=structure.params)
    a_vals = a_fn(gamma.T, grid).T
    return CotangentPath(structure, grid, gamma, a_vals)


def constant_path(structure, x0, n_intervals=None):
    """The trivial path sitting at x0 with zero covector."""
    n = even_intervals(get_default("t_intervals") if n_intervals is None else n_intervals)
    grid = np.linspace(0.0, 1.0, n + 1)
    x0 = np.asarray(x0, dtype=float)
    gamma = np.tile(x0, (n + 1, 1))
    a = np.zeros_like(gamma)
    return CotangentPath(structure, grid, gamma, a, defect=0.0)


def path_integral(path, h):
    """Simpson value of integral <a(t), X_h(gamma(t))> dt over the samples."""
    structure = path.structure
    h_expr = expr.as_expression(h, structure.dim, params=structure.params)
    return field_integral(path, structure.hamiltonian_field(h_expr))


def field_integral(path, components):
    """Line integral <a(t), X(gamma(t))> dt for a vector field X on M."""
    structure = path.structure
    exprs = expr.components(components, structure.dim, params=structure.params,
                            what="vector field")
    fn = expr.compile_exprs_vec(exprs, params=structure.params)
    X = fn(path.gamma.T).T
    integrand = np.einsum("mi,mi->m", path.a, X)
    require_finite(integrand, "field integrand is not finite along the path")
    return float(simpson(integrand, path.t))


def endpoint_pairing(path, h):
    """ENDPOINT_SIGN * (h at the far end minus h at the start)."""
    structure = path.structure
    h_expr = expr.as_expression(h, structure.dim, params=structure.params)
    env = dict(structure.params)
    return ENDPOINT_SIGN * (expr.evaluate(h_expr, path.end, env)
                            - expr.evaluate(h_expr, path.start, env))


def concatenate(first, second):
    """Run two paths back to back, reparametrized to [0, 1].

    Requires matching structures, equal grids, and first.end == second.start
    to 1e-8.
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
    require_within(gap, 1e-8, f"endpoint mismatch {gap:.3e} exceeds 1.0e-08")
    n = first.n_intervals
    grid = np.linspace(0.0, 1.0, 2 * n + 1)
    gamma = np.vstack([first.gamma, second.gamma[1:]])
    a = 2.0 * np.vstack([first.a, second.a[1:]])
    return CotangentPath(first.structure, grid, gamma, a,
                         defect=max(first.defect, second.defect))


def reverse(path):
    """Traverse backwards: gamma(1 - t) driven by -a(1 - t)."""
    return CotangentPath(path.structure, path.t, path.gamma[::-1].copy(),
                         -path.a[::-1], defect=path.defect)


def transport(path, s0):
    """Carry a covector along the path by the canonical linear transport

        ds_i/dt = -(d_i Pi^(jk))(gamma(t)) a_j(t) s_k,

    returning s(1), integrated at the configured ODE tolerances. Depends only
    on the covector values along the path, not on any off-path extension.
    """
    structure = path.structure
    n = structure.dim
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (n,):
        raise ValidationError(f"covector must have shape ({n},)")
    require_finite(s0, f"covector must be finite, got {s0}", ValidationError)
    # one spline through (gamma, a): its columns are those of two splines
    spline = CubicSpline(path.t, np.hstack([path.gamma, path.a]))

    def rhs(t, s):
        xa = spline(t)
        return -structure.coupling_many(xa[None, :n], xa[None, n:], s[None, :])[0]

    sol = solve_ivp(rhs, (0.0, 1.0), s0,
                    rtol=get_default("ode_rtol"), atol=get_default("ode_atol"))
    if not sol.success:
        raise NumericalError(f"transport integration failed: {sol.message}")
    return sol.y[:, -1]
