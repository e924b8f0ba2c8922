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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError, require_finite
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


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval):
    """Adaptive Dormand-Prince 5(4) for y' = fun(t, y) forward over t_span,
    sampled at t_eval.

    The RK45 path of scipy's solve_ivp, float operation for float
    operation: its initial step, its accept and reject loop, its error norm
    and its dense output at t_eval, so y and nfev carry scipy's bits. The
    caller checks y0 and the tolerances. integrate_base calls it through
    this name.
    A step-size failure after a non-finite value of fun at a finite state
    names that state, and whether the value was NaN or inf.
    """
    t0, tf = map(float, t_span)
    nfev, bad_at = 0, None

    def rhs(t, y):
        nonlocal nfev, bad_at
        nfev += 1
        value = np.asarray(fun(t, y), dtype=float)
        if bad_at is None and not np.isfinite(value).all() and np.isfinite(y).all():
            kind = "NaN" if np.isnan(value).any() else "inf"
            bad_at = f"right-hand side is not finite ({kind}) at t={float(t)!r}, y={y.tolist()}"
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
    t, samples, t_eval_i = t0, [np.empty((y.size, 0))], 0  # no sample if step 1 fails
    while t < tf:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails here too
                return OdeResult(np.hstack(samples), False, bad_at or _TOO_SMALL_STEP, nfev)
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
        t_eval_i_new = np.searchsorted(t_eval, t, side="right")
        t_step = t_eval[t_eval_i:t_eval_i_new]
        if t_step.size:
            h = t - t_old
            powers = np.cumprod(np.tile((t_step - t_old) / h, (_P.shape[1], 1)), axis=0)
            samples.append(h * np.dot(K.T.dot(_P), powers) + y_old[:, None])
            t_eval_i = t_eval_i_new
    return OdeResult(np.hstack(samples), True,
                     "The solver successfully reached the end of the integration interval.",
                     nfev)


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
def _stencils(ndim):
    """The weights of differentiate_samples, term-major, shaped to broadcast
    over samples with ndim axes: [k, r] weighs sample k of a window of seven
    in the derivative at its node r, so [:, 3] is the central stencil and
    the other columns are the one-sided ones of the three rows at each end."""
    w = np.stack([fd_weights(np.arange(7) - r) for r in range(7)], axis=1)
    w = w.reshape(7, 7, *(1,) * (ndim - 1))
    w.setflags(write=False)
    return w


def differentiate_samples(y, h):
    """Sixth-order derivative of uniformly sampled values, axis 0.

    Every row adds its seven weighted samples term by term, from a 0.0
    accumulator, elementwise, so a slice of y along its other axes gets
    the bits of the same slice of the whole result."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if m < 7:
        raise ValidationError("need at least 7 samples for the derivative stencils")
    d = np.empty_like(y)
    w = _stencils(y.ndim)
    d[3:m - 3] = sum(w[k, 3] * y[k:m - 6 + k] for k in range(7))
    # numpy reduces an outer axis term by term, from the initial value
    np.add.reduce(w[:, :3] * y[:7, None], axis=0, initial=0.0, out=d[:3])
    np.add.reduce(w[:, 4:] * y[m - 7:, None], axis=0, initial=0.0, out=d[m - 3:])
    return np.divide(d, h, out=d)


def hermite(y):
    """Power coefficients (c0, c1, c2, c3) of the cubic Hermite pieces
    through uniform samples y (at least 7), along axis 0, with the per-step
    slopes (the derivative times the step) of differentiate_samples: between
    samples i and i + 1 the curve is c0[i] + c1[i] s + c2[i] s^2 + c3[i] s^3
    for s from 0 to 1. Exact on cubics, up to rounding."""
    dy = differentiate_samples(y, 1.0)
    rise = y[1:] - y[:-1]
    return y[:-1], dy[:-1], 3 * rise - 2 * dy[:-1] - dy[1:], dy[:-1] + dy[1:] - 2 * rise


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
    fixed-step integrator of a state steps through here, so all of them share
    this float order; transport multiplies this scheme's step matrices."""
    k1 = rhs(0, y)
    k2 = rhs(1, y + 0.5 * h * k1)
    k3 = rhs(1, y + 0.5 * h * k2)
    k4 = rhs(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_base(structure, a, x0, n_intervals=None, rtol=None, atol=None):
    """Drive the base point by a time-dependent covector field.

    Solves gamma' = #(a(t, gamma)) from gamma(0) = x0 over [0, 1] with the
    adaptive RK45 of solve_ivp and samples the solution and the covector on a
    uniform grid. a is a sequence of component expressions (strings are
    parsed; the time variable is ``t``).
    """
    n = even_intervals(get_default("t_intervals") if n_intervals is None else n_intervals)
    rtol = get_default("ode_rtol") if rtol is None else float(rtol)
    atol = get_default("ode_atol") if atol is None else float(atol)
    dim = structure.dim
    a_exprs = expr.components(a, dim, symbols=(_TIME,), params=structure.params,
                              what="covector")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValidationError(f"start point must have shape ({dim},), got {x0.shape}")
    require_finite(x0, f"start point must be finite, got {x0.tolist()}", ValidationError)
    if not _MIN_RTOL <= rtol < math.inf:
        raise ValidationError(f"ODE rtol must be finite and at least {_MIN_RTOL:.3g}, "
                              f"got {rtol}")
    if not 0 < atol < math.inf:  # atol = 0 makes the error scale 0/0 at a zero component
        raise ValidationError(f"ODE atol must be positive and finite, got {atol}")

    field_exprs = structure.sharp_form(a_exprs)
    field = expr.compile_exprs(field_exprs, symbols=(_TIME,), params=structure.params)
    grid = np.linspace(0.0, 1.0, n + 1)
    # a diverging base overflows; the check below raises on it
    with np.errstate(all="ignore"):
        sol = solve_ivp(lambda t, y: field(y, t), (0.0, 1.0), x0,
                        t_eval=grid, rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalError(f"base integration failed: {sol.message}")
    gamma = sol.y.T
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


def reverse(path):
    """Traverse backwards: gamma(1 - t) driven by -a(1 - t)."""
    return CotangentPath(path.structure, path.t, path.gamma[::-1].copy(),
                         -path.a[::-1], defect=path.defect)


_SUBSTEPS, _BLOCK = 2, 256  # transport's RK4 steps per interval, and per product block


def _mul(A, B):
    """A @ B for each m of (n, n, m) stacks, in numpy's elementwise loops: a
    stacked matmul makes one BLAS call per small matrix, and maps its pages."""
    return np.add.reduce(A[:, :, None] * B[None], axis=1)


def transport(path, s0):
    """Carry a covector along the path by the canonical linear transport

        ds_i/dt = -(d_i Pi^(jk))(gamma(t)) a_j(t) s_k,

    returning s(1) = T s(0): T is the time-ordered product, by a pairwise tree
    over _BLOCK-step blocks, of RK4 step matrices with stages on the samples'
    Hermite pieces. Only the covector's values on the path enter, not its extension.
    """
    structure, n = path.structure, path.structure.dim
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (n,):
        raise ValidationError(f"covector must have shape ({n},)")
    require_finite(s0, f"covector must be finite, got {s0.tolist()}", ValidationError)
    h, eye = 1.0 / (_SUBSTEPS * path.n_intervals), np.eye(n)[:, :, None]
    T = eye
    with np.errstate(all="ignore"):  # a NaN or an overflow fails the gate below
        xa = np.hstack([path.gamma, path.a])
        c0, c1, c2, c3 = (c[:, None] for c in hermite(xa))
        u = np.arange(2 * _SUBSTEPS)[:, None] / (2 * _SUBSTEPS)  # node m at t = m h / 2
        nodes = np.vstack([(c0 + u * (c1 + u * (c2 + u * c3))).reshape(-1, 2 * n), xa[-1:]])
        for lo in range(0, len(nodes) - 1, 2 * _BLOCK):  # step j reads nodes 2j to 2j + 2
            x = nodes[lo:lo + 2 * _BLOCK + 1]
            D = structure.dpi_many(x[:, :n]) * x[:, None, n:, None]
            B = -np.add.reduce(D, axis=2).transpose(1, 2, 0).copy()  # B[i, k, m] = -A_ik
            K2 = _mul(B[..., 1::2], eye + 0.5 * h * B[..., :-1:2])
            K3 = _mul(B[..., 1::2], eye + 0.5 * h * K2)
            K4 = _mul(B[..., 2::2], eye + h * K3)
            P = eye + (h / 6.0) * (B[..., :-1:2] + 2.0 * K2 + 2.0 * K3 + K4)
            while P.shape[2] > 1:
                paired = _mul(P[..., 1::2], P[..., :P.shape[2] - 1:2])
                P = np.concatenate([paired, P[..., -1:]], axis=2) if P.shape[2] % 2 else paired
            T = _mul(P, T)
        s1 = _mul(T, s0[:, None, None])[:, 0, 0]
    require_finite(s1, "transport produced non-finite values")
    return s1


def sampling_error(path, s0, s1):
    """Richardson estimate |s1 - s1'| / 15 of the error of s1 = transport(path,
    s0), where s1' is transported over every other sample: RK4 and the Hermite
    pieces are both fourth order, so halving the samples multiplies the error
    by 16. It sees how the samples are joined, not an error already in them
    (on a path of integrate_base, its ODE tolerance). None for an odd interval
    count, or a half grid of fewer than the 7 samples of the stencils."""
    if path.n_intervals % 2 or path.n_intervals < 12:
        return None
    half = CotangentPath(path.structure, path.t[::2], path.gamma[::2], path.a[::2],
                         defect=path.defect)
    return float(np.max(np.abs(s1 - transport(half, s0)))) / 15
