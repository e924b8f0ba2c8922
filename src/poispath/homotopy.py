"""Families of cotangent paths and the variation machinery on top of them.

A family is given by a generator: covector components alpha_i(eps, t, x)
pulled back along the solved base slices, gamma(eps, 0) = x0(eps). Solving
the family fills uniform grids in t and eps with base points and covector
samples. On top of that live

  * the variation field b of the homotopy equation
        db_i/dt = da_i/deps + (d_i Pi^(jk)) a_j b_k,   b(eps, 0) = 0,
    whose endpoint curve b(eps, 1) decides membership in a homotopy class;
  * the transport field of the transposed equation (coupling arguments
    swapped), which reproduces the base motion exactly: d(gamma)/deps equals
    #b_transport. The invariance identity is stated through this field.
  * the 1-form action flow, which deforms a single path inside its homotopy
    class while freezing the base endpoints.

The coupling order in the variation equation is a convention with no local
witness; it is pinned by the group-path family test (rotation algebra,
origin leaf), where exactly one order kills the variation. The transposed
field is not an alternative convention but a different object; both are
exposed.

da/deps is always taken by finite differences across the solved slices, not
symbolically: a(eps, t) = alpha(eps, t, gamma(eps, t)) drags the unknown
d(gamma)/deps into any symbolic attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError
from .paths import CotangentPath, differentiate_samples, path_defect

_TIME = "t"
_EPS = "eps"

# time nodes per dpi_many batch in the variation solve; even, so that each
# two-cell RK4 step lies inside one block
_DPI_BLOCK = 64


def _even_intervals(n, least, what):
    n = int(n)
    if n < least or n % 2:
        raise ValidationError(
            f"{what} must be even and at least {least}, got {n}")
    return n


def _frozen(array):
    array.setflags(write=False)
    return array


class PathFamily:
    """Generator-defined family over a uniform (eps, t) grid.

    Arbitrary sample-level families are rejected by construction: without a
    generator there is no way to keep the slices honest cotangent paths.

    The base is solved once, on the fine grid eps_fine of 2M - 1 slices that
    the resolution check needs; gamma and a are its even slices, which is
    exact because linspace(lo, hi, 2M - 1)[::2] equals linspace(lo, hi, M)
    and the RK4 rows do not depend on each other. Solved arrays and variation
    fields are cached and read-only.
    """

    def __init__(self, structure, generator, x0, eps_range=(0.0, 1.0),
                 eps_intervals=None, t_intervals=None):
        self.structure = structure
        self.generator = expr.components(
            generator, structure.dim, symbols=(_TIME, _EPS),
            params=structure.params, what="generator")
        self.x0_exprs = expr.components(
            x0, 0, symbols=(_EPS,), params=structure.params,
            what="start point", count=structure.dim)
        lo, hi = (float(eps_range[0]), float(eps_range[1]))
        if not hi > lo:
            raise ValidationError(f"bad eps range ({lo}, {hi})")
        self.eps_range = (lo, hi)
        n_eps = get_default("eps_intervals") if eps_intervals is None else eps_intervals
        n_t = get_default("t_intervals") if t_intervals is None else t_intervals
        self.eps_intervals = _even_intervals(n_eps, 8, "eps interval count")
        self.t_intervals = _even_intervals(n_t, 8, "t interval count")
        self.t = _frozen(np.linspace(0.0, 1.0, self.t_intervals + 1))
        self.eps = _frozen(np.linspace(lo, hi, self.eps_intervals + 1))
        self.eps_fine = _frozen(np.linspace(lo, hi, 2 * self.eps_intervals + 1))
        self.gamma = None
        self.a = None
        self.d_eps_a = None
        self.max_defect = None
        self._fine = None      # (gamma, a, d_eps_a) over eps_fine
        self._fields = {}      # (fine, sign) -> variation field b
        params = structure.params
        self._gen_fn = expr.compile_exprs_vec(
            self.generator, symbols=(_TIME, _EPS), params=params)
        self._x0_fn = expr.compile_exprs_vec(
            self.x0_exprs, symbols=(_EPS,), params=params)

    @classmethod
    def from_dict(cls, structure, data):
        """Family spec mapping: generator, x0, optional eps_grid / t_grid
        node counts and eps_range."""
        try:
            generator = data["generator"]
            x0 = data["x0"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"family description missing field: {exc}") from None
        kwargs = {}
        if "eps_grid" in data:
            kwargs["eps_intervals"] = int(data["eps_grid"]) - 1
        if "t_grid" in data:
            kwargs["t_intervals"] = int(data["t_grid"]) - 1
        if "eps_range" in data:
            kwargs["eps_range"] = tuple(data["eps_range"])
        return cls(structure, generator, x0, **kwargs)

    def start_points(self, eps):
        dummy = np.zeros((1, len(eps)))
        return self._x0_fn(dummy, np.asarray(eps)).T

    def _solve_on(self, eps):
        """Vectorized RK4 of gamma' = #alpha over all given eps slices."""
        S = self.structure
        n, N = S.dim, self.t_intervals
        t, h = self.t, 1.0 / N
        starts = self.start_points(eps)
        gamma = np.empty((len(eps), N + 1, n))
        gamma[:, 0] = starts
        state = starts.copy()

        def rhs(tv, y):
            av = self._gen_fn(y.T, tv, eps).T
            return S.sharp_many(y, av)

        for i in range(N):
            tv = t[i]
            k1 = rhs(tv, state)
            k2 = rhs(tv + 0.5 * h, state + 0.5 * h * k1)
            k3 = rhs(tv + 0.5 * h, state + 0.5 * h * k2)
            k4 = rhs(tv + h, state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            gamma[:, i + 1] = state
        if not np.all(np.isfinite(gamma)):
            raise NumericalError("family base integration produced non-finite values")
        a = np.empty_like(gamma)
        for m in range(len(eps)):
            a[m] = self._gen_fn(gamma[m].T, t, eps[m]).T
        d_eps_a = differentiate_samples(a, eps[1] - eps[0])
        return gamma, a, d_eps_a

    def solve(self):
        if self.gamma is None:
            self._fine = tuple(_frozen(v) for v in self._solve_on(self.eps_fine))
            gamma_f, a_f, _ = self._fine
            self.gamma = _frozen(gamma_f[::2].copy())
            self.a = _frozen(a_f[::2].copy())
            self.d_eps_a = _frozen(
                differentiate_samples(self.a, self.eps[1] - self.eps[0]))
            self.max_defect = max(
                path_defect(self.structure, self.t, self.gamma[m], self.a[m])
                for m in range(len(self.eps)))
        return self

    def slice_path(self, m):
        """The m-th eps slice as a standalone cotangent path."""
        self.solve()
        return CotangentPath(self.structure, self.t.copy(), self.gamma[m].copy(),
                             self.a[m].copy())

    def variation_field(self, sign, fine=False):
        """Variation field b with coupling sign +1 (pinned) or -1 (flipped,
        the transport field) over the coarse or the fine eps grid; solved once
        per (grid, sign), read-only."""
        key = (bool(fine), float(sign))
        if key not in self._fields:
            self.solve()
            if fine:
                eps, (gamma, a, d_eps_a) = self.eps_fine, self._fine
            else:
                eps, gamma, a, d_eps_a = self.eps, self.gamma, self.a, self.d_eps_a
            self._fields[key] = _frozen(_variation_field(
                self.structure, self.t, eps, gamma, a, d_eps_a, key[1]))
        return self._fields[key]


@dataclass
class VariationResult:
    eps: np.ndarray
    t: np.ndarray
    b: np.ndarray            # (M, N+1, n), b[:, 0] = 0
    var: np.ndarray          # (M, n) endpoint curve b(eps, 1)
    max_variation: float
    order: str
    resolution_checked: bool
    resolution_change: float
    grid_coarse: bool


def _variation_field(structure, t, eps, gamma, a, d_eps_a, sign):
    """RK4 for the linear b-equation, stepped two grid cells at a time so the
    stage values sit on stored nodes. The gradients d_i Pi^(jk) come from one
    dpi_many call per block of _DPI_BLOCK time nodes across all slices."""
    from scipy.interpolate import CubicSpline

    M, nodes, n = gamma.shape
    N = nodes - 1
    h = t[1] - t[0]
    coarse = np.empty((M, N // 2 + 1, n))
    coarse[:, 0] = 0.0
    cur = np.zeros((M, n))
    for start in range(0, N, _DPI_BLOCK):
        stop = min(start + _DPI_BLOCK, N)
        # node-major rows, so that each node's (M, n, n, n) block is contiguous
        points = gamma[:, start:stop + 1].transpose(1, 0, 2).reshape(-1, n)
        D = structure.dpi_many(points).reshape(stop + 1 - start, M, n, n, n)

        def rhs(node, b):
            return d_eps_a[:, node] + sign * np.einsum(
                "mijk,mj,mk->mi", D[node - start], a[:, node], b)

        for i in range(start, stop, 2):
            k1 = rhs(i, cur)
            k2 = rhs(i + 1, cur + h * k1)
            k3 = rhs(i + 1, cur + h * k2)
            k4 = rhs(i + 2, cur + 2.0 * h * k3)
            cur = cur + (h / 3.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            coarse[:, i // 2 + 1] = cur
    if not np.all(np.isfinite(coarse)):
        raise NumericalError("variation equation produced non-finite values")
    b = CubicSpline(t[::2], coarse, axis=1)(t)
    b[:, 0] = 0.0
    return b


_ORDER_SIGNS = {"pinned": 1.0, "flipped": -1.0}


def solve_variation(family, order="pinned", check_resolution=True):
    """Variation field of a solved family.

    order "pinned" is the convention fixed by the group-path test; "flipped"
    exists for the sign-discrimination check and equals the transport field.
    With check_resolution the endpoint curve is compared with the one over
    the family's fine grid (eps step halved) on shared nodes; a change above
    10% flags the grid as coarse. The returned field b is the family's cached,
    read-only array.
    """
    if order not in _ORDER_SIGNS:
        raise ValidationError(f"order must be 'pinned' or 'flipped', got {order!r}")
    sign = _ORDER_SIGNS[order]
    b = family.variation_field(sign)
    var = b[:, -1].copy()
    max_var = float(np.max(np.linalg.norm(var, axis=1)))

    change = 0.0
    coarse_flag = False
    if check_resolution:
        b_f = family.variation_field(sign, fine=True)
        delta = float(np.max(np.abs(b_f[::2, -1] - var)))
        floor = 1e-8 * max(1.0, float(np.max(np.abs(family.a))))
        scale = max(float(np.max(np.abs(b_f[:, -1]))), floor)
        change = delta / scale
        coarse_flag = change > 0.10
    return VariationResult(eps=family.eps, t=family.t, b=b, var=var,
                           max_variation=max_var, order=order,
                           resolution_checked=bool(check_resolution),
                           resolution_change=change, grid_coarse=coarse_flag)


@dataclass
class HomotopyDecision:
    ok: bool
    reason: str
    max_variation: float
    start_spread: float
    end_spread: float
    tol: float

    def __bool__(self):
        return self.ok


def is_homotopy(family, tol=None):
    """Decide fixed endpoints plus vanishing variation, with the failure
    cause kept apart."""
    tol = get_default("homotopy_tol") if tol is None else float(tol)
    family.solve()
    start_spread = float(np.max(np.abs(family.gamma[:, 0] - family.gamma[0, 0])))
    end_spread = float(np.max(np.abs(family.gamma[:, -1] - family.gamma[0, -1])))
    result = solve_variation(family)
    if max(start_spread, end_spread) > tol:
        return HomotopyDecision(False, "not a family with fixed endpoints",
                                result.max_variation, start_spread, end_spread, tol)
    if result.max_variation > tol:
        return HomotopyDecision(False, "variation nonzero",
                                result.max_variation, start_spread, end_spread, tol)
    return HomotopyDecision(True, "", result.max_variation,
                            start_spread, end_spread, tol)


def _lie_derivative_upper(structure, X):
    """(L_X Pi)^(jk) for j < k as expressions: X^l d_l Pi^(jk)
    - Pi^(lk) d_l X^j - Pi^(jl) d_l X^k."""
    n = structure.dim
    dX = [[expr.differentiate(X[j], l + 1) for l in range(n)] for j in range(n)]
    out = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            term = expr.Num(0.0)
            for l in range(1, n + 1):
                term = expr.add(term, expr.mul(X[l - 1],
                                               structure.entry_derivative(l, j, k)))
                term = expr.sub(term, expr.mul(structure.entry(l, k), dX[j - 1][l - 1]))
                term = expr.sub(term, expr.mul(structure.entry(j, l), dX[k - 1][l - 1]))
            out.append(term)
    return out


@dataclass
class InvarianceReport:
    lhs: float
    endpoint_term: float
    bulk_term: float
    residual: float
    line_integrals: np.ndarray   # I(eps) per slice
    max_transport_endpoint: float


def invariance_report(family, field):
    """All four quantities of the homotopy-invariance identity.

    I(eps) = integral <a, X(gamma)> dt. The identity

        I(eps1) - I(eps0) = int <b(eps,1), X(gamma(eps,1))> deps
                            + int int (L_X Pi)(a, b) dt deps

    holds exactly for the transport field (the one moving the base), and
    that field is used here; the residual reports the quadrature error only.
    Non-finite field values or L_X Pi densities raise NumericalError.
    """
    from scipy.integrate import simpson

    S = family.structure
    X = expr.components(field, S.dim, params=S.params, what="vector field")
    b = family.variation_field(-1.0)

    M, nodes, n = family.gamma.shape
    flat = family.gamma.reshape(M * nodes, n)
    X_fn = expr.compile_exprs_vec(X, params=S.params)
    X_vals = X_fn(flat.T).T.reshape(M, nodes, n)
    if not np.all(np.isfinite(X_vals)):
        raise NumericalError("vector field X is not finite along the family")

    line = simpson(np.einsum("mti,mti->mt", family.a, X_vals), x=family.t, axis=1)
    lhs = float(line[-1] - line[0])

    endpoint = float(simpson(np.einsum("mi,mi->m", b[:, -1], X_vals[:, -1]),
                             x=family.eps))

    lx_fn = expr.compile_exprs_vec(_lie_derivative_upper(S, X), params=S.params)
    lx = lx_fn(flat.T).T.reshape(M, nodes, -1)
    density = np.zeros((M, nodes))
    col = 0
    for j in range(n):
        for k in range(j + 1, n):
            density += lx[:, :, col] * (family.a[:, :, j] * b[:, :, k]
                                        - family.a[:, :, k] * b[:, :, j])
            col += 1
    if not np.all(np.isfinite(density)):
        raise NumericalError("(L_X Pi)(a, b) density is not finite along the family")
    bulk = float(simpson(simpson(density, x=family.t, axis=1), x=family.eps))

    residual = abs(lhs - endpoint - bulk)
    return InvarianceReport(lhs=lhs, endpoint_term=endpoint, bulk_term=bulk,
                            residual=residual, line_integrals=line,
                            max_transport_endpoint=float(
                                np.max(np.linalg.norm(b[:, -1], axis=1))))


def invariance_identity_residual(family, field):
    """|LHS - RHS| of the invariance identity; small values certify it."""
    return invariance_report(family, field).residual


def flow_by_action(path, eta, step=2e-4, count=25, defect_tol=None):
    """Deform a cotangent path by the action flow of a time-dependent 1-form.

    eta components are expressions in t and x with eta(0,.) = eta(1,.) = 0.
    Each explicit Euler step moves the base by #b and the covector by the
    matching contravariant rate u = db/dt - coupling(b, a), where
    b(t) = eta(t, gamma(t)). The base endpoints carry zero field, so they
    never move; the result stays in the homotopy class of the input.
    """
    S = path.structure
    n = S.dim
    defect_tol = get_default("flow_defect_tol") if defect_tol is None else float(defect_tol)
    comps = expr.components(eta, n, symbols=(_TIME,), params=S.params, what="eta")

    eta_fn = expr.compile_exprs_vec(comps, symbols=(_TIME,), params=S.params)
    eta_t = expr.compile_exprs_vec(
        [expr.differentiate_sym(c, _TIME) for c in comps],
        symbols=(_TIME,), params=S.params)
    eta_x = expr.compile_exprs_vec(
        [expr.differentiate(c, l + 1) for c in comps for l in range(n)],
        symbols=(_TIME,), params=S.params)

    t = path.t
    ends = eta_fn(path.gamma[[0, -1]].T, t[[0, -1]])
    if np.max(np.abs(ends)) > 1e-12:
        raise ValidationError("eta must vanish at t = 0 and t = 1")

    gamma = path.gamma.copy()
    a = path.a.copy()
    h = float(step)
    for _ in range(int(count)):
        b = eta_fn(gamma.T, t).T
        velocity = S.sharp_many(gamma, a)
        grad = eta_x(gamma.T, t).reshape(n, n, -1)
        db_dt = eta_t(gamma.T, t).T + np.einsum("ikm,mk->mi", grad, velocity)
        u = db_dt - S.coupling_many(gamma, b, a)
        phi = S.sharp_many(gamma, b)
        gamma = gamma + h * phi
        a = a + h * u
    flowed = CotangentPath(S, t, gamma, a)
    if flowed.defect > defect_tol:
        raise NumericalError(
            f"flow defect {flowed.defect:.3e} exceeds {defect_tol:.1e}; "
            "reduce the step size")
    return flowed
