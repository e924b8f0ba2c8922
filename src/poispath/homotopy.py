"""Families of cotangent paths and the variation machinery on top of them.

A family is given by a generator: covector components alpha_i(eps, t, x)
pulled back along the solved base slices, gamma(eps, 0) = x0(eps). Solving
the family fills uniform grids in t and eps with base points and covector
samples. On top of that live

  * the variation field b of the homotopy equation
        db_i/dt = da_i/deps + (d_i Pi^(jk)) a_j b_k,   b(eps, 0) = 0,
    whose endpoint curve b(eps, 1) decides membership in a homotopy class.
    A family keeps one field per (eps grid, coupling sign), as its RK4
    knots on t[::2]; t = 1 is a knot, so the endpoint curve is the last
    knot, and only invariance_report reads b between knots (a cubic
    Hermite through the knots, with slopes from the equation itself).
    The first request solves the pinned coarse, pinned fine and flipped
    coarse fields (and the requested one) in one RK4 pass over all their
    slices (the base solve and this pass both step through paths.rk4_step),
    with one dpi_many call per block on the fine slices only, since the
    coarse slices are the even fine ones; a field still missing later is
    solved alone. The contraction adds its terms in coupling_many's einsum
    order, so a field's bits do not depend on the batch it was solved in;
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

Both RK4 loops write the four stage values of each step into rotating
buffers. The base solve's stage kernel (_sharp_exprs) folds the signs out of
each term Pi^(jk) alpha_j, so a negated term is subtracted, and keeps a
structurally zero term only where it carries a non-finite alpha_j to gamma;
gamma has the bits of sharp_many.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError, require_finite, require_within
from .paths import CotangentPath, differentiate_samples, even_intervals, hermite, rk4_step
# bound only for perfbench's tracer, which wraps path_defect under this module
from .paths import path_defect  # noqa: F401
from .quadrature import simpson

_TIME = "t"
_EPS = "eps"

# time steps per block: dpi_many nodes of the variation solve, and stage
# times of the hoisted generator terms of the base solve; even, so that each
# two-cell RK4 step of the variation solve lies inside one block
_DPI_BLOCK = 64

# (fine, sign) of the variation fields that a family's first request solves
# in one pass: pinned coarse, pinned fine and flipped coarse, the fields that
# `poispath variation --X` reads
_FIRST_BATCH = ((False, 1.0), (True, 1.0), (False, -1.0))


def _frozen(array):
    array.setflags(write=False)
    return array


class PathFamily:
    """Generator-defined family over a uniform (eps, t) grid.

    Arbitrary sample-level families are rejected by construction: without a
    generator there is no way to keep the slices honest cotangent paths.

    The base is solved once, on the fine grid eps_fine of 2M - 1 slices that
    the resolution check needs; gamma and a are views of its even slices,
    which is exact because linspace(lo, hi, 2M - 1)[::2] equals
    linspace(lo, hi, M) and the RK4 rows do not depend on each other.
    Solved arrays and variation fields (knots on t[::2]) are cached and
    read-only.
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
        try:
            lo, hi = (float(v) for v in eps_range)
        except (TypeError, ValueError):
            raise ValidationError(f"eps_range must be a [lo, hi] pair, got {eps_range!r}") from None
        if not -np.inf < lo < hi < np.inf:
            raise ValidationError(f"bad eps range ({lo}, {hi})")
        self.eps_range = (lo, hi)
        n_eps = get_default("eps_intervals") if eps_intervals is None else eps_intervals
        n_t = get_default("t_intervals") if t_intervals is None else t_intervals
        self.eps_intervals = even_intervals(n_eps, "eps interval count")
        self.t_intervals = even_intervals(n_t, "t interval count")
        self.t = _frozen(np.linspace(0.0, 1.0, self.t_intervals + 1))
        self.eps = _frozen(np.linspace(lo, hi, self.eps_intervals + 1))
        self.eps_fine = _frozen(np.linspace(lo, hi, 2 * self.eps_intervals + 1))
        self.gamma = None
        self.a = None
        self.d_eps_a = None
        self._fine = None      # (gamma, a, d_eps_a) over eps_fine
        self._fields = {}      # (fine, sign) -> variation field b
        params = structure.params
        self._gen_fn = expr.compile_exprs_vec(
            self.generator, symbols=(_TIME, _EPS), params=params)
        free, rest = expr.split_free(self.generator, "_free")
        self._free_fn = expr.compile_exprs_vec(
            free, symbols=(_TIME, _EPS), params=params) if free else None
        self._stage_fn = expr.compile_exprs_vec(
            _sharp_exprs(structure, rest), params=params,
            symbols=(_TIME, _EPS) + tuple(f"_free{k}" for k in range(len(free))))
        self._x0_fn = expr.compile_exprs_vec(
            self.x0_exprs, symbols=(_EPS,), params=params)

    @classmethod
    def from_dict(cls, structure, data):
        """Family spec mapping: generator, x0, optional eps_grid / t_grid
        node counts (integers) and eps_range."""
        try:
            generator = data["generator"]
            x0 = data["x0"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"family description missing field: {exc}") from None
        kwargs = {}
        for key, name in (("eps_grid", "eps_intervals"), ("t_grid", "t_intervals")):
            if key in data:
                count = data[key]
                if isinstance(count, float) and count.is_integer():
                    count = int(count)
                if not isinstance(count, int):
                    raise ValidationError(f"{key} must be an integer node count, got {count!r}")
                kwargs[name] = count - 1
        if "eps_range" in data:
            kwargs["eps_range"] = data["eps_range"]
        return cls(structure, generator, x0, **kwargs)

    def start_points(self, eps):
        return self._x0_fn((), np.asarray(eps)).T

    def _solve_on(self, eps):
        """Vectorized RK4 (paths.rk4_step) of gamma' = #alpha over all given
        eps slices.

        The state is component-major, (n, M) for M slices. The generator's
        subtrees that read no coordinate are evaluated once per block of
        _DPI_BLOCK steps, over the stage times t_i, t_i + h/2, t_i + h and
        all slices, and split into per-stage argument lists. Each RK4 stage
        then runs one CSE-compiled kernel (_sharp_exprs), which shares
        subtrees between the rest of the generator and Pi, so gamma has the
        bits of the unstaged route. The kernel writes its rows into the next
        of four rotating buffers, taken in call order, as rk4_step holds
        four stage values until its step ends."""
        n, N, M = self.structure.dim, self.t_intervals, len(eps)
        t, h = self.t, 1.0 / N
        gamma = np.empty((M, N + 1, n))
        state = self.start_points(eps).T
        require_finite(state, f"start point ({', '.join(map(str, self.x0_exprs))}) is not "
                       "finite over the eps range", ValidationError)
        gamma[:, 0] = state.T
        stage = self._stage_fn
        # each buffer is split into its rows once: the kernel writes them,
        # and rhs returns the first n of them as one array
        buffers = itertools.cycle([(b[:n], tuple(b)) for b in np.empty((4, stage.slots, M))])
        # a diverging base overflows; the check below raises on it
        with np.errstate(all="ignore"):
            for lo in range(0, N, _DPI_BLOCK):
                ti = t[lo:min(lo + _DPI_BLOCK, N)]
                times = np.stack([ti, ti + 0.5 * h, ti + h])
                free = np.empty((0, 3, len(ti), M))
                if self._free_fn is not None:
                    free = self._free_fn(np.empty((0, times.size * M)), np.repeat(times, M),
                                         np.tile(eps, times.size)).reshape(-1, 3, len(ti), M)
                # the kernel's symbol values at stage time j of step r
                args = [[(tv, eps, *free[:, j, r]) for r, tv in enumerate(times[j].tolist())]
                        for j in range(3)]

                def rhs(j, y):
                    out, rows = next(buffers)
                    stage(y, *args[j][r], rows=rows)
                    return out

                for r in range(len(ti)):
                    state = rk4_step(rhs, state, h)
                    gamma[:, lo + r + 1] = state.T
        require_finite(gamma, "family base integration produced non-finite values")
        a = np.empty_like(gamma)
        for m in range(M):
            a[m] = self._gen_fn(gamma[m].T, t, eps[m]).T
        d_eps_a = differentiate_samples(a, eps[1] - eps[0])
        return gamma, a, d_eps_a

    def solve(self):
        if self.gamma is None:
            self._fine = tuple(_frozen(v) for v in self._solve_on(self.eps_fine))
            # views of read-only arrays are read-only
            self.gamma, self.a = self._fine[0][::2], self._fine[1][::2]
            self.d_eps_a = _frozen(
                differentiate_samples(self.a, self.eps[1] - self.eps[0]))
        return self

    def slice_path(self, m):
        """The m-th eps slice as a standalone cotangent path."""
        self.solve()
        return CotangentPath(self.structure, self.t.copy(), self.gamma[m].copy(),
                             self.a[m].copy())

    def variation_field(self, sign, fine=False):
        """Variation field b with coupling sign +1 (pinned) or -1 (flipped,
        the transport field) over the coarse or the fine eps grid: its RK4
        knots on t[::2], a read-only (M, N/2 + 1, n) array, solved once per
        (grid, sign).

        The first request solves, in one pass of _variation_fields, the
        requested field and those of _FIRST_BATCH (the three that
        `poispath variation --X` reads). A field that is still missing
        later is solved alone. A batched field with non-finite values is
        not kept, so only a request for it raises NumericalError."""
        key = (bool(fine), float(sign))
        if key not in self._fields:
            self.solve()
            keys = [key] if self._fields else list(dict.fromkeys((key,) + _FIRST_BATCH))
            rows = np.arange(len(self.eps_fine))
            parts = [(rows, self._fine[2], s) if f else (rows[::2], self.d_eps_a, s)
                     for f, s in keys]
            fields = _variation_fields(self.structure, self.t, *self._fine[:2], parts)
            for k, b in zip(keys, fields):
                if b is not None:
                    self._fields[k] = _frozen(b)
            if key not in self._fields:
                raise NumericalError("variation equation produced non-finite values")
        return self._fields[key]


def _signed(e, memo):
    """(sign, m) with e equal to sign * m, sign +1 or -1, for every value of
    e but NaN, whose sign bit may differ.

    The signs of Neg nodes and of the factors of products and quotients are
    pulled out: (-a) b = -(a b). Sums take them in as
    x + (-y) = x - y, (-x) + y = y - x and x - (-y) = x + y, and keep one Neg
    where both operands are negated, as -(x + y) is not (-x) + (-y) at
    (+0, -0). Calls and powers are left as they are. memo maps id(e) to
    (e, sign, m); it holds e so that no id is reused while memo is read."""
    if id(e) not in memo:
        sign, m = 1, e
        if isinstance(e, expr.Neg):
            sign, m = _signed(e.operand, memo)
            sign = -sign
        elif isinstance(e, (expr.Mul, expr.Div)):
            (sa, ma), (sb, mb) = _signed(e.left, memo), _signed(e.right, memo)
            sign, m = sa * sb, type(e)(ma, mb)
        elif isinstance(e, (expr.Add, expr.Sub)):
            (sa, ma), (sb, mb) = _signed(e.left, memo), _signed(e.right, memo)
            sb = -sb if isinstance(e, expr.Sub) else sb
            if sa > 0:
                m = (expr.Add if sb > 0 else expr.Sub)(ma, mb)
            else:
                m = expr.Sub(mb, ma) if sb > 0 else expr.Sub(expr.Neg(ma), mb)
        memo[id(e)] = (e, sign, m)
    return memo[id(e)][1:]


def _sharp_exprs(structure, alpha):
    """(#alpha)^k = Pi^(jk) alpha_j summed as sharp_many's einsum sums it:
    from a 0.0 accumulator, in j order, to the same float where Pi and
    alpha are finite.

    Each term's signs are folded out by _signed, so a negated term is
    subtracted from the sum instead of being negated and added.
    Structurally zero entries add only signed zeros, which leave a sum from
    +0.0 as it is, and are left out. The first component keeps 0.0 * alpha_j
    only for an alpha_j whose Pi^(jk) are all structurally zero: every other
    alpha_j reaches some component through a nonzero entry, and so a
    non-finite alpha_j always reaches gamma."""
    n = structure.dim
    pi = [[structure.entry(j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]
    zero = [[isinstance(p, expr.Num) and p.value == 0.0 for p in row] for row in pi]
    memo, out = {}, []
    for k in range(n):
        total = expr.Num(0.0)
        for j in range(n):
            if not zero[j][k]:
                sign, m = _signed(expr.Mul(pi[j][k], alpha[j]), memo)
                total = (expr.Add if sign > 0 else expr.Sub)(total, m)
            elif k == 0 and all(zero[j]):
                total = expr.Add(total, expr.Mul(pi[j][k], alpha[j]))
        out.append(total)
    return out


@dataclass
class VariationResult:
    """A variation field on its RK4 knots t = family.t[::2]."""
    eps: np.ndarray
    t: np.ndarray
    b: np.ndarray            # (M, N/2 + 1, n), b[:, 0] = 0
    var: np.ndarray          # (M, n) endpoint curve b(eps, 1), the last knot
    max_variation: float
    order: str
    resolution_change: float
    grid_coarse: bool


def _coupling_factor(D, a, rows):
    """E[..., j, k, i, r] = (d_i Pi^(jk)) a_j, the first product that
    coupling_many's einsum forms, from D[..., m, i, j, k] at the points
    m = rows[r] and a[..., j, r]. One node's (n, n, n, R) block is
    contiguous."""
    E = np.take(np.ascontiguousarray(np.moveaxis(D, (-4, -3), (-1, -2))), rows, axis=-1)
    E *= a[..., :, None, None, :]
    return E


def _coupling(E, b, buf, out):
    """(d_i Pi^(jk)) a_j b_k per row, written to out (n, R), from one node's
    E (see _coupling_factor) and the component-major state b (n, R).

    The (j, k) terms (D a) b are added from a +0.0 accumulator in
    lexicographic order, which is how coupling_many's einsum adds them, so
    the bits are the same. buf is (n, n, n, R) scratch: its (j, k) axis is
    the outermost, and numpy reduces an outer axis term by term (an inner
    one it would sum pairwise)."""
    np.multiply(E, b[None, :, None, :], out=buf)
    return np.add.reduce(buf.reshape(-1, *b.shape), axis=0, initial=0.0, out=out)


def _variation_fields(structure, t, gamma_f, a_f, parts):
    """Variation fields of several (grid, sign) pairs in one RK4 pass: RK4
    for db/dt = da/deps + sign (d_i Pi^(jk)) a_j b_k over the rows of all
    parts, one paths.rk4_step of size 2h per two grid cells, so that the
    step's half points are stored nodes.

    Each part is (rows, d_eps_a, sign): the fine eps slices of the grid,
    da/deps over them and the coupling sign. Returns one field per part, its
    knots on t[::2] as an (M, N/2 + 1, n) view, or None where its values are
    not finite; every row has the bits of a separate solve with
    coupling_many.

    The state is component-major, (n, R). Per block of _DPI_BLOCK time
    nodes, one dpi_many call covers all fine slices (the coarse ones are
    the even fine ones), and E = (d_i Pi^(jk)) a_j is formed once; each
    stage is one _coupling call, scaled by the sign and added to da/deps in
    the next of four rotating buffers (see PathFamily._solve_on).
    Non-finite values are left to the end: a diverging part must not stop
    the others, or warn while they are solved.
    """
    n, N = gamma_f.shape[2], len(t) - 1
    h = t[1] - t[0]
    rows = np.concatenate([part[0] for part in parts])
    sign = np.concatenate([np.full(len(part[0]), float(part[2])) for part in parts])
    knots = np.empty((rows.size, N // 2 + 1, n))
    knots[:, 0] = 0.0
    cur = np.zeros((n, rows.size))
    buf = np.empty((n, n, n, rows.size))
    buffers = itertools.cycle(np.empty((4, n, rows.size)))
    with np.errstate(all="ignore"):
        for start in range(0, N, _DPI_BLOCK):
            stop = min(start + _DPI_BLOCK, N)
            span = slice(start, stop + 1)
            # node-major points, so that each node's dpi block is contiguous
            points = gamma_f[:, span].transpose(1, 0, 2).reshape(-1, n)
            D = structure.dpi_many(points).reshape(stop + 1 - start, -1, n, n, n)
            E = list(_coupling_factor(D, a_f[rows, span].transpose(1, 2, 0), rows))
            F = list(np.concatenate([d[:, span].transpose(1, 2, 0) for _, d, _ in parts],
                                    axis=2))

            def rhs(j, b):
                k = _coupling(E[i + j - start], b, buf, next(buffers))
                np.multiply(sign, k, out=k)
                return np.add(F[i + j - start], k, out=k)

            for i in range(start, stop, 2):
                cur = rk4_step(rhs, cur, 2.0 * h)
                knots[:, i // 2 + 1] = cur.T
    return [b if np.all(np.isfinite(b)) else None
            for b in np.split(knots, np.cumsum([len(p[0]) for p in parts])[:-1])]


_ORDER_SIGNS = {"pinned": 1.0, "flipped": -1.0}


def solve_variation(family, order="pinned", check_resolution=True):
    """Variation field of a solved family.

    order "pinned" is the convention fixed by the group-path test; "flipped"
    exists for the sign-discrimination check and equals the transport field.
    With check_resolution the endpoint curve is compared with the one over
    the family's fine grid (eps step halved) on shared nodes; a change above
    10% flags the grid as coarse. The returned field b is the family's cached,
    read-only array of knots on t[::2].
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
        coarse_flag = not change <= 0.10
    return VariationResult(eps=family.eps, t=family.t[::2], b=b, var=var,
                           max_variation=max_var, order=order,
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


def is_homotopy(family):
    """Decide fixed endpoints plus vanishing variation, to the configured
    homotopy_tol, with the failure cause kept apart."""
    tol = get_default("homotopy_tol")
    family.solve()
    start_spread = float(np.max(np.abs(family.gamma[:, 0] - family.gamma[0, 0])))
    end_spread = float(np.max(np.abs(family.gamma[:, -1] - family.gamma[0, -1])))
    result = solve_variation(family)
    if not (start_spread <= tol and end_spread <= tol):
        return HomotopyDecision(False, "not a family with fixed endpoints",
                                result.max_variation, start_spread, end_spread, tol)
    if not result.max_variation <= tol:
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
    max_transport_endpoint: float


def invariance_report(family, field):
    """All four quantities of the homotopy-invariance identity.

    I(eps) = integral <a, X(gamma)> dt. The identity

        I(eps1) - I(eps0) = int <b(eps,1), X(gamma(eps,1))> deps
                            + int int (L_X Pi)(a, b) dt deps

    holds exactly for the transport field (the one moving the base), and
    that field is used here. The bulk term reads it on t, between its knots
    on t[::2] too: there it is the midpoint of the cubic Hermite piece
    through two knots, with the knots' slopes db/dt from the field's own
    equation. The variation field starts at b(eps, 0) = 0, which is the
    true one only when the start point does not move with eps: for such a
    family the residual reports the quadrature and interpolation error
    only. Where the start point moves, the identity also has the start
    point's term, which this report leaves out, and the residual carries it
    (in the test suite, 4.75e-3 where x2 starts at 0.1 cos(eps), against
    1.5e-11 or less where the start is fixed).
    Non-finite field values or L_X Pi densities raise NumericalError.
    """
    S = family.structure
    X = expr.components(field, S.dim, params=S.params, what="vector field")
    knots = family.variation_field(-1.0)

    M, nodes, n = family.gamma.shape
    flat = family.gamma.reshape(M * nodes, n)
    X_fn = expr.compile_exprs_vec(X, params=S.params)
    X_vals = X_fn(flat.T).T.reshape(M, nodes, n)
    require_finite(X_vals, "vector field X is not finite along the family")

    line = simpson(np.einsum("mti,mti->mt", family.a, X_vals), family.t, axis=1)
    lhs = float(line[-1] - line[0])

    endpoint = float(simpson(np.einsum("mi,mi->m", knots[:, -1], X_vals[:, -1]), family.eps))

    lx_fn = expr.compile_exprs_vec(_lie_derivative_upper(S, X), params=S.params)
    # one slice at a time through one buffer: the kernel's rows over all
    # M * nodes points would raise the peak memory by megabytes; so would
    # the knot slopes over all slices
    buf = np.empty((lx_fn.slots, nodes))
    lx = np.empty((M, nodes, n * (n - 1) // 2))
    b = np.empty((M, nodes, n))
    b[:, ::2] = knots
    step = family.t[2] - family.t[0]
    for m, g in enumerate(family.gamma):
        lx[m] = lx_fn(g.T, rows=buf).T
        # db/dt at the knots from the transport field's own equation
        slope = family.d_eps_a[m, ::2] - S.coupling_many(g[::2], family.a[m, ::2], knots[m])
        c0, c1, c2, c3 = hermite(knots[m], step * slope)
        b[m, 1::2] = c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))
    density = np.zeros((M, nodes))
    col = 0
    for j in range(n):
        for k in range(j + 1, n):
            density += lx[:, :, col] * (family.a[:, :, j] * b[:, :, k]
                                        - family.a[:, :, k] * b[:, :, j])
            col += 1
    require_finite(density, "(L_X Pi)(a, b) density is not finite along the family")
    bulk = float(simpson(simpson(density, family.t, axis=1), family.eps))

    residual = abs(lhs - endpoint - bulk)
    return InvarianceReport(lhs=lhs, endpoint_term=endpoint, bulk_term=bulk,
                            residual=residual,
                            max_transport_endpoint=float(
                                np.max(np.linalg.norm(knots[:, -1], axis=1))))


def flow_by_action(path, eta, step=2e-4, count=25):
    """Deform a cotangent path by the action flow of a time-dependent 1-form.

    eta components are expressions in t and x with eta(0,.) = eta(1,.) = 0.
    Each explicit Euler step moves the base by #b and the covector by the
    matching contravariant rate u = db/dt - coupling(b, a), where
    b(t) = eta(t, gamma(t)). The base endpoints carry zero field, so they
    never move; the result stays in the homotopy class of the input.
    A non-finite eta at the ends, a non-finite flowed path or a flowed
    defect above the configured flow_defect_tol raises NumericalError.
    """
    S = path.structure
    n = S.dim
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
    require_finite(ends, "eta is not finite at t = 0 or t = 1")
    require_within(np.max(np.abs(ends)), 1e-12, "eta must vanish at t = 0 and t = 1")

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
    require_finite((gamma, a), "action flow produced non-finite values")
    flowed = CotangentPath(S, t, gamma, a)
    defect_tol = get_default("flow_defect_tol")
    require_within(flowed.defect, defect_tol, f"flow defect {flowed.defect:.3e} exceeds "
                   f"{defect_tol:.1e}; reduce the step size", NumericalError)
    return flowed
