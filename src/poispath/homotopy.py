"""Families of cotangent paths and the variation machinery on top of them.

A family is given by a generator: covector components alpha_i(eps, t, x)
pulled back along the solved base slices, gamma(eps, 0) = x0(eps). Solving
the family fills uniform grids in t and eps with base points and covector
samples. On top of that live

  * the variation field b of the homotopy equation
        db_i/dt = da_i/deps + (d_i Pi^(jk)) a_j b_k,   b(eps, 0) = 0,
    whose endpoint curve b(eps, 1) decides membership in a homotopy class.
    A family keeps one field per (eps grid, coupling sign): over the
    coarse grid its RK4 knots on t[::2] (t = 1 is a knot, so the endpoint
    curve is the last knot, and only invariance_report reads b between
    knots, a cubic Hermite through the knots with slopes from the equation
    itself), over the fine grid only its endpoint curve, which is all that
    the resolution check reads.
    The first request solves the pinned coarse, pinned fine and flipped
    coarse fields (and the requested one) in one RK4 pass over all their
    slices (the base solve and this pass both step through paths.rk4_step),
    on the fine base only, since the coarse slices are the even fine ones;
    a field still missing later is solved alone. The contraction adds its
    terms in coupling_many's einsum order, so a field's bits do not depend
    on the batch it was solved in;
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

Memory: four arrays span the whole family: gamma over the fine slices, a
over the coarse ones, the coarse fields' knots and the fine fields' endpoint
curves. The variation batch evaluates a at the odd fine slices' points one
block of t nodes at a time, forms E = (d_i Pi^(jk)) a_j with one fused
kernel, and takes each grid's da/deps per block too; invariance_report
evaluates X, L_X Pi, da/deps, the midpoints of b and the densities one
slice at a time; each writes into buffers allocated once per call. Every
row of the paths stencil is elementwise, so da/deps taken per block or per
slice has the bits of the whole family's. Both RK4 loops write the four
stage values of each step into rotating buffers. The base solve's stage
kernel (_sharp_exprs) folds the signs out of each term Pi^(jk) alpha_j, so
a negated term is subtracted, and keeps a structurally zero term only where
it carries a non-finite alpha_j to gamma; gamma has the bits of sharp_many.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError, require_finite, require_within
from .paths import (CotangentPath, derivative_row, differentiate_samples, even_intervals,
                    hermite, rk4_step)
# bound only for perfbench's tracer, which wraps path_defect under this module
from .paths import path_defect  # noqa: F401
from .quadrature import simpson

_TIME = "t"
_EPS = "eps"

# time steps per factor block: the t nodes of one coupling-factor call of
# the variation solve, and the stage times of the hoisted generator terms of
# the base solve; even, so that each two-cell RK4 step of the variation solve
# lies inside one block. 16 keeps the factor buffer (about 0.7 MB for su2's
# 27-slot coupling kernel on the default grid) small against the family's
# arrays
_DPI_BLOCK = 16

# factor blocks per covector block, over which a variation batch evaluates
# the fine covectors and takes da/deps: their cost is mostly per call, and
# a larger block holds more (4 raised the traced op peak by 0.6 MiB)
_COVECTOR_BLOCKS = 2

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
    the resolution check needs; gamma is a view of its even slices, which is
    exact because linspace(lo, hi, 2M - 1)[::2] equals linspace(lo, hi, M)
    and the RK4 rows do not depend on each other. The covectors a are held
    over the coarse slices only; a variation batch evaluates a over the
    fine ones, and takes da/deps on both grids, block by block. Solved
    arrays and variation fields (coarse knots on t[::2], fine endpoint
    curves) are cached and read-only.
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
        self._gamma_f = None   # gamma over eps_fine
        self._fields = {}      # (fine, sign) -> variation field
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
        eps slices; returns gamma, (M, N + 1, n).

        The state is component-major, (n, M) for M slices. The generator's
        subtrees that read no coordinate are evaluated once per block of
        _DPI_BLOCK steps, over the stage times t_i, t_i + h/2, t_i + h and
        all slices, into one buffer per solve, and split into per-stage
        argument lists. Each RK4 stage then runs one CSE-compiled kernel
        (_sharp_exprs), which shares subtrees between the rest of the
        generator and Pi, so gamma has the bits of the unstaged route. The
        kernel writes its rows into the next of four rotating buffers, taken
        in call order, as rk4_step holds four stage values until its step
        ends."""
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
        # the free terms' points of a whole block, times stage-major, then
        # step, then slice; a shorter last block takes a prefix of each
        free_fn = self._free_fn
        points = 3 * min(_DPI_BLOCK, N) * M
        if free_fn is not None:
            free_rows, t_at, eps_at = (np.empty((free_fn.slots, points)), np.empty(points),
                                       np.tile(eps, points // M))
        # a diverging base overflows; the check below raises on it
        with np.errstate(all="ignore"):
            for lo in range(0, N, _DPI_BLOCK):
                ti = t[lo:min(lo + _DPI_BLOCK, N)]
                times = np.stack([ti, ti + 0.5 * h, ti + h])
                free = np.empty((0, *times.shape, M))
                if free_fn is not None:
                    m = times.size * M
                    np.copyto(t_at[:m].reshape(free.shape[1:]), times[..., None])
                    free = free_fn(np.empty((0, m)), t_at[:m], eps_at[:m],
                                   rows=free_rows[:, :m]).reshape(-1, *free.shape[1:])
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
        return gamma

    def solve(self):
        if self.gamma is None:
            gamma_f = _frozen(self._solve_on(self.eps_fine))
            # a view of a read-only array is read-only
            self._gamma_f, self.gamma = gamma_f, gamma_f[::2]
            # a = alpha(eps, t, gamma), one evaluation per slice with its
            # eps as a scalar
            a = np.empty_like(self.gamma)
            for m, eps in enumerate(self.eps):
                a[m] = self._gen_fn(self.gamma[m].T, self.t, eps).T
            self.a = _frozen(a)
        return self

    def slice_path(self, m):
        """The m-th eps slice as a standalone cotangent path."""
        self.solve()
        return CotangentPath(self.structure, self.t.copy(), self.gamma[m].copy(),
                             self.a[m].copy())

    def variation_field(self, sign, fine=False):
        """Variation field b with coupling sign +1 (pinned) or -1 (flipped,
        the transport field), solved once per (grid, sign) and read-only.
        Over the coarse eps grid it is b's RK4 knots on t[::2], an (M, N/2 +
        1, n) array; over the fine grid only its endpoint curve b(eps_fine,
        1), a (2M - 1, n) array, which is all that the resolution check
        reads.

        The first request solves, in one pass of _variation_fields, the
        requested field and those of _FIRST_BATCH (the three that
        `poispath variation --X` reads). A field that is still missing
        later is solved alone. A batched field with non-finite values is
        not kept, so only a request for it raises NumericalError."""
        key = (bool(fine), float(sign))
        if key not in self._fields:
            self.solve()
            keys = [key] if self._fields else list(dict.fromkeys((key,) + _FIRST_BATCH))
            for k, b in _variation_fields(self, keys).items():
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
    resolution_change: float
    grid_coarse: bool


def _factor_exprs(structure):
    """E^(jk)_i = (d_i Pi^(jk)) a_j for j, k, i in lexicographic order, the
    first product that coupling_many's einsum forms, as expressions in the
    coordinates x1..xn and the covector a_j = x(n + j).

    Each is one product of a_j and the entry gradient that dpi_many fills:
    an upper entry's partial, a Neg of it for the lower partner (as _fill
    negates) and 0.0 on the diagonal and for absent entries. Nodes are built
    without folding, so every value has the bits of dpi_many's times a_j."""
    n = structure.dim
    grads = {p: [expr.differentiate(e, i) for i in range(1, n + 1)]
             for p, e in structure.upper_entries()}
    out = []
    for j, k, i in itertools.product(range(1, n + 1), range(1, n + 1), range(n)):
        if (j, k) in grads:
            g = grads[(j, k)][i]
        elif (k, j) in grads:
            g = expr.Neg(grads[(k, j)][i])
        else:
            g = expr.Num(0.0)
        out.append(expr.Mul(g, expr.Var(n + j)))
    return out


def _coupling_kernel(structure):
    return structure.evaluator("coupling factor", lambda: _factor_exprs(structure))


def _block_factors(kernel, gamma, a, rows, cells):
    """E = (d_i Pi^(jk)) a_j (see _factor_exprs) at one block of t nodes
    and the fine eps slices rows: one (n, n, n, R) view per node, [j, k, i,
    r] at slice rows[r], for R rows. gamma and a are the block's points and
    covectors over every fine slice, node-major, (n, nodes, slices).

    The points and covectors are gathered into the first 2n rows of cells,
    a flat buffer of at least (2n + kernel.slots) * nodes * R floats, and
    the kernel writes its rows into the rest of it, so a caller that passes
    one buffer for every block allocates nothing per block."""
    (n, nodes, _), R = gamma.shape, len(rows)
    m = nodes * R
    x = cells[:2 * n * m].reshape(2 * n, nodes, R)
    # rows are in range; mode "clip" writes into out, where "raise" buffers
    for values, out in ((gamma, x[:n]), (a, x[n:])):
        np.take(values, rows, axis=2, out=out, mode="clip")
    E = kernel(x.reshape(2 * n, m),
               rows=cells[2 * n * m:(2 * n + kernel.slots) * m].reshape(-1, m))
    return list(np.moveaxis(E.reshape(n, n, n, nodes, R), 3, 0))


def _coupling(E, b, buf, out):
    """(d_i Pi^(jk)) a_j b_k per row, written to out (n, R), from one node's
    E (see _block_factors) and the component-major state b (n, R).

    The (j, k) terms (D a) b are added from a +0.0 accumulator in
    lexicographic order, which is how coupling_many's einsum adds them, so
    the bits are the same. buf is (n, n, n, R) scratch: its (j, k) axis is
    the outermost, and numpy reduces an outer axis term by term (an inner
    one it would sum pairwise)."""
    np.multiply(E, b[None, :, None, :], out=buf)
    return np.add.reduce(buf.reshape(-1, *b.shape), axis=0, initial=0.0, out=out)


def _variation_fields(family, parts):
    """Variation fields of a solved family for several (fine, sign) parts in
    one RK4 pass: RK4 for db/dt = da/deps + sign (d_i Pi^(jk)) a_j b_k over
    the eps slices of all parts, one paths.rk4_step of size 2h per two grid
    cells, so that the step's half points are stored nodes.

    Returns {part: field}: a coarse part's knots on t[::2], an (M, N/2 + 1,
    n) view, a fine part's endpoint curve b(eps_fine, 1), (2M - 1, n), and
    None where the values are not finite. Every row has the bits of a
    separate solve with coupling_many.

    Only the family's fine gamma and coarse a, and the coarse knots, span
    the whole family. The state is component-major, (n, R). Per covector
    block of _COVECTOR_BLOCKS * _DPI_BLOCK time steps:
      * a over the fine slices: the even ones are the family's a, the odd
        ones are evaluated at their points by the family's generator
        evaluator with eps per point (elementwise, so the floats of
        PathFamily's slice-by-slice evaluation);
      * each grid's da/deps, once, by the stencil over the block's t nodes
        (its rows are elementwise, so they have the bits of the whole
        grid's).
    Per factor block of _DPI_BLOCK steps, one kernel call forms
    E = (d_i Pi^(jk)) a_j at the rows' gathered points (_block_factors).
    All of it goes into buffers allocated once per batch. Each stage is one
    _coupling call, scaled by the sign and added to da/deps in the next of
    four rotating buffers (see PathFamily._solve_on).

    Non-finite values are left to the end: a diverging part must not stop
    the others, or warn while they are solved. A fine part is checked at its
    endpoint only, which loses nothing. _coupling adds every (j, k) term,
    the zero factors included, so a non-finite E, da/deps or state entry
    makes every component of that row's next stage non-finite (0 * inf is
    NaN), and RK4 only scales and adds, so it reaches t = 1.
    """
    t, gamma_f, eps_f = family.t, family._gamma_f, family.eps_fine
    n, N, M, S = gamma_f.shape[2], len(t) - 1, len(family.eps), len(eps_f)
    h = t[1] - t[0]
    parts = sorted(parts, key=lambda part: part[0])     # coarse parts first
    grids = {fine for fine, _ in parts}
    steps = {False: family.eps[1] - family.eps[0], True: eps_f[1] - eps_f[0]}
    slices = np.arange(S)
    rows = np.concatenate([slices if fine else slices[::2] for fine, _ in parts])
    sign = np.concatenate([np.full(S if fine else M, s) for fine, s in parts])
    coarse = M * sum(not fine for fine, _ in parts)
    knots = np.empty((coarse, N // 2 + 1, n))
    knots[:, 0] = 0.0
    cur = np.zeros((n, rows.size))
    buf = np.empty((n, n, n, rows.size))
    buffers = itertools.cycle(np.empty((4, n, rows.size)))
    kernel, gen = _coupling_kernel(family.structure), family._gen_fn
    # a covector block's points on the M - 1 odd fine slices, node-major,
    # with their t and eps, and a over all its fine slices; a shorter last
    # block takes a prefix of each
    nodes = min(_COVECTOR_BLOCKS * _DPI_BLOCK, N) + 1
    odd = (M - 1) * nodes
    points, t_at, eps_at = np.empty((n, odd)), np.empty(odd), np.tile(eps_f[1::2], nodes)
    a_rows, a_block = np.empty((gen.slots, odd)), np.empty((n, nodes, S))
    d_eps = np.empty((nodes, n, rows.size))
    cells = np.empty((2 * n + kernel.slots) * (min(_DPI_BLOCK, N) + 1) * rows.size)
    with np.errstate(all="ignore"):
        for lo in range(0, N, _COVECTOR_BLOCKS * _DPI_BLOCK):
            hi = min(lo + _COVECTOR_BLOCKS * _DPI_BLOCK, N)
            span = slice(lo, hi + 1)
            m = (hi + 1 - lo) * (M - 1)
            np.copyto(points[:, :m].reshape(n, -1, M - 1), gamma_f[1::2, span].transpose(2, 1, 0))
            np.copyto(t_at[:m].reshape(-1, M - 1), t[span, None])
            a = a_block[:, :hi + 1 - lo]
            a[:, :, ::2] = family.a[:, span].transpose(2, 1, 0)
            a[:, :, 1::2] = gen(points[:, :m], t_at[:m], eps_at[:m],
                                rows=a_rows[:, :m]).reshape(n, -1, M - 1)
            pieces = {fine: differentiate_samples(
                a.transpose(2, 1, 0) if fine else family.a[:, span], steps[fine])
                for fine in grids}
            F = np.concatenate([pieces[fine].transpose(1, 2, 0) for fine, _ in parts], axis=2,
                               out=d_eps[:hi + 1 - lo])
            for start in range(lo, hi, _DPI_BLOCK):
                stop = min(start + _DPI_BLOCK, hi)
                E = _block_factors(kernel, gamma_f[:, start:stop + 1].transpose(2, 1, 0),
                                   a[:, start - lo:stop + 1 - lo], rows, cells)

                def rhs(j, b):
                    k = _coupling(E[i + j - start], b, buf, next(buffers))
                    np.multiply(sign, k, out=k)
                    return np.add(F[i + j - lo], k, out=k)

                for i in range(start, stop, 2):
                    cur = rk4_step(rhs, cur, 2.0 * h)
                    knots[:, i // 2 + 1] = cur[:, :coarse].T
    fields, first = {}, 0
    for fine, s in parts:
        size = S if fine else M
        b = cur[:, first:first + size].T.copy() if fine else knots[first:first + size]
        fields[(fine, s)] = b if np.all(np.isfinite(b)) else None
        first += size
    return fields


_ORDER_SIGNS = {"pinned": 1.0, "flipped": -1.0}


def solve_variation(family, order="pinned", check_resolution=True):
    """Variation field of a solved family.

    order "pinned" is the convention fixed by the group-path test; "flipped"
    exists for the sign-discrimination check and equals the transport field.
    With check_resolution the endpoint curve is compared with the one over
    the family's fine grid (eps step halved) on shared nodes; a change above
    10% flags the grid as coarse. The returned field b is the family's cached,
    read-only array of knots on t[::2]; of the fine field, only its endpoint
    curve is solved.
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
        delta = float(np.max(np.abs(b_f[::2] - var)))
        floor = 1e-8 * max(1.0, float(np.max(np.abs(family.a))))
        scale = max(float(np.max(np.abs(b_f))), floor)
        change = delta / scale
        coarse_flag = not change <= 0.10
    return VariationResult(eps=family.eps, t=family.t[::2], b=b, var=var,
                           max_variation=max_var, resolution_change=change,
                           grid_coarse=coarse_flag)


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

    X, L_X Pi, da/deps at the knots (paths.derivative_row), the knot slopes, b
    between the knots and the density are taken one slice at a time; X,
    L_X Pi and b go through buffers allocated once per call. Of what the
    report makes, only the (M, nodes) line and bulk integrands and X at
    t = 1, (n, M), span the whole family.
    """
    S = family.structure
    X = expr.components(field, S.dim, params=S.params, what="vector field")
    knots = family.variation_field(-1.0)
    X_fn = expr.compile_exprs_vec(X, params=S.params)
    lx_fn = expr.compile_exprs_vec(_lie_derivative_upper(S, X), params=S.params)

    M, nodes, n = family.gamma.shape
    # X, L_X Pi and b over all slices would raise the peak memory by
    # megabytes. X stays component-major, as its evaluator writes it, so
    # that each einsum reads its operands in the stride order of a
    # whole-family evaluation and keeps its bits (with a contiguous (M, n)
    # X at t = 1, endpoint_term moved in its last bits on 9 of the 50
    # perfbench homotopy inputs of seeds 1-5)
    X_rows, lx_rows = np.empty((X_fn.slots, nodes)), np.empty((lx_fn.slots, nodes))
    X_end = np.empty((n, M))
    b = np.empty((nodes, n))
    line, density = np.empty((M, nodes)), np.zeros((M, nodes))
    step, d_eps = family.t[2] - family.t[0], family.eps[1] - family.eps[0]
    for m, (g, a) in enumerate(zip(family.gamma, family.a)):
        X_vals = X_fn(g.T, rows=X_rows).T
        require_finite(X_vals, "vector field X is not finite along the family")
        np.einsum("ti,ti->t", a, X_vals, out=line[m])
        X_end[:, m] = X_vals[-1]
        lx = lx_fn(g.T, rows=lx_rows)
        # b between the knots: db/dt at the knots from the transport
        # field's own equation
        slope = derivative_row(family.a[:, ::2], m, d_eps) - S.coupling_many(
            g[::2], a[::2], knots[m])
        c0, c1, c2, c3 = hermite(knots[m], step * slope)
        b[::2], b[1::2] = knots[m], c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))
        for col, (j, k) in enumerate(itertools.combinations(range(n), 2)):
            density[m] += lx[col] * (a[:, j] * b[:, k] - a[:, k] * b[:, j])
    line = simpson(line, family.t, axis=1)
    lhs = float(line[-1] - line[0])
    endpoint = float(simpson(np.einsum("mi,mi->m", knots[:, -1], X_end.T), family.eps))
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
