"""Families of cotangent paths and the variation machinery on top of them.

A family is given by a generator: covector components alpha_i(eps, t, x)
pulled back along the solved base slices, gamma(eps, 0) = x0(eps). Solving
the family fills a uniform (eps, t) grid with base points. On top of that live

  * the variation field b of the homotopy equation
        db_i/dt = da_i/deps + (d_i Pi^(jk)) a_j b_k,   b(eps, 0) = 0,
    whose endpoint curve b(eps, 1) decides membership in a homotopy class.
    A family keeps one endpoint curve per (eps grid, coupling sign), and
    the RK4 knots on t[::2] of the coarse flipped field only: t = 1 is a
    knot, and invariance_report, the only reader of b before t = 1, reads
    that field, between its knots through a cubic Hermite with slopes from
    the derivative stencil over the knots. solve() runs the base solve and
    the pinned coarse, pinned fine and flipped coarse fields in one
    streamed pass over blocks of t steps (both RK4 loops step through
    paths.rk4_step), on the fine base only, since the coarse slices are the
    even fine ones; a field still missing later (the fine flipped one)
    re-streams the base in a pass of its own. The contraction adds its
    terms in coupling_many's einsum order, so a field's bits do not depend
    on the pass it was solved in;
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

Memory: three arrays span the whole family: gamma over the coarse slices,
the coarse flipped field's knots and the endpoint curves. The pass holds
the fine base only for one covector block of t steps at a time, in a ring,
and copies its even slices into gamma; per block it evaluates a on every
fine slice, takes each grid's da/deps and forms E = (d_i Pi^(jk)) a_j with
one fused kernel per factor block, and keeps only max|a| over the coarse
slices. a over a coarse slice is evaluated again wherever it is read
(PathFamily.covectors), with the same bits. invariance_report takes X,
L_X Pi, a, the midpoints of b and the integrals over t one slice at a
time, into buffers allocated once per call, and no da/deps. Every row of
the paths stencil is elementwise, so da/deps taken per block has the bits
of the whole family's. Both RK4 loops write the four stage values of
each step into rotating buffers. The base solve's stage kernel
(_sharp_exprs) folds the signs out of each term Pi^(jk) alpha_j, so a
negated term is subtracted, and keeps a structurally zero term only where
it carries a non-finite alpha_j to gamma; gamma has the bits of
sharp_many.
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

# time steps per factor block: the t nodes of one coupling-factor call of
# the variation solve, and the stage times of the hoisted generator terms of
# the base solve; even, so that each two-cell RK4 step of the variation solve
# lies inside one block. The factor cells size the pass's one scratch
# buffer (see _stream): about 0.39 MB for su2's 27-slot coupling kernel on
# the default grid at 8, 0.73 MB at 16, against the family's 1.45 MB of
# arrays
_DPI_BLOCK = 8

# factor blocks per covector block: the t steps of the base ring and of one
# evaluation of the fine covectors and of each grid's da/deps, whose cost is
# mostly per call; a larger block holds more
_COVECTOR_BLOCKS = 4

# (fine, sign) of the variation fields that solve() solves in its pass:
# pinned coarse, pinned fine and flipped coarse, the fields that
# `poispath variation --X` reads
_FIRST_BATCH = ((False, 1.0), (True, 1.0), (False, -1.0))

# the one field kept on its knots: the coarse transport field, which
# invariance_report reads between t = 0 and t = 1
_KNOTTED = (False, -1.0)


def _frozen(array):
    array.setflags(write=False)
    return array


def _solved(field):
    if field is None:
        raise NumericalError("variation equation produced non-finite values")
    return field


class PathFamily:
    """Generator-defined family over a uniform (eps, t) grid.

    Arbitrary sample-level families are rejected by construction: without a
    generator there is no way to keep the slices honest cotangent paths.

    solve() streams the base over the fine grid eps_fine of 2M - 1 slices
    that the resolution check needs, block by block, and keeps gamma, its
    even slices, which is exact because linspace(lo, hi, 2M - 1)[::2] equals
    linspace(lo, hi, M) and the RK4 rows do not depend on each other. The
    same pass solves the variation fields of _FIRST_BATCH (see _stream).
    The covectors a are not kept: covectors(m) evaluates them over a coarse
    slice. gamma, the endpoint curves and the transport knots are cached and
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
        self.covector_max = None   # max |a| over the coarse slices
        self._knots = None         # the _KNOTTED field on t[::2]
        self._fields = {}          # (fine, sign) -> endpoint curve, None if not finite
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

    def _base_blocks(self, scratch=None):
        """Vectorized RK4 (paths.rk4_step) of gamma' = #alpha over the eps_fine
        slices, streamed: per block of _COVECTOR_BLOCKS * _DPI_BLOCK steps
        (the last one may be shorter), yields (lo, nodes), where nodes holds
        the block's t nodes lo..hi over every fine slice, an (n, hi + 1 - lo,
        2M - 1) view of a ring that the next block overwrites; its node 0 is
        the last node of the block before (the start points in the first).
        A block with non-finite values raises NumericalError.

        The state is component-major, (n, S) for S slices. The generator's
        subtrees that read no coordinate are evaluated once per _DPI_BLOCK
        steps, over the stage times t_i, t_i + h/2, t_i + h and all slices,
        into the front of scratch (a flat buffer, a new one when None), and
        split into per-stage argument lists. Each RK4 stage then runs one
        CSE-compiled kernel (_sharp_exprs), which shares subtrees between the
        rest of the generator and Pi, so gamma has the bits of the unstaged
        route. The kernel writes its rows into the next of four rotating
        buffers, taken in call order, as rk4_step holds four stage values
        until its step ends."""
        eps, n, N = self.eps_fine, self.structure.dim, self.t_intervals
        t, h, S = self.t, 1.0 / N, len(eps)
        state = self.start_points(eps).T
        require_finite(state, f"start point ({', '.join(map(str, self.x0_exprs))}) is not "
                       "finite over the eps range", ValidationError)
        ring = np.empty((n, min(_COVECTOR_BLOCKS * _DPI_BLOCK, N) + 1, S))
        ring[:, -1] = state
        stage = self._stage_fn
        # each buffer is split into its rows once: the kernel writes them,
        # and rhs returns the first n of them as one array
        buffers = itertools.cycle([(b[:n], tuple(b)) for b in np.empty((4, stage.slots, S))])
        # the free terms' points of a factor block, times stage-major, then
        # step, then slice; a shorter last block takes a prefix of each
        free_fn, B = self._free_fn, ring.shape[1] - 1
        points = 3 * min(_DPI_BLOCK, N) * S
        if free_fn is not None:
            size = free_fn.slots * points
            free_rows = (np.empty(size) if scratch is None else scratch[:size]).reshape(-1, points)
            t_at, eps_at = np.empty(points), np.tile(eps, points // S)
        for lo in range(0, N, B):
            hi = min(lo + B, N)
            ring[:, 0] = ring[:, -1]
            # a diverging base overflows; the check below raises on it
            with np.errstate(all="ignore"):
                for start in range(lo, hi, _DPI_BLOCK):
                    ti = t[start:min(start + _DPI_BLOCK, hi)]
                    times = np.stack([ti, ti + 0.5 * h, ti + h])
                    free = np.empty((0, *times.shape, S))
                    if free_fn is not None:
                        m = times.size * S
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
                        ring[:, start - lo + r + 1] = state
            nodes = ring[:, :hi + 1 - lo]
            require_finite(nodes, "family base integration produced non-finite values")
            yield lo, nodes

    def solve(self):
        """Solve the base and the fields of _FIRST_BATCH in one streamed
        pass (_stream), once."""
        if self.gamma is None:
            gamma = np.empty((len(self.eps), self.t_intervals + 1, self.structure.dim))
            fields, self.covector_max = _stream(self, _FIRST_BATCH, gamma)
            self._keep(fields)
            self.gamma = _frozen(gamma)
        return self

    def _keep(self, fields):
        for key, b in fields.items():
            if key == _KNOTTED and b is not None:
                self._knots, b = _frozen(b), b[:, -1]
            self._fields[key] = None if b is None else _frozen(b)

    def covectors(self, m):
        """a = alpha(eps, t, gamma) over the m-th coarse slice, (N + 1, n),
        evaluated anew on each call, with its eps as a scalar; the pass
        evaluates a with eps per point, which has the same bits."""
        if self.gamma is None:
            self.solve()
        return self._gen_fn(self.gamma[m].T, self.t, self.eps[m]).T.copy()

    def slice_path(self, m):
        """The m-th eps slice as a standalone cotangent path."""
        self.solve()
        return CotangentPath(self.structure, self.t.copy(), self.gamma[m].copy(),
                             self.covectors(m))

    def variation_field(self, sign, fine=False):
        """Endpoint curve b(eps, 1) of the variation field with coupling sign
        +1 (pinned) or -1 (flipped, the transport field): over the coarse eps
        grid an (M, n) array, over the fine one a (2M - 1, n) array, which is
        all that the resolution check reads. Solved once per (grid, sign) and
        read-only.

        solve() solves the three fields of _FIRST_BATCH, which `poispath
        variation --X` reads. Any other (today only the fine flipped field,
        which `variation --order flipped` reads) is solved alone, by a pass
        that streams the base again. A field with non-finite values is not
        kept, and a request for it raises NumericalError."""
        key = (bool(fine), float(sign))
        if key not in self._fields:
            self.solve()
            if key not in self._fields:
                self._keep(_stream(self, [key])[0])
        return _solved(self._fields[key])

    def transport_knots(self):
        """The coarse flipped (transport) field on its RK4 knots t[::2], an
        (M, N/2 + 1, n) array with b[:, 0] = 0 and the endpoint curve as its
        last knot; solved by solve(), read-only."""
        if self.gamma is None:
            self.solve()
        return _solved(self._knots)


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
    """The endpoint curve of a variation field and its resolution check."""
    eps: np.ndarray
    var: np.ndarray          # (M, n) endpoint curve b(eps, 1)
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


def _stream(family, parts, gamma=None):
    """One streamed pass over the blocks of family._base_blocks: the
    variation fields of several (fine, sign) parts, by RK4 for db/dt =
    da/deps + sign (d_i Pi^(jk)) a_j b_k over the eps slices of all parts,
    one paths.rk4_step of size 2h per two grid cells, so that the step's half
    points are stored nodes. With gamma, an (M, N + 1, n) array, the pass
    copies the base's even slices into it.

    Returns (fields, a_max). fields maps each part to its endpoint curve
    b(eps, 1), (M, n) or (2M - 1, n), the _KNOTTED part to its knots on
    t[::2], (M, N/2 + 1, n), and a part with non-finite values to None.
    Every row has the bits of a separate solve with coupling_many. a_max is
    max |a| over the coarse slices, taken by np.maximum, so a NaN stays.

    Of the base, only one block of t nodes is held, in the ring of
    _base_blocks. The state is component-major, (n, R). Per covector block
    of _COVECTOR_BLOCKS * _DPI_BLOCK time steps:
      * a over every fine slice, by the family's generator evaluator with t
        and eps per point (elementwise, so the floats of
        PathFamily.covectors);
      * each grid's da/deps, once, by the stencil over the block's t nodes
        (its rows are elementwise, so they have the bits of the whole
        grid's).
    Per factor block of _DPI_BLOCK steps, one kernel call forms
    E = (d_i Pi^(jk)) a_j at the rows' gathered points (_block_factors).
    The base's free-term rows, the covector rows and the factor cells are
    never live at once, and share one scratch buffer; everything goes into
    buffers allocated once per pass. Each stage is one _coupling call,
    scaled by the sign and added to da/deps in the next of four rotating
    buffers (see PathFamily._base_blocks).

    Non-finite values are left to the end: a diverging part must not stop
    the others, or warn while they are solved. An endpoint curve is checked
    alone, which loses nothing. _coupling adds every (j, k) term, the zero
    factors included, so a non-finite E, da/deps or state entry makes every
    component of that row's next stage non-finite (0 * inf is NaN), and RK4
    only scales and adds, so it reaches t = 1.
    """
    t, eps_f = family.t, family.eps_fine
    n, N, M, S = family.structure.dim, len(t) - 1, len(family.eps), len(eps_f)
    h = t[1] - t[0]
    grids = {fine for fine, _ in parts}
    steps = {False: family.eps[1] - family.eps[0], True: eps_f[1] - eps_f[0]}
    slices = np.arange(S)
    rows = np.concatenate([slices if fine else slices[::2] for fine, _ in parts])
    sign = np.concatenate([np.full(S if fine else M, s) for fine, s in parts])
    # each part's columns of the state
    sizes = [S if fine else M for fine, _ in parts]
    cols = {part: slice(end - size, end)
            for part, size, end in zip(parts, sizes, np.cumsum(sizes))}
    knots = None
    if _KNOTTED in cols:
        knots = np.empty((M, N // 2 + 1, n))
        knots[:, 0] = 0.0
    cur = np.zeros((n, rows.size))
    buf = np.empty((n, n, n, rows.size))
    buffers = itertools.cycle(np.empty((4, n, rows.size)))
    kernel, gen, free_fn = _coupling_kernel(family.structure), family._gen_fn, family._free_fn
    # t and eps at a covector block's points, node-major, and a over them;
    # a shorter last block takes a prefix of each
    nodes_max = min(_COVECTOR_BLOCKS * _DPI_BLOCK, N) + 1
    t_at, eps_at = np.empty(nodes_max * S), np.tile(eps_f, nodes_max)
    a_block = np.empty((n, nodes_max, S))
    d_eps = np.empty((nodes_max, n, rows.size))
    scratch = np.empty(max(0 if free_fn is None else free_fn.slots * 3 * min(_DPI_BLOCK, N) * S,
                           gen.slots * nodes_max * S,
                           (2 * n + kernel.slots) * (min(_DPI_BLOCK, N) + 1) * rows.size))
    a_max = 0.0
    for lo, nodes in family._base_blocks(scratch):
        span = nodes.shape[1]
        hi, m = lo + span - 1, span * S
        with np.errstate(all="ignore"):
            if gamma is not None:
                gamma[:, lo:hi + 1] = nodes[:, :, ::2].transpose(2, 1, 0)
            np.copyto(t_at[:m].reshape(span, S), t[lo:hi + 1, None])
            a = a_block[:, :span]
            np.copyto(a, gen(nodes.reshape(n, m), t_at[:m], eps_at[:m],
                             rows=scratch[:gen.slots * m].reshape(-1, m)).reshape(a.shape))
            by_slice = a.transpose(2, 1, 0)
            a_max = np.maximum(a_max, np.max(np.abs(by_slice[::2])))
            pieces = {fine: differentiate_samples(by_slice if fine else by_slice[::2], steps[fine])
                      for fine in grids}
            F = np.concatenate([pieces[fine].transpose(1, 2, 0) for fine, _ in parts], axis=2,
                               out=d_eps[:span])
            for start in range(lo, hi, _DPI_BLOCK):
                stop = min(start + _DPI_BLOCK, hi)
                E = _block_factors(kernel, nodes[:, start - lo:stop + 1 - lo],
                                   a[:, start - lo:stop + 1 - lo], rows, scratch)

                def rhs(j, b):
                    k = _coupling(E[i + j - start], b, buf, next(buffers))
                    np.multiply(sign, k, out=k)
                    return np.add(F[i + j - lo], k, out=k)

                for i in range(start, stop, 2):
                    cur = rk4_step(rhs, cur, 2.0 * h)
                    if knots is not None:
                        knots[:, i // 2 + 1] = cur[:, cols[_KNOTTED]].T
    fields = {}
    for part in parts:
        b = knots if part == _KNOTTED else cur[:, cols[part]].T.copy()
        fields[part] = b if np.all(np.isfinite(b)) else None
    return fields, a_max


_ORDER_SIGNS = {"pinned": 1.0, "flipped": -1.0}


def solve_variation(family, order="pinned", check_resolution=True):
    """Variation endpoint curve of a solved family.

    order "pinned" is the convention fixed by the group-path test; "flipped"
    exists for the sign-discrimination check and equals the transport field.
    With check_resolution the endpoint curve is compared with the one over
    the family's fine grid (eps step halved) on shared nodes; a change above
    10% flags the grid as coarse. Of the fine field, only its endpoint curve
    is solved; the flipped one is not in the family's first pass, so its
    check streams the base again (see PathFamily.variation_field).
    """
    if order not in _ORDER_SIGNS:
        raise ValidationError(f"order must be 'pinned' or 'flipped', got {order!r}")
    sign = _ORDER_SIGNS[order]
    var = family.variation_field(sign).copy()
    max_var = float(np.max(np.linalg.norm(var, axis=1)))

    change = 0.0
    coarse_flag = False
    if check_resolution:
        b_f = family.variation_field(sign, fine=True)
        delta = float(np.max(np.abs(b_f[::2] - var)))
        floor = 1e-8 * max(1.0, float(family.covector_max))
        scale = max(float(np.max(np.abs(b_f))), floor)
        change = delta / scale
        coarse_flag = not change <= 0.10
    return VariationResult(eps=family.eps, var=var, max_variation=max_var,
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
    through two knots (paths.hermite), with the knot slopes from the
    derivative stencil over the knots. The stencil reads seven knots, so the
    family needs at least 12 t intervals, the floor of paths.sampling_error;
    fewer raise ValidationError. The variation field starts at b(eps, 0) =
    0, which is the true one only when the start point does not move with
    eps: for such a family the residual reports the quadrature and
    interpolation error only. Where the start point moves, the identity
    also has the start point's term, which this report leaves out, and the
    residual carries it (in the test suite, 4.75e-3 where x2 starts at 0.1
    cos(eps), against 1.5e-11 or less where the start is fixed).
    Non-finite field values or L_X Pi densities raise NumericalError.

    The report streams the coarse slices: X, L_X Pi, a
    (PathFamily.covectors, read once per slice), b between the knots, the
    density and its integral over t are taken one slice at a time. The line
    integrand is formed on the first and last slices only, the two that lhs
    reads. X, L_X Pi, b and the density go through buffers allocated once
    per call. Of what the report makes, only the integrals over t and the
    density peaks, (M,), and X at t = 1, (n, M), span the whole family.
    """
    S = family.structure
    X = expr.components(field, S.dim, params=S.params, what="vector field")
    if family.t_intervals < 12:
        raise ValidationError(f"the invariance report needs at least 12 t intervals, got "
                              f"{family.t_intervals}")
    knots = family.transport_knots()
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
    b, density = np.empty((nodes, n)), np.empty(nodes)
    line, inner, peak = {}, np.empty(M), np.empty(M)
    for m, g in enumerate(family.gamma):
        a = family.covectors(m)
        X_vals = X_fn(g.T, rows=X_rows).T
        require_finite(X_vals, "vector field X is not finite along the family")
        if m in (0, M - 1):
            line[m] = simpson(np.einsum("ti,ti->t", a, X_vals), family.t)
        X_end[:, m] = X_vals[-1]
        lx = lx_fn(g.T, rows=lx_rows)
        c0, c1, c2, c3 = hermite(knots[m])
        b[::2], b[1::2] = knots[m], c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))
        density.fill(0.0)
        for col, (j, k) in enumerate(itertools.combinations(range(n), 2)):
            density += lx[col] * (a[:, j] * b[:, k] - a[:, k] * b[:, j])
        peak[m] = np.max(np.abs(density))
        inner[m] = simpson(density, family.t)
    lhs = float(line[M - 1] - line[0])
    endpoint = float(simpson(np.einsum("mi,mi->m", knots[:, -1], X_end.T), family.eps))
    require_finite(peak, "(L_X Pi)(a, b) density is not finite along the family")
    bulk = float(simpson(inner, family.eps))

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
