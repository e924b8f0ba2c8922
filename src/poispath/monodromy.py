"""Transverse variation lattices of sphere foliations and the numerics that
decide whether they look discrete.

Two routes produce the same invariant for a radius-tau sphere leaf:

  * quadrature of the curvature of a splitting of the anchor over the leaf
    (curvature_periods, formed pointwise on the round chart's nodes by a
    kernel cached on the structure per splitting, in blocks of theta rows
    through the thread's scratch arena, as the areas are), and
  * differentiation of the leaf symplectic area along the sphere family,
    with the tau-derivative taken under the integral (the families of
    connection, re-exported here).

Their common value generates the group of lattice periods at that leaf.
This module keeps the curvature route, the lattice reduction, the exact
foliated sphere products and the scan. A scan walks a radius range,
reduces each leaf's generator set with a real gcd (continued fractions with
a denominator budget), searches the generator's zeros between radii, and
reports one of INTEGRABLE_EVIDENCE / NON_INTEGRABLE / INCONCLUSIVE.
Verdicts are numerical evidence relative to the printed denominator bound
and tolerance, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from . import expr
from .config import get_default
# the families and leaf_form_many are re-exported: perfbench's tracer wraps
# them under this module
from .connection import (RadialSphereFamily, SigmaSphereFamily, chart_rows,  # noqa: F401
                         leaf_form_many, sphere_grid, sphere_simpson, theta_blocks)
from .errors import NumericalError, ValidationError, require_finite, require_within

VERDICT_OK = "INTEGRABLE_EVIDENCE"
VERDICT_BAD = "NON_INTEGRABLE"
VERDICT_OPEN = "INCONCLUSIVE"

# ---------------------------------------------------------------------------
# curvature of a splitting over a sphere leaf

@dataclass
class CurvatureResult:
    tau: float
    integral: float           # quadrature of <Omega, zeta> over the chart
    center_residual: float
    splitting_residual: float


def _parse_splitting(splitting, structure):
    n = structure.dim
    rows = splitting if isinstance(splitting, (list, tuple)) else ()
    if len(rows) != n or any(not isinstance(r, (list, tuple)) or len(r) != n for r in rows):
        raise ValidationError(f"splitting must be a {n}x{n} matrix of expressions")
    return [expr.components(row, n, params=structure.params) for row in rows]


def _wedge(coef, a, b, pairs=((0, 1), (0, 2), (1, 2))):
    """Sum over index pairs (j, k) of coef(j, k) (a_j b_k - a_k b_j)."""
    return reduce(expr.add, (expr.mul(coef(j, k),
                                      expr.sub(expr.mul(a[j], b[k]), expr.mul(a[k], b[j])))
                             for j, k in pairs))


def _curvature_exprs(structure, M):
    """Omega, alpha = M u and beta = M v of the splitting M as nine
    expressions in the columns x, u = x_theta, v = x_phi that _chart writes
    (the sphere kernel's Var(3k + i) layout). By the chain rule, the chart's
    mixed second derivatives cancelling,

        d_theta beta_i - d_phi alpha_i = (d_l M_ij)(u^l v^j - v^l u^j),

    summed over all l, j: the l = j terms are zero, but a non-finite partial
    of M there still makes Omega non-finite. Omega_i is minus the sum of
    that and the coupling term (d_i Pi^(jk)) alpha_j beta_k.
    """
    u, v = ([expr.Var(3 * k + i) for i in (1, 2, 3)] for k in (1, 2))
    alpha, beta = ([reduce(expr.add, map(expr.mul, row, w)) for row in M] for w in (u, v))
    omega = []
    for i in range(3):
        curl = _wedge(lambda l, j: expr.differentiate(M[i][j], l + 1), u, v,
                      product(range(3), repeat=2))
        coupling = _wedge(lambda j, k: expr.differentiate(structure.entry(j + 1, k + 1), i + 1),
                          alpha, beta)
        omega.append(expr.neg(expr.add(curl, coupling)))
    return omega + alpha + beta


def _curvature_kernel(structure, M):
    """_curvature_exprs compiled to one numpy kernel, once per structure and
    splitting: kernels are cached on the structure (PoissonStructure.evaluator),
    keyed by the splitting's expression graph (expr.dag_key)."""
    key = ("curvature", expr.dag_key([e for row in M for e in row]))
    return structure.evaluator(key, lambda: _curvature_exprs(structure, M))


def curvature_periods(structure, splitting, tau):
    """Integrate the curvature of an anchor splitting over the radius-tau
    sphere leaf.

    splitting is an n x n matrix M of expressions sending tangent vectors to
    covectors, sigma(v)_i = M_ij v^j, with #(sigma(v)) = v on leaf tangents
    (checked on the grid). In the polar chart the curvature 2-form is

        Omega = -(d_theta beta - d_phi alpha + D(alpha, beta)),

    alpha = sigma(x_theta), beta = sigma(x_phi), D the coupling term
    (d_i Pi^(jk)) alpha_j beta_k, formed pointwise on the chart nodes by
    _curvature_kernel; it must be kernel-valued (checked). Its pairing with
    the radially aligned unit kernel covector p/|p|, p = (Pi^23, Pi^31,
    Pi^12), is integrated with the same shifted-pole Simpson rule the areas
    use, on the configured area grid. The radial family's guards reject a
    structure not of dimension 3 and a radius that is not positive and
    finite (ValidationError); non-finite curvature, residuals or densities
    raise NumericalError.

    The grid is walked in blocks of theta rows (connection.theta_blocks):
    each block writes its chart into arena rows above the kernel's slots and
    keeps the maxima and flags of the checks, which are raised after the
    walk, in the order above; om_scale comes from the whole grid.
    """
    tau = RadialSphereFamily(structure)._radius(tau)
    M = _parse_splitting(splitting, structure)
    kernel = _curvature_kernel(structure, M)
    theta, phi = sphere_grid(*get_default("area_grid"))
    dens = np.empty((theta.size, phi.size))
    checks = []
    # garbage at degenerate points is caught by the checks after the walk
    with np.errstate(all="ignore"):
        for rows in theta_blocks(theta.size, phi.size, kernel.slots + 9):
            cols = chart_rows(kernel.slots, tau, theta[rows], phi)
            values = kernel(cols, rows=expr.arena_rows(kernel.slots, cols.shape[1]))
            Om, alpha, beta = (values[k:k + 3].T for k in (0, 3, 6))
            pts, dth, dph = (cols[k:k + 3].T for k in (0, 3, 6))
            finite = np.all(np.isfinite(Om))

            # splitting validity: #(M v) = v for both chart tangents
            P = structure.pi_many(pts)
            errs = []
            for v, w in ((dth, alpha), (dph, beta)):
                back = np.einsum("mjk,mj->mk", P, w)
                vn = np.linalg.norm(v, axis=1)
                errs.append(np.linalg.norm(back - v, axis=1) / np.maximum(vn, 1e-300))

            sharp_om = np.einsum("mjk,mj->mk", P, Om)

            # radially aligned unit kernel covector
            p = P[:, [1, 2, 0], [2, 0, 1]]
            pn = np.linalg.norm(p, axis=1)
            zeta = p / pn[:, None]
            align = np.einsum("mi,mi->m", zeta, pts / tau)
            zeta *= np.sign(align)[:, None]
            dens[rows] = np.einsum("mi,mi->m", Om, zeta).reshape(-1, phi.size)
            checks.append((finite, np.max(errs), np.max(np.abs(Om)),
                           np.max(np.linalg.norm(sharp_om, axis=1)), np.any(pn <= 0),
                           not np.all(np.abs(align) >= 0.1)))
    finite, split, om_max, sharp_max, degenerate, tangent = zip(*checks)

    if not all(finite):
        raise NumericalError("curvature is not finite on the leaf")
    split_res = float(np.max(split))
    require_finite(split_res, "splitting residual is not finite on the leaf")
    require_within(split_res, 1e-8, f"matrix is not a splitting of the anchor on the leaf "
                                    f"(residual {split_res:.3e})")
    om_scale = max(1.0, float(np.max(om_max)))
    center_res = float(np.max(sharp_max)) / om_scale
    require_finite(center_res, "curvature center residual is not finite on the leaf")
    require_within(center_res, 1e-8, f"curvature is not kernel-valued (residual "
                                     f"{center_res:.3e}); refusing to project it")
    if any(degenerate):
        raise ValidationError("structure degenerate on the leaf")
    if any(tangent):
        raise ValidationError("kernel direction nearly tangent to the sphere; "
                              "chart is not following the leaves")
    require_finite(dens, "curvature density is not finite on the leaf")
    integral = sphere_simpson(dens, theta, phi)
    return CurvatureResult(tau=tau, integral=integral,
                           center_residual=center_res, splitting_residual=split_res)


# ---------------------------------------------------------------------------
# real gcd with a denominator budget

@dataclass
class GcdResult:
    generator: float      # inf when no value survives, nan when dense
    dense: bool
    dropped: int


def _gcd_pair(a, b, eps, bound):
    r0, r1 = (a, b) if a >= b else (b, a)
    d0, d1 = 0.0, 1.0
    while r1 > eps:
        q = math.floor(r0 / r1)
        r0, r1 = r1, r0 - q * r1
        d0, d1 = d1, q * d1 + d0
        if d1 > bound:
            return None
    return r0


def gcd_analysis(values):
    """Common generator of a finite set of nonnegative reals, or a density
    report.

    Values within the configured ratio_tol (relative to the largest) of zero
    are dropped. The continued-fraction reduction keeps the convergent
    denominators; once they exceed denominator_bound before the remainder
    dies, the set is declared dense: no rational relation with denominator
    inside the budget exists. An empty surviving set yields generator inf
    (trivial group). A non-finite value raises NumericalError.
    """
    bound = get_default("denominator_bound")
    tol = get_default("ratio_tol")
    vals = [abs(float(v)) for v in values]
    require_finite(vals, f"gcd input is not finite: {vals}")
    scale = max(vals, default=0.0)
    eps = tol * scale
    used = sorted(v for v in vals if v > eps)
    dropped = len(vals) - len(used)
    if not used:
        return GcdResult(math.inf, False, dropped)
    g = used[-1]
    for v in used[:-1]:
        g = _gcd_pair(g, v, eps, bound)
        if g is None:
            return GcdResult(math.nan, True, dropped)
    return GcdResult(float(g), False, dropped)


def lattice(gens, area):
    """gcd_analysis of the generators above the floor 1e-8 * max(1, |area|);
    an empty surviving set gives the trivial lattice (generator inf). A
    non-finite area or generator raises NumericalError."""
    gens = tuple(float(g) for g in gens)
    require_finite((area, *gens), f"lattice input is not finite: area {area}, generators {gens}")
    floor = 1e-8 * max(1.0, abs(area))
    return gcd_analysis([g for g in gens if g > floor])


# ---------------------------------------------------------------------------
# exact sphere products (the quadrature families live in connection)

class FoliatedSphereProduct:
    """Product of sphere factors over a line, scaled by invariants f_i(tau).

    The leaf over tau is a product of unit spheres carrying f_i(tau) times
    the round form, so factor areas are 4 pi f_i(tau) and the transverse
    variation lattice is generated by the exact derivatives 4 pi f_i'(tau).
    Everything is symbolic in tau; no quadrature enters.
    """

    def __init__(self, invariants, label=None):
        if not invariants:
            raise ValidationError("need at least one invariant")
        # tau is an alias of the single coordinate x1: an invariant may
        # spell it either way, so its derivative sums both partials
        self.f = [expr.as_expression(source, 1, symbols=("tau",)) for source in invariants]
        self.df = [expr.add(expr.differentiate(e, 1), expr.differentiate_sym(e, "tau"))
                   for e in self.f]
        self._values = expr.compile_exprs(self.f + self.df, symbols=("tau",))
        self.label = label or f"foliated-spheres[{len(self.f)}]"

    def row_data(self, tau, verify=False):  # exact rows: verify has nothing to check
        tau = float(tau)
        if not 0.0 < tau < math.inf:
            raise ValidationError(f"parameter must be positive and finite, got {tau}")
        values = self._values((tau,), tau)
        require_finite(values, f"foliated invariants are not finite at tau={tau}")
        fvals, dvals = values[:len(self.f)], values[len(self.f):]
        area = 4.0 * math.pi * sum(fvals)
        deriv = 4.0 * math.pi * sum(dvals)
        gens = tuple(abs(4.0 * math.pi * d) for d in dvals)
        return area, deriv, gens


# ---------------------------------------------------------------------------
# scanning

@dataclass
class ScanRow:
    tau: float
    area: float
    derivative: float
    generators: tuple
    r_value: float          # lattice generator; inf trivial, nan dense
    dense: bool


@dataclass
class Candidate:
    tau: float
    source: str             # "sign" or "minimum"
    bracket: tuple          # (lo, hi) around tau when the search stopped
    value: float            # |g| at tau
    collapses: bool
    dense_hit: bool


@dataclass
class ScanResult:
    rows: list
    candidates: list
    verdict: str
    threshold: float
    denominator_bound: float
    ratio_tol: float
    notes: tuple = field(default_factory=tuple)


def _finite_floor(rows, candidates):
    """Smallest finite lattice generator over the rows and the values the
    searches stopped at; inf when there is none."""
    vals = [r.r_value for r in rows] + [c.value for c in candidates]
    return min((v for v in vals if math.isfinite(v)), default=math.inf)


def _make_row(family, tau):
    area, deriv, gens = family.row_data(tau)
    res = lattice(gens, area)
    r = math.nan if res.dense else res.generator
    return ScanRow(tau, area, deriv, tuple(gens), r, res.dense)


def _size(row):
    """|g|: the lattice generator, or the largest generator inside the floor."""
    return row.r_value if math.isfinite(row.r_value) else max(row.generators, default=0.0)


_BRACKET_REL = 1e-10    # a search stops at a bracket this narrow relative to tau
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def _sign_search(family, lo, hi, threshold):
    """Bisect the sign change of the one generator between rows lo < hi."""
    tol = _BRACKET_REL * max(abs(lo.tau), abs(hi.tau))
    while True:
        best = min(lo, hi, key=_size)
        if _size(best) < threshold or hi.tau - lo.tau <= tol:
            return Candidate(best.tau, "sign", (lo.tau, hi.tau), _size(best),
                             _size(best) < threshold, False)
        mid = _make_row(family, 0.5 * (lo.tau + hi.tau))
        if (mid.derivative < 0.0) == (lo.derivative < 0.0):
            lo = mid
        else:
            hi = mid


def _minimum_search(family, left, mid, right):
    """Golden-section search of |g| over left < mid < right; rows p < q in (a, b)."""
    tol = _BRACKET_REL * max(abs(left.tau), abs(right.tau))
    a, b = left.tau, right.tau
    if mid.tau - a >= b - mid.tau:
        p, q = _make_row(family, mid.tau - _GOLDEN * (mid.tau - a)), mid
    else:
        p, q = mid, _make_row(family, mid.tau + _GOLDEN * (b - mid.tau))
    while True:
        best = p if _size(p) < _size(q) else q
        collapses = math.isinf(best.r_value)    # every generator inside the floor
        if collapses or p.dense or q.dense or b - a <= tol:
            return Candidate(best.tau, "minimum", (a, b), _size(best), collapses,
                             p.dense or q.dense)
        if _size(q) < _size(p):
            a, p = p.tau, q
            q = _make_row(family, q.tau + _GOLDEN * (b - q.tau))
        else:
            b, q = q.tau, p
            p = _make_row(family, p.tau - _GOLDEN * (p.tau - a))


def integrability_scan(family, taus, threshold=None):
    """Walk a radius range and judge the variation lattice.

    Per radius the generator set is floored (relative to the area scale) and
    gcd-reduced; a row with one generator, |dA/dtau|, is signed by the
    derivative. A sign change between adjacent rows is bisected until |g| is
    below the threshold (a collapse) or the bracket is _BRACKET_REL relative
    to tau (a singular radius keeps |g| large). An interior minimum of |g|
    deeper than the lattice floor with no sign change beside it gets a
    golden-section search over its neighbours: a collapse once |g| is inside
    the floor (a double zero), else a dip whose value joins the floor. Any
    dense reduction or collapse gives NON_INTEGRABLE, a floor at or above the
    positive, finite threshold INTEGRABLE_EVIDENCE, else INCONCLUSIVE.
    """
    threshold = get_default("rn_threshold") if threshold is None else float(threshold)
    if not 0.0 < threshold < math.inf:
        raise ValidationError(f"scan threshold must be positive and finite, got {threshold}")

    taus = sorted(float(t) for t in taus)
    if len(taus) < 2:
        raise ValidationError("scan needs at least two radii")
    rows = [_make_row(family, t) for t in taus]
    changes = [len(a.generators) == len(b.generators) == 1
               and (a.derivative < 0.0) != (b.derivative < 0.0)
               for a, b in zip(rows, rows[1:])] + [False]
    candidates = []
    for i, row in enumerate(rows):
        near = rows[i - 1:i + 2]
        # a dip inside the lattice floor is rounding noise of a flat generator
        if (0 < i < len(rows) - 1 and not (changes[i - 1] or changes[i])
                and not any(r.dense for r in near) and _size(row) < min(
                    _size(near[0]), _size(near[2])) - 1e-8 * max(1.0, abs(row.area))):
            candidates.append(_minimum_search(family, *near))
        if changes[i]:
            candidates.append(_sign_search(family, row, rows[i + 1], threshold))

    notes = []
    if any(r.dense for r in rows) or any(c.dense_hit for c in candidates):
        verdict = VERDICT_BAD
        notes.append("a generator set reduced to a dense subgroup")
    elif any(c.collapses for c in candidates):
        verdict = VERDICT_BAD
        notes.append("lattice generator collapses to zero inside the range")
    elif _finite_floor(rows, candidates) >= threshold:
        verdict = VERDICT_OK
    else:
        verdict = VERDICT_OPEN
        notes.append(f"generator dips below threshold {threshold:g} without clean collapse")

    return ScanResult(rows=rows, candidates=candidates, verdict=verdict,
                      threshold=threshold,
                      denominator_bound=get_default("denominator_bound"),
                      ratio_tol=get_default("ratio_tol"), notes=tuple(notes))
