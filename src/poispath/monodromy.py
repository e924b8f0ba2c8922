"""Transverse variation lattices of sphere foliations and the numerics that
decide whether they look discrete.

Two routes produce the same invariant for a radius-tau sphere leaf:

  * quadrature of the curvature of a splitting of the anchor over the leaf
    (curvature_periods), and
  * differentiation of the leaf symplectic area along the radius family
    (connection.area_variation, wrapped here by RadialSphereFamily).

Their common value generates the group of lattice periods at that leaf. A
scan walks a radius range, reduces each leaf's generator set with a real gcd
(continued fractions with a denominator budget), refines suspicious radii,
and reports one of INTEGRABLE_EVIDENCE / NON_INTEGRABLE / INCONCLUSIVE.
Verdicts are numerical evidence relative to the printed denominator bound
and tolerance, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .config import get_default
from .connection import (_chart, _stencil_derivative, _sphere_area_once,
                         leaf_form_many, sphere_grid, sphere_simpson)
from .errors import NumericalError, ValidationError
from .paths import fd_weights

VERDICT_OK = "INTEGRABLE_EVIDENCE"
VERDICT_BAD = "NON_INTEGRABLE"
VERDICT_OPEN = "INCONCLUSIVE"

_ANGLES = ("theta", "phi")


# ---------------------------------------------------------------------------
# curvature of a splitting over a sphere leaf

@dataclass
class CurvatureResult:
    tau: float
    integral: float           # quadrature of <Omega, zeta> over the chart
    xi: np.ndarray            # integral * zeta at the base point (tau, 0, 0)
    center_residual: float
    splitting_residual: float


def _parse_splitting(splitting, structure):
    n = structure.dim
    rows = list(splitting)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        raise ValidationError(f"splitting must be a {n}x{n} matrix of expressions")
    return [expr.components(row, n, params=structure.params) for row in rows]


def _sphere_chart_exprs(tau):
    th, ph = expr.Sym("theta"), expr.Sym("phi")
    st, ct = expr.call("sin", th), expr.call("cos", th)
    sf, cf = expr.call("sin", ph), expr.call("cos", ph)
    r = expr.Num(tau)
    return [expr.mul(r, expr.mul(st, cf)),
            expr.mul(r, expr.mul(st, sf)),
            expr.mul(r, ct)]


def curvature_periods(structure, splitting, tau, grid=None):
    """Integrate the curvature of an anchor splitting over the radius-tau
    sphere leaf.

    splitting is an n x n matrix M of expressions sending tangent vectors to
    covectors, sigma(v)_i = M_ij v^j, with #(sigma(v)) = v on leaf tangents
    (checked on the grid). The curvature 2-form in the polar chart is

        Omega = -(d_theta beta - d_phi alpha + D(alpha, beta)),

    alpha = sigma(sigma_theta), beta = sigma(sigma_phi), D the coupling term
    (d_i Pi^(jk)) alpha_j beta_k; it must be kernel-valued (checked). The
    pairing with the radially aligned unit kernel covector is integrated with
    the same shifted-pole Simpson rule the areas use. Non-finite curvature,
    residuals or densities raise NumericalError.
    """
    if structure.dim != 3:
        raise ValidationError("curvature quadrature works on dim-3 sphere leaves")
    tau = float(tau)
    if tau <= 0:
        raise ValidationError(f"radius must be positive, got {tau}")
    M = _parse_splitting(splitting, structure)
    n_theta, n_phi = grid or get_default("area_grid")

    sigma = _sphere_chart_exprs(tau)
    var_map = {1: sigma[0], 2: sigma[1], 3: sigma[2]}
    dsig = {
        "theta": [expr.differentiate_sym(s, "theta") for s in sigma],
        "phi": [expr.differentiate_sym(s, "phi") for s in sigma],
    }
    M_chart = [[expr.substitute(M[i][j], var_map=var_map) for j in range(3)]
               for i in range(3)]

    def pulled_covector(direction):
        comps = []
        for i in range(3):
            total = expr.Num(0.0)
            for j in range(3):
                total = expr.add(total, expr.mul(M_chart[i][j], dsig[direction][j]))
            comps.append(total)
        return comps

    alpha = pulled_covector("theta")
    beta = pulled_covector("phi")

    omega = []
    for i in range(1, 4):
        coupling = expr.Num(0.0)
        for (j, k), entry in structure.upper_entries():
            dentry = expr.substitute(expr.differentiate(entry, i), var_map=var_map)
            pair = expr.sub(expr.mul(alpha[j - 1], beta[k - 1]),
                            expr.mul(alpha[k - 1], beta[j - 1]))
            coupling = expr.add(coupling, expr.mul(dentry, pair))
        curl = expr.sub(expr.differentiate_sym(beta[i - 1], "theta"),
                        expr.differentiate_sym(alpha[i - 1], "phi"))
        omega.append(expr.neg(expr.add(curl, coupling)))

    theta, phi = sphere_grid(n_theta, n_phi)
    x, dth, dph = _chart(tau, theta, phi)
    shape = x.shape[1:]
    pts = x.reshape(3, -1)
    m = pts.shape[1]
    T = np.broadcast_to(np.meshgrid(theta, phi, indexing="ij")[0], shape).reshape(-1)
    F = np.broadcast_to(np.meshgrid(theta, phi, indexing="ij")[1], shape).reshape(-1)

    params = structure.params
    dummy = np.zeros((1, m))
    omega_fn = expr.compile_exprs_vec(omega, symbols=_ANGLES, params=params)
    Om = omega_fn(dummy, T, F).T                       # (m, 3)
    if not np.all(np.isfinite(Om)):
        raise NumericalError("curvature is not finite on the leaf")

    # splitting validity: #(M v) = v for both chart tangents
    M_flat = [M[i][j] for i in range(3) for j in range(3)]
    M_fn = expr.compile_exprs_vec(M_flat, params=params)
    Mnum = M_fn(pts).T.reshape(m, 3, 3)
    P = structure.pi_many(pts.T)
    errs = []
    for v in (dth.reshape(3, -1).T, dph.reshape(3, -1).T):
        w = np.einsum("mij,mj->mi", Mnum, v)
        back = np.einsum("mjk,mj->mk", P, w)
        vn = np.linalg.norm(v, axis=1)
        errs.append(np.linalg.norm(back - v, axis=1) / np.maximum(vn, 1e-300))
    split_res = float(np.max(errs))
    if not np.isfinite(split_res):
        raise NumericalError("splitting residual is not finite on the leaf")
    if not (split_res <= 1e-8):
        raise ValidationError(
            f"matrix is not a splitting of the anchor on the leaf "
            f"(residual {split_res:.3e})")

    sharp_om = np.einsum("mjk,mj->mk", P, Om)
    om_scale = max(1.0, float(np.max(np.abs(Om))))
    center_res = float(np.max(np.linalg.norm(sharp_om, axis=1))) / om_scale
    if not np.isfinite(center_res):
        raise NumericalError("curvature center residual is not finite on the leaf")
    if not (center_res <= 1e-8):
        raise ValidationError(
            f"curvature is not kernel-valued (residual {center_res:.3e}); "
            f"refusing to project it")

    # radially aligned unit kernel covector
    from .connection import dual_vector_field

    p = dual_vector_field(structure)(pts).T
    pn = np.linalg.norm(p, axis=1)
    if np.any(pn <= 0):
        raise ValidationError("structure degenerate on the leaf")
    zeta = p / pn[:, None]
    radial = pts.T / tau
    align = np.einsum("mi,mi->m", zeta, radial)
    if np.any(np.abs(align) < 0.1):
        raise ValidationError("kernel direction nearly tangent to the sphere; "
                              "chart is not following the leaves")
    zeta *= np.sign(align)[:, None]

    dens = np.einsum("mi,mi->m", Om, zeta).reshape(shape)
    if not np.all(np.isfinite(dens)):
        raise NumericalError("curvature density is not finite on the leaf")
    integral = sphere_simpson(dens, theta, phi)
    return CurvatureResult(tau=tau, integral=integral,
                           xi=integral * np.array([1.0, 0.0, 0.0]),
                           center_residual=center_res, splitting_residual=split_res)


# ---------------------------------------------------------------------------
# real gcd with a denominator budget

@dataclass
class GcdResult:
    generator: float      # inf when no value survives, nan when dense
    dense: bool
    used: tuple
    dropped: int
    denominator_bound: float
    ratio_tol: float


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


def gcd_analysis(values, denominator_bound=None, ratio_tol=None):
    """Common generator of a finite set of nonnegative reals, or a density
    report.

    Values within ratio_tol (relative to the largest) of zero are dropped.
    The continued-fraction reduction keeps the convergent denominators; once
    they exceed denominator_bound before the remainder dies, the set is
    declared dense: no rational relation with denominator inside the budget
    exists. An empty surviving set yields generator inf (trivial group).
    A non-finite value raises NumericalError.
    """
    bound = get_default("denominator_bound") if denominator_bound is None \
        else float(denominator_bound)
    tol = get_default("ratio_tol") if ratio_tol is None else float(ratio_tol)
    vals = [abs(float(v)) for v in values]
    if not all(math.isfinite(v) for v in vals):
        raise NumericalError(f"gcd input is not finite: {vals}")
    scale = max(vals, default=0.0)
    eps = tol * scale
    used = sorted(v for v in vals if v > eps)
    dropped = len(vals) - len(used)
    if not used:
        return GcdResult(math.inf, False, (), dropped, bound, tol)
    g = used[-1]
    for v in used[:-1]:
        g = _gcd_pair(g, v, eps, bound)
        if g is None:
            return GcdResult(math.nan, True, tuple(used), dropped, bound, tol)
    return GcdResult(float(g), False, tuple(used), dropped, bound, tol)


def lattice(gens, area, bound=None, tol=None):
    """gcd_analysis of the generators above the floor 1e-8 * max(1, |area|);
    an empty surviving set gives the trivial lattice (generator inf). A
    non-finite area or generator raises NumericalError."""
    gens = tuple(float(g) for g in gens)
    if not all(math.isfinite(v) for v in (area, *gens)):
        raise NumericalError(f"lattice input is not finite: area {area}, generators {gens}")
    floor = 1e-8 * max(1.0, abs(area))
    return gcd_analysis([g for g in gens if g > floor], bound, tol)


# ---------------------------------------------------------------------------
# one-parameter sphere families

class RadialSphereFamily:
    """Sphere leaves of a dim-3 structure, parametrized by radius.

    row_data(tau) returns (area, dA/dtau, generator magnitudes) using the
    five-point stencil without the cross-check re-runs; scans sample densely
    enough to catch instability on their own.
    """

    def __init__(self, structure, grid=None, step=None, label=None):
        if structure.dim != 3:
            raise ValidationError("radial sphere families need dimension 3")
        self.structure = structure
        self.grid = tuple(grid or get_default("area_grid"))
        self.step = get_default("variation_step") if step is None else float(step)
        self.label = label or structure.label or "radial-family"

    def row_data(self, tau):
        tau = float(tau)
        if tau - 2.0 * self.step <= 0.0:
            raise ValidationError(
                f"radius {tau} too small for the stencil step {self.step}")
        area = _sphere_area_once(self.structure, tau, *self.grid)
        deriv = _stencil_derivative(self.structure, tau, self.step, self.grid)
        return area, deriv, (abs(deriv),)

    def minimum_radius(self):
        return 2.0 * self.step


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
        # tau is an alias of the single coordinate x1
        self.f = [expr.substitute(expr.as_expression(source, 1, symbols=("tau",)),
                                  sym_map={"tau": expr.Var(1)})
                  for source in invariants]
        self.df = [expr.differentiate(e, 1) for e in self.f]
        self.label = label or f"foliated-spheres[{len(self.f)}]"

    def row_data(self, tau):
        tau = float(tau)
        if tau <= 0:
            raise ValidationError(f"parameter must be positive, got {tau}")
        point = (tau,)
        fvals = [expr.evaluate(e, point) for e in self.f]
        dvals = [expr.evaluate(e, point) for e in self.df]
        area = 4.0 * math.pi * sum(fvals)
        deriv = 4.0 * math.pi * sum(dvals)
        gens = tuple(abs(4.0 * math.pi * d) for d in dvals)
        return area, deriv, gens

    def minimum_radius(self):
        return 0.0


class SigmaSphereFamily:
    """Sphere leaves given by an explicit chart sigma(tau, theta, phi) in M.

    The chart must stay inside leaves of a dim-3 structure; the tangency
    check in the leaf form evaluation rejects charts that cut across them.
    Areas use the same shifted-pole Simpson quadrature as the radial family.
    dA/dtau comes from a five-point 4th-order stencil whose nodes are shifted
    one-sidedly near the ends of tau_range, so scans may include the range
    endpoints; the generator magnitude is |dA/dtau| as for the other
    families.
    """

    def __init__(self, structure, sigma, tau_range, grid=None, step=None,
                 label=None):
        if structure.dim != 3:
            raise ValidationError("sigma sphere families need dimension 3")
        names = ("tau",) + _ANGLES
        parsed = expr.components(sigma, 0, symbols=names, params=structure.params,
                                 what="sigma", count=3)
        try:
            lo, hi = (float(v) for v in tau_range)
        except (TypeError, ValueError):
            raise ValidationError(f"tau_range must be a [lo, hi] pair, got {tau_range!r}")
        if not hi > lo:
            raise ValidationError(f"tau_range needs hi > lo, got [{lo:g}, {hi:g}]")
        self.structure = structure
        self.sigma = parsed
        self.tau_range = (lo, hi)
        self.grid = tuple(grid or get_default("area_grid"))
        self.step = get_default("variation_step") if step is None else float(step)
        self.label = label or "sigma-family"
        tangents = ([expr.differentiate_sym(c, "theta") for c in parsed]
                    + [expr.differentiate_sym(c, "phi") for c in parsed])
        self._fn = expr.compile_exprs_vec(parsed + tangents, symbols=names,
                                          params=structure.params)

    def _check_tau(self, tau):
        lo, hi = self.tau_range
        if not lo <= tau <= hi:
            raise ValidationError(
                f"tau {tau:g} outside the family range [{lo:g}, {hi:g}]")

    def area(self, tau):
        tau = float(tau)
        self._check_tau(tau)
        theta, phi = sphere_grid(*self.grid)
        T, F = np.meshgrid(theta, phi, indexing="ij")
        dummy = np.zeros((1, T.size))
        vals = self._fn(dummy, tau, T.ravel(), F.ravel())
        dens = leaf_form_many(self.structure, vals[0:3].T, vals[3:6].T,
                              vals[6:9].T).reshape(T.shape)
        return sphere_simpson(dens, theta, phi)

    def row_data(self, tau):
        tau = float(tau)
        self._check_tau(tau)
        lo, hi = self.tau_range
        h = self.step
        if hi - lo < 5.0 * h:
            h = (hi - lo) / 5.0
        nodes = np.arange(-2.0, 3.0)
        if tau + nodes[0] * h < lo:
            nodes += math.ceil((lo - tau) / h) + 2
        elif tau + nodes[-1] * h > hi:
            nodes -= math.ceil((tau - hi) / h) + 2
        w = fd_weights(nodes) / h
        areas = [self.area(tau + s * h) for s in nodes]
        deriv = float(np.dot(w, areas))
        area = areas[int(np.argmin(np.abs(nodes)))] if 0.0 in nodes \
            else self.area(tau)
        return area, deriv, (abs(deriv),)

    def minimum_radius(self):
        return self.tau_range[0]


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
    source: str             # "minimum" or "trivial"
    round_minima: tuple
    collapses: bool         # geometric decay of the minima below threshold
    dense_hit: bool


@dataclass
class ScanResult:
    rows: list
    candidates: list
    verdict: str
    threshold: float
    denominator_bound: float
    ratio_tol: float
    refine_rounds: int
    notes: tuple = field(default_factory=tuple)

    def finite_minimum(self):
        return _finite_floor(self.rows, self.candidates)


def _finite_floor(rows, candidates):
    """Smallest finite lattice generator over the rows and the refinement
    minima; inf when there is none."""
    vals = [r.r_value for r in rows] + [v for c in candidates for v in c.round_minima]
    return min((v for v in vals if math.isfinite(v)), default=math.inf)


def _make_row(family, tau, bound, tol):
    area, deriv, gens = family.row_data(tau)
    res = lattice(gens, area, bound, tol)
    r = math.nan if res.dense else res.generator
    return ScanRow(tau, area, deriv, tuple(gens), r, res.dense)


_REFINE_OFFSETS = (0.05, 0.15, 0.45)


def integrability_scan(family, taus, threshold=None, refine_rounds=None,
                       denominator_bound=None, ratio_tol=None):
    """Walk a radius range and judge the variation lattice.

    Per radius the generator set is floored (relative to the area scale) and
    gcd-reduced. Suspicious radii, the strict interior minima of the
    generator and any trivial-lattice radius flanked by nontrivial ones, are
    re-sampled in up to refine_rounds punctured neighborhoods shrinking
    tenfold; minima that decay geometrically below the threshold mean the
    lattice degenerates there. Any dense reduction anywhere, or such a
    collapse, gives NON_INTEGRABLE; a finite positive generator floor
    everywhere gives INTEGRABLE_EVIDENCE; otherwise INCONCLUSIVE.
    """
    threshold = get_default("rn_threshold") if threshold is None else float(threshold)
    rounds = get_default("scan_refine_rounds") if refine_rounds is None \
        else int(refine_rounds)
    bound = get_default("denominator_bound") if denominator_bound is None \
        else float(denominator_bound)
    tol = get_default("ratio_tol") if ratio_tol is None else float(ratio_tol)

    taus = sorted(float(t) for t in taus)
    if len(taus) < 2:
        raise ValidationError("scan needs at least two radii")
    rows = [_make_row(family, t, bound, tol) for t in taus]
    notes = []

    dense_hit = any(r.dense for r in rows)
    candidates = []
    rmin = family.minimum_radius()
    for i in range(1, len(rows) - 1):
        left, mid, right = rows[i - 1], rows[i], rows[i + 1]
        vals = (left.r_value, mid.r_value, right.r_value)
        if any(math.isnan(v) for v in vals):
            continue
        is_min = (math.isfinite(mid.r_value)
                  and mid.r_value < left.r_value and mid.r_value < right.r_value)
        is_trivial = (math.isinf(mid.r_value)
                      and math.isfinite(left.r_value) and math.isfinite(right.r_value))
        if not (is_min or is_trivial):
            continue
        spacing = min(taus[i] - taus[i - 1], taus[i + 1] - taus[i])
        minima = []
        local_dense = False
        # each round re-centers on the best probe so far; without that a
        # zero sitting between grid samples escapes the shrinking window
        center = taus[i]
        delta = spacing
        for _ in range(rounds):
            best = math.inf
            best_t = center
            for f in _REFINE_OFFSETS:
                for s in (-1.0, 1.0):
                    t = center + s * f * delta
                    if t <= rmin:
                        continue
                    row = _make_row(family, t, bound, tol)
                    if row.dense:
                        local_dense = True
                    elif row.r_value < best:
                        best = row.r_value
                        best_t = t
            minima.append(best)
            center = best_t
            delta /= 10.0
        finite = [v for v in minima if math.isfinite(v)]
        collapses = (
            len(finite) == len(minima) and len(minima) >= 2
            and all(minima[k + 1] <= 0.5 * minima[k] for k in range(len(minima) - 1))
            and minima[-1] < threshold)
        candidates.append(Candidate(
            tau=taus[i], source="minimum" if is_min else "trivial",
            round_minima=tuple(minima), collapses=collapses,
            dense_hit=local_dense))
        dense_hit = dense_hit or local_dense

    if dense_hit:
        verdict = VERDICT_BAD
        notes.append("a generator set reduced to a dense subgroup")
    elif any(c.collapses for c in candidates):
        verdict = VERDICT_BAD
        notes.append("lattice generator collapses to zero inside the range")
    else:
        if _finite_floor(rows, candidates) >= threshold:
            verdict = VERDICT_OK
        else:
            verdict = VERDICT_OPEN
            notes.append(
                f"generator dips below threshold {threshold:g} without clean collapse")

    return ScanResult(rows=rows, candidates=candidates, verdict=verdict,
                      threshold=threshold, denominator_bound=bound,
                      ratio_tol=tol, refine_rounds=rounds, notes=tuple(notes))
