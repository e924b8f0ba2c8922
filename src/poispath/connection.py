"""Leafwise symplectic geometry: the induced 2-form, the sphere families
(RadialSphereFamily, the round chart, and SigmaSphereFamily, any chart)
with their areas and dA/dtau, and the transverse variation covector of the
radial family.

The induced form on a leaf inverts the anchor on tangent vectors:
omega(u, v) = -<alpha, v> where #alpha = u. In dimension 3, the only one the
sphere families live in, the structure matrix is the cross product with the
dual vector p = (Pi^23, Pi^31, Pi^12), which gives the closed forms

    #alpha = p x alpha,   omega(u, v) = -det(u, p, v) / |p|^2,

that leaf_form_many evaluates on batches of points. A sphere family is a
chart sigma(tau, theta, phi), the radial one the round chart
tau (sin theta cos phi, sin theta sin phi, cos theta), integrated over the
polar nodes with theta pulled half a cell off the poles; Simpson weights
on both axes. dA/dtau is differentiated under the integral, with the
exact tau-derivative of the chart, in the same pass over the nodes as the
area. Every sphere takes one quadrature entry (_sphere_area_once); the
families' area and rate checks repeat it on the doubled grid, so silent
quadrature garbage gets raised as NumericalError instead of returned.

Every chart takes one route (_chart_evaluators): its parts in theta
alone and in phi alone run once per pass on the 1-D nodes, the rest on
each block of theta rows by broadcasting. The blocks (theta_blocks) keep
the kernel's arena rows and the chart's within _ARENA_ROWS rows of
_BLOCK_NODES nodes; the curvature route of monodromy walks the round
chart's blocks with its own kernel. Each block is one call of a fused
kernel, compiled from one CSE graph once per structure and cached on it:
p, its Jacobian, |p|^2, p.u, p.v, |u|^2, |v|^2, the density and its
tau-derivative, with every sum in the order of the np.cross/einsum code it
replaced, so the values are the same bit for bit. The kernel writes rows
of the calling thread's scratch arena (expr.arena_rows), and the chart
writes its columns into the rows above them: a row allocates no block
arrays. Kernel results stay valid until the next arena call on that
thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .config import get_default
from .errors import NumericalError, ValidationError, require_finite, require_within
from .quadrature import simpson

_TANGENCY_TOL = 1e-8

_NAMES = ("tau", "theta", "phi")

# the radius-tau sphere about the origin; the parentheses give the nodes the
# float order tau * (sin * cos)
_ROUND_CHART = expr.components(
    ("tau*(sin(theta)*cos(phi))", "tau*(sin(theta)*sin(phi))", "tau*cos(theta)"), 0,
    symbols=_NAMES, what="round chart", count=3)

# nodes per block of a sphere quadrature pass; with the 12 slots of a rate
# kernel and the 18 of the round chart's, the arena cells a pass may take
_BLOCK_NODES = 1 << 13
_ARENA_ROWS = 30


def _dual_exprs(structure):
    """p = (Pi^23, Pi^31, Pi^12), dim 3 only."""
    if structure.dim != 3:
        raise ValidationError("dual vector shortcut needs dimension 3")
    return [structure.entry(2, 3), structure.entry(3, 1), structure.entry(1, 2)]


def _jacobian(p):
    """d_j p_i in row-major (i, j) order."""
    return [expr.differentiate(c, j) for c in p for j in (1, 2, 3)]


def _dot(a, b):
    """a . b from a 0.0 accumulator in index order, as einsum sums it."""
    total = expr.Num(0.0)
    for ai, bi in zip(a, b):
        total = expr.Add(total, expr.Mul(ai, bi))
    return total


def _cross(a, b):
    """a x b with the products and differences of np.cross."""
    return [expr.Sub(expr.Mul(a[i], b[j]), expr.Mul(a[j], b[i]))
            for i, j in ((1, 2), (2, 0), (0, 1))]


def _triple(a, b, c):
    """det(a, b, c) = a . (b x c), summed left to right."""
    k = _cross(b, c)
    return expr.Add(expr.Add(expr.Mul(a[0], k[0]), expr.Mul(a[1], k[1])), expr.Mul(a[2], k[2]))


def _sphere_kernel(structure, rate):
    """The fused sphere kernel of a structure, cached on it per rate flag.

    It reads the columns x, u, v (with rate also x_t, u_t, v_t) and returns
    as arena rows, with rate, the tau-derivative of the density, then the
    density dens = -((u x p).v)/|p|^2, |p|^2, p.u, p.v, |u|^2 and |v|^2. The
    tau-derivative is

        -(det(u_t, p, v) + det(u, q, v) + det(u, p, v_t) + 2 dens (p.q)) / |p|^2

    with q = J_p(x) x_t. Nodes are built without folding, so the float
    operations are those of np.cross, einsum and a left-to-right det.
    """
    def build():
        x, u, v, x_t, u_t, v_t = ([expr.Var(3 * k + i) for i in (1, 2, 3)] for k in range(6))
        p = _dual_exprs(structure)
        nrm2 = _dot(p, p)
        dens = expr.Div(expr.Neg(_dot(_cross(u, p), v)), nrm2)
        roots = [dens, nrm2, _dot(p, u), _dot(p, v), _dot(u, u), _dot(v, v)]
        if rate:
            jac = _jacobian(p)
            q = [_dot(jac[3 * i:3 * i + 3], x_t) for i in range(3)]
            total = expr.Add(expr.Add(expr.Add(_triple(u_t, p, v), _triple(u, q, v)),
                                       _triple(u, p, v_t)),
                             expr.Mul(expr.Mul(expr.Num(2.0), dens), _dot(p, q)))
            # first, so that the rows of the later roots serve its temporaries
            roots.insert(0, expr.Div(expr.Neg(total), nrm2))
        return roots

    return structure.evaluator(("sphere", rate), build)


def leaf_form_many(structure, xs, us, vs, moving=None, out=None):
    """omega(u, v) on a batch of dim-3 points xs with tangent vectors us and
    vs, each given as (m, 3) rows.

    One call of the structure's fused kernel (_sphere_kernel). With moving, the
    tau-derivatives (x_t, u_t, v_t) of the batch as (m, 3) rows, it also
    gives the tau-derivative of the density. Both go into out, a (1, m) or
    (2, m) array (a new one when None), and out[0] is returned.

    Raises ValidationError if the structure vanishes somewhere or a vector
    sticks out of its leaf, and NumericalError if a tangency residual or
    vector norm, the Jacobian of p, the rate density or the density is not
    finite.
    """
    rate = moving is not None
    cols = [c for w in (xs, us, vs, *(moving or ())) for c in np.asarray(w, dtype=float).T]
    kernel = _sphere_kernel(structure, rate)
    # garbage at degenerate points is caught by the checks below
    with np.errstate(all="ignore"):
        *drate, dens, nrm2, pu, pv, uu, vv = kernel(
            cols, rows=expr.arena_rows(kernel.slots, len(cols[0])))
    if np.any(nrm2 <= 0.0):
        raise ValidationError("structure is degenerate on the evaluation set")
    require_finite(nrm2, "structure is degenerate on the evaluation set", ValidationError)
    scale = np.sqrt(nrm2)
    bound = _TANGENCY_TOL * scale
    for pw, ww, name in ((pu, uu, "first"), (pv, vv, "second")):
        wn = np.sqrt(ww)
        resid = np.abs(pw)
        # a vector of norm at most 1e-300 passes; a NaN residual or norm
        # fails, since NaN <= x is false
        if not np.all(resid <= np.where(wn <= 1e-300, np.inf, bound * wn)):
            require_finite((resid, wn), f"tangency residual of the {name} argument is not "
                           "finite on the sphere")
            mask = wn > 1e-300
            worst = float(np.max(resid[mask] / (scale[mask] * wn[mask])))
            raise ValidationError(
                f"{name} argument is not tangent to the leaves (residual {worst:.3e})")
    # a non-finite Jacobian always makes the rate non-finite (0 inf and
    # inf - inf are NaN), so it is looked at only to name the failure
    if rate and not np.all(np.isfinite(drate[0])):
        jac = structure.evaluator("jacobian", lambda: _jacobian(_dual_exprs(structure)))
        with np.errstate(all="ignore"):
            require_finite(jac(cols[:3]), "Jacobian of the structure is not finite on the sphere")
        raise NumericalError("area rate density is not finite on the sphere")
    require_finite(dens, "leaf density is not finite on the sphere")
    if out is None:
        out = np.empty((1 + rate, dens.size))
    out[0] = dens
    if rate:
        out[1] = drate[0]
    return out[0]


def sphere_grid(n_theta, n_phi):
    """Polar quadrature nodes: theta shifted half a cell off each pole."""
    if n_theta % 2 or n_phi % 2 or n_theta < 4 or n_phi < 4:
        raise ValidationError("grid counts must be even and at least 4")
    h = np.pi / n_theta
    theta = np.linspace(h / 2, np.pi - h / 2, n_theta + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
    return theta, phi


def theta_blocks(n_theta, n_phi, rows):
    """Slices of the theta rows of a sphere pass whose nodes take `rows`
    arena rows each: as many theta rows per block as keep the arena within
    _ARENA_ROWS rows of _BLOCK_NODES nodes."""
    step = max(1, _ARENA_ROWS * _BLOCK_NODES // (rows * n_phi))
    return [slice(lo, lo + step) for lo in range(0, n_theta, step)]


def _chart_evaluators(structure, sigma, rate):
    """The chart sigma(tau, theta, phi), its theta and phi tangents and, with
    rate, the tau-derivatives of those nine after them, as three numpy
    evaluators, compiled on first use and cached on the structure per chart
    (expr.dag_key) and rate.

    expr.split_free cuts the columns twice. The subtrees that read no phi go
    to the first evaluator, of (tau, theta), which runs on the 1-D theta
    nodes. Of the rest, the subtrees that read no theta, nor a value of the
    first, go to the second, of (tau, phi), which runs on the 1-D phi nodes.
    The third computes the columns from theirs on a block of (theta, phi)
    nodes by broadcasting. Chart symbols shadow parameters of their names.
    """
    def make():
        cols = sigma + [expr.differentiate_sym(c, a) for a in _NAMES[1:] for c in sigma]
        if rate:
            cols += [expr.differentiate_sym(c, "tau") for c in cols]
        by_theta, cols = expr.split_free(cols, "_t", coords=("phi",))
        theta_names = tuple(f"_t{k}" for k in range(len(by_theta)))
        by_phi, cols = expr.split_free(cols, "_p", coords=("theta",) + theta_names)
        phi_names = tuple(f"_p{k}" for k in range(len(by_phi)))
        params = {k: v for k, v in structure.params.items() if k not in _NAMES}
        return [expr.compile_exprs_vec(exprs, symbols=names, params=params)
                for exprs, names in ((by_theta, ("tau", "theta")), (by_phi, ("tau", "phi")),
                                     (cols, _NAMES + theta_names + phi_names))]

    return structure.cached(("chart", expr.dag_key(sigma), rate), make)


def sphere_simpson(dens, theta, phi):
    """Simpson rule over phi, then over theta, of a density sampled on the
    (theta, phi) nodes of sphere_grid."""
    return float(simpson(simpson(dens, phi, axis=1), theta))


def sphere_quadrature(structure, nodes, theta, phi, rate=False):
    """Area of one sphere of a family and, with rate set, dA/dtau, from one
    pass over the (theta, phi) nodes of sphere_grid in blocks of theta rows.

    nodes yields each block's slice of theta and its columns, (9, m) or with
    rate (18, m) rows: the chart x, u = d_theta x and v = d_phi x on
    theta[rows] x phi, then with rate set x_t, u_t, v_t, their
    tau-derivatives. leaf_form_many turns each block into the density
    dens = -det(u, p, v)/|p|^2 and its derivative under the integral, by the
    chain rule with q = J_p(x) x_t:

        -(det(u_t, p, v) + det(u, q, v) + det(u, p, v_t) + 2 dens (p.q)) / |p|^2

    A non-finite density, Jacobian or rate density is a NumericalError.
    """
    vals = np.empty((1 + rate, theta.size, phi.size))
    for rows, cols in nodes:
        x, u, v, *moving = (cols[k:k + 3].T for k in range(0, len(cols), 3))
        leaf_form_many(structure, x, u, v, moving or None,
                       out=vals[:, rows].reshape(len(vals), -1))
    area = sphere_simpson(vals[0], theta, phi)
    return (area, sphere_simpson(vals[1], theta, phi)) if rate else area


def _sphere_area_once(family, tau, grid, rate=False):
    """sphere_quadrature of the family's sphere at tau on grid: the one entry
    through which every sphere area and dA/dtau is computed."""
    theta, phi = sphere_grid(*grid)
    nodes = family._nodes(tau, theta, phi, rate, _sphere_kernel(family.structure, rate).slots)
    return sphere_quadrature(family.structure, nodes, theta, phi, rate)


class RadialSphereFamily:
    """Sphere leaves of a dim-3 structure, parametrized by radius: the round
    chart sigma = tau (sin theta cos phi, sin theta sin phi, cos theta). Its
    rules are those every sphere family shares: the radius guard, the
    chart's nodes, and the area check and the rate check under grid
    doubling.

    row_data(tau) returns (area, dA/dtau, generator magnitudes) from one
    sphere_quadrature pass, without the grid-doubling re-run unless asked
    (verify=True, as `monodromy` and `area-variation` ask). Scan rows are
    therefore unchecked: an integrand the grid does not resolve gives a
    wrong row, not a NumericalError (the scan row of a = 1 + sin(200 x1)/2
    at tau = 1 reads dA/dtau 23.286, where `monodromy` exits 3).
    """

    def __init__(self, structure, grid=None, label=None):
        if structure.dim != 3:
            raise ValidationError("sphere families need dimension 3")
        self.structure = structure
        self.sigma = _ROUND_CHART
        self.grid = tuple(grid or get_default("area_grid"))
        self.label = label or structure.label or "radial-family"

    def _radius(self, tau):
        tau = float(tau)
        if not 0.0 < tau < math.inf:
            raise ValidationError(f"sphere radius must be positive and finite, got {tau}")
        return tau

    def _nodes(self, tau, theta, phi, rate, skip):
        """The chart at tau on theta x phi, a block of theta rows at a time
        (_chart_evaluators). Yields each block's slice of theta and its
        columns x, u = d_theta x and v = d_phi x, then with rate x_t, u_t and
        v_t, as (9, m) or (18, m) rows of the arena from row skip up, valid
        until the next block. The theta-side and phi-side values are computed
        once per pass into new arrays; theta_blocks sizes the blocks for the
        skip rows and the block evaluator's slots."""
        on_theta, on_phi, on_block = _chart_evaluators(self.structure, self.sigma, rate)
        by_theta, by_phi = on_theta((), tau, theta), on_phi((), tau, phi)
        used = skip + on_block.slots
        for rows in theta_blocks(theta.size, phi.size, used):
            th = theta[rows, None]
            cells = expr.arena_rows(used, th.size * phi.size)[skip:]
            cols = on_block((), tau, th, phi, *by_theta[:, rows, None], *by_phi,
                            rows=cells.reshape(-1, th.size, phi.size))
            yield rows, cols.reshape(len(cols), -1)

    def area(self, tau):
        """Symplectic area of the sphere at tau. The quadrature is repeated on
        the doubled grid and the finer value is returned; disagreement beyond
        the configured relative band is a NumericalError.
        """
        tau = self._radius(tau)
        value = _sphere_area_once(self, tau, self.grid)
        finer = _sphere_area_once(self, tau, [2 * g for g in self.grid])
        require_within(abs(finer - value), get_default("area_check_rel") * max(1.0, abs(finer)),
                       f"sphere area at tau={tau} unstable under grid doubling: "
                       f"{value:.10g} vs {finer:.10g}", NumericalError)
        return finer

    def _rate(self, tau, verify):
        """(area, dA/dtau) at tau from one pass on the grid. With verify, dA/dtau
        d and its doubled-grid value d_fine must agree inside
        max(1e-3 relative, 1e-6 in units of the area)."""
        tau = self._radius(tau)
        area, d = _sphere_area_once(self, tau, self.grid, rate=True)
        if verify:
            _, d_fine = _sphere_area_once(self, tau, [2 * g for g in self.grid], rate=True)
            require_within(abs(d - d_fine), max(1e-3 * abs(d_fine), 1e-6 * max(1.0, abs(area))),
                           f"area derivative at tau={tau} unstable under grid doubling: "
                           f"{d:.10g} vs {d_fine:.10g}", NumericalError)
        return area, d

    def row_data(self, tau, verify=False):
        area, d = self._rate(tau, verify)
        return area, d, (abs(d),)


class SigmaSphereFamily(RadialSphereFamily):
    """Sphere leaves given by an explicit chart sigma(tau, theta, phi) in M,
    over a closed tau range.

    The chart must stay inside leaves of a dim-3 structure; the tangency
    check in the leaf form evaluation rejects charts that cut across them.
    Everything but the tau-range guard and the label is the radial family's,
    run on this chart: the tau-derivatives of sigma, sigma_theta and
    sigma_phi are compiled beside it, so rows at the ends of tau_range need
    no samples outside it.
    """

    # perfbench's tracer wraps row_data in each family class's own namespace
    row_data = RadialSphereFamily.row_data

    def __init__(self, structure, sigma, tau_range, grid=None, label=None):
        super().__init__(structure, grid, label or "sigma-family")
        self.sigma = expr.components(sigma, 0, symbols=_NAMES, params=structure.params,
                                     what="sigma", count=3)
        try:
            lo, hi = (float(v) for v in tau_range)
        except (TypeError, ValueError):
            raise ValidationError(f"tau_range must be a [lo, hi] pair, got {tau_range!r}")
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError(f"tau_range needs finite hi > lo, got [{lo:g}, {hi:g}]")
        self.tau_range = (lo, hi)

    def _radius(self, tau):
        tau = float(tau)
        lo, hi = self.tau_range
        if not lo <= tau <= hi:
            raise ValidationError(f"tau {tau:g} outside the family range [{lo:g}, {hi:g}]")
        return tau


def sphere_area(structure, tau, grid=None):
    """Symplectic area of the radius-tau sphere about the origin: the area of
    the radial family (RadialSphereFamily.area).

    The sphere must be (numerically) a union of leaves; the tangency check
    inside the form evaluation rejects charts that cut across leaves.
    """
    return RadialSphereFamily(structure, grid).area(tau)


@dataclass
class AreaVariation:
    """Radial derivative of leaf area together with its covector form.

    xi is the transverse covector at base_point representing the variation:
    xi = (dA/dtau / <zeta, w>) zeta with zeta the unit kernel covector and w
    the transverse part of the family velocity. Its magnitude |derivative| is
    what period scans compare against.
    """

    area: float
    derivative: float
    xi: np.ndarray
    zeta: np.ndarray
    base_point: np.ndarray

    @property
    def generator_magnitude(self):
        return abs(self.derivative)


def area_variation(structure, tau, grid=None):
    """dA/dtau of the radial family, packaged as a transverse covector.

    Area and derivative are those of one pass on the grid; the derivative
    must also pass the family's rate check on the doubled grid
    (RadialSphereFamily._rate). A non-finite structure at the base point
    raises NumericalError.
    """
    family = RadialSphereFamily(structure, grid)
    tau = family._radius(tau)

    x0 = np.array([tau, 0.0, 0.0])
    # dim 3: the anchor's kernel is span(p) and its image p-perp, so the unit
    # kernel covector is p/|p| (oriented by the structure; xi does not see the
    # sign), and it pairs with the family velocity e1 at x0 through p_1;
    # p = (Pi^23, Pi^31, Pi^12)
    p = structure.pi_at(x0)[[1, 2, 0], [2, 0, 1]]
    require_finite(p, f"structure matrix is not finite at {x0.tolist()}")
    if not np.any(p):
        raise ValidationError(
            f"variation needs a corank-1 point, got corank 3 at {x0.tolist()}")
    zeta = p / np.linalg.norm(p)
    pairing = float(zeta[0])
    if abs(pairing) < 1e-8:
        raise NumericalError("family velocity is tangent to the leaf; "
                             "variation direction degenerate")

    area, d = family._rate(tau, verify=True)

    xi = (d / pairing) * zeta
    return AreaVariation(area=area, derivative=d, xi=xi, zeta=zeta, base_point=x0)
