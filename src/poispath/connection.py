"""Leafwise symplectic geometry: the induced 2-form, the sphere families
(RadialSphereFamily and its chart form SigmaSphereFamily) with their areas
and dA/dtau, and the transverse variation covector of the radial family.

The induced form on a leaf inverts the anchor on tangent vectors:
omega(u, v) = -<alpha, v> where #alpha = u. In dimension 3, the only one the
sphere families live in, the structure matrix is the cross product with the
dual vector p = (Pi^23, Pi^31, Pi^12), which gives the closed forms

    #alpha = p x alpha,   omega(u, v) = -det(u, p, v) / |p|^2,

that leaf_form_many evaluates on batches of points. Spheres about the
origin are integrated in the usual polar chart with the theta nodes pulled
half a cell off the poles; Simpson weights on both axes. dA/dtau of a sphere family is differentiated
under the integral, in the same pass over the nodes as the area. Every
sphere takes one quadrature entry (_sphere_area_once); the families' area
and rate checks repeat it on the doubled grid, so silent quadrature garbage
gets raised as NumericalError instead of returned.

The pass runs in blocks of theta rows (theta_blocks), sized so that a
block's arena rows stay within those of a rate row; the curvature route of
monodromy walks the same blocks. Each block is one call of a fused kernel,
compiled from one CSE graph once per structure and cached on it
(PoissonStructure.evaluator): p, its Jacobian, |p|^2, p.u, p.v, |u|^2,
|v|^2, the density and its tau-derivative, with every sum in the order of
the np.cross/einsum code it replaced, so the values are the same bit for
bit. leaf_form_many passes the kernel rows of the calling thread's scratch
arena (expr.arena_rows) to write. The radial chart (chart_rows) writes its
columns into the rows above the kernel's, and the chart evaluators of a
sigma family are passed arena rows too, their values copied there: a row
allocates no block arrays. Kernel results stay valid until the next arena
call on that thread.
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

_ANGLES = ("theta", "phi")

# nodes per block of a sphere quadrature pass; with the 12 slots of a rate
# kernel and its 18 chart rows, the arena cells a sphere pass may take
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
    sticks out of its leaf, and NumericalError if the Jacobian of p, the
    rate density or the density is not finite.
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
        if np.any((resid > bound * wn) & (wn > 1e-300)):
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


def _chart(tau, theta, phi, out=None):
    """The radius-tau sphere x, u = d_theta x and v = d_phi x on the theta x
    phi nodes, component by component: out holds nine (theta, phi) arrays
    (a new (9, theta, phi) array when None). Returns x, u, v."""
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sf, cf = np.sin(phi), np.cos(phi)
    if out is None:
        out = np.empty((9, theta.size, phi.size))
    x0, x1, x2, u0, u1, u2, v0, v1, v2 = out
    for o, a, b in ((x0, st, cf), (x1, st, sf), (u0, ct, cf), (u1, ct, sf),
                    (v0, -st, sf), (v1, st, cf)):
        np.multiply(tau, np.multiply(a, b, out=o), out=o)
    np.multiply(tau, ct, out=x2)
    np.multiply(tau, -st, out=u2)
    v2[...] = tau * 0.0
    return out[0:3], out[3:6], out[6:9]


def theta_blocks(n_theta, n_phi, rows=_ARENA_ROWS):
    """Slices of the theta rows of a sphere pass whose nodes take `rows`
    arena rows each: as many theta rows per block as keep the arena within
    _ARENA_ROWS rows of _BLOCK_NODES nodes."""
    step = max(1, _ARENA_ROWS * _BLOCK_NODES // (rows * n_phi))
    return [slice(lo, lo + step) for lo in range(0, n_theta, step)]


def chart_rows(skip, tau, theta, phi, rate=False):
    """The radius-tau sphere on the theta x phi nodes in arena rows skip and
    up, above an evaluator's skip slots: x, u = d_theta x, v = d_phi x, and
    with rate their tau-derivatives chart / tau. Returns those 9 or 18 rows."""
    cols = expr.arena_rows(skip + 9 * (1 + rate), theta.size * phi.size)[skip:]
    _chart(tau, theta, phi, [c.reshape(theta.size, phi.size) for c in cols[:9]])
    if rate:
        np.divide(cols[:9], tau, out=cols[9:])
    return cols


def sphere_simpson(dens, theta, phi):
    """Simpson rule over phi, then over theta, of a density sampled on the
    (theta, phi) nodes of sphere_grid."""
    return float(simpson(simpson(dens, phi, axis=1), theta))


def sphere_quadrature(structure, nodes, theta, phi, rate=False):
    """Area of one sphere of a family and, with rate set, dA/dtau, from one
    pass over the (theta, phi) nodes of sphere_grid in blocks of theta rows.

    nodes(rows, rate) gives the chart x, u = d_theta x and v = d_phi x on
    theta[rows] x phi as (3, m) arrays, then with rate set x_t, u_t, v_t, their
    tau-derivatives. leaf_form_many turns each block into the density
    dens = -det(u, p, v)/|p|^2 and its derivative under the integral, by the
    chain rule with q = J_p(x) x_t:

        -(det(u_t, p, v) + det(u, q, v) + det(u, p, v_t) + 2 dens (p.q)) / |p|^2

    A non-finite density, Jacobian or rate density is a NumericalError.
    """
    vals = np.empty((1 + rate, theta.size, phi.size))
    for rows in theta_blocks(theta.size, phi.size):
        x, u, v, *moving = nodes(rows, rate)
        leaf_form_many(structure, x.T, u.T, v.T, [w.T for w in moving] if rate else None,
                       out=vals[:, rows].reshape(len(vals), -1))
    area = sphere_simpson(vals[0], theta, phi)
    return (area, sphere_simpson(vals[1], theta, phi)) if rate else area


def _sphere_area_once(family, tau, grid, rate=False):
    """sphere_quadrature of the family's sphere at tau on grid: the one entry
    through which every sphere area and dA/dtau is computed."""
    theta, phi = sphere_grid(*grid)
    return sphere_quadrature(family.structure, family._nodes(tau, theta, phi), theta, phi, rate)


class RadialSphereFamily:
    """Sphere leaves of a dim-3 structure, parametrized by radius, and the
    rules every sphere family shares: the radius guard, and the area check
    and the rate check under grid doubling.

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
        self.grid = tuple(grid or get_default("area_grid"))
        self.label = label or structure.label or "radial-family"

    def _radius(self, tau):
        tau = float(tau)
        if not 0.0 < tau < math.inf:
            raise ValidationError(f"sphere radius must be positive and finite, got {tau}")
        return tau

    def _nodes(self, tau, theta, phi):
        """The radius-tau sphere: d_tau = chart / tau. The chart goes into
        arena rows above those the kernel writes."""
        def nodes(rows, rate):
            cols = chart_rows(_sphere_kernel(self.structure, rate).slots, tau, theta[rows],
                              phi, rate)
            return [cols[k:k + 3] for k in range(0, len(cols), 3)]

        return nodes

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
    Everything but the radius guard and the chart nodes is the radial
    family's: the tau-derivatives of sigma, sigma_theta and sigma_phi are
    compiled beside the chart, so rows at the ends of tau_range need no
    samples outside it. Both write arena rows over the angle rows; their
    subtrees in tau alone are cut out (expr.split_free) and evaluated once
    per tau, into a new one-column array, by an evaluator beside each.
    """

    # perfbench's tracer wraps row_data in each family class's own namespace
    row_data = RadialSphereFamily.row_data

    def __init__(self, structure, sigma, tau_range, grid=None, label=None):
        super().__init__(structure, grid, label or "sigma-family")
        names = ("tau",) + _ANGLES
        parsed = expr.components(sigma, 0, symbols=names, params=structure.params,
                                 what="sigma", count=3)
        try:
            lo, hi = (float(v) for v in tau_range)
        except (TypeError, ValueError):
            raise ValidationError(f"tau_range must be a [lo, hi] pair, got {tau_range!r}")
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError(f"tau_range needs finite hi > lo, got [{lo:g}, {hi:g}]")
        self.sigma = parsed
        self.tau_range = (lo, hi)
        # sigma with its theta and phi tangents, then their tau-derivatives
        chart = parsed + [expr.differentiate_sym(c, a) for a in _ANGLES for c in parsed]
        self._fns = []
        for exprs in (chart, [expr.differentiate_sym(c, "tau") for c in chart]):
            free, rest = expr.split_free(exprs, "_tau", coords=_ANGLES)
            symbols = names + tuple(f"_tau{k}" for k in range(len(free)))
            self._fns.append((
                expr.compile_exprs_vec(free, symbols=("tau",), params=structure.params),
                expr.compile_exprs_vec(rest, symbols=symbols, params=structure.params)))

    def _radius(self, tau):
        tau = float(tau)
        lo, hi = self.tau_range
        if not lo <= tau <= hi:
            raise ValidationError(f"tau {tau:g} outside the family range [{lo:g}, {hi:g}]")
        return tau

    def _nodes(self, tau, theta, phi):
        """The chart at tau. Each block writes theta and phi into arena rows
        above the slots of the sphere kernel and of the chart evaluators,
        and copies the chart columns into the rows above those two."""
        def nodes(rows, rate):
            fns = self._fns[:1 + rate]
            skip = max(_sphere_kernel(self.structure, rate).slots, *(fn.slots for _, fn in fns))
            th = theta[rows]
            m = th.size * phi.size
            cols = expr.arena_rows(skip + 2 + 9 * len(fns), m)[skip:]
            angles = cols[:2]
            angles[0].reshape(th.size, phi.size)[...] = th[:, None]
            angles[1].reshape(th.size, phi.size)[...] = phi
            for k, (free, fn) in enumerate(fns):
                scalars = free(np.empty((0, 1)), tau)[:, 0]
                cols[2 + 9 * k:11 + 9 * k] = fn(angles, tau, *angles, *scalars,
                                                rows=expr.arena_rows(fn.slots, m))
            return [cols[k:k + 3] for k in range(2, len(cols), 3)]

        return nodes


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

    tau: float
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
    return AreaVariation(tau=tau, area=area, derivative=d, xi=xi,
                         zeta=zeta, base_point=x0)
