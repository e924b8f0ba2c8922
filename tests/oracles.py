"""Independent cross-checks used by the test suite.

The bracket oracles are assembled directly from raw entry dictionaries with
the expression layer only, deliberately bypassing the library's own bracket
and anchor code so the two can disagree. The tree-walk evaluator is the
reference value of an expression at a point: it walks the tree in Python
floats and math and refuses every non-finite intermediate, where the library
only compiles expressions (expr.compile_exprs, compile_exprs_vec) and checks
the values; the endpoint pairing ENDPOINT_SIGN * (h(end) - h(start)) of the
path tests goes through it. The variation reference keeps the
straightforward form of the family variation solve, so that the cached,
blocked library solve can be held to it bit for bit, knot for knot; the
invariance reference carries its flipped knots onto t by scipy's cubic
Hermite interpolant and evaluates over every node at once; its base comes
from the straightforward RK4 of the family base (the compiled generator and
sharp_many at every stage), not from the library's staged kernel. The
coupling factor E = (d_i Pi^(jk)) a_j comes by the variation batch's
retired route: dpi_many over every fine slice, a transposed copy, np.take
and an in-place product, which the fused kernel must match bit for bit. The
matrix fill writes pi_many and dpi_many entry by entry, the loop that the
flat scatters replaced. The matrix Lie path reference solves dg/dt = A(t) g
in a matrix realization, the group endpoint that the group-path family is
checked against. The tree-walk emitter compiles expressions with every
subtree written out where it occurs, the form the CSE emitter must reproduce
bit for bit. The area-derivative
stencil differentiates quadrature areas in tau, a route that never touches
the library's under-the-integral derivative. The sphere row
reference is the quadrature pass as it was before the fused sphere kernel:
separate evaluators for p and its Jacobian, np.cross, einsum and a
left-to-right det on fresh arrays, which the kernel must match bit for bit.
The curvature reference is the symbolic route of the curvature periods:
the round chart as expressions in theta and phi substituted into the
splitting (by substitute, the symbolic substitution that only this route
uses), alpha and beta differentiated in the angles and compiled with
them, the route that the pointwise curvature kernel replaced. The
whole-grid curvature route is curvature_periods before its block walk: the
same kernel writing a new array over every node at once and each check on
whole-grid arrays. The round chart is the hand-written polar chart that the
library's compiled round chart replaced: numpy products of sin and cos on
fresh arrays, which the curvature references take for their nodes. The
sigma nodes are the chart-family nodes before the arena: meshgrid angles
and evaluators writing new arrays. The transport references are RK4 on the
covector itself, step after step over transport's stage points, which its
product of step matrices must match, and scipy's DOP853 on the base and the
covector together from the generator, with no samples at all.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from poispath import expr
from poispath.config import get_default
from poispath.errors import EvalDomainError
from poispath.homotopy import InvarianceReport, _lie_derivative_upper
from poispath.paths import _SUBSTEPS, ENDPOINT_SIGN, differentiate_samples, hermite
from poispath.quadrature import simpson


def matrix_fill_reference(structure, xs):
    """pi_many and dpi_many at the points xs (m, n), filled one entry at a
    time from the compiled values: each upper entry and, negated, its
    partner."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    structure.pi_many(xs), structure.dpi_many(xs)  # both evaluators compiled
    values, dvalues = structure._evaluators["pi"](xs.T), structure._evaluators["dpi"](xs.T)
    P, D = np.zeros((m, n, n)), np.zeros((m, n, n, n))
    for row, (i, j) in enumerate(structure._upper):
        P[:, i - 1, j - 1] = values[row]
        P[:, j - 1, i - 1] = -values[row]
        for l in range(n):
            D[:, l, i - 1, j - 1] = dvalues[row * n + l]
            D[:, l, j - 1, i - 1] = -dvalues[row * n + l]
    return P, D


def entry(pi, i, j, dim, params=()):
    """Pi^(ij) from a raw {(i,j): source} dict, antisymmetry applied."""
    if i == j:
        return expr.Num(0.0)
    if (i, j) in pi:
        return _parse(pi[(i, j)], dim, params)
    if (j, i) in pi:
        return expr.neg(_parse(pi[(j, i)], dim, params))
    return expr.Num(0.0)


def _parse(source, dim, params):
    if isinstance(source, expr.Expression):
        return source
    return expr.parse(str(source), dim, params=tuple(params))


def sharp_exprs(pi, dim, alpha, params=()):
    """(#alpha)^k = Pi^(jk) alpha_j, components as Expressions."""
    out = []
    for k in range(1, dim + 1):
        total = expr.Num(0.0)
        for j in range(1, dim + 1):
            total = expr.add(total, expr.mul(entry(pi, j, k, dim, params), alpha[j - 1]))
        out.append(total)
    return out


def lie_derivative_one_form(field, omega, dim):
    """(L_X w)_i = X^j d_j w_i + w_j d_i X^j for expression components."""
    out = []
    for i in range(1, dim + 1):
        total = expr.Num(0.0)
        for j in range(1, dim + 1):
            total = expr.add(total, expr.mul(field[j - 1], expr.differentiate(omega[i - 1], j)))
            total = expr.add(total, expr.mul(omega[j - 1], expr.differentiate(field[j - 1], i)))
        out.append(total)
    return out


def pairing_expr(pi, dim, alpha, beta, params=()):
    """Pi(alpha, beta) = Pi^(jk) alpha_j beta_k as an Expression."""
    total = expr.Num(0.0)
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            total = expr.add(
                total,
                expr.mul(entry(pi, j, k, dim, params),
                         expr.mul(alpha[j - 1], beta[k - 1])))
    return total


def koszul_bracket_oracle(pi, dim, alpha, beta, params=()):
    """Bracket of 1-forms assembled as

        L_(#alpha) beta - L_(#beta) alpha - d(Pi(alpha, beta)),

    returned as component Expressions. This is the defining formula; the
    library implements the expanded pointwise version.
    """
    sharp_a = sharp_exprs(pi, dim, alpha, params)
    sharp_b = sharp_exprs(pi, dim, beta, params)
    first = lie_derivative_one_form(sharp_a, beta, dim)
    second = lie_derivative_one_form(sharp_b, alpha, dim)
    pairing = pairing_expr(pi, dim, alpha, beta, params)
    out = []
    for i in range(1, dim + 1):
        total = expr.sub(first[i - 1], second[i - 1])
        total = expr.sub(total, expr.differentiate(pairing, i))
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# the tree-walk evaluator

def evaluate(e, point=(), env=None):
    """Evaluate at a point, with parameters and extra symbols bound in env,
    by walking the tree: the reference that the compiled evaluators of expr
    must match bit for bit.

    Non-finite intermediates (poles, log of a non-positive number, overflow)
    raise EvalDomainError instead of propagating silently, which is stricter
    than the compiled evaluators: they check only where a float operation
    raises, and their callers check the values.
    """
    env = env or {}

    def walk(node):
        if isinstance(node, expr.Num):
            return node.value
        if isinstance(node, expr.Var):
            if node.index > len(point):
                raise EvalDomainError(
                    f"point has {len(point)} coordinates, expression uses x{node.index}")
            return float(point[node.index - 1])
        if isinstance(node, expr.Sym):
            try:
                return float(env[node.name])
            except KeyError:
                raise EvalDomainError(f"unbound parameter {node.name!r}") from None
        if isinstance(node, expr.Add):
            return _check(walk(node.left) + walk(node.right), node)
        if isinstance(node, expr.Sub):
            return _check(walk(node.left) - walk(node.right), node)
        if isinstance(node, expr.Mul):
            return _check(walk(node.left) * walk(node.right), node)
        if isinstance(node, expr.Div):
            denom = walk(node.right)
            if denom == 0.0:
                raise EvalDomainError(f"division by zero in {expr.to_source(node)}")
            return _check(walk(node.left) / denom, node)
        if isinstance(node, expr.Pow):
            base = walk(node.base)
            try:
                value = base ** node.exponent
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise EvalDomainError(
                    f"power domain error in {expr.to_source(node)}: {exc}") from None
            if isinstance(value, complex):
                raise EvalDomainError(
                    f"negative base with fractional exponent in {expr.to_source(node)}")
            return _check(value, node)
        if isinstance(node, expr.Neg):
            return -walk(node.operand)
        if isinstance(node, expr.Call):
            arg = walk(node.arg)
            try:
                value = getattr(math, node.func)(arg)
            except (ValueError, OverflowError) as exc:
                raise EvalDomainError(f"domain error in {expr.to_source(node)}: {exc}") from None
            return _check(value, node)
        raise TypeError(f"not an expression: {node!r}")

    def _check(value, node):
        if not math.isfinite(value):
            raise EvalDomainError(f"non-finite value in {expr.to_source(node)}")
        return value

    return walk(e)


def endpoint_pairing(path, h):
    """ENDPOINT_SIGN * (h at the far end minus h at the start), by the tree
    walk: the right side of the endpoint identity that the path integral of
    the Hamiltonian field of h satisfies."""
    structure = path.structure
    h_expr = expr.as_expression(h, structure.dim, params=structure.params)
    env = dict(structure.params)
    return ENDPOINT_SIGN * (evaluate(h_expr, path.end, env) - evaluate(h_expr, path.start, env))


def _tree_walk_code(e, params):
    if isinstance(e, expr.Num):
        return f"({e.value!r})"
    if isinstance(e, expr.Var):
        return f"x[{e.index - 1}]"
    if isinstance(e, expr.Sym):
        if params is not None and e.name in params:
            return f"({float(params[e.name])!r})"
        return f"_s_{e.name}"
    if isinstance(e, (expr.Add, expr.Sub, expr.Mul, expr.Div)):
        return f"({_tree_walk_code(e.left, params)} {e.op} {_tree_walk_code(e.right, params)})"
    if isinstance(e, expr.Pow):
        return f"({_tree_walk_code(e.base, params)} ** ({e.exponent!r}))"
    if isinstance(e, expr.Neg):
        return f"(-{_tree_walk_code(e.operand, params)})"
    if isinstance(e, expr.Call):
        return f"_f_{e.func}({_tree_walk_code(e.arg, params)})"
    raise TypeError(f"not an expression: {e!r}")


TREE_WALK_FUNCS = {
    "scalar": {"sin": math.sin, "cos": math.cos, "exp": math.exp,
               "log": math.log, "sqrt": math.sqrt, "atan": math.atan},
    "vector": {"sin": np.sin, "cos": np.cos, "exp": np.exp,
               "log": np.log, "sqrt": np.sqrt, "atan": np.arctan},
}


def tree_walk_compile(exprs, symbols=(), params=None, kind="scalar"):
    """f(x, *symbol_values) -> tuple of values, each expression emitted as
    one nested Python expression with no shared subtree."""
    args = ", ".join(["x"] + [f"_s_{name}" for name in symbols])
    body = ", ".join(_tree_walk_code(e, params) for e in exprs)
    source = f"def _compiled({args}):\n    return ({body}{',' if len(exprs) == 1 else ''})\n"
    namespace = {f"_f_{name}": fn for name, fn in TREE_WALK_FUNCS[kind].items()}
    exec(source, namespace)
    return namespace["_compiled"]


def base_reference(family, eps):
    """(gamma, a, d_eps_a) of a family over the given eps slices by RK4 of
    gamma' = #alpha, with the compiled generator and sharp_many at every
    stage over row-major (M, n) states."""
    S = family.structure
    gen = expr.compile_exprs_vec(family.generator, symbols=("t", "eps"),
                                 params=S.params)
    n, N = S.dim, family.t_intervals
    t, h = family.t, 1.0 / N
    starts = family.start_points(eps)
    gamma = np.empty((len(eps), N + 1, n))
    gamma[:, 0] = starts
    state = starts.copy()

    def rhs(tv, y):
        return S.sharp_many(y, gen(y.T, tv, eps).T)

    for i in range(N):
        tv = t[i]
        k1 = rhs(tv, state)
        k2 = rhs(tv + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(tv + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(tv + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gamma[:, i + 1] = state
    a = np.empty_like(gamma)
    for m in range(len(eps)):
        a[m] = gen(gamma[m].T, t, eps[m]).T
    return gamma, a, differentiate_samples(a, eps[1] - eps[0])


def coupling_factor(D, a, rows):
    """E[..., j, k, i, r] = (d_i Pi^(jk)) a_j, the first product that
    coupling_many's einsum forms, from D[..., m, i, j, k] at the points
    m = rows[r] and a[..., j, r]: D moved to (j, k, i, m) by a transposed
    copy, gathered by np.take and multiplied by a in place. One node's
    (n, n, n, R) block is contiguous."""
    E = np.take(np.ascontiguousarray(np.moveaxis(D, (-4, -3), (-1, -2))), rows, axis=-1)
    E *= a[..., :, None, None, :]
    return E


def block_factors_reference(structure, gamma_f, a_f, rows, span):
    """E of homotopy._block_factors by the retired route: one dpi_many call
    over every fine slice at the t nodes of span (node-major points), filled
    by PoissonStructure._fill, then coupling_factor at the given rows;
    (nodes, n, n, n, R)."""
    n = gamma_f.shape[2]
    nodes = gamma_f[0, span].shape[0]
    D = structure.dpi_many(gamma_f[:, span].transpose(1, 0, 2).reshape(-1, n))
    return coupling_factor(D.reshape(nodes, -1, n, n, n), a_f[rows, span].transpose(1, 2, 0),
                           rows)


def variation_field_reference(structure, t, gamma, a, d_eps_a, sign):
    """RK4 for db/dt = da/deps + sign (d_i Pi^(jk)) a_j b_k, two grid cells
    per step, with the coupling (one dpi_many call) at every stage; returns
    the knots on t[::2], (M, N/2 + 1, n)."""
    M, nodes, n = gamma.shape
    N = nodes - 1
    h = t[1] - t[0]
    coarse = np.empty((M, N // 2 + 1, n))
    coarse[:, 0] = 0.0
    cur = np.zeros((M, n))

    def rhs(node, b):
        return d_eps_a[:, node] + sign * structure.coupling_many(
            gamma[:, node], a[:, node], b)

    for i in range(0, N, 2):
        k1 = rhs(i, cur)
        k2 = rhs(i + 1, cur + h * k1)
        k3 = rhs(i + 1, cur + h * k2)
        k4 = rhs(i + 2, cur + 2.0 * h * k3)
        cur = cur + (h / 3.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        coarse[:, i // 2 + 1] = cur
    return coarse


def variation_reference(family, signs=(1.0, -1.0)):
    """Base arrays (from base_reference) and variation fields of a family,
    with the coarse and the halved-step eps grids solved separately.

    Returns (gamma, a, d_eps_a, fields) over family.eps, where fields[sign]
    is (b, b_fine, resolution_change) and b_fine lives on
    linspace(eps[0], eps[-1], 2M - 1).
    """
    S, t, eps = family.structure, family.t, family.eps
    gamma, a, d_eps_a = base_reference(family, eps)
    eps_fine = np.linspace(eps[0], eps[-1], 2 * len(eps) - 1)
    gamma_f, a_f, d_eps_a_f = base_reference(family, eps_fine)
    fields = {}
    for sign in signs:
        b = variation_field_reference(S, t, gamma, a, d_eps_a, sign)
        b_fine = variation_field_reference(S, t, gamma_f, a_f, d_eps_a_f, sign)
        delta = float(np.max(np.abs(b_fine[::2, -1] - b[:, -1])))
        floor = 1e-8 * max(1.0, float(np.max(np.abs(a))))
        change = delta / max(float(np.max(np.abs(b_fine[:, -1]))), floor)
        fields[sign] = (b, b_fine, change)
    return gamma, a, d_eps_a, fields


def invariance_reference(structure, t, eps, gamma, a, d_eps_a, knots, field):
    """The five numbers of homotopy.invariance_report from reference arrays:
    the flipped field's knots (from variation_field_reference) carried onto
    t by scipy's CubicHermiteSpline, with slopes db/dt = da/deps -
    coupling_many(gamma, a, b) at the knots over every slice at once (the
    report takes them from the derivative stencil over the knots), and
    X and L_X Pi evaluated over every node at once."""
    M, nodes, n = gamma.shape
    coupling = structure.coupling_many(gamma[:, ::2].reshape(-1, n), a[:, ::2].reshape(-1, n),
                                       knots.reshape(-1, n)).reshape(knots.shape)
    b = CubicHermiteSpline(t[::2], knots, d_eps_a[:, ::2] - coupling, axis=1)(t)
    b[:, ::2] = knots
    X = expr.components(field, n, params=structure.params)
    flat = gamma.reshape(M * nodes, n).T
    X_vals = expr.compile_exprs_vec(X, params=structure.params)(flat).T.reshape(M, nodes, n)
    line = simpson(np.einsum("mti,mti->mt", a, X_vals), t, axis=1)
    lhs = float(line[-1] - line[0])
    endpoint = float(simpson(np.einsum("mi,mi->m", knots[:, -1], X_vals[:, -1]), eps))
    lx = expr.compile_exprs_vec(_lie_derivative_upper(structure, X), params=structure.params)
    lx = lx(flat).T.reshape(M, nodes, -1)
    density = np.zeros((M, nodes))
    col = 0
    for j in range(n):
        for k in range(j + 1, n):
            density += lx[:, :, col] * (a[:, :, j] * b[:, :, k] - a[:, :, k] * b[:, :, j])
            col += 1
    bulk = float(simpson(simpson(density, t, axis=1), eps))
    return InvarianceReport(lhs=lhs, endpoint_term=endpoint, bulk_term=bulk,
                            residual=abs(lhs - endpoint - bulk),
                            max_transport_endpoint=float(
                                np.max(np.linalg.norm(knots[:, -1], axis=1))))


def transport_rk4_reference(path, s0):
    """s(1) of the path's transport by RK4 on the covector itself, one step
    after the other in time order, _SUBSTEPS steps per interval: each stage
    finds its Hermite piece from its time t as int(t N) and takes
    coupling_many at that one point, where transport multiplies step
    matrices by a tree."""
    S, N = path.structure, path.n_intervals
    n = S.dim
    xa = np.hstack([path.gamma, path.a])
    c0, c1, c2, c3 = hermite(xa)

    def rhs(t, s):
        i = min(int(t * N), N - 1)
        u = t * N - i
        x = c0[i] + u * (c1[i] + u * (c2[i] + u * c3[i]))
        return -S.coupling_many(x[None, :n], x[None, n:], s[None, :])[0]

    s, h = np.asarray(s0, dtype=float), 1.0 / (_SUBSTEPS * N)
    for step in range(_SUBSTEPS * N):
        t = step * h
        k1 = rhs(t, s)
        k2 = rhs(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def transport_dop853_reference(structure, generator, x0, s0):
    """s(1) with the base and the covector integrated together from the
    generator a(t, x) by scipy's DOP853 at rtol = atol = 1e-13:
    gamma' = #a, s_i' = -(d_i Pi^(jk)) a_j s_k. No samples, no interpolant."""
    n = structure.dim
    a_exprs = expr.components(generator, n, symbols=("t",), params=structure.params,
                              what="covector")
    a_fn = expr.compile_exprs(a_exprs, symbols=("t",), params=structure.params)

    def rhs(t, y):
        x, a, s = y[None, :n], np.asarray(a_fn(y[:n], t), dtype=float)[None], y[None, n:]
        return np.concatenate([structure.sharp_many(x, a)[0],
                               -structure.coupling_many(x, a, s)[0]])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x0, s0]).astype(float),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    return sol.y[n:, -1]


def matrix_lie_path_reference(basis, coeffs, n_steps):
    """g(1) for dg/dt = A(t) g, g(0) = I, A(t) = sum_k c_k(t) E_k, from
    coefficient samples coeffs (m >= 4, k) on a uniform grid over [0, 1]
    and the matrices E_k of basis (k, d, d): n_steps written-out RK4 steps,
    A(t + h/2) formed once for k2 and k3, scipy's spline through the
    coefficients, and the polar snap every hundred steps for an
    anti-Hermitian basis."""
    basis = np.asarray(basis)
    interp = CubicSpline(np.linspace(0.0, 1.0, len(coeffs)), coeffs)
    anti_hermitian = all(
        np.max(np.abs(E + E.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(E)))
        for E in basis)

    def A(t):
        return np.einsum("k,kij->ij", interp(t), basis)

    g = np.eye(basis.shape[1], dtype=complex if np.iscomplexobj(basis) else float)
    h = 1.0 / n_steps
    for step in range(n_steps):
        t = step * h
        k1 = A(t) @ g
        half = A(t + 0.5 * h)
        k2 = half @ (g + 0.5 * h * k1)
        k3 = half @ (g + 0.5 * h * k2)
        k4 = A(t + h) @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if anti_hermitian and (step + 1) % 100 == 0:
            U, _, Vh = np.linalg.svd(g)
            g = U @ Vh
    return g


def stencil_area_derivative(area, tau, step=1e-3):
    """dA/dtau by the fourth-order central stencil on area(tau + k step),
    k = -2, -1, 1, 2, for any callable tau -> area."""
    a = [area(tau + k * step) for k in (-2, -1, 1, 2)]
    return (a[0] - 8.0 * a[1] + 8.0 * a[2] - a[3]) / (12.0 * step)


def round_chart(tau, theta, phi, out=None):
    """The radius-tau sphere x, u = d_theta x and v = d_phi x on the theta x
    phi nodes, component by component, with numpy on fresh products: out
    holds nine (theta, phi) arrays (a new (9, theta, phi) array when None).
    Returns x, u, v. The library's round chart must match it bit for bit."""
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


def _reference_blocks(theta, phi):
    """Slices of theta rows of about _BLOCK_NODES nodes each."""
    from poispath.connection import _BLOCK_NODES

    step = max(1, _BLOCK_NODES // phi.size)
    return [slice(lo, lo + step) for lo in range(0, theta.size, step)]


def radial_nodes(tau, theta, phi, rate):
    """The blocks of the radius-tau sphere for sphere_row_reference: each
    block's slice of theta and its columns as (9, m) or with rate (18, m)
    rows, the polar chart by broadcasting, and with rate its exact
    tau-derivatives: the unit chart."""
    for rows in _reference_blocks(theta, phi):
        st, ct = np.sin(theta[rows])[:, None], np.cos(theta[rows])[:, None]
        sf, cf = np.sin(phi), np.cos(phi)
        shape = (st.size, phi.size)
        unit = [np.stack([st * cf, st * sf, np.broadcast_to(ct, shape)]),
                np.stack([ct * cf, ct * sf, np.broadcast_to(-st, shape)]),
                np.stack([-st * sf, st * cf, np.zeros(shape)])]
        cols = [tau * c for c in unit] + (unit if rate else [])
        yield rows, np.concatenate([c.reshape(3, -1) for c in cols])


def _det(a, b, c):
    """det(a, b, c) = a . (b x c) for each column of (3, m) arrays."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def sphere_row_reference(structure, nodes, theta, phi, rate=False):
    """Area and, with rate, dA/dtau of a sphere as sphere_quadrature's pass
    computed them with numpy temporaries, over the same blocks of theta rows:

        dens = -einsum(cross(u, p), v) / |p|^2
        rate = -(det(u_t, p, v) + det(u, q, v) + det(u, p, v_t)
                 + 2 dens (p.q)) / |p|^2,   q = einsum(J_p, x_t)

    with p and J_p from their own compiled evaluators. nodes yields each
    block's slice of theta and its columns, as sphere_quadrature's do. No
    checks."""
    from poispath.connection import sphere_simpson

    comps = [structure.entry(2, 3), structure.entry(3, 1), structure.entry(1, 2)]
    p_fn = expr.compile_exprs_vec(comps, params=structure.params)
    jac_fn = expr.compile_exprs_vec([expr.differentiate(c, j) for c in comps for j in (1, 2, 3)],
                                    params=structure.params)
    dens = np.empty((theta.size, phi.size))
    drate = np.empty_like(dens)
    for rows, cols in nodes:
        x, u, v, *moving = (cols[k:k + 3] for k in range(0, len(cols), 3))
        p = p_fn(x)
        pr = p.T
        nrm2 = np.einsum("mi,mi->m", pr, pr)
        d = -np.einsum("mi,mi->m", np.cross(u.T, pr), v.T) / nrm2
        dens[rows] = d.reshape(-1, phi.size)
        if rate:
            x_t, u_t, v_t = moving
            q = np.einsum("ijm,jm->im", jac_fn(x).reshape(3, 3, -1), x_t)
            r = -(_det(u_t, p, v) + _det(u, q, v) + _det(u, p, v_t)
                  + 2.0 * d * np.einsum("im,im->m", p, q)) / np.einsum("im,im->m", p, p)
            drate[rows] = r.reshape(-1, phi.size)
    area = sphere_simpson(dens, theta, phi)
    return (area, sphere_simpson(drate, theta, phi)) if rate else area


def substitute(e, var_map=None, sym_map=None):
    """Replace coordinates and/or named symbols by expressions.

    ``var_map`` maps 1-based coordinate indices to Expressions, ``sym_map``
    maps symbol names to Expressions. Rebuilds through the folding
    constructors, so substituting constants simplifies the tree.
    """
    var_map = var_map or {}
    sym_map = sym_map or {}

    def walk(node):
        if isinstance(node, expr.Num):
            return node
        if isinstance(node, expr.Var):
            return var_map.get(node.index, node)
        if isinstance(node, expr.Sym):
            return sym_map.get(node.name, node)
        if isinstance(node, expr.Add):
            return expr.add(walk(node.left), walk(node.right))
        if isinstance(node, expr.Sub):
            return expr.sub(walk(node.left), walk(node.right))
        if isinstance(node, expr.Mul):
            return expr.mul(walk(node.left), walk(node.right))
        if isinstance(node, expr.Div):
            return expr.div(walk(node.left), walk(node.right))
        if isinstance(node, expr.Pow):
            return expr.powc(walk(node.base), node.exponent)
        if isinstance(node, expr.Neg):
            return expr.neg(walk(node.operand))
        if isinstance(node, expr.Call):
            return expr.call(node.func, walk(node.arg))
        raise TypeError(f"not an expression: {node!r}")

    return walk(e)


def curvature_reference(structure, splitting, tau):
    """curvature_periods by substitution of the symbolic round chart into
    the splitting M and differentiation in theta and phi:

        Omega = -(d_theta beta - d_phi alpha + D(alpha, beta)),

    alpha = M sigma_theta and beta = M sigma_phi as expressions in the
    angles. Same grid, checks and Simpson rule as the library route."""
    from poispath.connection import sphere_grid, sphere_simpson
    from poispath.errors import NumericalError, ValidationError
    from poispath.monodromy import CurvatureResult

    tau = float(tau)
    M = [expr.components(row, 3, params=structure.params) for row in splitting]
    n_theta, n_phi = get_default("area_grid")

    th, ph = expr.Sym("theta"), expr.Sym("phi")
    st, ct = expr.call("sin", th), expr.call("cos", th)
    sf, cf = expr.call("sin", ph), expr.call("cos", ph)
    r = expr.Num(tau)
    sigma = [expr.mul(r, expr.mul(st, cf)), expr.mul(r, expr.mul(st, sf)), expr.mul(r, ct)]
    var_map = {1: sigma[0], 2: sigma[1], 3: sigma[2]}
    dsig = {
        "theta": [expr.differentiate_sym(s, "theta") for s in sigma],
        "phi": [expr.differentiate_sym(s, "phi") for s in sigma],
    }
    M_chart = [[substitute(M[i][j], var_map=var_map) for j in range(3)]
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
            dentry = substitute(expr.differentiate(entry, i), var_map=var_map)
            pair = expr.sub(expr.mul(alpha[j - 1], beta[k - 1]),
                            expr.mul(alpha[k - 1], beta[j - 1]))
            coupling = expr.add(coupling, expr.mul(dentry, pair))
        curl = expr.sub(expr.differentiate_sym(beta[i - 1], "theta"),
                        expr.differentiate_sym(alpha[i - 1], "phi"))
        omega.append(expr.neg(expr.add(curl, coupling)))

    theta, phi = sphere_grid(n_theta, n_phi)
    x, dth, dph = round_chart(tau, theta, phi)
    shape = x.shape[1:]
    pts = x.reshape(3, -1)
    m = pts.shape[1]
    T, F = (a.ravel() for a in np.meshgrid(theta, phi, indexing="ij"))

    params = structure.params
    dummy = np.zeros((1, m))
    omega_fn = expr.compile_exprs_vec(omega, symbols=("theta", "phi"), params=params)
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

    # radially aligned unit kernel covector, p = (Pi^23, Pi^31, Pi^12)
    p_exprs = [structure.entry(2, 3), structure.entry(3, 1), structure.entry(1, 2)]
    p = expr.compile_exprs_vec(p_exprs, params=params)(pts).T
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
    return CurvatureResult(integral=integral, center_residual=center_res,
                           splitting_residual=split_res)


def curvature_whole_grid(structure, splitting, tau):
    """curvature_periods as one pass over the whole grid, the route before
    the block walk: the chart on fresh (9, theta, phi) arrays, the curvature
    expressions in plain rendering over every node at once, then each check
    on whole-grid arrays, raising as soon as it fails. The library's walk
    must match it bit for bit, in values and in the error it raises."""
    from poispath.connection import RadialSphereFamily, sphere_grid, sphere_simpson
    from poispath.errors import NumericalError, ValidationError
    from poispath.monodromy import CurvatureResult, _curvature_exprs, _parse_splitting

    tau = RadialSphereFamily(structure)._radius(tau)
    M = _parse_splitting(splitting, structure)
    theta, phi = sphere_grid(*get_default("area_grid"))
    cols = np.empty((9, theta.size, phi.size))
    pts, dth, dph = (c.reshape(3, -1).T for c in round_chart(tau, theta, phi, cols))
    kernel = expr.compile_exprs_vec(_curvature_exprs(structure, M), params=structure.params)
    with np.errstate(all="ignore"):
        values = kernel(cols.reshape(9, -1))
    Om, alpha, beta = (values[k:k + 3].T for k in (0, 3, 6))
    if not np.all(np.isfinite(Om)):
        raise NumericalError("curvature is not finite on the leaf")

    with np.errstate(all="ignore"):
        P = structure.pi_many(pts)
        errs = []
        for v, w in ((dth, alpha), (dph, beta)):
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

    with np.errstate(all="ignore"):
        sharp_om = np.einsum("mjk,mj->mk", P, Om)
        om_scale = max(1.0, float(np.max(np.abs(Om))))
        center_res = float(np.max(np.linalg.norm(sharp_om, axis=1))) / om_scale
    if not np.isfinite(center_res):
        raise NumericalError("curvature center residual is not finite on the leaf")
    if not (center_res <= 1e-8):
        raise ValidationError(
            f"curvature is not kernel-valued (residual {center_res:.3e}); "
            f"refusing to project it")

    p = P[:, [1, 2, 0], [2, 0, 1]]
    pn = np.linalg.norm(p, axis=1)
    if np.any(pn <= 0):
        raise ValidationError("structure degenerate on the leaf")
    with np.errstate(all="ignore"):
        zeta = p / pn[:, None]
        align = np.einsum("mi,mi->m", zeta, pts / tau)
    if np.any(np.abs(align) < 0.1):
        raise ValidationError("kernel direction nearly tangent to the sphere; "
                              "chart is not following the leaves")
    zeta *= np.sign(align)[:, None]

    with np.errstate(all="ignore"):
        dens = np.einsum("mi,mi->m", Om, zeta).reshape(theta.size, phi.size)
    if not np.all(np.isfinite(dens)):
        raise NumericalError("curvature density is not finite on the leaf")
    integral = sphere_simpson(dens, theta, phi)
    return CurvatureResult(integral=integral, center_residual=center_res,
                           splitting_residual=split_res)


def sigma_nodes(family, tau, theta, phi, rate, skip):
    """SigmaSphereFamily._nodes as it was before the arena: theta and phi
    from np.meshgrid, and the chart and its tau-derivatives from two
    evaluators writing new arrays over a zero dummy x, with tau passed in as
    the scalar it is. The columns are new arrays, so skip is not read."""
    names = ("tau", "theta", "phi")
    chart = family.sigma + [expr.differentiate_sym(c, a) for a in names[1:] for c in family.sigma]
    fns = [expr.compile_exprs_vec(e, symbols=names, params=family.structure.params)
           for e in (chart, [expr.differentiate_sym(c, "tau") for c in chart])]
    for rows in _reference_blocks(theta, phi):
        T, F = (a.ravel() for a in np.meshgrid(theta[rows], phi, indexing="ij"))
        dummy = np.zeros((1, T.size))
        yield rows, np.concatenate([fn(dummy, tau, T, F) for fn in fns[:1 + rate]])
