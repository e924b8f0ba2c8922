"""Independent cross-checks used by the test suite.

The bracket oracles are assembled directly from raw entry dictionaries with
the expression layer only, deliberately bypassing the library's own bracket
and anchor code so the two can disagree. The variation reference keeps the
straightforward form of the family variation solve, so that the cached,
blocked library solve can be held to it bit for bit. The area-derivative
stencil differentiates quadrature areas in tau, a route that never touches
the library's under-the-integral derivative.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from poispath import expr


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


def variation_field_reference(structure, t, gamma, a, d_eps_a, sign):
    """RK4 for db/dt = da/deps + sign (d_i Pi^(jk)) a_j b_k, two grid cells
    per step, with the coupling (one dpi_many call) at every stage."""
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
    b = CubicSpline(t[::2], coarse, axis=1)(t)
    b[:, 0] = 0.0
    return b


def variation_reference(family, signs=(1.0, -1.0)):
    """Base arrays and variation fields of a family, with the coarse and the
    halved-step eps grids solved separately.

    Returns (gamma, a, d_eps_a, fields) over family.eps, where fields[sign]
    is (b, b_fine, resolution_change) and b_fine lives on
    linspace(eps[0], eps[-1], 2M - 1).
    """
    S, t, eps = family.structure, family.t, family.eps
    gamma, a, d_eps_a = family._solve_on(eps)
    eps_fine = np.linspace(eps[0], eps[-1], 2 * len(eps) - 1)
    gamma_f, a_f, d_eps_a_f = family._solve_on(eps_fine)
    fields = {}
    for sign in signs:
        b = variation_field_reference(S, t, gamma, a, d_eps_a, sign)
        b_fine = variation_field_reference(S, t, gamma_f, a_f, d_eps_a_f, sign)
        delta = float(np.max(np.abs(b_fine[::2, -1] - b[:, -1])))
        floor = 1e-8 * max(1.0, float(np.max(np.abs(a))))
        change = delta / max(float(np.max(np.abs(b_fine[:, -1]))), floor)
        fields[sign] = (b, b_fine, change)
    return gamma, a, d_eps_a, fields


def stencil_area_derivative(area, tau, step=1e-3):
    """dA/dtau by the fourth-order central stencil on area(tau + k step),
    k = -2, -1, 1, 2, for any callable tau -> area."""
    a = [area(tau + k * step) for k in (-2, -1, 1, 2)]
    return (a[0] - 8.0 * a[1] + 8.0 * a[2] - a[3]) / (12.0 * step)
