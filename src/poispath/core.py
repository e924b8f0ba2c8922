"""Poisson structures given by coordinate expressions.

A structure on R^n is stored as its strictly upper-triangular entries
Pi^(ij), i < j, each a scalar expression in x1..xn (parameters allowed).
The anchor follows the convention

    (#alpha)^k = Pi^(jk) alpha_j,

so the Hamiltonian field of f is X_f = #df and X_f(g) = {f, g}.

Numeric entry points (pi_many, dpi_many, sharp_many, coupling_many,
jacobi_tensor_many) are vectorized over batches of points; the symbolic ones
(bracket_functions, hamiltonian_field, bracket_one_forms) return expression
trees for further differentiation or compilation.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import expr
from .errors import ValidationError, require_finite, require_within
from .config import get_default


class PoissonStructure:
    def __init__(self, dim, pi, params=None, label=None):
        """Args:
            dim: dimension n of the underlying space.
            pi: mapping {(i, j): entry} with 1 <= i < j <= n; entries are
                expression source strings, Expression trees, or numbers.
                Omitted pairs are zero.
            params: {name: float} bound into the entries.
            label: optional display name.
        """
        dim = int(dim)
        if dim < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.params = {str(k): float(v) for k, v in (params or {}).items()}
        self.label = label
        upper = {}
        for key, value in pi.items():
            i, j = int(key[0]), int(key[1])
            if not (1 <= i < j <= dim):
                raise ValidationError(
                    f"entry index ({i},{j}) is not strictly upper triangular in dim {dim}")
            if (i, j) in upper:
                raise ValidationError(f"duplicate entry for ({i},{j})")
            upper[(i, j)] = expr.as_expression(value, dim, params=self.params)
        self._upper = {k: upper[k] for k in sorted(upper)}
        self._evaluators = {}

    # -- symbolic access ----------------------------------------------------

    def upper_entries(self):
        """Sorted ((i, j), Expression) pairs, i < j, zero entries omitted."""
        return list(self._upper.items())

    def entry(self, i, j):
        """Pi^(ij) as an Expression for any index pair, sign included."""
        if i == j:
            return expr.Num(0.0)
        if (i, j) in self._upper:
            return self._upper[(i, j)]
        if (j, i) in self._upper:
            return expr.neg(self._upper[(j, i)])
        return expr.Num(0.0)

    def entry_derivative(self, l, i, j):
        """d Pi^(ij) / d x_l as an Expression."""
        return expr.differentiate(self.entry(i, j), l)

    def sharp_form(self, alpha):
        """Apply the anchor to a 1-form given as component Expressions."""
        n = self.dim
        out = []
        for k in range(1, n + 1):
            total = expr.Num(0.0)
            for j in range(1, n + 1):
                total = expr.add(total, expr.mul(self.entry(j, k), alpha[j - 1]))
            out.append(total)
        return out

    def bracket_functions(self, f, g):
        """{f, g} = Pi^(jk) d_j f d_k g as an Expression."""
        total = expr.Num(0.0)
        for (i, j), entry in self._upper.items():
            df_i, df_j = expr.differentiate(f, i), expr.differentiate(f, j)
            dg_i, dg_j = expr.differentiate(g, i), expr.differentiate(g, j)
            total = expr.add(
                total,
                expr.mul(entry, expr.sub(expr.mul(df_i, dg_j), expr.mul(df_j, dg_i))))
        return total

    def hamiltonian_field(self, h):
        """Components of X_h = #dh as Expressions."""
        dh = [expr.differentiate(h, i) for i in range(1, self.dim + 1)]
        return self.sharp_form(dh)

    def bracket_one_forms(self, alpha, beta):
        """Bracket of 1-forms, components as Expressions:

            [a, b]_i = (#a)^j d_j b_i - (#b)^j d_j a_i + (d_i Pi^(jk)) a_j b_k.

        Components may carry extra symbols (a time variable, say); only the
        coordinate dependence is differentiated.
        """
        n = self.dim
        if len(alpha) != n or len(beta) != n:
            raise ValidationError(
                f"form components must have length {n}, got {len(alpha)} and {len(beta)}")
        sharp_a = self.sharp_form(alpha)
        sharp_b = self.sharp_form(beta)
        out = []
        for i in range(1, n + 1):
            total = expr.Num(0.0)
            for j in range(1, n + 1):
                total = expr.add(total, expr.mul(sharp_a[j - 1], expr.differentiate(beta[i - 1], j)))
                total = expr.sub(total, expr.mul(sharp_b[j - 1], expr.differentiate(alpha[i - 1], j)))
            for (j, k), entry in self._upper.items():
                pair = expr.sub(
                    expr.mul(alpha[j - 1], beta[k - 1]),
                    expr.mul(alpha[k - 1], beta[j - 1]))
                total = expr.add(total, expr.mul(expr.differentiate(entry, i), pair))
            out.append(total)
        return out

    # -- numeric access -----------------------------------------------------

    def evaluator(self, key, build):
        """The evaluator of the expressions build() returns, compiled once per
        key and kept on the structure, so it dies with it: "pi", "dpi" and the
        sphere, Jacobian and curvature kernels of connection and monodromy."""
        if key not in self._evaluators:
            self._evaluators[key] = expr.compile_exprs_vec(build(), params=self.params)
        return self._evaluators[key]

    def _points(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != self.dim:
            raise ValidationError(f"points must have {self.dim} coordinates, got shape {xs.shape}")
        return xs

    @cached_property
    def _scatters(self):
        """Flat positions of the compiled values in a point's (n, n) matrix
        and (n, n, n) gradient: those of the upper entries (i, j) and of
        their partners (j, i), in the evaluators' row order."""
        n = self.dim
        pairs = np.array(list(self._upper), dtype=np.intp).reshape(-1, 2) - 1
        i, j = pairs[:, :1], pairs[:, 1:]
        l = np.arange(n) * n * n
        return ((i * n + j).ravel(), (j * n + i).ravel()), \
            ((l + i * n + j).ravel(), (l + j * n + i).ravel())

    @staticmethod
    def _fill(values, shape, scatter):
        """Zeros of shape (m,) + shape with the rows of values at the upper
        positions and their negatives at the partners."""
        m = values.shape[1]
        out = np.zeros((m, math.prod(shape)))
        upper, lower = scatter
        out[:, upper] = values.T
        out[:, lower] = -values.T
        return out.reshape((m,) + shape)

    def pi_many(self, xs):
        """Structure matrices at points xs (m, n) -> (m, n, n)."""
        xs = self._points(xs)
        n = xs.shape[1]
        pi = self.evaluator("pi", lambda: list(self._upper.values()))
        return self._fill(pi(xs.T), (n, n), self._scatters[0])

    def pi_at(self, x):
        return self.pi_many(np.asarray(x, dtype=float)[None, :])[0]

    def dpi_many(self, xs):
        """Entry gradients at xs (m, n) -> (m, n, n, n), [m, l, i, j] =
        d Pi^(ij) / d x_l."""
        xs = self._points(xs)
        n = xs.shape[1]
        dpi = self.evaluator("dpi", lambda: [expr.differentiate(e, l) for e in self._upper.values()
                                             for l in range(1, n + 1)])
        return self._fill(dpi(xs.T), (n, n, n), self._scatters[1])

    def dpi_at(self, x):
        return self.dpi_many(np.asarray(x, dtype=float)[None, :])[0]

    def sharp_many(self, xs, alphas):
        """Anchor applied to covector rows: (m, n), (m, n) -> (m, n)."""
        P = self.pi_many(xs)
        alphas = np.asarray(alphas, dtype=float)
        return np.einsum("mjk,mj->mk", P, alphas)

    def coupling_many(self, xs, a, b):
        """(d_i Pi^(jk)) a_j b_k per point: (m,n),(m,n),(m,n) -> (m,n).

        This is the quadratic term of the form-bracket and of the cotangent
        transport/variation equations; the (a, b) slot order matters.
        """
        D = self.dpi_many(xs)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.einsum("mijk,mj,mk->mi", D, a, b)

    def jacobi_tensor_many(self, xs):
        """Jacobiator J^(ijk) = Pi^(il) d_l Pi^(jk) + cyclic, shape (m,n,n,n)."""
        P = self.pi_many(xs)
        D = self.dpi_many(xs)
        return (np.einsum("mil,mljk->mijk", P, D)
                + np.einsum("mjl,mlki->mijk", P, D)
                + np.einsum("mkl,mlij->mijk", P, D))

    def jacobi_residual(self, xs):
        """Largest |J^(ijk)| over the given points."""
        xs = self._points(xs)
        if xs.shape[0] == 0 or not self._upper:
            return 0.0
        with np.errstate(all="ignore"):
            J = self.jacobi_tensor_many(xs)
        require_finite(J, "structure entries are not finite at a sampled point", ValidationError)
        return float(np.max(np.abs(J)))

    def validate(self, n_points=None, box=None, tol=None, seed=None):
        """Check the Jacobi identity at seeded random points.

        Samples n_points >= 1 points uniformly from [-box, box]^n and
        requires the largest Jacobiator entry to stay within the finite
        tol >= 0. Returns the residual; raises ValidationError when the bound
        is violated, entries blow up or a setting is out of range.
        """
        n_points = get_default("jacobi_points") if n_points is None else int(n_points)
        box = get_default("sample_box") if box is None else float(box)
        tol = get_default("jacobi_tol") if tol is None else float(tol)
        seed = get_default("seed") if seed is None else int(seed)
        if n_points < 1:
            raise ValidationError(f"sample count must be at least 1, got {n_points}")
        if not 0.0 <= tol < np.inf:
            raise ValidationError(f"residual bound must be finite and non-negative, got {tol}")
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-box, box, size=(n_points, self.dim))
        residual = self.jacobi_residual(xs)
        require_within(residual, tol,
                       f"Jacobi identity fails: max residual {residual:.3e} over "
                       f"{n_points} points in [-{box}, {box}]^{self.dim} exceeds {tol:.1e}")
        return residual

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        data = {
            "dim": self.dim,
            "pi": {f"{i},{j}": expr.to_source(e) for (i, j), e in self._upper.items()},
        }
        if self.params:
            data["params"] = dict(self.params)
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data):
        try:
            dim = data["dim"]
            pi_raw = data["pi"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"structure description missing field: {exc}") from None
        pi = {}
        for key, source in pi_raw.items():
            parts = str(key).split(",")
            if len(parts) != 2:
                raise ValidationError(f"bad entry key {key!r}, expected 'i,j'")
            try:
                pair = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ValidationError(f"bad entry key {key!r}, expected integers") from None
            pi[pair] = source
        return cls(dim, pi, params=data.get("params"), label=data.get("label"))

    def __repr__(self):
        name = self.label or "PoissonStructure"
        return f"<{name} dim={self.dim} entries={len(self._upper)}>"
