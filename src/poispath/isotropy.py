"""Pointwise linear data of a structure: kernel of the matrix at a point,
the Lie algebra it carries, and exponentiation of coefficient paths in a
matrix realization.

At a point x the covectors annihilated by the structure matrix close under
the form bracket, which there reduces to

    [alpha, beta]_i = (d_i Pi^(jk)) alpha_j beta_k,

a bilinear bracket on the kernel. This module extracts an orthonormal kernel
basis (rotated by pivoted QR so coordinate-aligned kernels come out as signed
coordinate vectors), the structure constants in that basis, the center, the
Killing form, and coarse classification flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import get_default
from .errors import ValidationError


@dataclass
class IsotropyData:
    point: np.ndarray
    rank: int
    corank: int
    singular_values: np.ndarray
    gap_ratio: float          # smallest kept / largest dropped singular value
    ambiguous_rank: bool
    basis: np.ndarray         # (k, n) orthonormal kernel covectors as rows
    structure_constants: np.ndarray  # (k, k, k): [e_a, e_b] = C[a,b,c] e_c
    closure_residual: float
    center_dim: int
    killing: np.ndarray       # (k, k)
    killing_rank: int
    is_abelian: bool
    is_semisimple: bool
    extras: dict = field(default_factory=dict)


def _aligned_kernel_basis(raw):
    """Rotate an orthonormal kernel basis so it hugs the coordinate axes.

    The input rows span the kernel but their orientation is whatever the SVD
    produced. Pivoted QR of the projector re-derives an orthonormal basis in
    decreasing-pivot order; when the kernel is a coordinate subspace the
    result is the corresponding signed unit vectors.
    """
    from scipy.linalg import qr

    k = raw.shape[0]
    proj = raw.T @ raw
    Q, _, _ = qr(proj, pivoting=True)
    basis = Q[:, :k].T.copy()
    for row in basis:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return basis


def isotropy_data(structure, x, rank_tol=None, gap_min=None):
    """Kernel Lie algebra of the structure at x.

    rank_tol is the relative singular-value cutoff; gap_min the smallest
    kept/dropped ratio considered trustworthy (below it the data is still
    returned but flagged ambiguous_rank).
    """
    rank_tol = get_default("rank_tol") if rank_tol is None else float(rank_tol)
    gap_min = get_default("gap_ratio_min") if gap_min is None else float(gap_min)
    x = np.asarray(x, dtype=float)
    n = structure.dim
    if x.shape != (n,):
        raise ValidationError(f"point must have shape ({n},), got {x.shape}")

    P = structure.pi_at(x)
    U, s, Vh = np.linalg.svd(P)
    smax = s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > rank_tol * smax)) if smax > 0 else 0
    corank = n - rank
    if 0 < rank < n:
        dropped = max(s[rank], 1e-300)
        gap = float(s[rank - 1] / dropped)
    else:
        gap = float("inf")
    ambiguous = gap < gap_min

    if corank == 0:
        empty = np.zeros((0, 0))
        return IsotropyData(
            point=x, rank=rank, corank=0, singular_values=s, gap_ratio=gap,
            ambiguous_rank=ambiguous, basis=np.zeros((0, n)),
            structure_constants=np.zeros((0, 0, 0)), closure_residual=0.0,
            center_dim=0, killing=empty, killing_rank=0,
            is_abelian=True, is_semisimple=False)

    if rank == 0:
        raw = np.eye(n)
    else:
        raw = Vh[rank:]
    B = _aligned_kernel_basis(raw)
    k = corank

    D = structure.dpi_at(x)
    # bracket of kernel covectors at x: [a, b]_i = (d_i Pi^(jk)) a_j b_k
    C_amb = np.einsum("ijk,aj,bk->abi", D, B, B)
    coords = np.einsum("abi,ci->abc", C_amb, B)
    back = np.einsum("abc,ci->abi", coords, B)
    dscale = max(1.0, float(np.max(np.abs(D))) if D.size else 1.0)
    closure_residual = float(np.max(np.abs(C_amb - back))) if C_amb.size else 0.0

    cmax = float(np.max(np.abs(coords))) if coords.size else 0.0
    is_abelian = cmax <= 1e-10 * dscale

    # center: alpha with alpha^a C[a,b,c] = 0 for all b, c
    flat = coords.transpose(1, 2, 0).reshape(k * k, k)
    ad_rank = np.linalg.matrix_rank(flat, tol=1e-10 * max(1.0, cmax)) if cmax > 0 else 0
    center_dim = k - ad_rank

    killing = np.einsum("ade,bed->ab", coords, coords)
    if cmax > 0:
        killing_rank = int(np.linalg.matrix_rank(
            killing, tol=1e-8 * max(1.0, float(np.max(np.abs(killing))))))
        normalized_det = float(np.linalg.det(killing / cmax**2))
    else:
        killing_rank = 0
        normalized_det = 0.0
    is_semisimple = center_dim == 0 and abs(normalized_det) > 1e-6 and not is_abelian

    return IsotropyData(
        point=x, rank=rank, corank=corank, singular_values=s, gap_ratio=gap,
        ambiguous_rank=ambiguous, basis=B, structure_constants=coords,
        closure_residual=closure_residual, center_dim=center_dim,
        killing=killing, killing_rank=killing_rank,
        is_abelian=is_abelian, is_semisimple=is_semisimple)


def _coefficient_interpolant(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] < 2:
        raise ValidationError("coefficient samples must be (m, k) with m >= 2")
    grid = np.linspace(0.0, 1.0, coeffs.shape[0])
    if coeffs.shape[0] >= 4:
        from scipy.interpolate import CubicSpline

        return CubicSpline(grid, coeffs, axis=0)

    def linear(t):
        t = np.clip(t, 0.0, 1.0)
        return np.stack([np.interp(t, grid, coeffs[:, j])
                         for j in range(coeffs.shape[1])], axis=-1)

    return linear


def matrix_lie_path_integrate(basis, coeffs, n_steps=None):
    """Solve dg/dt = A(t) g, g(0) = I, with A(t) = sum_k c_k(t) E_k.

    basis: (k, d, d) matrices E_k (real or complex). coeffs: (m, k) samples
    of the coefficient path on a uniform grid over [0, 1], interpolated
    cubically. Classic fixed-step fourth-order integration; when the basis is
    anti-Hermitian the iterate is snapped back to the unitary group every
    hundred steps through its polar factor.
    """
    basis = np.asarray(basis)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise ValidationError(f"basis must be (k, d, d), got {basis.shape}")
    interp = _coefficient_interpolant(coeffs)
    if np.asarray(coeffs).shape[1] != basis.shape[0]:
        raise ValidationError("coefficient columns must match basis size")
    n = get_default("t_intervals") if n_steps is None else int(n_steps)
    if n < 1:
        raise ValidationError("need at least one step")

    anti_hermitian = all(
        np.max(np.abs(E + E.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(E)))
        for E in basis)

    def A(t):
        return np.einsum("k,kij->ij", interp(t), basis)

    d = basis.shape[1]
    g = np.eye(d, dtype=complex if np.iscomplexobj(basis) else float)
    h = 1.0 / n
    for step in range(n):
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
