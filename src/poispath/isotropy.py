"""Pointwise linear data of a structure: kernel of the matrix at a point
and the Lie algebra it carries.

At a point x the covectors annihilated by the structure matrix close under
the form bracket, which there reduces to

    [alpha, beta]_i = (d_i Pi^(jk)) alpha_j beta_k,

a bilinear bracket on the kernel. This module extracts an orthonormal kernel
basis, the structure constants in that basis, the center, the Killing form,
and coarse classification flags.

The basis is the Householder QR with column pivoting (Businger and Golub,
1965) of the kernel projector: norms recomputed at each step, a tie going to
the first column within a relative 1e-12 of the largest, and no reflection of
a column already zero below the diagonal, so coordinate kernels come out as
exact unit vectors. The flags read the raw values; the report shows as +0.0
each basis entry up to 1e-10, each structure constant up to the is_abelian
floor 1e-10 * max(1, max |dPi|) and each Killing entry up to the Killing rank
tolerance 1e-8 * max(1, max |K|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_default
from .errors import ValidationError, require_finite


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


def _aligned_kernel_basis(raw):
    """Rotate an orthonormal kernel basis (rows, as the SVD gave them) so it
    hugs the coordinate axes: the first k columns of Q in the pivoted QR of
    the projector, each signed so its largest entry is positive."""
    k, n = raw.shape
    A = raw.T @ raw
    Q = np.eye(n)
    for j in range(k):
        norms = np.linalg.norm(A[j:, j:], axis=0)
        p = j + int(np.argmax(norms >= (1.0 - 1e-12) * norms.max()))
        A[:, [j, p]] = A[:, [p, j]]
        x = A[j:, j]
        if np.any(x[1:]):  # as LAPACK dlarfg: no reflection when x is e_1-aligned
            beta = -np.copysign(np.linalg.norm(x), x[0])
            v = x / (x[0] - beta)
            v[0] = 1.0
            tau = (beta - x[0]) / beta
            A[j:, j:] -= tau * np.outer(v, v @ A[j:, j:])
            Q[:, j:] -= tau * np.outer(Q[:, j:] @ v, v)
    B = Q[:, :k].T
    lead = B[np.arange(k), np.argmax(np.abs(B), axis=1)]
    return B * np.where(lead < 0, -1.0, 1.0)[:, None] + 0.0  # + 0.0: no -0.0


def _floored(a, floor):
    """a with every entry of magnitude at most floor reported as +0.0."""
    return np.where(np.abs(a) <= floor, 0.0, a)


def isotropy_data(structure, x):
    """Kernel Lie algebra of the structure at x.

    The configured rank_tol is the relative singular-value cutoff;
    gap_ratio_min the smallest kept/dropped ratio considered trustworthy
    (below it the data is still returned but flagged ambiguous_rank).
    """
    x = np.asarray(x, dtype=float)
    n = structure.dim
    if x.shape != (n,):
        raise ValidationError(f"point must have shape ({n},), got {x.shape}")

    P = structure.pi_at(x)
    require_finite(P, f"structure matrix is not finite at {x.tolist()}")
    U, s, Vh = np.linalg.svd(P)
    smax = s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > get_default("rank_tol") * smax)) if smax > 0 else 0
    corank = n - rank
    if 0 < rank < n:
        dropped = max(s[rank], 1e-300)
        gap = float(s[rank - 1] / dropped)
    else:
        gap = float("inf")
    ambiguous = gap < get_default("gap_ratio_min")

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
    require_finite(D, f"structure derivative is not finite at {x.tolist()}")
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
    killing_tol = 1e-8 * max(1.0, float(np.max(np.abs(killing))))
    if cmax > 0:
        killing_rank = int(np.linalg.matrix_rank(killing, tol=killing_tol))
        normalized_det = float(np.linalg.det(killing / cmax**2))
        require_finite(normalized_det, f"Killing form determinant is not finite at {x.tolist()}")
    else:
        killing_rank = 0
        normalized_det = 0.0
    is_semisimple = center_dim == 0 and abs(normalized_det) > 1e-6 and not is_abelian

    # the flags above read the raw values; the report floors the noise
    return IsotropyData(
        point=x, rank=rank, corank=corank, singular_values=s, gap_ratio=gap,
        ambiguous_rank=ambiguous, basis=_floored(B, 1e-10),
        structure_constants=_floored(coords, 1e-10 * dscale),
        closure_residual=closure_residual, center_dim=center_dim,
        killing=_floored(killing, killing_tol), killing_rank=killing_rank,
        is_abelian=is_abelian, is_semisimple=is_semisimple)
