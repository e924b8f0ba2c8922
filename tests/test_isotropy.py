import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import linear_in_new_coordinates, su2, su2_scaled, su3, symplectic_plane
from poispath import isotropy
from poispath.core import PoissonStructure
from poispath.errors import ValidationError

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
SU2_BASIS = np.array([-0.5j * s for s in SIGMA])

EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
    EPS[_i, _j, _k] = _s


class TestPointData:
    def test_su2_origin_full_kernel(self):
        data = isotropy.isotropy_data(su2(), np.zeros(3))
        assert data.rank == 0 and data.corank == 3
        np.testing.assert_allclose(data.basis, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(data.structure_constants, EPS, atol=1e-10)
        np.testing.assert_allclose(data.killing, -2.0 * np.eye(3), atol=1e-10)
        assert data.closure_residual < 1e-12
        assert data.center_dim == 0
        assert data.is_semisimple and not data.is_abelian

    def test_su2_regular_point(self):
        data = isotropy.isotropy_data(su2(), np.array([1.0, 0.0, 0.0]))
        assert data.rank == 2 and data.corank == 1
        np.testing.assert_allclose(np.abs(data.basis), [[1.0, 0.0, 0.0]], atol=1e-12)
        assert data.basis[0, 0] > 0
        assert data.is_abelian and not data.is_semisimple
        assert data.center_dim == 1

    def test_pole_kernel_direction(self):
        data = isotropy.isotropy_data(su2_scaled("1 + R^2"), np.array([0.0, 0.0, 0.7]))
        assert data.corank == 1
        np.testing.assert_allclose(data.basis, [[0.0, 0.0, 1.0]], atol=1e-12)

    def test_origin_abelian_iff_scale_vanishes(self):
        vanishing = isotropy.isotropy_data(su2_scaled("R^2"), np.zeros(3))
        assert vanishing.corank == 3 and vanishing.is_abelian
        plain = isotropy.isotropy_data(su2_scaled("1"), np.zeros(3))
        assert not plain.is_abelian

    def test_symplectic_point_trivial(self):
        data = isotropy.isotropy_data(symplectic_plane(), np.zeros(2))
        assert data.corank == 0
        assert data.basis.shape == (0, 2)
        assert data.is_abelian and not data.is_semisimple

    def test_bad_point_shape(self):
        with pytest.raises(ValidationError):
            isotropy.isotropy_data(su2(), np.zeros(2))


class TestSU3Point:
    # dual point of a diagonal matrix with a doubled eigenvalue; the kernel
    # there is 4-dimensional and carries a u(2)
    POINT = np.array([0, 0, 0, 0, 0, 0, 0, -2 * math.sqrt(3.0)])

    def test_matrix_entries_at_point(self):
        P = su3().pi_at(self.POINT)
        assert P[3, 4] == pytest.approx(-3.0, abs=1e-12)
        assert P[5, 6] == pytest.approx(-3.0, abs=1e-12)
        mask = np.ones((8, 8), dtype=bool)
        for i, j in [(3, 4), (4, 3), (5, 6), (6, 5)]:
            mask[i, j] = False
        assert np.max(np.abs(P[mask])) < 1e-12

    def test_jacobi_gate(self):
        assert su3().validate() <= 1e-9

    def test_kernel_and_algebra(self):
        data = isotropy.isotropy_data(su3(), self.POINT)
        assert data.corank == 4
        want = np.zeros((4, 8))
        want[0, 0] = want[1, 1] = want[2, 2] = want[3, 7] = 1.0
        np.testing.assert_allclose(data.basis, want, atol=1e-10)
        # first three rows close like the 3-dim rotation algebra
        np.testing.assert_allclose(data.structure_constants[:3, :3, :3], EPS, atol=1e-10)
        # the last row is central
        np.testing.assert_allclose(data.structure_constants[3], 0.0, atol=1e-12)
        np.testing.assert_allclose(data.structure_constants[:, 3], 0.0, atol=1e-12)
        assert data.closure_residual < 1e-12
        assert data.center_dim == 1
        assert data.killing_rank == 3
        np.testing.assert_allclose(
            data.killing, np.diag([-2.0, -2.0, -2.0, 0.0]), atol=1e-10)
        assert not data.is_semisimple and not data.is_abelian


def _scipy_aligned_basis(raw):
    """The kernel basis through scipy's pivoted QR (LAPACK dgeqp3), signed
    as isotropy signs its own."""
    from scipy.linalg import qr

    Q, _, _ = qr(raw.T @ raw, pivoting=True)
    basis = Q[:, :raw.shape[0]].T
    lead = basis[np.arange(len(basis)), np.argmax(np.abs(basis), axis=1)]
    return basis * np.where(lead < 0, -1.0, 1.0)[:, None]


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


@st.composite
def kernel_case(draw):
    """(n, k, rng) for an n-dim space and a k-dim kernel, 1 <= k <= n."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    return n, k, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


class TestAlignedKernelBasis:
    """isotropy's pivoted QR against scipy's, which it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(case=kernel_case())
    def test_generic_kernel_matches_scipy(self, case):
        # a random kernel has no pivot ties unless it is the whole space
        n, k, rng = case
        raw = _orthogonal(rng, n)[:k]
        ours = isotropy._aligned_kernel_basis(raw)
        if k < n:
            np.testing.assert_allclose(ours, _scipy_aligned_basis(raw), rtol=0, atol=1e-14)
        self._assert_orthonormal_basis_of(ours, raw)

    @settings(max_examples=80, deadline=None)
    @given(case=kernel_case())
    def test_rotated_coordinate_kernel_spans_it(self, case):
        # equal column norms, ties that the two QRs may break differently
        n, k, rng = case
        axes = rng.choice(n, size=k, replace=False)
        raw = _orthogonal(rng, k) @ np.eye(n)[axes]
        ours = isotropy._aligned_kernel_basis(raw)
        self._assert_orthonormal_basis_of(ours, raw)
        self._assert_orthonormal_basis_of(_scipy_aligned_basis(raw), ours)

    @settings(max_examples=80, deadline=None)
    @given(case=kernel_case())
    def test_coordinate_kernel_is_exact(self, case):
        n, k, rng = case
        axes = rng.choice(n, size=k, replace=False)
        raw = rng.choice([-1.0, 1.0], size=(k, 1)) * np.eye(n)[axes]
        ours = isotropy._aligned_kernel_basis(raw)
        assert np.array_equal(ours, np.eye(n)[np.sort(axes)])
        assert not np.any(np.signbit(ours))

    @staticmethod
    def _assert_orthonormal_basis_of(basis, raw):
        np.testing.assert_allclose(basis @ basis.T, np.eye(len(raw)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, raw.T @ raw, rtol=0, atol=1e-12)

    def test_tie_goes_to_the_first_column_at_su2_origin(self):
        assert np.array_equal(isotropy.isotropy_data(su2(), np.zeros(3)).basis, np.eye(3))

    def test_tie_goes_to_the_first_column_at_su3_corank_four(self):
        basis = isotropy.isotropy_data(su3(), TestSU3Point.POINT).basis
        assert np.array_equal(basis, np.eye(8)[[0, 1, 2, 7]])


class TestReportFloors:
    """Entries under the floors the flags use are reported as +0.0."""

    POINT = np.array([0.3, -0.2, 0.5, 0.1, 0.0, 0.4, -0.1, 0.2])

    def test_su3_abelian_point_reports_no_rounding_noise(self):
        data = isotropy.isotropy_data(su3(), self.POINT)
        for exact_zero in (data.structure_constants, data.killing):
            assert exact_zero.size and not np.any(exact_zero)
            assert not np.any(np.signbit(exact_zero))
        magnitude = np.abs(data.basis)
        assert not np.any((magnitude > 0) & (magnitude <= 1e-10))
        assert not np.any(np.signbit(data.basis) & (data.basis == 0))
        assert data.is_abelian and data.center_dim == 2 and data.killing_rank == 0


SU3_CORANK_FOUR = [0, 0, 0, 0, 0, 0, 0, -2 * math.sqrt(3.0)]


class TestCoordinateInvariance:
    """The isotropy algebra is a property of the point, not of the chart: a
    linear change of coordinates A = O diag(d) O', d in [0.5, 2], keeps its
    invariants."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("make, point", [
        (su2, [0.0, 0.0, 0.0]),
        (su2, [0.3, 0.4, 0.5]),
        (su3, [0.0] * 8),
        (su3, SU3_CORANK_FOUR),
        (su3, [0.3, -0.2, 0.5, 0.1, 0.0, 0.4, -0.1, 0.2]),
    ], ids=["su2-origin", "su2-regular", "su3-origin", "su3-corank4", "su3-generic"])
    def test_invariants_survive_a_linear_change(self, seed, make, point):
        structure = make()
        n = structure.dim
        rng = np.random.default_rng(seed)
        A = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n)
        x = np.array(point)
        before = isotropy.isotropy_data(structure, x)
        after = isotropy.isotropy_data(linear_in_new_coordinates(structure, A), A @ x)
        for attr in ("corank", "center_dim", "killing_rank", "is_abelian", "is_semisimple"):
            assert getattr(after, attr) == getattr(before, attr), attr
        if before.is_abelian:
            assert not np.any(before.structure_constants)
            assert not np.any(after.structure_constants)


class TestRankDiagnostics:
    def test_clean_gap_not_flagged(self):
        data = isotropy.isotropy_data(su2(), np.array([0.0, 0.0, 1.0]))
        assert not data.ambiguous_rank
        assert data.gap_ratio > 1e6

    def test_marginal_spectrum_flagged(self):
        p = PoissonStructure(7, {(1, 2): "1", (3, 4): "3e-8", (5, 6): "5e-9"})
        data = isotropy.isotropy_data(p, np.zeros(7))
        assert data.rank == 4
        assert data.ambiguous_rank
        assert data.gap_ratio == pytest.approx(6.0, rel=1e-6)


class TestMatrixPathIntegration:
    """The RK4 matrix path exponential of oracles.matrix_lie_path_reference,
    which test_homotopy's group-endpoint check reads, on closed forms."""

    def test_full_turn_is_minus_identity(self):
        coeffs = np.tile([0.0, 0.0, 2 * math.pi], (5, 1))
        g = oracles.matrix_lie_path_reference(SU2_BASIS, coeffs, 1000)
        np.testing.assert_allclose(g, -np.eye(2), atol=1e-6)

    def test_double_turn_is_identity(self):
        coeffs = np.tile([0.0, 0.0, 4 * math.pi], (5, 1))
        g = oracles.matrix_lie_path_reference(SU2_BASIS, coeffs, 1000)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-6)

    def test_time_dependent_commuting_coefficients(self):
        # c3(t) = 4*pi*t integrates to 2*pi, same endpoint as a full turn
        m = 9
        coeffs = np.zeros((m, 3))
        coeffs[:, 2] = 4 * math.pi * np.linspace(0.0, 1.0, m)
        g = oracles.matrix_lie_path_reference(SU2_BASIS, coeffs, 1000)
        np.testing.assert_allclose(g, -np.eye(2), atol=1e-6)

    def test_stays_unitary(self):
        rng = np.random.default_rng(31)
        coeffs = rng.uniform(-8, 8, size=(21, 3))
        g = oracles.matrix_lie_path_reference(SU2_BASIS, coeffs, 1000)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-9)

    def test_nilpotent_exponential_exact(self):
        N = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        coeffs = np.ones((5, 1))
        g = oracles.matrix_lie_path_reference(N, coeffs, 200)
        np.testing.assert_allclose(g, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)
