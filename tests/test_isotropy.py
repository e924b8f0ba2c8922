import math

import numpy as np
import pytest

import oracles
from helpers import su2, su2_scaled, su3, symplectic_plane
from poispath import isotropy
from poispath.core import PoissonStructure
from poispath.errors import NumericalError, ValidationError

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
    def test_full_turn_is_minus_identity(self):
        coeffs = np.tile([0.0, 0.0, 2 * math.pi], (5, 1))
        g = isotropy.matrix_lie_path_integrate(SU2_BASIS, coeffs)
        np.testing.assert_allclose(g, -np.eye(2), atol=1e-6)

    def test_double_turn_is_identity(self):
        coeffs = np.tile([0.0, 0.0, 4 * math.pi], (5, 1))
        g = isotropy.matrix_lie_path_integrate(SU2_BASIS, coeffs)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-6)

    def test_time_dependent_commuting_coefficients(self):
        # c3(t) = 4*pi*t integrates to 2*pi, same endpoint as a full turn
        m = 9
        coeffs = np.zeros((m, 3))
        coeffs[:, 2] = 4 * math.pi * np.linspace(0.0, 1.0, m)
        g = isotropy.matrix_lie_path_integrate(SU2_BASIS, coeffs)
        np.testing.assert_allclose(g, -np.eye(2), atol=1e-6)

    def test_stays_unitary(self):
        rng = np.random.default_rng(31)
        coeffs = rng.uniform(-8, 8, size=(21, 3))
        g = isotropy.matrix_lie_path_integrate(SU2_BASIS, coeffs)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-9)

    def test_nilpotent_exponential_exact(self):
        N = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        coeffs = np.ones((5, 1))
        g = isotropy.matrix_lie_path_integrate(N, coeffs, n_steps=200)
        np.testing.assert_allclose(g, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            isotropy.matrix_lie_path_integrate(SU2_BASIS, np.ones((5, 2)))
        with pytest.raises(ValidationError):
            isotropy.matrix_lie_path_integrate(np.zeros((1, 2, 3)), np.ones((5, 1)))
        with pytest.raises(ValidationError):
            isotropy.matrix_lie_path_integrate(SU2_BASIS, np.ones((1, 3)))

    @pytest.mark.parametrize("name", ["su2", "so3", "generic"])
    @pytest.mark.parametrize("n_steps", [200, 350])
    def test_keeps_the_written_out_order(self, name, n_steps):
        # complex and real bases, past the polar snap of the first two
        rng = np.random.default_rng(n_steps)
        basis = {"su2": SU2_BASIS, "so3": -EPS, "generic": rng.normal(size=(3, 3, 3))}[name]
        coeffs = rng.uniform(-3.0, 3.0, size=(9, 3))
        g = isotropy.matrix_lie_path_integrate(basis, coeffs, n_steps=n_steps)
        assert np.array_equal(g, oracles.matrix_lie_path_reference(basis, coeffs, n_steps))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = SU2_BASIS.copy()
        basis[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="basis matrices must be finite"):
            isotropy.matrix_lie_path_integrate(basis, np.ones((5, 3)))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_non_finite_coefficients_rejected(self, m):
        coeffs = np.ones((m, 3))
        coeffs[1, 2] = math.nan
        with pytest.raises(ValidationError):
            isotropy.matrix_lie_path_integrate(SU2_BASIS, coeffs)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fewer_than_four_samples_rejected(self, m):
        with pytest.raises(ValidationError, match="m >= 4"):
            isotropy.matrix_lie_path_integrate(SU2_BASIS, np.ones((m, 3)))

    @pytest.mark.parametrize("basis", [SU2_BASIS, np.eye(2)[None]], ids=["snapped", "real"])
    def test_overflow_raises(self, basis):
        coeffs = np.full((5, len(basis)), 1e300)
        with pytest.raises(NumericalError, match="non-finite"):
            isotropy.matrix_lie_path_integrate(basis, coeffs, n_steps=250)
