import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from helpers import (SU2_PI, eval_components, linear_in_new_coordinates, linear_structure, su2,
                     su2_scaled, su3, symplectic_plane)
from poispath import expr
from poispath.core import PoissonStructure
from poispath.errors import ValidationError


class TestConstruction:
    def test_lower_triangular_key_rejected(self):
        with pytest.raises(ValidationError):
            PoissonStructure(3, {(2, 1): "x3"})

    def test_diagonal_key_rejected(self):
        with pytest.raises(ValidationError):
            PoissonStructure(3, {(2, 2): "x3"})

    def test_out_of_range_key_rejected(self):
        with pytest.raises(ValidationError):
            PoissonStructure(3, {(1, 4): "x3"})

    def test_numbers_and_expressions_accepted(self):
        p = PoissonStructure(2, {(1, 2): 1})
        q = PoissonStructure(2, {(1, 2): expr.Num(1.0)})
        assert p.pi_at([0.0, 0.0])[0, 1] == 1.0
        assert q.pi_at([0.0, 0.0])[0, 1] == 1.0

    def test_wrong_point_dimension(self):
        with pytest.raises(ValidationError):
            su2().pi_many(np.zeros((4, 2)))


class TestMatrices:
    def test_su2_matrix_at_point(self):
        P = su2().pi_at([1.0, 2.0, 3.0])
        want = np.array([[0, 3, -2], [-3, 0, 1], [2, -1, 0]], dtype=float)
        np.testing.assert_array_equal(P, want)

    def test_antisymmetry_batch(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-2, 2, size=(20, 3))
        P = su2_scaled("1 + R^2").pi_many(xs)
        np.testing.assert_array_equal(P, -P.transpose(0, 2, 1))

    def test_dpi_matches_finite_differences(self):
        p = su2_scaled("exp(R^2/5)")
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1.5, 1.5, size=(10, 3))
        D = p.dpi_many(xs)
        h = 1e-6
        for l in range(3):
            shift = np.zeros(3)
            shift[l] = h
            fd = (p.pi_many(xs + shift) - p.pi_many(xs - shift)) / (2 * h)
            np.testing.assert_allclose(D[:, l], fd, rtol=1e-6, atol=1e-8)

    def test_dpi_layout_on_linear_structure(self):
        # d Pi^(12) / d x_3 = 1 for the plain su2 entries
        D = su2().dpi_at([0.5, -0.3, 0.9])
        assert D[2, 0, 1] == 1.0
        assert D[2, 1, 0] == -1.0
        assert D[0, 0, 1] == 0.0


class TestAnchor:
    def test_plane_orientation(self):
        # with Pi^(12) = 1, #dx1 = e2 and #dx2 = -e1
        p = symplectic_plane()
        got = p.sharp_many([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(got, [[0.0, 1.0], [-1.0, 0.0]])

    def test_hamiltonian_field_derives_bracket(self):
        p = su2_scaled("1 + R^2")
        f = expr.parse("x1^2 + sin(x2)", 3)
        g = expr.parse("x3*x1 - x2", 3)
        field = p.hamiltonian_field(f)
        bracket = p.bracket_functions(f, g)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            dg = [oracles.evaluate(expr.differentiate(g, i), x) for i in (1, 2, 3)]
            xf = eval_components(field, x)
            assert float(np.dot(xf, dg)) == pytest.approx(
                oracles.evaluate(bracket, x), rel=1e-12, abs=1e-12)

    def test_su2_coordinate_brackets(self):
        # {x1, x2} = x3 and cyclic
        p = su2()
        x = (0.3, -1.2, 0.7)
        pairs = {(1, 2): 2, (2, 3): 0, (3, 1): 1}
        for (i, j), k in pairs.items():
            b = p.bracket_functions(expr.Var(i), expr.Var(j))
            assert oracles.evaluate(b, x) == pytest.approx(x[k], abs=1e-15)

    def test_sharp_many_matches_pointwise(self):
        p = su2_scaled("exp(R^2/5)")
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, size=(15, 3))
        als = rng.uniform(-1, 1, size=(15, 3))
        got = p.sharp_many(xs, als)
        for m in range(15):
            np.testing.assert_allclose(got[m], als[m] @ p.pi_at(xs[m]), atol=1e-14)


MESSY_PI = {(1, 2): "x1 + x2^2", (1, 3): "sin(x3)", (2, 3): "exp(x1/3) - x2"}


class TestFormBracket:
    def test_flat_formula_matches_defining_oracle(self):
        # the expanded component formula must agree with the assembled
        # L_(#a)b - L_(#b)a - d(Pi(a,b)) for arbitrary entries, Jacobi or not
        cases = [
            ({(1, 2): "(1 + R^2)*x3", (1, 3): "-(1 + R^2)*x2", (2, 3): "(1 + R^2)*x1"}, 3),
            (MESSY_PI, 3),
            ({(1, 2): "1"}, 2),
        ]
        rng = np.random.default_rng(4)
        for pi, dim in cases:
            p = PoissonStructure(dim, pi)
            alpha = [expr.parse(s, dim) for s in ["x2^2", "cos(x1)", "x1*x2"][:dim]]
            beta = [expr.parse(s, dim) for s in ["1", "x1 - x2", "exp(x2/4)"][:dim]]
            ours = p.bracket_one_forms(alpha, beta)
            ref = oracles.koszul_bracket_oracle(pi, dim, alpha, beta)
            for _ in range(50):
                x = rng.uniform(-2, 2, size=dim)
                got = eval_components(ours, x)
                want = eval_components(ref, x)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_scaled_coordinate_form_bracket_frozen_value(self):
        # [dx2, dx3] at (1,0,0) with scale 1 + R^2 comes out as 4 dx1
        p = su2_scaled("1 + R^2")
        alpha = [expr.Num(0), expr.Num(1), expr.Num(0)]
        beta = [expr.Num(0), expr.Num(0), expr.Num(1)]
        out = eval_components(p.bracket_one_forms(alpha, beta), (1.0, 0.0, 0.0))
        np.testing.assert_allclose(out, [4.0, 0.0, 0.0], atol=1e-14)

    def test_exact_forms_close_under_bracket(self):
        # [df, dg] = d{f, g} whenever Jacobi holds
        p = su2_scaled("exp(R^2/5)")
        rng = np.random.default_rng(5)
        f = expr.parse("x1*x3 + x2^2/2", 3)
        g = expr.parse("sin(x1) + x2*x3", 3)
        df = [expr.differentiate(f, i) for i in (1, 2, 3)]
        dg = [expr.differentiate(g, i) for i in (1, 2, 3)]
        lhs = p.bracket_one_forms(df, dg)
        fg = p.bracket_functions(f, g)
        rhs = [expr.differentiate(fg, i) for i in (1, 2, 3)]
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5, size=3)
            a = eval_components(lhs, x)
            b = eval_components(rhs, x)
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_time_dependent_components_pass_through(self):
        p = symplectic_plane()
        t_sym = ("t",)
        alpha = [expr.parse("t*x2", 2, symbols=t_sym), expr.parse("0", 2)]
        beta = [expr.parse("0", 2), expr.parse("x1", 2)]
        out = p.bracket_one_forms(alpha, beta)
        # (#alpha) = (0, t*x2)... check numerically against the oracle
        ref = oracles.koszul_bracket_oracle(
            {(1, 2): "1"}, 2, alpha, beta)
        env = {"t": 0.7}
        x = (1.3, -0.4)
        np.testing.assert_allclose(
            eval_components(out, x, env), eval_components(ref, x, env), atol=1e-12)


class TestJacobi:
    def test_su2_families_pass_gate(self):
        for a in ("1", "1 + R^2", "exp(R^2/5)"):
            assert su2_scaled(a).validate() <= 1e-9

    def test_symplectic_passes(self):
        assert symplectic_plane().validate() == 0.0

    def test_known_violation_value(self):
        p = PoissonStructure(3, {(1, 2): "x1 + x2", (2, 3): "x1"})
        assert p.jacobi_residual(np.array([[2.0, 0.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValidationError):
            p.validate()

    def test_jacobiator_total_antisymmetry(self):
        p = PoissonStructure(3, MESSY_PI)
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, size=(25, 3))
        J = p.jacobi_tensor_many(xs)
        scale = np.max(np.abs(J)) + 1.0
        np.testing.assert_allclose(J, -J.transpose(0, 2, 1, 3), atol=1e-13 * scale)
        np.testing.assert_allclose(J, -J.transpose(0, 1, 3, 2), atol=1e-13 * scale)
        np.testing.assert_allclose(J, J.transpose(0, 2, 3, 1), atol=1e-13 * scale)

    def test_nonfinite_entries_reported(self):
        p = PoissonStructure(2, {(1, 2): "log(x1)"})
        with pytest.raises(ValidationError):
            p.validate()

    def test_same_seed_same_residual(self):
        a = su2_scaled("1 + R^2").validate(seed=123)
        b = su2_scaled("1 + R^2").validate(seed=123)
        assert a == b


def _gl_change(seed, n):
    """A seeded element of GL(n): c O diag(d) O' with O, O' orthogonal, the
    scale c in 10^[-1.5, 1.5] and d in 10^[-1, 1] (condition number up to
    100)."""
    rng = np.random.default_rng(seed)
    O, O2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    return 10.0 ** rng.uniform(-1.5, 1.5) * O @ np.diag(10.0 ** rng.uniform(-1, 1, n)) @ O2


def _rounding_bound(structure, A, ys):
    """Rounding level of the Jacobiator of structure's constants D in the
    coordinates y = A x. With s = |A|^2 |A^-1| (spectral norms) the new
    constants are of size s max|D|, so a term Pi d Pi of the Jacobiator is of
    size T = (s max|D|)^2 max|y|; its 3n terms carry the rounding of the
    transformed constants and of their own sum. The bound is 4 n eps T: over
    200 seeds each of su2 and su3 the residual reached 0.66 eps T."""
    s = np.linalg.norm(A, 2) ** 2 * np.linalg.norm(np.linalg.inv(A), 2)
    scale = s * np.max(np.abs(structure.dpi_at(np.zeros(structure.dim))))
    return 4 * structure.dim * np.finfo(float).eps * scale ** 2 * np.max(np.abs(ys))


def _jacobi_after_change(make, seed):
    structure = make()
    A = _gl_change(seed, structure.dim)
    ys = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=(20, structure.dim))
    changed = linear_in_new_coordinates(structure, A)
    # linear entries stay linear: the gradients are one table of constants
    D = changed.dpi_many(ys)
    assert np.array_equal(D, np.broadcast_to(D[0], D.shape))
    return structure, A, ys, changed.jacobi_residual(ys), _rounding_bound(structure, A, ys)


class TestCoordinateChanges:
    """The Jacobi identity is a tensor identity: under a linear change of
    coordinates y = A x, A in GL(n), with Pi transformed as a tensor, su2
    and su3 become new tables of structure constants whose Jacobi residual
    stays at rounding level for the transformation's scale."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("make", [su2, su3], ids=["su2", "su3"])
    def test_pinned_changes_keep_the_identity(self, make, seed):
        structure, A, ys, residual, bound = _jacobi_after_change(make, seed)
        assert residual <= bound
        # the bound resolves a change that is not tensorial: Pi transformed
        # with A on both sides, A Pi(A^-1 y) A, is far outside it
        D = structure.dpi_at(np.zeros(structure.dim))
        wrong = linear_structure(np.einsum("lm,ai,lij,jb->mab", np.linalg.inv(A), A, D, A))
        assert wrong.jacobi_residual(ys) > 1e6 * bound

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 2), make=st.sampled_from([su2, su3]))
    def test_random_changes_keep_the_identity(self, seed, make):
        _, _, _, residual, bound = _jacobi_after_change(make, seed)
        assert residual <= bound


class TestCoupling:
    def test_matches_direct_loops(self):
        p = su2_scaled("1 + R^2")
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2, 2, size=(8, 3))
        a = rng.uniform(-1, 1, size=(8, 3))
        b = rng.uniform(-1, 1, size=(8, 3))
        got = p.coupling_many(xs, a, b)
        D = p.dpi_many(xs)
        for m in range(8):
            want = np.zeros(3)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        want[i] += D[m, i, j, k] * a[m, j] * b[m, k]
            np.testing.assert_allclose(got[m], want, atol=1e-14)

    def test_slot_order_is_not_symmetric(self):
        p = su2()
        xs = np.array([[0.4, -0.2, 1.1]])
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0]])
        ab = p.coupling_many(xs, a, b)
        ba = p.coupling_many(xs, b, a)
        np.testing.assert_allclose(ab, -ba, atol=1e-15)
        assert np.max(np.abs(ab)) > 0.5


_FILL_STRUCTURES = {
    "su2_scaled": lambda: su2_scaled("1 + R^2"),
    "su3": su3,
    "symplectic": lambda: PoissonStructure(4, {(1, 2): "1", (3, 4): "1"}),
    "zero": lambda: PoissonStructure(3, {}),
}
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                         st.floats(-3.0, 3.0))


@pytest.mark.parametrize("name", sorted(_FILL_STRUCTURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scatter_fill_matches_the_entry_loop_bit_for_bit(name, data):
    p = _FILL_STRUCTURES[name]()
    xs = data.draw(arrays(float, (data.draw(st.integers(1, 12)), p.dim),
                          elements=_COORDINATES))
    with np.errstate(all="ignore"):
        want_P, want_D = oracles.matrix_fill_reference(p, xs)
        got_P, got_D = p.pi_many(xs), p.dpi_many(xs)
    assert got_P.shape == want_P.shape and got_P.tobytes() == want_P.tobytes()
    assert got_D.shape == want_D.shape and got_D.tobytes() == want_D.tobytes()


class TestSerialization:
    def test_roundtrip_preserves_values(self):
        p = su2_scaled("exp(R^2/5)")
        q = PoissonStructure.from_dict(p.to_dict())
        rng = np.random.default_rng(8)
        xs = rng.uniform(-2, 2, size=(10, 3))
        np.testing.assert_array_equal(p.pi_many(xs), q.pi_many(xs))

    def test_params_roundtrip(self):
        p = PoissonStructure(2, {(1, 2): "c*x1"}, params={"c": 2.5}, label="scaled")
        q = PoissonStructure.from_dict(p.to_dict())
        assert q.params == {"c": 2.5}
        assert q.label == "scaled"
        assert q.pi_at([2.0, 0.0])[0, 1] == 5.0

    def test_bad_descriptions_rejected(self):
        with pytest.raises(ValidationError):
            PoissonStructure.from_dict({"pi": {}})
        with pytest.raises(ValidationError):
            PoissonStructure.from_dict({"dim": 2, "pi": {"1;2": "1"}})
        with pytest.raises(ValidationError):
            PoissonStructure.from_dict({"dim": 2, "pi": {"a,b": "1"}})


def test_su2_pi_is_the_expected_dict():
    # guard against accidental edits to the shared fixture
    assert SU2_PI == {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}
