import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poispath import expr
from poispath.errors import EvalDomainError, ParseError, ValidationError


def ev(text, point, dim=None, **env):
    dim = dim if dim is not None else len(point)
    e = expr.parse(text, dim, params=tuple(env))
    return expr.evaluate(e, point, env)


class TestParseEvaluate:
    def test_polynomial(self):
        assert ev("x1*x2 - 3", (2.0, 5.0, 0.0), dim=3) == 7.0

    def test_radial_shorthand(self):
        assert ev("1 + R^2", (1.0, 0.0, 0.0), dim=3) == 2.0

    def test_radial_uses_all_coordinates(self):
        assert ev("R", (3.0, 4.0)) == pytest.approx(5.0)
        assert ev("R", (2.0,), dim=1) == 2.0

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParseError):
            expr.parse("x4", 3)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            expr.parse("x1 + bogus", 3)

    def test_parse_error_carries_offset(self):
        with pytest.raises(ParseError) as info:
            expr.parse("x1 + $", 2)
        assert info.value.offset == 5

    def test_empty_input(self):
        with pytest.raises(ParseError):
            expr.parse("   ", 2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            expr.parse("x1 x2", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            expr.parse("sin(x1", 1)

    def test_function_calls(self):
        assert ev("sin(x1) + cos(x1)", (0.0,)) == 1.0
        assert ev("exp(x1)", (0.0,)) == 1.0
        assert ev("log(exp(1)*exp(1))", (0.0,)) == pytest.approx(2.0)
        assert ev("atan(1)", (0.0,)) == pytest.approx(math.pi / 4)

    def test_precedence_power_over_unary_minus(self):
        # -x^2 must parse as -(x^2)
        assert ev("-x1^2", (3.0,)) == -9.0

    def test_power_left_associative(self):
        assert ev("2^3^2", (0.0,), dim=1) == 64.0

    def test_negative_exponent(self):
        assert ev("x1^-2", (2.0,)) == 0.25

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            expr.parse("x1^x2", 2)

    def test_exponent_folding_to_constant_accepted(self):
        # a parenthesized exponent is fine as long as it folds to a number
        assert ev("x1^(1+1)", (3.0,)) == 9.0

    def test_scientific_notation(self):
        assert ev("2.5e-1 + 1e2", (0.0,), dim=1) == pytest.approx(100.25)

    def test_params(self):
        assert ev("c*x1", (3.0,), c=2.0) == 6.0

    def test_unbound_param_at_evaluation(self):
        e = expr.parse("c*x1", 1, params=("c",))
        with pytest.raises(EvalDomainError):
            expr.evaluate(e, (1.0,), {})

    def test_symbols(self):
        e = expr.parse("t*x1", 1, symbols=("t",))
        assert expr.evaluate(e, (4.0,), {"t": 0.5}) == 2.0


class TestDomainErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ev("1/x1", (0.0,))

    def test_log_nonpositive(self):
        with pytest.raises(EvalDomainError):
            ev("log(x1)", (0.0,))
        with pytest.raises(EvalDomainError):
            ev("log(x1)", (-2.0,))

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            ev("sqrt(x1)", (-1.0,))

    def test_overflow(self):
        with pytest.raises(EvalDomainError):
            ev("exp(x1)", (1e4,))

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalDomainError):
            ev("x1^0.5", (-1.0,))


class TestDifferentiate:
    def test_square(self):
        d = expr.differentiate(expr.parse("x1^2", 1), 1)
        assert expr.to_source(d) == "2 * x1"

    def test_radial_derivative_on_sphere(self):
        d = expr.differentiate(expr.parse("R", 3), 1)
        assert expr.evaluate(d, (1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_unrelated_variable(self):
        d = expr.differentiate(expr.parse("sin(x1)", 2), 2)
        assert isinstance(d, expr.Num) and d.value == 0.0

    def test_symbol_derivative(self):
        e = expr.parse("t^2*x1", 1, symbols=("t",))
        d = expr.differentiate_sym(e, "t")
        assert expr.evaluate(d, (3.0,), {"t": 2.0}) == pytest.approx(12.0)

    def test_r_squared_derivative_finite_at_origin(self):
        # R^2 folds to a polynomial, so the derivative is clean at 0
        d = expr.differentiate(expr.parse("R^2", 3), 1)
        assert expr.evaluate(d, (0.0, 0.0, 0.0)) == 0.0

    def test_quotient_rule(self):
        d = expr.differentiate(expr.parse("x1/x2", 2), 2)
        assert expr.evaluate(d, (3.0, 2.0)) == pytest.approx(-0.75)

    def test_chain_through_functions(self):
        d = expr.differentiate(expr.parse("exp(sin(x1))", 1), 1)
        x = 0.7
        assert expr.evaluate(d, (x,)) == pytest.approx(math.exp(math.sin(x)) * math.cos(x))

    def test_atan_derivative(self):
        d = expr.differentiate(expr.parse("atan(x1)", 1), 1)
        assert expr.evaluate(d, (2.0,)) == pytest.approx(1.0 / 5.0)


FD_SOURCES = [
    "x1^2 + x2*x3",
    "sin(x1)*cos(x2)",
    "exp(x1/4)",
    "1 + R^2",
    "x1*x2*x3 - x2^3",
    "atan(x1 + x2)",
    "sqrt(1 + x1^2)",
    "log(2 + x1^2)",
    "x1/(1 + x2^2)",
]


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(FD_SOURCES),
    index=st.integers(min_value=1, max_value=3),
    point=st.tuples(
        st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)
    ),
)
def test_derivative_matches_finite_difference(source, index, point):
    e = expr.parse(source, 3)
    d = expr.differentiate(e, index)
    h = 1e-5
    shifted = list(point)
    shifted[index - 1] += h
    up = expr.evaluate(e, shifted)
    shifted[index - 1] -= 2 * h
    down = expr.evaluate(e, shifted)
    fd = (up - down) / (2 * h)
    exact = expr.evaluate(d, point)
    assert exact == pytest.approx(fd, rel=1e-4, abs=1e-6)


ROUNDTRIP_SOURCES = FD_SOURCES + [
    "-x1^2",
    "x1 - (x2 - x3)",
    "x1/(x2/1.5 - 4)",
    "2^3^2 + x1",
    "-(x1 + x2)*x3",
    "x1^-2 + 0.125",
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_print_parse_roundtrip_is_exact(source):
    rng = np.random.default_rng(7)
    e = expr.parse(source, 3)
    text = expr.to_source(e)
    e2 = expr.parse(text, 3)
    assert expr.to_source(e2) == text
    for _ in range(20):
        p = rng.uniform(0.5, 2.0, size=3)
        try:
            v1 = expr.evaluate(e, p)
        except EvalDomainError:
            continue
        v2 = expr.evaluate(e2, p)
        assert v1 == v2  # bit-for-bit, same tree shape


class TestSubstitute:
    def test_coordinate_substitution(self):
        e = expr.parse("x1^2 + x2", 2)
        s = expr.substitute(e, var_map={1: expr.parse("sin(t)", 0, symbols=("t",))})
        assert expr.evaluate(s, (0.0, 3.0), {"t": math.pi / 2}) == pytest.approx(4.0)

    def test_symbol_substitution_folds(self):
        e = expr.parse("c*x1", 1, params=("c",))
        s = expr.substitute(e, sym_map={"c": expr.Num(0.0)})
        assert isinstance(s, expr.Num) and s.value == 0.0


class TestCompiled:
    def test_scalar_matches_evaluate(self):
        sources = ["x1*x2 - 3", "sin(x1)*exp(x2/3)", "1 + R^2"]
        exprs = [expr.parse(s, 3) for s in sources]
        f = expr.compile_exprs(exprs)
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = rng.uniform(-2, 2, size=3)
            got = f(p)
            want = tuple(expr.evaluate(e, p) for e in exprs)
            assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_scalar_with_symbols_and_params(self):
        e = expr.parse("c*t*x1", 1, symbols=("t",), params=("c",))
        f = expr.compile_exprs([e], symbols=("t",), params={"c": 3.0})
        assert f((2.0,), 0.5) == (3.0,)

    def test_vector_shapes_and_values(self):
        sources = ["x1 + x2", "x3^2", "5"]
        exprs = [expr.parse(s, 3) for s in sources]
        f = expr.compile_exprs_vec(exprs)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(3, 17))
        out = f(x)
        assert out.shape == (3, 17)
        np.testing.assert_allclose(out[0], x[0] + x[1], rtol=0, atol=0)
        np.testing.assert_allclose(out[1], x[2] ** 2, rtol=0, atol=0)
        np.testing.assert_allclose(out[2], 5.0, rtol=0, atol=0)

    def test_vector_symbols_broadcast(self):
        e = expr.parse("t*x1", 1, symbols=("t",))
        f = expr.compile_exprs_vec([e], symbols=("t",))
        x = np.array([[1.0, 2.0, 3.0]])
        t = np.array([2.0, 2.0, 2.0])
        np.testing.assert_allclose(f(x, t)[0], [2.0, 4.0, 6.0])
        np.testing.assert_allclose(f(x, 10.0)[0], [10.0, 20.0, 30.0])

    def test_vector_matches_evaluate(self):
        sources = FD_SOURCES
        exprs = [expr.parse(s, 3) for s in sources]
        f = expr.compile_exprs_vec(exprs)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 1.8, size=(3, 40))
        out = f(x)
        for k, e in enumerate(exprs):
            want = [expr.evaluate(e, x[:, j]) for j in range(40)]
            np.testing.assert_allclose(out[k], want, rtol=1e-14)


class TestComponents:
    def test_expression_passes_through_as_the_same_object(self):
        e = expr.parse("x1*x2", 2)
        assert expr.as_expression(e, 2) is e
        assert expr.components([e, "x1"], 2)[0] is e

    @pytest.mark.parametrize("value", [3, -2.5])
    def test_numbers_become_num(self, value):
        out = expr.as_expression(value, 1)
        assert isinstance(out, expr.Num) and out.value == float(value)

    def test_strings_with_symbols_and_params_are_parsed(self):
        out = expr.components(["c*t*x1", "x2 - t"], 2, symbols=("t",),
                              params={"c": 3.0})
        assert [expr.to_source(e) for e in out] == ["c * t * x1", "x2 - t"]
        assert expr.evaluate(out[0], (2.0, 0.0), {"c": 3.0, "t": 0.5}) == 3.0

    def test_count_mismatch_names_what(self):
        # the count is checked before any component is parsed
        with pytest.raises(ValidationError,
                           match="generator needs 3 components, got 2"):
            expr.components(["x9", "x1"], 3, what="generator")

    def test_count_may_differ_from_dim(self):
        # a sphere chart: three components in tau, theta, phi, no coordinates
        names = ("tau", "theta", "phi")
        out = expr.components(["tau*sin(theta)", "tau*cos(phi)", 0], 0,
                              symbols=names, what="sigma", count=3)
        assert len(out) == 3 and isinstance(out[2], expr.Num)
        with pytest.raises(ValidationError, match="sigma needs 3 components, got 2"):
            expr.components(["tau", "tau"], 0, symbols=names, what="sigma", count=3)
        with pytest.raises(ParseError, match="out of range"):
            expr.components(["x1", "0", "0"], 0, symbols=names, count=3)
