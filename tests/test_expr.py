import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from poispath import connection, expr, registry
from poispath.errors import EvalDomainError, ParseError, ValidationError


def ev(text, point, dim=None, **env):
    dim = dim if dim is not None else len(point)
    e = expr.parse(text, dim, params=tuple(env))
    return oracles.evaluate(e, point, env)


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

    def test_literal_beyond_the_float_range_is_rejected_at_its_offset(self):
        with pytest.raises(ParseError, match="1e400 overflows") as info:
            expr.parse("x1*1e400", 1)
        assert info.value.offset == 3

    def test_non_finite_constants_print(self):
        # trees built by hand can hold them; printing must not raise
        assert expr.to_source(expr.Num(math.inf)) == "inf"
        assert expr.to_source(expr.Num(-math.inf)) == "-inf"
        assert repr(expr.Add(expr.Var(1), expr.Num(math.nan))) == "Add('x1 + nan')"

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
            oracles.evaluate(e, (1.0,), {})

    def test_symbols(self):
        e = expr.parse("t*x1", 1, symbols=("t",))
        assert oracles.evaluate(e, (4.0,), {"t": 0.5}) == 2.0


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

    def test_complex_constant_power_is_rejected_at_parse_time(self):
        # the compiled evaluators would otherwise meet a complex constant
        with pytest.raises(ValidationError, match="negative base with fractional exponent"):
            expr.parse("x3*(-1)^0.5", 3)
        assert ev("x1*(-2)^3", (1.0,)) == -8.0

    @pytest.mark.parametrize("source", ["x3 + 1e200^2", "x3 + 0^-1", "x3 + (-0)^-0.5"])
    def test_constant_power_without_finite_value_is_rejected(self, source):
        # folding fails there, and the compiled code would raise
        # OverflowError or ZeroDivisionError
        with pytest.raises(ValidationError, match="constant power has no finite value"):
            expr.parse(source, 3)

    def test_negative_constant_base_is_printed_in_parentheses(self):
        with pytest.raises(ValidationError, match=r"in \(-1\)\^0\.5$"):
            expr.parse("x1*(-1)^0.5", 1)
        for k in (2.0, 3.0):
            e = expr.Pow(expr.Num(-2.0), k)
            assert expr.to_source(e) == f"(-2)^{k:g}"
            # the parser folds the power it reads back to the value of e
            back = expr.parse(expr.to_source(e), 0)
            assert isinstance(back, expr.Num) and back.value == (-2.0) ** k
        assert expr.to_source(expr.Pow(expr.Num(-0.0), 3.0)) == "(-0)^3"


class TestDifferentiate:
    def test_square(self):
        d = expr.differentiate(expr.parse("x1^2", 1), 1)
        assert expr.to_source(d) == "2 * x1"

    def test_radial_derivative_on_sphere(self):
        d = expr.differentiate(expr.parse("R", 3), 1)
        assert oracles.evaluate(d, (1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_unrelated_variable(self):
        d = expr.differentiate(expr.parse("sin(x1)", 2), 2)
        assert isinstance(d, expr.Num) and d.value == 0.0

    def test_symbol_derivative(self):
        e = expr.parse("t^2*x1", 1, symbols=("t",))
        d = expr.differentiate_sym(e, "t")
        assert oracles.evaluate(d, (3.0,), {"t": 2.0}) == pytest.approx(12.0)

    def test_r_squared_derivative_finite_at_origin(self):
        # R^2 folds to a polynomial, so the derivative is clean at 0
        d = expr.differentiate(expr.parse("R^2", 3), 1)
        assert oracles.evaluate(d, (0.0, 0.0, 0.0)) == 0.0

    def test_quotient_rule(self):
        d = expr.differentiate(expr.parse("x1/x2", 2), 2)
        assert oracles.evaluate(d, (3.0, 2.0)) == pytest.approx(-0.75)

    def test_chain_through_functions(self):
        d = expr.differentiate(expr.parse("exp(sin(x1))", 1), 1)
        x = 0.7
        assert oracles.evaluate(d, (x,)) == pytest.approx(math.exp(math.sin(x)) * math.cos(x))

    def test_atan_derivative(self):
        d = expr.differentiate(expr.parse("atan(x1)", 1), 1)
        assert oracles.evaluate(d, (2.0,)) == pytest.approx(1.0 / 5.0)


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
    up = oracles.evaluate(e, shifted)
    shifted[index - 1] -= 2 * h
    down = oracles.evaluate(e, shifted)
    fd = (up - down) / (2 * h)
    exact = oracles.evaluate(d, point)
    assert exact == pytest.approx(fd, rel=1e-4, abs=1e-6)


ROUNDTRIP_SOURCES = FD_SOURCES + [
    "-x1^2",
    "x1 - (x2 - x3)",
    "x1/(x2/1.5 - 4)",
    "2^3^2 + x1",
    "-(x1 + x2)*x3",
    "x1^-2 + 0.125",
    "(-2)^2*x1 - (-0.5)^3",
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
            v1 = oracles.evaluate(e, p)
        except EvalDomainError:
            continue
        v2 = oracles.evaluate(e2, p)
        assert v1 == v2  # bit-for-bit, same tree shape


class TestSubstitute:
    """oracles.substitute, which the symbolic curvature reference uses."""

    def test_coordinate_substitution(self):
        e = expr.parse("x1^2 + x2", 2)
        s = oracles.substitute(e, var_map={1: expr.parse("sin(t)", 0, symbols=("t",))})
        assert oracles.evaluate(s, (0.0, 3.0), {"t": math.pi / 2}) == pytest.approx(4.0)

    def test_symbol_substitution_folds(self):
        e = expr.parse("c*x1", 1, params=("c",))
        s = oracles.substitute(e, sym_map={"c": expr.Num(0.0)})
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
            want = tuple(oracles.evaluate(e, p) for e in exprs)
            assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_scalar_with_symbols_and_params(self):
        e = expr.parse("c*t*x1", 1, symbols=("t",), params=("c",))
        f = expr.compile_exprs([e], symbols=("t",), params={"c": 3.0})
        assert f((2.0,), 0.5) == (3.0,)

    def test_fractional_power_of_a_negative_constant_is_a_domain_error(self):
        # the parameter is folded in as a literal, where Python floats would
        # make the power complex; oracles.evaluate refuses it too
        e = expr.parse("c^0.5*x1", 1, params=("c",))
        with pytest.raises(EvalDomainError, match="negative base with fractional exponent"):
            oracles.evaluate(e, (1.0,), {"c": -8.0})
        for f, x in ((expr.compile_exprs([e], params={"c": -8.0}), (1.0,)),
                     (expr.compile_exprs_vec([e], params={"c": -8.0}), np.ones((1, 4)))):
            with pytest.raises(EvalDomainError, match="^expression evaluation left its "
                               "domain: negative base with fractional exponent"):
                f(x)
        with pytest.raises(EvalDomainError, match="negative base"):
            expr.compile_exprs([expr.parse("x1^1.5", 1)])((-4.0,))
        # a non-negative base, or an integer exponent, still computes
        assert expr.compile_exprs([e], params={"c": 4.0})((3.0,)) == (6.0,)
        np.testing.assert_array_equal(
            expr.compile_exprs_vec([e], params={"c": 4.0})(np.ones((1, 2))), [[2.0, 2.0]])
        cube = expr.parse("c^3*x1", 1, params=("c",))
        assert expr.compile_exprs([cube], params={"c": -2.0})((1.0,)) == (-8.0,)

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
            want = [oracles.evaluate(e, x[:, j]) for j in range(40)]
            np.testing.assert_allclose(out[k], want, rtol=1e-14)

    def test_signed_zero_literals_stay_apart(self):
        x = expr.Var(1)
        exprs = [expr.Add(x, expr.Num(0.0)), expr.Add(x, expr.Num(-0.0))]
        got = expr.compile_exprs(exprs)((-0.0,))
        assert [math.copysign(1.0, v) for v in got] == [1.0, -1.0]

    def test_literal_beyond_the_float_range_compiles_to_inf(self):
        # the parser rejects 1e400, but a tree built by hand can hold inf,
        # and the generated code must be able to name it
        x, inf = expr.Var(1), expr.Num(math.inf)
        exprs = [expr.Mul(x, inf), expr.Sub(x, inf)]
        assert expr.compile_exprs(exprs)((-2.0,)) == (-math.inf, -math.inf)
        assert expr.compile_exprs_vec(exprs)(np.array([[2.0]])).tolist() == [
            [math.inf], [-math.inf]]

    def test_evaluator_writes_the_rows_it_is_given(self):
        exprs = [expr.parse(s, 2) for s in ("x1*x2 + x1", "sin(x2)^2 - x1", "3")]
        f = expr.compile_exprs_vec(exprs)
        x = np.random.default_rng(7).uniform(-2.0, 2.0, size=(2, 9))
        want = _vector(oracles.tree_walk_compile(exprs, kind="vector"), x)
        arena = expr.arena_rows(f.slots, 9)
        arena[...] = 7.0
        out = f(x)
        assert out.shape == (3, 9) and out.tobytes() == want.tobytes()
        buf = np.full((f.slots, 9), np.nan)
        out = f(x, rows=buf)
        assert np.shares_memory(out, buf) and out.tobytes() == want.tobytes()
        rows = tuple(np.full((f.slots, 9), np.nan))
        f(x, rows=rows)
        assert np.array(rows[:3]).tobytes() == want.tobytes()
        # the thread's arena is written only when its rows are passed
        assert np.all(arena == 7.0)
        out = f(x, rows=expr.arena_rows(f.slots, 9))
        assert np.shares_memory(out, arena) and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["no coordinate rows", "scalar symbols", "coordinate rows"])
    def test_new_rows_hold_the_values_of_caller_rows(self, case):
        # no power of a scalar symbol: Python's float ** need not round as
        # numpy's square does
        sources = ["sin(t)*eps + t*t", "exp(-eps)/(1 + t)", "2", "eps"]
        rng = np.random.default_rng(13)
        if case == "coordinate rows":
            sources += ["x1^2*t - eps/x2", "atan(x2) + R"]
            x, values = rng.uniform(0.5, 2.0, size=(2, 11)), (0.3, rng.uniform(-1.0, 1.0, 11))
        elif case == "scalar symbols":
            x, values = np.empty((0, 1)), (0.3, -1.7)
        else:  # as PathFamily evaluates the generator terms free of x
            x, values = np.empty((0, 11)), tuple(rng.uniform(-1.0, 1.0, size=(2, 11)))
        exprs = [expr.parse(s, len(x), symbols=("t", "eps")) for s in sources]
        f = expr.compile_exprs_vec(exprs, symbols=("t", "eps"))
        m = 1 if case == "scalar symbols" else 11
        got = f(x, *values)
        given = f(x, *values, rows=np.full((f.slots, m), np.nan))
        want = np.empty((len(exprs), m))
        oracle = oracles.tree_walk_compile(exprs, symbols=("t", "eps"), kind="vector")
        for row, value in enumerate(oracle(x, *values)):
            want[row] = value
        assert got.shape == (len(exprs), m)
        assert got.tobytes() == given.tobytes() == want.tobytes()

    def test_shared_subtree_is_computed_once(self):
        structure = registry.load("builtin:su2_scaled?a=exp(R^2/3)").structure
        # the sphere kernel holds p and its Jacobian in one DAG
        kernel = connection._sphere_kernel(structure, rate=True)
        assert kernel.source.count("_f_exp(") == 1
        # the structure's own evaluator serves p = (Pi^23, Pi^31, Pi^12)
        structure.pi_many(np.zeros((1, 3)))
        assert structure._evaluators["pi"].source.count("_f_exp(") == 1
        assert expr.compile_exprs([expr.parse("exp(R)", 3)] * 2).source.count("exp") == 1

    def test_split_free_hoists_coordinate_free_subtrees(self):
        gen = [expr.parse(s, 2, symbols=("t", "eps"))
               for s in ("sin(t)*eps*x1 + sin(t)*eps", "cos(t) + x2", "t")]
        free, rest = expr.split_free(gen, "h")
        assert [expr.to_source(e) for e in free] == ["sin(t) * eps", "cos(t)"]
        assert [expr.to_source(e) for e in rest] == ["h0 * x1 + h0", "h1 + x2", "t"]


# leaves and operators of random trees for the emitter properties: R, signed
# zero literals, constant powers and every function
_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0, 3.0]).map(expr.Num),
    st.integers(1, 3).map(expr.Var),
    st.just(expr.parse("R", 3)),
)


def _grow(children):
    binary = st.sampled_from([expr.Add, expr.Sub, expr.Mul, expr.Div])
    return st.one_of(
        st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
        children.map(expr.Neg),
        st.tuples(children, st.sampled_from([2.0, 3.0, 0.5, -1.0, -2.0]))
        .map(lambda t: expr.Pow(*t)),
        st.tuples(st.sampled_from(expr.FUNCTIONS), children)
        .map(lambda t: expr.Call(*t)),
    )


_TREES = st.recursive(_LEAVES, _grow, max_leaves=10)
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1e-300]), st.floats(-3.0, 3.0))


def _ieee_exact(e):
    """Only + - * /, negation and sqrt, which numpy and math both round
    exactly; their pow, exp, log and atan may differ in the last bit."""
    if isinstance(e, expr.Pow) or (isinstance(e, expr.Call) and e.func != "sqrt"):
        return False
    return all(_ieee_exact(getattr(e, attr)) for attr in ("left", "right", "operand", "arg")
               if hasattr(e, attr))


def _scalar(fn, point):
    try:
        values = fn(point)
    except (ArithmeticError, ValueError, TypeError, EvalDomainError):
        return "raised"
    # Python floats turn a fractional power of a negative base into a
    # complex, which stays complex to the root; the compiled evaluator raises
    return "raised" if any(isinstance(v, complex) for v in values) else repr(values)


def _vector(fn, points):
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            values = fn(points)
            out = np.empty((len(values), points.shape[1]))
            for row, value in enumerate(values):
                out[row] = value
        return out
    except (ArithmeticError, ValueError, TypeError, EvalDomainError,
            np.exceptions.ComplexWarning):
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cse_emitter_matches_the_tree_walk(data):
    pool = data.draw(st.lists(_TREES, min_size=1, max_size=4))

    def repeat():
        # the same object or a structurally equal copy of it
        e = data.draw(st.sampled_from(pool))
        return copy.deepcopy(e) if data.draw(st.booleans()) else e

    exprs = pool + [data.draw(st.sampled_from([expr.Add, expr.Mul, expr.Div]))(
        repeat(), repeat()) for _ in range(data.draw(st.integers(1, 4)))]
    points = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD, _COORD),
                                         min_size=1, max_size=5))).T
    m = points.shape[1]

    # constant subtrees run in Python floats, and may raise there
    fn = expr.compile_exprs_vec(exprs)
    got = _vector(fn, points)
    want = _vector(oracles.tree_walk_compile(exprs, kind="vector"), points)
    given = _vector(lambda x: fn(x, rows=np.full((fn.slots, m), np.nan)), points)
    assert (got is None) == (want is None) == (given is None)
    if got is not None:
        assert got.tobytes() == want.tobytes() == given.tobytes()

    scalar = expr.compile_exprs(exprs)
    walk = oracles.tree_walk_compile(exprs)
    for j in range(m):
        point = tuple(float(v) for v in points[:, j])
        values = _scalar(scalar, point)
        assert values == _scalar(walk, point)
        for row, e in enumerate(exprs):
            try:
                value = oracles.evaluate(e, point)
            except EvalDomainError:
                continue
            if values != "raised":
                assert repr(scalar(point)[row]) == repr(value)
            if got is not None:
                # evaluate raises on every non-finite intermediate, so a
                # non-finite compiled value here would be one left unreported
                assert np.isfinite(got[row, j])
                if _ieee_exact(e):
                    assert repr(float(got[row, j])) == repr(value)


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
        assert oracles.evaluate(out[0], (2.0, 0.0), {"c": 3.0, "t": 0.5}) == 3.0

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
