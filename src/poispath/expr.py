"""Scalar expression language.

Structure coefficients, Hamiltonians, form components, and sphere charts are
all written in a small expression language: numeric literals, coordinates
``x1..xn``, named symbols (time variables, parameters), the operators
``+ - * / ^``, unary minus, the functions ``sin cos exp log sqrt atan``, and
the radial shorthand ``R`` which expands at parse time to
``sqrt(x1^2 + ... + xn^2)``.

Expressions are immutable trees. Differentiation is exact and symbolic with
light constant folding; evaluation reports domain problems instead of letting
non-finite values propagate. ``compile_exprs`` / ``compile_exprs_vec`` turn a
list of expressions into fast plain-Python or numpy evaluators for the inner
loops of the ODE and quadrature code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvalDomainError, ParseError, ValidationError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "atan")

_SCALAR_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}

_VECTOR_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}


class Expression:
    __slots__ = ()

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_source(self)!r})"


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Var(Expression):
    """Coordinate variable x<index>, 1-based."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = int(index)


class Sym(Expression):
    """Named symbol: an extra variable (t, eps, tau, ...) or a parameter."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Binary(Expression):
    __slots__ = ("left", "right")
    op = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Add(_Binary):
    op = "+"


class Sub(_Binary):
    op = "-"


class Mul(_Binary):
    op = "*"


class Div(_Binary):
    op = "/"


class Pow(Expression):
    """Power with a constant exponent. Constant exponents keep symbolic
    differentiation total; the parser enforces the restriction."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)


class Neg(Expression):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class Call(Expression):
    __slots__ = ("func", "arg")

    def __init__(self, func, arg):
        self.func = func
        self.arg = arg


# ---------------------------------------------------------------------------
# smart constructors: build nodes with light folding (0*e -> 0, e+0 -> e,
# 1*e -> e, numeric subtrees collapsed when the result is finite)

def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def _fold(value):
    # refuse to bake non-finite constants into the tree; the unfolded node
    # will raise a proper domain error at evaluation time
    return Num(value) if math.isfinite(value) else None


def add(a, b):
    if _is_num(a) and _is_num(b):
        folded = _fold(a.value + b.value)
        if folded is not None:
            return folded
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_num(a) and _is_num(b):
        folded = _fold(a.value - b.value)
        if folded is not None:
            return folded
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_num(a) and _is_num(b):
        folded = _fold(a.value * b.value)
        if folded is not None:
            return folded
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        folded = _fold(a.value / b.value)
        if folded is not None:
            return folded
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def powc(base, exponent):
    k = float(exponent)
    if k == 1.0:
        return base
    if k == 0.0:
        return Num(1.0)
    # sqrt(u)^(2m) is rewritten as u^m so that radial powers like R^2 stay
    # differentiable at the origin instead of producing 0/0 chain-rule terms
    if isinstance(base, Call) and base.func == "sqrt" and k == int(k) and int(k) % 2 == 0:
        return powc(base.arg, int(k) // 2)
    if _is_num(base):
        try:
            value = base.value ** k
        except (OverflowError, ValueError, ZeroDivisionError):
            value = None
        if isinstance(value, float) and math.isfinite(value):
            return Num(value)
    return Pow(base, k)


def call(func, arg):
    if func not in _SCALAR_FUNCS:
        raise ValueError(f"unknown function {func!r}")
    if _is_num(arg):
        try:
            value = _SCALAR_FUNCS[func](arg.value)
        except (ValueError, OverflowError):
            value = None
        if value is not None and math.isfinite(value):
            return Num(value)
    return Call(func, arg)


# ---------------------------------------------------------------------------
# parsing

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, dim, symbols, params):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.symbols = set(symbols)
        self.params = set(params)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return neg(self.unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        e = self.primary()
        while self.peek()[0] == "^":
            self.advance()
            sign = 1.0
            if self.peek()[0] == "-":
                self.advance()
                sign = -1.0
            tok = self.peek()
            rhs = self.primary()
            if not isinstance(rhs, Num):
                raise ParseError("exponent must fold to a numeric constant", tok[2])
            e = powc(e, sign * rhs.value)
        return e

    def primary(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if text in _SCALAR_FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return call(text, arg)
            if text == "R":
                return self.radial(pos)
            if text.startswith("x") and text[1:].isdigit():
                index = int(text[1:])
                if not 1 <= index <= self.dim:
                    raise ParseError(f"coordinate index out of range: {text} with dim {self.dim}", pos)
                return Var(index)
            if text in self.symbols or text in self.params:
                return Sym(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)

    def radial(self, pos):
        if self.dim < 1:
            raise ParseError("R needs at least one coordinate in scope", pos)
        total = powc(Var(1), 2)
        for index in range(2, self.dim + 1):
            total = add(total, powc(Var(index), 2))
        return call("sqrt", total)


def parse(text, dim, symbols=(), params=()):
    """Parse expression text over coordinates x1..x<dim>.

    Args:
        text: the expression source.
        dim: number of coordinates in scope; x<k> outside 1..dim is rejected.
        symbols: extra variable names admitted (for example ``("t",)`` for
            time-dependent forms or ``("tau", "theta", "phi")`` for charts).
        params: parameter names admitted; values are bound at evaluation.

    Raises ParseError with a byte offset on syntax errors, unknown
    identifiers, and out-of-range coordinate indices.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, dim, symbols, params).parse()


def as_expression(value, dim, symbols=(), params=()):
    """An Expression as it is, a number as Num, anything else parsed from
    its string form with ``parse(str(value), dim, symbols, params)``."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Num(value)
    return parse(str(value), dim, symbols=symbols, params=tuple(params))


def components(values, dim, symbols=(), params=(), what="expression", count=None):
    """as_expression for each of values, which must have count entries
    (dim when count is None); a mismatch raises ValidationError naming what."""
    values = list(values)
    count = dim if count is None else count
    if len(values) != count:
        raise ValidationError(f"{what} needs {count} components, got {len(values)}")
    return [as_expression(v, dim, symbols, params) for v in values]


# ---------------------------------------------------------------------------
# printing (parse(to_source(e)) rebuilds an identically evaluating tree)

_PREC_ATOM = 5
_PREC_POW = 4
_PREC_NEG = 3
_PREC_MULDIV = 2
_PREC_ADDSUB = 1


def _prec(e):
    if isinstance(e, (Num, Var, Sym, Call)):
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, (Mul, Div)):
        return _PREC_MULDIV
    return _PREC_ADDSUB


def _fmt_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_source(e):
    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            return "-" + _fmt_number(-e.value)
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Pow):
        base = to_source(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        exp = _fmt_number(e.exponent) if e.exponent >= 0 else "-" + _fmt_number(-e.exponent)
        return f"{base}^{exp}"
    if isinstance(e, _Binary):
        mine = _prec(e)
        left = to_source(e.left)
        if _prec(e.left) < mine:
            left = f"({left})"
        right = to_source(e.right)
        # parenthesize the right operand on ties so reparsing associates
        # exactly the same way and reproduces the same float operations
        if _prec(e.right) <= mine:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, index):
    """Exact partial derivative with respect to coordinate x<index>."""
    return _diff(e, ("var", int(index)))


def differentiate_sym(e, name):
    """Exact derivative with respect to a named symbol."""
    return _diff(e, ("sym", name))


def _diff(e, wrt):
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if wrt == ("var", e.index) else Num(0.0)
    if isinstance(e, Sym):
        return Num(1.0) if wrt == ("sym", e.name) else Num(0.0)
    if isinstance(e, Add):
        return add(_diff(e.left, wrt), _diff(e.right, wrt))
    if isinstance(e, Sub):
        return sub(_diff(e.left, wrt), _diff(e.right, wrt))
    if isinstance(e, Mul):
        return add(mul(_diff(e.left, wrt), e.right), mul(e.left, _diff(e.right, wrt)))
    if isinstance(e, Div):
        num = sub(mul(_diff(e.left, wrt), e.right), mul(e.left, _diff(e.right, wrt)))
        return div(num, powc(e.right, 2))
    if isinstance(e, Pow):
        inner = _diff(e.base, wrt)
        return mul(mul(Num(e.exponent), powc(e.base, e.exponent - 1.0)), inner)
    if isinstance(e, Neg):
        return neg(_diff(e.operand, wrt))
    if isinstance(e, Call):
        inner = _diff(e.arg, wrt)
        if e.func == "sin":
            return mul(call("cos", e.arg), inner)
        if e.func == "cos":
            return neg(mul(call("sin", e.arg), inner))
        if e.func == "exp":
            return mul(e, inner)
        if e.func == "log":
            return div(inner, e.arg)
        if e.func == "sqrt":
            return div(inner, mul(Num(2.0), e))
        if e.func == "atan":
            return div(inner, add(Num(1.0), powc(e.arg, 2)))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# substitution

def substitute(e, var_map=None, sym_map=None):
    """Replace coordinates and/or named symbols by expressions.

    ``var_map`` maps 1-based coordinate indices to Expressions, ``sym_map``
    maps symbol names to Expressions. Rebuilds through the folding
    constructors, so substituting constants simplifies the tree.
    """
    var_map = var_map or {}
    sym_map = sym_map or {}

    def walk(node):
        if isinstance(node, Num):
            return node
        if isinstance(node, Var):
            return var_map.get(node.index, node)
        if isinstance(node, Sym):
            return sym_map.get(node.name, node)
        if isinstance(node, Add):
            return add(walk(node.left), walk(node.right))
        if isinstance(node, Sub):
            return sub(walk(node.left), walk(node.right))
        if isinstance(node, Mul):
            return mul(walk(node.left), walk(node.right))
        if isinstance(node, Div):
            return div(walk(node.left), walk(node.right))
        if isinstance(node, Pow):
            return powc(walk(node.base), node.exponent)
        if isinstance(node, Neg):
            return neg(walk(node.operand))
        if isinstance(node, Call):
            return call(node.func, walk(node.arg))
        raise TypeError(f"not an expression: {node!r}")

    return walk(e)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e, point=(), env=None):
    """Evaluate at a point, with parameters and extra symbols bound in env.

    Non-finite intermediates (poles, log of a non-positive number, overflow)
    raise EvalDomainError instead of propagating silently.
    """
    env = env or {}

    def walk(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            if node.index > len(point):
                raise EvalDomainError(
                    f"point has {len(point)} coordinates, expression uses x{node.index}")
            return float(point[node.index - 1])
        if isinstance(node, Sym):
            try:
                return float(env[node.name])
            except KeyError:
                raise EvalDomainError(f"unbound parameter {node.name!r}") from None
        if isinstance(node, Add):
            return _check(walk(node.left) + walk(node.right), node)
        if isinstance(node, Sub):
            return _check(walk(node.left) - walk(node.right), node)
        if isinstance(node, Mul):
            return _check(walk(node.left) * walk(node.right), node)
        if isinstance(node, Div):
            denom = walk(node.right)
            if denom == 0.0:
                raise EvalDomainError(f"division by zero in {to_source(node)}")
            return _check(walk(node.left) / denom, node)
        if isinstance(node, Pow):
            base = walk(node.base)
            try:
                value = base ** node.exponent
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise EvalDomainError(f"power domain error in {to_source(node)}: {exc}") from None
            if isinstance(value, complex):
                raise EvalDomainError(
                    f"negative base with fractional exponent in {to_source(node)}")
            return _check(value, node)
        if isinstance(node, Neg):
            return -walk(node.operand)
        if isinstance(node, Call):
            arg = walk(node.arg)
            try:
                value = _SCALAR_FUNCS[node.func](arg)
            except (ValueError, OverflowError) as exc:
                raise EvalDomainError(f"domain error in {to_source(node)}: {exc}") from None
            return _check(value, node)
        raise TypeError(f"not an expression: {node!r}")

    def _check(value, node):
        if not math.isfinite(value):
            raise EvalDomainError(f"non-finite value in {to_source(node)}")
        return value

    return walk(e)


# ---------------------------------------------------------------------------
# compilation to fast evaluators

def _codegen(e, params):
    if isinstance(e, Num):
        return f"({e.value!r})"
    if isinstance(e, Var):
        return f"x[{e.index - 1}]"
    if isinstance(e, Sym):
        if params is not None and e.name in params:
            return f"({float(params[e.name])!r})"
        return f"_s_{e.name}"
    if isinstance(e, Add):
        return f"({_codegen(e.left, params)} + {_codegen(e.right, params)})"
    if isinstance(e, Sub):
        return f"({_codegen(e.left, params)} - {_codegen(e.right, params)})"
    if isinstance(e, Mul):
        return f"({_codegen(e.left, params)} * {_codegen(e.right, params)})"
    if isinstance(e, Div):
        return f"({_codegen(e.left, params)} / {_codegen(e.right, params)})"
    if isinstance(e, Pow):
        return f"({_codegen(e.base, params)} ** ({e.exponent!r}))"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.operand, params)})"
    if isinstance(e, Call):
        return f"_f_{e.func}({_codegen(e.arg, params)})"
    raise TypeError(f"not an expression: {e!r}")


def _build(exprs, symbols, params, funcs):
    args = ", ".join(["x"] + [f"_s_{name}" for name in symbols])
    body = ", ".join(_codegen(e, params) for e in exprs)
    source = f"def _compiled({args}):\n    return ({body}{',' if len(list(exprs)) == 1 else ''})\n"
    namespace = {f"_f_{name}": fn for name, fn in funcs.items()}
    exec(source, namespace)  # noqa: S102 - generated from a closed AST
    return namespace["_compiled"]


def compile_exprs(exprs, symbols=(), params=None):
    """Compile expressions into ``f(x, *symbol_values) -> tuple of floats``.

    ``x`` is an indexable point. Parameters are folded into the generated code
    as constants. No domain checking is performed; use ``evaluate`` when error
    reporting matters.
    """
    exprs = list(exprs)
    return _build(exprs, symbols, params, _SCALAR_FUNCS)


def compile_exprs_vec(exprs, symbols=(), params=None):
    """Compile expressions into a numpy evaluator.

    The returned function takes ``x`` of shape (dim, m) plus one broadcastable
    array or scalar per symbol and returns an array of shape (k, m), where k
    is the number of expressions. Constant expressions are broadcast.
    """
    exprs = list(exprs)
    raw = _build(exprs, symbols, params, _VECTOR_FUNCS)
    k = len(exprs)

    def evaluate_grid(x, *sym_values):
        x = np.asarray(x, dtype=float)
        m = x.shape[1] if x.ndim > 1 else 1
        values = raw(x, *sym_values)
        out = np.empty((k, m), dtype=float)
        for row, value in enumerate(values):
            out[row] = value
        return out

    return evaluate_grid
