"""Scalar expression language.

Structure coefficients, Hamiltonians, form components, and sphere charts are
all written in a small expression language: numeric literals, coordinates
``x1..xn``, named symbols (time variables, parameters), the operators
``+ - * / ^``, unary minus, the functions ``sin cos exp log sqrt atan``, and
the radial shorthand ``R`` which expands at parse time to
``sqrt(x1^2 + ... + xn^2)``.

Expressions are immutable trees. Differentiation is exact and symbolic with
light constant folding. Expressions are evaluated only by compiling them:
``compile_exprs`` turns a list of expressions into a plain-Python evaluator at
one point (a single path's ODE field, the invariants of a foliated product),
``compile_exprs_vec`` into a numpy evaluator over batches of points that
writes its values into rows its caller passes, or into a new array. An
evaluator raises EvalDomainError where its float operations raise; a
non-finite value that nothing raises on is returned, and the caller checks
its values with ``errors.require_finite``. Both evaluators share one CSE
emitter: a subtree that recurs (``R``, or a factor that differentiation
copies) is computed once, with the float operations of the tree in their
order, so values match a plain tree walk bit for bit; ``.source`` holds the
generated code. Three callers pass rows of this thread's scratch arena
(``arena_rows``): the sphere kernel of connection, the chart evaluators of
SigmaSphereFamily and the curvature kernel. ``split_free`` cuts out the
subtrees that read no coordinate, for callers that evaluate them once for
many points; ``dag_key`` keys caches of compiled evaluators by expression
structure.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import EvalDomainError, ParseError, ValidationError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "atan")

_SCALAR_FUNCS = {name: getattr(math, name) for name in FUNCTIONS}
# numpy before 2.0 has arctan but no atan
_VECTOR_FUNCS = {name: getattr(np, "arctan" if name == "atan" else name) for name in FUNCTIONS}


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
    # is left to the evaluator and its caller's finiteness check
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
            raise ValidationError(
                f"constant power has no finite value in {to_source(Pow(base, k))}") from None
        if isinstance(value, complex):
            raise ValidationError(
                f"negative base with fractional exponent in {to_source(Pow(base, k))}")
        if math.isfinite(value):
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
            if math.isinf(float(text)):
                raise ParseError(f"number {text} overflows to infinity", pos)
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
    # inf and nan fail the first test, so int() never sees them
    if abs(value) < 1e16 and value == int(value):
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
        # a negative constant base is a unary minus in source, which binds
        # more loosely than ^
        if _prec(e.base) < _PREC_ATOM or base.startswith("-"):
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
# compilation to fast evaluators

def _dag(exprs):
    """Structurally distinct subtrees of exprs in topological order.

    Returns (nodes, roots, key): nodes[i] is (node, child ids), roots are the
    ids of exprs and key is the hashable pair of the node keys in order and
    the roots. A node is keyed by its type, child ids and the repr of its
    other slots, which tells 0.0 from -0.0.
    """
    ids, seen, nodes = {}, {}, []

    def visit(e):
        if id(e) not in seen:
            if not isinstance(e, Expression):
                raise TypeError(f"not an expression: {e!r}")
            slots = [getattr(e, name) for name in type(e).__slots__]
            kids = tuple(visit(v) for v in slots if isinstance(v, Expression))
            key = (type(e), kids, repr([v for v in slots if not isinstance(v, Expression)]))
            if key not in ids:
                ids[key] = len(nodes)
                nodes.append((e, kids))
            seen[id(e)] = ids[key]
        return seen[id(e)]

    roots = [visit(e) for e in exprs]
    return nodes, roots, (tuple(ids), tuple(roots))


def dag_key(exprs):
    """A hashable key that two lists of expressions share exactly when they
    are structurally equal, node for node: types, coordinates, symbols and
    constants by repr, so 0.0 and -0.0 differ. Evaluators compiled from
    lists of equal keys compute the same values."""
    return _dag(exprs)[2]


# ufuncs of the numpy rendering; at these exponents numpy's ndarray ** gives
# the bits of the cheaper ufunc
_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide, Neg: np.negative}
_POW_UFUNCS = {2.0: np.square, 0.5: np.sqrt, 1.0: np.positive, -1.0: np.reciprocal}


class _Arena(threading.local):
    cells = np.empty(0)


_ARENA = _Arena()


def arena_rows(n, m):
    """Rows 0..n-1, m long each, of this thread's scratch arena: its first
    n m cells.

    Every call on a thread reuses the same memory: rows handed out stay
    valid until a later call writes them (an evaluator writes the rows
    0..slots-1 it is given), asks for another row length, which lays the rows
    out anew, or for more cells, which moves the arena. A caller whose rows
    must outlive an evaluator's call takes them above its slots, at the same
    m."""
    cells = _ARENA.cells
    if n * m > cells.size:
        cells = _ARENA.cells = np.empty(n * m)
    return cells[:n * m].reshape(n, m)


def _real_pow(base, exponent):
    """base ** exponent for an inline power with a fractional exponent; a
    negative Python float base gives a complex there, which is refused."""
    value = base ** exponent
    if isinstance(value, complex):
        raise ArithmeticError(
            f"negative base with fractional exponent in {base!r} ** {exponent!r}")
    return value


def _build(exprs, symbols, params, vector):
    """Emit and compile one function for exprs; returns it with its source
    and its row count.

    Each structurally distinct subtree is computed once: a node read more
    than once becomes a local, assigned in topological order, and the others
    are written inline, so every subtree keeps its float operations in their
    order. The point rendering (vector false) does so in Python floats and
    math. In the numpy rendering (vector set), every node that reads a
    coordinate or a symbol is instead one ufunc call with out= a row of the
    extra argument _a, and only constants are written inline. Roots end in
    rows 0..k-1. A row is freed after its node's last reader and reused; a
    root's row serves temporaries that die before the root is computed.
    """
    nodes, roots, _ = _dag(exprs)
    uses = [0] * len(nodes)
    for k in [k for _, kids in nodes for k in kids] + roots:
        uses[k] += 1
    params = params or {}
    last = [0] * len(nodes)
    for i, (_, kids) in enumerate(nodes):
        for k in kids:
            last[k] = i
    # row j may hold a temporary whose last reader comes no later than node
    # until[j], which computes the root of the row (never, for other rows)
    root_slot, until = {}, [math.inf] * len(roots)
    for j, r in enumerate(roots):
        if r not in root_slot:
            root_slot[r], until[j] = j, r
    left, free, slot_of = list(uses), list(range(len(roots))), {}
    varying, code, lines = [], [], []
    for i, (e, kids) in enumerate(nodes):
        args = [code[k] for k in kids]
        varying.append(isinstance(e, Var) or (isinstance(e, Sym) and e.name not in params)
                       or any(varying[k] for k in kids))
        if vector and kids and varying[i]:
            for k in kids:
                left[k] -= 1
                if left[k] == 0 and k in slot_of:
                    free.append(slot_of.pop(k))
            # the root's own row, else the free row that frees up soonest (the
            # latest freed among those), else a new one
            fits = [s for s in reversed(free) if until[s] >= last[i]]
            slot = root_slot.get(i, min(fits, key=until.__getitem__) if fits else len(until))
            if slot < len(until):
                free.remove(slot)
            else:
                until.append(math.inf)
            if i not in root_slot:
                slot_of[i] = slot
            if isinstance(e, Call):
                name = f"_f_{e.func}"
            elif isinstance(e, Pow):
                name = f"_{_POW_UFUNCS.get(e.exponent, np.power).__name__}"
                args += [] if e.exponent in _POW_UFUNCS else [repr(e.exponent)]
            else:
                name = f"_{_UFUNCS[type(e)].__name__}"
            text = f"_a{slot}"
            lines.append(f"    {name}({', '.join(args)}, out={text})\n")
            code.append(text)
            continue
        if isinstance(e, Num):
            text = f"({e.value!r})"
        elif isinstance(e, Var):
            text = f"x[{e.index - 1}]"
        elif isinstance(e, Sym):
            text = f"({float(params[e.name])!r})" if e.name in params else f"_s_{e.name}"
        elif isinstance(e, Pow) and float(e.exponent).is_integer():
            text = f"({args[0]} ** ({e.exponent!r}))"
        elif isinstance(e, Pow):
            text = f"_real_pow({args[0]}, {e.exponent!r})"
        elif isinstance(e, Call):
            text = f"_f_{e.func}({args[0]})"
        else:
            text = f"({args[0]} {e.op} {args[1]})" if isinstance(e, _Binary) else f"(-{args[0]})"
        if uses[i] > 1 and (kids or isinstance(e, Var)):
            lines.append(f"    _{i} = {text}\n")
            text = f"_{i}"
        code.append(text)
    head = ", ".join(["x"] + [f"_s_{name}" for name in symbols])
    if vector:
        # roots not written by their own ufunc call: repeats, constants, inputs
        fills = [f"    _a{j}[...] = {code[r]}\n" for j, r in enumerate(roots)
                 if code[r] != f"_a{j}"]
        slots = len(until)
        unpack = f"    {''.join(f'_a{j}, ' for j in range(slots))}= _a\n" if slots else ""
        source = (f"def _compiled({head}, _a):\n{unpack}{''.join(lines + fills)}"
                  f"    return _a[:{len(roots)}]\n")
    else:
        body = ", ".join(code[r] for r in roots)
        source = (f"def _compiled({head}):\n{''.join(lines)}"
                  f"    return ({body}{',' if len(roots) == 1 else ''})\n")
    # a literal beyond the float range parses to inf, and repr writes it so
    ufuncs = (np.power, *_UFUNCS.values(), *_POW_UFUNCS.values())
    funcs = _VECTOR_FUNCS if vector else _SCALAR_FUNCS
    namespace = {"inf": math.inf, "nan": math.nan, "_real_pow": _real_pow,
                 **{f"_{u.__name__}": u for u in ufuncs},
                 **{f"_f_{name}": fn for name, fn in funcs.items()}}
    exec(source, namespace)  # noqa: S102 - generated from a closed AST
    return namespace["_compiled"], source, len(until) if vector else 0


def split_free(exprs, name, coords=()):
    """Split exprs at their maximal compound subtrees that read no coordinate
    and none of the symbols named in coords.

    Returns (free, rest): free lists those subtrees once each, and rest is
    exprs with the k-th of them replaced by Sym(f"{name}{k}"). Nodes are
    rebuilt without folding, so rest, given the values of free, performs the
    remaining float operations of exprs unchanged.
    """
    nodes, roots, _ = _dag(exprs)
    has_x = []
    for e, kids in nodes:
        has_x.append(isinstance(e, Var) or (isinstance(e, Sym) and e.name in coords)
                     or any(has_x[k] for k in kids))
    free, rest = [], {}

    def walk(i):
        if i not in rest:
            e, kids = nodes[i]
            if kids and not has_x[i]:
                rest[i] = Sym(f"{name}{len(free)}")
                free.append(e)
            elif kids:
                new = iter([walk(k) for k in kids])
                rest[i] = type(e)(*[next(new) if isinstance(v, Expression) else v
                                    for v in (getattr(e, s) for s in type(e).__slots__)])
            else:
                rest[i] = e
        return rest[i]

    return free, [walk(r) for r in roots]


def compile_exprs(exprs, symbols=(), params=None):
    """Compile expressions into ``f(x, *symbol_values) -> tuple of floats``.

    ``x`` is an indexable point. Parameters are folded into the generated code
    as constants. A division by zero, an overflow or a math function off its
    domain raises EvalDomainError, which names the symbol values and the
    point. A float operation that overflows to inf raises nothing, so a
    non-finite value is returned as it is, and a later operation may make it
    finite again (1 / inf is 0): callers check the values, not the
    intermediates.
    """
    raw, source, _ = _build(list(exprs), symbols, params, vector=False)

    def at_point(x, *sym_values):
        try:
            return raw(x, *sym_values)
        except (ArithmeticError, ValueError) as exc:
            where = [f"{name}={float(v)!r}" for name, v in zip(symbols, sym_values)]
            where.append(f"x=[{', '.join(repr(float(v)) for v in x)}]")
            raise EvalDomainError(f"expression evaluation left its domain at "
                                  f"{', '.join(where)}: {exc}") from None

    at_point.source = source
    return at_point


def compile_exprs_vec(exprs, symbols=(), params=None):
    """Compile expressions into a numpy evaluator
    ``f(x, *symbol_values, rows=None)``.

    ``x`` is a (dim, m) array or a sequence of dim m-long rows, and each
    symbol value a scalar or an array broadcasting to m; when x has no rows,
    m is the symbol values' broadcast length. The evaluator writes the k
    values into rows 0..k-1 of ``rows``, a (slots, m) array or a sequence of
    ``slots`` m-long rows (a new array when None), and returns those k rows,
    a (k, m) view of an array; the rows above hold temporaries. Constants
    are broadcast. A division by zero between constants raises
    EvalDomainError; numpy's non-finite values are returned as they are.
    """
    raw, source, slots = _build(list(exprs), symbols, params, vector=True)

    def on_grid(x, *sym_values, rows=None):
        if rows is None:
            m = len(x[0]) if len(x) else np.broadcast(*sym_values, 0.0).size
            rows = np.empty((slots, m))
        try:
            return raw(x, *sym_values, rows)
        except ArithmeticError as exc:
            raise EvalDomainError(f"expression evaluation left its domain: {exc}") from None

    on_grid.slots = slots
    on_grid.source = source
    return on_grid
