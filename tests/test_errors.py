"""The fail-closed gate of errors.py, and that it is the one place the
finiteness rule is written."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import su2, su2_splitting
from poispath import connection, monodromy, paths
from poispath.errors import NumericalError, ValidationError, require_finite, require_within
from poispath.homotopy import flow_by_action

SRC = Path(__file__).resolve().parents[1] / "src" / "poispath"

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRequireFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("shape", ["scalar", "sequence", "array"])
    def test_any_non_finite_entry_fails(self, bad, shape):
        values = {"scalar": bad, "sequence": (1.0, bad),
                  "array": np.array([[0.0, 1.0], [bad, 2.0]])}
        with pytest.raises(NumericalError):
            require_finite(values[shape], "not finite")

    @pytest.mark.parametrize("values", [0.0, -1e308, (1.0, 2.0), np.zeros((2, 3)), (), [1j]])
    def test_finite_values_pass(self, values):
        assert require_finite(values, "not finite") is None

    def test_type_and_message_pass_through(self):
        with pytest.raises(ValidationError) as info:
            require_finite([math.nan], "path file holds non-finite values in 't'", ValidationError)
        assert type(info.value) is ValidationError
        assert str(info.value) == "path file holds non-finite values in 't'"


class TestRequireWithin:
    @pytest.mark.parametrize("value, bound", [(math.nan, 1.0), (1.0, math.nan),
                                              (math.inf, 1.0), (2.0, 1.0), (math.nan, math.inf)])
    def test_nan_or_excess_fails(self, value, bound):
        with pytest.raises(ValidationError):
            require_within(value, bound, "too large")

    @pytest.mark.parametrize("value, bound", [(1e-8, 1e-8), (math.inf, math.inf),
                                              (-math.inf, 0.0), (0.0, 1e-12)])
    def test_equal_or_below_passes(self, value, bound):
        assert require_within(value, bound, "too large") is None

    def test_numpy_scalars_are_compared_as_values(self):
        require_within(np.float64(1.0), np.float64(1.0), "too large")
        with pytest.raises(ValidationError):
            require_within(np.max(np.array([0.0, np.nan])), 1e-12, "too large")

    def test_type_and_message_pass_through(self):
        with pytest.raises(NumericalError) as info:
            require_within(math.nan, 1e-4, "flow defect nan exceeds 1.0e-04", NumericalError)
        assert type(info.value) is NumericalError
        assert str(info.value) == "flow defect nan exceeds 1.0e-04"


# -- NaN reaching the bound sites ---------------------------------------------

def _nan_on_doubled_grid(monkeypatch):
    """The doubled grid's area and rate come out NaN; the first pass is kept."""
    once = connection._sphere_area_once

    def patched(family, tau, grid, rate=False):
        value = once(family, tau, grid, rate)
        if list(grid) == list(family.grid):
            return value
        return (value[0], math.nan) if rate else math.nan

    monkeypatch.setattr(connection, "_sphere_area_once", patched)


def _area_doubling(monkeypatch):
    _nan_on_doubled_grid(monkeypatch)
    return lambda: connection.sphere_area(su2(), 1.0)


def _rate_doubling(monkeypatch):
    _nan_on_doubled_grid(monkeypatch)
    return lambda: connection.area_variation(su2(), 1.0)


def _center_residual(monkeypatch):
    """A finite Omega (the kernel's first three rows) whose sharp is not:
    Pi^(jk) Omega_j sums terms of about 1.5 * 1.7e308 = inf of either sign.
    (A NaN splitting residual has its test in test_monodromy.)"""
    make = monodromy._curvature_kernel

    def patched(structure, M):
        kernel = make(structure, M)

        def edited(cols, rows=None):
            out = kernel(cols, rows=rows)
            out[:3] = 1.7e308
            return out

        edited.slots = kernel.slots
        return edited

    monkeypatch.setattr(monodromy, "_curvature_kernel", patched)
    return lambda: monodromy.curvature_periods(su2(), su2_splitting(), 1.5)


def _flow_defect(monkeypatch):
    circle = paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0))
    monkeypatch.setattr(paths, "path_defect", lambda *args: math.nan)
    return lambda: flow_by_action(circle, ("0", "0", "0"))


@pytest.mark.parametrize("inject, message", [
    (_area_doubling, "sphere area at tau=1.0 unstable under grid doubling"),
    (_rate_doubling, "area derivative at tau=1.0 unstable under grid doubling"),
    (_center_residual, "curvature center residual is not finite on the leaf"),
    (_flow_defect, "flow defect nan exceeds"),
], ids=["area-doubling", "rate-doubling", "center-residual", "flow-defect"])
def test_a_nan_at_a_bound_site_fails_closed(monkeypatch, inject, message):
    call = inject(monkeypatch)
    with pytest.raises(NumericalError) as info:
        call()
    assert type(info.value) is NumericalError and str(info.value).startswith(message)


# -- the gate is the one place ------------------------------------------------

# (module, enclosing qualified name) -> why the check stays written by hand
EXEMPT = {}


def _hand_written_finite_raises(source, name):
    """(qualified name, line) of each `if` whose test calls or passes
    isfinite and whose body is one raise."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.If) and len(child.body) == 1
                    and isinstance(child.body[0], ast.Raise)
                    and any(getattr(n, "attr", getattr(n, "id", None)) == "isfinite"
                            for n in ast.walk(child.test))):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(source, name), None)
    return found


def test_scanner_finds_each_form_of_the_hand_written_rule():
    source = ("class C:\n"
              "    def f(self, x, v):\n"
              "        if not np.all(np.isfinite(x)):\n            raise NumericalError('x')\n"
              "        if not all(map(math.isfinite, v)):\n            raise ValueError('v')\n"
              "        if not np.isfinite(x):\n            x = 0.0\n")
    assert _hand_written_finite_raises(source, "m.py") == [("C.f", 3), ("C.f", 5)]


def test_no_module_writes_the_finiteness_rule_by_hand():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for func, line in _hand_written_finite_raises(path.read_text(), path.name):
            if (path.name, func) not in EXEMPT:
                found.append(f"{path.name}:{line} in {func}")
    assert found == []


def test_every_exemption_is_still_needed():
    seen = {(path.name, func) for path in SRC.glob("*.py")
            for func, _ in _hand_written_finite_raises(path.read_text(), path.name)}
    assert set(EXEMPT) <= seen
