"""The fail-closed gate of errors.py, and that it is the one place the
finiteness rule is written."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import su2, su2_splitting
from poispath import cli, connection, expr, isotropy, monodromy, paths
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


def _tangency(monkeypatch):
    """A NaN in the sphere kernel's p.u root alone (its rows end with dens,
    |p|^2, p.u, p.v, |u|^2, |v|^2): the density stays finite, so only the
    tangency check can see it; `NaN > bound` alone reads "tangent"."""
    make = connection._sphere_kernel

    def patched(structure, rate):
        kernel = make(structure, rate)

        def edited(cols, rows=None):
            out = kernel(cols, rows=rows)
            out[-4, 0] = math.nan
            return out

        edited.slots = kernel.slots
        return edited

    monkeypatch.setattr(connection, "_sphere_kernel", patched)
    return lambda: connection.sphere_area(su2(), 1.0)


def _flow_defect(monkeypatch):
    circle = paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0))
    monkeypatch.setattr(paths, "path_defect", lambda *args: math.nan)
    return lambda: flow_by_action(circle, ("0", "0", "0"))


def _killing_determinant(monkeypatch):
    """A NaN determinant of the su2 Killing form at the origin, where the
    algebra is semisimple; `abs(nan) > 1e-6` alone would read "not
    semisimple"."""
    monkeypatch.setattr(isotropy.np.linalg, "det", lambda matrix: math.nan)
    return lambda: isotropy.isotropy_data(su2(), np.zeros(3))


def _field_integrand(monkeypatch):
    """A stored path with one NaN covector sample: Simpson's sum would carry
    the NaN into the reported integral."""
    a = np.zeros((9, 3))
    a[4, 0] = math.nan
    path = paths.CotangentPath(su2(), np.linspace(0.0, 1.0, 9), np.zeros((9, 3)), a, defect=0.0)
    return lambda: paths.field_integral(path, ("1", "0", "0"))


def _transport_product(monkeypatch):
    """A stored path with one NaN covector sample: the step matrices carry
    the NaN into s(1). Through the CLI, NumericalError exits 3."""
    a = np.zeros((13, 3))
    a[6, 0] = math.nan
    gamma = np.tile([1.0, 0.0, 0.0], (13, 1))
    path = paths.CotangentPath(su2(), np.linspace(0.0, 1.0, 13), gamma, a, defect=0.0)
    return lambda: paths.transport(path, np.array([0.3, 0.2, 0.1]))


def _structure_derivative(monkeypatch):
    """A NaN derivative of Pi at the origin, where su2's whole dual is the
    isotropy: the structure constants would be read off it."""
    structure = su2()
    monkeypatch.setattr(structure, "dpi_at", lambda x: np.full((3, 3, 3), math.nan))
    return lambda: isotropy.isotropy_data(structure, np.zeros(3))


def _at_value(monkeypatch):
    """The reported expressions evaluate to NaN at the --at point."""
    monkeypatch.setattr(cli.expr, "compile_exprs_vec",
                        lambda exprs, params=None: lambda cols: np.full((len(exprs), 1), math.nan))
    return lambda: cli._add_values({}, su2(), ("x1",), "1,0,0")


def _jacobian_naming(monkeypatch):
    """A NaN Jacobian of p: the rate density, which reads it, is NaN too,
    and the Jacobian is evaluated to name the failure."""
    monkeypatch.setattr(connection, "_jacobian", lambda p: [expr.Num(math.nan)] * 9)
    return lambda: connection.area_variation(su2(), 1.0)


def _structure_matrix(monkeypatch):
    """A NaN Pi at the base point: `np.any` reads NaN as a nonzero p, and the
    area and rate come from the sphere kernel, not from pi_at."""
    structure = su2()
    monkeypatch.setattr(structure, "pi_at", lambda x: np.full((3, 3), math.nan))
    return lambda: connection.area_variation(structure, 1.0)


def _lattice_input(monkeypatch):
    """A NaN generator: `nan > floor` is false, so the floor would drop it."""
    return lambda: monodromy.lattice((1.0, math.nan), 4.0)


def _flowed_path(monkeypatch):
    """eta is 0/0 at t = 0.5 and vanishes at both ends: the flow carries
    the NaN into the path."""
    circle = paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0), n_intervals=100)

    def call():
        with np.errstate(all="ignore"):
            return flow_by_action(circle, ("t*(1 - t)*(t - 0.5)/(t - 0.5)", "0", "0"))

    return call


def _curvature_density(monkeypatch):
    """A finite curvature of norm 2.07e308 on the radius-2.3 sphere, at the
    nodes where every |x_i| < 1.4: Omega = 2^1023 x, so each product in Pi
    Omega stays below 2^1024, their sums are exactly 0, every earlier check
    passes, and the pairing with the unit kernel covector x / |x| overflows."""
    make = monodromy._curvature_kernel

    def patched(structure, M):
        kernel = make(structure, M)

        def edited(cols, rows=None):
            out = kernel(cols, rows=rows)
            spread = np.max(np.abs(cols[:3]), axis=0) < 1.4
            out[:3, spread] = np.ldexp(cols[:3, spread], 1023)
            return out

        edited.slots = kernel.slots
        return edited

    monkeypatch.setattr(monodromy, "_curvature_kernel", patched)
    return lambda: monodromy.curvature_periods(su2(), su2_splitting(), 2.3)


@pytest.mark.parametrize("inject, message", [
    (_area_doubling, "sphere area at tau=1.0 unstable under grid doubling"),
    (_rate_doubling, "area derivative at tau=1.0 unstable under grid doubling"),
    (_center_residual, "curvature center residual is not finite on the leaf"),
    (_tangency, "tangency residual of the first argument is not finite on the sphere"),
    (_flow_defect, "flow defect nan exceeds"),
    (_killing_determinant, "Killing form determinant is not finite at [0.0, 0.0, 0.0]"),
    (_field_integrand, "field integrand is not finite along the path"),
    (_transport_product, "transport produced non-finite values"),
    (_structure_derivative, "structure derivative is not finite at [0.0, 0.0, 0.0]"),
    (_at_value, "value is not finite at --at [1.0, 0.0, 0.0]"),
    (_jacobian_naming, "Jacobian of the structure is not finite on the sphere"),
    (_structure_matrix, "structure matrix is not finite at [1.0, 0.0, 0.0]"),
    (_lattice_input, "lattice input is not finite: area 4.0, generators (1.0, nan)"),
    (_flowed_path, "action flow produced non-finite values"),
    (_curvature_density, "curvature density is not finite on the leaf"),
], ids=["area-doubling", "rate-doubling", "center-residual", "tangency", "flow-defect",
        "killing-determinant", "field-integrand", "transport-product", "structure-derivative",
        "at-value", "jacobian", "structure-matrix", "lattice-input", "flowed-path",
        "curvature-density"])
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
