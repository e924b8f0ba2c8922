"""End-to-end checks of the command line: report content, exit codes, and
byte-level determinism of repeated runs."""

import ast
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poispath import config
from poispath.cli import main

import helpers

CIRCLE_INTEGRAL_X1 = 0.45969769413186023      # 1 - cos(1)
FLIPPED_GROUP_VARIATION = 0.30116867893927324

GROUP_FAMILY = {
    "generator": ["eps*(1-2*t)*cos(t)", "eps*(1-2*t)*sin(t)", "1"],
    "x0": [0.0, 0.0, 0.0],
}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


def parse_scan(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    rows = list(csv.DictReader(data))
    return comments, rows


def scan_verdict(comments):
    for line in comments:
        if line.startswith("# verdict="):
            return line.split("=", 1)[1]
    raise AssertionError("no verdict line in scan output")


class TestUsageAndConfig:
    def test_unknown_command_is_usage_error(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 1

    def test_missing_required_option_is_usage_error(self):
        code, _, _ = run_cli("bracket", "builtin:linear")
        assert code == 1

    def test_path_takes_no_method_flag(self):
        # RK45 is path's one integrator, so there is nothing to choose
        code, out, err = run_cli("path", "builtin:linear?preset=su2", "--generator", "0,0,1",
                                 "--x0", "1,0,0", "--method", "rk4")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --method rk4" in err

    def test_help_exits_clean(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    def test_show_config_lists_every_default(self):
        report = run_json("show-config")
        assert set(report) == set(config.DEFAULTS)
        assert report["area_grid"] == [200, 100]

    def test_every_default_is_read_and_every_read_is_a_default(self):
        # a key nothing reads would still be printed as a setting; a read is a
        # string literal passed to get_default or config.get_default outside
        # config.py (show-config's loop over every key is not one), so a
        # comment or a docstring cannot count as one
        read = set()
        for path in Path(config.__file__).parent.glob("*.py"):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and node.args and (
                        isinstance(node.func, ast.Name) and node.func.id == "get_default"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get_default"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "config") \
                        and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    read.add(node.args[0].value)
        assert read == set(config.DEFAULTS)

    def test_report_can_go_to_a_file(self, tmp_path):
        target = tmp_path / "cfg.json"
        code, out, _ = run_cli("show-config", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["seed"] == config.DEFAULTS["seed"]

    @pytest.mark.parametrize("argv", [
        ("validate", "builtin:linear?preset=su3"),
        ("scan", "builtin:foliated_spheres?f1=1/tau", "--tau-range", "0.5:2",
         "--samples", "4"),
    ], ids=["json", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path):
        code, out, _ = run_cli(*argv)
        target = tmp_path / "report"
        assert code == 0 and run_cli(*argv, "--out", str(target))[0] == 0
        assert target.read_bytes() == out.encode()


class TestValidate:
    def test_builtin_passes(self):
        report = run_json("validate", "builtin:su2_scaled?a=1")
        assert report["ok"] is True
        assert report["max_jacobi_residual"] <= 1e-9
        assert report["settings"]["points"] == 100

    def test_non_poisson_file_fails_with_code_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "pi": {"1,2": "x1 + x2", "2,3": "x1"}}))
        code, _, err = run_cli("validate", str(bad))
        assert code == 2
        assert "Jacobi" in err or "jacobi" in err

    def test_failed_gate_reports_the_residual_at_the_seeded_points(self, tmp_path):
        # the largest Jacobiator entry over seed 20240's 100 points in
        # [-2, 2]^3; this one varies from point to point
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "pi": {"1,2": "x3", "2,3": "x1*x2"}}))
        assert run_cli("validate", str(bad)) == (
            2, "", "error: Jacobi identity fails: max residual 3.679e+00 over 100 points "
                   "in [-2.0, 2.0]^3 exceeds 1.0e-09\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--points", "0", "sample count must be at least 1"),
        ("--points", "-1", "sample count must be at least 1"),
        ("--tol", "nan", "residual bound must be finite and non-negative"),
        ("--tol", "inf", "residual bound must be finite and non-negative"),
        ("--seed", "-1", "seed must be non-negative"),
    ])
    def test_bad_sampling_settings_exit_2(self, tmp_path, flag, value, message):
        # on a non-Poisson file, so that a setting that skips the check shows
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "pi": {"1,2": "x1 + x2", "2,3": "x1"}}))
        code, out, err = run_cli("validate", str(bad), flag, value)
        assert code == 2 and out == ""
        assert message in err

    def test_unknown_builtin_fails_with_code_2(self):
        code, _, err = run_cli("validate", "builtin:nope")
        assert code == 2
        assert "available" in err

    def test_family_only_source_rejected(self):
        code, _, err = run_cli("validate", "builtin:foliated_spheres?f1=tau")
        assert code == 2
        assert "ambient" in err

    def test_complex_constant_is_an_input_error(self, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"dim": 3, "pi": {"1,2": "x3*(-1)^0.5", "1,3": "-x2",
                                                     "2,3": "x1"}}))
        for argv in (("validate", str(path)), ("area", str(path), "--tau", "1")):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == ""
            assert "negative base with fractional exponent" in err

    @pytest.mark.parametrize("entry", ["x3 + 1e200^2", "x3 + 0^-1"])
    def test_constant_power_without_finite_value_is_an_input_error(self, tmp_path, entry):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"dim": 3, "pi": {"1,2": entry, "1,3": "-x2",
                                                     "2,3": "x1"}}))
        code, out, err = run_cli("validate", str(path))
        assert code == 2 and out == ""
        assert "constant power has no finite value" in err
        assert "Traceback" not in err

    def test_readme_structure_file_validates(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A structure file looks like\n\n```json\n(.*?)\n```", readme, re.S)
        path = tmp_path / "structure.json"
        path.write_text(block.group(1))
        report = run_json("validate", str(path))
        assert report["ok"] is True and report["max_jacobi_residual"] == 0.0


class TestAlgebraCommands:
    def test_bracket_of_coordinate_forms(self):
        report = run_json("bracket", "builtin:su2_scaled?a=1+R^2",
                          "--alpha", "0,1,0", "--beta", "0,0,1", "--at", "1,0,0")
        np.testing.assert_allclose(report["value"], [4.0, 0.0, 0.0], atol=1e-12)

    def test_bracket_without_point_is_symbolic_only(self):
        report = run_json("bracket", "builtin:linear?preset=su2",
                          "--alpha", "1,0,0", "--beta", "0,1,0")
        assert "value" not in report
        assert len(report["bracket"]) == 3

    def test_sharp_on_the_plane(self):
        report = run_json("sharp", "builtin:symplectic",
                          "--alpha", "1,0", "--at", "0.3,0.7")
        np.testing.assert_allclose(report["value"], [0.0, 1.0], atol=1e-15)

    def test_hamiltonian_field_values(self):
        report = run_json("hamiltonian", "builtin:linear?preset=su2",
                          "--h", "x1", "--at", "0.3,0.2,0.1")
        np.testing.assert_allclose(report["value"], [0.0, 0.1, -0.2], atol=1e-12)

    def test_parse_error_exits_2(self):
        code, _, err = run_cli("bracket", "builtin:linear",
                               "--alpha", "x1+,0,0", "--beta", "0,0,1")
        assert code == 2
        assert "offset" in err

    def test_literal_beyond_the_float_range_exits_2(self):
        for argv in (("hamiltonian", "builtin:linear?preset=su2", "--h", "x1*1e400"),
                     ("bracket", "builtin:su2_scaled?a=1", "--alpha", "1e400,0,0",
                      "--beta", "0,1,0")):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == ""
            assert "1e400 overflows to infinity" in err

    def test_wrong_component_count_exits_2(self):
        code, _, err = run_cli("sharp", "builtin:linear", "--alpha", "1,0")
        assert code == 2
        assert "3 components" in err


@pytest.fixture(scope="module")
def circle_path(tmp_path_factory):
    target = tmp_path_factory.mktemp("paths") / "circle.json"
    code, _, err = run_cli("path", "builtin:linear?preset=su2",
                           "--generator", "0,0,1", "--x0", "1,0,0",
                           "--out", str(target))
    assert code == 0, err
    return target


class TestPathPipeline:
    def test_path_report_is_self_contained(self, circle_path):
        data = json.loads(circle_path.read_text())
        assert data["defect"] <= 1e-6
        assert len(data["t"]) == len(data["gamma"]) == 1001
        assert data["structure"]["dim"] == 3

    def test_field_integral_matches_closed_form(self, circle_path):
        report = run_json("integrate-field", "--path", str(circle_path),
                          "--X", "0,x3,-x2")
        assert abs(report["integral"] - CIRCLE_INTEGRAL_X1) <= 1e-9

    def test_transport_preserves_rotation_axis(self, circle_path):
        report = run_json("transport", "--path", str(circle_path), "--s0", "0,0,1")
        np.testing.assert_allclose(report["s1"], [0.0, 0.0, 1.0], atol=1e-9)

    def test_transport_rotates_transverse_covectors(self, circle_path):
        report = run_json("transport", "--path", str(circle_path),
                          "--s0", "0.3,0.2,0.1")
        c, s = math.cos(1.0), math.sin(1.0)
        expected = [0.3 * c + 0.2 * s, -0.3 * s + 0.2 * c, 0.1]
        np.testing.assert_allclose(report["s1"], expected, atol=1e-6)

    def test_missing_path_file_exits_2(self):
        code, _, err = run_cli("transport", "--path", "/nonexistent.json",
                               "--s0", "1,0,0")
        assert code == 2
        assert "cannot read" in err

    def test_incomplete_path_file_exits_2(self, tmp_path):
        stub = tmp_path / "stub.json"
        stub.write_text(json.dumps({"structure": {"dim": 3, "pi": {}}, "t": [0, 1]}))
        code, _, err = run_cli("integrate-field", "--path", str(stub), "--X", "0,0,0")
        assert code == 2
        assert "gamma" in err

    @pytest.fixture
    def nan_path(self, circle_path, tmp_path):
        data = json.loads(circle_path.read_text())
        data["gamma"][5][0] = math.nan
        target = tmp_path / "nan.json"
        target.write_text(json.dumps(data))
        return str(target)

    def test_non_finite_path_file_rejected_by_integrate_field(self, nan_path):
        code, out, err = run_cli("integrate-field", "--path", nan_path,
                                 "--X", "0,x3,-x2")
        assert code == 2 and out == ""
        assert "non-finite" in err and "gamma" in err

    def test_even_sample_count_rejected_by_integrate_field(self, circle_path, tmp_path):
        data = json.loads(circle_path.read_text())
        for key in ("t", "gamma", "a"):
            data[key] = data[key][:-1]
        # back onto [0, 1]: time runs 1/t_end times faster, the covector with it
        t_end = data["t"][-1]
        data["t"] = [t / t_end for t in data["t"]]
        data["a"] = [[t_end * c for c in row] for row in data["a"]]
        target = tmp_path / "even.json"
        target.write_text(json.dumps(data))
        code, out, err = run_cli("integrate-field", "--path", str(target), "--X", "0,x3,-x2")
        assert code == 2 and out == ""
        assert "odd sample count" in err and "has 1000" in err
        # transport takes any count; an odd one has no half grid to estimate on
        code, out, err = run_cli("transport", "--path", str(target), "--s0", "0,0,1")
        assert code == 0, err
        assert json.loads(out)["sampling_error"] is None

    @pytest.mark.parametrize("argv", [("transport", "--s0", "0,0,1"),
                                      ("integrate-field", "--X", "0,x3,-x2")],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("bad_t", [
        lambda t: t[:3] + [t[4], t[3]] + t[5:],     # two values swapped
        lambda t: [2.0 * v for v in t],              # over [0, 2]
        lambda t: [t[1] / 2] + t[1:],                # from t[1]/2
        lambda t: t[:4] + [t[3]] + t[5:],            # a repeated value
        lambda t: [v * v for v in t],                # nodes moved to t^2
        lambda t: t[:-1] + [1.0 - 2.0**-53],         # ends one ulp short of 1
    ], ids=["swapped", "over-0-2", "late-start", "repeated", "uneven", "short-end"])
    def test_bad_time_grid_in_path_file_exits_2(self, circle_path, tmp_path, argv, bad_t):
        data = json.loads(circle_path.read_text())
        data["t"] = bad_t(data["t"])
        target = tmp_path / "bad_t.json"
        target.write_text(json.dumps(data))
        code, out, err = run_cli(argv[0], "--path", str(target), *argv[1:])
        assert code == 2 and out == ""
        assert "'t' must run evenly from 0 to 1" in err

    def test_an_overflowing_transport_exits_3(self, circle_path, tmp_path):
        # finite samples whose step matrices overflow: the product fails closed
        data = json.loads(circle_path.read_text())
        data["a"] = [[1e150 * c for c in row] for row in data["a"]]
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(data))
        code, out, err = run_cli("transport", "--path", str(target), "--s0", "0,1,0")
        assert (code, out) == (3, "")
        assert "transport produced non-finite values" in err

    def test_non_finite_path_file_rejected_by_transport(self, nan_path):
        code, out, err = run_cli("transport", "--path", nan_path, "--s0", "1,0,0")
        assert code == 2 and out == ""
        assert "non-finite" in err and "gamma" in err

    def test_non_finite_start_point_exits_2(self):
        code, out, err = run_cli("path", "builtin:linear?preset=su2", "--generator",
                                 "0,0,1", "--x0=nan,0,0")
        assert code == 2 and out == ""
        assert "--x0 must have finite components" in err

    @pytest.mark.parametrize("s0", ["nan,0,0", "0,inf,0"])
    def test_non_finite_transport_covector_exits_2(self, circle_path, s0):
        code, out, err = run_cli("transport", "--path", str(circle_path), f"--s0={s0}")
        assert code == 2 and out == ""
        assert "--s0 must have finite components" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--atol", "-1", "atol must be positive and finite"),
        ("--atol", "0", "atol must be positive and finite"),
        ("--atol", "inf", "atol must be positive and finite"),
        ("--rtol", "1e-20", "rtol must be finite and at least"),
        ("--rtol", "nan", "rtol must be finite and at least"),
    ])
    def test_bad_ode_tolerance_exits_2(self, flag, value, message):
        code, out, err = run_cli("path", "builtin:linear?preset=su2", "--generator",
                                 "0,0,1", "--x0", "1,0,0", flag, value)
        assert code == 2 and out == ""
        assert message in err and "Warning" not in err

    def test_generator_singular_at_the_start_exits_3(self):
        # #a is NaN at x0, so the first step size is NaN; the solve must fail,
        # not retry that step for ever
        code, out, err = run_cli("path", "builtin:linear?preset=su2", "--generator",
                                 "1/x1,0,0", "--x0", "0,0,1")
        assert code == 3 and out == ""
        assert "base integration failed" in err


class TestVariationCommand:
    def test_group_family_is_a_homotopy(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(GROUP_FAMILY))
        report = run_json("variation", "builtin:linear?preset=su2",
                          "--family", str(fam), "--X", "0,0,0.5")
        assert report["homotopy"] is True
        assert report["max_variation"] <= 1e-10
        assert report["grid_coarse"] is False
        assert abs(report["identity"]["residual"]) <= 1e-9
        assert len(report["variation_curve"]) == config.DEFAULTS["eps_intervals"] + 1

    def test_flipped_order_reports_the_transport_magnitude(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(GROUP_FAMILY))
        report = run_json("variation", "builtin:linear?preset=su2",
                          "--family", str(fam), "--order", "flipped")
        assert report["max_variation"] == pytest.approx(
            FLIPPED_GROUP_VARIATION, rel=1e-9)
        # the verdict always follows the pinned order
        assert report["homotopy"] is True

    def test_moving_endpoints_are_reported_as_such(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({
            "generator": ["eps", "0", "1"], "x0": [1.0, 0.0, 0.0],
            "eps_grid": 9, "t_grid": 101,
        }))
        report = run_json("variation", "builtin:linear?preset=su2",
                          "--family", str(fam))
        assert report["homotopy"] is False
        assert report["reason"] == "not a family with fixed endpoints"
        assert report["end_spread"] > 1e-3

    def test_non_finite_identity_fails_closed(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(GROUP_FAMILY))
        code, out, err = run_cli("variation", "builtin:linear?preset=su2",
                                 "--family", str(fam), "--X", "1/x1,0,0")
        assert code == 3
        assert out == ""
        # the diagnostic alone: no numpy warning in front of it
        assert err.count("\n") == 1
        assert err.startswith("numerical failure:") and "not finite" in err

    def test_the_identity_needs_12_t_intervals(self, tmp_path):
        # the report's knot slopes take the 7-point stencil over every other
        # t node: t_grid 11 (10 intervals) is refused, 13 runs
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({**GROUP_FAMILY, "eps_grid": 9, "t_grid": 11}))
        code, out, err = run_cli("variation", "builtin:linear?preset=su2",
                                 "--family", str(fam), "--X", "0,0,0.5")
        assert (code, out) == (2, "")
        assert err == "error: the invariance report needs at least 12 t intervals, got 10\n"
        fam.write_text(json.dumps({**GROUP_FAMILY, "eps_grid": 9, "t_grid": 13}))
        report = run_json("variation", "builtin:linear?preset=su2",
                          "--family", str(fam), "--X", "0,0,0.5")
        assert report["settings"]["t_intervals"] == 12
        # a coarse grid, so a coarse residual: 1.2e-5
        assert abs(report["identity"]["residual"]) <= 1e-4

    def test_family_file_must_be_complete(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"generator": ["0", "0", "1"]}))
        code, _, err = run_cli("variation", "builtin:linear?preset=su2",
                               "--family", str(fam))
        assert code == 2
        assert "x0" in err

    @pytest.mark.parametrize("fields, named", [
        ({"eps_grid": "many"}, "eps_grid"),
        ({"t_grid": 101.5}, "t_grid"),
        ({"eps_range": ["a", 1]}, "eps_range"),
        ({"eps_range": [0, "inf"]}, "eps range"),
    ])
    def test_malformed_family_file_is_a_validation_error(self, tmp_path, fields, named):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({**GROUP_FAMILY, **fields}))
        code, out, err = run_cli("variation", "builtin:linear?preset=su2",
                                 "--family", str(fam))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and named in err and err.count("\n") == 1

    @pytest.mark.parametrize("x0", ["NaN", "1e400"])
    def test_non_finite_start_point_is_a_validation_error(self, tmp_path, x0):
        fam = tmp_path / "fam.json"
        fam.write_text('{"generator": ["0", "0", "1"], "x0": [%s, 0, 0]}' % x0)
        code, out, err = run_cli("variation", "builtin:linear?preset=su2",
                                 "--family", str(fam))
        assert (code, out) == (2, "")
        assert err.startswith("error: start point") and err.count("\n") == 1


class TestEvaluationFailures:
    """What the compiled evaluators cannot compute, or compute only as NaN
    or inf, is a numerical failure (exit 3): no traceback, no report."""

    @pytest.mark.parametrize("argv", [
        ("hamiltonian", "builtin:linear?preset=su2", "--h", "x1 + 1/0", "--at", "1,0,0"),
        ("sharp", "builtin:linear?preset=su2", "--alpha", "1/0,0,0", "--at", "1,0,0"),
        ("variation", "builtin:linear?preset=su2", "--family", "FAMILY"),
        ("validate", "builtin:su2_scaled?a=1/c&c=0"),
        ("path", "builtin:linear?preset=su2", "--generator", "0,0,exp(1000*x1)",
         "--x0", "1,0,0"),
        ("path", "builtin:linear?preset=su2", "--generator", "0,0,log(x1-1)",
         "--x0", "1,0,0"),
        ("validate", "builtin:su2_scaled?a=c^0.5&c=-8"),
        ("hamiltonian", "builtin:su2_scaled?a=1&c=-8", "--h", "c^0.5*x1", "--at", "1,0,0"),
    ], ids=["constant-pole-h", "constant-pole-alpha", "constant-pole-generator",
            "constant-pole-parameter", "point-overflow", "point-log-domain",
            "negative-parameter-root", "negative-parameter-root-h"])
    def test_a_domain_error_exits_3(self, tmp_path, argv):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"generator": ["0", "0", "1/0"], "x0": [1.0, 0.0, 0.0]}))
        code, out, err = run_cli(*(str(fam) if a == "FAMILY" else a for a in argv))
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: expression evaluation left its domain")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("hamiltonian", "builtin:linear?preset=su2", "--h", "log(x1)", "--at", "0,1,0"),
        ("sharp", "builtin:linear?preset=su2", "--alpha", "1/x1,0,0", "--at", "0,1,0"),
        ("integrate-field", "--path", "CIRCLE", "--X", "0,log(x2-2),0"),
    ], ids=["hamiltonian", "sharp", "integrate-field"])
    def test_a_non_finite_value_exits_3(self, circle_path, argv):
        code, out, err = run_cli(*(str(circle_path) if a == "CIRCLE" else a for a in argv))
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure:") and "not finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("invariant", [
        "log(tau-2)", "1/(tau-1)", "exp(700*tau)*exp(700*tau)",
    ], ids=["log-domain", "pole", "overflow"])
    def test_foliated_invariants_off_their_domain_exit_3(self, invariant):
        # the compiled point evaluator of the invariants raises on the first
        # two; the product overflows to inf, which the finiteness gate refuses
        code, out, err = run_cli("monodromy", f"builtin:foliated_spheres?f1={invariant}",
                                 "--tau", "1")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, where", [
        (("monodromy", "builtin:foliated_spheres?f1=log(tau-2)", "--tau", "1"),
         "tau=1.0, x=[1.0]"),
        (("path", "builtin:linear?preset=su2", "--generator", "0,0,log(x1-2)", "--x0=1,0,0"),
         "t=0.0, x=[1.0, 0.0, 0.0]"),
    ], ids=["foliated", "path"])
    def test_a_domain_error_names_the_point(self, argv, where):
        # the point evaluator names its symbol values and point
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err == ("numerical failure: expression evaluation left its domain "
                       f"at {where}: math domain error\n")

    PATH_FAILURES = {
        # a NaN field: the RK45 step-size failure names the state
        "rk45": ("builtin:linear?preset=su2", "--generator", "0,0,x1^0.5", "--x0=-1,0,0"),
        # a base that overflows to inf: the gate on the samples
        "overflow": ("builtin:symplectic", "--generator", "1.5e308,0", "--x0=0,1e308"),
    }

    @pytest.mark.parametrize("case, message", [
        ("rk45", "base integration failed: right-hand side is not finite (NaN) at t=0.0, "
                 "y=[-1.0, 0.0, 0.0]"),
        ("overflow", "base integration produced non-finite values"),
    ])
    def test_a_nan_field_exits_3_and_says_so(self, case, message):
        code, out, err = run_cli("path", *self.PATH_FAILURES[case])
        assert (code, out) == (3, "")
        assert err == f"numerical failure: {message}\n"


class TestLeafReports:
    def test_round_sphere_area(self):
        report = run_json("area", "builtin:su2_scaled?a=1", "--tau", "2")
        assert report["area"] == pytest.approx(8.0 * math.pi, abs=1e-3)

    def test_foliated_area_is_exact(self):
        report = run_json("area", "builtin:foliated_spheres?f1=1/tau",
                          "--tau", "0.5")
        assert report["area"] == pytest.approx(8.0 * math.pi, abs=1e-9)

    def test_area_variation_vanishes_at_the_critical_radius(self):
        report = run_json("area-variation", "builtin:su2_scaled?a=1+R^2",
                          "--tau", "1")
        assert abs(report["derivative"]) <= 1e-6
        assert report["generator"] <= 1e-6

    def test_monodromy_reports_both_methods(self):
        report = run_json("monodromy", "builtin:su2_scaled?a=1", "--tau", "1")
        assert report["lattice_generator"] == pytest.approx(4.0 * math.pi, abs=1e-3)
        assert report["dense"] is False
        assert report["curvature"]["agreement_gap"] <= 1e-6
        assert report["curvature"]["integral"] == pytest.approx(
            4.0 * math.pi, abs=1e-3)

    def test_monodromy_detects_dense_periods(self):
        report = run_json("monodromy",
                          "builtin:foliated_spheres?f1=1+tau&f2=1+sqrt(2)*tau&k=2",
                          "--tau", "1")
        assert report["dense"] is True
        # non-finite floats are serialized as strings to keep the JSON valid
        assert report["lattice_generator"] == "nan"

    def test_monodromy_without_live_generators_is_the_trivial_lattice(self):
        report = run_json("monodromy", "builtin:foliated_spheres?f1=2", "--tau", "1")
        assert report["generators"] == [0.0]
        assert report["lattice_generator"] == "inf"
        assert report["dense"] is False
        assert report["dropped"] == 0

    def test_splitting_file_override(self, tmp_path):
        spl = tmp_path / "spl.json"
        spl.write_text(json.dumps(helpers.su2_splitting("1")))
        report = run_json("monodromy", "builtin:linear?preset=su2",
                          "--tau", "1", "--splitting", str(spl))
        assert report["curvature"]["integral"] == pytest.approx(
            4.0 * math.pi, abs=1e-3)

    def test_bad_splitting_shape_exits_2(self, tmp_path):
        spl = tmp_path / "spl.json"
        spl.write_text(json.dumps([["0", "0"], ["0", "0"]]))
        code, _, err = run_cli("monodromy", "builtin:su2_scaled?a=1",
                               "--tau", "1", "--splitting", str(spl))
        assert code == 2
        assert "3x3" in err

    def test_unstable_quadrature_exits_3(self):
        code, _, err = run_cli("area", "builtin:su2_scaled?a=1 + sin(200*x1)/2",
                               "--tau", "1")
        assert code == 3
        assert "doubling" in err

    def test_area_variation_on_a_singular_leaf_exits_3(self):
        # a is infinite on the unit sphere, so is the structure at the base
        # point (1, 0, 0)
        code, out, err = run_cli("area-variation", "builtin:su2_scaled?a=1/(R-1)",
                                 "--tau", "1")
        assert code == 3 and out == ""
        assert "not finite" in err


class TestScanCommand:
    def test_foliated_scan_reports_the_generator_curve(self):
        code, out, err = run_cli("scan", "builtin:foliated_spheres?f1=1/tau",
                                 "--tau-range", "0.5:2", "--samples", "4")
        assert code == 0, err
        comments, rows = parse_scan(out)
        assert scan_verdict(comments) == "INTEGRABLE_EVIDENCE"
        assert len(rows) == 4
        for row in rows:
            tau = float(row["tau"])
            assert float(row["r_value"]) == pytest.approx(
                4.0 * math.pi / tau**2, rel=1e-9)
            assert row["dense"] == "0"

    def test_dense_pair_scan_is_non_integrable(self):
        code, out, _ = run_cli(
            "scan", "builtin:foliated_spheres?f1=1+tau&f2=1+sqrt(2)*tau&k=2",
            "--tau-range", "0.5:1.5", "--samples", "3")
        assert code == 0
        comments, rows = parse_scan(out)
        assert scan_verdict(comments) == "NON_INTEGRABLE"
        assert all(row["r_value"] == "nan" for row in rows)

    def test_radial_scan_away_from_degeneracies(self):
        code, out, _ = run_cli("scan", "builtin:su2_scaled?a=1",
                               "--tau-range", "0.8:1.2", "--samples", "3")
        assert code == 0
        comments, rows = parse_scan(out)
        assert scan_verdict(comments) == "INTEGRABLE_EVIDENCE"
        for row in rows:
            assert float(row["r_value"]) == pytest.approx(4.0 * math.pi, abs=2e-3)

    def test_scan_out_writes_csv_and_summarizes(self, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli("scan", "builtin:foliated_spheres?f1=1/tau",
                               "--tau-range", "0.5:2", "--samples", "3",
                               "--out", str(target))
        assert code == 0
        summary = json.loads(out)
        assert summary["verdict"] == "INTEGRABLE_EVIDENCE"
        assert summary["rows"] == 3
        comments, rows = parse_scan(target.read_text())
        assert len(rows) == 3
        assert any(l.startswith("# threshold=") for l in comments)

    def test_tiny_sample_count_exits_2(self):
        code, _, err = run_cli("scan", "builtin:foliated_spheres?f1=tau",
                               "--tau-range", "0.5:2", "--samples", "1")
        assert code == 2
        assert "samples" in err

    def test_bad_range_exits_2(self):
        code, _, err = run_cli("scan", "builtin:foliated_spheres?f1=tau",
                               "--tau-range", "2:0.5", "--samples", "3")
        assert code == 2
        assert "hi > lo" in err

    def test_zero_between_samples_is_non_integrable(self):
        # the generator of a = 1 + 2 R^2 vanishes at R = 1/sqrt(2), between the
        # rows 0.642 and 0.789; the sign change of dA/dtau is bisected to it
        code, out, _ = run_cli("scan", "builtin:su2_scaled?a=1+2*R^2",
                               "--tau-range", "0.2:3", "--samples", "20")
        assert code == 0
        comments, _ = parse_scan(out)
        assert scan_verdict(comments) == "NON_INTEGRABLE"
        candidates = [dict(kv.split("=") for kv in line.split()[2:])
                      for line in comments if line.startswith("# candidate ")]
        (c,) = candidates
        assert c["source"] == "sign" and c["collapses"] == "1"
        assert abs(float(c["tau"]) - 1.0 / math.sqrt(2.0)) < 1e-3
        lo, hi = (float(v) for v in c["bracket"].split(":"))
        assert lo <= float(c["tau"]) <= hi

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        code, out, err = run_cli("scan", "builtin:su2_scaled?a=1+R^2",
                                 "--tau-range", "0.5:1.5", "--samples", "5",
                                 "--threshold", threshold)
        assert code == 2 and out == ""
        assert "threshold must be positive and finite" in err


class TestIsotropyCommand:
    def test_su2_origin(self):
        report = run_json("isotropy", "builtin:linear?preset=su2", "--at", "0,0,0")
        assert report["corank"] == 3
        assert report["semisimple"] is True
        assert report["killing_rank"] == 3

    def test_su3_degenerate_point(self):
        z = -2.0 * math.sqrt(3.0)
        at = ",".join(["0"] * 7 + [repr(z)])
        report = run_json("isotropy", "builtin:linear?preset=su3", "--at", at)
        assert report["corank"] == 4
        assert report["center_dim"] == 1
        assert report["killing_rank"] == 3
        assert report["abelian"] is False

    def test_non_finite_point_exits_2(self):
        code, out, err = run_cli("isotropy", "builtin:linear?preset=su2",
                                 "--at", "0,-inf,0")
        assert code == 2 and out == ""
        assert "--at must have finite components" in err

    def test_non_finite_structure_matrix_exits_3(self):
        # a = 1/R is singular at the origin: the matrix there is NaN
        code, out, err = run_cli("isotropy", "builtin:su2_scaled?a=1/R",
                                 "--at", "0,0,0")
        assert code == 3 and out == ""
        assert "not finite" in err

    def test_non_finite_derivative_tensor_exits_3(self):
        # a = R vanishes at the origin, so the matrix there is finite (zero),
        # but the derivative of R is not
        code, out, err = run_cli("isotropy", "builtin:su2_scaled?a=R", "--at", "0,0,0")
        assert code == 3 and out == ""
        assert "derivative" in err and "not finite" in err


class TestDeterminism:
    def _module_run(self, *argv):
        proc = subprocess.run([sys.executable, "-m", "poispath", *argv],
                              capture_output=True, cwd="/",
                              env=helpers.module_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_scan_bytes_are_reproducible_across_processes(self):
        argv = ("scan", "builtin:foliated_spheres?f1=1/tau",
                "--tau-range", "0.5:2", "--samples", "4")
        assert self._module_run(*argv) == self._module_run(*argv)

    def test_validate_bytes_are_reproducible_across_processes(self):
        argv = ("validate", "builtin:su2_scaled?a=1+R^2")
        assert self._module_run(*argv) == self._module_run(*argv)

    def test_isotropy_report_is_reproducible_in_process(self):
        argv = ("isotropy", "builtin:linear?preset=su3",
                "--at", "0.3,-0.2,0.5,0.1,0,0.4,-0.1,0.2")
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second


class TestStartup:
    """No command imports scipy: it is the tests' oracle, not a runtime
    dependency. Nor does a command that loads a structure import
    numpy.random."""

    def _run(self, *argv, cwd="/"):
        proc = subprocess.run([sys.executable, *argv], capture_output=True,
                              cwd=cwd, env=helpers.module_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc

    def _imported(self, *argv, cwd="/"):
        """The process and the modules it imported, from -X importtime."""
        proc = self._run("-X", "importtime", "-m", "poispath", *argv, cwd=cwd)
        return proc, [line.rsplit("|", 1)[-1].strip()
                      for line in proc.stderr.decode().splitlines()
                      if line.startswith("import time:")]

    def test_importing_the_cli_loads_no_scipy(self):
        proc = self._run("-c", "import sys, poispath.cli; print(sorted("
                         "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.stdout.decode().strip() == "[]"

    def test_show_config_loads_no_scipy(self):
        proc, imported = self._imported("--show-config")
        assert json.loads(proc.stdout)
        assert "poispath.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("argv", [
        ("area", "builtin:su2_scaled?a=1+R^2", "--tau", "2"),
        ("area-variation", "builtin:su2_scaled?a=1+R^2", "--tau", "0.5"),
        ("monodromy", "builtin:su2_scaled?a=1+R^2", "--tau", "0.5"),
        ("path", "builtin:linear?preset=su2", "--generator", "0,0,1", "--x0", "1,0,0",
         "--out", "path.json"),
        ("integrate-field", "--path", "path.json", "--X", "0,x3,-x2"),
        ("scan", "builtin:su2_scaled?a=1+R^2", "--tau-range", "0.5:2", "--samples", "4"),
        ("transport", "--path", "path.json", "--s0", "0.3,0.2,0.1"),
        ("variation", "builtin:linear?preset=su2", "--family", "family.json",
         "--X", "0,x3,-x2"),
        ("isotropy", "builtin:linear?preset=su3", "--at", "0.3,-0.2,0.5,0.1,0,0.4,-0.1,0.2"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_quadrature_and_rk45_commands_load_no_scipy(self, argv, tmp_path, circle_path):
        (tmp_path / "path.json").write_text(circle_path.read_text())
        (tmp_path / "family.json").write_text(json.dumps(GROUP_FAMILY))
        _, imported = self._imported(*argv, cwd=tmp_path)
        assert "poispath.quadrature" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("argv", [
        ("validate", "builtin:linear?preset=su3"),
        ("monodromy", "builtin:su2_scaled?a=1+R^2", "--tau", "0.7"),
    ], ids=" ".join)
    def test_structure_loading_commands_load_no_numpy_random(self, argv):
        # the Jacobi gate draws its points in core; numpy.random would bring
        # hashlib, OpenSSL and secrets into every cold process
        script = ("import runpy, sys\n"
                  "sys.argv[0] = 'poispath'\n"
                  "try:\n"
                  "    runpy.run_module('poispath', run_name='__main__')\n"
                  "except SystemExit as stop:\n"
                  "    code = stop.code\n"
                  "print(sorted(m for m in ('numpy.random', 'hashlib', 'secrets')"
                  " if m in sys.modules), file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = self._run("-c", script, *argv)
        assert json.loads(proc.stdout)
        assert proc.stderr.decode().splitlines()[-1] == "[]"

    def test_no_module_imports_scipy_and_numpy_is_the_only_dependency(self):
        import poispath

        tomllib = pytest.importorskip("tomllib")
        sources = sorted(Path(poispath.__file__).parent.glob("*.py"))
        assert sources
        imported = set()
        for source in sources:
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    imported.update((source.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((source.name, node.module))
        assert [(f, m) for f, m in imported if m.split(".")[0] == "scipy"] == []
        project = tomllib.loads(
            (Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
        assert [re.split(r"[<>=!~ ]", d)[0] for d in project["dependencies"]] == ["numpy"]


@pytest.fixture(scope="module")
def sigma_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("charts") / "round.json"
    target.write_text(json.dumps({
        "sigma": ["tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)",
                  "tau*cos(theta)"],
        "tau_range": [0.2, 3.0],
        "label": "round-chart",
    }))
    return str(target)


class TestChartFamilies:
    def test_show_config_also_works_as_a_flag(self):
        report = run_json("--show-config")
        assert set(report) == set(config.DEFAULTS)

    def test_bare_invocation_prints_usage(self):
        code, _, err = run_cli()
        assert code == 1 and "usage" in err

    def test_area_over_a_chart(self, sigma_file):
        report = run_json("area", "builtin:su2_scaled?a=1", "--tau", "1",
                          "--family", sigma_file)
        assert report["area"] == pytest.approx(4.0 * math.pi, abs=1e-3)
        # the report records the file the chart came from
        assert report["settings"]["family"] == sigma_file

    def test_area_variation_at_the_range_edge(self, sigma_file):
        # the row at the lower end of tau_range needs no radius outside it
        report = run_json("area-variation", "builtin:su2_scaled?a=1",
                          "--tau", "0.2", "--family", sigma_file)
        assert report["area"] == pytest.approx(0.8 * math.pi, rel=1e-4)
        assert report["derivative"] == pytest.approx(4.0 * math.pi, rel=1e-3)
        assert report["settings"] == {"grid": [200, 100]}

    def test_scan_over_a_chart(self, sigma_file):
        code, out, _ = run_cli("scan", "builtin:su2_scaled?a=1",
                               "--tau-range", "0.8:1.2", "--samples", "3",
                               "--family", sigma_file)
        assert code == 0
        comments, rows = parse_scan(out)
        assert scan_verdict(comments) == "INTEGRABLE_EVIDENCE"
        for row in rows:
            assert float(row["r_value"]) == pytest.approx(4.0 * math.pi,
                                                          abs=2e-3)

    def test_area_variation_over_a_chart_checks_grid_doubling(self, sigma_file):
        # a profile the default grid cannot resolve fails on both routes, for
        # the area as for its derivative
        for command in ("area", "area-variation", "monodromy"):
            for chart in ((), ("--family", sigma_file)):
                code, out, err = run_cli(command, "builtin:su2_scaled?a=1+sin(200*x1)/2",
                                         "--tau", "1", *chart)
                assert code == 3 and out == ""
                assert "unstable under grid doubling" in err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    @pytest.mark.parametrize("route, message", [
        ("builtin:su2_scaled?a=1", "sphere radius must be positive and finite"),
        ("chart", "outside the family range"),
        ("builtin:foliated_spheres?f1=1/tau", "parameter must be positive and finite"),
    ])
    def test_non_finite_radius_is_an_input_error(self, sigma_file, route, message, tau):
        chart = ("--family", sigma_file) if route == "chart" else ()
        source = "builtin:su2_scaled?a=1" if route == "chart" else route
        for command in ("area", "area-variation", "monodromy"):
            code, out, err = run_cli(command, source, "--tau", tau, *chart)
            assert code == 2 and out == ""
            assert message in err and tau in err

    def test_non_finite_scan_range_is_an_input_error(self):
        for text in ("0.5:inf", "nan:1", "-inf:1"):
            code, out, err = run_cli("scan", "builtin:su2_scaled?a=1",
                                     f"--tau-range={text}", "--samples", "3")
            assert code == 2 and out == ""
            assert f"range needs finite hi > lo, got {text!r}" in err

    def test_area_variation_takes_no_step(self):
        code, out, err = run_cli("area-variation", "builtin:su2_scaled?a=1",
                                 "--tau", "1", "--h", "0.002")
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_non_finite_chart_derivative_exits_3(self, tmp_path):
        # the radius 1 + sqrt(tau - 1) is finite at tau = 1, its derivative not
        chart = tmp_path / "cusp.json"
        chart.write_text(json.dumps({
            "sigma": [f"(1 + sqrt(tau - 1))*{c}" for c in
                      ("sin(theta)*cos(phi)", "sin(theta)*sin(phi)", "cos(theta)")],
            "tau_range": [1.0, 2.0],
        }))
        code, out, err = run_cli("area-variation", "builtin:su2_scaled?a=1",
                                 "--tau", "1", "--family", str(chart))
        assert code == 3 and out == ""
        assert "not finite" in err

    def test_non_finite_density_exits_3(self, tmp_path):
        # the chart's derivatives are about 1e160, so |u|^2, |v|^2 and the
        # density overflow while the tangency residuals stay finite: only
        # the density checks can see it
        chart = tmp_path / "overflow.json"
        chart.write_text(json.dumps({
            "sigma": ["tau*sin(1e160*theta)*cos(1e160*phi)",
                      "tau*sin(1e160*theta)*sin(1e160*phi)", "tau*cos(1e160*theta)"],
            "tau_range": [0.5, 2],
        }))
        for command, message in (("area", "leaf density is not finite"),
                                 ("area-variation", "area rate density is not finite")):
            code, out, err = run_cli(command, "builtin:linear?preset=su2",
                                     "--tau", "1", "--family", str(chart))
            assert code == 3 and out == ""
            assert message in err

    def test_a_nan_tangent_vector_exits_3_at_the_tangency_check(self, tmp_path):
        # the second component's phi-derivative is 0 * inf at phi = 0, so
        # the second tangent vector holds a NaN; a NaN residual is no pass
        chart = tmp_path / "nan.json"
        chart.write_text(json.dumps({
            "sigma": ["tau*sin(theta)*cos(phi)",
                      "tau*sin(theta)*sin(phi)*(1+(sin(phi)^2)^0.5 - (sin(phi)^2)^0.5)",
                      "tau*cos(theta)"],
            "tau_range": [0.5, 2],
        }))
        for command in ("area", "area-variation"):
            code, out, err = run_cli(command, "builtin:linear?preset=su2",
                                     "--tau", "1", "--family", str(chart))
            assert code == 3 and out == ""
            assert "tangency residual of the second argument is not finite" in err

    def test_monodromy_rejects_chart_plus_splitting(self, sigma_file):
        code, _, err = run_cli("monodromy", "builtin:su2_scaled?a=1",
                               "--tau", "1", "--family", sigma_file,
                               "--splitting", sigma_file)
        assert code == 2 and "radial chart" in err

    @pytest.mark.parametrize("content, argv, message", [
        (3, ("area", "builtin:su2_scaled?a=1", "--tau", "1", "--family"), "JSON object"),
        ("sigma tau_range", ("area", "builtin:su2_scaled?a=1", "--tau", "1", "--family"),
         "JSON object"),
        (3, ("transport", "--s0", "1,0,0", "--path"), "JSON object"),
        ("structure gamma t a", ("integrate-field", "--X", "0,x3,-x2", "--path"),
         "JSON object"),
        (3, ("monodromy", "builtin:su2_scaled?a=1", "--tau", "1", "--splitting"),
         "3x3 matrix"),
    ])
    def test_input_file_of_the_wrong_json_shape_is_an_input_error(self, tmp_path, content,
                                                                  argv, message):
        target = tmp_path / "input.json"
        target.write_text(json.dumps(content))
        code, out, err = run_cli(*argv, str(target))
        assert code == 2 and out == ""
        assert message in err

    def test_chart_file_needs_both_keys(self, tmp_path):
        stub = tmp_path / "stub.json"
        stub.write_text(json.dumps({"sigma": ["x1", "x2", "x3"]}))
        code, _, err = run_cli("area", "builtin:su2_scaled?a=1", "--tau", "1",
                               "--family", str(stub))
        assert code == 2 and "tau_range" in err

    def test_non_leaf_chart_is_rejected(self, tmp_path):
        squashed = tmp_path / "squashed.json"
        squashed.write_text(json.dumps({
            "sigma": ["tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)",
                      "2*tau*cos(theta)"],
            "tau_range": [0.5, 2.0],
        }))
        code, _, err = run_cli("area", "builtin:su2_scaled?a=1", "--tau", "1",
                               "--family", str(squashed))
        assert code == 2 and "tangent" in err


# written byte for byte as the files the golden reports were captured with
GOLDEN_FILES = {
    "struct.json": '{"dim": 3, "pi": {"1,2": "(1+R^2)*x3", "1,3": "-(1+R^2)*x2", '
                   '"2,3": "(1+R^2)*x1"}}\n',
    "round.json": '{"sigma": ["tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)", '
                  '"tau*cos(theta)"], "tau_range": [0.2, 3.0], "label": "round-chart"}\n',
    "family.json": '{"generator": ["eps*(1-2*t)*cos(t)", "eps*(1-2*t)*sin(t)", "1"], '
                   '"x0": [0.5, 0.0, 0.25]}\n',
    "split.json": '[["0", "x3/((1+R^2)*(x1^2 + x2^2 + x3^2))", '
                  '"-x2/((1+R^2)*(x1^2 + x2^2 + x3^2))"], '
                  '["-x3/((1+R^2)*(x1^2 + x2^2 + x3^2))", "0", '
                  '"x1/((1+R^2)*(x1^2 + x2^2 + x3^2))"], '
                  '["x2/((1+R^2)*(x1^2 + x2^2 + x3^2))", '
                  '"-x1/((1+R^2)*(x1^2 + x2^2 + x3^2))", "0"]]\n',
}
GOLDEN = json.loads((Path(__file__).parent / "report_bytes.json").read_text())


class TestReportBytes:
    """Exit code, stdout and stderr of the commands, byte for byte as
    report_bytes.json holds them; a change there is a report change to
    document. The files they read sit in the working directory, so sources
    and labels are bare names; a case's "setup" commands write the ones that
    are reports themselves (a stored path)."""

    @pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
    def test_report_bytes(self, case, tmp_path, monkeypatch):
        for name, text in GOLDEN_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        for argv in case.get("setup", []):
            assert run_cli(*argv)[0] == 0
        assert run_cli(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])
