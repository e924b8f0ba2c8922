"""End-to-end checks of the command line: report content, exit codes, and
byte-level determinism of repeated runs."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

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

    def test_help_exits_clean(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    def test_show_config_lists_every_default(self):
        report = run_json("show-config")
        assert set(report) == set(config.DEFAULTS)
        assert report["area_grid"] == [200, 100]

    def test_report_can_go_to_a_file(self, tmp_path):
        target = tmp_path / "cfg.json"
        code, out, _ = run_cli("show-config", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["seed"] == config.DEFAULTS["seed"]


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

    def test_unknown_builtin_fails_with_code_2(self):
        code, _, err = run_cli("validate", "builtin:nope")
        assert code == 2
        assert "available" in err

    def test_family_only_source_rejected(self):
        code, _, err = run_cli("validate", "builtin:foliated_spheres?f1=tau")
        assert code == 2
        assert "ambient" in err


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

    def test_family_file_must_be_complete(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"generator": ["0", "0", "1"]}))
        code, _, err = run_cli("variation", "builtin:linear?preset=su2",
                               "--family", str(fam))
        assert code == 2
        assert "x0" in err


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
    """scipy is imported by the commands that integrate, not at start-up."""

    def _run(self, *argv):
        proc = subprocess.run([sys.executable, *argv], capture_output=True,
                              cwd="/", env=helpers.module_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc

    def test_importing_the_cli_loads_no_scipy(self):
        proc = self._run("-c", "import sys, poispath.cli; print(sorted("
                         "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.stdout.decode().strip() == "[]"

    def test_show_config_loads_no_scipy(self):
        proc = self._run("-X", "importtime", "-m", "poispath", "--show-config")
        assert json.loads(proc.stdout)
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.decode().splitlines()
                    if line.startswith("import time:")]
        assert "poispath.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


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
        report = run_json("area-variation", "builtin:su2_scaled?a=1",
                          "--tau", "0.2", "--family", sigma_file,
                          "--h", "0.002")
        assert report["derivative"] == pytest.approx(4.0 * math.pi, rel=1e-3)
        assert report["settings"]["step"] == pytest.approx(0.002)

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

    def test_monodromy_rejects_chart_plus_splitting(self, sigma_file):
        code, _, err = run_cli("monodromy", "builtin:su2_scaled?a=1",
                               "--tau", "1", "--family", sigma_file,
                               "--splitting", sigma_file)
        assert code == 2 and "radial chart" in err

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
