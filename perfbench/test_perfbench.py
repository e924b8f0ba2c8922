"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_checks as checks  # noqa: E402
import bench_inputs as inputs  # noqa: E402
from run import tail  # noqa: E402


def _ops(workload, seed, count=None):
    count = count or 2 * inputs.cycle_length(workload)
    return [inputs.op_inputs(workload, seed, i) for i in range(count)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert inputs.pool(workload, 7) == inputs.pool(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)
    json.dumps(_ops(workload, 7))  # plain data only


def test_scan_zeros_sit_inside_the_range_at_the_stated_offset():
    for seed in range(20):
        for op in _ops("scan", seed):
            assert 0.2 <= op["lo"] <= 0.5 and 2.0 - 1e-9 <= op["hi"] <= 3.0 + 1e-9
            assert op["samples"] in inputs.SCAN_SAMPLES
            zero = checks.profile_zero(op["profile"])
            if op["zero"] is None:
                assert zero is None or zero > op["hi"]
                continue
            h = (op["hi"] - op["lo"]) / (op["samples"] - 1)
            position = (zero - op["lo"]) / h
            assert position >= 1 and (op["hi"] - zero) / h >= 1
            assert abs(position - math.floor(position) - op["zero_offset"]) < 1e-9


def test_run_size_is_fixed_by_workload_and_seconds():
    for workload in inputs.WORKLOADS:
        assert inputs.ops_per_run(workload, 1) >= 1
        assert inputs.ops_per_run(workload, 30) == inputs.ops_per_run(workload, 30.0)
        assert inputs.ops_per_run(workload, 60) > inputs.ops_per_run(workload, 30)


def test_tail_is_the_rank_with_ten_samples_beyond():
    assert tail(list(range(20, 0, -1))) == (10, 50.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


# -- every check passes closed-form output and rejects a perturbed value ------

def _homotopy_out(op):
    ends = np.arange(2 * 41 * 3, dtype=float).reshape(41, 2, 3) / 97.0
    w = np.asarray(op["h_weights"])
    lhs = checks.ENDPOINT_SIGN * float(w @ (ends[-1, 1] - ends[-1, 0])
                                       - w @ (ends[0, 1] - ends[0, 0]))
    return {"decision_ok": True, "max_variation": 1e-9, "flipped_variation": 0.3,
            "residual": 1e-9, "lhs": lhs, "endpoints": ends, "round_trip": 1e-10,
            "numbers": [0.1, 0.2]}


def test_homotopy_check_rejects_perturbed_values():
    group = inputs.homotopy_op(3, 0)
    hamiltonian = next(op for op in _ops("homotopy", 3) if op["field_kind"] == "hamiltonian")
    for op in (group, hamiltonian):
        assert checks.check_homotopy(op, _homotopy_out(op)) == []
    bad = [("residual", 2e-6), ("round_trip", 2e-7), ("numbers", [0.1, math.nan])]
    for key, value in bad:
        out = _homotopy_out(hamiltonian)
        out[key] = value
        assert checks.check_homotopy(hamiltonian, out)
    out = _homotopy_out(hamiltonian)
    out["lhs"] = out["lhs"] * (1 + 1e-2) + 1e-5
    assert checks.check_homotopy(hamiltonian, out)
    for key, value in (("max_variation", 2e-5), ("flipped_variation", 5e-3),
                       ("decision_ok", False)):
        out = _homotopy_out(group)
        out[key] = value
        assert checks.check_homotopy(group, out)


def _scan_out(op):
    profile = op["profile"]
    taus = np.linspace(op["lo"], op["hi"], op["samples"])
    deriv = checks.closed_derivative(profile, op["tau_m"])
    zero_kind = op["kind"].endswith("_zero")
    return {"verdict": checks.VERDICT_BAD if zero_kind else checks.VERDICT_OK,
            "rows": [(t, checks.closed_generator(profile, t)) for t in taus],
            "mono_derivative": deriv, "mono_generator": abs(deriv),
            "curvature": -deriv}


def test_scan_check_rejects_perturbed_values():
    for op in _ops("scan", 5, inputs.cycle_length("scan")):
        out = _scan_out(op)
        assert checks.check_scan(op, out) == []
        off = copy.deepcopy(out)
        tau, r = off["rows"][3]
        off["rows"][3] = (tau, r * (1 + 1e-2))
        assert checks.check_scan(op, off)
        for key in ("curvature", "mono_derivative", "mono_generator"):
            off = dict(out)
            off[key] = out[key] * (1 + 1e-2)
            assert checks.check_scan(op, off)
        off = dict(out, verdict="INCONCLUSIVE")
        fails = checks.check_scan(op, off)
        assert fails
        # only a verdict miss on a zero crossing is the known defect
        assert checks.only_known_defect(fails) == op["kind"].endswith("_zero")


def _cli_stdout(op):
    kind = op["kind"]
    if kind == "show_config":
        return {"seed": 1, "area_grid": [200, 100]}
    if kind.startswith("validate"):
        return {"max_jacobi_residual": 0.0, "ok": True}
    if kind == "bracket":
        return {"value": checks.coordinate_bracket(op["profile"], op["j"], op["k"],
                                                   op["x"]).tolist()}
    if kind in ("sharp", "hamiltonian"):
        return {"value": checks.anchor(op["profile"], op["x"], op["w"]).tolist()}
    if kind == "path":
        return {}
    if kind == "integrate_field":
        x1 = checks.rotate_z(op["x0"], 1.0)[0]
        return {"integral": checks.ENDPOINT_SIGN * (x1 - op["x0"][0])}
    if kind == "transport":
        return {"s1": checks.rotate_z(op["s0"], 1.0).tolist()}
    if kind == "area":
        return {"area": checks.closed_area(op["profile"], op["tau"])}
    if kind == "area_variation":
        return {"derivative": checks.closed_derivative(op["profile"], op["tau"])}
    if kind == "monodromy":
        d = checks.closed_derivative(op["profile"], op["tau"])
        return {"derivative": d, "lattice_generator": abs(d),
                "curvature": {"integral": d}}
    if kind == "isotropy":
        return {"corank": 4, "center_dim": 1, "killing_rank": 3}
    raise AssertionError(kind)


def _foliated_csv(op, scale=1.0):
    lo, hi = (float(v) for v in op["argv"][3].split(":"))
    rows = [f"{t!r},0,0,{4 * math.pi * op['k'] / t ** 2 * scale!r},0,1"
            for t in np.linspace(lo, hi, op["samples"]).tolist()]
    return "\n".join(["# verdict=INTEGRABLE_EVIDENCE",
                      "tau,area,derivative,r_value,dense,generators", *rows]) + "\n"


def _perturb(value):
    if isinstance(value, dict):
        return {k: _perturb(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_perturb(v) for v in value]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-2) + 1e-6
    return value


def _cli_case(op, perturbed):
    if op["kind"] == "scan_foliated":
        return _foliated_csv(op, 1 + 1e-2 if perturbed else 1.0), {}
    report = _cli_stdout(op)
    files = {}
    if op["kind"] == "path":
        end = checks.rotate_z(op["x0"], 1.0).tolist()
        files["path.json"] = json.dumps({"end": _perturb(end) if perturbed else end})
    elif perturbed:
        report = _perturb(report)
        if op["kind"] == "show_config":
            report = {"seed": "1"}
    return json.dumps(report), files


def test_cli_check_rejects_perturbed_values():
    for op in _ops("cli", 9, inputs.cycle_length("cli")):
        stdout, files = _cli_case(op, perturbed=False)
        assert checks.check_cli(op, 0, stdout, files, {}) == [], op["kind"]
        assert checks.check_cli(op, 3, stdout, files, {}), op["kind"]
        stdout, files = _cli_case(op, perturbed=True)
        seen = {}
        assert checks.check_cli(op, 0, stdout, files, seen), op["kind"]
    repeat = next(op for op in _ops("cli", 9) if op.get("repeat_key"))
    stdout, _ = _cli_case(repeat, perturbed=False)
    seen = {}
    assert checks.check_cli(repeat, 0, stdout, {}, seen) == []
    assert checks.check_cli(repeat, 0, stdout, {}, seen) == []
    assert checks.check_cli(repeat, 0, stdout + " ", {}, seen)


# -- tracing -------------------------------------------------------------------

def test_untraced_worker_installs_no_wrapper():
    code = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "import bench_worker\n"
        "bench_worker.main(['--root', {root!r}, '--workload', 'scan', '--seed', '1',"
        " '--mode', 'setup'])\n"
        "assert 'bench_spans' not in sys.modules\n"
        "import bench_spans\n"
        "print(bench_spans.installed_spans())\n"
    ).format(src=os.path.join(ROOT, "src"), here=HERE, root=ROOT)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == ["ready", "[]"]


def test_tracer_wraps_every_binding_and_uninstalls():
    import bench_spans

    from poispath import cli, connection, homotopy, monodromy, paths

    originals = (homotopy.path_defect, monodromy.leaf_form_many, cli.sphere_area,
                 paths.solve_ivp)
    tracer = bench_spans.Tracer().install()
    try:
        assert all(getattr(f, bench_spans.MARK, None) for f in (
            homotopy.path_defect, paths.path_defect, monodromy.leaf_form_many,
            connection.leaf_form_many, cli.sphere_area, paths.solve_ivp,
            cli.is_homotopy, monodromy.RadialSphereFamily.row_data))
        record = __import__("poispath.registry").registry.load(
            "builtin:su2_scaled?a=1+R^2")
        monodromy.integrability_scan(record.family, [0.5, 0.6, 0.7])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (homotopy.path_defect, monodromy.leaf_form_many, cli.sphere_area,
            paths.solve_ivp) == originals
    assert bench_spans.installed_spans() == []
    assert metrics["registry.load.calls"] == 1
    assert metrics["monodromy.integrability_scan.calls"] == 1
    assert metrics["monodromy.row_data.calls"] >= 3
    assert metrics["connection.leaf_form_many.points"] > 0
    assert metrics["expr.eval.calls"] > 0
    names = {name for name, _ in bench_spans.metric_names()}
    assert set(metrics) <= names
