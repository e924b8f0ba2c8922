"""One operation of each workload, run against the program's public API.

Calls go through module attributes (``homotopy.is_homotopy``), so that the
wrappers of a traced run see them. Each function returns the outputs the
checks in bench_checks need.
"""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

from poispath import homotopy, monodromy, paths, registry


def load_pool(pool):
    """registry.load for every structure of the workload (set-up work)."""
    return {role: registry.load(entry["source"]) for role, entry in pool.items()}


def run_homotopy(op, records):
    """The calls of ``poispath variation --X`` plus a transport round trip."""
    structure = records[op["structure"]].structure
    family = homotopy.PathFamily(structure, op["generator"], op["x0"])
    decision = homotopy.is_homotopy(family)
    result = homotopy.solve_variation(family, order="pinned")
    report = homotopy.invariance_report(family, op["field"])
    flipped = None
    if op["kind"] == "group":
        flipped = homotopy.solve_variation(family, order="flipped",
                                           check_resolution=False).max_variation
    path = family.slice_path(op["slice"])
    s0 = np.asarray(op["s0"], dtype=float)
    s1 = paths.transport(path, s0)
    back = paths.transport(paths.reverse(path), s1)
    numbers = [decision.max_variation, decision.start_spread, decision.end_spread,
               result.max_variation, result.resolution_change, report.lhs,
               report.endpoint_term, report.bulk_term, report.residual,
               report.max_transport_endpoint, *s1]
    if flipped is not None:
        numbers.append(flipped)
    return {
        "decision_ok": bool(decision.ok),
        "max_variation": float(result.max_variation),
        "flipped_variation": flipped,
        "residual": float(report.residual),
        "lhs": float(report.lhs),
        "endpoints": family.gamma[:, [0, -1]],
        "round_trip": float(np.max(np.abs(back - s0))),
        "numbers": numbers,
    }


def run_scan(op, records):
    """The calls of ``poispath scan`` and of ``poispath monodromy``."""
    record = records[op["structure"]]
    taus = np.linspace(op["lo"], op["hi"], op["samples"])
    result = monodromy.integrability_scan(record.family, taus)
    area, deriv, gens = record.family.row_data(op["tau_m"])
    floor = 1e-8 * max(1.0, abs(area))
    live = [g for g in gens if g > floor]
    generator = monodromy.gcd_analysis(live).generator if live else float("inf")
    curvature = monodromy.curvature_periods(record.structure, record.splitting,
                                            op["tau_m"])
    return {
        "verdict": result.verdict,
        "rows": [(row.tau, row.r_value) for row in result.rows],
        "mono_derivative": deriv,
        "mono_generator": generator,
        "curvature": curvature.integral,
    }


def expand_argv(op, tmp):
    return [a.replace("{tmp}", tmp) for a in op["argv"]]


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv, root, env):
    """One cold ``python -m poispath`` process."""
    proc = subprocess.run([sys.executable, "-m", "poispath", *argv],
                          cwd=root, env=env, capture_output=True, timeout=170)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def run_cli_inprocess(argv):
    """The same command through ``poispath.cli.main`` in this process."""
    from poispath import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def read_files(op, tmp):
    out = {}
    for name in op.get("files", ()):
        with open(os.path.join(tmp, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out
