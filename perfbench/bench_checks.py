"""Closed forms and output checks for the benchmark workloads.

Every expected value here comes from a closed form or an independent route,
never from the program's own output. Each check returns a list of failure
strings; an empty list means the output passed. The structures involved are
the rotation algebra su2 and its radial rescalings Pi = a(R) * Pi_su2, for
which

    leaf area          A(tau)  = 4 pi tau / a(tau)
    area variation     A'(tau) = 4 pi (a - tau a') / a^2
    anchor             #alpha  = a(x) * (x cross alpha)
    coordinate bracket [dx_j, dx_k] = a e_i + (a'(R)/R) x_i x   (j, k, i cyclic)
"""

import json
import math

import numpy as np

FOUR_PI = 4.0 * math.pi

# sign in  integral <a, X_h(gamma)> dt = ENDPOINT_SIGN * (h(end) - h(start)),
# fixed by the anchor convention (#alpha)^k = Pi^(jk) alpha_j
ENDPOINT_SIGN = -1.0

VERDICT_OK = "INTEGRABLE_EVIDENCE"
VERDICT_BAD = "NON_INTEGRABLE"

# check id of the scan verdict on a profile whose generator has a zero
# inside the range; misses there are the documented refinement defect
ZERO_VERDICT = "zero_verdict"


# -- radial profiles ---------------------------------------------------------

def profile_source(profile):
    """Expression text of a(R) as the structure source spells it."""
    kind = profile["kind"]
    if kind == "const":
        return repr(profile["k"])
    if kind == "poly":
        return f"1+{profile['c']!r}*R^2"
    if kind == "exp":
        return f"exp(R^2/{profile['c']!r})"
    raise ValueError(f"unknown profile kind {kind!r}")


def structure_source(profile):
    return f"builtin:su2_scaled?a={profile_source(profile)}"


def profile_values(profile, R):
    """a(R), a'(R) and a'(R)/R (the last finite at R = 0)."""
    kind = profile["kind"]
    if kind == "const":
        return profile["k"], 0.0, 0.0
    c = profile["c"]
    if kind == "poly":
        return 1.0 + c * R * R, 2.0 * c * R, 2.0 * c
    if kind == "exp":
        a = math.exp(R * R / c)
        return a, 2.0 * R / c * a, 2.0 / c * a
    raise ValueError(f"unknown profile kind {kind!r}")


def closed_area(profile, tau):
    a, _, _ = profile_values(profile, tau)
    return FOUR_PI * tau / a


def closed_derivative(profile, tau):
    a, da, _ = profile_values(profile, tau)
    return FOUR_PI * (a - tau * da) / (a * a)


def closed_generator(profile, tau):
    return abs(closed_derivative(profile, tau))


def profile_zero(profile):
    """Radius where a - R a' vanishes, or None."""
    kind = profile["kind"]
    if kind == "poly":
        return 1.0 / math.sqrt(profile["c"])
    if kind == "exp":
        return math.sqrt(profile["c"] / 2.0)
    return None


def anchor(profile, x, alpha):
    x = np.asarray(x, dtype=float)
    a, _, _ = profile_values(profile, float(np.linalg.norm(x)))
    return a * np.cross(x, np.asarray(alpha, dtype=float))


def coordinate_bracket(profile, j, k, x):
    """[dx_j, dx_k] at x for a cyclic triple (j, k, i), 1-based."""
    i = 6 - j - k
    x = np.asarray(x, dtype=float)
    a, _, da_over_r = profile_values(profile, float(np.linalg.norm(x)))
    return a * np.eye(3)[i - 1] + da_over_r * x[i - 1] * x


def rotate_z(v, angle):
    """Rotation about x3 by -angle: the flow of both the base and the
    transported covector along the su2 path with generator (0, 0, 1)."""
    v = np.asarray(v, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] + s * v[1], -s * v[0] + c * v[1], v[2]])


# -- small helpers -----------------------------------------------------------

def _rel_gap(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _finite(values):
    arr = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(arr)))


def _close(name, got, want, rel):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not _finite(got):
        return [f"{name}: got {got.tolist()}, want {want.tolist()}"]
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    band = rel * max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    if not gap <= band:
        return [f"{name}: gap {gap:.3e} exceeds {band:.3e}"]
    return []


# -- homotopy ----------------------------------------------------------------

def check_homotopy(op, out):
    """out: decision_ok, max_variation (pinned), flipped_variation (group
    families), residual, lhs, endpoints (M, 2, 3) base endpoints per slice,
    round_trip (|back - s0|), numbers (every reported float)."""
    fails = []
    if not _finite(out["numbers"]):
        fails.append("non-finite number in the report")
    if not out["residual"] <= 1e-6:
        fails.append(f"invariance residual {out['residual']:.3e} > 1e-6")
    if op["field_kind"] == "hamiltonian":
        w = np.asarray(op["h_weights"])
        ends = np.asarray(out["endpoints"])
        dh_last = float(w @ (ends[-1, 1] - ends[-1, 0]))
        dh_first = float(w @ (ends[0, 1] - ends[0, 0]))
        want = ENDPOINT_SIGN * (dh_last - dh_first)
        if not abs(out["lhs"] - want) <= 1e-6:
            fails.append(f"identity lhs {out['lhs']!r} vs endpoint value {want!r}")
    if not out["round_trip"] <= 1e-7:
        fails.append(f"transport round trip off by {out['round_trip']:.3e}")
    if op["kind"] == "group":
        if not out["decision_ok"]:
            fails.append("group family not recognised as a homotopy")
        if not out["max_variation"] <= 1e-5:
            fails.append(f"pinned variation {out['max_variation']:.3e} > 1e-5")
        if not out["flipped_variation"] >= 1e-2:
            fails.append(f"flipped variation {out['flipped_variation']:.3e} < 1e-2")
    return fails


# -- scan --------------------------------------------------------------------

def check_scan(op, out):
    """out: verdict, rows [(tau, r_value)], mono_derivative, mono_generator
    (lattice generator), curvature."""
    profile = op["profile"]
    fails = []
    for tau, r in out["rows"]:
        want = closed_generator(profile, tau)
        if want >= 1e-2 and not _rel_gap(r, want) <= 1e-3:
            fails.append(f"r_value at tau={tau:.6g}: {r!r} vs {want!r}")
    kind = op["kind"]
    if kind in ("poly_zero", "exp_zero"):
        if out["verdict"] != VERDICT_BAD:
            fails.append(f"{ZERO_VERDICT}: {out['verdict']} although the "
                         f"generator vanishes at tau={op['zero']:.6g}")
    elif out["verdict"] != VERDICT_OK:
        fails.append(f"verdict {out['verdict']} on a profile without a zero")
    tau = op["tau_m"]
    want = closed_generator(profile, tau)
    if not _rel_gap(abs(out["mono_derivative"]), want) <= 1e-3:
        fails.append(f"monodromy derivative {out['mono_derivative']!r} vs {want!r}")
    if not _rel_gap(out["mono_generator"], want) <= 1e-3:
        fails.append(f"lattice generator {out['mono_generator']!r} vs {want!r}")
    curv, deriv = abs(out["curvature"]), abs(out["mono_derivative"])
    if not _rel_gap(curv, deriv) <= 1e-3:
        fails.append(f"curvature {curv!r} vs derivative {deriv!r}")
    return fails


def only_known_defect(fails):
    """True when every failure is the scan verdict miss on a zero crossing."""
    return bool(fails) and all(f.startswith(ZERO_VERDICT) for f in fails)


# -- cli ---------------------------------------------------------------------

def _scan_csv(stdout):
    verdict = None
    rows = []
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("# verdict="):
            verdict = line.split("=", 1)[1]
    header = lines.index("tau,area,derivative,r_value,dense,generators")
    for line in lines[header + 1:]:
        cols = line.split(",")
        rows.append((float(cols[0]), float(cols[3])))
    return verdict, rows


def check_cli(op, returncode, stdout, files, seen):
    """Check one CLI call. files maps output file names to their text; seen
    maps a repeated argv to the first stdout it produced in this run."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return _check_cli_output(op, stdout, files, seen)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_cli_output(op, stdout, files, seen):
    kind = op["kind"]
    fails = []
    if op.get("repeat_key"):
        first = seen.setdefault(op["repeat_key"], stdout)
        if stdout != first:
            fails.append("repeated argv gave different stdout bytes")
    if kind == "show_config":
        report = json.loads(stdout)
        if not (isinstance(report, dict) and isinstance(report.get("seed"), int)
                and isinstance(report.get("area_grid"), list)):
            fails.append("show-config is not the settings object")
    elif kind in ("validate_su3", "validate_scaled"):
        report = json.loads(stdout)
        residual = report["max_jacobi_residual"]
        if not (report["ok"] is True and residual <= 1e-9):
            fails.append(f"Jacobi residual {residual!r}")
    elif kind == "bracket":
        report = json.loads(stdout)
        want = coordinate_bracket(op["profile"], op["j"], op["k"], op["x"])
        fails += _close("bracket value", report["value"], want, 1e-8)
    elif kind in ("sharp", "hamiltonian"):
        report = json.loads(stdout)
        want = anchor(op["profile"], op["x"], op["w"])
        fails += _close(f"{kind} value", report["value"], want, 1e-8)
    elif kind == "path":
        report = json.loads(files["path.json"])
        want = rotate_z(op["x0"], 1.0)
        fails += _close("path end", report["end"], want, 1e-8)
    elif kind == "integrate_field":
        report = json.loads(stdout)
        # X = (0, x3, -x2) is the Hamiltonian field of x1 on su2
        want = ENDPOINT_SIGN * (rotate_z(op["x0"], 1.0)[0] - op["x0"][0])
        if not abs(report["integral"] - want) <= 1e-8:
            fails.append(f"field integral {report['integral']!r} vs {want!r}")
    elif kind == "transport":
        report = json.loads(stdout)
        fails += _close("transported covector", report["s1"],
                        rotate_z(op["s0"], 1.0), 1e-7)
    elif kind == "area":
        report = json.loads(stdout)
        want = closed_area(op["profile"], op["tau"])
        if not _rel_gap(report["area"], want) <= 1e-4:
            fails.append(f"area {report['area']!r} vs {want!r}")
    elif kind == "area_variation":
        report = json.loads(stdout)
        want = closed_derivative(op["profile"], op["tau"])
        if not _rel_gap(report["derivative"], want) <= 1e-3:
            fails.append(f"derivative {report['derivative']!r} vs {want!r}")
    elif kind == "monodromy":
        report = json.loads(stdout)
        want = closed_generator(op["profile"], op["tau"])
        if not _rel_gap(report["lattice_generator"], want) <= 1e-3:
            fails.append(f"lattice generator {report['lattice_generator']!r} vs {want!r}")
        curv = abs(report["curvature"]["integral"])
        deriv = abs(report["derivative"])
        if not _rel_gap(curv, deriv) <= 1e-3:
            fails.append(f"curvature {curv!r} vs derivative {deriv!r}")
    elif kind == "isotropy":
        report = json.loads(stdout)
        got = (report["corank"], report["center_dim"], report["killing_rank"])
        if got != (4, 1, 3):
            fails.append(f"(corank, center, Killing rank) = {got}, want (4, 1, 3)")
    elif kind == "scan_foliated":
        verdict, rows = _scan_csv(stdout)
        if verdict != VERDICT_OK:
            fails.append(f"foliated scan verdict {verdict}")
        if len(rows) != op["samples"]:
            fails.append(f"{len(rows)} scan rows, want {op['samples']}")
        for tau, r in rows:
            want = FOUR_PI * op["k"] / tau ** 2
            if not _rel_gap(r, want) <= 1e-3:
                fails.append(f"r_value at tau={tau:.6g}: {r!r} vs {want!r}")
    else:
        raise ValueError(f"unknown cli kind {kind!r}")
    return fails
