"""Command-line front end.

Reports are JSON (or CSV for scans) on stdout, optionally redirected to a
file with --out. Every report embeds the grid sizes and tolerances it used,
and floats are rounded through %.12g so repeated runs with the same seed
produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 validation or parse failure,
3 numerical failure (a diagnostic goes to stderr in both failure cases).
"""

import argparse
import json
import math
import sys
from dataclasses import replace as _replace

import numpy as np

from . import config, expr, registry
from . import paths as pth
from .connection import area_variation, sphere_area
from .core import PoissonStructure
from .errors import EvalDomainError, NumericalError, ParseError, ValidationError
from .homotopy import PathFamily, invariance_report, is_homotopy, solve_variation
from .isotropy import isotropy_data
from .monodromy import (SigmaSphereFamily, curvature_periods, integrability_scan,
                        lattice)


def _fmt(x):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.12g" % x


def _clean(obj):
    """Round floats to 12 significant digits and strip numpy types so the
    JSON encoder sees plain, reproducible scalars."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return float(_fmt(x))
        return _fmt(x)  # inf/nan are not valid JSON scalars
    return obj


def _emit(text, out):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report, out):
    _emit(json.dumps(_clean(report), sort_keys=True, indent=2), out)


def _load_json_file(path_, what):
    try:
        with open(path_, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read {what} file {path_!r}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {what} file {path_!r}: {exc}") from exc


def _point(text, dim, what="point"):
    parts = [p.strip() for p in str(text).split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}")
    if len(values) != dim:
        raise ValidationError(f"{what} needs {dim} components, got {len(values)}")
    return np.asarray(values, dtype=float)


def _components(text, what="components"):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(not p for p in parts):
        raise ValidationError(f"{what} must be comma-separated expressions, got {text!r}")
    return parts


def _parse_forms(structure, text, what):
    return expr.components(_components(text, what), structure.dim,
                           params=structure.params, what=what)


def _values_at(structure, exprs, point):
    fn = expr.compile_exprs_vec(exprs, params=structure.params)
    return fn(np.asarray(point, dtype=float)[:, None])[:, 0]


def _need_structure(record):
    if record.structure is None:
        raise ValidationError(
            f"source {record.source!r} describes a leaf family without an ambient "
            "Poisson structure; this command needs one")
    return record.structure


def _need_family(record):
    if record.family is None:
        raise ValidationError(
            f"source {record.source!r} has no sphere family attached "
            "(only available in dimension 3 or for foliated products)")
    return record.family


def _sphere_family(record, file_, grid=None, step=None):
    """Chart-described sphere family from a {"sigma": [...], "tau_range": [...]}
    file, overriding the record's default family."""
    data = _load_json_file(file_, "sphere family")
    missing = [k for k in ("sigma", "tau_range") if k not in data]
    if missing:
        raise ValidationError(
            f"sphere-family file lacks fields: {', '.join(missing)}")
    structure = _need_structure(record)
    return SigmaSphereFamily(structure, data["sigma"], data["tau_range"],
                             grid=grid, step=step, label=data.get("label"))


def _tau_range(text):
    lo, _, hi = str(text).partition(":")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"range must look like lo:hi, got {text!r}")
    if not hi > lo:
        raise ValidationError(f"range needs hi > lo, got {text!r}")
    return lo, hi


def _grid_pair(text):
    try:
        a, b = (int(p) for p in str(text).split(","))
    except ValueError:
        raise ValidationError(f"grid must be n_theta,n_phi integers, got {text!r}")
    return a, b


# -- subcommands -------------------------------------------------------------

def cmd_show_config(args):
    _emit_json(dict(config.DEFAULTS), args.out)
    return 0


def cmd_validate(args):
    record = registry.load(args.source, validate=False)
    structure = _need_structure(record)
    n_points = args.points if args.points is not None else config.get_default("jacobi_points")
    tol = args.tol if args.tol is not None else config.get_default("jacobi_tol")
    seed = args.seed if args.seed is not None else config.get_default("seed")
    box = config.get_default("sample_box")
    residual = structure.validate(n_points=n_points, tol=tol, seed=seed, box=box)
    _emit_json({
        "source": record.source,
        "label": record.label,
        "dim": structure.dim,
        "max_jacobi_residual": residual,
        "ok": True,
        "settings": {"points": n_points, "box": box, "tol": tol, "seed": seed},
    }, args.out)
    return 0


def cmd_bracket(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    alpha = _parse_forms(structure, args.alpha, "--alpha")
    beta = _parse_forms(structure, args.beta, "--beta")
    bracket = structure.bracket_one_forms(alpha, beta)
    report = {
        "source": record.source,
        "bracket": [expr.to_source(c) for c in bracket],
    }
    if args.at is not None:
        point = _point(args.at, structure.dim, "--at")
        report["at"] = point
        report["value"] = _values_at(structure, bracket, point)
    _emit_json(report, args.out)
    return 0


def cmd_sharp(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    alpha = _parse_forms(structure, args.alpha, "--alpha")
    field = structure.sharp_form(alpha)
    report = {
        "source": record.source,
        "field": [expr.to_source(c) for c in field],
    }
    if args.at is not None:
        point = _point(args.at, structure.dim, "--at")
        report["at"] = point
        report["value"] = _values_at(structure, field, point)
    _emit_json(report, args.out)
    return 0


def cmd_hamiltonian(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    h = expr.parse(args.h, structure.dim, params=tuple(structure.params))
    field = structure.hamiltonian_field(h)
    report = {
        "source": record.source,
        "h": expr.to_source(h),
        "field": [expr.to_source(c) for c in field],
    }
    if args.at is not None:
        point = _point(args.at, structure.dim, "--at")
        report["at"] = point
        report["value"] = _values_at(structure, field, point)
    _emit_json(report, args.out)
    return 0


def cmd_path(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    comps = _components(args.generator, "--generator")
    x0 = _point(args.x0, structure.dim, "--x0")
    path = pth.integrate_base(structure, comps, x0,
                              n_intervals=args.n_intervals, method=args.method,
                              rtol=args.rtol, atol=args.atol)
    report = {
        "source": record.source,
        "structure": structure.to_dict(),
        "generator": comps,
        "defect": path.defect,
        "start": path.start,
        "end": path.end,
        "t": path.t,
        "gamma": path.gamma,
        "a": path.a,
        "settings": {
            "n_intervals": path.n_intervals,
            "method": args.method or config.get_default("ode_method"),
            "ode_rtol": args.rtol if args.rtol is not None else config.get_default("ode_rtol"),
            "ode_atol": args.atol if args.atol is not None else config.get_default("ode_atol"),
        },
    }
    _emit_json(report, args.out)
    return 0


def _read_path(file_):
    data = _load_json_file(file_, "path")
    missing = [k for k in ("structure", "t", "gamma", "a") if k not in data]
    if missing:
        raise ValidationError(f"path file lacks fields: {', '.join(missing)}")
    structure = PoissonStructure.from_dict(data["structure"])
    return pth.CotangentPath(structure,
                             np.asarray(data["t"], dtype=float),
                             np.asarray(data["gamma"], dtype=float),
                             np.asarray(data["a"], dtype=float))


def cmd_integrate_field(args):
    path = _read_path(args.path)
    comps = _components(args.X, "--X")
    value = pth.field_integral(path, comps)
    _emit_json({
        "path": args.path,
        "field": comps,
        "integral": value,
        "defect": path.defect,
        "settings": {"n_intervals": path.n_intervals},
    }, args.out)
    return 0


def cmd_transport(args):
    path = _read_path(args.path)
    s0 = _point(args.s0, path.structure.dim, "--s0")
    s1 = pth.transport(path, s0)
    _emit_json({
        "path": args.path,
        "s0": s0,
        "s1": s1,
        "defect": path.defect,
        "settings": {
            "ode_rtol": config.get_default("ode_rtol"),
            "ode_atol": config.get_default("ode_atol"),
        },
    }, args.out)
    return 0


def cmd_variation(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    family = PathFamily.from_dict(structure, _load_json_file(args.family, "family"))
    decision = is_homotopy(family)
    result = solve_variation(family, order=args.order)
    report = {
        "source": record.source,
        "family": args.family,
        "order": args.order,
        "homotopy": decision.ok,
        "reason": decision.reason,
        "max_variation": result.max_variation,
        "start_spread": decision.start_spread,
        "end_spread": decision.end_spread,
        "grid_coarse": result.grid_coarse,
        "resolution_change": result.resolution_change,
        "variation_curve": [[e, float(np.max(np.abs(v)))]
                            for e, v in zip(result.eps, result.var)],
        "settings": {
            "eps_slices": family.eps.shape[0],
            "t_intervals": family.t.shape[0] - 1,
            "homotopy_tol": decision.tol,
        },
    }
    if args.X is not None:
        comps = _components(args.X, "--X")
        rep = invariance_report(family, comps)
        report["identity"] = {
            "lhs": rep.lhs,
            "endpoint_term": rep.endpoint_term,
            "bulk_term": rep.bulk_term,
            "residual": rep.residual,
            "max_transport_endpoint": rep.max_transport_endpoint,
        }
    _emit_json(report, args.out)
    return 0


def cmd_area(args):
    record = registry.load(args.source)
    grid = args.grid or tuple(config.get_default("area_grid"))
    if args.family is not None:
        family = _sphere_family(record, args.family, grid=grid)
        value = family.area(args.tau)
        settings = {"grid": list(grid), "family": args.family}
        label = family.label
    elif record.structure is not None:
        value = sphere_area(record.structure, args.tau, grid=grid)
        settings = {"grid": list(grid),
                    "area_check_rel": config.get_default("area_check_rel")}
        label = record.label
    else:
        value = _need_family(record).row_data(args.tau)[0]
        settings = {"exact": True}
        label = record.label
    _emit_json({
        "source": record.source,
        "label": label,
        "tau": args.tau,
        "area": value,
        "settings": settings,
    }, args.out)
    return 0


def cmd_area_variation(args):
    record = registry.load(args.source)
    if args.family is not None:
        grid = args.grid or tuple(config.get_default("area_grid"))
        family = _sphere_family(record, args.family, grid=grid, step=args.step)
        area, deriv, gens = family.row_data(args.tau)
        report = {
            "source": record.source,
            "family": args.family,
            "tau": args.tau,
            "area": area,
            "derivative": deriv,
            "generators": list(gens),
            "settings": {"grid": list(grid), "step": family.step},
        }
    elif record.structure is not None:
        grid = args.grid or tuple(config.get_default("area_grid"))
        step = args.step if args.step is not None else config.get_default("variation_step")
        av = area_variation(record.structure, args.tau, step=step, grid=grid)
        report = {
            "source": record.source,
            "tau": av.tau,
            "area": av.area,
            "derivative": av.derivative,
            "generator": av.generator_magnitude,
            "xi": av.xi,
            "zeta": av.zeta,
            "base_point": av.base_point,
            "settings": {"grid": list(grid), "step": step},
        }
    else:
        area, deriv, gens = _need_family(record).row_data(args.tau)
        report = {
            "source": record.source,
            "tau": args.tau,
            "area": area,
            "derivative": deriv,
            "generators": list(gens),
            "settings": {"exact": True},
        }
    _emit_json(report, args.out)
    return 0


def cmd_monodromy(args):
    record = registry.load(args.source)
    if args.family is not None:
        if args.splitting is not None:
            raise ValidationError(
                "the curvature cross-check runs on the built-in radial chart; "
                "it is not available together with --family")
        family = _sphere_family(record, args.family)
        record = _replace(record, splitting=None)
    else:
        family = _need_family(record)
    area, deriv, gens = family.row_data(args.tau)
    g = lattice(gens, area)
    report = {
        "source": record.source,
        "label": record.label,
        "tau": args.tau,
        "area": area,
        "derivative": deriv,
        "generators": list(gens),
        "lattice_generator": g.generator,
        "dense": g.dense,
        "dropped": g.dropped,
        "settings": {
            "denominator_bound": config.get_default("denominator_bound"),
            "ratio_tol": config.get_default("ratio_tol"),
        },
    }
    quad_grid = getattr(family, "grid", None)
    if quad_grid is not None:
        report["settings"]["grid"] = list(quad_grid)
    splitting = None
    if args.splitting is not None:
        splitting = _load_json_file(args.splitting, "splitting")
    elif record.splitting is not None:
        splitting = record.splitting
    if splitting is not None:
        structure = _need_structure(record)
        cr = curvature_periods(structure, splitting, args.tau)
        gap = abs(abs(cr.integral) - abs(deriv))
        report["curvature"] = {
            "integral": cr.integral,
            "center_residual": cr.center_residual,
            "splitting_residual": cr.splitting_residual,
            "agreement_gap": gap,
        }
    _emit_json(report, args.out)
    return 0


_SCAN_COLUMNS = "tau,area,derivative,r_value,dense,generators"


def cmd_scan(args):
    record = registry.load(args.source)
    if args.family is not None:
        family = _sphere_family(record, args.family)
    else:
        family = _need_family(record)
    lo, hi = _tau_range(args.tau_range)
    if args.samples < 2:
        raise ValidationError(f"--samples must be at least 2, got {args.samples}")
    taus = np.linspace(lo, hi, args.samples)
    result = integrability_scan(family, taus, threshold=args.threshold)
    lines = [
        f"# source={args.source}",
        f"# label={family.label if args.family else record.label}",
        f"# tau_range={_fmt(lo)}:{_fmt(hi)} samples={args.samples}",
        f"# threshold={_fmt(result.threshold)} refine_rounds={result.refine_rounds}",
        f"# denominator_bound={_fmt(result.denominator_bound)} ratio_tol={_fmt(result.ratio_tol)}",
    ]
    quad_grid = getattr(family, "grid", None)
    if quad_grid is not None:
        lines.append(f"# area_grid={quad_grid[0]}x{quad_grid[1]}")
    for note in result.notes:
        lines.append(f"# note={note}")
    for c in result.candidates:
        minima = ";".join(_fmt(v) for v in c.round_minima)
        lines.append(f"# candidate tau={_fmt(c.tau)} source={c.source} "
                     f"collapses={int(c.collapses)} dense_hit={int(c.dense_hit)} "
                     f"round_minima={minima}")
    lines.append(f"# verdict={result.verdict}")
    lines.append(_SCAN_COLUMNS)
    for row in result.rows:
        gens = ";".join(_fmt(g) for g in row.generators)
        lines.append(",".join([_fmt(row.tau), _fmt(row.area), _fmt(row.derivative),
                               _fmt(row.r_value), str(int(row.dense)), gens]))
    text = "\n".join(lines)
    if args.out:
        _emit(text, args.out)
        _emit_json({"out": args.out, "verdict": result.verdict,
                    "rows": len(result.rows)}, None)
    else:
        _emit(text, None)
    return 0


def cmd_isotropy(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    point = _point(args.at, structure.dim, "--at")
    data = isotropy_data(structure, point)
    _emit_json({
        "source": record.source,
        "at": data.point,
        "rank": data.rank,
        "corank": data.corank,
        "singular_values": data.singular_values,
        "ambiguous_rank": data.ambiguous_rank,
        "basis": data.basis,
        "structure_constants": data.structure_constants,
        "closure_residual": data.closure_residual,
        "center_dim": data.center_dim,
        "killing": data.killing,
        "killing_rank": data.killing_rank,
        "abelian": data.is_abelian,
        "semisimple": data.is_semisimple,
        "settings": {
            "rank_tol": config.get_default("rank_tol"),
            "gap_ratio_min": config.get_default("gap_ratio_min"),
        },
    }, args.out)
    return 0


# -- parser ------------------------------------------------------------------

def _add_source(p):
    p.add_argument("source", help="builtin:name?opt=value or a JSON structure file")


def _add_out(p):
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


_FAMILY_HELP = ('chart family JSON {"sigma": [3 expressions in tau, theta, '
                'phi], "tau_range": [lo, hi]} overriding the default '
                "radius-sphere family")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poispath",
        description="Brackets, cotangent paths, and period-lattice scans for "
                    "Poisson structures.")
    parser.add_argument("--show-config", action="store_true",
                        help="print the default grids and tolerances and exit")
    sub = parser.add_subparsers(dest="command", required=False, metavar="command")

    p = sub.add_parser("show-config", help="print the default grids and tolerances")
    _add_out(p)
    p.set_defaults(func=cmd_show_config)

    p = sub.add_parser("validate", help="check the Jacobi identity at random points")
    _add_source(p)
    p.add_argument("--points", type=int, default=None, help="sample count")
    p.add_argument("--tol", type=float, default=None, help="residual bound")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    _add_out(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bracket", help="bracket of two 1-forms")
    _add_source(p)
    p.add_argument("--alpha", required=True, help="comma-separated component expressions")
    p.add_argument("--beta", required=True, help="comma-separated component expressions")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("sharp", help="anchor image of a 1-form")
    _add_source(p)
    p.add_argument("--alpha", required=True, help="comma-separated component expressions")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_sharp)

    p = sub.add_parser("hamiltonian", help="Hamiltonian vector field of a function")
    _add_source(p)
    p.add_argument("--h", required=True, help="function expression")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("path", help="integrate a cotangent path from a generator")
    _add_source(p)
    p.add_argument("--generator", required=True,
                   help="covector components, expressions in t and x")
    p.add_argument("--x0", required=True, help="start point, comma-separated")
    p.add_argument("--n-intervals", type=int, default=None, help="time grid intervals")
    p.add_argument("--method", default=None, choices=["rk45", "rk4"], help="ODE method")
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    _add_out(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("integrate-field",
                       help="line integral of a vector field along a stored path")
    p.add_argument("--path", required=True, help="path report produced by the path command")
    p.add_argument("--X", required=True, help="vector field components, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_integrate_field)

    p = sub.add_parser("transport", help="carry a covector along a stored path")
    p.add_argument("--path", required=True, help="path report produced by the path command")
    p.add_argument("--s0", required=True, help="initial covector, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("variation",
                       help="variation curve and homotopy verdict of a path family")
    _add_source(p)
    p.add_argument("--family", required=True,
                   help='JSON file: {"generator": [...], "x0": [...], '
                        '"eps_grid": m, "t_grid": n}')
    p.add_argument("--X", default=None,
                   help="vector field for the invariance-identity residual")
    p.add_argument("--order", default="pinned", choices=["pinned", "flipped"],
                   help="coupling order in the variation equation")
    _add_out(p)
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("area", help="symplectic area of the radius-tau sphere leaf")
    _add_source(p)
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--grid", type=_grid_pair, default=None, help="n_theta,n_phi override")
    _add_out(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("area-variation",
                       help="radial derivative of leaf area and its covector")
    _add_source(p)
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--step", "--h", type=float, default=None, dest="step",
                   help="stencil step in tau")
    p.add_argument("--grid", type=_grid_pair, default=None, help="n_theta,n_phi override")
    _add_out(p)
    p.set_defaults(func=cmd_area_variation)

    p = sub.add_parser("monodromy",
                       help="period-lattice data at one radius, with the curvature "
                            "integral when a splitting is available")
    _add_source(p)
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--splitting", default=None,
                   help="JSON file with an n x n matrix of splitting expressions")
    _add_out(p)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser(
        "scan",
        help="integrability scan over a radius range (CSV)",
        epilog="CSV columns: tau, area, derivative, r_value (period-lattice "
               "generator; inf means trivial lattice, nan means dense), dense "
               "(0/1), generators (semicolon-joined magnitudes). Scan settings, "
               "refinement candidates, and the verdict appear as leading # lines.")
    _add_source(p)
    p.add_argument("--tau-range", required=True, help="lo:hi")
    p.add_argument("--samples", type=int, required=True, help="number of radii")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--threshold", type=float, default=None,
                   help="generator size treated as collapsing to zero")
    _add_out(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("isotropy", help="isotropy Lie algebra data at a point")
    _add_source(p)
    p.add_argument("--at", required=True, help="base point, comma-separated")
    _add_out(p)
    p.set_defaults(func=cmd_isotropy)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if args.show_config:
        _emit_json(dict(config.DEFAULTS), getattr(args, "out", None))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        # the program reports non-finite values itself (exit 3), so numpy's
        # floating-point warnings would only duplicate them on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, EvalDomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
