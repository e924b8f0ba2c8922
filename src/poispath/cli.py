"""Command-line front end.

Reports are JSON (or CSV for scans) on stdout, optionally redirected to a
file with --out. Every report embeds the grid sizes and tolerances it used,
and floats are rounded through %.12g so repeated runs with the same seed
produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 validation or parse failure,
3 numerical failure (a diagnostic goes to stderr in both failure cases).
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import config, expr, registry
from . import paths as pth
# sphere_area is bound only for perfbench's tracer, which wraps it under
# this module
from .connection import area_variation, sphere_area  # noqa: F401
from .core import PoissonStructure
from .errors import EvalDomainError, NumericalError, ParseError, ValidationError, require_finite
from .homotopy import PathFamily, invariance_report, is_homotopy, solve_variation
from .isotropy import isotropy_data
from .monodromy import (RadialSphereFamily, SigmaSphereFamily, curvature_periods,
                        integrability_scan, lattice)


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


def _point(text, dim, what="point"):
    parts = [p.strip() for p in str(text).split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}")
    if len(values) != dim:
        raise ValidationError(f"{what} needs {dim} components, got {len(values)}")
    require_finite(values, f"{what} must have finite components, got {text!r}", ValidationError)
    return np.asarray(values, dtype=float)


def _components(text, what="components"):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(not p for p in parts):
        raise ValidationError(f"{what} must be comma-separated expressions, got {text!r}")
    return parts


def _parse_forms(structure, text, what):
    return expr.components(_components(text, what), structure.dim,
                           params=structure.params, what=what)


def _add_values(report, structure, exprs, at):
    """The values of exprs at the --at point, when one is given."""
    if at is not None:
        point = _point(at, structure.dim, "--at")
        fn = expr.compile_exprs_vec(exprs, params=structure.params)
        value = fn(point[:, None])[:, 0]
        require_finite(value, f"value is not finite at --at {point.tolist()}")
        report.update(at=point, value=value)


def _need_structure(record):
    if record.structure is None:
        raise ValidationError(
            f"source {record.source!r} describes a leaf family without an ambient "
            "Poisson structure; this command needs one")
    return record.structure


def _json_fields(file_, what, keys):
    """The JSON object of a --family or --path file, which must hold keys."""
    data = registry.load_json_file(file_, what)
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file must hold a JSON object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValidationError(f"{what} file lacks fields: {', '.join(missing)}")
    return data


def _family(record, args):
    """The sphere family a command runs on: the chart of a --family file
    {"sigma": [...], "tau_range": [...]}, or else the record's family, built
    on --grid when the command has one."""
    grid = getattr(args, "grid", None)
    if args.family is not None:
        data = _json_fields(args.family, "sphere-family", ("sigma", "tau_range"))
        return SigmaSphereFamily(_need_structure(record), data["sigma"], data["tau_range"],
                                 grid=grid, label=data.get("label"))
    if record.family is None:
        raise ValidationError(
            f"source {record.source!r} has no sphere family attached "
            "(only available in dimension 3 or for foliated products)")
    if grid is None or record.structure is None:
        return record.family
    return RadialSphereFamily(record.structure, grid, record.family.label)


def _tau_range(text):
    lo, _, hi = str(text).partition(":")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"range must look like lo:hi, got {text!r}")
    if not -math.inf < lo < hi < math.inf:
        raise ValidationError(f"range needs finite hi > lo, got {text!r}")
    return lo, hi


def _grid_pair(text):
    try:
        a, b = (int(p) for p in str(text).split(","))
    except ValueError:
        raise ValidationError(f"grid must be n_theta,n_phi integers, got {text!r}")
    return a, b


# -- subcommands -------------------------------------------------------------
#
# Each command returns its report, which main writes to stdout or --out;
# scan, whose output is CSV, writes its own.

def _settings(*keys):
    """The settings block of the config defaults a command ran with."""
    return {key: config.get_default(key) for key in keys}


def cmd_show_config(args):
    return dict(config.DEFAULTS)


def cmd_validate(args):
    record = registry.load(args.source, validate=False)
    structure = _need_structure(record)
    box = config.get_default("sample_box")
    residual = structure.validate(n_points=args.points, tol=args.tol, seed=args.seed, box=box)
    return {
        "source": record.source,
        "label": record.label,
        "dim": structure.dim,
        "max_jacobi_residual": residual,
        "ok": True,
        "settings": {"points": args.points, "box": box, "tol": args.tol, "seed": args.seed},
    }


def _expression_report(args, key, build):
    """The report of an expression command: the components that
    build(structure, report) returns under key, with their values at --at."""
    record = registry.load(args.source)
    structure = _need_structure(record)
    report = {"source": record.source}
    exprs = build(structure, report)
    report[key] = [expr.to_source(c) for c in exprs]
    _add_values(report, structure, exprs, args.at)
    return report


def cmd_bracket(args):
    return _expression_report(args, "bracket", lambda structure, report: (
        structure.bracket_one_forms(_parse_forms(structure, args.alpha, "--alpha"),
                                    _parse_forms(structure, args.beta, "--beta"))))


def cmd_sharp(args):
    return _expression_report(args, "field", lambda structure, report: (
        structure.sharp_form(_parse_forms(structure, args.alpha, "--alpha"))))


def cmd_hamiltonian(args):
    def build(structure, report):
        h = expr.parse(args.h, structure.dim, params=tuple(structure.params))
        report["h"] = expr.to_source(h)
        return structure.hamiltonian_field(h)
    return _expression_report(args, "field", build)


def cmd_path(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    comps = _components(args.generator, "--generator")
    x0 = _point(args.x0, structure.dim, "--x0")
    path = pth.integrate_base(structure, comps, x0,
                              n_intervals=args.n_intervals, rtol=args.rtol, atol=args.atol)
    return {
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
            "method": "rk45",  # the only integrator; stored path files keep the key
            "ode_rtol": args.rtol,
            "ode_atol": args.atol,
        },
    }


def _read_path(file_):
    data = _json_fields(file_, "path", ("structure", "t", "gamma", "a"))
    structure = PoissonStructure.from_dict(data["structure"])
    arrays = {k: np.asarray(data[k], dtype=float) for k in ("t", "gamma", "a")}
    for key, values in arrays.items():
        require_finite(values, f"path file holds non-finite values in {key!r}", ValidationError)
    # path_defect differentiates with the step t[1] - t[0], so t must be the
    # even grid from 0 to 1, up to the rounding of np.linspace
    t = arrays["t"]
    if not (t.ndim == 1 and t.size > 1 and t[0] == 0.0 and t[-1] == 1.0
            and np.all(np.abs(t - np.linspace(0.0, 1.0, t.size)) <= 4 * np.finfo(float).eps)):
        raise ValidationError("path file's 't' must run evenly from 0 to 1")
    return pth.CotangentPath(structure, arrays["t"], arrays["gamma"], arrays["a"])


def cmd_integrate_field(args):
    path = _read_path(args.path)
    if path.t.size % 2 == 0:  # the Simpson rule takes odd counts; path writes them
        raise ValidationError(f"integrate-field needs a path file with an odd sample count "
                              f"(an even number of intervals), {args.path} has {path.t.size}")
    comps = _components(args.X, "--X")
    return {
        "path": args.path,
        "field": comps,
        "integral": pth.field_integral(path, comps),
        "defect": path.defect,
        "settings": {"n_intervals": path.n_intervals},
    }


def cmd_transport(args):
    path = _read_path(args.path)
    s0 = _point(args.s0, path.structure.dim, "--s0")
    s1 = pth.transport(path, s0)
    return {
        "path": args.path,
        "s0": s0,
        "s1": s1,
        "sampling_error": pth.sampling_error(path, s0, s1),
        "defect": path.defect,
        "settings": {"n_intervals": path.n_intervals},
    }


def cmd_variation(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    family = PathFamily.from_dict(structure, registry.load_json_file(args.family, "family"))
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
        report["identity"] = dataclasses.asdict(invariance_report(family, comps))
    return report


def cmd_area(args):
    record = registry.load(args.source)
    family = _family(record, args)
    if record.structure is None:
        value, settings = family.row_data(args.tau)[0], {"exact": True}
    else:
        value = family.area(args.tau)
        settings = {"grid": list(family.grid), **_settings("area_check_rel")}
        if args.family is not None:
            settings["family"] = args.family
    return {
        "source": record.source,
        "label": family.label,
        "tau": args.tau,
        "area": value,
        "settings": settings,
    }


def cmd_area_variation(args):
    record = registry.load(args.source)
    family = _family(record, args)
    report = {"source": record.source, "tau": args.tau}
    if args.family is None and record.structure is not None:
        av = area_variation(family.structure, args.tau, grid=family.grid)
        report.update(area=av.area, derivative=av.derivative,
                      generator=av.generator_magnitude, xi=av.xi, zeta=av.zeta,
                      base_point=av.base_point)
    else:
        # exact rows of a foliated product, rate-checked rows of a chart
        area, deriv, gens = family.row_data(args.tau, verify=True)
        report.update(area=area, derivative=deriv, generators=list(gens))
        if args.family is not None:
            report["family"] = args.family
    report["settings"] = ({"exact": True} if record.structure is None
                          else {"grid": list(family.grid)})
    return report


def cmd_monodromy(args):
    record = registry.load(args.source)
    if args.family is not None and args.splitting is not None:
        raise ValidationError(
            "the curvature cross-check runs on the built-in radial chart; "
            "it is not available together with --family")
    family = _family(record, args)
    area, deriv, gens = family.row_data(args.tau, verify=True)
    g = lattice(gens, area)
    report = {
        "source": record.source,
        "label": family.label,
        "tau": args.tau,
        "area": area,
        "derivative": deriv,
        "generators": list(gens),
        "lattice_generator": g.generator,
        "dense": g.dense,
        "dropped": g.dropped,
        "settings": _settings("denominator_bound", "ratio_tol"),
    }
    if record.structure is not None:
        report["settings"]["grid"] = list(family.grid)
    splitting = record.splitting if args.family is None else None
    if args.splitting is not None:
        splitting = registry.load_json_file(args.splitting, "splitting")
    if splitting is not None:
        cr = curvature_periods(_need_structure(record), splitting, args.tau)
        report["curvature"] = {
            "integral": cr.integral,
            "center_residual": cr.center_residual,
            "splitting_residual": cr.splitting_residual,
            "agreement_gap": abs(abs(cr.integral) - abs(deriv)),
        }
    return report


_SCAN_COLUMNS = "tau,area,derivative,r_value,dense,generators"


def cmd_scan(args):
    record = registry.load(args.source)
    family = _family(record, args)
    lo, hi = _tau_range(args.tau_range)
    if args.samples < 2:
        raise ValidationError(f"--samples must be at least 2, got {args.samples}")
    taus = np.linspace(lo, hi, args.samples)
    result = integrability_scan(family, taus, threshold=args.threshold)
    lines = [
        f"# source={args.source}",
        f"# label={family.label}",
        f"# tau_range={_fmt(lo)}:{_fmt(hi)} samples={args.samples}",
        f"# threshold={_fmt(result.threshold)}",
        f"# denominator_bound={_fmt(result.denominator_bound)} ratio_tol={_fmt(result.ratio_tol)}",
    ]
    if record.structure is not None:
        lines.append(f"# area_grid={family.grid[0]}x{family.grid[1]}")
    for note in result.notes:
        lines.append(f"# note={note}")
    for c in result.candidates:
        lines.append(f"# candidate tau={_fmt(c.tau)} source={c.source} "
                     f"collapses={int(c.collapses)} dense_hit={int(c.dense_hit)} "
                     f"bracket={_fmt(c.bracket[0])}:{_fmt(c.bracket[1])} value={_fmt(c.value)}")
    lines.append(f"# verdict={result.verdict}")
    lines.append(_SCAN_COLUMNS)
    for row in result.rows:
        gens = ";".join(_fmt(g) for g in row.generators)
        lines.append(",".join([_fmt(row.tau), _fmt(row.area), _fmt(row.derivative),
                               _fmt(row.r_value), str(int(row.dense)), gens]))
    text = "\n".join(lines)
    # with --out, a JSON summary of the CSV goes to stdout
    _emit(text, args.out)
    if args.out:
        _emit_json({"out": args.out, "verdict": result.verdict,
                    "rows": len(result.rows)}, None)


def cmd_isotropy(args):
    record = registry.load(args.source)
    structure = _need_structure(record)
    data = isotropy_data(structure, _point(args.at, structure.dim, "--at"))
    return {
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
        "settings": _settings("rank_tol", "gap_ratio_min"),
    }


# -- parser ------------------------------------------------------------------

def _command(sub, name, func, source=True, **kwargs):
    """A subcommand parser with the source positional, --out and its handler."""
    p = sub.add_parser(name, **kwargs)
    if source:
        p.add_argument("source", help="builtin:name?opt=value or a JSON structure file")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=func)
    return p


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

    _command(sub, "show-config", cmd_show_config, source=False,
             help="print the default grids and tolerances")

    p = _command(sub, "validate", cmd_validate,
                 help="check the Jacobi identity at random points")
    p.add_argument("--points", type=int, default=config.get_default("jacobi_points"),
                   help="sample count")
    p.add_argument("--tol", type=float, default=config.get_default("jacobi_tol"),
                   help="residual bound")
    p.add_argument("--seed", type=int, default=config.get_default("seed"),
                   help="sampling seed")

    p = _command(sub, "bracket", cmd_bracket, help="bracket of two 1-forms")
    p.add_argument("--alpha", required=True, help="comma-separated component expressions")
    p.add_argument("--beta", required=True, help="comma-separated component expressions")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")

    p = _command(sub, "sharp", cmd_sharp, help="anchor image of a 1-form")
    p.add_argument("--alpha", required=True, help="comma-separated component expressions")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")

    p = _command(sub, "hamiltonian", cmd_hamiltonian,
                 help="Hamiltonian vector field of a function")
    p.add_argument("--h", required=True, help="function expression")
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")

    p = _command(sub, "path", cmd_path, help="integrate a cotangent path from a generator")
    p.add_argument("--generator", required=True,
                   help="covector components, expressions in t and x")
    p.add_argument("--x0", required=True, help="start point, comma-separated")
    p.add_argument("--n-intervals", type=int, default=None, help="time grid intervals")
    p.add_argument("--rtol", type=float, default=config.get_default("ode_rtol"))
    p.add_argument("--atol", type=float, default=config.get_default("ode_atol"))

    p = _command(sub, "integrate-field", cmd_integrate_field, source=False,
                 help="line integral of a vector field along a stored path")
    p.add_argument("--path", required=True, help="path report produced by the path command")
    p.add_argument("--X", required=True, help="vector field components, comma-separated")

    p = _command(sub, "transport", cmd_transport, source=False,
                 help="carry a covector along a stored path")
    p.add_argument("--path", required=True, help="path report produced by the path command")
    p.add_argument("--s0", required=True, help="initial covector, comma-separated")

    p = _command(sub, "variation", cmd_variation,
                 help="variation curve and homotopy verdict of a path family")
    p.add_argument("--family", required=True,
                   help='JSON file: {"generator": [...], "x0": [...], '
                        '"eps_grid": m, "t_grid": n}')
    p.add_argument("--X", default=None,
                   help="vector field for the invariance-identity residual")
    p.add_argument("--order", default="pinned", choices=["pinned", "flipped"],
                   help="coupling order in the variation equation")

    p = _command(sub, "area", cmd_area, help="symplectic area of the radius-tau sphere leaf")
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--grid", type=_grid_pair, default=None, help="n_theta,n_phi override")

    # no prefix matching, so that a stray "--h 0.002" is an error, not --help
    p = _command(sub, "area-variation", cmd_area_variation, allow_abbrev=False,
                 help="radial derivative of leaf area and its covector")
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--grid", type=_grid_pair, default=None, help="n_theta,n_phi override")

    p = _command(sub, "monodromy", cmd_monodromy,
                 help="period-lattice data at one radius, with the curvature "
                      "integral when a splitting is available")
    p.add_argument("--tau", type=float, required=True, help="leaf radius")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--splitting", default=None,
                   help="JSON file with an n x n matrix of splitting expressions")

    p = _command(
        sub, "scan", cmd_scan,
        help="integrability scan over a radius range (CSV)",
        epilog="CSV columns: tau, area, derivative, r_value (period-lattice "
               "generator; inf means trivial lattice, nan means dense), dense "
               "(0/1), generators (semicolon-joined magnitudes). Scan settings, "
               "candidates (the radius where the search for a generator zero "
               "stopped: source sign or minimum, its bracket and |g| there), "
               "and the verdict appear as leading # lines.")
    p.add_argument("--tau-range", required=True, help="lo:hi")
    p.add_argument("--samples", type=int, required=True, help="number of radii")
    p.add_argument("--family", default=None, help=_FAMILY_HELP)
    p.add_argument("--threshold", type=float, default=None,
                   help="generator size treated as collapsing to zero")

    p = _command(sub, "isotropy", cmd_isotropy, help="isotropy Lie algebra data at a point")
    p.add_argument("--at", required=True, help="base point, comma-separated")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if args.show_config:
        args.func = cmd_show_config
    elif args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        # the program reports non-finite values itself (exit 3), so numpy's
        # floating-point warnings would only duplicate them on stderr
        with np.errstate(all="ignore"):
            report = args.func(args)
        if report is not None:
            _emit_json(report, getattr(args, "out", None))
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, EvalDomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
