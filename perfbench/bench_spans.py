"""Span tracing from outside the program, for the traced run only.

Tracer.install wraps the public functions of each poispath module in every
module namespace that bound them (``from .x import y`` copies included), the
methods on their classes, and the evaluators returned by the expression
compiler. A span records name, start, end, parent span and a point count;
spans stay in memory until the run writes them out. The timed runs never
import this module.
"""

import functools
import json
import sys
import time
import types

# (metric prefix, module, attribute or "Class.method", count points)
TARGETS = (
    ("expr.parse", "expr", "parse", False),
    ("expr.differentiate", "expr", "differentiate", False),
    ("expr.differentiate", "expr", "differentiate_sym", False),
    ("expr.compile", "expr", "compile_exprs", False),
    ("expr.compile", "expr", "compile_exprs_vec", False),
    ("core.pi_many", "core", "PoissonStructure.pi_many", True),
    ("core.dpi_many", "core", "PoissonStructure.dpi_many", True),
    ("core.sharp_many", "core", "PoissonStructure.sharp_many", False),
    ("core.coupling_many", "core", "PoissonStructure.coupling_many", False),
    ("core.validate", "core", "PoissonStructure.validate", False),
    ("paths.integrate_base", "paths", "integrate_base", False),
    ("paths.transport", "paths", "transport", False),
    ("paths.path_defect", "paths", "path_defect", False),
    ("homotopy.family_solve", "homotopy", "PathFamily.solve", False),
    ("homotopy.is_homotopy", "homotopy", "is_homotopy", False),
    ("homotopy.solve_variation", "homotopy", "solve_variation", False),
    ("homotopy.invariance_report", "homotopy", "invariance_report", False),
    ("connection.leaf_form_many", "connection", "leaf_form_many", True),
    ("connection.sphere_area", "connection", "sphere_area", False),
    # the one-grid rule that sphere_area, area_variation and the radial
    # family's rows all run; the scan reaches quadrature only through it
    ("connection.sphere_quadrature", "connection", "_sphere_area_once", False),
    ("connection.area_variation", "connection", "area_variation", False),
    ("monodromy.row_data", "monodromy", "RadialSphereFamily.row_data", False),
    ("monodromy.row_data", "monodromy", "FoliatedSphereProduct.row_data", False),
    ("monodromy.row_data", "monodromy", "SigmaSphereFamily.row_data", False),
    ("monodromy.curvature_periods", "monodromy", "curvature_periods", False),
    ("monodromy.gcd_analysis", "monodromy", "gcd_analysis", False),
    ("monodromy.integrability_scan", "monodromy", "integrability_scan", False),
    ("isotropy.isotropy_data", "isotropy", "isotropy_data", False),
    ("registry.load", "registry", "load", False),
)

POINT_SPANS = ("expr.eval", "core.pi_many", "core.dpi_many",
               "connection.leaf_form_many")

CLI_METRICS = ("cli.interpreter_s", "cli.import_s", "cli.import_scipy_s",
               "cli.import_numpy_s", "cli.command_s")


def span_names():
    names = []
    for name, *_ in TARGETS:
        if name not in names:
            names.append(name)
        if name == "expr.compile":
            if "expr.eval" not in names:
                names.append("expr.eval")
    return names


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if name in POINT_SPANS:
            out.append((f"{name}.points", "count"))
        if name == "paths.path_defect":
            out.append(("paths.ode_nfev", "count"))
        if name == "monodromy.integrability_scan":
            out.append(("monodromy.refine_ratio", "1"))
    out += [(name, "s") for name in CLI_METRICS]
    out.append(("trace.overhead_s", "s"))
    return out


MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, points]
        self._stack = []
        self.ode_nfev = 0
        self._patches = []       # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn, points=None, result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if points is not None:
                record[4] = points(args, kwargs, out)
            return result(out) if result is not None else out

        setattr(wrapper, MARK, name)
        return wrapper

    def _eval_wrapper(self, evaluator):
        # evaluators return (k, m) arrays, scalar ones a tuple per point
        return self._wrap("expr.eval", evaluator,
                          points=lambda a, k, out: _eval_points(out))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target in each poispath module that bound it."""
        import poispath.cli  # noqa: F401  (binds the names cli re-exports)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "poispath" or n.startswith("poispath."))]
        for name, module_name, attr, count in TARGETS:
            module = sys.modules[f"poispath.{module_name}"]
            points = (lambda a, k, out: _row_count(out)) if count else None
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method], points))
                continue
            original = getattr(module, attr)
            if attr == "compile_exprs_vec" or attr == "compile_exprs":
                wrapped = self._wrap(name, original, result=self._eval_wrapper)
            elif name == "monodromy.integrability_scan":
                wrapped = self._wrap(name, original, points=_scan_rows)
            else:
                wrapped = self._wrap(name, original, points)
            for module_ in modules:
                for key, value in list(vars(module_).items()):
                    if value is original:
                        self._patch(module_, key, wrapped)
        paths = sys.modules["poispath.paths"]
        self._patch(paths, "solve_ivp", self._count_nfev(paths.solve_ivp))
        return self

    def _count_nfev(self, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            tracer.ode_nfev += int(sol.nfev)
            return sol

        setattr(counted, MARK, "paths.solve_ivp")
        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, summed self time and points, plus the
        refinement ratio of the scan."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, points) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "points": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            entry["points"] += points
        grid_rows = probe_rows = 0
        for i, (name, _, _, parent, points) in enumerate(self.spans):
            if name == "monodromy.integrability_scan":
                grid_rows += points
            elif name == "monodromy.row_data" and self._under_scan(parent):
                probe_rows += 1
        refine = (probe_rows - grid_rows) / grid_rows if grid_rows else 0.0
        return out, refine

    def _under_scan(self, index):
        while index >= 0:
            if self.spans[index][0] == "monodromy.integrability_scan":
                return True
            index = self.spans[index][3]
        return False

    def metrics(self):
        """Per-layer metrics (values only) for every span-based name."""
        agg, refine = self.aggregate()
        values = {}
        for name in span_names():
            entry = agg.get(name, {"calls": 0, "self_s": 0.0, "points": 0})
            values[f"{name}.calls"] = entry["calls"]
            values[f"{name}.self_s"] = entry["self_s"]
            if name in POINT_SPANS:
                values[f"{name}.points"] = entry["points"]
        values["paths.ode_nfev"] = self.ode_nfev
        values["monodromy.refine_ratio"] = refine
        return values

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "points"],
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, k]
                                 for n, s, e, p, k in self.spans]}, fh)


def _row_count(out):
    return int(getattr(out, "shape", (1,))[0])


def _eval_points(out):
    shape = getattr(out, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[1])
    return 1


def _scan_rows(args, kwargs, out):
    taus = kwargs["taus"] if "taus" in kwargs else args[1]
    return len(taus)


def installed_spans():
    """Names of every wrapper currently installed in poispath; empty when
    the process runs untraced."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "poispath" or name.startswith("poispath.")):
            continue
        for value in vars(module).values():
            candidates = [value]
            if isinstance(value, type):
                candidates += list(vars(value).values())
            found += [getattr(c, MARK) for c in candidates
                      if isinstance(c, types.FunctionType) and hasattr(c, MARK)]
    return sorted(set(found))
