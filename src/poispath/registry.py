"""Built-in structures and loading of user descriptions.

Sources come in two spellings:

  * ``builtin:<name>?key=value&...`` for the catalog below; unrecognized
    numeric query keys become expression parameters (so
    ``builtin:su2_scaled?a=c*(1+R^2)&c=2`` works),
  * anything else is a path to a JSON file with fields ``dim``, ``pi``
    (entry map keyed "i,j"), optional ``params``, ``label`` and
    ``splitting`` (matrix of expression strings).

Every load runs the Jacobi gate at seeded sample points; structures that are
not Poisson do not come out of here. Dim-3 records carry the radius family
(and, when known, an anchor splitting) so leaf-area commands work without
extra arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from urllib.parse import unquote

from .core import PoissonStructure
from .errors import ValidationError
from .monodromy import FoliatedSphereProduct, RadialSphereFamily


@dataclass
class StructureRecord:
    label: str
    structure: "PoissonStructure | None"
    family: object
    splitting: "list | None"
    source: str


def su2_scaled_entries(a="1"):
    return {
        (1, 2): f"({a})*x3",
        (1, 3): f"-({a})*x2",
        (2, 3): f"({a})*x1",
    }


def su2_scaled_splitting(a="1"):
    # inverts the anchor on sphere tangents: sigma(v) = (v x x) / (a R^2)
    den = f"(({a})*(x1^2 + x2^2 + x3^2))"
    return [
        ["0", f"x3/{den}", f"-x2/{den}"],
        [f"-x3/{den}", "0", f"x1/{den}"],
        [f"x2/{den}", f"-x1/{den}", "0"],
    ]


SU2_ENTRIES = {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}

# structure constants of the 8-dim matrix algebra in the Gell-Mann basis,
# Pi^(ab) = f_abc x_c
SU3_ENTRIES = {
    (1, 2): "x3",
    (1, 3): "-x2",
    (1, 4): "x7/2",
    (1, 5): "-x6/2",
    (1, 6): "x5/2",
    (1, 7): "-x4/2",
    (2, 3): "x1",
    (2, 4): "x6/2",
    (2, 5): "x7/2",
    (2, 6): "-x4/2",
    (2, 7): "-x5/2",
    (3, 4): "x5/2",
    (3, 5): "-x4/2",
    (3, 6): "-x7/2",
    (3, 7): "x6/2",
    (4, 5): "x3/2 + sqrt(3)/2*x8",
    (4, 6): "x2/2",
    (4, 7): "x1/2",
    (4, 8): "-sqrt(3)/2*x5",
    (5, 6): "-x1/2",
    (5, 7): "x2/2",
    (5, 8): "sqrt(3)/2*x4",
    (6, 7): "-x3/2 + sqrt(3)/2*x8",
    (6, 8): "-sqrt(3)/2*x7",
    (7, 8): "sqrt(3)/2*x6",
}


def _int_option(options, key, default):
    raw = options.pop(key, None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"option {key!r} must be an integer, got {raw!r}") from None


def _collect_params(options):
    params = {}
    for key, raw in options.items():
        try:
            params[key] = float(raw)
        except ValueError:
            raise ValidationError(
                f"unknown option {key!r} (non-numeric, so not a parameter)") from None
    return params


def _build_zero(options):
    n = _int_option(options, "n", 3)
    label = options.pop("label", f"zero[{n}]")
    if options:
        raise ValidationError(f"zero takes only n, got {sorted(options)}")
    return PoissonStructure(n, {}, label=label), None, None


def _build_symplectic(options):
    n = _int_option(options, "n", 2)
    label = options.pop("label", f"symplectic[{n}]")
    if options:
        raise ValidationError(f"symplectic takes only n, got {sorted(options)}")
    if n < 2 or n % 2:
        raise ValidationError(f"symplectic dimension must be even, got {n}")
    pi = {(2 * i - 1, 2 * i): "1" for i in range(1, n // 2 + 1)}
    return PoissonStructure(n, pi, label=label), None, None


def _build_linear(options):
    preset = options.pop("preset", "su2")
    label = options.pop("label", f"linear[{preset}]")
    if options:
        raise ValidationError(f"linear takes only preset, got {sorted(options)}")
    if preset == "su2":
        return PoissonStructure(3, SU2_ENTRIES, label=label), None, su2_scaled_splitting("1")
    if preset == "su3":
        return PoissonStructure(8, SU3_ENTRIES, label=label), None, None
    raise ValidationError(f"unknown linear preset {preset!r} (have: su2, su3)")


def _build_su2_scaled(options):
    a = options.pop("a", "1")
    label = options.pop("label", f"su2_scaled[{a}]")
    params = _collect_params(options)
    structure = PoissonStructure(3, su2_scaled_entries(a), params=params, label=label)
    return structure, None, su2_scaled_splitting(a)


def _build_foliated_spheres(options):
    k = _int_option(options, "k", 0)
    label = options.pop("label", None)
    fs = []
    index = 1
    while f"f{index}" in options:
        fs.append(options.pop(f"f{index}"))
        index += 1
    if options:
        raise ValidationError(f"unknown options {sorted(options)} for foliated_spheres")
    if k and k != len(fs):
        raise ValidationError(f"k={k} but {len(fs)} invariants given")
    if not fs:
        raise ValidationError("foliated_spheres needs f1[, f2, ...] invariants")
    family = FoliatedSphereProduct(fs, label=label)
    return None, family, None


_BUILTINS = {
    "zero": (_build_zero, "zero structure; options: n (dim, default 3)"),
    "symplectic": (_build_symplectic,
                   "constant block structure; options: n (even dim, default 2)"),
    "linear": (_build_linear, "linear preset; options: preset=su2|su3"),
    "su2_scaled": (_build_su2_scaled,
                   "radially rescaled rotation structure; options: a (expr in R,"
                   " default 1), plus numeric parameters used inside a"),
    "foliated_spheres": (
        _build_foliated_spheres,
        "abstract sphere product family; options: f1..fk (exprs in tau), k"),
}


def available():
    """Name -> one-line description of the builtin catalog."""
    return {name: doc for name, (_, doc) in _BUILTINS.items()}


def _load_builtin(spec):
    name, _, query = spec.partition("?")
    if name not in _BUILTINS:
        raise ValidationError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTINS))}")
    # split by hand: the form-encoding rule "+ means space" would corrupt
    # expression values like a=1+R^2, so only percent escapes are decoded
    options = {}
    for field in query.split("&"):
        if not field:
            continue
        key, _, value = field.partition("=")
        key = unquote(key)
        if key in options:
            raise ValidationError(f"duplicate option {key!r}")
        options[key] = unquote(value)
    builder, _ = _BUILTINS[name]
    return builder(options)


def load_json_file(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read {what} file {path!r}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {what} file {path!r}: {exc}") from exc


def _load_json(path):
    data = load_json_file(path, "structure")
    splitting = data.pop("splitting", None) if isinstance(data, dict) else None
    structure = PoissonStructure.from_dict(data)
    return structure, None, splitting


def load(source, validate=True):
    """Resolve a source string to a StructureRecord, Jacobi-gated."""
    source = str(source)
    if source.startswith("builtin:"):
        structure, family, splitting = _load_builtin(source[len("builtin:"):])
    else:
        structure, family, splitting = _load_json(source)
    if structure is not None and validate:
        structure.validate()
    label = structure.label or source if structure is not None else family.label
    if structure is not None and family is None and structure.dim == 3:
        family = RadialSphereFamily(structure, label=label)
    return StructureRecord(label=label, structure=structure, family=family,
                           splitting=splitting, source=source)
