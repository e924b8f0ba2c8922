"""Shared fixtures-in-plain-functions for the test modules."""

import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np

from poispath.core import PoissonStructure

SU2_PI = {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}


def module_env():
    """Environment for a fresh `python -m poispath` child process.

    The directory holding the imported package goes in front of any inherited
    PYTHONPATH, so the child runs the same poispath as this process, from
    src/ or from an install, whatever its working directory. An inherited
    relative entry such as PYTHONPATH=src names nothing once cwd="/".
    """
    import poispath

    root = str(Path(poispath.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def traced_peak_mib(fn):
    """Peak of the memory Python allocates while fn runs, over what was
    allocated when it started, in MiB: fn runs once untraced to warm up,
    then once under tracemalloc."""
    fn()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / 2 ** 20


def ufunc_calls(source):
    """numpy ufunc calls that one run of a compiled kernel makes, counted in
    its source (the .source of an expr.compile_exprs_vec evaluator): its
    named ufunc and function calls, and any operator or unary minus on an
    array written inline. A negative literal such as (-1.5), or an operator
    on two literals, is plain Python and not counted."""
    def literal(node):
        return isinstance(node, ast.Constant) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant))

    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            count += 1
        elif isinstance(node, ast.BinOp):
            count += not (literal(node.left) and literal(node.right))
        elif isinstance(node, ast.UnaryOp):
            count += not literal(node)
    return count


def su2():
    """Linear structure on the dual of so(3) = su(2)."""
    return PoissonStructure(3, SU2_PI, label="su2")


def su2_scaled(a):
    """Radially rescaled version: entries multiplied by a(R)."""
    pi = {
        (1, 2): f"({a})*x3",
        (1, 3): f"-({a})*x2",
        (2, 3): f"({a})*x1",
    }
    return PoissonStructure(3, pi, label=f"su2_scaled[{a}]")


# the radius-tau sphere in polar coordinates, as a chart sigma(tau, theta, phi)
ROUND_CHART = ("tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)", "tau*cos(theta)")


def symplectic_plane():
    return PoissonStructure(2, {(1, 2): "1"}, label="plane")


# linear structure of the 8-dim algebra behind the Gell-Mann matrices,
# written out entry by entry as an independent statement of the constants
SU3_PI = {
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


def su3():
    return PoissonStructure(8, SU3_PI, label="su3")


def linear_in_new_coordinates(structure, A):
    """The linear structure with Pi(x) = D[l] x_l in the coordinates y = A x:
    Pi'(y) = A Pi(A^-1 y) A^T, rebuilt as a PoissonStructure. Its entries
    stay linear, so it is a new table of structure constants."""
    D = structure.dpi_at(np.zeros(structure.dim))  # D[l, i, j] = d_l Pi^(ij)
    return linear_structure(np.einsum("lm,ai,lij,bj->mab", np.linalg.inv(A), A, D, A))


def linear_structure(M):
    """The structure with upper entries Pi^(ab)(x) = M[m, a, b] x_m."""
    n = len(M)
    pi = {(a + 1, b + 1): " + ".join(f"({float(M[m, a, b])!r})*x{m + 1}" for m in range(n))
          for a in range(n) for b in range(a + 1, n)}
    return PoissonStructure(n, pi)


def su2_splitting(a="1"):
    """Inverse of the anchor on sphere tangents for the rescaled structures:
    sigma(v) = (v x x) / (a R^2)."""
    den = f"(({a})*(x1^2 + x2^2 + x3^2))"
    return [
        ["0", f"x3/{den}", f"-x2/{den}"],
        [f"-x3/{den}", "0", f"x1/{den}"],
        [f"x2/{den}", f"-x1/{den}", "0"],
    ]


def eval_components(components, point, env=None):
    import oracles

    return np.array([oracles.evaluate(c, point, env or {}) for c in components])


def su2_matrix_basis():
    """Anti-Hermitian 2x2 basis E_k = -(i/2) sigma_k with [E_i,E_j] = eps_ijk E_k."""
    sigma = np.array([[[0, 1], [1, 0]],
                      [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]], dtype=complex)
    return -0.5j * sigma


def seeded_family(structure, seed, x0):
    """Reproducible mild deformation family around a drift, for identity tests."""
    from poispath.homotopy import PathFamily

    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.35, 0.35, size=(3, 4)).tolist()
    comps = []
    for i in range(3):
        comps.append(f"{c[i][0]!r}*eps*(1 - 2*t) + {c[i][1]!r}*eps*sin(t)"
                     f" + {c[i][2]!r}*eps^2*t*(1-t) + {c[i][3]!r}*eps*x{i + 1}")
    comps[2] += " + 1"
    return PathFamily(structure, comps, x0)


def seeded_fields(structure, seed):
    """A Hamiltonian, an infinitesimal rotation, and a generic quadratic field."""
    from poispath import expr

    rng = np.random.default_rng(seed)
    h = " + ".join(f"{v!r}*x{i + 1}" for i, v in
                   enumerate(rng.uniform(-1, 1, 3).tolist()))
    hamiltonian = structure.hamiltonian_field(expr.parse(h, 3))
    w = rng.uniform(-1, 1, 3).tolist()
    rotation = (f"{w[1]!r}*x3 - {w[2]!r}*x2", f"{w[2]!r}*x1 - {w[0]!r}*x3",
                f"{w[0]!r}*x2 - {w[1]!r}*x1")
    cv = rng.uniform(-0.5, 0.5, 3).tolist()
    qv = rng.uniform(-0.5, 0.5, 3).tolist()
    generic = tuple(f"{cv[i]!r} + {qv[i]!r}*x{(i + 1) % 3 + 1}*x{(i + 2) % 3 + 1}"
                    for i in range(3))
    return hamiltonian, rotation, generic
