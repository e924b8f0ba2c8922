"""Named defects that the test suite must kill.

Each row of MUTANTS is a deliberate defect: an id, a file of the tree, an
exact snippet that occurs once in it, the snippet that replaces it, and the
test ids that must fail once it is in. A mutant is killed when every named
test fails, and survives otherwise; a survivor is a finding about the
suite, so its row stays in the table.

    python tests/mutants.py [id ...]

copies src/, tests/ and pyproject.toml to a temporary directory per mutant,
applies it there and runs its tests (the working tree is never touched). With
no ids it runs every row. It prints one line per mutant and exits 1 if any
survived. Runs are deterministic: hypothesis is seeded with 0. Tier-1 only
checks that the table is well formed (tests/test_mutants.py).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("rk4-update-grouped", "src/poispath/paths.py",
           "(k1 + 2.0 * k2 + 2.0 * k3 + k4)", "(k1 + 2.0 * (k2 + k3) + k4)",
           ("tests/test_homotopy.py::TestStageKernel::"
            "test_stage_kernel_matches_the_sharp_many_route",
            "tests/test_homotopy.py::TestSolveOnce::test_bitwise_equal_to_separate_solves")),
    Mutant("base-gate-dropped", "src/poispath/paths.py",
           '    require_finite(gamma, "base integration produced non-finite values")\n', "",
           ("tests/test_paths.py::TestIntegrateBase::"
            "test_overflowing_base_fails_closed_without_warnings",
            "tests/test_cli.py::TestEvaluationFailures::test_a_nan_field_exits_3_and_says_so"
            "[overflow-base integration produced non-finite values]")),
    Mutant("require-within-passes-nan", "src/poispath/errors.py",
           "    if not value <= bound:", "    if value > bound:",
           ("tests/test_errors.py::TestRequireWithin::test_nan_or_excess_fails",
            "tests/test_errors.py::TestRequireWithin::test_type_and_message_pass_through")),
    Mutant("require-finite-isinf-only", "src/poispath/errors.py",
           "    if not np.all(np.isfinite(values)):", "    if np.any(np.isinf(values)):",
           ("tests/test_errors.py::TestRequireFinite::test_any_non_finite_entry_fails",
            "tests/test_errors.py::TestRequireFinite::test_type_and_message_pass_through")),
    Mutant("simpson-end-weights-swapped", "src/poispath/quadrature.py",
           "c0 * (y0 * c1 + y1 * c2 + y2 * c3)", "c0 * (y0 * c3 + y1 * c2 + y2 * c1)",
           ("tests/test_quadrature.py::test_simpson_matches_scipy_bit_for_bit",)),
    Mutant("endpoint-sign-flipped", "src/poispath/paths.py",
           "ENDPOINT_SIGN = -1.0", "ENDPOINT_SIGN = 1.0",
           ("tests/test_paths.py::TestIntegrals::test_endpoint_identity_on_circle",
            "tests/test_paths.py::TestIntegrals::test_endpoint_identity_random_hamiltonians",
            "tests/test_acceptance.py::test_criterion_11_endpoint_identity_single_sign")),
    Mutant("variation-t-full-grid", "src/poispath/homotopy.py",
           "step, d_eps = family.t[2] - family.t[0],", "step, d_eps = family.t[1] - family.t[0],",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_invariance_report_matches_the_reference",
            "tests/test_homotopy.py::TestInvariance::test_all_terms_nonzero_yet_balanced")),
    Mutant("invariance-splines-pinned", "src/poispath/homotopy.py",
           "_KNOTTED = (False, -1.0)", "_KNOTTED = (False, 1.0)",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_invariance_report_matches_the_reference",
            "tests/test_homotopy.py::TestInvariance::test_all_terms_nonzero_yet_balanced")),
    Mutant("invariance-midpoint-slope-sign-flipped", "src/poispath/homotopy.py",
           "derivative_row(window, m - s, d_eps) - S.coupling_many(",
           "derivative_row(window, m - s, d_eps) + S.coupling_many(",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_invariance_report_matches_the_reference",
            "tests/test_homotopy.py::TestInvariance::test_all_terms_nonzero_yet_balanced")),
    Mutant("transport-hermite-zero-slopes", "src/poispath/paths.py",
           "hermite(xa, differentiate_samples(xa, 1.0))", "hermite(xa, 0.0 * xa)",
           ("tests/test_paths.py::TestTransport::test_matches_a_dense_tight_reference",
            "tests/test_paths.py::TestTransport::test_reverse_inverts_transport")),
    Mutant("coarse-views-odd-slices", "src/poispath/homotopy.py",
           "gamma[:, lo:hi + 1] = nodes[:, :, ::2]", "gamma[:, lo:hi + 1] = nodes[:, :, ::-2]",
           ("tests/test_homotopy.py::TestSolveOnce::test_bitwise_equal_to_separate_solves",
            "tests/test_homotopy.py::TestSolveOnce::"
            "test_invariance_report_matches_the_reference")),
    Mutant("streamed-ring-carries-a-stale-node", "src/poispath/homotopy.py",
           "ring[:, 0] = ring[:, -1]", "ring[:, 0] = ring[:, -2]",
           ("tests/test_homotopy.py::TestSolveOnce::test_streamed_blocks_match_the_reference",
            "tests/test_homotopy.py::TestSolveOnce::test_bitwise_equal_to_separate_solves")),
    Mutant("report-window-off-by-one", "src/poispath/homotopy.py",
           "s = min(max(m - 3, 0), M - 7)", "s = min(max(m - 4, 0), M - 7)",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_d_eps_rows_of_the_report_have_the_bits_of_the_whole_array",)),
    Mutant("foliated-df-drops-x1", "src/poispath/monodromy.py",
           'expr.add(expr.differentiate(e, 1), expr.differentiate_sym(e, "tau"))',
           'expr.differentiate_sym(e, "tau")',
           ("tests/test_monodromy.py::TestFoliatedProduct::test_coordinate_spelling_also_works",
            "tests/test_monodromy.py::TestFoliatedProduct::"
            "test_rows_have_the_bits_of_the_substituted_invariants")),
    Mutant("foliated-derivative-one-partial", "src/poispath/monodromy.py",
           'expr.add(expr.differentiate(e, 1), expr.differentiate_sym(e, "tau"))',
           "expr.differentiate(e, 1)",
           ("tests/test_monodromy.py::TestFoliatedProduct::"
            "test_rows_have_the_bits_of_the_substituted_invariants",)),
    Mutant("real-pow-allows-complex", "src/poispath/expr.py",
           "    if isinstance(value, complex):\n        raise ArithmeticError(",
           "    if False:\n        raise ArithmeticError(",
           ("tests/test_expr.py::TestCompiled::"
            "test_fractional_power_of_a_negative_constant_is_a_domain_error",
            "tests/test_cli.py::TestEvaluationFailures::test_a_domain_error_exits_3")),
    Mutant("curl-over-l-below-j", "src/poispath/monodromy.py",
           "                      product(range(3), repeat=2))",
           "                      ((l, j) for l in range(3) for j in range(l + 1, 3)))",
           ("tests/test_monodromy.py::TestCurvature::test_round_sphere_periods",
            "tests/test_monodromy.py::TestCurvature::test_agrees_with_area_variation",
            "tests/test_acceptance.py::test_criterion_06_curvature_agrees_with_area_variation")),
    Mutant("sharp-drops-kept-zero-term", "src/poispath/homotopy.py",
           "            elif k == 0 and all(zero[j]):", "            elif False:",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_non_finite_generator_on_an_unread_component_fails_closed",)),
    Mutant("coupling-factor-lower-unnegated", "src/poispath/homotopy.py",
           "g = expr.Neg(grads[(k, j)][i])", "g = grads[(k, j)][i]",
           ("tests/test_homotopy.py::"
            "test_fused_coupling_factor_matches_the_retired_route_bit_for_bit",
            "tests/test_homotopy.py::TestSolveOnce::test_bitwise_equal_to_separate_solves")),
    Mutant("stencil-end-rows-through-blas", "src/poispath/paths.py",
           "    np.add.reduce(w[:, :3] * y[:7, None], axis=0, initial=0.0, out=d[:3])\n"
           "    np.add.reduce(w[:, 4:] * y[m - 7:, None], axis=0, initial=0.0, out=d[m - 3:])\n",
           "    d[:3] = [np.tensordot(w[:, r].ravel(), y[:7], axes=(0, 0)) for r in range(3)]\n"
           "    d[m - 3:] = [np.tensordot(w[:, r].ravel(), y[m - 7:], axes=(0, 0))\n"
           "                 for r in range(4, 7)]\n",
           ("tests/test_paths.py::TestDerivativeStencils::"
            "test_a_slice_has_the_bits_of_the_whole_result",
            "tests/test_homotopy.py::TestSolveOnce::"
            "test_fine_d_eps_by_block_has_the_bits_of_the_whole_array")),
    Mutant("derivative-row-central-at-the-ends", "src/poispath/paths.py",
           "np.add.reduce(_stencils(y.ndim)[:, i - s] * y[s:s + 7]",
           "np.add.reduce(_stencils(y.ndim)[:, 3] * y[s:s + 7]",
           ("tests/test_paths.py::TestDerivativeStencils::"
            "test_a_row_has_the_bits_of_the_whole_result",
            "tests/test_homotopy.py::TestSolveOnce::"
            "test_d_eps_rows_of_the_report_have_the_bits_of_the_whole_array[su2_scaled-drift]",
            "tests/test_homotopy.py::TestSolveOnce::"
            "test_invariance_report_matches_the_reference[su2_scaled-drift]")),
    Mutant("fine-endpoint-finiteness-dropped", "src/poispath/homotopy.py",
           "fields[part] = b if np.all(np.isfinite(b)) else None",
           "fields[part] = b if part[0] or np.all(np.isfinite(b)) else None",
           ("tests/test_homotopy.py::TestSolveOnce::"
            "test_a_diverging_field_does_not_fail_its_batch",)),
    Mutant("solve-ivp-names-nan-only", "src/poispath/paths.py",
           "if bad_at is None and not np.isfinite(value).all() and",
           "if bad_at is None and np.isnan(value).any() and",
           ("tests/test_paths.py::TestIntegrateBase::"
            "test_an_overflowing_field_is_named_in_the_failure",)),
    Mutant("tangency-nan-reads-tangent", "src/poispath/connection.py",
           "if not np.all(resid <= np.where(wn <= 1e-300, np.inf, bound * wn)):",
           "if np.any((resid > bound * wn) & (wn > 1e-300)):",
           ("tests/test_errors.py::test_a_nan_at_a_bound_site_fails_closed[tangency]",
            "tests/test_cli.py::TestChartFamilies::"
            "test_a_nan_tangent_vector_exits_3_at_the_tangency_check")),
    Mutant("coupling-reduce-k-j-order", "src/poispath/homotopy.py",
           "np.add.reduce(buf.reshape(-1, *b.shape)",
           "np.add.reduce(buf.transpose(1, 0, 2, 3).reshape(-1, *b.shape)",
           ("tests/test_homotopy.py::test_block_contraction_matches_the_einsum_bit_for_bit",
            "tests/test_homotopy.py::TestSolveOnce::test_bitwise_equal_to_separate_solves")),
    Mutant("area-check-reversed", "src/poispath/connection.py",
           'require_within(abs(finer - value), '
           'get_default("area_check_rel") * max(1.0, abs(finer)),',
           'require_within(get_default("area_check_rel") * max(1.0, abs(finer)), '
           'abs(finer - value),',
           ("tests/test_connection.py::TestSphereArea::test_matches_closed_form",
            "tests/test_connection.py::TestSphereArea::"
            "test_doubling_check_catches_rough_integrand",
            "tests/test_cli.py::TestLeafReports::test_unstable_quadrature_exits_3",
            "tests/test_acceptance.py::test_criterion_04_leaf_areas_match_closed_form")),
    Mutant("sign-search-bracket-swapped", "src/poispath/monodromy.py",
           "            lo = mid\n        else:\n            hi = mid",
           "            hi = mid\n        else:\n            lo = mid",
           ("tests/test_monodromy.py::TestScan::test_collapse_found_between_grid_samples",
            "tests/test_monodromy.py::TestScan::test_zero_at_a_golden_offset_between_samples",
            "tests/test_monodromy.py::TestScan::"
            "test_sign_change_across_a_singular_radius_is_no_collapse",
            "tests/test_cli.py::TestScanCommand::test_zero_between_samples_is_non_integrable")),
    Mutant("chart-phi-side-along-theta", "src/poispath/connection.py",
           "*by_theta[:, rows, None], *by_phi,",
           "*by_theta[:, rows, None], *np.resize(by_phi, (len(by_phi), th.size))[..., None],",
           ("tests/test_connection.py::test_sigma_rows_keep_the_bits_of_the_plain_chart",
            "tests/test_connection.py::"
            "test_sphere_kernel_matches_the_reference_row_bit_for_bit",
            "tests/test_monodromy.py::TestCurvatureBlocks::"
            "test_matches_the_whole_grid_route_bit_for_bit")),
    Mutant("sphere-kernel-cached-without-rate", "src/poispath/connection.py",
           'structure.evaluator(("sphere", rate), build)', 'structure.evaluator("sphere", build)',
           ("tests/test_connection.py::test_sphere_kernels_compile_once_per_structure_and_rate",
            "tests/test_monodromy.py::TestCurvatureKernelCache::"
            "test_dropping_the_structure_drops_its_kernels")),
    Mutant("sample-draw-drops-a-bit", "src/poispath/core.py",
           "(word >> 11) * 2.0**-53", "(word >> 12) * 2.0**-53",
           ("tests/test_core.py::test_sample_points_are_numpys_draw_bit_for_bit",
            "tests/test_cli.py::TestValidate::"
            "test_failed_gate_reports_the_residual_at_the_seeded_points")),
)


def _failed(output):
    """Test ids that pytest's -rf summary reports as failed."""
    return {line[len("FAILED "):].split(" - ")[0] for line in output.splitlines()
            if line.startswith("FAILED ")}


def _covers(named, ids):
    """Whether the named test id, or a parametrized case of it, is in ids."""
    return any(i == named or i.startswith(named + "[") for i in ids)


def run(mutant):
    """Apply the mutant to a copy of the tree and run its tests; returns the
    named tests that did not fail (empty when the mutant is killed)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        target = tree / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.id}: snippet does not occur exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"{mutant.id}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    failed = _failed(proc.stdout)
    return [t for t in mutant.tests if not _covers(t, failed)]


def main(argv):
    table = {m.id: m for m in MUTANTS}
    unknown = [i for i in argv if i not in table]
    if unknown:
        raise SystemExit(f"unknown mutant ids: {', '.join(unknown)}")
    survived = 0
    for mutant in [table[i] for i in argv] or MUTANTS:
        passed = run(mutant)
        survived += bool(passed)
        print(f"{'survived' if passed else 'killed':9} {mutant.id}"
              + "".join(f"\n          still passes: {t}" for t in passed), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
