import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import (ROUND_CHART, su2, su2_scaled, su2_splitting, symplectic_plane,
                     traced_peak_mib)
from poispath import config, connection, expr, monodromy
from poispath.core import PoissonStructure
from poispath.errors import EvalDomainError, NumericalError, ValidationError

FOUR_PI = 4 * math.pi


class TestCurvature:
    def test_round_sphere_periods(self):
        res = monodromy.curvature_periods(su2(), su2_splitting(), 1.0)
        assert res.integral == pytest.approx(FOUR_PI, abs=1e-3)
        assert res.center_residual < 1e-12
        assert res.splitting_residual < 1e-12

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_agrees_with_area_variation(self, tau):
        p = su2_scaled("1 + R^2")
        curv = monodromy.curvature_periods(p, su2_splitting("1 + R^2"), tau)
        var = connection.area_variation(p, tau)
        assert curv.integral == pytest.approx(var.derivative, rel=1e-3)
        np.testing.assert_allclose(var.xi, [curv.integral, 0.0, 0.0], rtol=1e-3, atol=1e-9)

    def test_sign_at_shrinking_radius(self):
        res = monodromy.curvature_periods(
            su2_scaled("1 + R^2"), su2_splitting("1 + R^2"), 2.0)
        assert res.integral == pytest.approx(-12 * math.pi / 25, rel=1e-3)

    def test_wrong_splitting_rejected(self):
        # transposed matrix reverses the anchor inversion and must fail
        bad = [list(row) for row in zip(*su2_splitting())]
        with pytest.raises(ValidationError):
            monodromy.curvature_periods(su2(), bad, 1.0)

    def test_splitting_shape_enforced(self):
        with pytest.raises(ValidationError):
            monodromy.curvature_periods(su2(), [["0"] * 3] * 2, 1.0)

    # on the phi = 0 and phi = pi meridians of the chart x2 = 0: the first
    # entry is 0/0 there, the second is finite but its derivative is not
    @pytest.mark.parametrize("change", ["*(x2/x2)", " + ((x2^2)^0.5 - (x2^2)^0.5)"])
    def test_non_finite_splitting_fails_closed(self, change):
        spl = su2_splitting()
        spl[0][1] = f"({spl[0][1]}){change}"
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                monodromy.curvature_periods(su2(), spl, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(form=st.sampled_from(["1+{c}*R^2", "exp(R^2/{c})", "{c}"]),
           c=st.floats(0.2, 3.0), tau=st.floats(0.3, 2.5))
    def test_matches_the_symbolic_route(self, form, c, tau):
        a = form.format(c=repr(c))
        p, spl = su2_scaled(a), su2_splitting(a)
        res = monodromy.curvature_periods(p, spl, tau)
        ref = oracles.curvature_reference(p, spl, tau)
        assert abs(res.integral - ref.integral) <= 1e-12 * max(1.0, abs(ref.integral))
        assert res.center_residual <= 1e-12
        assert res.splitting_residual <= 1e-12

    # x spans the kernel of # for su2_scaled, so M_ij + x_i c_j(x) is
    # another splitting; the period must not see the choice
    @pytest.mark.parametrize("c", [("x2", "0", "0"), ("sin(x1)", "x3^2", "x1*x2"),
                                   ("0", "0", "1")])
    @pytest.mark.parametrize("a", ["1+R^2", "exp(R^2/3)", "1"])
    @pytest.mark.parametrize("tau", [0.7, 1.3, 1.6])
    def test_period_independent_of_the_splitting(self, c, a, tau):
        spl = su2_splitting(a)
        other = [[f"{spl[i][j]} + x{i + 1}*({c[j]})" for j in range(3)] for i in range(3)]
        base = monodromy.curvature_periods(su2_scaled(a), spl, tau).integral
        moved = monodromy.curvature_periods(su2_scaled(a), other, tau).integral
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))

    def test_one_compile_per_call(self, monkeypatch):
        p = su2_scaled("1 + R^2")
        p.pi_many(np.zeros((1, 3)))  # the structure compiles its own evaluator once
        compile_vec, calls = expr.compile_exprs_vec, []
        monkeypatch.setattr(expr, "compile_exprs_vec",
                            lambda *a, **k: calls.append(a) or compile_vec(*a, **k))
        monodromy.curvature_periods(p, su2_splitting("1 + R^2"), 1.0)
        assert len(calls) == 1

    def test_dimension_and_radius_guards(self):
        with pytest.raises(ValidationError):
            monodromy.curvature_periods(symplectic_plane(), [["0", "0"]] * 2, 1.0)
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="positive and finite"):
                monodromy.curvature_periods(su2(), su2_splitting(), tau)


def _curvature_case(a):
    return (su2(), su2_splitting()) if a == "su2" else (su2_scaled(a), su2_splitting(a))


def _outcome(route, structure, splitting, tau):
    """Bits of (integral, center_residual, splitting_residual), or the class
    and message of the error the route raised."""
    try:
        res = route(structure, splitting, tau)
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in (res.integral, res.center_residual, res.splitting_residual)]


# 123 theta rows of 601 nodes: blocks of 9 to 14 rows, the last one short
SHORT_BLOCK_GRID = (122, 600)

# changes of the su2 splitting's diagonal on one side of the equator x3 = 0;
# sqrt(x3^2) + x3 is 2 x3 north of it and 0 south of it. The walk meets the
# north side first; the south changes reach only x3 < -0.9 tau or x3 < 0
NORTH_NOT_SPLITTING = (0, "(sqrt(x3^2) + x3)")
SOUTH_NOT_FINITE = (1, "(x1 - x1)*log(x3 + 0.9*R)")
# a splitting residual of 1e-10, but d_3 M_11 of 1e-4 sends Omega off the kernel
NORTH_TWISTED = (0, "1e-10*sin(1e6*x3)*(sqrt(x3^2) + x3)")
SOUTH_NOT_SPLITTING = (1, "(sqrt(x3^2) - x3)")


class TestCurvatureBlocks:
    """The block walk of curvature_periods against the whole-grid route."""

    @pytest.mark.parametrize("grid", [(200, 100), (60, 30), SHORT_BLOCK_GRID])
    @pytest.mark.parametrize("a", ["1+R^2", "exp(R^2/3)", "1", "su2"])
    def test_matches_the_whole_grid_route_bit_for_bit(self, a, grid, monkeypatch):
        monkeypatch.setitem(config.DEFAULTS, "area_grid", list(grid))
        s, spl = _curvature_case(a)
        for tau in (0.5, 0.7, 1.3, 1.6):
            got = _outcome(monodromy.curvature_periods, s, spl, tau)
            assert isinstance(got, list), got
            assert got == _outcome(oracles.curvature_whole_grid, s, spl, tau)

    @pytest.mark.parametrize("a", ["1+R^2", "exp(R^2/3)", "1", "su2"])
    def test_short_grid_ends_in_a_short_block(self, a):
        s, spl = _curvature_case(a)
        kernel = monodromy._curvature_kernel(s, monodromy._parse_splitting(spl, s))
        n_theta, n_phi = SHORT_BLOCK_GRID
        blocks = [range(n_theta + 1)[b] for b in
                  connection.theta_blocks(n_theta + 1, n_phi + 1, kernel.slots + 9)]
        assert len(blocks) > 1 and 0 < len(blocks[-1]) < len(blocks[0])

    @pytest.mark.parametrize("changes, error", [
        ((NORTH_NOT_SPLITTING,), (ValidationError, "not a splitting")),
        ((SOUTH_NOT_FINITE,), (NumericalError, "curvature is not finite")),
        ((NORTH_NOT_SPLITTING, SOUTH_NOT_FINITE), (NumericalError, "curvature is not finite")),
        ((NORTH_TWISTED,), (ValidationError, "not kernel-valued")),
        ((SOUTH_NOT_SPLITTING,), (ValidationError, "not a splitting")),
        ((NORTH_TWISTED, SOUTH_NOT_SPLITTING), (ValidationError, "not a splitting")),
    ])
    def test_errors_take_the_precedence_of_the_whole_grid_route(self, changes, error):
        spl = su2_splitting()
        for i, text in changes:
            spl[i][i] = text
        got = _outcome(monodromy.curvature_periods, su2(), spl, 1.0)
        assert got == _outcome(oracles.curvature_whole_grid, su2(), spl, 1.0)
        assert got[0] is error[0] and error[1] in got[1], got

    def test_a_nan_residual_in_a_late_block_wins(self):
        # Pi^12 is NaN where x3 < -0.9 tau, in the last blocks, while its
        # gradient, and so Omega, stays finite: only there is the residual NaN
        s = PoissonStructure(3, {(1, 2): "x3 + 1e-300*log(x3 + 0.9*R)", (1, 3): "-x2",
                                 (2, 3): "x1"})
        got = _outcome(monodromy.curvature_periods, s, su2_splitting(), 1.0)
        assert got == _outcome(oracles.curvature_whole_grid, s, su2_splitting(), 1.0)
        assert got == (NumericalError, "splitting residual is not finite on the leaf")

    def test_warm_call_stays_within_three_mib(self):
        # 9.75 MiB when every check ran on whole-grid arrays
        p, spl = su2_scaled("1 + R^2"), su2_splitting("1 + R^2")
        assert traced_peak_mib(lambda: monodromy.curvature_periods(p, spl, 0.7)) <= 3.0


class TestCurvatureKernelCache:
    @pytest.fixture
    def p(self):
        p = su2_scaled("1 + R^2")
        p.pi_many(np.zeros((1, 3)))  # the structure compiles its own evaluator once
        return p

    @pytest.fixture
    def compiles(self, p, monkeypatch):
        compile_vec, calls = expr.compile_exprs_vec, []
        monkeypatch.setattr(expr, "compile_exprs_vec",
                            lambda *a, **k: calls.append(a) or compile_vec(*a, **k))
        return calls

    def test_an_equal_splitting_compiles_nothing(self, p, compiles):
        first = _outcome(monodromy.curvature_periods, p, su2_splitting("1 + R^2"), 0.7)
        assert len(compiles) == 1
        # freshly parsed from new strings, structurally equal
        again = _outcome(monodromy.curvature_periods, p, su2_splitting("1 + R^2"), 0.7)
        assert len(compiles) == 1
        assert again == first

    @pytest.mark.parametrize("change", [(0, 1, "x3/((1.0000000000000002 + R^2)*R^2)"),
                                        (0, 0, "-0")])
    def test_a_changed_splitting_compiles_once_more(self, p, compiles, change):
        spl = su2_splitting("1 + R^2")
        monodromy.curvature_periods(p, spl, 0.7)
        i, j, text = change
        spl[i][j] = text
        monodromy.curvature_periods(p, spl, 0.7)
        monodromy.curvature_periods(p, spl, 1.3)
        assert len(compiles) == 2

    def test_dropping_the_structure_drops_its_kernels(self):
        p = su2_scaled("1 + R^2")
        monodromy.RadialSphereFamily(p, grid=(40, 20)).row_data(0.7)
        monodromy.curvature_periods(p, su2_splitting("1 + R^2"), 0.7)
        # the structure's cache holds its sphere kernel and its curvature kernel
        (curvature,) = [key for key in p._evaluators if key[0] == "curvature"]
        kernels = [p._evaluators[key] for key in (("sphere", True), curvature)]
        refs = [weakref.ref(x) for x in (p, *kernels)]
        del p, kernels
        gc.collect()
        assert [r() for r in refs] == [None, None, None]


class TestGcd:
    def test_rational_pair(self):
        res = monodromy.gcd_analysis([FOUR_PI, 2 * FOUR_PI])
        assert not res.dense
        assert res.generator == pytest.approx(FOUR_PI, rel=1e-12)

    def test_triple_with_common_divisor(self):
        res = monodromy.gcd_analysis([6.0, 4.0, 10.0])
        assert res.generator == pytest.approx(2.0, rel=1e-12)

    def test_sqrt2_pair_is_dense(self):
        res = monodromy.gcd_analysis([FOUR_PI, math.sqrt(2.0) * FOUR_PI])
        assert res.dense
        assert math.isnan(res.generator)

    def test_single_value(self):
        res = monodromy.gcd_analysis([5.0])
        assert res.generator == 5.0 and not res.dense

    def test_empty_and_zero_inputs(self):
        assert monodromy.gcd_analysis([]).generator == math.inf
        assert monodromy.gcd_analysis([0.0, 0.0]).generator == math.inf

    def test_near_equal_values_merge(self):
        res = monodromy.gcd_analysis([FOUR_PI, FOUR_PI * (1 + 1e-12)])
        assert res.generator == pytest.approx(FOUR_PI, rel=1e-9)

    def test_relative_zero_dropped(self):
        res = monodromy.gcd_analysis([FOUR_PI, 1e-12])
        assert res.dropped == 1
        assert res.generator == pytest.approx(FOUR_PI, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_fails_closed(self, bad):
        with pytest.raises(NumericalError, match="not finite"):
            monodromy.gcd_analysis([bad, 1.0])

    def test_binary_scale_equivariance(self):
        vals = [6.0, 4.0, 10.0]
        base = monodromy.gcd_analysis(vals).generator
        for k in (-6, -2, 3, 9):
            lam = 2.0 ** k
            scaled = monodromy.gcd_analysis([lam * v for v in vals]).generator
            assert scaled == lam * base


class TestLattice:
    def test_generators_below_the_area_floor_are_removed(self):
        res = monodromy.lattice([FOUR_PI, 1e-9], 1.0)
        assert res.generator == FOUR_PI and res.dropped == 0

    def test_no_live_generator_is_the_trivial_lattice(self):
        res = monodromy.lattice([0.0], 25.0)
        assert res.generator == math.inf
        assert not res.dense and res.dropped == 0

    @pytest.mark.parametrize("gens, area", [([math.nan], 1.0), ([math.inf, 1.0], 1.0),
                                            ([1.0], math.nan)])
    def test_non_finite_input_fails_closed(self, gens, area):
        with pytest.raises(NumericalError, match="not finite"):
            monodromy.lattice(gens, area)


class TestFoliatedProduct:
    def test_reciprocal_invariant_rows(self):
        fam = monodromy.FoliatedSphereProduct(["1/tau"])
        area, deriv, gens = fam.row_data(0.5)
        assert area == pytest.approx(8 * math.pi, rel=1e-14)
        assert deriv == pytest.approx(-16 * math.pi, rel=1e-14)
        assert gens[0] == pytest.approx(16 * math.pi, rel=1e-14)

    def test_coordinate_spelling_also_works(self):
        fam = monodromy.FoliatedSphereProduct(["1/x1"])
        assert fam.row_data(2.0)[2][0] == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("sources", [
        ["1/x1"], ["tau*x1", "1 + tau"], ["sin(tau)*x1^2", "R^2 + tau"],
        ["exp(-tau/3)", "x1^1.5 + 2"], ["tau^2/x1", "atan(x1) + log(tau)"],
    ], ids=["x1", "product", "sin-radial", "exp-power", "quotient-log"])
    def test_rows_have_the_bits_of_the_substituted_invariants(self, sources):
        # tau and x1 name one coordinate: each row has the bits of the
        # invariants with tau replaced by x1, also where they mix spellings
        subs = [oracles.substitute(expr.as_expression(s, 1, symbols=("tau",)),
                                   sym_map={"tau": expr.Var(1)}) for s in sources]
        fam = monodromy.FoliatedSphereProduct(sources)
        for tau in (0.3, 1.0, 2.7, 11.0):
            fvals = [oracles.evaluate(e, (tau,)) for e in subs]
            dvals = [oracles.evaluate(expr.differentiate(e, 1), (tau,)) for e in subs]
            assert fam.row_data(tau) == (4.0 * math.pi * sum(fvals), 4.0 * math.pi * sum(dvals),
                                         tuple(abs(4.0 * math.pi * d) for d in dvals))

    def test_an_inf_intermediate_that_the_value_drops_passes(self):
        # the compiled evaluator checks values, not intermediates: 1/inf is
        # 0 here, where the tree walk refuses the product that overflows
        source = "tau + 1/(exp(700)*exp(700))"
        with pytest.raises(EvalDomainError, match="non-finite value"):
            oracles.evaluate(expr.parse(source, 1, symbols=("tau",)), (2.0,), {"tau": 2.0})
        fam = monodromy.FoliatedSphereProduct([source])
        assert fam.row_data(2.0) == (2.0 * FOUR_PI, FOUR_PI, (FOUR_PI,))
        # its derivative is where 1/inf meets inf, and gives NaN
        with pytest.raises(NumericalError, match="foliated invariants are not finite"):
            monodromy.FoliatedSphereProduct(["1/(exp(700*tau)*exp(700*tau))"]).row_data(1.0)

    def test_guards(self):
        with pytest.raises(ValidationError):
            monodromy.FoliatedSphereProduct([])
        with pytest.raises(ValidationError):
            monodromy.FoliatedSphereProduct(["tau"]).row_data(0.0)


class TestScan:
    def test_constant_scale_is_integrable_evidence(self):
        fam = monodromy.RadialSphereFamily(su2())
        res = monodromy.integrability_scan(fam, np.linspace(0.6, 1.4, 4))
        assert res.verdict == monodromy.VERDICT_OK
        for row in res.rows:
            assert row.r_value == pytest.approx(FOUR_PI, abs=1e-3)

    def test_hump_scale_flagged_non_integrable(self):
        fam = monodromy.RadialSphereFamily(su2_scaled("1 + R^2"), grid=(60, 30))
        res = monodromy.integrability_scan(fam, np.linspace(0.5, 1.5, 11))
        assert res.verdict == monodromy.VERDICT_BAD
        collapsing = [c for c in res.candidates if c.collapses]
        assert collapsing
        assert 0.9 < collapsing[0].tau < 1.1
        assert all(not r.dense for r in res.rows)

    def test_collapse_found_between_grid_samples(self):
        # no scan sample lands on the zero at tau=1, nor does the midpoint of
        # any bisection bracket (it lies 0.23 of a spacing past taus[4]); the
        # sign change of dA/dtau between the samples beside it is bisected
        # down to it
        fam = monodromy.RadialSphereFamily(su2_scaled("1 + R^2"), grid=(60, 30))
        taus = np.linspace(0.53, 1.53, 10)
        res = monodromy.integrability_scan(fam, taus)
        assert res.verdict == monodromy.VERDICT_BAD
        (c,) = res.candidates
        assert c.source == "sign" and c.collapses and c.value < res.threshold
        lo, hi = c.bracket
        assert taus[4] <= lo < hi <= taus[5] and c.tau in (lo, hi)
        assert abs(c.tau - 1.0) < 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_zero_at_a_golden_offset_between_samples(self, c, k):
        # a = 1 + c R^2 has its generator zero at R = 1/sqrt(c); put it at the
        # fraction frac(k * golden ratio) of the k-th spacing of 20 samples
        zero, step = 1.0 / math.sqrt(c), 0.15
        offset = (k * (1.0 + math.sqrt(5.0)) / 2.0) % 1.0
        lo = zero - (k - 1 + offset) * step
        fam = monodromy.RadialSphereFamily(su2_scaled(f"1 + {c!r}*R^2"), grid=(60, 30))
        res = monodromy.integrability_scan(fam, lo + step * np.arange(20))
        assert res.verdict == monodromy.VERDICT_BAD
        collapsing = [cand for cand in res.candidates if cand.collapses]
        assert collapsing and abs(collapsing[0].tau - zero) < 1e-3

    def test_sign_change_across_a_singular_radius_is_no_collapse(self):
        class Pole:
            def row_data(self, tau):
                g = 1.0 / (tau - 1.01)
                return FOUR_PI, g, (abs(g),)

        res = monodromy.integrability_scan(Pole(), np.linspace(0.5, 1.5, 11))
        (c,) = res.candidates
        assert c.source == "sign" and not c.collapses
        lo, hi = c.bracket
        assert lo < 1.01 < hi and hi - lo <= 1e-10 * hi
        assert c.value > 1e9 and res.verdict == monodromy.VERDICT_OK

    def test_double_zero_between_samples_collapses_through_a_minimum(self):
        # g = k (tau - c)^2 keeps its sign: the golden-section search of |g|
        # over the neighbours of the smallest row finds the zero
        zero = 1.0 + 0.1 * (math.sqrt(5.0) - 1.0) / 2.0

        class DoubleZero:
            def row_data(self, tau):
                g = 3.0 * (tau - zero) ** 2
                return 1.0, g, (g,)

        res = monodromy.integrability_scan(DoubleZero(), np.linspace(0.5, 1.5, 11))
        assert res.verdict == monodromy.VERDICT_BAD
        (c,) = res.candidates
        assert c.source == "minimum" and c.collapses and c.value <= 1e-8
        assert c.bracket[0] < c.tau < c.bracket[1] and abs(c.tau - zero) < 1e-4

    def test_incommensurable_invariants_dense(self):
        fam = monodromy.FoliatedSphereProduct(["tau", "sqrt(2)*tau"])
        res = monodromy.integrability_scan(fam, np.linspace(0.5, 2.0, 7))
        assert res.verdict == monodromy.VERDICT_BAD
        assert all(r.dense for r in res.rows)

    def test_reciprocal_invariant_integrable(self):
        fam = monodromy.FoliatedSphereProduct(["1/tau"])
        taus = np.linspace(0.2, 2.0, 10)
        res = monodromy.integrability_scan(fam, taus)
        assert res.verdict == monodromy.VERDICT_OK
        for row in res.rows:
            assert row.r_value == pytest.approx(FOUR_PI / row.tau**2, rel=1e-12)

    def test_positive_floor_below_threshold_inconclusive(self):
        # generator dips to 1e-4 but does not collapse: honest "don't know"
        b = 1e-4 / (4 * math.pi)
        fam = monodromy.FoliatedSphereProduct([f"{b!r}*tau + (tau - 1)^3/3"])
        res = monodromy.integrability_scan(fam, np.linspace(0.5, 1.5, 11))
        assert res.verdict == monodromy.VERDICT_OPEN
        assert res.candidates and not any(c.collapses for c in res.candidates)
        assert min(c.value for c in res.candidates) < res.threshold

    def test_non_finite_row_fails_closed(self):
        class NanDerivative:
            def row_data(self, tau):
                return FOUR_PI * tau, math.nan, (math.nan,)

        # a NaN generator must not pass as a trivial lattice
        with pytest.raises(NumericalError, match="not finite"):
            monodromy.integrability_scan(NanDerivative(), [0.5, 1.0, 1.5])

    @pytest.mark.parametrize("dip, refined", [(1e-12, False), (1e-6, True)])
    def test_only_dips_beyond_the_floor_are_refined(self, dip, refined):
        # a flat generator a hair low at tau = 1, inside the floor, is not a minimum;
        # a dip above the lattice floor 1e-8 * area still is, and its search
        # closes in on tau = 1 without a collapse
        class Flat:
            def row_data(self, tau):
                g = FOUR_PI * (1.0 - dip * (tau == 1.0))
                return FOUR_PI, g, (g,)

        res = monodromy.integrability_scan(Flat(), [0.5, 1.0, 1.5])
        assert res.verdict == monodromy.VERDICT_OK
        assert len(res.candidates) == refined
        for c in res.candidates:
            assert c.source == "minimum" and not c.collapses and c.tau == 1.0
            assert c.bracket[0] < 1.0 < c.bracket[1] and c.bracket[1] - c.bracket[0] <= 2e-10

    def test_needs_at_least_two_radii(self):
        with pytest.raises(ValidationError):
            monodromy.integrability_scan(
                monodromy.FoliatedSphereProduct(["tau"]), [1.0])

    def test_small_radius_guard(self):
        fam = monodromy.RadialSphereFamily(su2())
        for tau in (0.0, -0.5):
            with pytest.raises(ValidationError):
                fam.row_data(tau)
        # any positive radius gives a row: A = 4 pi tau, dA/dtau = 4 pi
        area, deriv, gens = fam.row_data(0.001)
        assert area == pytest.approx(FOUR_PI * 0.001, rel=1e-4)
        assert deriv == pytest.approx(FOUR_PI, rel=1e-4)


class TestSigmaSphereFamily:
    """User-supplied leaf charts sigma(tau, theta, phi)."""

    def test_round_chart_matches_builtin_area(self):
        s = su2()
        fam = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0))
        ref = connection._sphere_area_once(monodromy.RadialSphereFamily(s), 1.0, fam.grid)
        got = connection._sphere_area_once(fam, 1.0, fam.grid)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_angle_reparametrization_is_invariant(self):
        # same spheres traced with a theta-dependent twist in phi
        sheared = ("tau*sin(theta)*cos(phi + theta)",
                   "tau*sin(theta)*sin(phi + theta)",
                   "tau*cos(theta)")
        s = su2()
        a = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0)).area(1.3)
        b = monodromy.SigmaSphereFamily(s, sheared, (0.2, 3.0)).area(1.3)
        assert b == pytest.approx(a, rel=1e-9)

    def test_row_data_matches_radial_family(self):
        s = su2_scaled("1 + R^2")
        fam = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0))
        radial = monodromy.RadialSphereFamily(s)
        area, deriv, gens = fam.row_data(1.4)
        r_area, r_deriv, _ = radial.row_data(1.4)
        assert area == pytest.approx(r_area, rel=1e-9)
        assert deriv == pytest.approx(r_deriv, rel=1e-5)
        assert gens == (abs(deriv),)

    @pytest.mark.parametrize("tau", [0.2, 3.0])
    def test_one_sided_rows_at_range_ends(self, tau):
        # rows at both ends of tau_range use no radius outside it
        fam = monodromy.SigmaSphereFamily(su2(), ROUND_CHART, (0.2, 3.0))
        area, deriv, _ = fam.row_data(tau)
        # symplectic area of the radius-tau leaf is 4*pi*tau for this scaling
        assert area == pytest.approx(FOUR_PI * tau, rel=1e-4)
        assert deriv == pytest.approx(FOUR_PI, rel=1e-3)

    def test_scan_over_chart_family(self):
        fam = monodromy.SigmaSphereFamily(
            su2(), ROUND_CHART, (0.8, 1.2), grid=(120, 60))
        res = monodromy.integrability_scan(fam, [0.8, 1.0, 1.2])
        assert res.verdict == monodromy.VERDICT_OK
        for row in res.rows:
            assert row.r_value == pytest.approx(FOUR_PI, abs=2e-3)

    def test_rejects_tau_outside_range(self):
        fam = monodromy.SigmaSphereFamily(su2(), ROUND_CHART, (0.5, 2.0))
        with pytest.raises(ValidationError):
            fam.area(0.4)
        with pytest.raises(ValidationError):
            fam.row_data(2.1)

    def test_rejects_non_leaf_chart(self):
        # ellipsoids are not symplectic leaves of the sphere foliation
        squashed = ("tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)",
                    "2*tau*cos(theta)")
        fam = monodromy.SigmaSphereFamily(su2(), squashed, (0.5, 2.0))
        with pytest.raises(ValidationError):
            fam.area(1.0)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            monodromy.SigmaSphereFamily(su2(), ROUND_CHART[:2], (0.5, 2.0))
        with pytest.raises(ValidationError):
            monodromy.SigmaSphereFamily(su2(), ROUND_CHART, (2.0, 0.5))
        with pytest.raises(ValidationError):
            monodromy.SigmaSphereFamily(symplectic_plane(), ROUND_CHART[:2] + ("0",),
                                        (0.5, 2.0))
