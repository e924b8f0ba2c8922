import math

import numpy as np
import pytest

from helpers import su2, su2_scaled, su2_splitting, symplectic_plane
from poispath import connection, monodromy
from poispath.errors import NumericalError, ValidationError

FOUR_PI = 4 * math.pi


class TestCurvature:
    def test_round_sphere_periods(self):
        res = monodromy.curvature_periods(su2(), su2_splitting(), 1.0)
        assert res.integral == pytest.approx(FOUR_PI, abs=1e-3)
        np.testing.assert_allclose(res.xi, [res.integral, 0.0, 0.0], atol=1e-15)
        assert res.center_residual < 1e-12
        assert res.splitting_residual < 1e-12

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_agrees_with_area_variation(self, tau):
        p = su2_scaled("1 + R^2")
        curv = monodromy.curvature_periods(p, su2_splitting("1 + R^2"), tau)
        var = connection.area_variation(p, tau)
        assert curv.integral == pytest.approx(var.derivative, rel=1e-3)
        np.testing.assert_allclose(curv.xi, var.xi, rtol=1e-3, atol=1e-9)

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

    def test_dimension_and_radius_guards(self):
        with pytest.raises(ValidationError):
            monodromy.curvature_periods(symplectic_plane(), [["0", "0"]] * 2, 1.0)
        with pytest.raises(ValidationError):
            monodromy.curvature_periods(su2(), su2_splitting(), -1.0)


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
        assert res.used == (FOUR_PI,)

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
        # no scan sample lands on the zero at tau=1; the refinement must
        # chase it by re-centering, not just shrink around the candidate
        fam = monodromy.RadialSphereFamily(su2_scaled("1 + R^2"), grid=(60, 30))
        res = monodromy.integrability_scan(fam, np.linspace(0.5, 1.5, 10))
        assert res.verdict == monodromy.VERDICT_BAD
        collapsing = [c for c in res.candidates if c.collapses]
        assert collapsing and 0.9 < collapsing[0].tau < 1.1
        m = collapsing[0].round_minima
        assert all(m[k + 1] <= 0.5 * m[k] for k in range(len(m) - 1))

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
        assert res.finite_minimum() < res.threshold

    def test_non_finite_row_fails_closed(self):
        class NanDerivative:
            def row_data(self, tau):
                return FOUR_PI * tau, math.nan, (math.nan,)

            def minimum_radius(self):
                return 0.0

        # a NaN generator must not pass as a trivial lattice
        with pytest.raises(NumericalError, match="not finite"):
            monodromy.integrability_scan(NanDerivative(), [0.5, 1.0, 1.5])

    def test_needs_at_least_two_radii(self):
        with pytest.raises(ValidationError):
            monodromy.integrability_scan(
                monodromy.FoliatedSphereProduct(["tau"]), [1.0])

    def test_small_radius_guard(self):
        fam = monodromy.RadialSphereFamily(su2())
        with pytest.raises(ValidationError):
            fam.row_data(0.001)


ROUND_CHART = ("tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)", "tau*cos(theta)")


class TestSigmaSphereFamily:
    """User-supplied leaf charts sigma(tau, theta, phi)."""

    def test_round_chart_matches_builtin_area(self):
        s = su2()
        fam = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0))
        ref = connection.sphere_area(s, 1.0, check=False)
        assert fam.area(1.0) == pytest.approx(ref, rel=1e-12)

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
        # stencil nodes must stay inside tau_range at both ends
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
