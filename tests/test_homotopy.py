"""Path families, variation fields, the invariance identity, action flow."""

import dataclasses
import functools
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import helpers
import oracles
from helpers import seeded_family, seeded_fields
from poispath import expr, homotopy, registry
from poispath.core import PoissonStructure
from poispath.errors import ParseError, NumericalError, ValidationError
from poispath.homotopy import (PathFamily, flow_by_action, invariance_report, is_homotopy,
                               solve_variation)
from poispath.paths import differentiate_samples, field_integral, integrate_base, path_defect

# right-translated derivative of exp(t E3) exp(eps t (1-t) E1) on the
# rotation algebra; the group endpoint exp(E3) does not depend on eps
GROUP_GENERATOR = ("eps*(1-2*t)*cos(t)", "eps*(1-2*t)*sin(t)", "1")

# endpoint curve magnitude when the coupling order in the variation
# equation is deliberately reversed (the sign-discrimination value)
FLIPPED_GROUP_VARIATION = 0.30116867893927324


@pytest.fixture(scope="module")
def su2():
    return helpers.su2()


@pytest.fixture(scope="module")
def group_family(su2):
    return PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0)).solve()


@pytest.fixture(scope="module")
def reparam_family(su2):
    # a_eps(t) = tau'(t) a(tau(t)) for tau = t + eps t(1-t): a classic
    # homotopy with both endpoints pinned
    return PathFamily(su2, ("0", "0", "1 + eps*(1 - 2*t)"), (1.0, 0.0, 0.0))


class TestPathFamily:
    def test_grids_and_solved_arrays(self, group_family):
        fam = group_family
        assert fam.eps.shape == (41,)
        assert fam.t.shape == (1001,)
        assert fam.gamma.shape == (41, 1001, 3)
        assert fam.transport_knots().shape == (41, 501, 3)
        assert fam.variation_field(1.0).shape == (41, 3)
        assert fam.variation_field(1.0, fine=True).shape == (81, 3)
        covectors = [fam.covectors(m) for m in range(len(fam.eps))]
        assert covectors[0].shape == (1001, 3)
        # the whole family sits on the zero-dimensional leaf
        assert np.max(np.abs(fam.gamma)) == 0.0
        assert max(path_defect(fam.structure, fam.t, g, a)
                   for g, a in zip(fam.gamma, covectors)) <= 1e-12

    def test_start_point_expressions(self, su2):
        fam = PathFamily(su2, ("0", "0", "1"), ("cos(eps)", "sin(eps)", "0"),
                         eps_range=(0.0, 0.5), eps_intervals=8, t_intervals=100)
        pts = fam.start_points(fam.eps)
        np.testing.assert_allclose(pts[:, 0], np.cos(fam.eps), rtol=0, atol=1e-15)
        np.testing.assert_allclose(pts[:, 1], np.sin(fam.eps), rtol=0, atol=1e-15)
        fam.solve()
        np.testing.assert_allclose(fam.gamma[:, 0], pts, rtol=0, atol=0)

    def test_component_count_checked(self, su2):
        with pytest.raises(ValidationError, match="components"):
            PathFamily(su2, ("0", "1"), (1.0, 0.0, 0.0))

    def test_eps_range_checked(self, su2):
        with pytest.raises(ValidationError, match="eps range"):
            PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0), eps_range=(1.0, 1.0))

    def test_interval_parity_checked(self, su2):
        with pytest.raises(ValidationError, match="eps interval"):
            PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0), eps_intervals=9)

    @pytest.mark.parametrize("key, value, message", [
        ("eps_intervals", 9, "eps interval count must be even and at least 8, got 9"),
        ("t_intervals", 6, "t interval count must be even and at least 8, got 6"),
    ])
    def test_interval_messages_name_the_grid(self, su2, key, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0), **{key: value})

    def test_sample_level_families_rejected(self, su2):
        samples = np.zeros(11)
        with pytest.raises(ParseError):
            PathFamily(su2, (samples, samples, samples), (0.0, 0.0, 0.0))

    def test_from_dict(self, su2):
        fam = PathFamily.from_dict(su2, {
            "generator": ["0", "0", "1"],
            "x0": [1.0, 0.0, 0.0],
            "eps_grid": 17,
            "t_grid": 201,
            "eps_range": [0.0, 0.5],
        })
        assert fam.eps_intervals == 16
        assert fam.t_intervals == 200
        assert fam.eps_range == (0.0, 0.5)
        with pytest.raises(ValidationError, match="missing"):
            PathFamily.from_dict(su2, {"x0": [0, 0, 0]})

    def test_slice_path(self, su2):
        fam = PathFamily(su2, ("0", "0", "1"), (1.0, 0.0, 0.0),
                         eps_intervals=8, t_intervals=200)
        path = fam.slice_path(3)
        np.testing.assert_array_equal(path.start, [1.0, 0.0, 0.0])
        assert path.defect <= 1e-8
        # the eps-independent generator drives every slice along the equator
        assert path.end[0] == pytest.approx(np.cos(1.0), abs=1e-8)


class TestVariation:
    def test_eps_independent_family(self, su2):
        fam = PathFamily(su2, ("sin(t)", "0.3", "1"), (1.0, 0.0, 0.0),
                         t_intervals=400, eps_intervals=8)
        result = solve_variation(fam, check_resolution=False)
        # the family keeps the pinned field's endpoint curve only; the whole
        # field is the reference's, which has the endpoint curve's bits
        b = oracles.variation_reference(fam, signs=(1.0,))[3][1.0][0]
        _same_bits(result.var, b[:, -1])
        assert np.max(np.abs(b)) <= 1e-12
        assert result.max_variation <= 1e-12
        assert bool(is_homotopy(fam))

    def test_zero_structure_var_is_mean_derivative(self):
        z3 = PoissonStructure(3, {})
        fam = PathFamily(z3, ("eps^2*t", "sin(eps)*t^2", "cos(2*t)*eps^3"),
                         (0.2, 0.0, 0.0))
        result = solve_variation(fam, check_resolution=False)
        expected = np.stack([fam.eps, np.cos(fam.eps) / 3.0,
                             1.5 * fam.eps ** 2 * np.sin(2.0)], axis=1)
        np.testing.assert_allclose(result.var, expected, rtol=0, atol=1e-9)

    def test_group_family_pinned_variation_vanishes(self, group_family):
        result = solve_variation(group_family)
        assert result.max_variation <= 1e-10
        assert not result.grid_coarse
        # the whole pinned field is the reference's, whose endpoint curve
        # has the family's bits
        b = _solve_once_reference("su2-group")[3][1.0][0]
        _same_bits(result.var, b[:, -1])
        assert np.max(np.abs(b[:, 0])) == 0.0

    def test_group_family_flipped_variation_large(self, group_family):
        result = solve_variation(group_family, order="flipped",
                                 check_resolution=False)
        assert result.max_variation == pytest.approx(FLIPPED_GROUP_VARIATION,
                                                     rel=1e-9)
        assert result.max_variation >= 1e-2

    def test_group_endpoints_fixed_in_the_group(self, group_family):
        # cross-check through the matrix integrator: the family came from
        # group paths with endpoint exp(E3) for every eps
        basis = helpers.su2_matrix_basis()
        ref = expm(basis[2])
        t = group_family.t
        for m in (0, 10, 25, 40):
            e = group_family.eps[m]
            coeffs = np.stack([e * (1 - 2 * t) * np.cos(t),
                               e * (1 - 2 * t) * np.sin(t),
                               np.ones_like(t)], axis=1)
            g = oracles.matrix_lie_path_reference(basis, coeffs, 1000)
            assert np.max(np.abs(g - ref)) <= 1e-9

    def test_order_name_checked(self, group_family):
        with pytest.raises(ValidationError, match="order"):
            solve_variation(group_family, order="sideways")

    def test_flipped_field_moves_the_base(self, su2):
        # the reversed coupling order is the transport field: its anchor
        # image reproduces d gamma / d eps across the family
        fam = PathFamily(su2, ("0.3*eps*(1-2*t) + 0.2*eps*x2",
                               "0.25*eps^2*sin(t)", "1 + 0.1*eps*x3"),
                         (1.0, 0.0, 0.0)).solve()
        knots = fam.transport_knots()
        dgamma = differentiate_samples(fam.gamma, fam.eps[1] - fam.eps[0])
        idx = np.arange(0, len(fam.t), 40)
        sharp = np.stack([su2.sharp_many(fam.gamma[:, i], knots[:, i // 2])
                          for i in idx], axis=1)
        assert np.max(np.abs(sharp - dgamma[:, idx])) <= 1e-9

    def test_chain_rule_in_eps(self, su2):
        # replacing eps by 2*eps doubles the variation at matching slices
        slow = PathFamily(su2, ("0.4*eps*(1-2*t)", "0.2*eps^2*sin(t)", "1"),
                          (1.0, 0.0, 0.0), t_intervals=400, eps_intervals=16)
        fast = PathFamily(su2, ("0.4*(2*eps)*(1-2*t)", "0.2*(2*eps)^2*sin(t)", "1"),
                          (1.0, 0.0, 0.0), eps_range=(0.0, 0.5),
                          t_intervals=400, eps_intervals=16)
        v_slow = solve_variation(slow, check_resolution=False).var
        v_fast = solve_variation(fast, check_resolution=False).var
        np.testing.assert_allclose(v_fast, 2.0 * v_slow, rtol=0, atol=1e-6)

    def test_coarse_eps_grid_flagged(self, su2):
        rough = PathFamily(su2, ("0.5*sin(12*eps)*(1-t)", "0", "1"),
                           (1.0, 0.0, 0.0), eps_intervals=8, t_intervals=400)
        result = solve_variation(rough)
        assert result.grid_coarse
        assert result.resolution_change > 0.10
        fine = PathFamily(su2, ("0.5*sin(12*eps)*(1-t)", "0", "1"),
                          (1.0, 0.0, 0.0), t_intervals=400)
        assert not solve_variation(fine).grid_coarse

    def test_resolution_check_optional(self, group_family):
        result = solve_variation(group_family, check_resolution=False)
        assert result.resolution_change == 0.0 and not result.grid_coarse

    def test_nan_resolution_change_flags_the_grid(self, su2, monkeypatch):
        # a NaN endpoint of the fine field makes the change NaN, which must
        # not read as "within 10%"
        fam = PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0),
                         eps_intervals=8, t_intervals=200)
        assert not solve_variation(fam).grid_coarse
        field = fam.variation_field

        def nan_fine(sign, fine=False):
            b = field(sign, fine).copy()
            if fine:
                b[3, 0] = np.nan
            return b

        monkeypatch.setattr(fam, "variation_field", nan_fine)
        result = solve_variation(fam)
        assert np.isnan(result.resolution_change)
        assert result.grid_coarse


class TestHomotopyDecision:
    def test_reparametrization_family(self, reparam_family):
        decision = is_homotopy(reparam_family)
        assert bool(decision)
        assert decision.reason == ""
        assert decision.max_variation <= 1e-12
        assert decision.end_spread <= 1e-12

    def test_moving_endpoints_reported(self, su2):
        fam = PathFamily(su2, ("0", "0", "1"), ("cos(eps)", "sin(eps)", "0"),
                         eps_range=(0.0, 0.5), t_intervals=200)
        decision = is_homotopy(fam)
        assert not decision
        assert decision.reason == "not a family with fixed endpoints"
        assert decision.start_spread > 0.1

    def test_nonzero_variation_reported(self):
        z3 = PoissonStructure(3, {})
        fam = PathFamily(z3, ("eps", "0", "0"), (0.0, 0.0, 0.0),
                         t_intervals=200)
        decision = is_homotopy(fam)
        assert not decision
        assert decision.reason == "variation nonzero"
        assert decision.start_spread <= 1e-15
        assert decision.max_variation == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _group_homotopy(su2):
        fam = PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0),
                         eps_intervals=8, t_intervals=200)
        assert is_homotopy(fam)
        return fam

    @pytest.mark.parametrize("node", [0, -1])
    def test_nan_endpoint_spread_is_not_fixed(self, su2, monkeypatch, node):
        # a NaN spread at either end, where max(0.0, nan) reads 0.0
        fam = self._group_homotopy(su2)
        gamma = fam.gamma.copy()
        gamma[5, node, 1] = np.nan
        monkeypatch.setattr(fam, "gamma", gamma)
        decision = is_homotopy(fam)
        assert not decision
        assert decision.reason == "not a family with fixed endpoints"

    def test_nan_variation_is_not_vanishing(self, su2, monkeypatch):
        fam = self._group_homotopy(su2)
        solve = homotopy.solve_variation
        monkeypatch.setattr(homotopy, "solve_variation", lambda family: dataclasses.replace(
            solve(family), max_variation=float("nan")))
        decision = is_homotopy(fam)
        assert not decision
        assert decision.reason == "variation nonzero"


class TestInvariance:
    def test_identity_on_seeded_families(self, su2):
        scaled = helpers.su2_scaled("1 + R^2")
        cases = ((su2, (1.0, 0.0, 0.0), 210), (scaled, (0.8, 0.3, -0.2), 1210))
        for structure, x0, seed in cases:
            fam = seeded_family(structure, seed, x0)
            for field in seeded_fields(structure, seed + 77):
                report = invariance_report(fam, field)
                assert report.residual <= 1e-7

    def test_poisson_field_bulk_vanishes(self, su2):
        fam = seeded_family(su2, 4242, (1.0, 0.0, 0.0))
        _, rotation, _ = seeded_fields(su2, 4242)
        report = invariance_report(fam, rotation)
        assert abs(report.bulk_term) <= 1e-9
        assert report.residual <= 1e-8

    def test_hamiltonian_field_on_fixed_endpoints(self, su2, reparam_family):
        field = su2.hamiltonian_field(expr.parse("x1 + 0.5*x2*x3", 3))
        report = invariance_report(reparam_family, field)
        assert abs(report.lhs) <= 1e-9
        assert report.residual <= 1e-9

    def test_all_terms_nonzero_yet_balanced(self, su2):
        fam = PathFamily(su2, ("0.3*eps*(1-2*t) + 0.2*eps*x2",
                               "0.25*eps^2*sin(t)", "1 + 0.1*eps*x3"),
                         (1.0, 0.0, 0.0))
        report = invariance_report(fam, ("0.4", "0.1*x1^2", "-0.3*x2"))
        assert abs(report.lhs) > 1e-3
        assert abs(report.endpoint_term) > 1e-3
        assert abs(report.bulk_term) > 1e-3
        assert report.residual <= 1e-9

    def test_residual_is_the_gap_between_the_sides(self, su2, reparam_family):
        report = invariance_report(reparam_family, ("1", "0", "0"))
        assert report.residual == abs(report.lhs - report.endpoint_term - report.bulk_term)
        assert report.residual <= 1e-9

    def test_field_component_count_checked(self, su2, reparam_family):
        with pytest.raises(ValidationError, match="components"):
            invariance_report(reparam_family, ("1", "0"))

    def test_non_finite_field_fails_closed(self, group_family):
        # the group family sits at the origin, where 1/x1 is infinite
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalError, match="vector field X is not finite"):
                invariance_report(group_family, ("1/x1", "0", "0"))

    def test_non_finite_density_fails_closed(self, group_family):
        # sqrt(x1) vanishes at the origin, its derivative does not exist there
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="density is not finite"):
                invariance_report(group_family, ("sqrt(x1)", "0", "0"))


def _same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _same_bits_but_nan_payloads(actual, expected):
    """NaN at the same places and every other entry byte-equal: numpy does
    not fix which NaN an operation on two NaNs returns."""
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


# fresh, unsolved families for the solve-once checks
SOLVE_ONCE_CASES = {
    "su2-group": lambda: PathFamily(helpers.su2(), GROUP_GENERATOR, (0.0, 0.0, 0.0)),
    "su2_scaled-drift": lambda: PathFamily(
        helpers.su2_scaled("1 + R^2"),
        ("0.2*eps*(1 - 2*t) + 0.1*eps*sin(t) + 0.3*eps*x1",
         "-0.25*eps*(1-2*t) + 0.1*eps^2*t*(1-t)", "1 + 0.15*eps*x3"),
        (0.8, 0.1, 0.3), t_intervals=400),
    # 250 time intervals leave a partial last block of dpi nodes
    "su3-partial-block": lambda: PathFamily(
        helpers.su3(),
        ["0.1*eps*(1-2*t) + 0.2*x2", "0.3*eps*t*(1-t)", "0.2*eps*sin(t)",
         "0.1", "-0.15*eps*x5", "0.05*eps", "0.1*x1", "1"],
        (0.3, 0.2, 0.1, 0.0, 0.4, 0.5, 0.1, 0.2), eps_intervals=16,
        t_intervals=250),
    # transcendental entries and generator
    "transcendental": lambda: PathFamily(
        helpers.su2_scaled("exp(-R^2/4) + sin(R)/3"),
        ("0.2*eps*(1 - 2*t) + 0.1*eps*sin(t)", "-0.25*eps*cos(t)",
         "1 + 0.15*eps*exp(x3)"),
        ("0.7", "0.1*cos(eps)", "0.3"), eps_intervals=16, t_intervals=200),
}

# families for the streamed-base check: 1,000 t intervals leave a last block
# of 8 steps
STREAM_CASES = {
    "su2_scaled-1000": lambda: PathFamily(
        helpers.su2_scaled("1 + R^2"), SOLVE_ONCE_CASES["su2_scaled-drift"]().generator,
        (0.8, 0.1, 0.3), eps_intervals=8, t_intervals=1000),
    "su3-partial-block": SOLVE_ONCE_CASES["su3-partial-block"],
    "transcendental": SOLVE_ONCE_CASES["transcendental"],
}


@functools.cache
def _solve_once_reference(case):
    """oracles.variation_reference of a fresh family of the case."""
    return oracles.variation_reference(SOLVE_ONCE_CASES[case]())


class TestSolveOnce:
    def test_partial_block_is_covered(self):
        assert homotopy._DPI_BLOCK % 2 == 0
        assert 250 % homotopy._DPI_BLOCK != 0
        assert 250 % (homotopy._COVECTOR_BLOCKS * homotopy._DPI_BLOCK) != 0

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_streamed_blocks_match_the_reference(self, case):
        # every block of the streamed base, node 0 (carried over from the
        # block before) included, has the bits of the whole fine base
        fam = STREAM_CASES[case]()
        gamma_f = oracles.base_reference(fam, fam.eps_fine)[0]
        N, B = fam.t_intervals, homotopy._COVECTOR_BLOCKS * homotopy._DPI_BLOCK
        spans = []
        for lo, nodes in fam._base_blocks():
            spans.append((lo, nodes.shape[1] - 1))
            _same_bits(nodes.transpose(2, 1, 0), gamma_f[:, lo:lo + nodes.shape[1]])
        assert spans == [(lo, min(B, N - lo)) for lo in range(0, N, B)]
        assert spans[-1][1] < B

    @pytest.mark.parametrize("case", sorted(SOLVE_ONCE_CASES))
    def test_covectors_match_the_reference(self, case):
        # a is not kept: each coarse slice is evaluated on request, and the
        # pass keeps max |a|, over every coarse slice
        fam = SOLVE_ONCE_CASES[case]()
        a = _solve_once_reference(case)[1]
        for m in range(len(fam.eps)):
            _same_bits(fam.covectors(m), a[m])
        assert fam.covector_max == np.max(np.abs(a))

    @pytest.mark.parametrize("case", sorted(SOLVE_ONCE_CASES))
    def test_bitwise_equal_to_separate_solves(self, case):
        fam = SOLVE_ONCE_CASES[case]().solve()
        gamma, a, d_eps_a, fields = _solve_once_reference(case)
        _same_bits(fam.eps_fine[::2], fam.eps)
        _same_bits(fam.gamma, gamma)
        # the coarse flipped field is kept on its knots, the endpoint curve
        # being the last one
        _same_bits(fam.transport_knots(), fields[-1.0][0])
        # solve() solves three fields in one pass; the fine flipped one is
        # solved in a pass of its own, with the same bits
        for order in ("pinned", "flipped"):
            sign = 1.0 if order == "pinned" else -1.0
            b, b_fine, change = fields[sign]
            result = solve_variation(fam, order=order)
            _same_bits(result.eps, fam.eps)
            _same_bits(result.var, b[:, -1])
            _same_bits(fam.variation_field(sign), b[:, -1])
            # the fine field is solved as its endpoint curve only
            _same_bits(fam.variation_field(sign, fine=True), b_fine[:, -1])
            assert result.resolution_change == change
        assert np.max(np.abs(fields[-1.0][0])) > 0.0

    @pytest.mark.parametrize("case", sorted(SOLVE_ONCE_CASES))
    def test_invariance_report_matches_the_reference(self, case):
        # the report fills the midpoints between the flipped knots slice by
        # slice; the reference interpolates the separately solved knots with
        # scipy's CubicHermiteSpline over all slices at once, which rounds
        # the midpoints differently (by about 1e-17)
        fam = SOLVE_ONCE_CASES[case]()
        gamma, a, d_eps_a, fields = _solve_once_reference(case)
        n = fam.structure.dim
        field = [f"0.3 + 0.1*x{(k + 1) % n + 1}^2 - 0.2*x{k + 1}" for k in range(n)]
        report = invariance_report(fam, field)
        want = oracles.invariance_reference(fam.structure, fam.t, fam.eps, gamma, a, d_eps_a,
                                            fields[-1.0][0], field)
        for name in ("lhs", "endpoint_term", "max_transport_endpoint"):
            assert getattr(report, name) == getattr(want, name)
        scale = 1e-12 * max(abs(report.lhs), abs(report.endpoint_term), abs(report.bulk_term))
        assert abs(report.bulk_term - want.bulk_term) <= scale
        assert abs(report.residual - want.residual) <= scale
        assert abs(report.bulk_term) > 0.0

    @pytest.mark.parametrize("pi", [{(1, 2): "1"}, {(1, 2): "x3"}],
                             ids=["constant", "heisenberg"])
    def test_non_finite_generator_on_an_unread_component_fails_closed(self, pi):
        # Pi reads only a1 and a2; the pole of a3 at t = 0.5 must still stop
        # the solve, as it does through sharp_many's 0 * inf: the stage
        # kernel keeps 0.0 * a3 in its first component for it
        S = PoissonStructure(3, pi)
        fam = PathFamily(S, ("0.1*eps", "0.2", "1/(t - 0.5)"), (0.0, 0.0, 0.0),
                         t_intervals=10, eps_intervals=8)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="family base integration produced non-finite values"):
            fam.solve()

    def test_diverging_base_fails_closed_without_warnings(self):
        fam = PathFamily(helpers.su2_scaled("1"), ("x2*x3*1e3", "x1*x3*1e3", "x1^3*1e3"),
                         ("1", "2", "3+eps"), t_intervals=8, eps_intervals=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="family base integration"):
                fam.solve()

    def test_a_diverging_field_does_not_fail_its_batch(self):
        # d_1 Pi^(12) a_2 = 1000: the flipped field grows like exp(1000 t)
        # and overflows, the pinned one decays; the pinned request solves
        # both in one pass and must neither fail nor warn
        S = PoissonStructure(2, {(1, 2): "x1"})
        fam = PathFamily(S, ("eps", "1000"), (0.0, 0.0), eps_intervals=8)
        result = solve_variation(fam)
        assert result.max_variation == pytest.approx(1e-3, rel=1e-6)
        for fine in (False, True):
            with pytest.raises(NumericalError, match="variation equation"):
                fam.variation_field(-1.0, fine=fine)

    def test_fine_d_eps_by_block_has_the_bits_of_the_whole_array(self, monkeypatch):
        # the pass takes each grid's da/deps once per covector block, from
        # a evaluated at the block's points on the fine grid; every row of
        # the stencil, the end rows too, is elementwise over the t nodes
        fam = SOLVE_ONCE_CASES["su2_scaled-drift"]()
        pieces, differentiate = [], homotopy.differentiate_samples

        def spied(y, h):
            d = differentiate(y, h)
            pieces.append(d.copy())
            return d

        monkeypatch.setattr(homotopy, "differentiate_samples", spied)
        fam.solve()
        whole = {len(eps): oracles.base_reference(fam, eps)[2]
                 for eps in (fam.eps, fam.eps_fine)}
        N, B = fam.t_intervals, homotopy._COVECTOR_BLOCKS * homotopy._DPI_BLOCK
        spans = [slice(start, min(start + B, N) + 1) for start in range(0, N, B)]
        taken = {size: 0 for size in whole}
        for piece in pieces:
            span = spans[taken[len(piece)]]
            taken[len(piece)] += 1
            _same_bits(piece, whole[len(piece)][:, span])
        # one piece per grid and block
        assert taken == {size: len(spans) for size in whole}

    @pytest.mark.parametrize("case", ["su2_scaled-drift", "su3-partial-block"])
    def test_d_eps_rows_of_the_report_have_the_bits_of_the_whole_array(self, case, monkeypatch):
        # invariance_report takes da/deps one slice at a time, at the knots,
        # through paths.derivative_row
        fam = SOLVE_ONCE_CASES[case]().solve()
        whole = _solve_once_reference(case)[2]
        rows, derivative_row = [], homotopy.derivative_row

        def spied(y, i, h):
            rows.append(derivative_row(y, i, h))
            return rows[-1]

        monkeypatch.setattr(homotopy, "derivative_row", spied)
        invariance_report(fam, ["1"] * fam.structure.dim)
        assert len(rows) == len(fam.eps)
        for m, row in enumerate(rows):
            _same_bits(row, whole[m, ::2])

    @pytest.mark.parametrize("case", ["su2_scaled-drift", "su3-partial-block"])
    def test_per_slice_integrals_have_the_bits_of_the_whole_array(self, case, monkeypatch):
        # the report integrates over t one slice at a time: the line
        # integrands of the first and last slices and each slice's density;
        # Simpson's rule over a (slices, nodes) array has the same bits row
        # by row
        fam = SOLVE_ONCE_CASES[case]().solve()
        calls, simpson = [], homotopy.simpson

        def spied(y, x, axis=-1):
            value = simpson(y, x, axis)
            if len(x) == len(fam.t):
                calls.append((np.array(y), value))
            return value

        monkeypatch.setattr(homotopy, "simpson", spied)
        n = fam.structure.dim
        invariance_report(fam, [f"0.3 + 0.1*x{(k + 1) % n + 1}^2 - 0.2*x{k + 1}"
                                for k in range(n)])
        assert len(calls) == len(fam.eps) + 2
        assert all(y.shape == fam.t.shape for y, _ in calls)
        whole = simpson(np.stack([y for y, _ in calls]), fam.t, axis=1)
        _same_bits(whole, np.array([value for _, value in calls]))

    def test_a_base_non_finite_in_a_middle_block_fails_closed(self):
        # the pole at t = 0.5 is in the fourth block of 32 steps: the three
        # before it stream, and the solve raises the whole solve's message
        # without warnings, keeping nothing
        fam = PathFamily(helpers.su2(), ("0.1*eps", "0.2*x3", "1/(t - 0.5)"),
                         (1.0, 0.0, 0.0), t_intervals=200, eps_intervals=8)
        message = "^family base integration produced non-finite values$"
        streamed = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                for lo, _ in fam._base_blocks():
                    streamed.append(lo)
            assert streamed == [0, 32, 64]
            for _ in range(2):
                with pytest.raises(NumericalError, match=message):
                    fam.solve()
                assert fam.gamma is None and fam._fields == {}

    @pytest.mark.parametrize("case", ["su2_scaled-drift", "su3-partial-block"])
    def test_a_later_lone_field_matches_the_reference(self, case):
        # solve() solves three fields in one pass; the fine flipped one is
        # solved alone afterwards, over a base streamed again
        fam = SOLVE_ONCE_CASES[case]()
        solve_variation(fam)
        assert (True, -1.0) not in fam._fields
        gamma_f, a_f, d_eps_a_f = oracles.base_reference(fam, fam.eps_fine)
        want = oracles.variation_field_reference(fam.structure, fam.t, gamma_f, a_f,
                                                 d_eps_a_f, -1.0)
        _same_bits(fam.variation_field(-1.0, fine=True), want[:, -1])

    def test_each_grid_and_sign_is_solved_once(self, su2, monkeypatch):
        streams, passes = [], []
        base_blocks, stream = PathFamily._base_blocks, homotopy._stream

        def counted_blocks(self, scratch=None):
            streams.append(len(self.eps_fine))
            return base_blocks(self, scratch)

        def counted_stream(family, parts, gamma=None):
            passes.append(list(parts))
            return stream(family, parts, gamma)

        monkeypatch.setattr(PathFamily, "_base_blocks", counted_blocks)
        monkeypatch.setattr(homotopy, "_stream", counted_stream)
        fam = PathFamily(su2, GROUP_GENERATOR, (0.0, 0.0, 0.0),
                         eps_intervals=8, t_intervals=200)
        is_homotopy(fam)
        solve_variation(fam)
        invariance_report(fam, ("0", "0", "0.5"))
        fam.slice_path(3)
        # the solve streams the base once, with the three fields of
        # `variation --X`
        first = [(False, -1.0), (False, 1.0), (True, 1.0)]
        assert [sorted(p) for p in passes] == [first]
        assert streams == [17]
        # the fine flipped field streams the base again, once
        for _ in range(2):
            solve_variation(fam, order="flipped")
            solve_variation(fam)
        assert streams == [17, 17]
        assert [sorted(p) for p in passes] == [first, [(True, -1.0)]]

    def test_three_fields_stay_within_the_memory_bound(self):
        # tracemalloc peak over the start while a default-grid family solves
        # the fields of `variation --X`: 14.7 MiB with three separate
        # solves, 14.0 MiB in one pass with a scipy spline per field, 26.2
        # MiB with one scipy spline over all rows, 13.1 MiB with the
        # in-house spline per field over slopes solved in one pass (12.14
        # MiB measured before the next change), 9.09 MiB with fields kept as
        # their knots, 5.45 MiB with the fused coupling-factor kernel and
        # da/deps per block in buffers allocated once per batch, 2.48 MiB
        # with 16-step factor blocks, fine fields kept as their endpoint
        # curves and the fine covectors evaluated per block (the bound was
        # 2.9 MiB). The fields are now solved in the pass that streams the
        # base, so the bound is on that pass's peak less the arrays the
        # family keeps (gamma, the transport knots and the endpoint curves):
        # 1.15 MiB, with 8-step factor blocks, 32-step covector blocks, one
        # scratch buffer and the fine base held one block at a time; the
        # bound is that plus about 15 %
        structure = helpers.su2_scaled("1 + R^2")
        generator = SOLVE_ONCE_CASES["su2_scaled-drift"]().generator
        unsolved = [PathFamily(structure, generator, (0.8, 0.1, 0.3)) for _ in range(2)]
        solved = []
        peak = helpers.traced_peak_mib(lambda: solved.append(unsolved.pop().solve()))
        fam = solved[-1]
        assert (len(fam.eps), len(fam.t)) == (41, 1001)
        kept = [fam.gamma, fam.transport_knots(), fam.variation_field(1.0),
                fam.variation_field(1.0, fine=True)]
        assert np.shares_memory(fam.variation_field(-1.0), fam.transport_knots())
        assert peak - sum(array.nbytes for array in kept) / 2 ** 20 <= 1.3

    def test_invariance_report_stays_within_the_memory_bound(self):
        # tracemalloc peak over the start of one report on a default-grid
        # family whose flipped field is cached: 5.76 MiB with a spline over
        # all slices, 12.38 MiB with Hermite knot slopes over all slices at
        # once, 5.27 MiB with them and the midpoints taken slice by slice,
        # 1.34 MiB with X, L_X Pi and b taken slice by slice too, 1.34 MiB
        # with da/deps taken slice by slice as well (the bound was 1.55
        # MiB), 0.67 MiB with a, the line integrand and the integrals over
        # t taken slice by slice too; the bound is that plus about 15 %
        structure = helpers.su2_scaled("1 + R^2")
        generator = SOLVE_ONCE_CASES["su2_scaled-drift"]().generator
        fam = PathFamily(structure, generator, (0.8, 0.1, 0.3)).solve()
        field = [f"0.3 + 0.1*x{(k + 1) % 3 + 1}^2 - 0.2*x{k + 1}" for k in range(3)]
        assert helpers.traced_peak_mib(lambda: invariance_report(fam, field)) <= 0.77

    def test_a_variation_op_stays_within_the_memory_bound(self):
        # tracemalloc peak over the start of the library calls of one
        # `poispath variation --X` on a default-grid family: the solve,
        # is_homotopy, solve_variation and invariance_report: 5.48 MiB when
        # the bound was set to 6.3 MiB, 5.20 MiB with one shape-independent
        # stencil, 2.62 MiB with the base streamed into the first variation
        # pass and the report streamed over the slices; the bound is that
        # plus about 15 %
        structure = helpers.su2_scaled("1 + R^2")
        generator = SOLVE_ONCE_CASES["su2_scaled-drift"]().generator
        field = [f"0.3 + 0.1*x{(k + 1) % 3 + 1}^2 - 0.2*x{k + 1}" for k in range(3)]

        def variation():
            fam = PathFamily(structure, generator, (0.8, 0.1, 0.3))
            is_homotopy(fam)
            solve_variation(fam)
            invariance_report(fam, field)

        assert helpers.traced_peak_mib(variation) <= 3.0

    def test_cached_arrays_are_read_only(self, group_family):
        result = solve_variation(group_family)
        cached = (group_family.t, group_family.eps, group_family.eps_fine,
                  group_family.gamma, group_family.transport_knots(),
                  group_family.variation_field(1.0),
                  group_family.variation_field(1.0, fine=True),
                  group_family.variation_field(-1.0))
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # what callers get besides the cached arrays are their own copies
        result.var[0] = 1.0
        path = group_family.slice_path(0)
        path.gamma[0] = 1.0
        path.a[0] = 1.0
        path.t[0] = 1.0
        a = group_family.covectors(0)
        a[0] = 1.0
        assert solve_variation(group_family).var[0, 0] != 1.0
        assert group_family.gamma[0, 0, 0] == 0.0
        assert group_family.t[0] == 0.0
        assert group_family.covectors(0)[0, 0] == 0.0


# a rational rotation, and the drift generator of the homotopy benchmark
_ROTATION = ((0.36, 0.48, -0.8), (-0.8, 0.6, 0.0), (0.48, 0.64, 0.6))
_DRIFT = ("0.21*eps*(1 - 2*t) + -0.13*eps*sin(t) + 0.3*eps^2*t*(1-t) + -0.07*eps*x1",
          "-0.3*eps*(1 - 2*t) + 0.05*eps*sin(t) + 0.11*eps^2*t*(1-t) + 0.2*eps*x2",
          "0.1*eps*(1 - 2*t) + 0.34*eps*sin(t) + -0.2*eps^2*t*(1-t) + 0.15*eps*x3 + 1")

# ufunc calls of one RK4 stage of the base solve (17, 24 and 35 before the
# signs were folded and the zero terms pruned)
STAGE_KERNEL_CASES = {
    "group": (lambda: registry.load("builtin:linear?preset=su2").structure,
              [" + ".join(f"({q!r})*({g})" for q, g in zip(row, GROUP_GENERATOR))
               for row in _ROTATION], 12),
    "su2-drift": (lambda: registry.load("builtin:linear?preset=su2").structure, _DRIFT, 19),
    "su2_scaled-drift": (
        lambda: registry.load("builtin:su2_scaled?a=1+0.532311*R^2").structure, _DRIFT, 29),
}

@st.composite
def _stage_case(draw):
    """A family on a structure of the stage-kernel property test: su2_scaled
    profiles, linear su2 and su3, and the Heisenberg structure, whose third
    covector component reaches no component of #alpha; start points with
    signed zeros, at the origin and on coordinate planes."""
    kind = draw(st.sampled_from(["su2_scaled", "su2", "su3", "heisenberg"]))
    if kind == "su2_scaled":
        c = draw(st.floats(0.1, 2.0))
        profile = draw(st.sampled_from([f"1 + {c!r}*R^2", f"exp(-R^2/{c!r})"]))
        structure = helpers.su2_scaled(profile)
    else:
        structure = {"su2": helpers.su2, "su3": helpers.su3,
                     "heisenberg": lambda: PoissonStructure(3, {(1, 2): "x3"})}[kind]()
    n = structure.dim
    coef = st.one_of(st.sampled_from([0.0, 1.0, -0.5]), st.floats(-1.0, 1.0))
    generator = []
    for i in range(1, n + 1):
        c = [draw(coef) for _ in range(4)]
        generator.append(f"{c[0]!r}*eps*(1 - 2*t) + {c[1]!r}*eps*sin(t)"
                         f" + {c[2]!r}*eps*x{i} + {c[3]!r}*x{i % n + 1}")
    generator[-1] += " + 1"
    zero = st.sampled_from([0.0, -0.0])
    x0 = draw(st.one_of(st.lists(zero, min_size=n, max_size=n),
                        st.lists(st.one_of(zero, st.floats(-1.0, 1.0)),
                                 min_size=n, max_size=n)))
    t_intervals = draw(st.sampled_from([8, 70]))
    return PathFamily(structure, generator, x0, eps_intervals=8, t_intervals=t_intervals)


class TestStageKernel:
    @pytest.mark.parametrize("case", sorted(STAGE_KERNEL_CASES))
    def test_kernel_shape_is_pinned(self, case):
        structure, generator, calls = STAGE_KERNEL_CASES[case]
        fam = PathFamily(structure(), generator, (0.6, -0.3, 0.5))
        source = fam._stage_fn.source
        assert helpers.ufunc_calls(source) == calls
        # a negated Pi entry is subtracted, never negated and multiplied
        assert "_negative" not in source

    def test_ufunc_calls_counts_every_ufunc_call(self):
        exprs = [expr.parse("-x1*(-1.5) + sin(x2)^2 - x1/x2", 2)]
        source = expr.compile_exprs_vec(exprs).source
        # neg, mul, sin, square, add, div, sub
        assert helpers.ufunc_calls(source) == 7
        # operators on arrays written inline, as in a tree walk's source
        inline = "def f(x):\n    return (-x[0] * (-1.5) + _f_sin(x[1]) ** 2.0 - x[0] / x[1],)\n"
        assert helpers.ufunc_calls(inline) == 7

    @pytest.mark.parametrize("text", [
        "-x1 + -x2", "-x1 - x2", "-x1 - -x2", "x1 + -x2", "-x1 + x2", "x1 - -x2",
        "(-x1)*x2", "-(x1*-x2)", "-x1/-x2", "(-x1 + x2)*-0.5", "-(-x1 + -x2)*x1"])
    def test_sign_folding_is_exact(self, text):
        # every sign of zero and infinity, against the expression as parsed
        e = expr.parse(text, 2)
        sign, m = homotopy._signed(e, {})
        folded = m if sign > 0 else expr.Neg(m)
        values = [0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, 1e308]
        x = np.array([[u, v] for u in values for v in values]).T
        with np.errstate(all="ignore"):
            want, got = (expr.compile_exprs_vec([f])(x) for f in (e, folded))
        _same_bits_but_nan_payloads(got, want)

    @settings(max_examples=40, deadline=None)
    @given(fam=_stage_case())
    def test_stage_kernel_matches_the_sharp_many_route(self, fam):
        gamma_f, a_f, _ = oracles.base_reference(fam, fam.eps_fine)
        for lo, nodes in fam._base_blocks():
            _same_bits(nodes.transpose(2, 1, 0), gamma_f[:, lo:lo + nodes.shape[1]])
        fam.solve()
        _same_bits(fam.gamma, gamma_f[::2])
        for m in range(len(fam.eps)):
            _same_bits(fam.covectors(m), a_f[2 * m])

    def test_solve_and_first_field_stay_within_the_memory_bound(self):
        # tracemalloc peak over the start of the base solve and the first
        # variation batch of a default-grid family: 20.59 MiB before the
        # stages wrote into rotating buffers, 20.58 MiB after, 15.67 MiB with
        # fields kept as their knots and the coarse base as views of the
        # fine, 10.15 MiB with the fused coupling-factor kernel and no fine
        # da/deps held, 5.48 MiB with 16-step factor blocks, fine fields
        # kept as their endpoint curves and no fine covectors or coarse
        # da/deps held (the bound was 6.3 MiB), 5.17 MiB with one
        # shape-independent stencil, 2.62 MiB with the base streamed into
        # the first variation pass and neither the fine base, nor a, nor the
        # pinned knots held; the bound is that plus about 15 %
        structure = helpers.su2_scaled("1 + R^2")
        generator = SOLVE_ONCE_CASES["su2_scaled-drift"]().generator

        def solve():
            PathFamily(structure, generator, (0.8, 0.1, 0.3)).solve().variation_field(1.0)

        assert helpers.traced_peak_mib(solve) <= 3.0


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                    st.floats(-4.0, 4.0), st.floats(allow_nan=False))


@st.composite
def _coupling_case(draw):
    n, rows = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    D = draw(arrays(float, (rows, n, n, n), elements=_ENTRIES))
    a, b = (draw(arrays(float, (rows, n), elements=_ENTRIES)) for _ in range(2))
    return D, a, b


@settings(max_examples=200, deadline=None)
@given(case=_coupling_case())
def test_block_contraction_matches_the_einsum_bit_for_bit(case):
    # the variation solve's product and ordered reduce against
    # coupling_many's einsum, fed the same gradients D; a numpy that
    # changed einsum's loop order would fail here
    D, a, b = case
    rows, n = a.shape
    with np.errstate(all="ignore"):
        want = PoissonStructure.coupling_many(SimpleNamespace(dpi_many=lambda xs: D),
                                              None, a, b)
        E = oracles.coupling_factor(D, a.T, np.arange(rows))
        got = homotopy._coupling(E, b.T, np.empty((n, n, n, rows)), np.empty((n, rows))).T
    _same_bits_but_nan_payloads(got, want)


# entries whose partials are finite, +-0.0 (a product with a zero
# coordinate, a constant entry and its negated partner), or inf and NaN
# (sqrt, log and a quotient at or below zero)
_FACTOR_ENTRIES = ("{u}*{v}", "-2.5*{u}*{v}", "sqrt({u})", "log({u}) + {v}", "{u}^2/{v}",
                   "3", "exp({u})*{v}")


@st.composite
def _factor_case(draw):
    """A random structure of dimension 1 to 4 with absent entries, fine-slice
    arrays (M, T, n) holding +-0.0, inf and NaN, rows and a span of t
    nodes."""
    n = draw(st.integers(1, 4))
    coord = st.integers(1, n).map(lambda k: f"x{k}")
    pi = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        entry = draw(st.one_of(st.none(), st.sampled_from(_FACTOR_ENTRIES)))
        if entry is not None:
            pi[(i, j)] = entry.format(u=draw(coord), v=draw(coord))
    M, T = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gamma_f, a_f = (draw(arrays(float, (M, T, n), elements=_ENTRIES)) for _ in range(2))
    rows = np.array(draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=2 * M)))
    lo = draw(st.integers(0, T - 1))
    return PoissonStructure(n, pi), gamma_f, a_f, rows, slice(lo, draw(st.integers(lo + 1, T)))


@settings(max_examples=200, deadline=None)
@given(case=_factor_case())
# a 0/0 partial (the default NaN, sign bit set) times a NaN covector entry:
# numpy's multiply does not fix which operand's NaN the product keeps
@example(case=(PoissonStructure(3, {(1, 2): "x1*x1", (1, 3): "x1^2/x1"}), np.zeros((2, 3, 3)),
               np.full((2, 3, 3), np.nan), np.array([0, 0, 0]), slice(0, 3)))
def test_fused_coupling_factor_matches_the_retired_route_bit_for_bit(case):
    # the kernel's E against dpi_many -> _fill -> moveaxis -> take -> E *= a;
    # the buffer starts full of NaN, so a row left unwritten would show as a
    # NaN where the reference has a number (NaN payloads are not compared)
    S, gamma_f, a_f, rows, span = case
    n, nodes = S.dim, gamma_f[0, span].shape[0]
    kernel = homotopy._coupling_kernel(S)
    cells = np.full((2 * n + kernel.slots) * nodes * len(rows), np.nan)
    with np.errstate(all="ignore"):
        got = np.stack(homotopy._block_factors(kernel, gamma_f[:, span].transpose(2, 1, 0),
                                               a_f[:, span].transpose(2, 1, 0), rows, cells))
        want = oracles.block_factors_reference(S, gamma_f, a_f, rows, span)
    _same_bits_but_nan_payloads(got, want)


@pytest.fixture(scope="module")
def circle(su2):
    return integrate_base(su2, ("0", "0", "1"), (1.0, 0.0, 0.0))


class TestActionFlow:
    def test_zero_eta_is_identity(self, circle):
        flowed = flow_by_action(circle, ("0", "0", "0"))
        np.testing.assert_array_equal(flowed.gamma, circle.gamma)
        np.testing.assert_array_equal(flowed.a, circle.a)

    def test_endpoints_pinned_exactly(self, circle):
        flowed = flow_by_action(circle, ("0.4*t*(1-t)", "0.3*t*(1-t)*x3", "0"))
        np.testing.assert_array_equal(flowed.start, circle.start)
        np.testing.assert_array_equal(flowed.end, circle.end)
        assert np.max(np.abs(flowed.gamma[500] - circle.gamma[500])) > 1e-4
        assert flowed.defect <= 1e-7

    def test_poisson_integral_preserved(self, circle):
        flowed = flow_by_action(circle, ("0.4*t*(1-t)", "0.3*t*(1-t)*x3", "0"))
        field = ("-0.2*x3 - 0.5*x2", "0.5*x1 - 0.3*x3", "0.3*x2 + 0.2*x1")
        before = field_integral(circle, field)
        after = field_integral(flowed, field)
        assert abs(after - before) <= 1e-8

    def test_euler_step_consistency(self, circle):
        eta = ("0.4*t*(1-t)", "0.3*t*(1-t)*x3", "0")
        one = flow_by_action(circle, eta, step=2e-4, count=25)
        two = flow_by_action(circle, eta, step=1e-4, count=50)
        assert np.max(np.abs(one.a - two.a)) <= 1e-7
        assert np.max(np.abs(one.gamma - two.gamma)) <= 1e-7

    def test_eta_must_vanish_at_time_endpoints(self, circle):
        with pytest.raises(ValidationError, match="vanish"):
            flow_by_action(circle, ("t", "0", "0"))

    def test_too_large_step_raises(self, circle):
        with pytest.raises(NumericalError, match="reduce the step"):
            flow_by_action(circle, ("40*t*(1-t)*x2", "30*t*(1-t)", "0"),
                           step=0.02, count=25)

    def test_component_count_checked(self, circle):
        with pytest.raises(ValidationError, match="components"):
            flow_by_action(circle, ("0", "0"))

    def test_non_finite_eta_fails_closed(self, circle):
        # the circle has x3 = 0, so sqrt(x3 - 5) is NaN everywhere, also
        # at the ends, where NaN > 1e-12 used to read as "vanishes"
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="eta is not finite"):
                flow_by_action(circle, ("t*(1-t)*sqrt(x3-5)", "0", "0"))
            # finite at the ends, infinite at the node t = 0.5
            with pytest.raises(NumericalError, match="non-finite values"):
                flow_by_action(circle, ("t*(1-t)/(t-0.5)", "0", "0"))
