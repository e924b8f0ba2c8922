import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import oracles
from helpers import su2, su2_scaled
from poispath import config, homotopy, paths, registry
from poispath.errors import NumericalError, ValidationError

# drift of the base curve for the rotation generator, frozen from the
# closed-form solution gamma(t) = (cos t, -sin t, 0)
CIRCLE_INTEGRAL_X1 = 0.45969769413186023  # = 1 - cos(1)


@pytest.fixture(scope="module")
def circle():
    return paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0), n_intervals=400)


class TestDerivativeStencils:
    def test_sixth_order_accuracy(self):
        t = np.linspace(0.0, 1.0, 101)
        y = np.sin(3.0 * t)[:, None]
        d = paths.differentiate_samples(y, t[1] - t[0])
        # one-sided edge stencils dominate; still far beyond 4th order
        assert np.max(np.abs(d[:, 0] - 3.0 * np.cos(3.0 * t))) < 1e-9

    def test_exact_on_degree_six_polynomial(self):
        t = np.linspace(0.0, 1.0, 41)
        y = (t**6 - 2 * t**3)[:, None]
        d = paths.differentiate_samples(y, t[1] - t[0])
        assert np.max(np.abs(d[:, 0] - (6 * t**5 - 6 * t**2))) < 1e-9

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            paths.differentiate_samples(np.zeros((5, 2)), 0.1)

    def test_cached_weights_are_the_solved_ones(self):
        # the end rows and the interior, each against a fresh weight solve,
        # its seven terms added in order to a 0.0 accumulator
        h = 0.05
        y = np.random.default_rng(4).normal(size=(12, 3))
        d = paths.differentiate_samples(y, h)
        for row, offsets in ((0, np.arange(7)), (1, np.arange(7) - 1), (2, np.arange(7) - 2),
                             (4, np.arange(-3, 4)), (9, np.arange(7) - 4),
                             (10, np.arange(7) - 5), (11, np.arange(7) - 6)):
            w, nodes = paths.fd_weights(offsets), y[row + offsets]
            want = 0.0
            for k in range(7):
                want = want + w[k] * nodes[k]
            assert d[row].tobytes() == (want / h).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(7, 40), trailing=st.lists(st.integers(1, 12), min_size=1, max_size=2),
           cut=st.tuples(st.integers(0, 11), st.integers(1, 12), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_a_slice_has_the_bits_of_the_whole_result(self, m, trailing, cut, seed):
        # every row is elementwise over the other axes, so differentiating a
        # slice of y along them, contiguous or not, gives the same bits as
        # slicing the whole result; the variation batch differentiates a
        # transposed block of t nodes
        rng = np.random.default_rng(seed)
        shape = (m, *trailing)
        y = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        s = slice(min(cut[0], trailing[0] - 1), cut[1], cut[2])
        h = float(rng.uniform(1e-3, 1.0))
        whole = paths.differentiate_samples(y, h)
        assert paths.differentiate_samples(y[:, s], h).tobytes() == whole[:, s].tobytes()
        # y's values with axis 0 the innermost in memory
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(y, 0, -1)), -1, 0)
        assert paths.differentiate_samples(view, h).tobytes() == whole.tobytes()
        assert paths.differentiate_samples(view[:, s], h).tobytes() == whole[:, s].tobytes()

    def test_a_row_has_the_bits_of_the_whole_result(self):
        # invariance_report takes da/deps one row at a time, at every other t
        rng = np.random.default_rng(7)
        base = rng.normal(size=(5, 23, 9)) * 10.0 ** rng.integers(-6, 7, size=(5, 23, 9))
        h = 0.03
        for y in (base.transpose(1, 2, 0), base.transpose(1, 0, 2)[:, ::2],
                  base[:, ::-2].transpose(1, 2, 0)[:, ::3], base[0, :, 4]):
            whole = paths.differentiate_samples(y, h)
            for i in range(len(y)):
                assert paths.derivative_row(y, i, h).tobytes() == whole[i].tobytes()


class TestIntegrateBase:
    def test_circle_solution(self, circle):
        t = circle.t
        want = np.stack([np.cos(t), -np.sin(t), np.zeros_like(t)], axis=1)
        assert np.max(np.abs(circle.gamma - want)) < 1e-8

    def test_defect_small_on_true_path(self, circle):
        assert circle.defect < 1e-6

    def test_defect_catches_wrong_base(self):
        p = su2()
        t = np.linspace(0.0, 1.0, 201)
        bad = np.stack([np.cos(2 * t), -np.sin(2 * t), np.zeros_like(t)], axis=1)
        a = np.tile([0.0, 0.0, 1.0], (201, 1))
        assert paths.path_defect(p, t, bad, a) > 0.5

    def test_overflowing_base_fails_closed_without_warnings(self):
        # the RK45 arithmetic overflows; numpy must stay quiet and the
        # finiteness gate on the samples must name the failure
        p = registry.load("builtin:symplectic").structure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^base integration produced non-finite values$"):
                paths.integrate_base(p, ("1.5e308", "0"), (0.0, 1e308), n_intervals=8)

    def test_an_overflowing_field_is_named_in_the_failure(self):
        # the field is inf at the start point, a finite state: the failure
        # names the overflow, its t and its state, not only the step size
        p = registry.load("builtin:symplectic").structure
        with pytest.raises(NumericalError) as info:
            paths.integrate_base(p, ("1e300*x2", "0"), (0.0, 1e300), n_intervals=1000)
        assert str(info.value) == ("base integration failed: right-hand side is not finite "
                                   "(inf) at t=0.0, y=[0.0, 1e+300]")

    def test_fixed_step_agrees_with_adaptive(self):
        # the family's fixed-step RK4 base (its eps-free slice) against RK45
        p = su2_scaled("1 + R^2")
        a = ("x2/4", "0", "1")
        ad = paths.integrate_base(p, a, (1.0, 0.0, 0.5), n_intervals=200)
        fx = homotopy.PathFamily(p, a, (1.0, 0.0, 0.5), eps_intervals=8,
                                 t_intervals=200).slice_path(0)
        assert np.max(np.abs(ad.gamma - fx.gamma)) < 1e-7

    def test_time_dependent_generator(self):
        # a = (0, 0, 2t) reparametrizes the circle: gamma(1) at angle 1
        path = paths.integrate_base(su2(), ("0", "0", "2*t"), (1.0, 0.0, 0.0),
                                    n_intervals=200)
        want = np.array([math.cos(1.0), -math.sin(1.0), 0.0])
        assert np.max(np.abs(path.end - want)) < 1e-8

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ValidationError,
                           match="^interval count must be even and at least 8, got 201$"):
            paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0), n_intervals=201)
        with pytest.raises(ValidationError,
                           match="^interval count must be even and at least 8, got 6$"):
            paths.constant_path(su2(), (1.0, 0.0, 0.0), n_intervals=6)

    def test_bad_start_shape(self):
        with pytest.raises(ValidationError):
            paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0))

    @pytest.mark.parametrize("x0", [(math.nan, 0.0, 0.0), (1.0, -math.inf, 0.0)])
    def test_non_finite_start_rejected(self, x0):
        # the values as a list, not through numpy's array printer
        message = f"start point must be finite, got {list(x0)}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            paths.integrate_base(su2(), ("0", "0", "1"), x0)

    @pytest.mark.parametrize("tols", [dict(atol=-1.0), dict(atol=0.0), dict(atol=math.inf),
                                      dict(atol=math.nan), dict(rtol=1e-20),
                                      dict(rtol=0.0), dict(rtol=math.nan),
                                      dict(rtol=math.inf)])
    def test_bad_tolerances_rejected(self, tols):
        with pytest.raises(ValidationError, match="ODE [ar]tol"):
            paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0), **tols)

    def test_smallest_accepted_rtol(self):
        path = paths.integrate_base(su2(), ("0", "0", "1"), (1.0, 0.0, 0.0),
                                    n_intervals=100, rtol=100 * np.finfo(float).eps,
                                    atol=1e-14)
        np.testing.assert_allclose(path.end, [math.cos(1.0), -math.sin(1.0), 0.0],
                                   atol=1e-12)


class TestRk4Step:
    def test_exact_for_a_cubic_in_time(self):
        # y' = t^3 from y(0) = 0: Simpson's rule, exact for cubics
        y = paths.rk4_step(lambda j, y: (0.5 * j) ** 3, 0.0, 1.0)
        assert y == 0.25

    def test_every_fixed_step_integrator_steps_through_it(self, monkeypatch):
        calls, step = [], paths.rk4_step

        def counted(rhs, y, h):
            calls.append(h)
            return step(rhs, y, h)

        for module in (paths, homotopy):
            monkeypatch.setattr(module, "rk4_step", counted)

        # the solve streams the base (200 steps of h) into the pass of its
        # variation fields (100 steps of 2h); the fine flipped field, not in
        # that pass, streams the base again in a pass of its own
        fam = homotopy.PathFamily(su2(), ("0.2*eps*x2", "0", "1"), (1.0, 0.0, 0.0),
                                  eps_intervals=8, t_intervals=200).solve()
        h = 1.0 / 200
        assert len(calls) == 300 and calls.count(h) == 200 and calls.count(2.0 * h) == 100
        calls.clear()
        fam.variation_field(1.0)
        assert calls == []
        fam.variation_field(-1.0, fine=True)
        assert len(calls) == 300 and calls.count(h) == 200 and calls.count(2.0 * h) == 100


class TestIntegrals:
    def test_circle_integral_frozen_value(self, circle):
        got = paths.path_integral(circle, "x1")
        assert got == pytest.approx(CIRCLE_INTEGRAL_X1, abs=1e-9)

    def test_endpoint_identity_on_circle(self, circle):
        got = oracles.endpoint_pairing(circle, "x1")
        assert got == pytest.approx(CIRCLE_INTEGRAL_X1, abs=1e-9)
        assert paths.ENDPOINT_SIGN == -1.0

    def test_endpoint_identity_random_hamiltonians(self, circle):
        rng = np.random.default_rng(10)
        for _ in range(10):
            c0, c1, c2, c3 = (float(v) for v in rng.uniform(-2, 2, size=4))
            h = f"{c0!r}*x1 + {c1!r}*x2 + {c2!r}*x3 + {c3!r}*x1*x2"
            lhs = paths.path_integral(circle, h)
            rhs = oracles.endpoint_pairing(circle, h)
            assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_zero_path_integrates_to_zero(self):
        p = paths.constant_path(su2(), (0.5, 0.5, 0.5), n_intervals=100)
        assert paths.path_integral(p, "x1*x2") == 0.0
        assert p.defect == 0.0


class TestReverseConcatenate:
    def test_reverse_flips_integral(self, circle):
        back = paths.reverse(circle)
        assert paths.path_integral(back, "x1") == pytest.approx(
            -CIRCLE_INTEGRAL_X1, abs=1e-9)
        assert oracles.endpoint_pairing(back, "x1") == pytest.approx(
            -CIRCLE_INTEGRAL_X1, abs=1e-9)

    def test_reverse_twice_restores_samples(self, circle):
        twice = paths.reverse(paths.reverse(circle))
        np.testing.assert_array_equal(twice.gamma, circle.gamma)
        np.testing.assert_array_equal(twice.a, circle.a)


class TestTransport:
    def test_zero_path_is_identity(self):
        p = paths.constant_path(su2_scaled("1 + R^2"), (1.0, 0.2, -0.3), n_intervals=100)
        s0 = np.array([0.7, -1.1, 0.4])
        np.testing.assert_allclose(paths.transport(p, s0), s0, atol=1e-12)

    def test_reverse_inverts_transport(self):
        p = su2_scaled("1 + R^2")
        path = paths.integrate_base(p, ("x3/5", "0", "1"), (1.0, 0.0, 0.2),
                                    n_intervals=400)
        rng = np.random.default_rng(11)
        back = paths.reverse(path)
        for _ in range(5):
            s0 = rng.uniform(-1, 1, size=3)
            s1 = paths.transport(path, s0)
            s0_again = paths.transport(back, s1)
            assert np.max(np.abs(s0_again - s0)) < 1e-7

    def test_independent_of_off_path_extension(self):
        # R^2 is constant along any path here, so adding (R^2 - R0^2) * w
        # changes the covector field only off the path
        p = su2()
        x0 = (1.0, 0.0, 0.0)
        base = ("0", "x3/3", "1")
        r0sq = 1.0
        bumped = tuple(f"({c}) + (R^2 - {r0sq!r})*({w})"
                       for c, w in zip(base, ("x2", "1 + x1", "x3 - x2")))
        p1 = paths.integrate_base(p, base, x0, n_intervals=400)
        p2 = paths.integrate_base(p, bumped, x0, n_intervals=400)
        assert np.max(np.abs(p1.gamma - p2.gamma)) < 1e-7
        s0 = np.array([0.3, -0.8, 0.5])
        t1 = paths.transport(p1, s0)
        t2 = paths.transport(p2, s0)
        assert np.max(np.abs(t1 - t2)) < 1e-7

    @pytest.mark.parametrize("a", ["1 + R^2", "exp(R^2/3)"])
    def test_matches_a_dense_tight_reference(self, a, monkeypatch):
        # the reference transports along the same path sampled 16000 times,
        # at tolerances 1e-13; at 200 and 1000 samples the error measured
        # 1.2e-10 to 1.8e-10 on 1 + R^2 and 4.7e-11 to 5.7e-11 on exp(R^2/3),
        # where the RK45 tolerance 1e-10, not the interpolant, sets it
        p, s0 = su2_scaled(a), np.array([0.3, -0.8, 0.5])
        generator, x0 = ("x3/5", "0.3*sin(t)", "1"), (1.0, 0.0, 0.2)
        with monkeypatch.context() as tight:
            tight.setitem(config.DEFAULTS, "ode_rtol", 1e-13)
            tight.setitem(config.DEFAULTS, "ode_atol", 1e-13)
            want = paths.transport(
                paths.integrate_base(p, generator, x0, n_intervals=16000), s0)
        for n in (200, 1000):
            got = paths.transport(paths.integrate_base(p, generator, x0, n_intervals=n), s0)
            assert np.max(np.abs(got - want)) <= 5e-10

    def test_bad_covector_shape(self):
        p = paths.constant_path(su2(), (1.0, 0.0, 0.0), n_intervals=100)
        with pytest.raises(ValidationError):
            paths.transport(p, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_covector_rejected(self, bad):
        p = paths.constant_path(su2(), (1.0, 0.0, 0.0), n_intervals=100)
        message = f"covector must be finite, got {[0.0, bad, 1.0]}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            paths.transport(p, np.array([0.0, bad, 1.0]))


@st.composite
def ode_case(draw):
    """A random smooth system y' = M sin(y) + c cos(w t) - y^3/10 of
    dimension 1-8, its start, tolerances and whether to sample a t grid."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, c, w = rng.normal(size=(n, n)), rng.normal(size=n), rng.uniform(0.5, 6.0)
    t_eval = np.linspace(0.0, 1.0, draw(st.integers(2, 300))) if draw(st.booleans()) else None
    return (lambda t, y: M @ np.sin(y) + c * np.cos(w * t) - 0.1 * y**3,
            rng.normal(size=n), dict(rtol=10.0 ** draw(st.floats(-12, -3)),
                                     atol=10.0 ** draw(st.floats(-12, -3)), t_eval=t_eval))


def _same_solve(fun, y0, **options):
    ours = paths.solve_ivp(fun, (0.0, 1.0), y0, **options)
    theirs = scipy_solve_ivp(fun, (0.0, 1.0), y0, method="RK45", **options)
    assert (ours.success, ours.message, ours.nfev) == \
        (theirs.success, theirs.message, theirs.nfev)
    assert np.array_equal(ours.y, theirs.y)
    return ours


class TestSolveIvp:
    """paths.solve_ivp against scipy's RK45, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=ode_case())
    def test_matches_scipy_rk45(self, case):
        fun, y0, options = case
        assert _same_solve(fun, y0, **options).success

    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 101)])
    def test_too_small_step_fails_as_scipy_does(self, t_eval):
        # y' = y^2 from 2 blows up at t = 1/2
        sol = _same_solve(lambda t, y: y**2, np.array([2.0]), rtol=1e-8, atol=1e-8,
                          t_eval=t_eval)
        assert not sol.success
        assert sol.message == "Required step size is less than spacing between numbers."

    def test_nan_field_fails_before_the_first_sample(self):
        # scipy would retry its NaN first step for ever; here it fails at once
        sol = paths.solve_ivp(lambda t, y: np.full_like(y, np.nan), (0.0, 1.0), np.ones(2),
                              rtol=1e-8, atol=1e-8, t_eval=np.linspace(0.0, 1.0, 11))
        assert (sol.success, sol.nfev, sol.y.size) == (False, 2, 0)
        assert sol.message == "right-hand side is not finite (NaN) at t=0.0, y=[1.0, 1.0]"

    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 101)])
    def test_nan_field_past_a_time_is_named_with_scipy_steps(self, t_eval):
        # y' = sqrt(1/2 - t) is NaN past t = 1/2: the steps shrink towards it
        # as scipy's do, and the failure names the first NaN
        def fun(t, y):
            with np.errstate(invalid="ignore"):
                return np.sqrt(0.5 - t) * np.ones_like(y)

        ours = paths.solve_ivp(fun, (0.0, 1.0), np.ones(2), rtol=1e-8, atol=1e-8,
                               t_eval=t_eval)
        theirs = scipy_solve_ivp(fun, (0.0, 1.0), np.ones(2), method="RK45", rtol=1e-8,
                                 atol=1e-8, t_eval=t_eval)
        assert (ours.success, ours.nfev) == (theirs.success, theirs.nfev)
        assert not ours.success
        assert np.array_equal(ours.y, theirs.y)
        assert ours.message.startswith("right-hand side is not finite (NaN) at t=0.5000")
