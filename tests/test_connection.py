import functools
import math
import resource
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import ROUND_CHART, su2, su2_scaled, symplectic_plane, traced_peak_mib
from poispath import connection, expr, monodromy, registry
from poispath.core import PoissonStructure
from poispath.errors import NumericalError, ValidationError

# closed-form sphere areas for the rescaled structures: A(R) = 4*pi*R / a(R)
AREAS = {
    ("1", 1.0): 4 * math.pi,
    ("1 + R^2", 0.5): 1.6 * math.pi,
    ("1 + R^2", 1.0): 2 * math.pi,
    ("1 + R^2", 2.0): 8 * math.pi / 5,
    ("exp(R^2/5)", 1.0): 4 * math.pi * math.exp(-0.2),
}

# |dA/dR| values for a = 1 + R^2: A'(R) = 4*pi*(1 - R^2)/(1 + R^2)^2
GENERATORS = {
    0.5: 1.92 * math.pi,
    1.0: 0.0,
    2.0: 12 * math.pi / 25,
}


def _single_grid_area(family, tau):
    """The family's area on its own grid alone, without the doubling check:
    the one quadrature entry that every area goes through."""
    return connection._sphere_area_once(family, tau, family.grid)


def _form(structure, x, u, v):
    """leaf_form_many at the one point x, each argument passed as one row."""
    rows = (np.asarray(w, dtype=float)[None] for w in (x, u, v))
    return float(connection.leaf_form_many(structure, *rows)[0])


class TestLeafForm:
    def test_su2_equator_value(self):
        w = _form(su2(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetry_and_bilinearity(self):
        p = su2_scaled("1 + R^2")
        x = np.array([0.6, -0.8, 0.3])
        rng = np.random.default_rng(21)
        al, be = rng.uniform(-1, 1, size=(2, 3))
        u, v = p.sharp_many([x, x], [al, be])
        wuv = _form(p, x, u, v)
        wvu = _form(p, x, v, u)
        assert wuv == pytest.approx(-wvu, abs=1e-12)
        w2 = _form(p, x, 2.0 * u, v)
        assert w2 == pytest.approx(2 * wuv, rel=1e-12)

    def test_reproduces_pairing_with_sharp(self):
        # omega(#alpha, #beta) = -Pi(alpha, beta) = <alpha, #beta> up to sign;
        # check against the direct contraction alpha_j Pi^(jk) beta_k
        p = su2_scaled("exp(R^2/5)")
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=3)
            if np.linalg.norm(x) < 0.3:
                continue
            al, be = rng.uniform(-1, 1, size=(2, 3))
            u, v = p.sharp_many([x, x], [al, be])
            direct = float(al @ p.pi_at(x) @ be)
            got = _form(p, x, u, v)
            assert got == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_batch_matches_single_rows(self):
        p = su2_scaled("1 + R^2")
        rng = np.random.default_rng(23)
        xs = rng.uniform(-1.5, 1.5, size=(12, 3))
        xs = xs[np.linalg.norm(xs, axis=1) > 0.4]
        als = rng.uniform(-1, 1, size=(len(xs), 3))
        bes = rng.uniform(-1, 1, size=(len(xs), 3))
        us = p.sharp_many(xs, als)
        vs = p.sharp_many(xs, bes)
        batch = connection.leaf_form_many(p, xs, us, vs).copy()
        for m in range(len(xs)):
            assert batch[m] == _form(p, xs[m], us[m], vs[m])

    def test_non_tangent_vector_rejected(self):
        with pytest.raises(ValidationError):
            _form(su2(), [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])

    def test_zero_structure_rejected(self):
        zero = PoissonStructure(3, {})
        with pytest.raises(ValidationError):
            _form(zero, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_value_fails_closed(self, rows, bad):
        # one row whose vectors hold a NaN or an inf, or are finite but make
        # the density overflow, fails the density check of the whole batch
        xs = np.tile([1.0, 0.0, 0.0], (rows, 1))
        us, vs = np.tile(np.eye(3)[1:, None], (1, rows, 1))
        us[-1, 1] = vs[-1, 2] = bad
        with pytest.raises(NumericalError) as info:
            connection.leaf_form_many(su2(), xs, us, vs)
        assert type(info.value) is NumericalError


class TestSphereArea:
    @pytest.mark.parametrize("a,tau", sorted(AREAS))
    def test_matches_closed_form(self, a, tau):
        got = connection.sphere_area(su2_scaled(a), tau)
        want = AREAS[(a, tau)]
        assert got == pytest.approx(want, rel=1e-4)

    def test_negative_scale_flips_sign(self):
        got = connection.sphere_area(su2_scaled("-1"), 1.0)
        assert got == pytest.approx(-4 * math.pi, rel=1e-4)

    def test_coarse_grid_without_check(self):
        got = _single_grid_area(connection.RadialSphereFamily(su2(), (40, 20)), 1.0)
        assert got == pytest.approx(4 * math.pi, rel=5e-3)

    def test_doubling_check_catches_rough_integrand(self):
        # still a sphere foliation, but the density oscillates far below
        # the default grid resolution
        rough = su2_scaled("1 + sin(200*x1)/2")
        with pytest.raises(NumericalError):
            connection.sphere_area(rough, 1.0)

    def test_parameters_named_like_chart_symbols_leave_the_chart_alone(self):
        # the round chart's tau, theta and phi shadow structure parameters
        plain, named = (registry.load(f"builtin:su2_scaled?a=1+R^2{extra}").structure
                        for extra in ("", "&tau=5&theta=2&phi=3"))
        assert named.params == {"tau": 5.0, "theta": 2.0, "phi": 3.0}
        areas = [_single_grid_area(connection.RadialSphereFamily(s, (40, 20)), 1.3)
                 for s in (plain, named)]
        assert _bits(areas[1]) == _bits(areas[0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError):
            connection.sphere_area(symplectic_plane(), 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            connection.sphere_area(su2(), 0.0)

    def test_grid_parity_enforced(self):
        with pytest.raises(ValidationError):
            connection.sphere_grid(7, 10)


class TestAreaVariation:
    def test_constant_scale_gives_4pi(self):
        out = connection.area_variation(su2(), 1.0)
        assert out.derivative == pytest.approx(4 * math.pi, abs=1e-3)
        assert out.area == pytest.approx(4 * math.pi, rel=1e-4)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_scaled_generator_magnitudes(self, tau):
        out = connection.area_variation(su2_scaled("1 + R^2"), tau)
        assert out.generator_magnitude == pytest.approx(GENERATORS[tau], rel=1e-3)

    def test_critical_radius_is_flat(self):
        out = connection.area_variation(su2_scaled("1 + R^2"), 1.0)
        assert abs(out.derivative) < 1e-6 * max(1.0, abs(out.area))

    def test_xi_is_radial_with_derivative_magnitude(self):
        out = connection.area_variation(su2_scaled("1 + R^2"), 2.0)
        want = np.array([out.derivative, 0.0, 0.0])
        np.testing.assert_allclose(out.xi, want, atol=1e-12)
        assert out.derivative < 0  # area shrinks past the hump

    def test_sign_convention_cancels_kernel_orientation(self):
        # with a < 0 the kernel covector flips, xi must not
        out = connection.area_variation(su2_scaled("-1"), 1.0)
        np.testing.assert_allclose(out.xi, [-4 * math.pi, 0.0, 0.0], atol=2e-3)
        np.testing.assert_allclose(out.zeta, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError):
            connection.area_variation(symplectic_plane(), 1.0)

    def test_radius_must_be_positive(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValidationError):
                connection.area_variation(su2(), tau)
        # any positive radius gives a row: dA/dtau = 4 pi for su2
        out = connection.area_variation(su2(), 0.001)
        assert out.derivative == pytest.approx(4 * math.pi, rel=1e-4)

    def test_non_finite_jacobian_fails_closed(self, monkeypatch):
        # the sphere kernel takes the Jacobian of p from _jacobian
        s = su2()
        monkeypatch.setattr(connection, "_jacobian", lambda p: [expr.Num(math.nan)] * 9)
        with pytest.raises(NumericalError, match="Jacobian"):
            connection.area_variation(s, 1.0)
        with pytest.raises(NumericalError, match="Jacobian"):
            monodromy.RadialSphereFamily(s).row_data(1.0)


PROPERTY_GRID = (60, 30)


def _profile(kind, c):
    """Source of a(R) and the closed form of A'(R) = 4 pi (a - R a')/a^2."""
    if kind == "poly":
        return f"1 + {c!r}*R^2", lambda r: 4 * math.pi * (1 - c * r * r) / (1 + c * r * r) ** 2
    if kind == "exp":
        return f"exp(R^2/{c!r})", lambda r: 4 * math.pi * (1 - 2 * r * r / c) * math.exp(-r * r / c)
    return f"{c!r}", lambda r: 4 * math.pi / c


@st.composite
def profile_and_radius(draw):
    kind = draw(st.sampled_from(["poly", "exp", "const"]))
    c = draw({"poly": st.floats(0.3, 2.0), "exp": st.floats(1.5, 6.0),
              "const": st.floats(0.5, 3.0)}[kind])
    zero = {"poly": 1 / math.sqrt(c), "exp": math.sqrt(c / 2)}.get(kind)
    # hit the zero of A' exactly now and then
    if zero is not None and draw(st.booleans()):
        return kind, c, zero
    return kind, c, draw(st.floats(0.3, 2.5))


@settings(max_examples=25, deadline=None)
@given(case=profile_and_radius())
def test_under_integral_derivative_matches_stencil_oracle(case):
    # radial row, round-chart sigma row and area_variation against the
    # stencil on each route's own areas: 1e-9 relative away from the zeros
    # of A', absolute 1e-6 max(1, |A|) near them
    kind, c, tau = case
    source, closed = _profile(kind, c)
    s = su2_scaled(source)
    radial = monodromy.RadialSphereFamily(s, grid=PROPERTY_GRID)
    sigma = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0), grid=PROPERTY_GRID)
    area, _, _ = radial.row_data(tau)
    scale = max(1.0, abs(area))
    near_zero = abs(closed(tau)) < 0.05 * scale
    want = oracles.stencil_area_derivative(
        functools.partial(_single_grid_area, radial),
        tau, step=2e-4)
    want_sigma = oracles.stencil_area_derivative(functools.partial(_single_grid_area, sigma),
                                                  tau, step=2e-4)
    got = {
        "radial": (radial.row_data(tau)[1], want),
        "sigma": (sigma.row_data(tau)[1], want_sigma),
        "area_variation": (connection.area_variation(s, tau, grid=PROPERTY_GRID).derivative,
                           want),
    }
    for route, (value, oracle) in got.items():
        tol = 1e-6 * scale if near_zero else 1e-9 * abs(oracle)
        assert abs(value - oracle) <= tol, (route, value, oracle)


def test_each_row_takes_the_one_quadrature_entry_once(monkeypatch):
    once, seen = connection._sphere_area_once, []

    def counted(family, *args, **kwargs):
        seen.append(family)
        return once(family, *args, **kwargs)

    monkeypatch.setattr(connection, "_sphere_area_once", counted)
    s = su2()
    radial = monodromy.RadialSphereFamily(s, grid=PROPERTY_GRID)
    sigma = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0), grid=PROPERTY_GRID)
    for family in (radial, sigma):
        family.row_data(1.0)
    assert seen == [radial, sigma]


def test_sphere_kernels_compile_once_per_structure_and_rate(monkeypatch):
    compile_vec, compiled = expr.compile_exprs_vec, []
    monkeypatch.setattr(expr, "compile_exprs_vec",
                        lambda *a, **k: compiled.append(a) or compile_vec(*a, **k))
    # loading a source builds its family and compiles no chart
    s = registry.load("builtin:su2_scaled?a=1+R^2").structure
    assert [key for key in s._evaluators if key[0] == "chart"] == []
    x, u, v = [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]
    rounds = []
    for _ in range(2):
        before = len(compiled)
        family = connection.RadialSphereFamily(s)
        family.area(0.7), family.row_data(0.9), connection.leaf_form_many(s, x, u, v)
        rounds.append(len(compiled) - before)
    # per rate, the sphere kernel and the chart's theta, phi and block
    # evaluators, and nothing once they are cached
    assert rounds == [8, 0]
    chart = ("chart", expr.dag_key(family.sigma))
    # beside "pi" and "dpi", which the load compiled
    assert set(s._evaluators) - {"pi", "dpi"} == {("sphere", False), ("sphere", True),
                                                  (*chart, False), (*chart, True)}


def _bits(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@st.composite
def kernel_case(draw):
    kind = draw(st.sampled_from(["poly", "exp", "const", "su2"]))
    if kind == "su2":
        structure = su2()
    else:
        c = draw({"poly": st.floats(0.3, 2.0), "exp": st.floats(1.5, 6.0),
                  "const": st.floats(0.5, 3.0)}[kind])
        structure = su2_scaled(_profile(kind, c)[0])
    return structure, draw(st.floats(0.3, 2.5))


# 61 theta rows of 301 nodes: blocks of 27 rows, the last one of 7
PARTIAL_BLOCK_GRID = (60, 300)


@settings(max_examples=30, deadline=None)
@given(case=kernel_case(), rate=st.booleans(),
       grid=st.sampled_from([PROPERTY_GRID, PARTIAL_BLOCK_GRID]))
def test_sphere_kernel_matches_the_reference_row_bit_for_bit(case, rate, grid):
    s, tau = case
    theta, phi = connection.sphere_grid(*grid)
    if rate:
        got = monodromy.RadialSphereFamily(s, grid=grid).row_data(tau)[:2]
    else:
        got = _single_grid_area(connection.RadialSphereFamily(s, grid), tau)
    want = oracles.sphere_row_reference(s, oracles.radial_nodes(tau, theta, phi, rate),
                                        theta, phi, rate)
    assert _bits(got) == _bits(want)

    sigma = monodromy.SigmaSphereFamily(s, ROUND_CHART, (0.2, 3.0), grid=grid)
    rows = [lambda: _single_grid_area(sigma, tau), lambda: sigma.row_data(tau)[:2]][rate]
    got = rows()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connection, "sphere_quadrature", oracles.sphere_row_reference)
        want = rows()
    assert _bits(got) == _bits(want)


# the round chart, a sheared one, one whose subtrees in tau alone are
# scalars of the plain route (a Python float power, a numpy exp of one),
# one whose subtrees in phi alone read tau, and one whose first column is a
# root in theta alone
SIGMA_CHARTS = (
    ROUND_CHART,
    ("tau*sin(theta)*cos(phi + theta)", "tau*sin(theta)*sin(phi + theta)", "tau*cos(theta)"),
    ("sqrt(tau^2)*sin(theta)*cos(phi)", "(tau^3/tau^2)*sin(theta)*sin(phi)",
     "exp(log(tau))*cos(theta)"),
    ("tau*sin(theta)*cos(phi + tau)", "tau*sin(theta)*sin(phi + tau)", "tau*cos(theta)"),
    ("tau*cos(theta)", "tau*sin(theta)*cos(phi)", "tau*sin(theta)*sin(phi)"),
)


@settings(max_examples=30, deadline=None)
@given(case=kernel_case(), chart=st.sampled_from(SIGMA_CHARTS), rate=st.booleans(),
       grid=st.sampled_from([PROPERTY_GRID, PARTIAL_BLOCK_GRID]))
def test_sigma_rows_keep_the_bits_of_the_plain_chart(case, chart, rate, grid):
    s, tau = case
    sigma = monodromy.SigmaSphereFamily(s, chart, (0.2, 3.0), grid=grid)
    rows = [lambda: _single_grid_area(sigma, tau), lambda: sigma.row_data(tau)[:2]][rate]
    got = rows()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sigma, "_nodes", functools.partial(oracles.sigma_nodes, sigma))
        want = rows()
    assert _bits(got) == _bits(want)


def _radial_rows(cases, taus):
    """Bits of (area, dA/dtau) of each (structure, grid) case at each tau,
    and of the area alone at the first tau."""
    return [[_bits(monodromy.RadialSphereFamily(s, grid=grid).row_data(t)[:2]) for t in taus]
            + [_bits(_single_grid_area(connection.RadialSphereFamily(s, grid), taus[0]))]
            for s, grid in cases]


def _in_threads(jobs, timeout=120.0):
    results = [None] * len(jobs)

    def run(k):
        results[k] = jobs[k]()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)
    return results


# kernels of 8 and 12 arena rows, blocks of 861 and 8,184 nodes
ARENA_CASES = ((su2(), (40, 20)), (su2_scaled("exp(R^2/3)"), PROPERTY_GRID))


class TestArena:
    def test_interleaved_structures_and_grids_give_the_bits_of_separate_calls(self):
        taus = (0.7, 1.3)
        # each case alone, in a thread of its own with a fresh arena
        alone = [r[0] for r in _in_threads([lambda c=c: _radial_rows([c], taus)
                                             for c in ARENA_CASES])]
        mixed = [[], []]
        for t in taus:
            for k, (s, grid) in enumerate(ARENA_CASES):
                mixed[k].append(_bits(monodromy.RadialSphereFamily(s, grid=grid).row_data(t)[:2]))
        for k, (s, grid) in enumerate(ARENA_CASES):
            once = _single_grid_area(connection.RadialSphereFamily(s, grid), taus[0])
            mixed[k].append(_bits(once))
        assert mixed == alone

    def test_threads_at_the_same_time_give_the_serial_bits(self):
        taus = (0.6, 1.1, 1.7)
        serial = _radial_rows(ARENA_CASES, taus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # more threads than cores, each running both kernels
            parallel = _in_threads([lambda: _radial_rows(ARENA_CASES, taus)] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == [serial] * 4

    def test_warm_rows_fault_no_fresh_pages(self):
        # the block arrays live in the reused arena, so a warm row maps no
        # new memory (about 850 minor faults per row when they did not)
        family = monodromy.RadialSphereFamily(su2_scaled("1 + 0.7*R^2"))
        for tau in (0.9, 1.1):
            family.row_data(tau)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(20):
            family.row_data(0.5 + 0.1 * k)
        per_row = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        assert per_row < 50, per_row

    def test_warm_chart_rows_fault_no_fresh_pages(self):
        # 538 minor faults per row in one measurement, when each block
        # evaluated the chart into fresh arrays
        family = monodromy.SigmaSphereFamily(su2_scaled("1 + 0.7*R^2"), ROUND_CHART, (0.2, 3.0))
        for tau in (0.9, 1.1):
            family.row_data(tau)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(20):
            family.row_data(0.5 + 0.1 * k)
        per_row = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        assert per_row < 50, per_row

    def test_warm_chart_row_stays_within_one_mib(self):
        # 3.19 MiB when each block evaluated the chart into fresh arrays
        family = monodromy.SigmaSphereFamily(su2_scaled("1 + 0.7*R^2"), ROUND_CHART, (0.2, 3.0))
        assert traced_peak_mib(lambda: family.row_data(1.1)) <= 1.0
