"""The in-house Simpson rule against scipy.integrate.simpson, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson as scipy_simpson

from poispath.errors import ValidationError
from poispath.quadrature import simpson


@st.composite
def simpson_case(draw):
    n = 2 * draw(st.integers(1, 200)) + 1
    ndim = draw(st.integers(1, 3))
    axis = draw(st.sampled_from([a for a in (0, 1, -1) if -ndim <= a < ndim]))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(0.01, 1.0, size=n - 1)
    if draw(st.booleans()):  # repeated nodes exercise the guarded divisions
        steps[rng.random(n - 1) < 0.2] = 0.0
    x = np.concatenate([[rng.normal()], rng.normal() + np.cumsum(steps)])
    return rng.normal(size=shape), x, axis


@settings(max_examples=300, deadline=None)
@given(case=simpson_case())
def test_simpson_matches_scipy_bit_for_bit(case):
    y, x, axis = case
    ours = simpson(y, x, axis=axis)
    theirs = scipy_simpson(y, x=x, axis=axis)
    assert np.shape(ours) == np.shape(theirs)
    assert np.array_equal(ours, theirs)
    # a second call reads the cached factors of the same grid
    assert np.array_equal(simpson(y, x.copy(), axis=axis), theirs)


def test_sphere_grids_match_scipy():
    rng = np.random.default_rng(5)
    for n_theta, n_phi in ((100, 200), (200, 400), (30, 60), (4, 8)):
        theta = np.linspace(0.0, np.pi, n_theta + 1)
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
        dens = rng.normal(size=(theta.size, phi.size))
        assert simpson(simpson(dens, phi, axis=1), theta) == \
            scipy_simpson(scipy_simpson(dens, x=phi, axis=1), x=theta)


@pytest.mark.parametrize("n", [1, 2, 4, 1000])
def test_even_or_too_few_nodes_raise(n):
    with pytest.raises(ValidationError):
        simpson(np.ones(n), np.linspace(0.0, 1.0, n))


def test_node_count_must_match_the_axis():
    with pytest.raises(ValidationError):
        simpson(np.ones((5, 3)), np.linspace(0.0, 1.0, 5), axis=1)
