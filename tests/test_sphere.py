from math import pi

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirgof import sphere


def test_surface_area_small_dimensions():
    assert sphere.surface_area(0) == pytest.approx(2.0, abs=1e-14)
    assert sphere.surface_area(1) == pytest.approx(2.0 * pi, abs=1e-12)
    assert sphere.surface_area(2) == pytest.approx(4.0 * pi, abs=1e-12)


def test_surface_area_rejects_negative():
    with pytest.raises(ValueError):
        sphere.surface_area(-1)


def test_unit_vector_renormalizes_and_rejects():
    v = sphere.unit_vector(np.array([1.0 + 5e-7, 0.0]))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sphere.unit_vector(np.array([1.1, 0.0]))
    with pytest.raises(ValueError):
        sphere.unit_rows(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_projection_basis_circle_axis():
    basis = sphere.projection_basis(np.array([1.0, 0.0]))
    assert basis.columns.shape == (2, 1)
    assert abs(abs(basis.columns[1, 0]) - 1.0) < 1e-14
    assert abs(basis.columns[:, 0] @ basis.base_point) < 1e-14


def test_projection_basis_north_pole():
    basis = sphere.projection_basis(np.array([0.0, 0.0, 1.0]))
    outer = basis.columns @ basis.columns.T
    assert np.allclose(outer, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_projection_basis_invariants_random(q, rng):
    points = sphere.sample_uniform(q, 250, rng)
    stacked = sphere.tangent_bases(points)
    for x, rows_basis in zip(points, stacked):
        basis = sphere.projection_basis(x)
        cols = basis.columns
        assert np.array_equal(rows_basis, cols)
        assert np.max(np.abs(cols.T @ cols - np.eye(q))) < 1e-10
        assert np.max(np.abs(cols.T @ x)) < 1e-10
        assert np.max(np.abs(cols @ cols.T - (np.eye(q + 1) - np.outer(x, x)))) < 1e-10


def test_projection_basis_deterministic(rng):
    x = sphere.sample_uniform(3, 1, rng)[0]
    first = sphere.projection_basis(x).columns
    second = sphere.projection_basis(x.copy()).columns
    assert np.array_equal(first, second)


def test_tangent_normal_endpoints():
    x = np.array([0.0, 0.0, 1.0])
    xi = np.array([1.0, 0.0])
    assert np.allclose(oracles.tangent_normal_point(x, 1.0, xi), x, atol=1e-14)
    y = oracles.tangent_normal_point(np.array([1.0, 0.0]), 0.0, np.array([1.0]))
    assert abs(abs(y[1]) - 1.0) < 1e-14 and abs(y[0]) < 1e-14


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=-1.0, max_value=1.0),
    raw=st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
        lambda v: 0.1 < np.linalg.norm(v) < 10
    ),
    raw_xi=st.lists(st.floats(-5, 5), min_size=2, max_size=2).filter(
        lambda v: 0.1 < np.linalg.norm(v) < 10
    ),
)
def test_tangent_normal_unit_norm(t, raw, raw_xi):
    x = np.asarray(raw) / np.linalg.norm(raw)
    xi = np.asarray(raw_xi) / np.linalg.norm(raw_xi)
    out = oracles.tangent_normal_point(x, t, xi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_quadrature_circle_exact_constant():
    quad = sphere.build_quadrature(1, resolution=100)
    assert quad.integrate(np.ones(quad.node_count)) == pytest.approx(2.0 * pi, abs=1e-12)


def test_quadrature_sphere_second_moment():
    quad = sphere.build_quadrature(2, resolution=40)
    val = quad.integrate(quad.nodes[:, 2] ** 2)
    assert val == pytest.approx(4.0 * pi / 3.0, abs=1e-8)


def test_quadrature_monte_carlo_odd_moment():
    quad = sphere.build_quadrature(3, resolution=100_000, seed=11)
    vals = quad.nodes[:, 0]
    err = quad.standard_error(vals)
    assert abs(quad.integrate(vals)) < 3.0 * err
    assert quad.weights.sum() == pytest.approx(sphere.surface_area(3), abs=1e-10)


def test_quadrature_grid_refused_high_dimension():
    with pytest.raises(sphere.UnsupportedSchemeError):
        sphere.build_quadrature(3, resolution=32, scheme="exact-grid")
    with pytest.raises(ValueError):
        sphere.build_quadrature(1, resolution=4)


@pytest.mark.parametrize("q, resolution", [(1, 1_000_001), (2, 1001)])
def test_rules_past_the_node_cap_are_refused(q, resolution):
    """Refused before anything is built: the q=2 grid's count is r^2, so
    r = 1001 is 1002001 nodes (a missing check would allocate tens of MB)."""
    with pytest.raises(ValueError, match="MAX_QUADRATURE_NODES"):
        sphere.build_quadrature(q, resolution=resolution)


@pytest.mark.parametrize("q", [1, 2])
def test_moment_identities_on_grid(q):
    quad = sphere.build_quadrature(q, resolution=64)
    area = sphere.surface_area(q)
    d = q + 1
    for i in range(d):
        assert abs(quad.integrate(quad.nodes[:, i])) < 1e-8
        for j in range(d):
            expected = area / d if i == j else 0.0
            got = quad.integrate(quad.nodes[:, i] * quad.nodes[:, j])
            assert abs(got - expected) < 1e-8
    cubic = quad.integrate(quad.nodes[:, 0] ** 2 * quad.nodes[:, d - 1])
    assert abs(cubic) < 1e-8


def test_moment_identities_monte_carlo():
    quad = sphere.build_quadrature(4, resolution=200_000, seed=3)
    area = sphere.surface_area(4)
    sq = quad.nodes[:, 1] ** 2
    err = quad.standard_error(sq)
    assert abs(quad.integrate(sq) - area / 5.0) < 3.0 * err
    cross = quad.nodes[:, 0] * quad.nodes[:, 1]
    assert abs(quad.integrate(cross)) < 3.0 * quad.standard_error(cross)


def test_sample_uniform_norms_and_moments(rng):
    pts = sphere.sample_uniform(2, 100_000, rng)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    assert np.linalg.norm(pts.mean(axis=0)) < 0.02
    circle = sphere.sample_uniform(1, 100_000, rng)
    assert abs((circle[:, 0] ** 2).mean() - 0.5) < 0.01
