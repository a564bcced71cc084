import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrank.grid import GridError, make_grid


def inner(grid, f, g):
    """Discrete L2 pairing of node values: quadrature_weight * sum_nodes f*g."""
    return grid.quadrature_weight * float(np.dot(f, g))


def test_dirichlet_spacing_and_nodes():
    g = make_grid(1, np.pi, 8, "dirichlet")
    assert g.spacing[0] == pytest.approx(np.pi / 9, rel=1e-15)
    assert g.quadrature_weight == pytest.approx(np.pi / 9, rel=1e-15)
    np.testing.assert_allclose(g.axis_nodes(0), np.pi / 9 * np.arange(1, 9), rtol=1e-15)


def test_2d_grid_counts_and_weight():
    g = make_grid(2, (np.pi, np.pi), (64, 64), "dirichlet")
    assert g.node_count == 4096
    assert g.quadrature_weight == pytest.approx((np.pi / 65) ** 2, rel=1e-15)


def test_periodic_spacing_and_nodes():
    g = make_grid(1, 2 * np.pi, 16, "periodic")
    assert g.spacing[0] == pytest.approx(2 * np.pi / 16, rel=1e-15)
    np.testing.assert_allclose(g.axis_nodes(0), 2 * np.pi / 16 * np.arange(16), rtol=1e-15)
    assert g.quadrature_weight == pytest.approx(2 * np.pi / 16, rel=1e-15)


def test_node_ordering_axis0_fastest():
    g = make_grid(2, (1.0, 2.0), (8, 8), "dirichlet")
    pts = g.nodes()
    # first block walks axis 0 while axis 1 stays at its first node
    np.testing.assert_allclose(pts[:8, 1], pts[0, 1])
    assert np.all(np.diff(pts[:8, 0]) > 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=0, lengths=1.0, points=8, boundary="dirichlet"),
        dict(dimension=4, lengths=1.0, points=8, boundary="dirichlet"),
        dict(dimension=1, lengths=-1.0, points=8, boundary="dirichlet"),
        dict(dimension=1, lengths=0.0, points=8, boundary="dirichlet"),
        dict(dimension=1, lengths=1.0, points=7, boundary="dirichlet"),
        dict(dimension=1, lengths=1.0, points=3, boundary="dirichlet"),
        dict(dimension=2, lengths=(1.0, 1.0), points=(8, 8), boundary="neumann"),
    ],
)
def test_make_grid_rejects(kwargs):
    with pytest.raises(ValueError):
        make_grid(**kwargs)


@pytest.mark.parametrize(
    "args, field",
    [
        ((0, 1.0, 8, "dirichlet"), "dimension"),
        ((2, 1.0, 8, "neumann"), "boundary"),
        ((2, (1.0,), 8, "dirichlet"), "lengths"),
        ((2, 1.0, (8, 8, 8), "dirichlet"), "points"),
        ((1, -1.0, 8, "dirichlet"), "lengths"),
        ((1, 1.0, 7, "dirichlet"), "points"),
    ],
)
def test_make_grid_names_the_offending_field(args, field):
    # config maps the field to its path, grid.<field>
    with pytest.raises(GridError) as err:
        make_grid(*args)
    assert err.value.field == field and str(err.value).startswith(f"{field} must ")


def test_inner_constant_approaches_length():
    for points in (64, 256, 1024):
        g = make_grid(1, np.pi, points, "dirichlet")
        one = np.ones(points)
        assert inner(g, one, one) == pytest.approx(np.pi * points / (points + 1), rel=1e-14)


def test_discrete_sine_orthogonality_exact():
    # sampled sin(kx) vectors are exactly orthogonal under the midpoint rule
    points = 16
    g = make_grid(1, np.pi, points, "dirichlet")
    x = g.axis_nodes(0)
    for k in range(1, points + 1):
        for l in range(k + 1, points + 1):
            s = math.fsum(math.sin(k * xi) * math.sin(l * xi) for xi in x)
            assert abs(g.quadrature_weight * s) < 1e-12
            assert abs(inner(g, np.sin(k * x), np.sin(l * x))) < 1e-12


def test_normalized_sine_has_unit_norm():
    g = make_grid(1, np.pi, 128, "dirichlet")
    x = g.axis_nodes(0)
    f = np.sin(3 * x)
    f_hat = f / np.sqrt(inner(g, f, f))
    assert inner(g, f_hat, f_hat) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(-10, 10, allow_nan=False),
    beta=st.floats(-10, 10, allow_nan=False),
)
def test_inner_symmetric_bilinear(seed, alpha, beta):
    g = make_grid(1, 1.0, 32, "dirichlet")
    rng = np.random.default_rng(seed)
    f, h, u = (rng.standard_normal(32) for _ in range(3))
    assert inner(g, f, h) == inner(g, h, f)
    lhs = inner(g, alpha * f + beta * h, u)
    rhs = alpha * inner(g, f, u) + beta * inner(g, h, u)
    scale = 1.0 + abs(alpha) * abs(inner(g, f, u)) + abs(beta) * abs(inner(g, h, u))
    assert abs(lhs - rhs) <= 1e-12 * scale
