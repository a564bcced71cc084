"""Uniform tensor grids on boxes and the discrete L2 inner product.

Everything downstream works with flat arrays of node values.  Nodes are
ordered lexicographically with axis 0 varying fastest, so the flat index of
the multi-index (i0, i1, i2) is i0 + p0*i1 + p0*p1*i2.  The quadrature is
the midpoint rule with the single weight h0*h1*...*h_{d-1} at every node;
Dirichlet functions vanish on the boundary, so no boundary correction is
needed and the discrete eigenvectors of the stencil operators stay exactly
orthonormal under this inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

MIN_POINTS = 8


class GridError(ValueError):
    """A make_grid argument out of range; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


@dataclass(frozen=True)
class Grid:
    """Discretized box [0,L0] x ... with uniform spacing per axis.

    For Dirichlet boundaries only interior nodes are stored and
    spacing = length/(points+1); for periodic boundaries all points
    are stored and spacing = length/points.
    """

    dimension: int
    lengths: tuple[float, ...]
    points_per_axis: tuple[int, ...]
    boundary: str
    spacing: tuple[float, ...]
    quadrature_weight: float

    @property
    def node_count(self) -> int:
        n = 1
        for p in self.points_per_axis:
            n *= p
        return n

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        p = self.points_per_axis[axis]
        h = self.spacing[axis]
        if self.boundary == DIRICHLET:
            return h * np.arange(1, p + 1)
        return h * np.arange(p)

    def axis_faces(self, axis: int) -> np.ndarray:
        """Coordinates of cell interfaces along one axis.

        Dirichlet: p+1 faces, face j sits between node j-1 and node j
        (ghost nodes at the boundary).  Periodic: p faces, face j sits
        between node (j-1) mod p and node j.
        """
        p = self.points_per_axis[axis]
        h = self.spacing[axis]
        if self.boundary == DIRICHLET:
            return h * (np.arange(p + 1) + 0.5)
        return h * (np.arange(p) - 0.5)

    def nodes(self) -> np.ndarray:
        """All node coordinates as a (G, d) array in flat-index order."""
        axes = [self.axis_nodes(a) for a in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel(order="F") for m in mesh])


def make_grid(dimension, lengths, points, boundary) -> Grid:
    """Build a grid, validating dimension, boundary, lengths and resolution
    (GridError names the offending argument).

    `lengths` and `points` may be scalars (broadcast to every axis) or
    per-axis sequences.
    """
    if dimension not in (1, 2, 3):
        raise GridError("dimension", f"must be 1, 2 or 3, got {dimension}")
    if boundary not in (DIRICHLET, PERIODIC):
        raise GridError("boundary", f"must be '{DIRICHLET}' or '{PERIODIC}', got {boundary!r}")

    lengths_t = _per_axis(lengths, dimension, float, "lengths")
    points_t = _per_axis(points, dimension, int, "points")

    if not all(L > 0 for L in lengths_t):
        raise GridError("lengths", f"must be positive, got {lengths_t}")
    if any(p < MIN_POINTS for p in points_t):
        raise GridError(
            "points", f"must be >= {MIN_POINTS} per axis (too coarse below that), got {points_t}"
        )

    if boundary == DIRICHLET:
        spacing = tuple(L / (p + 1) for L, p in zip(lengths_t, points_t))
    else:
        spacing = tuple(L / p for L, p in zip(lengths_t, points_t))
    weight = 1.0
    for h in spacing:
        weight *= h

    return Grid(
        dimension=dimension,
        lengths=lengths_t,
        points_per_axis=points_t,
        boundary=boundary,
        spacing=spacing,
        quadrature_weight=weight,
    )


def _per_axis(value, d, cast, name):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(d))
    items = tuple(cast(v) for v in value)
    if len(items) != d:
        raise GridError(name, f"must have {d} entries, got {len(items)}")
    return items
