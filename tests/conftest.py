"""Shared fixtures.

The three preset pipelines used by the acceptance suite are expensive
(random-2d runs a certified Lanczos solve of its 205-mode resolved window
at 4096 nodes; the flat presets build and certify complete closed-form
bases), so they are built
once per session and reused; `build_seconds` on the pipeline lets
runtime-capped criteria account for the shared work they depend on.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from eigenrank.config import load_config
from eigenrank.grid import make_grid
from eigenrank.operator import assemble_laplacian
from eigenrank.eigensolve import SpectralBasis, _scaled_residuals, laplacian_eigenpairs
from eigenrank.pipeline import Pipeline, build_pipeline


def dense_basis(op) -> SpectralBasis:
    """Every eigenpair of a small operator by one dense scipy.linalg.eigh,
    grid-normalized: the reference for complete bases of non-flat operators,
    which lowest_eigenpairs does not solve."""
    lam, vec = sla.eigh(op.matrix.toarray())
    vec /= np.sqrt(op.grid.quadrature_weight)
    return SpectralBasis(
        grid=op.grid,
        tag=op.kind,
        eigenvalues=lam,
        vectors=vec,
        residuals=_scaled_residuals(op, lam, vec),
    )


@pytest.fixture(scope="session")
def flat1d_pipeline() -> Pipeline:
    return build_pipeline(load_config("flat-1d"))


@pytest.fixture(scope="session")
def flat2d_pipeline() -> Pipeline:
    return build_pipeline(load_config("flat-2d"))


@pytest.fixture(scope="session")
def random2d_pipeline() -> Pipeline:
    return build_pipeline(load_config("random-2d"))


@pytest.fixture(scope="session")
def flat1d_small():
    """Complete flat 1-D spectrum on a 64-point grid, both tags."""
    grid = make_grid(1, np.pi, 64, "dirichlet")
    op = assemble_laplacian(grid)
    lap = laplacian_eigenpairs(op, 64, 1e-9)
    src = SpectralBasis(
        grid=grid,
        tag="schrodinger",
        eigenvalues=lap.eigenvalues.copy(),
        vectors=lap.vectors.copy(),
        residuals=lap.residuals.copy(),
    )
    return grid, op, src, lap


@pytest.fixture(scope="session")
def flat2d_small():
    """Complete flat 2-D spectrum on a 20x20 grid, both tags."""
    grid = make_grid(2, (np.pi, np.pi), (20, 20), "dirichlet")
    op = assemble_laplacian(grid)
    lap = laplacian_eigenpairs(op, grid.node_count, 1e-9)
    src = SpectralBasis(
        grid=grid,
        tag="schrodinger",
        eigenvalues=lap.eigenvalues.copy(),
        vectors=lap.vectors.copy(),
        residuals=lap.residuals.copy(),
    )
    return grid, op, src, lap
