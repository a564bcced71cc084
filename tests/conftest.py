"""Shared fixtures.

The three preset pipelines used by the acceptance suite are expensive
(random-2d runs a certified Lanczos solve of its 205-mode resolved window
at 4096 nodes; the flat presets build and certify complete closed-form
bases), so they are built
once per session and reused; `build_seconds` on the pipeline lets
runtime-capped criteria account for the shared work they depend on.
"""

import gc
import os

import numpy as np
import pytest
import scipy.linalg as sla

from eigenrank.cli import THREAD_VARS
from eigenrank.config import load_config
from eigenrank.grid import make_grid
from eigenrank.operator import assemble_laplacian
from eigenrank.eigensolve import (
    SpectralBasis,
    _gram_defect,
    _scaled_residuals,
    cluster_end,
    laplacian_eigenpairs,
)
from eigenrank.lowrank import oracle_rank, scaling_report
from eigenrank.pipeline import Pipeline, build_pipeline
from eigenrank.products import ProductCoefficients, pair_list, pair_row


@pytest.fixture(autouse=True)
def blas_environment_restored():
    """cli.main writes the thread cap and the spin bound into os.environ;
    put them back after each test, so that in-process CLI runs do not reach
    the child processes of later tests."""
    names = (*THREAD_VARS, "OPENBLAS_THREAD_TIMEOUT")
    saved = {var: os.environ.get(var) for var in names}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture(autouse=True)
def import_heap_unfrozen():
    """cli.main freezes every object alive when its imports are done;
    unfreeze them after each test, so that objects of the test session
    frozen by an in-process CLI run stay collectable and each test starts
    with nothing frozen."""
    yield
    gc.unfreeze()


def dense_basis(op) -> SpectralBasis:
    """Every eigenpair of a small operator by one dense scipy.linalg.eigh,
    grid-normalized: the reference for complete bases of non-flat operators,
    which lowest_eigenpairs does not solve."""
    lam, vec = sla.eigh(op.matrix.toarray())
    vec /= np.sqrt(op.grid.quadrature_weight)
    return SpectralBasis(
        grid=op.grid,
        eigenvalues=lam,
        vectors=vec,
        residuals=_scaled_residuals(op, lam, vec),
        ortho_defect=_gram_defect(vec, op.grid.quadrature_weight),
    )


def degenerate_clusters(eigenvalues) -> list:
    """The ascending eigenvalues' indices in contiguous groups, one per
    degenerate cluster (cluster_end's rule)."""
    clusters, start = [], 0
    while start < len(eigenvalues):
        end = cluster_end(eigenvalues, start + 1)
        clusters.append(list(range(start, end)))
        start = end
    return clusters


def gather(coeffs, n) -> ProductCoefficients:
    """A copy of the sub-family with both indices below n, its rows gathered
    from `coeffs` with pair_row: the reference for reading it in place."""
    rows = [pair_row(i, j, coeffs.n) for i, j in pair_list(n)]
    return ProductCoefficients(
        n=n,
        m=coeffs.m,
        eigenvalues=coeffs.eigenvalues,
        coeffs=coeffs.coeffs[rows],
        product_l2_norms=coeffs.product_l2_norms[rows],
        outside_mass=None if coeffs.outside_mass is None else coeffs.outside_mass[rows],
    )


def sweep(basis_src, coeffs_l2, coeffs_hm1, n_list, eps_list, norms, calib_l2, calib_hm1, window):
    """scaling_report with the oracle ranks of every (norm, n) cell, as the
    pipeline's sweep forms them."""
    ranks = {
        (norm, n): oracle_rank(basis_src, n, eps_list, norm, coeffs=coeffs_hm1)
        for norm in norms
        for n in n_list
    }
    return scaling_report(
        basis_src, coeffs_l2, coeffs_hm1, n_list, eps_list, norms, ranks,
        calib_l2=calib_l2, calib_hm1=calib_hm1, window=window,
    )


@pytest.fixture(scope="session")
def flat1d_pipeline() -> Pipeline:
    return build_pipeline(load_config("flat-1d"))


@pytest.fixture(scope="session")
def harmonic1d_pipeline() -> Pipeline:
    return build_pipeline(load_config("harmonic-1d"))


@pytest.fixture(scope="session")
def flat2d_pipeline() -> Pipeline:
    return build_pipeline(load_config("flat-2d"))


@pytest.fixture(scope="session")
def random2d_pipeline() -> Pipeline:
    return build_pipeline(load_config("random-2d"))


@pytest.fixture(scope="session")
def flat1d_small():
    """Complete flat 1-D spectrum on a 64-point grid: a dense copy as the
    source basis, and the closed-form Laplacian basis."""
    grid = make_grid(1, np.pi, 64, "dirichlet")
    op = assemble_laplacian(grid)
    lap = laplacian_eigenpairs(op, 64, 1e-9)
    src = SpectralBasis(
        grid=grid,
        eigenvalues=lap.eigenvalues.copy(),
        vectors=lap.vectors.copy(),
        residuals=lap.residuals.copy(),
        ortho_defect=lap.ortho_defect,
    )
    return grid, op, src, lap


@pytest.fixture(scope="session")
def flat2d_small():
    """Complete flat 2-D spectrum on a 20x20 grid: a dense copy as the
    source basis, and the closed-form Laplacian basis."""
    grid = make_grid(2, (np.pi, np.pi), (20, 20), "dirichlet")
    op = assemble_laplacian(grid)
    lap = laplacian_eigenpairs(op, grid.node_count, 1e-9)
    src = SpectralBasis(
        grid=grid,
        eigenvalues=lap.eigenvalues.copy(),
        vectors=lap.vectors.copy(),
        residuals=lap.residuals.copy(),
        ortho_defect=lap.ortho_defect,
    )
    return grid, op, src, lap
