import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrank.grid import make_grid
from eigenrank.operator import (
    CONSTANT,
    RANDOM_FOURIER,
    CoefficientSpec,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
)
from eigenrank.eigensolve import (
    SpectralBasis,
    laplacian_eigenpairs,
    lowest_eigenpairs,
)
from eigenrank.products import (
    chain_bound,
    expansion_coefficients,
    pair_list,
    pair_row,
    product_matrix,
    quadratic_form_values,
)
from conftest import dense_basis
from rotation import rotate_cluster


def inner(grid, f, g):
    """Discrete L2 pairing of node values: quadrature_weight * sum_nodes f*g."""
    return grid.quadrature_weight * float(np.dot(f, g))


def product(basis, i, j):
    """Node values of phi_i phi_j."""
    return basis.vectors[:, i] * basis.vectors[:, j]


def coeff_row(coeffs, i, j):
    """Expansion coefficients of the product phi_i phi_j."""
    return coeffs.coeffs[pair_row(i, j, coeffs.n)]


def quadratic_form_value(i, j, coeffs, basis_target):
    """Sum_k lambda_k c[i,j,k]^2, the spectral form <M(phi_i phi_j), phi_i phi_j>."""
    return float(np.dot(basis_target.eigenvalues[: coeffs.m], coeff_row(coeffs, i, j) ** 2))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_pair_row_matches_pair_list(n, seed):
    pairs = pair_list(n)
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=2)
    row = pair_row(i, j, n)
    assert tuple(pairs[row]) == (min(i, j), max(i, j))


def test_pair_row_reads_index_arrays():
    # the rows of index arrays are those of each pair alone, either order
    i, j = pair_list(7).T
    np.testing.assert_array_equal(pair_row(i, j, 7), np.arange(28))
    np.testing.assert_array_equal(pair_row(j, i, 7), np.arange(28))
    np.testing.assert_array_equal(pair_row(i, j, 9), [pair_row(a, b, 9) for a, b in zip(i, j)])
    with pytest.raises(IndexError):
        pair_row(np.array([0, 7]), np.array([1, 2]), 7)


def test_product_function_basics(flat1d_small):
    # the product functions phi_i phi_j, one per column of product_matrix
    grid, _, src, _ = flat1d_small
    prods = product_matrix(src, 6)
    assert prods.shape == (grid.node_count, 21)
    for i, j in pair_list(6):
        np.testing.assert_array_equal(prods[:, pair_row(j, i, 6)], product(src, i, j))
    # a row range is the same rows of the full block
    np.testing.assert_array_equal(product_matrix(src, 6, slice(10, 23)), prods[10:23])
    # (sqrt(2/pi) sin x)^2 peaks at 2/pi
    assert np.max(prods[:, 0]) == pytest.approx(2 / np.pi, rel=0.01)
    # Hoelder: ||phi_i phi_j|| <= ||phi_i||_inf * ||phi_j|| = ||phi_i||_inf
    a = prods[:, pair_row(2, 5, 6)]
    sup_i = np.max(np.abs(src.vectors[:, 2]))
    assert np.sqrt(inner(grid, a, a)) <= sup_i * (1 + 1e-12)
    with pytest.raises(ValueError):
        product_matrix(src, src.count + 1)


def test_first_mode_square_expansion_against_direct_quadrature(flat1d_small):
    grid, _, src, _ = flat1d_small
    co = expansion_coefficients(src, src, 4, grid.node_count)
    w = grid.quadrature_weight
    sq = product(src, 0, 0)
    # independent oracle: plain fsum quadrature, no linear algebra
    for k in (0, 1, 2, 3, 9):
        direct = w * math.fsum(float(sq[t]) * float(src.vectors[t, k]) for t in range(grid.node_count))
        assert coeff_row(co, 0, 0)[k] == pytest.approx(direct, abs=1e-10)
    # phi_1^2 = (1 - cos 2x)/pi is even about pi/2: even-k sine coefficients vanish
    for k in range(1, grid.node_count, 2):   # k odd 0-based = even 1-based mode
        assert abs(coeff_row(co, 0, 0)[k]) < 1e-12


def test_parseval_and_symmetry(flat1d_small):
    grid, _, src, _ = flat1d_small
    co = expansion_coefficients(src, src, 8, grid.node_count)
    sums = np.sum(co.coeffs**2, axis=1)
    np.testing.assert_allclose(sums, co.product_l2_norms**2, rtol=1e-8)
    np.testing.assert_array_equal(coeff_row(co, 1, 4), coeff_row(co, 4, 1))


def test_quadratic_form_two_paths(flat1d_small):
    grid, op, src, lap = flat1d_small
    co = expansion_coefficients(src, src, 6, grid.node_count)
    rng = np.random.default_rng(42)
    for _ in range(10):
        i, j = sorted(rng.integers(0, 6, size=2))
        fg = product(src, i, j)
        spectral = quadratic_form_value(i, j, co, src)
        direct = inner(grid, op.matrix @ fg, fg)
        assert spectral == pytest.approx(direct, rel=1e-8)


def test_quadratic_form_laplacian_is_gradient_energy(flat1d_small, flat2d_small):
    grid, op_lap, src, lap = flat1d_small
    co = expansion_coefficients(src, lap, 4, grid.node_count)
    val = quadratic_form_value(0, 0, co, lap)
    f = product(src, 0, 0)
    assert val == pytest.approx(quadratic_form_values(op_lap, f), rel=1e-10)
    # the face differences, with zero ghost values past the Dirichlet ends
    diff = np.diff(f, prepend=0.0, append=0.0)
    energy = grid.quadrature_weight * np.sum(diff**2) / grid.spacing[0] ** 2
    assert val == pytest.approx(energy, rel=1e-10)
    # continuum value ||(2/pi) sin 2x||^2 = 2/pi for reference
    assert val == pytest.approx(2 / np.pi, rel=0.01)
    # a (G, c) block gives one value <-Delta f, f> per column: that of the
    # column alone
    for grid, op_lap, src, _ in (flat1d_small, flat2d_small):
        block = quadratic_form_values(op_lap, product_matrix(src, 4))
        assert block.shape == (10,)
        for (i, j), energy in zip(pair_list(4), block):
            alone = quadratic_form_values(op_lap, product(src, i, j))
            assert energy == pytest.approx(alone, rel=1e-12)


def test_sparse_quadratic_form_matches_the_spectral_sum():
    # on a complete basis Q = <L f, f> equals sum_k lambda_k c_k^2
    g = make_grid(2, (np.pi, np.pi), (10, 10), "dirichlet")
    spec = CoefficientSpec(RANDOM_FOURIER, seed=5, cutoff=3, a_amplitude=0.3, v_amplitude=0.5)
    op = assemble_schrodinger(sample_coefficients(spec, g), g)
    bL = dense_basis(op)
    co = expansion_coefficients(bL, bL, 6, g.node_count)
    Q = quadratic_form_values(op, product_matrix(bL, 6))
    for (i, j) in pair_list(6):
        assert Q[pair_row(i, j, 6)] == pytest.approx(quadratic_form_value(i, j, co, bL), rel=1e-10)


def test_potential_shift_identity():
    g = make_grid(1, np.pi, 96, "dirichlet")
    c = 1.5
    f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=c), g)
    bL = dense_basis(assemble_schrodinger(f, g))
    blap = laplacian_eigenpairs(assemble_laplacian(g), 96, 1e-9)
    lap = SpectralBasis(
        grid=g, eigenvalues=blap.eigenvalues,
        vectors=blap.vectors, residuals=blap.residuals, ortho_defect=blap.ortho_defect,
    )
    co_L = expansion_coefficients(bL, bL, 4, 96)
    co_lap = expansion_coefficients(bL, lap, 4, 96)
    for (i, j) in pair_list(4):
        q_L = quadratic_form_value(i, j, co_L, bL)
        q_lap = quadratic_form_value(i, j, co_lap, lap)
        norm_sq = co_L.product_l2_norms[pair_row(i, j, 4)] ** 2
        assert q_L == pytest.approx(q_lap + c * norm_sq, rel=1e-10)


def test_truncated_form_monotone(flat1d_small):
    grid, _, src, _ = flat1d_small
    full = expansion_coefficients(src, src, 4, grid.node_count)
    part = expansion_coefficients(src, src, 4, 24)
    for (i, j) in pair_list(4):
        assert quadratic_form_value(i, j, part, src) <= quadratic_form_value(
            i, j, full, src
        ) * (1 + 1e-12)


def test_chain_bound_flat_1d(flat1d_small):
    grid, _, src, _ = flat1d_small
    f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.0), grid)
    values = quadratic_form_values(assemble_schrodinger(f, grid), product_matrix(src, 16))
    bound = chain_bound(src, f, 16)
    assert np.all(values <= bound * (1.0 + 1e-12) + 1e-12)
    assert np.all(values <= bound)


def test_chain_bound_random_2d():
    g = make_grid(2, (np.pi, np.pi), (24, 24), "dirichlet")
    spec = CoefficientSpec(RANDOM_FOURIER, seed=7, cutoff=4, a_amplitude=0.3, v_amplitude=0.5)
    f = sample_coefficients(spec, g)
    op = assemble_schrodinger(f, g)
    bL = lowest_eigenpairs(op, 12, 1e-9)
    values = quadratic_form_values(op, product_matrix(bL, 12))
    assert np.all(values <= chain_bound(bL, f, 12) * (1.0 + 1e-12) + 1e-12)


def test_cluster_rotation_invariance(flat2d_small):
    grid, _, src, _ = flat2d_small
    # n = 4 is cluster-closed: eigenvalues 2, 5, 5, 8
    n = 4
    cluster = [1, 2]
    co = expansion_coefficients(src, src, n, grid.node_count)
    rot = rotate_cluster(src, cluster, seed=99)
    co_rot = expansion_coefficients(rot, rot, n, grid.node_count)
    lam = src.eigenvalues[: grid.node_count]

    def ordered_sum(c):
        total = 0.0
        for i in range(n):
            for j in range(n):
                q = float(np.dot(lam, coeff_row(c, i, j) ** 2))
                total += q
        return total

    s0, s1 = ordered_sum(co), ordered_sum(co_rot)
    assert abs(s0 - s1) <= 1e-8 * max(1.0, abs(s0))


def test_mean_zero_products_periodic():
    g = make_grid(1, 2 * np.pi, 64, "periodic")
    basis = laplacian_eigenpairs(assemble_laplacian(g), 64, 1e-9)
    src = SpectralBasis(
        grid=g, eigenvalues=basis.eigenvalues,
        vectors=basis.vectors, residuals=basis.residuals, ortho_defect=basis.ortho_defect,
    )
    co = expansion_coefficients(src, basis, 6, 64)
    k0 = int(np.argmin(np.abs(basis.eigenvalues)))   # the constant mode
    assert basis.eigenvalues[k0] == pytest.approx(0.0, abs=1e-10)
    for (i, j) in pair_list(6):
        if i != j:
            assert abs(coeff_row(co, i, j)[k0]) < 1e-12
