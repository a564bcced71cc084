"""Pointwise products of eigenfunctions and their spectral expansions.

The central object is the tensor c[i,j,k] = <phi_i phi_j, psi_k> with
(phi) a source basis and (psi) a target basis (same operator for the L2
theory, the plain Laplacian for the H^-1 theory).  Pairs are stored once
(i <= j); the tensor is dense because generic potentials leave it without
exploitable sparsity.  A closed-form target is applied axis by axis, one
contraction of the product block with each (p, p) axis factor, so no (G, G)
basis is ever formed; any other target takes one GEMM with its stored
vectors.  Either way the reduction order per coefficient is fixed for a
given thread count.

An expansion over fewer than G target modes is a window: it also carries
each product's out-of-window mass ||f - sum_{k<m} c_k psi_k||^2, measured
as the norm of that residual (not as ||f||^2 - sum c_k^2, which cancels), so
tails past the window stay exact sums of nonnegative terms.

Working set (eigensolve's rule, one constant eigensolve.BLOCK).  An
expansion keeps its coefficient array whole and forms every other array of
G x pairs in blocks: a closed-form target contracts the products one block
of BLOCK pairs at a time, and the out-of-window residual is formed BLOCK
node rows at a time.  The one other array of that size is a stored target's
product block, kept whole for its one GEMM (cut into pair blocks, that GEMM
sums some coefficients in another order) and read by node rows after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .operator import CoefficientField, DiscreteOperator
from .eigensolve import SpectralBasis, blocks, row_sums, sup_norms


def pair_list(n: int) -> np.ndarray:
    """The (n(n+1)/2, 2) array of upper-triangle pairs (i, j), i <= j < n,
    lexicographic: the pair order of every family."""
    return np.stack(np.triu_indices(n), axis=1)


def pair_row(i, j, n: int):
    """Row of pair (i, j) in the pair_list(n) ordering, or the array of rows
    of index arrays i and j."""
    i, j = np.minimum(i, j), np.maximum(i, j)
    if not np.all((0 <= i) & (j < n)):
        raise IndexError(f"pair ({i}, {j}) out of range for n={n}")
    return i * n - (i * (i - 1)) // 2 + (j - i)


@dataclass(frozen=True, eq=False)
class ProductCoefficients:
    """Expansion coefficients of all products phi_i phi_j, i <= j < n.

    coeffs[p, k] = <phi_i phi_j, psi_k> for pair p = pair_row(i, j, n) and
    target index k < m, and eigenvalues[k] the eigenvalue of psi_k (a view
    of the target basis's).  product_l2_norms[p] = ||phi_i phi_j||_L2.
    outside_mass[p] is the squared L2 norm of the product's component
    outside the m target modes for a windowed expansion (m < G), and None
    for a complete one.
    """

    n: int
    m: int
    eigenvalues: np.ndarray
    coeffs: np.ndarray
    product_l2_norms: np.ndarray
    outside_mass: np.ndarray | None = None

    def family_rows(self, n: int) -> np.ndarray:
        """Rows of the sub-family with both indices below n in these arrays,
        in pair_list(n) order: the family of n read in place."""
        if not 1 <= n <= self.n:
            raise ValueError(f"n must satisfy 1 <= n <= {self.n}, got {n}")
        i, j = pair_list(n).T
        return pair_row(i, j, self.n)


def product_matrix(
    basis: SpectralBasis, n: int, nodes: slice = slice(None), pairs: slice = slice(None)
) -> np.ndarray:
    """Node values of the n(n+1)/2 distinct products, one pair (i <= j) per
    column in pair_list(n) order, on the node rows `nodes` and the pair
    columns `pairs` (all of them by default).  The pairs (i, j) of each i
    that the columns hold are written into one preallocated block by one
    multiply."""
    if not 1 <= n <= basis.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis.count}, got {n}")
    basis.require_columns(n)
    V = basis.vectors[nodes, :n]
    lo, hi, _ = pairs.indices(n * (n + 1) // 2)
    prods = np.empty((V.shape[0], max(hi - lo, 0)))
    start = 0   # the row of pair (i, i)
    for i in range(n):
        first, last = max(lo, start), min(hi, start + n - i)
        if first < last:
            j = i + first - start
            out = prods[:, first - lo : last - lo]
            np.multiply(V[:, i : i + 1], V[:, j : j + last - first], out=out)
        start += n - i
    return prods


def expansion_coefficients(
    basis_src: SpectralBasis,
    basis_target: SpectralBasis,
    n: int,
    m: int,
) -> ProductCoefficients:
    """c[i,j,k] = <phi_i phi_j, psi_k> for i <= j < n, k < m.

    For m < G the target's first m eigenfunctions must be stored as
    columns: the out-of-window mass is the norm of the residual against them.
    Apart from the result and a stored target's one product block, every
    array of G x pairs is formed in blocks (module docstring).
    """
    if basis_src.grid != basis_target.grid:
        raise ValueError("source and target bases live on different grids")
    if not 1 <= n <= basis_src.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis_src.count}, got {n}")
    if not 1 <= m <= basis_target.count:
        raise ValueError(f"m must satisfy 1 <= m <= {basis_target.count}, got {m}")
    w = basis_src.grid.quadrature_weight
    windowed = m < basis_src.grid.node_count
    if basis_target.axis_vectors is None or windowed:
        basis_target.require_columns(m)
    pairs = n * (n + 1) // 2
    if basis_target.axis_vectors is None:
        prods = product_matrix(basis_src, n)                    # (G, pairs)
        coeffs = prods.T @ basis_target.vectors[:, :m]          # (pairs, m)
        coeffs *= w
        sums = np.zeros(pairs)
        for rows in blocks(prods.shape[0]):
            sums = _add_rows(sums, np.square(prods[rows]))
        product_rows = prods.__getitem__
    else:
        coeffs = np.empty((pairs, m))
        sums = np.empty(pairs)
        for cols in blocks(pairs):
            prods = product_matrix(basis_src, n, pairs=cols)
            coeffs[cols] = _tensor_coefficients(prods, basis_target, m)
            coeffs[cols] *= w
            sums[cols] = row_sums(np.square(prods))
        product_rows = partial(product_matrix, basis_src, n)
    outside = None
    if windowed:
        # the residual f - sum_k c_k psi_k, BLOCK node rows at a time
        V = basis_target.vectors[:, :m]
        outside = np.zeros(pairs)
        for rows in blocks(V.shape[0]):
            resid = V[rows] @ coeffs.T
            np.subtract(product_rows(rows), resid, out=resid)
            outside = _add_rows(outside, np.square(resid, out=resid))
        outside *= w
    return ProductCoefficients(
        n=n,
        m=m,
        eigenvalues=basis_target.eigenvalues[:m],
        coeffs=coeffs,
        product_l2_norms=np.sqrt(w * sums),
        outside_mass=outside,
    )


def _add_rows(total, rows):
    """total plus the rows of `rows` added one after another (row_sums), so
    that node-row blocks added in turn give the bits of one whole sum."""
    part = np.empty((rows.shape[0] + 1, total.size))
    part[0] = total
    part[1:] = rows
    return row_sums(part)


def _tensor_coefficients(prods: np.ndarray, basis: SpectralBasis, m: int) -> np.ndarray:
    """sum over nodes of prods[:, p] * psi_k for the first m modes of a
    closed-form basis, contracting one axis factor at a time; its
    temporaries are each the size of the block prods."""
    points = basis.grid.points_per_axis
    # node (i0, i1, ...) is row i0 + p0*i1 + ..., so the C-order node axes
    # run i_{d-1}, ..., i0; contracting the leading one each time appends
    # k_{d-1}, ..., k0 and leaves mode (k0, k1, ...) at k0 + p0*k1 + ...
    block = prods.T.reshape((prods.shape[1],) + points[::-1])
    for vec in reversed(basis.axis_vectors):
        block = np.tensordot(block, vec, axes=([1], [0]))
    flat = np.ravel_multi_index(tuple(k[:m] for k in basis.modes), points, order="F")
    return block.reshape(prods.shape[1], -1)[:, flat]


def quadratic_form_values(op: DiscreteOperator, prods: np.ndarray) -> np.ndarray:
    """Q[p] = <op f_p, f_p> for each column f_p of the node values `prods`
    (product_matrix), straight from the sparse matrix (no spectral sum, so
    no complete basis)."""
    if prods.shape[0] != op.size:
        raise ValueError(f"{prods.shape[0]} node values per column for {op.size} nodes")
    return op.grid.quadrature_weight * row_sums(prods * (op.matrix @ prods))


def chain_bound(basis_L: SpectralBasis, field: CoefficientField, n: int) -> float:
    """The fully traced upper bound of the key estimate

        <L(phi_i phi_j), phi_i phi_j>  <=  v_sup S^2 + a_max (2 sqrt((lambda_n + v_sup)/a_min) S)^2

    for every pair i <= j < n, with S = max_{i<n} ||phi_i||_inf and L the
    Schrodinger operator of `field` whose eigenbasis is basis_L."""
    lam_n = basis_L.eigenvalues[n - 1]
    _, S = sup_norms(basis_L, n)
    grad_bound = 2.0 * np.sqrt((lam_n + field.v_sup) / field.a_min) * S
    return float(field.v_sup * S**2 + field.a_max * grad_bound**2)
