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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import SCHRODINGER, CoefficientField, DiscreteOperator
from .eigensolve import SpectralBasis, sup_norms


def pair_list(n: int) -> list[tuple[int, int]]:
    """Upper-triangle pairs (i, j), i <= j < n, lexicographic."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_row(i: int, j: int, n: int) -> int:
    """Row of pair (i, j) in the pair_list(n) ordering."""
    if i > j:
        i, j = j, i
    if not 0 <= i <= j < n:
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

    def restrict(self, n: int) -> "ProductCoefficients":
        """Coefficients of the sub-family with both indices below n (self
        itself at n = self.n)."""
        if not 1 <= n <= self.n:
            raise ValueError(f"n must satisfy 1 <= n <= {self.n}, got {n}")
        if n == self.n:
            return self
        rows = [pair_row(i, j, self.n) for i, j in pair_list(n)]
        return ProductCoefficients(
            n=n,
            m=self.m,
            eigenvalues=self.eigenvalues,
            coeffs=self.coeffs[rows],
            product_l2_norms=self.product_l2_norms[rows],
            outside_mass=None if self.outside_mass is None else self.outside_mass[rows],
        )


def product_matrix(basis: SpectralBasis, n: int, nodes: slice = slice(None)) -> np.ndarray:
    """Node values of the n(n+1)/2 distinct products, one pair (i <= j) per
    column in pair_list(n) order, on the node rows `nodes` (all of them by
    default).  The pairs (i, i..n-1) of each i are written into one
    preallocated block by one multiply."""
    if not 1 <= n <= basis.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis.count}, got {n}")
    basis.require_columns(n)
    V = basis.vectors[nodes, :n]
    prods = np.empty((V.shape[0], n * (n + 1) // 2))
    start = 0
    for i in range(n):
        np.multiply(V[:, i : i + 1], V[:, i:], out=prods[:, start : start + n - i])
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
    prods = product_matrix(basis_src, n)                    # (G, pairs)
    if basis_target.axis_vectors is None:
        coeffs = w * (prods.T @ basis_target.vectors[:, :m])    # (pairs, m)
    else:
        coeffs = w * _tensor_coefficients(prods, basis_target, m)
    norms = np.sqrt(w * np.sum(prods * prods, axis=0))
    outside = None
    if windowed:
        resid = prods - basis_target.vectors[:, :m] @ coeffs.T
        outside = w * np.sum(resid * resid, axis=0)
    return ProductCoefficients(
        n=n,
        m=m,
        eigenvalues=basis_target.eigenvalues[:m],
        coeffs=coeffs,
        product_l2_norms=norms,
        outside_mass=outside,
    )


def _tensor_coefficients(prods: np.ndarray, basis: SpectralBasis, m: int) -> np.ndarray:
    """sum over nodes of prods[:, p] * psi_k for the first m modes of a
    closed-form basis, contracting one axis factor at a time."""
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
    return op.grid.quadrature_weight * np.sum(prods * (op.matrix @ prods), axis=0)


@dataclass(frozen=True, eq=False)
class QuadraticChainReport:
    """Per-pair values and the fully traced upper bound for the key estimate

        <L(phi_i phi_j), phi_i phi_j>  <=  v_sup S^2 + a_max (2 sqrt((lambda_n + v_sup)/a_min) S)^2

    with S = max_{i<n} ||phi_i||_inf.  Every constant in the chain is carried
    explicitly so a failure pinpoints which step broke.
    """

    n: int
    values: np.ndarray       # (pairs,) quadratic form values
    bound: float
    ok: bool


def quadratic_chain_report(
    op_L: DiscreteOperator,
    basis_L: SpectralBasis,
    field: CoefficientField,
    prods: np.ndarray,
) -> QuadraticChainReport:
    """Evaluate the traced bound for every pair i <= j < n, whose products
    are the columns of prods = product_matrix(basis_L, n)."""
    if op_L.kind != SCHRODINGER:
        raise ValueError(f"chain bound applies to the {SCHRODINGER} operator, got {op_L.kind!r}")
    n = int(np.sqrt(2 * prods.shape[1]))   # n(n+1)/2 pairs: n^2 < 2 pairs < (n+1)^2
    values = quadratic_form_values(op_L, prods)
    lam_n = basis_L.eigenvalues[n - 1]
    _, S = sup_norms(basis_L, n)
    grad_bound = 2.0 * np.sqrt((lam_n + field.v_sup) / field.a_min) * S
    bound = field.v_sup * S**2 + field.a_max * grad_bound**2
    ok = bool(np.all(values <= bound * (1.0 + 1e-12) + 1e-12))
    return QuadraticChainReport(n=n, values=values, bound=float(bound), ok=ok)
