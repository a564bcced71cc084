"""Four-center repulsion integrals and their rank-r density-fitted surrogate.

On a bounded discretized domain the repulsion kernel is the Green's function
of -Delta (the direct analogue of 1/|x-y|, and exactly the H^-1 pairing), so

    (ij|kl) = <phi_i phi_j, (-Delta)^{-1} (phi_k phi_l)>.

The benchmark sets a spectral fit against a sparse solve.  The exact side
uses no eigenbasis of -Delta at all: with P the (G, pairs) matrix of product
node values, one sparse LU factorization of the assembled Laplacian solves
U = (-Delta)^{-1} P for every product density at once, and every exact
integral is an entry of the pair Gram matrix E = w P^T U, so
(ij|kl) = E[row(ij), row(kl)].  The fitted side truncates the spectral
expansion in the Laplacian eigenbasis at rank r and forms only the
evaluated entries, one r-term dot product per quadruple,

    fitted(ij|kl) = sum_{t <= r} c[i,j,t] c[k,l,t] / mu_t,

(the constant mode of periodic grids has weight 0, as in the H^-1 tails),
and its error is certified by Cauchy-Schwarz on the discarded sum:
|exact - fitted| <= t(ij) t(kl), with t the H^-1 tail of a pair after r
modes.  A wrong or incomplete spectral side therefore shows up as a
certificate violation.

Each quadruple class is named by the pair rows of (ij) and (kl), so both
sides read their entries by index, and the benchmark reports the measured
seconds of each side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PERIODIC
from .eigensolve import SpectralBasis, blocks, sup_norms
from .operator import LAPLACIAN, DiscreteOperator
from .products import ProductCoefficients, product_matrix
from .lowrank import HM1, cutoff, hm1_weights, tail_table

SAMPLE_COUNT = 500        # quadruples sampled when n > EXHAUSTIVE_MAX_N
EXHAUSTIVE_MAX_N = 12     # up to this n every quadruple class is evaluated


class GreenSolver:
    """Sparse-factorization realization of (-Delta)^{-1}.

    Dirichlet Laplacians factor directly; periodic ones are singular, so the
    solve goes through the bordered system [[A, e], [e^T, 0]] on mean-free
    right-hand sides, which pins the mean of the solution to zero.  Each
    solve takes one step of iterative refinement: the LU's forward error
    grows with the condition number of -Delta, about (p+1)^2 per axis, and
    the step cuts it several-fold (on a 512-node axis of length 100 pi from
    3e-14 to 5e-15 relative in the pair Gram matrix).
    """

    def __init__(self, op_lap: DiscreteOperator):
        if op_lap.kind != LAPLACIAN:
            raise ValueError(f"GreenSolver needs a laplacian operator, got {op_lap.kind!r}")
        self.grid = op_lap.grid
        self.periodic = self.grid.boundary == PERIODIC
        mat = op_lap.matrix.tocsc()
        if self.periodic:
            e = np.ones((op_lap.size, 1))
            mat = sp.bmat([[mat, e], [e.T, None]], format="csc")
        self._matrix = mat
        self._lu = spla.splu(mat)

    def solve(self, densities: np.ndarray) -> np.ndarray:
        """u = (-Delta)^{-1} rho for a (G,) density or each column of a (G, c)
        block; periodic densities are made mean-free first."""
        rho = np.asarray(densities, dtype=np.float64)
        if rho.shape[0] != self.grid.node_count:
            raise ValueError(
                f"densities have {rho.shape[0]} rows, the grid {self.grid.node_count} nodes"
            )
        if not self.periodic:
            return self._refined_solve(rho)
        rhs = np.concatenate([rho - np.mean(rho, axis=0), np.zeros((1,) + rho.shape[1:])])
        return self._refined_solve(rhs)[:-1]

    def _refined_solve(self, rhs):
        u = self._lu.solve(rhs)
        u += self._lu.solve(rhs - self._matrix @ u)
        return u


def fitted_integrals(
    coeffs: ProductCoefficients, weights: np.ndarray, r: int, family, rows: np.ndarray
) -> np.ndarray:
    """Rank-r surrogate of the pair Gram entries (rows[q, 0], rows[q, 1]):
    sum_{t<r} c[i,j,t] c[k,l,t] weights[t], with `weights` from hm1_weights.
    `family` selects the pairs' rows of `coeffs` (ProductCoefficients.family_rows,
    or a slice), and `rows` indexes the pairs it selects.

    The family's rows are scaled by sqrt(weights) once (pairs * r
    multiplies) and each entry is one r-term dot product of two scaled rows
    (r per entry), so swapping the two pairs of an entry gives the same bits.
    """
    D = coeffs.coeffs[family, :r] * np.sqrt(weights[:r])
    return np.sum(D[rows[:, 0]] * D[rows[:, 1]], axis=1)


def quadruple_classes(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One representative (i<=j, k<=l, row(ij) <= row(kl)) of each symmetry
    class of quadruples, in class order: every class for n <= EXHAUSTIVE_MAX_N,
    else the SAMPLE_COUNT of them that `seed` draws.  Returns the (Q, 4)
    array of (i, j, k, l) and the (Q, 2) array of their pair rows in
    pair_list(n) order."""
    pairs = np.stack(np.triu_indices(n), axis=1)       # pair_list(n) order
    p, q = np.triu_indices(len(pairs))
    if n > EXHAUSTIVE_MAX_N:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        drawn = np.sort(rng.choice(p.size, size=SAMPLE_COUNT, replace=False))
        p, q = p[drawn], q[drawn]
    rows = np.stack([p, q], axis=1)
    return pairs[rows].reshape(-1, 4), rows


@dataclass(frozen=True, eq=False)
class ERIResult:
    n: int
    r: int
    eps: float
    quadruples: np.ndarray        # (Q, 4) ints, the (i, j, k, l) of each class evaluated
    exact: np.ndarray
    fitted: np.ndarray
    certificates: np.ndarray      # t(ij) t(kl) per quadruple, t the H^-1 tail after r modes
    max_abs_error: float
    mean_abs_error: float
    certificate: float            # (worst-pair tail)^2 bounds every error
    exact_seconds: float
    fitted_seconds: float


def eri_benchmark(
    n: int,
    eps: float,
    basis_L: SpectralBasis,
    op_lap: DiscreteOperator,
    coeffs: ProductCoefficients,
    calib_hm1: float,
    sample_seed: int,
) -> ERIResult:
    """Exact vs density-fitted integrals on the quadruple classes of
    quadruple_classes(n, sample_seed), all of them or a seeded sample.

    r comes from the calibrated H^-1 cutoff.  The exact integrals come from
    one sparse LU of `op_lap` (GreenSolver); `exact_seconds` times that
    factorization, the solve and the pairing, `fitted_seconds` the surrogate.
    The pair tails are read one eigensolve.BLOCK of pairs at a time, so no
    whole tail table is formed.
    """
    if op_lap.grid != basis_L.grid:
        raise ValueError("the Laplacian operator lives on a different grid")
    family = coeffs.family_rows(n)
    _, S = sup_norms(basis_L, n)
    d = basis_L.grid.dimension
    r = min(cutoff(HM1, eps, n, S, d, calib_hm1), coeffs.m)
    quads, rows = quadruple_classes(n, sample_seed)

    weights = hm1_weights(coeffs)
    pair_tails = np.concatenate(
        [tail_table(coeffs, weights, family[b])[:, r] for b in blocks(len(family))]
    )

    t0 = time.perf_counter()
    prods = product_matrix(basis_L, n)                      # (G, pairs)
    pair_gram = basis_L.grid.quadrature_weight * (prods.T @ GreenSolver(op_lap).solve(prods))
    exact = pair_gram[rows[:, 0], rows[:, 1]]
    exact_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fitted = fitted_integrals(coeffs, weights, r, family, rows)
    fitted_seconds = time.perf_counter() - t0

    err = np.abs(exact - fitted)
    worst_tail = float(np.max(pair_tails))
    return ERIResult(
        n=n,
        r=r,
        eps=eps,
        quadruples=quads,
        exact=exact,
        fitted=fitted,
        certificates=pair_tails[rows[:, 0]] * pair_tails[rows[:, 1]],
        max_abs_error=float(np.max(err)),
        mean_abs_error=float(np.mean(err)),
        certificate=worst_tail**2,
        exact_seconds=exact_seconds,
        fitted_seconds=fitted_seconds,
    )
