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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PERIODIC
from .eigensolve import SpectralBasis, sup_norms
from .operator import LAPLACIAN, DiscreteOperator
from .products import ProductCoefficients, pair_list, pair_row, product_matrix
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


def canonical_quadruples(n: int) -> list[tuple[int, int, int, int]]:
    """One representative (i<=j, k<=l, row(ij) <= row(kl)) per symmetry class."""
    pairs = pair_list(n)
    quads = []
    for p, (i, j) in enumerate(pairs):
        for (k, l) in pairs[p:]:
            quads.append((i, j, k, l))
    return quads


def sample_quadruples(n: int, count: int, seed: int) -> list[tuple[int, int, int, int]]:
    """Deterministic sample of canonical quadruples (all of them if few)."""
    quads = canonical_quadruples(n)
    if len(quads) <= count:
        return quads
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    idx = rng.choice(len(quads), size=count, replace=False)
    return [quads[t] for t in sorted(idx)]


@dataclass(frozen=True, eq=False)
class ERIResult:
    n: int
    r: int
    eps: float
    quadruples: list
    exact: np.ndarray
    fitted: np.ndarray
    certificates: np.ndarray      # t(ij) t(kl) per quadruple, t the H^-1 tail after r modes
    max_abs_error: float
    mean_abs_error: float
    certificate: float            # (worst-pair tail)^2 bounds every error
    exact_ops: int
    fitted_ops: int
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
    """Exact vs density-fitted integrals on a deterministic quadruple sample.

    r comes from the calibrated H^-1 cutoff; for n <= EXHAUSTIVE_MAX_N all
    quadruple classes are evaluated, larger n falls back to a seeded sample.
    The exact integrals come from one sparse LU of `op_lap` (GreenSolver);
    `exact_seconds` includes its factorization.  The modeled costs follow
    the evaluation counts: quadruples*G multiply-adds for the exact pairing
    versus r per quadruple (plus the r-term fit data per pair) for the
    surrogate.
    """
    if op_lap.grid != basis_L.grid:
        raise ValueError("the Laplacian operator lives on a different grid")
    if coeffs.n < n:
        raise ValueError(f"coefficients cover n={coeffs.n} < requested n={n}")
    family = coeffs.family_rows(n)
    _, S = sup_norms(basis_L, n)
    d = basis_L.grid.dimension
    r = min(cutoff(HM1, eps, n, S, d, calib_hm1), coeffs.m)

    if n <= EXHAUSTIVE_MAX_N:
        quads = canonical_quadruples(n)
    else:
        quads = sample_quadruples(n, SAMPLE_COUNT, sample_seed)

    weights = hm1_weights(coeffs)
    pair_tails = tail_table(coeffs, weights, family)[:, r]

    G = basis_L.grid.node_count

    t0 = time.perf_counter()
    prods = product_matrix(basis_L, n)                      # (G, pairs)
    pair_gram = basis_L.grid.quadrature_weight * (prods.T @ GreenSolver(op_lap).solve(prods))
    rows = np.array([(pair_row(i, j, n), pair_row(k, l, n)) for (i, j, k, l) in quads])
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
        exact_ops=len(quads) * G,
        fitted_ops=len(quads) * r + len(family) * r,
        exact_seconds=exact_seconds,
        fitted_seconds=fitted_seconds,
    )
