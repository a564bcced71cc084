"""Projection tails, spectral cutoffs and the SVD optimality oracle.

For a family of products the quantities of interest are the tails

    L2:    sqrt(sum_{k>r} c[i,j,k]^2)
    H^-1:  sqrt(sum_{k>r} c[i,j,k]^2 / mu_k)

(the latter against the Laplacian basis, dropping the constant mode on
periodic grids), held for every pair and every r in one `tail_table`,
together with three notions of rank at accuracy eps:

    r_predicted the cutoff ceil(calib * rank_base), with rank_base
                (S/eps)^d n [L2] or (S/eps)^(d/2) sqrt(n) [H^-1]
    r_empirical the smallest r whose worst-pair tail is <= eps
    r_oracle    the smallest SVD subspace dimension leaving every
                product with residual <= eps, among those that split
                no cluster of tied singular values

r_oracle comes from one eigendecomposition of the family's pair Gram
matrix, accumulated over row blocks, with each singular value re-read as
||A v_i|| in a second pass (a streamed QR and one SVD where eps lies below
what the Gram resolves, see GRAM_FLOOR); no rows x n(n+1)/2 matrix or left
singular vectors are formed.

The families are nested: the pairs of n are rows of the expansion of any
larger n (ProductCoefficients.family_rows), so every n is read in place
from the one expansion at n_max, and a sweep forms each norm's table once.

A windowed L2 table (the m modes of a resolved window, m < G) ends at r = m,
where the tail is the measured out-of-window mass; when no r <= m meets eps,
r_empirical is reported as m + 1, a lower bound.  A rank cell is `resolved`
when its worst-pair tail at the resolved window M is at most eps, on
complete and windowed tables alike.

The implicit constants hidden in the asymptotic statements are exposed as a
single calibration constant per formula; every rank report carries the
implied constant r_empirical / rank_base, and the largest one over a sweep
is the smallest sufficient calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .eigensolve import CLUSTER_REL_GAP, SpectralBasis, blocks, sup_norms
from .products import ProductCoefficients, pair_list, product_matrix

L2 = "l2"
HM1 = "hm1"
ORACLE_BLOCK = 1024   # rows per block of the oracle's Gram, second pass and QR: the
                      # Gram route holds one block at a time beside pairs^2 arrays
GRAM_FLOOR = 100.0
"""How far above the Gram's roundoff the smallest eps of an oracle call must
lie: the pair Gram A^T A resolves squared residuals only to about u theta_0
(u = machine epsilon, theta_0 = s_0^2 its largest eigenvalue), so a call
with eps^2 < GRAM_FLOOR u theta_0 takes the streamed QR and SVD instead.

Measured against the SVD on the presets (every n, both norms; numpy 2.4,
scipy 1.17, OpenBLAS, LAPACK dsyevr), at the k that close a cluster and
where the squared worst-pair curve lies above the floor:

    preset        smallest eps^2 / floor    worst relative error of the
                  (eps 1e-6)                squared curve, Gram against SVD
    flat-1d       4.4                       1.1e-12
    harmonic-1d   4.4                       1.1e-4
    flat-2d       22                        9.3e-14
    random-2d     22                        6.8e-4

(dsyevd, measured the same way: 1.1e-12, 1.7e-3, 1.8e-13 and 1.2e-3; the
two drivers' eigenvalues differ by at most 2.4e-15 theta_0.)  Within 1000x
of the floor the squared curve's absolute error stayed at or below
0.21 u theta_0 (0.50 with dsyevd): 2.1e-3 of eps^2 at the floor, less
above it, so the curve itself is off by at most about 0.1% there.  This is
the Gram route's accuracy contract: its rank is the SVD's unless eps lies
within about 0.1% of a value the worst-pair curve takes at a k that closes
a cluster (the tests probe harmonic-1d 0.1% either side of each such value
from the floor up).  A user eps that close to a curve value can read a
different r_oracle than an SVD would; the QR route is accurate to roundoff.

Below the floor it degrades.  On harmonic-1d, n = 32, L2 (s_0 = 3.22,
theta_0 = 10.3, sqrt(u) s_0 = 4.8e-8, floor eps 4.8e-7) the worst-pair
curve matches the SVD's to 0.15% at 3.6e-7 and to 0.8% at 8.4e-8, and reads
1.7e-8 against 9.9e-9 at 1e-8; without the QR route the L2 ranks at
(n, eps) = (16, 1e-8) and (32, 1e-8) read 35 and 141 against the SVD's 37
and 67.
"""


def tail_table(
    coeffs: ProductCoefficients, weights: np.ndarray | None = None, pairs=slice(None)
) -> np.ndarray:
    """T[p, r] = tail of pair p after r modes, for every r = 0..m at once,
    for the pair rows `pairs`, a slice or an index array of rows (all of
    them by default).  Each row of T is formed from its own pair alone, so
    a row reads the same bits in any selection of rows.

    `weights` (optional, length m) turns the L2 table into the H^-1 table,
    which needs a complete expansion.  Computed by reverse cumulative sums
    that start from the out-of-window mass (0 for a complete expansion), so
    one pass serves every r and T[p, m] is that mass's square root.  The
    table is formed in place in one buffer whose column m - r holds r, and
    returned as its reversed view.

    Each row is squared in the units of its row_scales power of two, as
    LAPACK's dnrm2 scales before it squares, and scaled back after the
    square root: a row of small entries then never squares into the
    subnormal range, and since the scale is exact, a row whose squares are
    normal floats reads the same bits as unscaled.
    """
    if weights is not None and coeffs.outside_mass is not None:
        raise ValueError("H^-1 tails need a complete expansion, got a windowed one")
    C = coeffs.coeffs[pairs]
    outside = 0.0 if coeffs.outside_mass is None else coeffs.outside_mass[pairs]
    largest = np.maximum(np.max(C, axis=1), -np.min(C, axis=1))
    scale = row_scales(np.maximum(largest, np.sqrt(outside)))
    rev = np.empty((C.shape[0], coeffs.m + 1))
    rev[:, 0] = outside * scale * scale   # s^2 alone can overflow
    np.multiply(C[:, ::-1], scale[:, None], out=rev[:, 1:])
    np.square(rev[:, 1:], out=rev[:, 1:])
    if weights is not None:
        rev[:, 1:] *= weights[None, ::-1]
    np.cumsum(rev, axis=1, out=rev)
    np.sqrt(rev, out=rev)
    rev /= scale[:, None]
    return rev[:, ::-1]


def row_scales(largest: np.ndarray) -> np.ndarray:
    """The power of two s >= 1 for each row whose largest magnitude is
    `largest` that brings it into [1/2, 1) when it lies below 1/2 (1 for a
    larger or an all-zero row).  Scaling by s is exact, and a tail or slack
    is homogeneous in its row (degree 1 and 2), so a row read in s units
    keeps its normal-float squares' bits.  Rows are never scaled down: that
    could push a small out-of-window mass beside large coefficients into
    the subnormal range."""
    return np.ldexp(1.0, -np.minimum(np.frexp(largest)[1], 0))


def hm1_weights(coeffs: ProductCoefficients) -> np.ndarray:
    """Weights 1/mu_k of the H^-1 tails over the expansion's target modes,
    0 on the constant mode of periodic grids, whose closed-form eigenvalue
    is exactly 0."""
    mu = coeffs.eigenvalues
    return np.divide(1.0, mu, out=np.zeros_like(mu), where=mu != 0.0)


def empirical_rank(max_tails: np.ndarray, eps: float) -> int:
    """Smallest r with worst-pair tail <= eps; len(max_tails), a lower
    bound, if none (only a windowed table can miss: a complete one ends at 0)."""
    hits = np.nonzero(max_tails <= eps)[0]
    return int(hits[0]) if hits.size else int(len(max_tails))


def rank_base(norm: str, eps: float, n: int, max_sup: float, d: int) -> float:
    """The rank formula without its constant: (S/eps)^d n for L2,
    (S/eps)^(d/2) sqrt(n) for H^-1."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if norm == L2:
        return (max_sup / eps) ** d * n
    if norm == HM1:
        return (max_sup / eps) ** (d / 2.0) * math.sqrt(n)
    raise ValueError(f"unknown norm {norm!r}")


def cutoff(norm: str, eps: float, n: int, max_sup: float, d: int, calib: float) -> int:
    """Rank prescribed by the calibrated bound: ceil(calib * rank_base), at least 1."""
    if not calib > 0:
        raise ValueError(f"calib must be positive, got {calib}")
    return max(1, math.ceil(calib * rank_base(norm, eps, n, max_sup, d)))


def oracle_rank(
    basis_src: SpectralBasis,
    n: int,
    eps_list,
    norm: str = L2,
    coeffs: ProductCoefficients | None = None,
) -> list[int]:
    """Smallest subspace dimension leaving every product residual <= eps,
    for each eps in `eps_list`, all read off one decomposition.

    The candidate subspaces are spans of left singular vectors of the
    product family; the per-column acceptance criterion mirrors the
    "for all i, j <= n" quantifier of the rank bounds.  Columns are the
    n(n+1)/2 distinct pairs with the off-diagonal ones scaled by sqrt(2), so
    A A^T is the Gram matrix of the ordered family (each i != j twice): the
    singular values and left singular vectors are the ordered family's,
    invariant under rotations inside degenerate clusters.  A column's
    squared residual is divided by its multiplicity (2 off the diagonal) to
    give the product's own.  Only cutoffs that close a cluster of tied
    singular values are candidates: inside one, the residuals depend on the
    basis the decomposition picked.

    L2: columns are sqrt(weight)-scaled node values of phi_i phi_j.
    H^-1: columns are the rows of the pairs of n in `coeffs` (Laplacian
    target, any family of at least n), gathered one row block at a time
    and scaled 1/sqrt(mu).

    The residuals read only the singular values s and right singular
    vectors V, and the pair Gram A^T A has V as its eigenvectors.  The Gram
    is summed over row blocks of ORACLE_BLOCK rows (one GEMM each) and
    decomposed in place by one LAPACK dsyevr, whose workspace is O(pairs);
    a second pass over the same blocks re-reads s_i = ||A v_i|| for the
    leading min(rows, pairs) directions, a contiguous slice of the
    eigenvectors, accurate to about u s_0 where sqrt(theta_i) is only
    accurate to sqrt(u) s_0.  The squared residuals are formed in the
    eigenvectors' buffer and summed one row of pairs at a time.  So the
    route holds at most two pairs^2 arrays, the Gram and the eigenvectors
    that dsyevr writes beside it, and once the Gram is freed the
    eigenvectors with one row block; everything else is O(pairs).

    A call whose smallest eps lies below the Gram's floor (GRAM_FLOOR)
    takes the SVD of the family's triangular factor R instead, built by a
    streamed QR over the same blocks; the Gram's largest diagonal entry, a
    lower bound on theta_0, sends most such calls there before the eigh.
    Neither route forms a rows x n(n+1)/2 matrix or a left singular vector.

    Accuracy: the QR route reads the SVD's ranks to roundoff.  The Gram
    route reads the same ranks unless eps lies within about 0.1% of a value
    the worst-pair curve takes at a cluster-closing k (the measured table
    is GRAM_FLOOR's docstring).
    """
    if not all(eps > 0 for eps in eps_list):
        raise ValueError(f"every eps must be positive, got {list(eps_list)}")
    if norm == L2:
        rows = basis_src.grid.node_count
    elif norm == HM1:
        if coeffs is None:
            raise ValueError("H^-1 oracle needs the Laplacian-target coefficients")
        family = coeffs.family_rows(n)   # raises unless n <= coeffs.n
        rows = coeffs.m
    else:
        raise ValueError(f"unknown norm {norm!r}")
    pairs = pair_list(n)
    mult = np.array([1.0 if i == j else 2.0 for i, j in pairs])
    sqrt_mult = np.sqrt(mult)
    if norm == L2:
        scale = math.sqrt(basis_src.grid.quadrature_weight) * sqrt_mult

        def block(lo: int, hi: int) -> np.ndarray:
            A = product_matrix(basis_src, n, slice(lo, hi))
            A *= scale
            return A

    else:
        sqrt_w = np.sqrt(hm1_weights(coeffs))[:, None]

        def block(lo: int, hi: int) -> np.ndarray:
            # the gathered rows are a fresh copy, so they are scaled in place
            A = coeffs.coeffs[family, lo:hi].T
            A *= sqrt_w[lo:hi]
            A *= sqrt_mult
            return A

    starts = range(0, rows, ORACLE_BLOCK)
    gram = np.zeros((len(pairs), len(pairs)))
    for lo in starts:
        A = block(lo, lo + ORACLE_BLOCK)
        gram += A.T @ A
    del A
    floor = GRAM_FLOOR * np.finfo(float).eps
    eps_sq = min(eps_list, default=math.inf) ** 2
    # theta_0 is at least the Gram's largest diagonal entry, so a call below
    # the floor on that alone takes the QR route without the eigh
    gram_route = eps_sq >= floor * np.max(gram.diagonal())
    if gram_route:
        # dsyevr in place on the Gram's transpose (the same symmetric matrix,
        # Fortran-ordered so LAPACK takes it without a copy): its workspace
        # is 26 pairs doubles against dsyevd's 2 pairs^2
        theta, V = scipy.linalg.eigh(gram.T, overwrite_a=True, check_finite=False, driver="evr")
        gram_route = eps_sq >= floor * theta[-1]
    del gram
    if gram_route:
        # the leading directions, as many as the SVD returns, in LAPACK's
        # ascending order: a contiguous slice, so no GEMM copies it
        V = V[:, len(pairs) - min(rows, len(pairs)) :]
        s_sq = np.zeros(V.shape[1])
        for lo in starts:
            AV = block(lo, lo + ORACLE_BLOCK) @ V
            s_sq += np.einsum("ij,ij->j", AV, AV)
        s = np.sqrt(s_sq)
        # T[i, j] = (s_i V[j, i])^2 / mult_j, formed in V's buffer and read
        # with the leading direction first
        V *= s
        np.square(V, out=V)
        V /= mult[:, None]
        s, T = s[::-1], V.T[::-1]
    else:
        # the triangular factor R of the family, stacked and re-factored one
        # row block at a time; a family of at most ORACLE_BLOCK rows is its own R
        R = block(0, ORACLE_BLOCK)
        for lo in starts[1:]:
            R = np.linalg.qr(np.vstack([R, block(lo, lo + ORACLE_BLOCK)]), mode="r")
        _, s, Vh = np.linalg.svd(R, full_matrices=False)
        T = (s[:, None] * Vh) ** 2 / mult
    return _read_ranks(s, T, eps_list)


def _read_ranks(s: np.ndarray, T: np.ndarray, eps_list) -> list[int]:
    """The oracle's rank for each eps from the singular values s (largest
    first) and T[i, j], the squared part of product j along direction i.

    The squared residual of product j after keeping k directions is
    sum_{i>=k} T[i, j].  It is summed as a running sum over T's rows from
    the last up, in the order np.cumsum(T[::-1], axis=0) adds them, so the
    worst-pair curve has that formula's bits while only one row of pairs
    is held; the curve ends at 0 (k = all), which meets every eps.
    """
    worst_sq = np.zeros(len(s) + 1)
    resid_sq = np.zeros(T.shape[1])
    for k in range(len(s) - 1, -1, -1):
        resid_sq += T[k]
        worst_sq[k] = np.max(resid_sq)
    worst = np.sqrt(worst_sq)
    # a k that splits a cluster of tied singular values keeps whichever part
    # of it the decomposition happened to return, so the curve is read only
    # at k that close one (the CLUSTER_REL_GAP rule, relative to s_0)
    closes = np.ones(len(s) + 1, dtype=bool)
    closes[1:-1] = s[:-1] - s[1:] >= CLUSTER_REL_GAP * s[0]
    return [int(np.argmax(closes & (worst <= eps))) for eps in eps_list]


def geometric_r_samples(m: int, extra=()) -> list[int]:
    """r values 0, 1, 2, 4, ... m plus any extra cutoffs, sorted unique."""
    samples = {0, m}
    r = 1
    while r < m:
        samples.add(r)
        r *= 2
    samples.update(int(r) for r in extra if 0 <= r <= m)
    return sorted(samples)


def tail_identity_slack(eigenvalues: np.ndarray, tails: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per pair, the worst eigenvalues[r-1] * tails[:, r]^2 - rhs[:, r] over
    the geometric samples r >= 1 of a (pairs, m+1) tail table.

    Every mode beyond r has eigenvalue >= eigenvalues[r-1], so the slack is
    <= 0 up to roundoff whenever rhs bounds the eigenvalue-weighted tail:
    the quadratic form Q = sum_k lambda_k c_k^2 for the L2 tails against
    L's basis (`rhs` of shape (pairs, 1)), and the squared L2 tail against
    the Laplacian basis for the H^-1 tails.  Tails and rhs share their
    units: a row of tails given in row_scales units s (times s) with its
    rhs times s^2 has its slack times s^2, exactly while the squares are
    normal floats, so tiny rows are compared in those units.
    """
    r = np.array([r for r in geometric_r_samples(tails.shape[1] - 1) if r >= 1])
    rhs = np.broadcast_to(rhs, tails.shape)
    return np.max(eigenvalues[r - 1] * tails[:, r] ** 2 - rhs[:, r], axis=1)


def tail_slope(r_values, tails, floor: float = 1e-13) -> float | None:
    """Log-log slope of tail vs r, ignoring r=0 and roundoff-floor samples;
    None when fewer than two samples are left to fit."""
    r = np.asarray(r_values, dtype=float)
    t = np.asarray(tails, dtype=float)
    keep = (r > 0) & (t > floor)
    if np.sum(keep) < 2:
        return None
    slope, _ = np.polyfit(np.log(r[keep]), np.log(t[keep]), 1)
    return float(slope)


@dataclass(frozen=True)
class RankReport:
    """Per-(n, eps, norm) rank comparison."""

    n: int
    eps: float
    norm: str
    r_predicted: int
    r_empirical: int
    r_oracle: int
    max_sup: float
    implied_constant: float      # a lower bound where r_empirical is one
    resolved: bool               # worst-pair tail at the resolved window <= eps


@dataclass(frozen=True)
class ScalingReport:
    rank_reports: list[RankReport]   # the rows of ranks.csv, in its column order
    tail_rows: list[tuple]           # the rows of tails.csv: (norm, i, j, r, tail)


def scaling_report(
    basis_src: SpectralBasis,
    coeffs_l2: ProductCoefficients | None,
    coeffs_hm1: ProductCoefficients | None,
    n_list,
    eps_list,
    norms,
    oracle_ranks: dict,
    calib_l2: float,
    calib_hm1: float,
    window: int,
) -> ScalingReport:
    """Sweep (n, eps, norm) cells; return the rows of ranks.csv and
    tails.csv.

    `oracle_ranks[(norm, n)]` holds the oracle_rank of each eps in
    `eps_list`.  `window` is the resolved window M (every table holds at
    least M modes): a cell is resolved when its worst-pair tail at r = M is
    at most eps.  The tails of n = max(n_list) are sampled, pairs 1-based
    and i = j = 0 the worst-pair aggregate.

    The families are nested, so each norm's tail table is formed once, over
    the pairs of max(n_list) read in place from the coefficients (of any
    family of at least that n), one block of pairs at a time
    (eigensolve.blocks); each n keeps a running max over the rows whose
    larger index lies below n.
    """
    d = basis_src.grid.dimension
    curve_n = max(n_list)
    pairs = pair_list(curve_n)
    larger = np.array([j for _, j in pairs])
    sups = {n: sup_norms(basis_src, n)[1] for n in n_list}
    reports: list[RankReport] = []
    rows: list[tuple] = []

    for norm in norms:
        if norm == L2:
            coeffs, weights, calib = coeffs_l2, None, calib_l2
        elif norm == HM1:
            coeffs, calib = coeffs_hm1, calib_hm1
            weights = hm1_weights(coeffs)
        else:
            raise ValueError(f"unknown norm {norm!r}")

        cutoffs = {n: [cutoff(norm, eps, n, sups[n], d, calib) for eps in eps_list] for n in n_list}
        r_samples = geometric_r_samples(coeffs.m, extra=cutoffs[curve_n])
        family = coeffs.family_rows(curve_n)
        max_tails = np.zeros((len(n_list), coeffs.m + 1))
        pair_rows = []
        for cols in blocks(len(pairs)):
            table = tail_table(coeffs, weights, family[cols])
            for n, curve in zip(n_list, max_tails):
                inside = (larger[cols] < n)[:, None]
                np.maximum(curve, np.max(table, axis=0, where=inside, initial=0.0), out=curve)
            for (i, j), tails in zip(pairs[cols], table[:, r_samples].tolist()):
                pair_rows += [(norm, i + 1, j + 1, r, t) for r, t in zip(r_samples, tails)]

        for n, curve in zip(n_list, max_tails):
            for eps, r_pred, r_orc in zip(eps_list, cutoffs[n], oracle_ranks[norm, n]):
                r_emp = empirical_rank(curve, eps)
                reports.append(
                    RankReport(
                        n=n,
                        eps=eps,
                        norm=norm,
                        r_predicted=r_pred,
                        r_empirical=r_emp,
                        r_oracle=r_orc,
                        max_sup=sups[n],
                        implied_constant=r_emp / rank_base(norm, eps, n, sups[n], d),
                        resolved=bool(curve[window] <= eps),
                    )
                )
        worst = max_tails[list(n_list).index(curve_n)]
        rows += [(norm, 0, 0, r, float(worst[r])) for r in r_samples] + pair_rows

    return ScalingReport(rank_reports=reports, tail_rows=rows)
