"""Lowest eigenpairs of the stencil operators, with certificates.

The flat Laplacian separates over the axes, so laplacian_eigenpairs builds
its eigenpairs in closed form (tensor products of sines or real Fourier
modes); the pipeline uses it for -Delta on every config and for L on flat
ones, where L is the same stencil.  The closed form keeps every eigenvalue
and the per-axis eigenvector matrices, but writes out only the leading
columns that callers read node by node; the expansion coefficients
contract with the axis factors instead (products.expansion_coefficients).
Its certificates are per-axis bounds that cover every tensor mode plus
measured residual and Gram checks of the written columns against the
assembled operator.

Any other operator goes through lowest_eigenpairs, which solves only the
window it is asked for: an index-range dense solve up to DENSE_CAP unknowns
(LAPACK's eigh with subset_by_index, which counts eigenvalues by Sturm
sequences, so the window holds the m lowest modes and none is skipped;
deterministic for a fixed BLAS thread count), shift-inverted Lanczos above
it, with residual verification against the same tolerance.  The window grows
to close the degenerate cluster at its end.  Eigenvectors are
normalized in the grid inner product, signs are fixed (first significant
component positive) and near-degenerate clusters are re-orthonormalized so
downstream tensors are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .grid import Grid, make_grid
from .operator import (
    LAPLACIAN,
    CoefficientField,
    DiscreteOperator,
    assemble_laplacian,
    axis_eigenvalues,
    axis_eigenvectors,
)

DENSE_CAP = 5000
DEFAULT_TOL = 1e-9
CLUSTER_REL_GAP = 1e-8
ORTHO_TOL = 1e-10
RESIDUAL_BLOCK = 256   # columns per block of the residual certificate
CLUSTER_PAD = 16       # modes solved past a window to find where its end cluster closes


class EigensolveError(RuntimeError):
    """Iterative solve failed to certify; carries the best residual seen."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Ordered eigenpairs of a discrete operator.

    eigenvalues holds `count` values in ascending order; vectors holds the
    first `materialized` eigenfunctions as columns, orthonormal under the
    grid inner product, i.e. Euclidean norm quadrature_weight^(-1/2).
    residuals[k] is the scaled certificate
    ||M phi - lambda phi|| / (||phi|| (1 + |lambda|)) for all `count` pairs.
    ortho_defect is the orthonormality certificate, computed once when the
    basis is built (gram_defect() unless the builder supplies it).

    Closed-form bases also carry their tensor structure: axis_vectors[a] is
    the (p_a, p_a) eigenvector matrix of axis a, and modes[a][k] the axis-a
    mode index of eigenpair k, so eigenfunction k is the product of the
    columns axis_vectors[a][:, modes[a][k]].  Both are None for bases from
    a dense or iterative solve, which store every vector they hold.
    """

    grid: Grid
    tag: str
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ortho_defect: float | None = None
    axis_vectors: tuple | None = None
    modes: tuple | None = None

    def __post_init__(self):
        if self.ortho_defect is None:
            object.__setattr__(self, "ortho_defect", self.gram_defect())

    @property
    def count(self) -> int:
        """Number of eigenpairs (eigenvalues and residuals)."""
        return int(self.eigenvalues.shape[0])

    @property
    def materialized(self) -> int:
        """Number of eigenfunctions stored as columns of `vectors`."""
        return int(self.vectors.shape[1])

    def require_columns(self, k: int) -> None:
        """Raise unless the first k eigenfunctions are stored as columns."""
        if k > self.materialized:
            raise IndexError(
                f"{k} eigenfunctions requested, but the basis stores "
                f"{self.materialized} of its {self.count} as vectors"
            )

    def gram_defect(self) -> float:
        """max |<phi_i, phi_j> - delta_ij| over the stored vectors."""
        return _gram_defect(self.vectors, self.grid.quadrature_weight)


def lowest_eigenpairs(
    op: DiscreteOperator,
    m: int,
    tol: float = DEFAULT_TOL,
    maxiter: int | None = None,
) -> SpectralBasis:
    """Compute the m lowest eigenpairs of a symmetric stencil operator, plus
    any that close the degenerate cluster holding the m-th.

    A window that split a cluster would hold an arbitrary subspace of it, so
    the count grows to cluster_end(eigenvalues, m): the solve runs
    CLUSTER_PAD modes past m, and again with a doubled pad while the cluster
    reaches the end of what was solved.  Only the returned pairs are
    certified.
    """
    _check_request(op, m, tol)
    most = op.size if op.size <= DENSE_CAP else op.size - 1   # Lanczos needs k < size
    pad = CLUSTER_PAD
    while True:
        solved = max(m, min(m + pad, most))
        lam, vec = _solve_lowest(op, solved, tol, maxiter)
        end = cluster_end(lam, m)
        if end < solved or solved >= most:
            break
        pad *= 2
    lam = lam[:end]
    vec = np.ascontiguousarray(vec[:, :end])

    w = op.grid.quadrature_weight
    vec /= np.sqrt(w * np.sum(vec * vec, axis=0))
    _reorthonormalize_clusters(lam, vec, w)
    _fix_signs(vec)
    return _certified_basis(op, lam, vec, _scaled_residuals(op, lam, vec), tol)


def laplacian_eigenpairs(
    op: DiscreteOperator,
    m: int,
    tol: float = DEFAULT_TOL,
    materialize: int | None = None,
) -> SpectralBasis:
    """The m lowest eigenpairs of the flat Laplacian stencil, in closed form.

    Each eigenvector is a tensor product of per-axis modes
    (operator.axis_eigenvectors) and its eigenvalue the sum of theirs.  The
    tensor sums, with axis 0 fastest, are ordered by a stable argsort, so
    exact ties keep that mode order.  All m eigenvalues are kept, but only
    the first `materialize` (default m) eigenvectors are written out as
    columns; the basis carries the axis factors and mode indices for the rest.

    Signs are fixed per axis by _fix_signs.  An axis mode's first
    significant entry (the first node of a sine, the first entry of a
    cosine) is at least 2/(p+1) of its largest, so the first significant
    entry of a tensor mode is the product of the axes' first significant
    entries, and positive: the written columns need no flips.

    Certificates, each computed once:

    - per axis a, the residuals r_a[k] = ||A_a v - lambda v|| of the (p, p)
      factor against the assembled 1-D stencil A_a and its Gram defect
      delta_a.  Since -Delta is the Kronecker sum of the A_a, a tensor mode
      of eigenvalue lambda has scaled residual at most
      sum_a (||r_a|| / ||v_a||) / (1 + |lambda|), and the grid Gram matrix
      of all tensor modes deviates from the identity by at most
      prod_a (1 + delta_a) - 1.
    - the measured residual and Gram defect of the written columns against
      `op` itself, which ties the closed form to the assembly.

    residuals[k] is the measured value for the written columns and the
    tensor bound beyond them; ortho_defect is the larger of the measured
    defect and the tensor bound.
    """
    if op.kind != LAPLACIAN:
        raise ValueError(f"closed form holds for the {LAPLACIAN} only, got {op.kind!r}")
    _check_request(op, m, tol)
    materialize = m if materialize is None else materialize
    if not 1 <= materialize <= m:
        raise ValueError(f"materialize must satisfy 1 <= materialize <= {m}, got {materialize}")
    grid = op.grid
    points = grid.points_per_axis
    total = np.zeros(1)
    axis_vectors, axis_resid, axis_defect = [], [], []
    for p, h, length in zip(points, grid.spacing, grid.lengths):
        lam_a = axis_eigenvalues(p, h, grid.boundary)
        vec_a = axis_eigenvectors(p, h, grid.boundary)
        _fix_signs(vec_a)
        axis_op = assemble_laplacian(make_grid(1, length, p, grid.boundary))
        # unscaled ||r_a|| / ||v_a|| and the Gram defect delta_a of this axis
        axis_resid.append(_scaled_residuals(axis_op, lam_a, vec_a) * (1.0 + lam_a))
        axis_defect.append(_gram_defect(vec_a, h))
        axis_vectors.append(vec_a)
        total = (lam_a[:, None] + total[None, :]).ravel()
    order = np.argsort(total, kind="stable")[:m]
    lam = total[order]
    modes = np.unravel_index(order, points, order="F")

    bound = sum(r[k] for r, k in zip(axis_resid, modes)) / (1.0 + np.abs(lam))
    worst = float(np.max(bound))
    if worst > tol:
        raise EigensolveError(
            f"per-axis residual bound {worst:.3e} exceeds tolerance {tol:.3e}",
            best_residual=worst,
        )
    gram_bound = float(np.prod([1.0 + delta for delta in axis_defect]) - 1.0)
    if gram_bound > ORTHO_TOL:
        raise EigensolveError(
            f"per-axis orthonormality defect bound {gram_bound:.3e} exceeds {ORTHO_TOL}"
        )

    vec = _tensor_columns(axis_vectors, [k[:materialize] for k in modes], points)
    resid = bound.copy()
    resid[:materialize] = _scaled_residuals(op, lam[:materialize], vec)
    return _certified_basis(
        op, lam, vec, resid, tol,
        gram_bound=gram_bound, axis_vectors=tuple(axis_vectors), modes=modes,
    )


def _tensor_columns(axis_vectors, modes, points):
    """(G, k) node values of the tensor modes whose axis indices are `modes`."""
    # node (i0, i1, ...) is row i0 + p0*i1 + ..., i.e. index [..., i1, i0]
    d = len(points)
    k = len(modes[0])
    vec = np.empty((int(np.prod(points)), k))
    view = vec.reshape(points[::-1] + (k,))
    factors = []
    for a, p in enumerate(points):
        shape = [1] * d + [k]
        shape[d - 1 - a] = p
        factors.append(axis_vectors[a][:, modes[a]].reshape(shape))
    np.copyto(view, factors[0])
    for factor in factors[1:]:
        view *= factor
    return vec


def _check_request(op, m, tol):
    if not 1 <= m <= op.size:
        raise ValueError(f"m must satisfy 1 <= m <= {op.size}, got {m}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _certified_basis(op, lam, vec, resid, tol, gram_bound=0.0, **structure) -> SpectralBasis:
    """Check the residual certificates, then measure orthonormality.

    The measured Gram defect of the stored vectors is combined with
    `gram_bound`, a bound that also covers the pairs not stored as vectors.
    """
    if np.max(resid) > tol:
        raise EigensolveError(
            f"residual {np.max(resid):.3e} exceeds tolerance {tol:.3e}",
            best_residual=float(np.max(resid)),
        )
    basis = SpectralBasis(   # measures the Gram defect of the stored vectors
        grid=op.grid,
        tag=op.kind,
        eigenvalues=np.asarray(lam, dtype=np.float64),
        vectors=vec,
        residuals=resid,
        **structure,
    )
    defect = max(basis.ortho_defect, gram_bound)
    if defect > ORTHO_TOL:
        raise EigensolveError(f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL}")
    return replace(basis, ortho_defect=defect)


def _gram_defect(vec, w) -> float:
    """max |w v_i . v_j - delta_ij| over the columns of vec."""
    gram = vec.T @ vec
    gram *= w
    diag = np.arange(vec.shape[1])
    gram[diag, diag] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


def _solve_lowest(op, m, tol, maxiter):
    """The m lowest eigenvalues (ascending) and eigenvectors of op, unnormalized."""
    if op.size > DENSE_CAP:
        return _iterative_lowest(op, m, tol, maxiter)
    dense = op.matrix.toarray(order="F")
    # the index-range solve brackets eigenvalues 0..m-1 by Sturm counts and
    # computes only their vectors
    return sla.eigh(dense, overwrite_a=True, subset_by_index=(0, m - 1))


def cluster_end(eigenvalues: np.ndarray, m: int, rel_gap: float = CLUSTER_REL_GAP) -> int:
    """Smallest k >= m at which a window of k modes does not split a
    degenerate cluster (the rule of degenerate_clusters), or len(eigenvalues)
    if the cluster holding index m-1 runs to the end of the list."""
    for k in range(m, len(eigenvalues)):
        if eigenvalues[k] - eigenvalues[k - 1] >= rel_gap * (1.0 + abs(eigenvalues[k])):
            return k
    return len(eigenvalues)


def _iterative_lowest(op, m, tol, maxiter):
    # PSD up to -v_sup, so a negative shift keeps the factorization safe
    try:
        lam, vec = spla.eigsh(
            op.matrix.tocsc(),
            k=m,
            sigma=-1.0,
            which="LM",
            tol=0,   # iterate to machine precision; certificates checked below
            maxiter=maxiter,
        )
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = float(np.min(_scaled_residuals(op, exc.eigenvalues, exc.eigenvectors)))
        raise EigensolveError(
            f"Lanczos failed to converge within the iteration budget: {exc}",
            best_residual=best,
        ) from exc
    order = np.argsort(lam, kind="stable")
    return lam[order], np.ascontiguousarray(vec[:, order])


def _scaled_residuals(op, lam, vec):
    # column blocks keep the temporaries at G x RESIDUAL_BLOCK
    out = np.empty(vec.shape[1])
    for start in range(0, vec.shape[1], RESIDUAL_BLOCK):
        cols = slice(start, start + RESIDUAL_BLOCK)
        v, lv = vec[:, cols], lam[cols]
        R = op.matrix @ v - v * lv[None, :]
        num = np.sqrt(np.sum(R * R, axis=0))
        den = np.sqrt(np.sum(v * v, axis=0)) * (1.0 + np.abs(lv))
        out[cols] = num / den
    return out


def degenerate_clusters(eigenvalues: np.ndarray, rel_gap: float = CLUSTER_REL_GAP):
    """Contiguous index groups whose eigenvalue gaps fall below rel_gap*(1+lam)."""
    clusters = []
    start = 0
    for k in range(1, len(eigenvalues)):
        if eigenvalues[k] - eigenvalues[k - 1] >= rel_gap * (1.0 + abs(eigenvalues[k])):
            clusters.append(list(range(start, k)))
            start = k
    clusters.append(list(range(start, len(eigenvalues))))
    return clusters


def _reorthonormalize_clusters(lam, vec, w):
    for cluster in degenerate_clusters(lam):
        if len(cluster) < 2:
            continue
        block = vec[:, cluster]
        q, _ = np.linalg.qr(block)
        vec[:, cluster] = q / np.sqrt(w)


def _fix_signs(vec):
    """Flip each column whose first significant entry is negative, in place."""
    mag = np.abs(vec)
    first = np.argmax(mag > 1e-12 * np.max(mag, axis=0), axis=0)
    flip = vec[first, np.arange(vec.shape[1])] < 0
    np.negative(vec, out=vec, where=flip)


@dataclass(frozen=True)
class WeylFit:
    exponent: float
    expected_exponent: float   # 2/d
    constant: float
    max_rel_dev: float


def weyl_fit(basis: SpectralBasis, d: int, k_min: int, k_max: int) -> WeylFit:
    """Least-squares fit of log lambda_k vs log k on [k_min, k_max] (1-based).

    Weyl's law predicts exponent 2/d; the constant is the fitted prefactor
    and max_rel_dev the worst relative deviation of lambda_k from the fit.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if k_min < 4:
        raise ValueError(f"k_min must be >= 4 to stay clear of the ground state, got {k_min}")
    if k_max > basis.count:
        raise ValueError(f"k_max {k_max} exceeds basis count {basis.count}")
    if k_max - k_min + 1 < 8:
        raise ValueError("fit window must contain at least 8 points")
    k = np.arange(k_min, k_max + 1)
    lam = basis.eigenvalues[k_min - 1 : k_max]
    if np.any(lam <= 0):
        raise ValueError("nonpositive eigenvalue inside the fit window")
    slope, intercept = np.polyfit(np.log(k), np.log(lam), 1)
    fit = np.exp(intercept) * k**slope
    dev = float(np.max(np.abs(lam - fit) / fit))
    return WeylFit(
        exponent=float(slope),
        expected_exponent=2.0 / d,
        constant=float(np.exp(intercept)),
        max_rel_dev=dev,
    )


def sup_norms(basis: SpectralBasis, n: int):
    """Nodewise sup norm of each of the first n eigenfunctions, plus the max."""
    if not 1 <= n <= basis.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis.count}, got {n}")
    basis.require_columns(n)
    per_k = np.max(np.abs(basis.vectors[:, :n]), axis=0)
    return per_k, float(np.max(per_k))


def supnorm_growth_fit(basis: SpectralBasis, k_min: int, k_max: int) -> tuple[float, float]:
    """Fit ||phi_k||_inf ~ C lambda_k^alpha; returns (alpha, C).

    Diagnostic for the lambda^((d-1)/4) sup-norm growth bound; reported,
    not asserted, except that flat 2-D runs must stay under 0.35.
    """
    per_k, _ = sup_norms(basis, k_max)
    lam = basis.eigenvalues[k_min - 1 : k_max]
    sup = per_k[k_min - 1 : k_max]
    slope, intercept = np.polyfit(np.log(lam), np.log(sup), 1)
    return float(slope), float(np.exp(intercept))


@dataclass(frozen=True)
class ComparabilityReport:
    """Slack margins for a_min*mu_k - v_sup <= lambda_k <= a_max*mu_k + v_sup."""

    lower_margins: np.ndarray   # lambda_k - (a_min mu_k - v_sup)
    upper_margins: np.ndarray   # (a_max mu_k + v_sup) - lambda_k
    ok: bool
    worst: float


def comparability_check(
    basis_L: SpectralBasis,
    basis_lap: SpectralBasis,
    field: CoefficientField,
    k_max: int,
) -> ComparabilityReport:
    """Check the min-max eigenvalue sandwich between L and -Delta."""
    if basis_L.grid != basis_lap.grid:
        raise ValueError("bases live on different grids")
    if k_max > min(basis_L.count, basis_lap.count):
        raise ValueError(f"k_max {k_max} exceeds available eigenpairs")
    lam = basis_L.eigenvalues[:k_max]
    mu = basis_lap.eigenvalues[:k_max]
    lower = lam - (field.a_min * mu - field.v_sup)
    upper = (field.a_max * mu + field.v_sup) - lam
    tol = -1e-8 * (1.0 + np.abs(lam))
    ok = bool(np.all(lower >= tol) and np.all(upper >= tol))
    worst = float(min(np.min(lower), np.min(upper)))
    return ComparabilityReport(lower_margins=lower, upper_margins=upper, ok=ok, worst=worst)
