"""Lowest eigenpairs of the stencil operators, with certificates.

The flat Laplacian separates over the axes, so laplacian_eigenpairs builds
its eigenpairs in closed form (tensor products of sines or real Fourier
modes); the pipeline uses it for -Delta on every config and for L on flat
ones, where L is the same stencil.  The closed form keeps every eigenvalue
and the per-axis eigenvector matrices, but stores only the solver.m leading
columns that products and spectrum rows read node by node; sup norms
(sup_norms) and expansion coefficients (products.expansion_coefficients)
come from the axis factors instead.  Its certificates are per-axis bounds
that cover every tensor mode plus measured residual and Gram checks of the
stored columns against the assembled operator.

Any other operator goes through lowest_eigenpairs, which solves only the
window it is asked for (grown to close the degenerate cluster at its end)
by spectrum slicing (Campos & Roman, Numer. Algorithms 60, 2012).  The
spectrum is cut into slices of about MODES_PER_SLICE eigenvalues each, whose
edges are placed by inertia counts (_slice_edges), and each slice gets one
shift-inverted eigsh at its centre from a fixed start vector.  One sparse
LDL^T routine (_ldlt, SuperLU in symmetric mode) serves all three jobs: the
edge counts, the shift-invert solves of each slice and the final count.
ARPACK's cost grows like G k^2 in the k pairs of one solve, so slices are
cheaper than one solve for the whole window.  Lanczos alone can skip an
eigenvalue, and two slices can return the same pair, without any residual
or Gram check of the window noticing, so the union of the slices is
certified by one inertia count of L - sigma I over every pair counted below
sigma (_inertia_count; the completeness check of the spectral
transformation Lanczos method, Ericsson & Ruhe, Math. Comp. 35, 1980).

MODES_PER_SLICE, measured on the random-2d operator (lowest_eigenpairs at
the Weyl cap, with its edge counts and the final count, when each slice's
eigsh still built its own LU; 2 BLAS threads on 2 shared cores; median of 6
runs at 64^2, of 2 at 96^2):

    modes per slice     64^2, 221 pairs solved     96^2, 473 pairs solved
    all in one          1.00 s (1 slice)           8.76 s (1)
    160                 0.71 s (2)                 3.83 s (3)
    120                 0.75 s (2)                 4.15 s (4)
    100                 0.68 s (3)                 -
     80                 0.77 s (3)                 3.41 s (6)
     60                 0.71 s (4)                 3.42 s (8)

The sliced solve is deterministic for a fixed BLAS thread count.
Eigenvectors are normalized in the grid inner product, signs are fixed
(first significant component positive) and near-degenerate clusters are
re-orthonormalized so downstream tensors are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, make_grid
from .operator import (
    LAPLACIAN,
    CoefficientField,
    DiscreteOperator,
    assemble_laplacian,
    axis_eigenvalues,
    axis_eigenvectors,
    stencil_eigenvalues,
)

DENSE_CAP = 5000   # read only by perfbench/traced.py's dense_bytes counter
DEFAULT_TOL = 1e-9
CLUSTER_REL_GAP = 1e-8
ORTHO_TOL = 1e-10
RESIDUAL_BLOCK = 256   # columns per block of the residual certificate
CLUSTER_PAD = 16       # modes solved past a window to find where its end cluster closes
MODES_PER_SLICE = 80   # eigenpairs per Lanczos spectrum slice (module docstring)


class EigensolveError(RuntimeError):
    """A certificate failed where it was computed.

    `check` names it as verify-all does: "residuals", "orthonormality" or
    "completeness".  worst_residual is the largest scaled residual among the
    pairs the failing check judged, or None if it judged no residual.
    """

    def __init__(self, check, message, worst_residual=None):
        super().__init__(message)
        self.check = check
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class Completeness:
    """How a basis shows that it holds the lowest modes of its operator and
    skipped none.

    route is "closed_form" (every mode, by construction) or "lanczos", which
    carries its slices and its inertia count.  slice_edges e_0 < ... < e_s
    bound the spectrum slices, and slice_sizes holds the eigenpairs solved in
    each.  count_below negative pivots of the LDL^T factorization of
    L - sigma I stand against solved_below solved eigenvalues under sigma,
    and backward_error, ||P(L - sigma I)P^T - L D L^T||_F, against
    distance, the gap from sigma to the nearest solved eigenvalue.
    """

    route: str
    sigma: float | None = None
    count_below: int | None = None
    solved_below: int | None = None
    backward_error: float | None = None
    distance: float | None = None
    slice_edges: tuple | None = None
    slice_sizes: tuple | None = None

    def describe(self, count: int) -> str:
        """One line on how a basis of `count` eigenpairs was shown complete."""
        if self.route == "closed_form":
            return f"closed form: all {count} modes"
        return (
            f"{self.count_below} negative LDL^T pivots of L - sigma I at sigma = "
            f"{self.sigma:.6g} for {self.solved_below} solved eigenvalues below it "
            f"(window {count}; {len(self.slice_sizes)} spectrum slices of "
            f"{'/'.join(map(str, self.slice_sizes))} pairs); backward error "
            f"{self.backward_error:.3e} < distance to the nearest solved eigenvalue "
            f"{self.distance:.3e}"
        )


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

    completeness records how the builder showed that no mode is missing.

    Closed-form bases also carry their tensor structure: axis_vectors[a] is
    the (p_a, p_a) eigenvector matrix of axis a, and modes[a][k] the axis-a
    mode index of eigenpair k, so eigenfunction k is the product of the
    columns axis_vectors[a][:, modes[a][k]].  Both are None for bases from
    the sliced Lanczos solve, which store every vector they hold.
    """

    grid: Grid
    tag: str
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ortho_defect: float | None = None
    axis_vectors: tuple | None = None
    modes: tuple | None = None
    completeness: Completeness | None = None

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
) -> SpectralBasis:
    """Compute the m lowest eigenpairs of a symmetric stencil operator, plus
    any that close the degenerate cluster holding the m-th.

    A window that split a cluster would hold an arbitrary subspace of it, so
    the count grows to cluster_end(eigenvalues, m): the solve runs
    CLUSTER_PAD modes past m, and again with a doubled pad while the cluster
    reaches the end of what was solved.  Only the returned pairs are
    certified, together with the inertia count taken once over the union of
    the final solve's slices.  That count puts its shift above the window,
    under a solved eigenvalue, and eigsh needs k < size, so m is at most
    size - 2.
    """
    _check_request(op, m, tol, op.size - 2)
    most = op.size - 1
    pad = CLUSTER_PAD
    while True:
        solved = min(m + pad, most)
        lam, vec, slices = _sliced_lowest(op, solved)
        end = cluster_end(lam, m)
        if end < len(lam) or solved >= most:
            break
        pad *= 2
    completeness = _inertia_count(op, lam, vec, end, tol, slices)
    lam = lam[:end]
    vec = np.ascontiguousarray(vec[:, :end])

    w = op.grid.quadrature_weight
    vec /= np.sqrt(w * np.sum(vec * vec, axis=0))
    _reorthonormalize_clusters(lam, vec, w)
    _fix_signs(vec)
    resid = _scaled_residuals(op, lam, vec)
    return _certified_basis(op, lam, vec, resid, tol, completeness=completeness)


def laplacian_eigenpairs(
    op: DiscreteOperator,
    columns: int,
    tol: float = DEFAULT_TOL,
) -> SpectralBasis:
    """Every eigenpair of the flat Laplacian stencil, in closed form, with
    the first `columns` eigenvectors stored.

    Each eigenvector is a tensor product of per-axis modes
    (operator.axis_eigenvectors) and its eigenvalue the sum of theirs
    (operator.stencil_eigenvalues, axis 0 fastest).  A stable argsort
    orders them, so exact ties keep that mode order.  The basis carries the
    axis factors and mode indices for the modes it does not store.

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
    defect and the tensor bound.  Both are judged once, by _certified_basis.
    """
    if op.kind != LAPLACIAN:
        raise ValueError(f"closed form holds for the {LAPLACIAN} only, got {op.kind!r}")
    _check_request(op, columns, tol, op.size)
    grid = op.grid
    points = grid.points_per_axis
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
    total = stencil_eigenvalues(grid)
    order = np.argsort(total, kind="stable")
    lam = total[order]
    modes = np.unravel_index(order, points, order="F")

    bound = sum(r[k] for r, k in zip(axis_resid, modes)) / (1.0 + np.abs(lam))
    gram_bound = float(np.prod([1.0 + delta for delta in axis_defect]) - 1.0)
    vec = _tensor_columns(axis_vectors, [k[:columns] for k in modes], points)
    resid = bound.copy()
    resid[:columns] = _scaled_residuals(op, lam[:columns], vec)
    return _certified_basis(
        op, lam, vec, resid, tol,
        gram_bound=gram_bound, axis_vectors=tuple(axis_vectors), modes=modes,
        completeness=Completeness("closed_form"),
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


def _check_request(op, m, tol, top):
    if not 1 <= m <= top:
        raise ValueError(f"m must satisfy 1 <= m <= {top}, got {m}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _certified_basis(op, lam, vec, resid, tol, gram_bound=0.0, **structure) -> SpectralBasis:
    """Check the residual certificates, then measure orthonormality.

    The measured Gram defect of the stored vectors is combined with
    `gram_bound`, a bound that also covers the pairs not stored as vectors.
    """
    if np.max(resid) > tol:
        raise EigensolveError(
            "residuals",
            f"residual {np.max(resid):.3e} exceeds tolerance {tol:.3e}",
            worst_residual=float(np.max(resid)),
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
        raise EigensolveError(
            "orthonormality", f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL}"
        )
    return replace(basis, ortho_defect=defect)


def _gram_defect(vec, w) -> float:
    """max |w v_i . v_j - delta_ij| over the columns of vec."""
    gram = vec.T @ vec
    gram *= w
    diag = np.arange(vec.shape[1])
    gram[diag, diag] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


def _cluster_starts(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices k >= 1 of the ascending eigenvalues that open a degenerate
    cluster: the gap below lambda_k is at least CLUSTER_REL_GAP*(1+|lambda_k|)."""
    lam = np.asarray(eigenvalues)
    return 1 + np.flatnonzero(np.diff(lam) >= CLUSTER_REL_GAP * (1.0 + np.abs(lam[1:])))


def cluster_end(eigenvalues: np.ndarray, m: int) -> int:
    """Smallest k >= m at which a window of k modes does not split a
    degenerate cluster, or len(eigenvalues) if the cluster holding index
    m-1 runs to the end of the list."""
    starts = _cluster_starts(eigenvalues)
    later = starts[starts >= m]
    return int(later[0]) if later.size else len(eigenvalues)


def _sliced_lowest(op, m):
    """The m lowest eigenpairs by shift-inverted Lanczos, one solve per
    spectrum slice.

    Slice j lies between edges e_{j-1} < e_j whose inertia counts differ by
    k_j (_slice_edges).  Every eigenvalue inside it is nearer its centre
    than any outside it, so eigsh at the centre, asked for the k_j nearest,
    returns exactly the slice's pairs.  Its shift-invert solves use the
    LDL^T factor of L minus the centre (_ldlt).  The union is sorted and cut
    to the m lowest, and returned with the slices it came from;
    _inertia_count certifies it.
    """
    edges, counts = _slice_edges(op, m)
    sizes = np.diff(counts)
    # a fixed start vector keeps reruns bitwise identical (ARPACK's own
    # random start carries state across calls); a generic one, because a
    # constant vector has no component along the modes that are odd about
    # the centre of a symmetric box
    v0 = np.random.default_rng(0).standard_normal(op.size)
    pairs = []
    for lo, hi, k in zip(edges, edges[1:], sizes):
        centre = 0.5 * (lo + hi)
        factor = _ldlt(op, centre)[1]
        inverse = spla.LinearOperator(op.matrix.shape, matvec=factor.solve, dtype=np.float64)
        try:
            pairs.append(spla.eigsh(
                op.matrix,
                k=k,
                sigma=centre,
                which="LM",
                v0=v0,
                tol=0,   # iterate to machine precision; certificates checked later
                OPinv=inverse,
            ))
        except spla.ArpackNoConvergence as exc:
            worst = None
            if exc.eigenvalues is not None and len(exc.eigenvalues):
                worst = float(np.max(_scaled_residuals(op, exc.eigenvalues, exc.eigenvectors)))
            raise EigensolveError(
                "residuals",
                f"Lanczos failed to converge within the iteration budget: {exc}",
                worst_residual=worst,
            ) from exc
    lam = np.concatenate([lam_j for lam_j, _ in pairs])
    order = np.argsort(lam, kind="stable")[:m]
    # gather the m lowest columns slice by slice, freeing each slice's
    # vectors once read, so no second copy of the union is held (a 128^2
    # random verify-all peaked at 492 MB with one, 415 MB without)
    vec = np.empty((op.size, order.size))
    start = 0
    for j, (lam_j, vec_j) in enumerate(pairs):
        mine = np.flatnonzero((order >= start) & (order < start + lam_j.size))
        vec[:, mine] = vec_j[:, order[mine] - start]
        start += lam_j.size
        pairs[j] = None
    slices = Completeness(
        "lanczos", slice_edges=tuple(map(float, edges)), slice_sizes=tuple(map(int, sizes))
    )
    return lam[order], vec, slices


def _slice_edges(op, top):
    """Edges e_0 < ... < e_s of the Lanczos slices and their inertia counts
    0 = c_0 < ... < c_s, with c_s >= top and s = ceil(c_s / MODES_PER_SLICE).

    The guesses come from the flat spectrum mu and the comparability
    sandwich a_min mu_k - v_sup <= lambda_k <= a_max mu_k + v_sup, read at
    flat(t), a point of the flat spectrum between two of its clusters with
    at least t modes below it.  e_0 is the sandwich's lower end at k = 1,
    below every eigenvalue, so it needs no count.  The top edge starts at
    the sandwich's middle, (a_min + a_max) / 2 * flat(top); while it counts
    fewer than `top`, it is rescaled by flat(top) / flat(count), up to the
    sandwich's upper end a_max flat(top) + v_sup, which counts at least
    that many.  Its count c_s then fixes slope = e_s / flat(c_s), and
    interior edge j sits at slope * flat(j c_s / s), near an equal-count
    quantile; an interior edge that adds no eigenvalue is dropped.
    """
    field = op.coefficients
    mu = np.sort(stencil_eigenvalues(op.grid))

    def flat(t):
        t = min(cluster_end(mu, t), mu.size - 1)
        return 0.5 * (mu[t - 1] + mu[t])

    upper = field.a_max * flat(top) + field.v_sup
    edge = 0.5 * (field.a_min + field.a_max) * flat(top)
    below = _count_below(op, edge)
    while below < top:
        if edge >= upper:
            raise EigensolveError(
                "completeness",
                f"inertia count: {below} eigenvalues of L lie below the sandwich's "
                f"bound {upper:.6g} on eigenvalue {top}",
            )
        grown = edge * flat(top) / flat(below)
        edge = grown if edge < grown < upper else upper
        below = _count_below(op, edge)
    slope = edge / flat(below)
    s = -(-below // MODES_PER_SLICE)
    edges, counts = [field.a_min * mu[0] - field.v_sup], [0]
    for j in range(1, s):
        inner = slope * flat(j * below // s)
        count = _count_below(op, inner)
        if counts[-1] < count < below:
            edges.append(inner)
            counts.append(count)
    return edges + [edge], counts + [below]


def _ldlt(op, sigma):
    """L - sigma I and its sparse LU with diagonal pivots in symmetric mode,
    checked to be an LDL^T factorization (perm_r == perm_c, D = diag(U)).

    The sliced solve's one factorization: its negative pivots count the
    eigenvalues below sigma (the slice edges and the final count), and its
    solve is the shift-invert operator of the slice centred at sigma."""
    shifted = (op.matrix - sigma * sp.identity(op.size, format="csr")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolveError(
            "completeness", f"inertia count: factorization of L - sigma I failed: {exc}"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolveError(
            "completeness",
            "inertia count: the factorization pivoted off the diagonal "
            "(perm_r != perm_c), so it is no LDL^T and its pivots count nothing"
        )
    return shifted, lu


def _count_below(op, sigma) -> int:
    """Eigenvalues of op below sigma, by the negative pivots of its LDL^T
    (Sylvester's law of inertia)."""
    return int(np.count_nonzero(_ldlt(op, sigma)[1].U.diagonal() < 0))


def _inertia_count(op, lam, vec, end, tol, slices) -> Completeness:
    """Certify that the ascending solved eigenpairs (lam, vec) of op, the
    union of the Lanczos slices recorded in `slices`, include every
    eigenvalue of op up to lam[end - 1].

    sigma is the midpoint of the widest gap among lam[end - 1:].  The
    LDL^T factorization of P (op - sigma I) P^T (_ldlt) has exactly as many
    negative eigenvalues as D has negative entries (Sylvester).  L D L^T
    differs from P (op - sigma I) P^T by the measured backward error E,
    which moves each eigenvalue by at most ||E||_2 <= ||E||_F (Weyl).  With
    ||E||_F below the distance from sigma to the nearest solved eigenvalue,
    every eigenvalue of op below lam[end - 1] is counted, so a count equal
    to the number solved below sigma leaves no room for a skipped one,
    provided each counted pair is a distinct eigenpair: the pairs between
    the window's end and sigma have their residuals checked here against
    tol, as the window's are later, and every pair below sigma must be
    orthonormal, or a ghost copy of one (two slices returning the same
    pair) could stand in for a skipped one.
    """
    gaps = np.diff(lam[end - 1:])
    if not gaps.size:
        raise EigensolveError(
            "completeness",
            f"inertia count: no solved eigenvalue above the window of {end} modes "
            "to put the shift under"
        )
    k = end + int(np.argmax(gaps))   # lam[k - 1] < sigma < lam[k]
    sigma = 0.5 * (lam[k - 1] + lam[k])
    shifted, lu = _ldlt(op, sigma)
    pivots = lu.U.diagonal()
    count = int(np.count_nonzero(pivots < 0))
    # splu factors Pr A Pc = L U with Pr[perm_r[i], i] = 1, so row perm[i]
    # of L U is row i of A; invert to permute A
    order = np.empty_like(lu.perm_c)
    order[lu.perm_c] = np.arange(op.size)
    permuted = shifted[order][:, order]
    backward = float(spla.norm(permuted - lu.L @ sp.diags(pivots) @ lu.L.T))
    distance = float(np.min(np.abs(lam - sigma)))
    extra = _scaled_residuals(op, lam[end:k], vec[:, end:k])
    if extra.size and np.max(extra) > tol:
        raise EigensolveError(
            "residuals",
            f"inertia count: residual {np.max(extra):.3e} of a counted pair past the "
            f"window exceeds tolerance {tol:.3e}",
            worst_residual=float(np.max(extra)),
        )
    defect = _gram_defect(vec[:, :k], 1.0)   # eigsh returns unit vectors
    if defect > ORTHO_TOL:
        raise EigensolveError(
            "orthonormality",
            f"inertia count: the {k} pairs solved below sigma = {sigma:.6g} have "
            f"orthonormality defect {defect:.3e} above {ORTHO_TOL}, so they are not "
            "distinct eigenpairs"
        )
    if count != k:
        raise EigensolveError(
            "completeness",
            f"inertia count: {count} eigenvalues of L lie below sigma = {sigma:.6g}, "
            f"but the Lanczos solve found {k}"
        )
    if not backward < distance:
        raise EigensolveError(
            "completeness",
            f"inertia count: backward error {backward:.3e} of the LDL^T factorization "
            f"reaches the distance {distance:.3e} from sigma = {sigma:.6g} to the "
            "nearest solved eigenvalue"
        )
    return replace(
        slices, sigma=float(sigma), count_below=count, solved_below=k,
        backward_error=backward, distance=distance,
    )


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


def degenerate_clusters(eigenvalues: np.ndarray):
    """Contiguous index groups split where a cluster starts (_cluster_starts)."""
    bounds = [0, *_cluster_starts(eigenvalues).tolist(), len(eigenvalues)]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


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
    """Nodewise sup norm of each of the first n eigenfunctions, plus the max.

    A closed-form mode's |prod_a v_a(x_a)| separates, so its sup is the
    product of the per-axis sups max|v_a| in _tensor_columns' order (from
    axis 0); rounding is monotone, so that is the max over its column bit
    for bit, stored or not.  Any other basis reads its stored columns.
    """
    if not 1 <= n <= basis.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis.count}, got {n}")
    if basis.axis_vectors is None:
        basis.require_columns(n)
        per_k = np.max(np.abs(basis.vectors[:, :n]), axis=0)
    else:
        per_k = np.ones(n)
        for vec_a, k in zip(basis.axis_vectors, basis.modes):
            per_k *= np.max(np.abs(vec_a), axis=0)[k[:n]]
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
