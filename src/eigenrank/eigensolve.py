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

Both builders hand their pairs to one judge, _certify, which alone holds
residuals to tol and Gram defects to ORTHO_TOL.  The comparability sandwich
that places the spectrum slices is written once, CoefficientField.sandwich.

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

The sliced solve is deterministic for a fixed BLAS thread count: every
slice starts from one fixed vector, and the solved eigenvectors are
normalized in the grid inner product and their signs fixed (first
significant component positive), so reruns give the same tensors bit for
bit.

Working set.  What a run keeps is formed whole: the stored vectors of each
basis here, and in products the coefficient arrays and the one product
block that a stored target's GEMM needs.  Every other array of G x k or
pairs x G entries, here and in products, lowrank and the pipeline's checks,
is formed BLOCK columns, pairs or node rows at a time (blocks).  The Lanczos
slices join one union as each is solved, and the union is sorted and cut in
place (_gather_columns), so the vectors are never held twice.  Sums over
node rows run row after row at every width (row_sums), so a sum taken in
blocks has the bits of one sum over the whole array.  A block that is a
GEMM (a closed-form target's pair block, a node-row block of the
out-of-window residual) can differ from one whole GEMM in its last bits, as
OpenBLAS picks its kernel by the shape; at BLOCK = 32 every CSV of the
presets, the CI configs, flat 256^2 and random 128^2 has the bits of whole
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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
BLOCK = 32   # columns, pairs or node rows per block of a temporary (module docstring)
CLUSTER_PAD = 16       # modes solved past a window to find where its end cluster closes
MODES_PER_SLICE = 80   # eigenpairs per Lanczos spectrum slice (module docstring)
# a shift where _ldlt breaks down moves up by SHIFT_NUDGE (1 + |sigma|), at
# most SHIFT_TRIES - 1 times; that sum stays under CLUSTER_REL_GAP / 2, so
# the final count's shift, put mid-gap at a cluster boundary, stays in it
SHIFT_NUDGE = 1e-9
SHIFT_TRIES = 4


class EigensolveError(RuntimeError):
    """A certificate failed where it was computed.

    `check` names it as verify-all does: "residuals", "orthonormality" or
    "completeness".  worst_residual is the largest scaled residual that the
    failing judgement measured, or None if it measured none.
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

    def covers(self, count: int, stored: int) -> str:
        """What the ortho_defect of a basis of `count` pairs (`stored` as columns) bounds."""
        if self.route == "lanczos":
            return f"the Gram of the {self.solved_below} pairs counted below sigma"
        return (
            f"the larger of the measured Gram of its {stored} stored "
            f"vectors and the per-axis bound over all {count} modes"
        )


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Ordered eigenpairs of a discrete operator.

    eigenvalues holds `count` values in ascending order; vectors holds the
    first `materialized` eigenfunctions as columns, orthonormal under the
    grid inner product, i.e. Euclidean norm quadrature_weight^(-1/2).
    residuals[k] is the scaled certificate
    ||M phi - lambda phi|| / (||phi|| (1 + |lambda|)) for all `count` pairs.
    ortho_defect is the orthonormality certificate, measured once by the
    builder's judgement (_certify) over the pairs completeness.covers()
    names: the closed form's stored columns and per-axis bound, or the
    Lanczos pairs its inertia count counts.

    completeness records how the builder showed that no mode is missing.

    Closed-form bases also carry their tensor structure: axis_vectors[a] is
    the (p_a, p_a) eigenvector matrix of axis a, and modes[a][k] the axis-a
    mode index of eigenpair k, so eigenfunction k is the product of the
    columns axis_vectors[a][:, modes[a][k]].  Both are None for bases from
    the sliced Lanczos solve, which store every vector they hold.
    """

    grid: Grid
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ortho_defect: float
    axis_vectors: tuple | None = None
    modes: tuple | None = None
    completeness: Completeness | None = None

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

    The solved columns are grid-normalized and sign-fixed once, a column
    block at a time; the inertia count then judges them, and its residuals
    and Gram defect over the pairs counted below its shift, a superset of
    the window, are the basis's.  The window's columns are then moved to
    the front of the union's buffer (_gather_columns), which the basis keeps.
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
    for cols in blocks(vec.shape[1]):
        v = vec[:, cols]
        v /= np.sqrt(op.grid.quadrature_weight * row_sums(v * v))
        _fix_signs(v)
    resid, defect, completeness = _inertia_count(op, lam, vec, end, tol, slices)
    return SpectralBasis(
        grid=op.grid, eigenvalues=lam[:end], vectors=_gather_columns(vec, slice(0, end)),
        residuals=resid, ortho_defect=defect, completeness=completeness,
    )


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

    Certificates, judged once by _certify: per axis a, the residuals
    r_a[k] = ||A_a v - lambda v|| of the (p, p) factor against the assembled
    1-D stencil A_a and its Gram defect delta_a.  Since -Delta is the
    Kronecker sum of the A_a, a tensor mode of eigenvalue lambda has scaled
    residual at most sum_a (||r_a|| / ||v_a||) / (1 + |lambda|), and the
    grid Gram matrix of all tensor modes deviates from the identity by at
    most prod_a (1 + delta_a) - 1.  The written columns' residuals and Gram
    defect are measured against `op` itself, which ties the closed form to
    the assembly: residuals[k] is the measured value for them and the
    tensor bound beyond, ortho_defect the larger of both defects.
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

    vec = _tensor_columns(axis_vectors, [k[:columns] for k in modes], points)
    resid, defect = _certify(
        op, lam, vec, tol, "closed form", f"all {lam.size} modes",
        resid=sum(r[k] for r, k in zip(axis_resid, modes)) / (1.0 + np.abs(lam)),
        gram_bound=float(np.prod([1.0 + d for d in axis_defect]) - 1.0),
    )
    return SpectralBasis(
        grid=grid, eigenvalues=lam, vectors=vec, residuals=resid, ortho_defect=defect,
        axis_vectors=tuple(axis_vectors), modes=modes, completeness=Completeness("closed_form"),
    )


def blocks(total: int) -> list[slice]:
    """Consecutive slices of at most BLOCK indices that cover range(total)."""
    return [slice(lo, min(lo + BLOCK, total)) for lo in range(0, total, BLOCK)]


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sum over the rows of x, added one row after another at every width.

    numpy reduces a C-ordered array of two or more columns over axis 0 row
    after row, but a single column pairwise; cumsum keeps that one in row
    order too, so a block of columns sums to the bits of the whole array's.
    A 1-D x is summed as numpy sums it."""
    if x.ndim == 2 and x.shape[1] == 1:
        return np.cumsum(x, axis=0)[-1]
    return np.sum(x, axis=0)


def _gather_columns(buffer, columns):
    """buffer[:, columns] as a C-ordered array over the start of the
    C-ordered buffer itself, written one block of node rows at a time, so
    no second array of its rows is formed.  Each row block is written at or
    before the memory of its own rows (numpy copies a block that overlaps
    its destination first), so no row is overwritten before it is read."""
    rows, width = buffer.shape[0], buffer[0, columns].size
    out = buffer.reshape(-1)[: rows * width].reshape(rows, width)
    for block in blocks(rows):
        out[block] = buffer[block][:, columns]
    return out


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


def _certify(op, lam, vec, tol, source, pairs, resid=None, gram_bound=0.0):
    """Judge eigenpairs of op, the one place where scaled residuals meet tol
    and then Gram defects meet ORTHO_TOL; returns both.  vec holds the first
    columns of lam's pairs: their measured residuals overwrite the head of
    `resid` (a bound on every pair's; None if vec holds them all) and their
    grid Gram defect is raised to gram_bound (a bound over the rest).  A
    failure raises EigensolveError with its check and the worst residual,
    worded from `source` (the certificate) and `pairs` (what it judged)."""
    stored = vec.shape[1]
    resid = np.empty(stored) if resid is None else resid
    resid[:stored] = _scaled_residuals(op, lam[:stored], vec)
    worst = float(np.max(resid))
    if worst > tol:
        raise EigensolveError(
            "residuals",
            f"{source}: residual {worst:.3e} exceeds tolerance {tol:.3e} over {pairs}",
            worst_residual=worst,
        )
    defect = max(_gram_defect(vec, op.grid.quadrature_weight), gram_bound)
    if defect > ORTHO_TOL:
        raise EigensolveError(
            "orthonormality",
            f"{source}: orthonormality defect {defect:.3e} exceeds {ORTHO_TOL} over {pairs}, "
            "so they are not distinct eigenpairs",
            worst_residual=worst,
        )
    return resid, defect


def _gram_defect(vec, w) -> float:
    """max |w v_i . v_j - delta_ij| over the columns of vec."""
    gram = vec.T @ vec
    gram *= w
    diag = np.arange(vec.shape[1])
    gram[diag, diag] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


def cluster_end(eigenvalues: np.ndarray, m: int) -> int:
    """Smallest k >= m at which a window of k modes does not split a
    degenerate cluster, or len(eigenvalues) if the cluster holding index
    m-1 runs to the end of the list.  A cluster opens at each k >= 1 whose
    gap below lambda_k is at least CLUSTER_REL_GAP*(1+|lambda_k|)."""
    lam = np.asarray(eigenvalues)
    starts = 1 + np.flatnonzero(np.diff(lam) >= CLUSTER_REL_GAP * (1.0 + np.abs(lam[1:])))
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
    to the m lowest, and returned with the slices it came from (their edges
    and sizes); _inertia_count certifies it.

    Each slice's pairs are copied into the union as soon as its eigsh
    returns, and the slice's arrays dropped before the next solve.  The
    union holds as many pairs as the solves returned (a solve that skipped
    one returns fewer, which the inertia count catches), and is sorted and
    cut in place (_gather_columns).
    """
    edges, counts = _slice_edges(op, m)
    sizes = np.diff(counts)
    # a fixed start vector keeps reruns bitwise identical (ARPACK's own
    # random start carries state across calls); a generic one, because a
    # constant vector has no component along the modes that are odd about
    # the centre of a symmetric box
    v0 = np.random.default_rng(0).standard_normal(op.size)
    lam = np.empty(counts[-1])
    vec = np.empty((op.size, counts[-1]))
    got = 0
    for lo, hi, k in zip(edges, edges[1:], sizes):
        lam_j, vec_j = _solve_slice(op, 0.5 * (lo + hi), k, v0)
        lam[got : got + lam_j.size] = lam_j
        vec[:, got : got + lam_j.size] = vec_j
        got += lam_j.size
        del lam_j, vec_j
    order = np.argsort(lam[:got], kind="stable")[:m]
    return lam[order], _gather_columns(vec, order), (edges, sizes)


def _solve_slice(op, centre, k, v0):
    """The k eigenpairs of op nearest `centre` by eigsh, shift-inverted by
    the LDL^T factor of L minus it (_ldlt), started from v0."""
    centre, _, factor = _ldlt(op, centre)
    inverse = spla.LinearOperator(op.matrix.shape, matvec=factor.solve, dtype=np.float64)
    try:
        return spla.eigsh(
            op.matrix,
            k=k,
            sigma=centre,
            which="LM",
            v0=v0,
            tol=0,   # iterate to machine precision; certificates checked later
            OPinv=inverse,
        )
    except spla.ArpackNoConvergence as exc:
        worst = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            worst = float(np.max(_scaled_residuals(op, exc.eigenvalues, exc.eigenvectors)))
        raise EigensolveError(
            "residuals",
            f"Lanczos failed to converge within the iteration budget: {exc}",
            worst_residual=worst,
        ) from exc


def _slice_edges(op, top):
    """Edges e_0 < ... < e_s of the Lanczos slices and their inertia counts
    0 = c_0 < ... < c_s, with c_s >= top and s = ceil(c_s / MODES_PER_SLICE).

    The guesses come from the flat spectrum mu and the comparability
    sandwich (CoefficientField.sandwich) read at flat(t), a point of the
    flat spectrum between two of its clusters with at least t modes below
    it.  e_0 is the sandwich's lower end at mu_1, below every eigenvalue, so
    it needs no count.  The top edge starts at the sandwich's middle,
    (a_min + a_max) / 2 * flat(top); while it counts fewer than `top`, it is
    rescaled by flat(top) / flat(count), up to the sandwich's upper end at
    flat(top), which counts at least that many.  Its count c_s then fixes
    slope = e_s / flat(c_s), and interior edge j sits at
    slope * flat(j c_s / s), near an equal-count quantile; an interior edge
    that adds no eigenvalue is dropped.
    """
    field = op.coefficients
    mu = np.sort(stencil_eigenvalues(op.grid))

    def flat(t):
        t = min(cluster_end(mu, t), mu.size - 1)
        return 0.5 * (mu[t - 1] + mu[t])

    upper = field.sandwich(flat(top))[1]
    edge, below = _count_below(op, 0.5 * (field.a_min + field.a_max) * flat(top))
    while below < top:
        if edge >= upper:
            raise EigensolveError(
                "completeness",
                f"inertia count: {below} eigenvalues of L lie below the sandwich's "
                f"bound {upper:.6g} on eigenvalue {top}",
            )
        grown = edge * flat(top) / flat(below)
        edge, below = _count_below(op, grown if edge < grown < upper else upper)
    slope = edge / flat(below)
    s = -(-below // MODES_PER_SLICE)
    edges, counts = [field.sandwich(mu[0])[0]], [0]
    for j in range(1, s):
        inner, count = _count_below(op, slope * flat(j * below // s))
        if counts[-1] < count < below:
            edges.append(inner)
            counts.append(count)
    return edges + [edge], counts + [below]


def _ldlt(op, sigma):
    """The shift used, L minus it and the sparse LU of that with diagonal
    pivots in symmetric mode, checked to be an LDL^T factorization (perm_r ==
    perm_c, D = diag(U)).

    The sliced solve's one factorization: its negative pivots count the
    eigenvalues below the shift (the slice edges and the final count), and
    its solve is the shift-invert operator of the slice centred there.  A
    shift where the factorization breaks down (a vanishing pivot makes it
    pivot off the diagonal, as on the flat stencil at its diagonal 2 d / h^2,
    where the spectrum's midpoint lies, or an eigenvalue makes L minus it
    singular) is moved up by SHIFT_NUDGE (1 + |sigma|) and tried again, up to
    SHIFT_TRIES shifts in all; callers measure at the returned shift."""
    for _ in range(SHIFT_TRIES):
        shifted = (op.matrix - sigma * sp.identity(op.size, format="csr")).tocsc()
        try:
            lu = spla.splu(
                shifted,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            problem = f"factorization of L - sigma I failed: {exc}"
        else:
            if np.array_equal(lu.perm_r, lu.perm_c):
                return sigma, shifted, lu
            problem = (
                "the factorization pivoted off the diagonal (perm_r != perm_c), "
                "so it is no LDL^T and its pivots count nothing"
            )
        sigma += SHIFT_NUDGE * (1.0 + abs(sigma))
    raise EigensolveError(
        "completeness", f"inertia count: {problem}, at each of {SHIFT_TRIES} nudged shifts"
    )


def _count_below(op, sigma) -> tuple[float, int]:
    """The shift used (_ldlt) and the eigenvalues of op below it, by the
    negative pivots of its LDL^T (Sylvester's law of inertia)."""
    sigma, _, lu = _ldlt(op, sigma)
    return sigma, int(np.count_nonzero(lu.U.diagonal() < 0))


def _inertia_count(op, lam, vec, end, tol, slices):
    """Certify that the ascending solved eigenpairs (lam, vec) of op, the
    grid-normalized union of the Lanczos slices whose edges and sizes are
    `slices`, include every eigenvalue of op up to lam[end - 1].  Returns
    the scaled residuals of the first `end` pairs, the grid Gram defect of
    every pair counted below sigma, and the Completeness record.

    sigma is the midpoint of the widest gap among lam[end - 1:], with k
    solved eigenvalues below it (nudged within that gap if _ldlt breaks
    down there).  Each counted pair must be a distinct eigenpair, or a
    ghost copy of one (two slices returning the same pair) could stand in
    for a skipped one: _certify judges the k pairs in one pass, their
    residuals, then their grid Gram matrix.  The LDL^T factorization of
    P (op - sigma I) P^T (_ldlt) has exactly as many negative eigenvalues as
    D has negative entries (Sylvester).  L D L^T differs from
    P (op - sigma I) P^T by the measured backward error E, which moves each
    eigenvalue by at most ||E||_2 <= ||E||_F (Weyl).  With ||E||_F below the
    distance from sigma to the nearest solved eigenvalue, every eigenvalue
    of op below lam[end - 1] is counted, so a count equal to k leaves no
    room for a skipped one.
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
    resid, defect = _certify(
        op, lam[:k], vec[:, :k], tol, "inertia count",
        f"the {k} pairs counted below sigma = {sigma:.6g}",
    )
    sigma, shifted, lu = _ldlt(op, sigma)
    pivots = lu.U.diagonal()
    count = int(np.count_nonzero(pivots < 0))
    # splu factors Pr A Pc = L U with Pr[perm_r[i], i] = 1, so row perm[i]
    # of L U is row i of A; invert to permute A
    order = np.empty_like(lu.perm_c)
    order[lu.perm_c] = np.arange(op.size)
    permuted = shifted[order][:, order]
    backward = float(spla.norm(permuted - lu.L @ sp.diags(pivots) @ lu.L.T))
    distance = float(np.min(np.abs(lam - sigma)))
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
    edges, sizes = slices
    done = Completeness(
        "lanczos", sigma=float(sigma), count_below=count, solved_below=k,
        backward_error=backward, distance=distance,
        slice_edges=tuple(map(float, edges)), slice_sizes=tuple(map(int, sizes)),
    )
    return resid[:end], defect, done


def _scaled_residuals(op, lam, vec):
    out = np.empty(vec.shape[1])
    for cols in blocks(vec.shape[1]):
        v, lv = vec[:, cols], lam[cols]
        R = op.matrix @ v
        R -= v * lv[None, :]
        num = np.sqrt(row_sums(np.square(R, out=R)))
        den = np.sqrt(row_sums(np.square(v, out=R))) * (1.0 + np.abs(lv))
        out[cols] = num / den
    return out


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
    for bit, stored or not.  Any other basis reads its stored columns, a
    column block at a time.
    """
    if not 1 <= n <= basis.count:
        raise ValueError(f"n must satisfy 1 <= n <= {basis.count}, got {n}")
    if basis.axis_vectors is None:
        basis.require_columns(n)
        per_k = np.empty(n)
        for cols in blocks(n):
            per_k[cols] = np.max(np.abs(basis.vectors[:, cols]), axis=0)
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
    """Slack margins of lambda_k in the sandwich (CoefficientField.sandwich)."""

    lower_margins: np.ndarray   # lambda_k - lower bound
    upper_margins: np.ndarray   # upper bound - lambda_k
    ok: bool
    worst: float


def comparability_check(
    basis_L: SpectralBasis,
    basis_lap: SpectralBasis,
    field: CoefficientField,
    k_max: int,
) -> ComparabilityReport:
    """Check the min-max eigenvalue sandwich (CoefficientField.sandwich)
    between L and -Delta."""
    if basis_L.grid != basis_lap.grid:
        raise ValueError("bases live on different grids")
    if k_max > min(basis_L.count, basis_lap.count):
        raise ValueError(f"k_max {k_max} exceeds available eigenpairs")
    lam = basis_L.eigenvalues[:k_max]
    low, high = field.sandwich(basis_lap.eigenvalues[:k_max])
    lower, upper = lam - low, high - lam
    tol = -1e-8 * (1.0 + np.abs(lam))
    ok = bool(np.all(lower >= tol) and np.all(upper >= tol))
    worst = float(min(np.min(lower), np.min(upper)))
    return ComparabilityReport(lower_margins=lower, upper_margins=upper, ok=ok, worst=worst)
