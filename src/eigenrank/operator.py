"""Flux-form finite-difference assembly of  -div(a grad u) + V u  on a Grid.

The diffusion coefficient is sampled at cell interfaces (never averaged from
nodes), so the row for node i reads, per axis,

    (a_{i+1/2} (u_i - u_{i+1}) + a_{i-1/2} (u_i - u_{i-1})) / h^2

with Dirichlet neighbours dropped (zero extension) or wrapped (periodic),
plus V_i u_i on the diagonal.  Assembling from faces makes the matrix
symmetric by construction and makes the ellipticity sandwich

    a_min <u, -Delta u>  <=  <u, L0 u>  <=  a_max <u, -Delta u>

an exact statement about the discrete quadratic forms, not an approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import DIRICHLET, PERIODIC, Grid

CONSTANT = "constant"
HARMONIC = "harmonic"
RANDOM_FOURIER = "random_fourier"

SCHRODINGER = "schrodinger"
LAPLACIAN = "laplacian"


class CoefficientError(ValueError):
    """A CoefficientSpec field out of range; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


@dataclass(frozen=True)
class CoefficientSpec:
    """Recipe for the coefficient pair (a, V).

    kind=constant:        a = a0, V = v0.
    kind=harmonic:        a = a0, V(x) = v_scale * |x - center|^2.
    kind=random_fourier:  a = a0 + a_amplitude * S_a(x), V = v_amplitude * (S_v(x)+1)/2,
                          where S_a, S_v are random cosine series with frequency
                          cutoff `cutoff`, normalized so |S| <= 1 (hence
                          a in [a0 - a_amplitude, a0 + a_amplitude] and
                          V in [0, v_amplitude]).  Draws come from a Philox
                          counter-based generator keyed by `seed`, so fields
                          are platform-independent and smooth at all resolved
                          scales.

    KIND_FIELDS names the fields each kind reads; these defaults are the
    config's.  `seed` has none: a random_fourier spec must name it.
    """

    kind: str
    a0: float = 1.0
    v0: float = 0.0
    v_scale: float = 1.0
    seed: int | None = None
    cutoff: int = 4
    a_amplitude: float = 0.3
    v_amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise CoefficientError("kind", f"must be one of {list(KIND_FIELDS)}, got {self.kind!r}")
        if not self.a0 > 0:
            raise CoefficientError("a0", f"must be positive, got {self.a0}")
        if self.kind == CONSTANT and self.v0 < 0:
            raise CoefficientError("v0", f"must be >= 0, got {self.v0}")
        if self.kind == HARMONIC and self.v_scale < 0:
            raise CoefficientError("v_scale", f"must be >= 0, got {self.v_scale}")
        if self.kind == RANDOM_FOURIER:
            if self.seed is None or not 0 <= self.seed < 2**64:
                raise CoefficientError("seed", f"must be an integer in [0, 2**64), got {self.seed}")
            if not 0 <= self.a_amplitude < self.a0:
                raise CoefficientError(
                    "a_amplitude", f"must satisfy 0 <= amplitude < a0, got {self.a_amplitude}"
                )
            if self.v_amplitude < 0:
                raise CoefficientError("v_amplitude", f"must be >= 0, got {self.v_amplitude}")
            if self.cutoff < 1:
                raise CoefficientError("cutoff", f"must be >= 1, got {self.cutoff}")


KIND_FIELDS = {
    CONSTANT: ("a0", "v0"),
    HARMONIC: ("a0", "v_scale"),
    RANDOM_FOURIER: ("seed", "cutoff", "a_amplitude", "v_amplitude", "a0"),
}


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Sampled coefficients: a at cell interfaces, V at nodes, cached extrema."""

    grid: Grid
    a_face: tuple[np.ndarray, ...]   # one flat array per axis, grid order (axis 0 fastest)
    v_node: np.ndarray               # flat, length G
    a_min: float
    a_max: float
    v_sup: float

    def sandwich(self, mu):
        """Min-max bounds a_min mu - v_sup, a_max mu + v_sup on the eigenvalue
        of L at the index of the flat eigenvalue mu (the form sandwich above)."""
        return self.a_min * mu - self.v_sup, self.a_max * mu + self.v_sup


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric sparse stencil operator on a grid.

    `kind` records what was assembled (schrodinger or laplacian) and is
    inherited by spectral bases; `coefficients` is the sampled field it was
    assembled from, whose bounds place the Lanczos spectrum slices.
    """

    grid: Grid
    kind: str
    matrix: sp.csr_array
    coefficients: CoefficientField

    @property
    def size(self) -> int:
        return self.grid.node_count


def sample_coefficients(spec: CoefficientSpec, grid: Grid) -> CoefficientField:
    """Evaluate (a, V) on the grid; deterministic given (spec, grid)."""
    eval_a, eval_v = _coefficient_functions(spec, grid)
    a_face = tuple(eval_a(_face_coordinates(grid, axis)) for axis in range(grid.dimension))
    v_node = eval_v(grid.nodes())

    a_min = min(float(f.min()) for f in a_face)
    a_max = max(float(f.max()) for f in a_face)
    if not a_min > 0:
        raise ValueError(f"sampled diffusion coefficient dips to {a_min} <= 0")
    v_sup = float(np.max(np.abs(v_node))) if v_node.size else 0.0
    return CoefficientField(
        grid=grid,
        a_face=a_face,
        v_node=v_node,
        a_min=a_min,
        a_max=a_max,
        v_sup=v_sup,
    )


def _face_coordinates(grid: Grid, axis: int) -> np.ndarray:
    """(F, d) coordinates of the faces normal to `axis`, flat order."""
    axes = [
        grid.axis_faces(a) if a == axis else grid.axis_nodes(a)
        for a in range(grid.dimension)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel(order="F") for m in mesh])


def _fourier_series(seed: int, cutoff: int, grid: Grid):
    """Two normalized random cosine series (for a and for V).

    Mode coefficients depend only on (seed, cutoff, dimension); returned
    closures evaluate Sum_k g_k prod_a cos(pi k_a x_a / L_a) / Sum|g|,
    which is bounded by 1 in absolute value.
    """
    d = grid.dimension
    modes = [k for k in itertools.product(range(cutoff + 1), repeat=d) if any(k)]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g_a = rng.standard_normal(len(modes))
    g_v = rng.standard_normal(len(modes))
    # periodic grids need L-periodic fields so the wrap face sees one value
    freq = 2.0 * np.pi if grid.boundary == PERIODIC else np.pi

    def make(coeffs):
        scale = np.sum(np.abs(coeffs))

        def series(coords):
            out = np.zeros(coords.shape[0])
            for g, k in zip(coeffs, modes):
                term = np.ones(coords.shape[0])
                for a in range(d):
                    if k[a]:
                        term *= np.cos(freq * k[a] * coords[:, a] / grid.lengths[a])
                out += g * term
            return out / scale

        return series

    return make(g_a), make(g_v)


def _coefficient_functions(spec: CoefficientSpec, grid: Grid):
    """(a, V) as functions of (N, d) coordinates; a random series is drawn
    once per field."""
    def constant(value):
        return lambda coords: np.full(coords.shape[0], value)

    if spec.kind == CONSTANT:
        return constant(spec.a0), constant(spec.v0)
    if spec.kind == HARMONIC:
        center = np.asarray(grid.lengths) / 2.0
        return constant(spec.a0), lambda coords: spec.v_scale * np.sum((coords - center) ** 2, axis=1)
    series_a, series_v = _fourier_series(spec.seed, spec.cutoff, grid)
    lo, hi = spec.a0 - spec.a_amplitude, spec.a0 + spec.a_amplitude

    def eval_a(coords):
        # |series| <= 1 already; clip guards against roundoff at the bound
        return np.clip(spec.a0 + spec.a_amplitude * series_a(coords), lo, hi)

    def eval_v(coords):
        v = spec.v_amplitude * (series_v(coords) + 1.0) / 2.0
        return np.clip(v, 0.0, spec.v_amplitude)

    return eval_a, eval_v


def assemble_schrodinger(field: CoefficientField, grid: Grid) -> DiscreteOperator:
    """Assemble L = -div(a grad) + V in flux form; exactly symmetric."""
    if field.grid != grid:
        raise ValueError("coefficient field sampled on a different grid")
    return _assemble(field, SCHRODINGER)


def assemble_laplacian(grid: Grid) -> DiscreteOperator:
    """Assemble -Delta, i.e. the a=1, V=0 case of the flux form."""
    return _assemble(sample_coefficients(CoefficientSpec(CONSTANT), grid), LAPLACIAN)


def _face_difference(grid: Grid, axis: int):
    """B_axis, the (F, G) difference across each face normal to `axis`.

    Its 1-D factor has row j = u_j - u_{j-1} for face j of grid.axis_faces:
    (p+1) x p with zero ghost nodes for Dirichlet, p x p with a wrap for
    periodic.  The Kronecker factors run from the slowest axis down, so the
    faces follow the grid's flat order (axis 0 fastest), as the nodes do.
    """
    p = grid.points_per_axis[axis]
    if grid.boundary == DIRICHLET:
        diff = sp.eye(p + 1, p) - sp.eye(p + 1, p, k=-1)
    else:
        diff = sp.eye(p) - sp.eye(p, k=-1) - sp.eye(p, k=p - 1)
    out = sp.eye(1)
    for b in reversed(range(grid.dimension)):
        factor = diff if b == axis else sp.eye(grid.points_per_axis[b])
        out = sp.kron(out, factor, format="csr")
    return out


def _assemble(field: CoefficientField, kind: str) -> DiscreteOperator:
    """L = sum_axis B_axis^T diag(a_axis / h_axis^2) B_axis + diag(V)."""
    grid = field.grid
    mat = sp.diags(field.v_node)
    for axis, a in enumerate(field.a_face):
        diff = _face_difference(grid, axis)
        mat = mat + diff.T @ sp.diags(a / grid.spacing[axis] ** 2) @ diff
    return DiscreteOperator(grid=grid, kind=kind, matrix=sp.csr_array(mat), coefficients=field)


def _axis_modes(points: int, boundary: str):
    """Angles theta_k, sine flags and mode numbers of the flat 1-D
    stencil's modes.

    Mode k is sin(j theta_k) or cos(j theta_k) at node j.  Dirichlet: the
    sines theta_k = k pi/(p+1), k = 1..p, numbered k.  Periodic: the
    constant mode, then cos/sin pairs with theta = 2 pi f/p, then the
    Nyquist mode cos(j pi) when p is even, numbered by frequency f + 1.
    Both orders are ascending in eigenvalue.
    """
    if boundary == DIRICHLET:
        number = np.arange(1, points + 1)
        return number * np.pi / (points + 1), np.ones(points, dtype=bool), number
    k = np.arange(points)
    freq = (k + 1) // 2
    return 2.0 * np.pi * freq / points, (k % 2 == 0) & (k > 0), freq + 1


def axis_eigenvalues(points: int, spacing: float, boundary: str) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(theta_k/2) of the flat 1-D stencil
    (-1, 2, -1)/h^2 on one axis, in the mode order of axis_eigenvectors."""
    theta, _, _ = _axis_modes(points, boundary)
    return (4.0 / spacing**2) * np.sin(theta / 2.0) ** 2


def stencil_eigenvalues(grid: Grid) -> np.ndarray:
    """All G eigenvalues of the flat stencil -Delta on the grid: the sums of
    the per-axis axis_eigenvalues, one per tensor mode in the grid's flat
    order (axis 0 fastest), unsorted."""
    total = np.zeros(1)
    for p, h in zip(grid.points_per_axis, grid.spacing):
        total = (axis_eigenvalues(p, h, grid.boundary)[:, None] + total[None, :]).ravel()
    return total


def axis_eigenvectors(points: int, spacing: float, boundary: str) -> np.ndarray:
    """(p, p) eigenvectors of the flat 1-D stencil on one axis, one mode per
    column in the order of axis_eigenvalues, normalized so that
    spacing * sum(v^2) = 1 (the axis factor of the grid inner product)."""
    theta, sine, _ = _axis_modes(points, boundary)
    nodes = np.arange(1, points + 1) if boundary == DIRICHLET else np.arange(points)
    phase = np.outer(nodes, theta)
    vec = np.where(sine, np.sin(phase), np.cos(phase))
    vec /= np.sqrt(spacing * np.sum(vec * vec, axis=0))
    return vec


def weyl_regime_cap(grid: Grid) -> int:
    """Largest eigenvalue index that stays clear of stencil saturation.

    Upper discrete eigenvalues flatten against the 4/h^2 ceiling and would
    corrupt spectral fits, so checks are restricted to tensor modes whose
    mode number (a Dirichlet sine's index, a periodic mode's frequency + 1)
    stays at most points // 4 on every axis.  Returns the number of
    flat-grid eigenvalues strictly below the lowest eigenvalue of a mode
    past that rule on some axis.
    """
    lam = stencil_eigenvalues(grid)
    points = grid.points_per_axis
    past = np.zeros(lam.shape, dtype=bool)
    for p, k in zip(points, np.unravel_index(np.arange(lam.size), points, order="F")):
        past |= _axis_modes(p, grid.boundary)[2][k] > p // 4
    return int(np.count_nonzero(lam < np.min(lam[past])))
