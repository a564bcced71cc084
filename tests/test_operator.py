import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from eigenrank.grid import make_grid
from eigenrank.operator import (
    CONSTANT,
    HARMONIC,
    RANDOM_FOURIER,
    CoefficientSpec,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
    weyl_regime_cap,
)


def dirichlet_laplacian_spectrum(length, points):
    """Independent closed form: (4/h^2) sin^2(k pi h / (2L)), k = 1..points."""
    h = length / (points + 1)
    k = np.arange(1, points + 1)
    return (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * length)) ** 2


class TestCoefficientSampling:
    def test_constant(self):
        g = make_grid(1, np.pi, 32, "dirichlet")
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.0), g)
        assert all(np.all(a == 1.0) for a in f.a_face)
        assert np.all(f.v_node == 0.0)
        assert (f.a_min, f.a_max, f.v_sup) == (1.0, 1.0, 0.0)

    def test_harmonic_sup_at_extreme_node(self):
        g = make_grid(1, np.pi, 512, "dirichlet")
        f = sample_coefficients(CoefficientSpec(HARMONIC, a0=1.0, v_scale=1.0), g)
        h = g.spacing[0]
        assert f.v_sup == pytest.approx((np.pi / 2 - h) ** 2, rel=1e-12)
        assert f.v_sup == pytest.approx((np.pi / 2) ** 2, rel=0.01)  # ~2.467 as grid refines

    def test_random_fourier_bounds_and_determinism(self):
        g = make_grid(2, (np.pi, np.pi), (24, 24), "dirichlet")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=7, cutoff=4, a_amplitude=0.3, v_amplitude=0.5)
        f1 = sample_coefficients(spec, g)
        f2 = sample_coefficients(spec, g)
        assert f1.a_min >= 0.7 and f1.a_max <= 1.3
        assert 0.0 <= np.min(f1.v_node) and f1.v_sup <= 0.5
        for a, b in zip(f1.a_face, f2.a_face):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(f1.v_node, f2.v_node)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            CoefficientSpec(CONSTANT, a0=-1.0)
        with pytest.raises(ValueError):
            CoefficientSpec(CONSTANT, a0=1.0, v0=-0.5)
        with pytest.raises(ValueError):
            CoefficientSpec(RANDOM_FOURIER, seed=1, a_amplitude=1.5, a0=1.0)
        # a random field is drawn from its seed, so it must name one the generator takes
        for seed in (None, -1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                CoefficientSpec(RANDOM_FOURIER, seed=seed)


class TestAssembly:
    def test_flat_1d_matches_closed_form(self):
        g = make_grid(1, np.pi, 64, "dirichlet")
        op = assemble_laplacian(g)
        lam = sla.eigvalsh(op.matrix.toarray())
        np.testing.assert_allclose(lam, dirichlet_laplacian_spectrum(np.pi, 64), rtol=1e-10)

    def test_tridiagonal_stencil_entries(self):
        g = make_grid(1, np.pi, 16, "dirichlet")
        h = g.spacing[0]
        m = assemble_laplacian(g).matrix.toarray()
        np.testing.assert_allclose(np.diag(m), 2.0 / h**2, rtol=1e-14)
        np.testing.assert_allclose(np.diag(m, 1), -1.0 / h**2, rtol=1e-14)

    def test_potential_shift_is_diagonal(self):
        g = make_grid(1, np.pi, 32, "dirichlet")
        base = assemble_laplacian(g).matrix
        c = 2.5
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=c), g)
        shifted = assemble_schrodinger(f, g).matrix
        diff = (shifted - base).toarray()
        np.testing.assert_allclose(diff, c * np.eye(32), atol=1e-14)

    def test_doubled_coefficient_doubles_eigenvalues(self):
        g = make_grid(1, np.pi, 32, "dirichlet")
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=2.0, v0=0.0), g)
        lam2 = sla.eigvalsh(assemble_schrodinger(f, g).matrix.toarray())
        lam1 = sla.eigvalsh(assemble_laplacian(g).matrix.toarray())
        np.testing.assert_allclose(lam2, 2.0 * lam1, rtol=1e-12)

    def test_laplacian_equals_flat_schrodinger(self):
        g = make_grid(2, (np.pi, np.pi), (12, 12), "dirichlet")
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.0), g)
        assert (assemble_schrodinger(f, g).matrix - assemble_laplacian(g).matrix).nnz == 0

    def test_periodic_circulant_spectrum(self):
        g = make_grid(1, 2 * np.pi, 16, "periodic")
        lam = np.sort(sla.eigvalsh(assemble_laplacian(g).matrix.toarray()))
        h = g.spacing[0]
        k = np.arange(16)
        closed = np.sort((4.0 / h**2) * np.sin(np.pi * k / 16) ** 2)
        np.testing.assert_allclose(lam, closed, atol=1e-10)
        # nonzero eigenvalues come in pairs
        uniq, counts = np.unique(np.round(closed, 8), return_counts=True)
        assert np.all(counts[(uniq > 1e-8) & (uniq < closed.max() - 1e-8)] == 2)

    def test_row_sums_nonnegative_positive_only_near_boundary(self):
        g = make_grid(2, (np.pi, np.pi), (10, 10), "dirichlet")
        m = assemble_laplacian(g).matrix
        sums = np.asarray(m.sum(axis=1)).ravel()
        assert np.all(sums >= -1e-12)
        interior = np.zeros((10, 10), dtype=bool)
        interior[1:-1, 1:-1] = True
        interior = interior.ravel(order="F")
        assert np.max(np.abs(sums[interior])) < 1e-10
        assert np.all(sums[~interior] > 1e-10)

    def test_exact_symmetry_random_field(self):
        g = make_grid(2, (np.pi, np.pi), (16, 16), "dirichlet")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=3, cutoff=3, a_amplitude=0.4, v_amplitude=1.0)
        m = assemble_schrodinger(sample_coefficients(spec, g), g).matrix
        assert abs(m - m.T).nnz == 0


class TestFaceLayout:
    """Each coupling of L reads a at its own face, evaluated independently of
    the sampling and the assembly."""

    SPEC = CoefficientSpec(RANDOM_FOURIER, seed=5, cutoff=3, a_amplitude=0.4, v_amplitude=0.7)

    @pytest.mark.parametrize(
        "lengths, points, boundary",
        [((1.0, 1.3), (8, 9), "dirichlet"), ((1.0, 1.7), (8, 10), "periodic")],
    )
    def test_couplings_read_a_at_their_faces(self, lengths, points, boundary):
        g = make_grid(2, lengths, points, boundary)
        m = assemble_schrodinger(sample_coefficients(self.SPEC, g), g).matrix.toarray()
        p, h = g.points_per_axis, g.spacing
        first = 1 if boundary == "dirichlet" else 0   # index of the first stored node

        def flat(i):
            return i[0] + p[0] * i[1]

        def a_over_h2(x, axis):
            return _random_a(self.SPEC, g, np.array([x]))[0] / h[axis] ** 2

        diag = _random_v(self.SPEC, g, g.nodes())
        for i in itertools.product(range(p[0]), range(p[1])):
            x = np.array([h[b] * (i[b] + first) for b in range(2)])
            for axis in range(2):
                # the face between node i and its upper neighbour along axis
                face = x.copy()
                face[axis] += h[axis] / 2
                c = a_over_h2(face, axis)
                j = list(i)
                j[axis] += 1
                if boundary == "periodic":
                    j[axis] %= p[axis]
                diag[flat(i)] += c
                if j[axis] < p[axis]:
                    diag[flat(j)] += c
                    assert m[flat(i), flat(j)] == pytest.approx(-c, rel=1e-12)
                    assert m[flat(j), flat(i)] == pytest.approx(-c, rel=1e-12)
                if boundary == "dirichlet" and i[axis] == 0:
                    # the face below the first node has a zero ghost node
                    face[axis] -= h[axis]
                    diag[flat(i)] += a_over_h2(face, axis)
        np.testing.assert_allclose(np.diag(m), diag, rtol=1e-12)


class TestQuadraticForms:
    def test_ellipticity_sandwich_on_random_vectors(self):
        g = make_grid(2, (np.pi, np.pi), (16, 16), "dirichlet")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=11, cutoff=3, a_amplitude=0.3, v_amplitude=0.0)
        f = sample_coefficients(spec, g)
        L0 = assemble_schrodinger(f, g).matrix   # V = 0 here
        D = assemble_laplacian(g).matrix
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(g.node_count)
            qa = u @ (L0 @ u)
            qd = u @ (D @ u)
            assert f.a_min * qd <= qa * (1 + 1e-12) + 1e-12
            assert qa <= f.a_max * qd * (1 + 1e-12) + 1e-12

    def test_consistency_with_continuum(self):
        # discrete lambda_k ~ k^2 with O(h^2 k^4) error on [0, pi]
        points = 256
        g = make_grid(1, np.pi, points, "dirichlet")
        lam = sla.eigvalsh(assemble_laplacian(g).matrix.toarray())
        for k in range(1, points // 8 + 1):
            assert abs(lam[k - 1] - k**2) <= 0.05 * k**2

    def test_gradient_energy_matches_operator_form(self):
        g = make_grid(2, (np.pi, np.pi), (14, 14), "dirichlet")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=5, cutoff=2, a_amplitude=0.25, v_amplitude=0.0)
        f = sample_coefficients(spec, g)
        op = assemble_schrodinger(f, g)
        lap = assemble_laplacian(g)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.node_count)
        assert _weighted_energy(g, u, f) == pytest.approx(_form(g, op, u), rel=1e-12)
        flat = sample_coefficients(CoefficientSpec(CONSTANT), g)
        assert _weighted_energy(g, u, flat) == pytest.approx(_form(g, lap, u), rel=1e-12)

    def test_gradient_energy_periodic(self):
        g = make_grid(1, 2 * np.pi, 32, "periodic")
        lap = assemble_laplacian(g)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(32)
        flat = sample_coefficients(CoefficientSpec(CONSTANT), g)
        assert _weighted_energy(g, u, flat) == pytest.approx(_form(g, lap, u), rel=1e-12)


def _reference_modes(grid):
    """Every tensor mode of the flat stencil as (eigenvalue, past the
    quarter rule), enumerated mode by mode from per-axis closed forms.

    A Dirichlet axis has the sines k = 1..p with (4/h^2) sin^2(k pi/(2(p+1)));
    a periodic axis has frequency 0, then a cos/sin pair per frequency, then
    the Nyquist mode when p is even, with (4/h^2) sin^2(f pi/p).  A mode is
    past the rule when its number (k, or f + 1) exceeds p // 4 on some axis.
    """
    axes = []
    for p, h in zip(grid.points_per_axis, grid.spacing):
        if grid.boundary == "dirichlet":
            numbered = [(k, np.sin(k * np.pi / (2 * (p + 1))) ** 2) for k in range(1, p + 1)]
        else:
            freqs = [0] + [f for f in range(1, p // 2 + 1) for _ in range(1 if 2 * f == p else 2)]
            numbered = [(f + 1, np.sin(f * np.pi / p) ** 2) for f in freqs]
        axes.append([(number > p // 4, 4.0 / h**2 * s2) for number, s2 in numbered])
    modes = []
    for mode in itertools.product(*axes):
        modes.append((sum(lam for _, lam in mode), any(past for past, _ in mode)))
    return modes


CAP_GRIDS = [
    (1, 512, "dirichlet"),          # flat-1d, harmonic-1d
    (2, (64, 64), "dirichlet"),     # flat-2d, random-2d
    (1, 32, "periodic"),
    (1, 30, "periodic"),
    (2, (12, 12), "periodic"),
    (2, (16, 16), "periodic"),
    (2, (20, 20), "periodic"),
    (3, (8, 9, 8), "periodic"),
    (3, (9, 10, 8), "dirichlet"),
]


@pytest.mark.parametrize("dimension,points,boundary", CAP_GRIDS)
def test_weyl_regime_cap_matches_the_mode_enumeration(dimension, points, boundary):
    g = make_grid(dimension, np.pi, points, boundary)
    modes = _reference_modes(g)
    assert len(modes) == g.node_count
    bad = min(lam for lam, past in modes if past)
    cap = weyl_regime_cap(g)
    assert cap == sum(lam < bad for lam, _ in modes)
    lowest = sorted(modes, key=lambda mode: mode[0])[:cap]
    assert not any(past for _, past in lowest)


def test_weyl_regime_cap_values():
    pins = [
        (1, 512, "dirichlet", 128),
        (2, (64, 64), "dirichlet", 205),
        (2, (256, 256), "dirichlet", 3203),
        (3, (32, 32, 32), "dirichlet", 290),
        # of the 7 x 7 modes of frequency below 4 on each axis, the four of
        # frequency (3, 3) lie above the lowest mode past the rule, (4, 0)
        (2, (16, 16), "periodic", 45),
    ]
    for dimension, points, boundary, cap in pins:
        assert weyl_regime_cap(make_grid(dimension, np.pi, points, boundary)) == cap


def _weighted_energy(g, u, field):
    """sum_faces a_f (u_p - u_q)^2 / h^2 * weight, with zero ghost values at
    Dirichlet boundary faces and a wrap across periodic ones, i.e. the form
    <L0 u, u> read off the faces independently of the assembly."""
    vals = u.reshape(g.points_per_axis, order="F")
    total = 0.0
    for axis, a in enumerate(field.a_face):
        if g.boundary == "dirichlet":
            diff = np.diff(vals, axis=axis, prepend=0.0, append=0.0)
        else:
            # periodic face j sits between node (j - 1) mod p and node j
            diff = vals - np.roll(vals, 1, axis=axis)
        # face values are flat in the grid's order, axis 0 fastest
        total += np.sum(a.reshape(diff.shape, order="F") * diff**2) / g.spacing[axis] ** 2
    return g.quadrature_weight * total


def _form(grid, op, u):
    """<M u, u> in the grid inner product."""
    return grid.quadrature_weight * float(np.dot(op.matrix @ u, u))


def _random_series(spec, grid, coords, which):
    """The normalized random cosine series of a random_fourier spec at
    `coords`: which = 0 for a, 1 for V (drawn in that order)."""
    modes = [k for k in itertools.product(range(spec.cutoff + 1), repeat=grid.dimension) if any(k)]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
    g = [rng.standard_normal(len(modes)) for _ in range(2)][which]
    freq = 2.0 * np.pi if grid.boundary == "periodic" else np.pi
    out = np.zeros(len(coords))
    for gk, k in zip(g, modes):
        out += gk * np.prod(np.cos(freq * np.array(k) * coords / grid.lengths), axis=1)
    return out / np.sum(np.abs(g))


def _random_a(spec, grid, coords):
    return spec.a0 + spec.a_amplitude * _random_series(spec, grid, coords, 0)


def _random_v(spec, grid, coords):
    return spec.v_amplitude * (_random_series(spec, grid, coords, 1) + 1.0) / 2.0
