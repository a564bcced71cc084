from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from eigenrank.grid import make_grid
from eigenrank.operator import (
    CONSTANT,
    RANDOM_FOURIER,
    CoefficientSpec,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
)
from eigenrank import eigensolve, pipeline
from eigenrank.config import load_config, parse_config
from eigenrank.pipeline import build_pipeline
from eigenrank.products import expansion_coefficients, product_matrix
from eigenrank.eigensolve import (
    EigensolveError,
    _fix_signs,
    _scaled_residuals,
    comparability_check,
    SpectralBasis,
    degenerate_clusters,
    laplacian_eigenpairs,
    lowest_eigenpairs,
    sup_norms,
    supnorm_growth_fit,
    weyl_fit,
)
from conftest import dense_basis
from rotation import rotate_cluster


def test_flat_1d_closed_form_and_certificates():
    g = make_grid(1, np.pi, 512, "dirichlet")
    basis = lowest_eigenpairs(assemble_laplacian(g), 32, 1e-9)
    h = g.spacing[0]
    k = np.arange(1, 33)
    closed = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2   # L = pi, so k pi h/(2L) = k h/2
    np.testing.assert_allclose(basis.eigenvalues, closed, rtol=1e-9)
    assert basis.gram_defect() <= 1e-10
    assert np.max(basis.residuals) <= 1e-9
    # grid normalization: Euclidean norm is weight^(-1/2)
    np.testing.assert_allclose(
        np.linalg.norm(basis.vectors, axis=0),
        g.quadrature_weight**-0.5,
        rtol=1e-12,
    )


def test_shifted_operator_same_vectors():
    g = make_grid(1, np.pi, 64, "dirichlet")
    f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=3.25), g)
    b0 = laplacian_eigenpairs(assemble_laplacian(g), 16, 1e-9)
    b1 = lowest_eigenpairs(assemble_schrodinger(f, g), 16, 1e-9)
    np.testing.assert_allclose(b1.eigenvalues, b0.eigenvalues[:16] + 3.25, rtol=1e-12)
    np.testing.assert_allclose(b1.vectors, b0.vectors, atol=1e-10)


def test_rayleigh_consistency():
    g = make_grid(1, np.pi, 128, "dirichlet")
    op = assemble_laplacian(g)
    basis = lowest_eigenpairs(op, 16, 1e-9)
    for k in range(16):
        phi = basis.vectors[:, k]
        rq = g.quadrature_weight * float(np.dot(op.matrix @ phi, phi))
        assert rq == pytest.approx(basis.eigenvalues[k], rel=1e-8)


def test_flat_2d_degeneracies_and_projector(flat2d_small):
    grid, op, _, basis = flat2d_small
    # continuum pattern k1^2 + k2^2: 2, 5, 5, 8, 10, 10, ...
    np.testing.assert_allclose(
        basis.eigenvalues[:6], [2, 5, 5, 8, 10, 10], rtol=0.02
    )
    clusters = degenerate_clusters(basis.eigenvalues[:8])
    pair = next(c for c in clusters if len(c) == 2)

    def projector(b):
        block = b.vectors[:, pair]
        return grid.quadrature_weight * (block @ block.T)

    rotated = rotate_cluster(basis, pair, seed=123)
    proj, proj_rot = projector(basis), projector(rotated)
    assert np.max(np.abs(proj - proj_rot)) <= 1e-8
    # individual vectors did change
    assert np.max(np.abs(rotated.vectors[:, pair] - basis.vectors[:, pair])) > 1e-3


def test_rotate_cluster_validates_rotation(flat2d_small):
    _, _, _, basis = flat2d_small
    with pytest.raises(ValueError):
        rotate_cluster(basis, [1, 2], rotation=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_m_out_of_range():
    g = make_grid(1, np.pi, 16, "dirichlet")
    op = assemble_laplacian(g)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 17, 1e-9)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0, 1e-9)
    # the inertia count puts its shift under a solved eigenvalue above the
    # window, and eigsh solves fewer pairs than unknowns: m <= size - 2
    op = _random_2d_op(points=8)
    for m in (op.size, op.size - 1):
        with pytest.raises(ValueError, match=r"1 <= m <= 62, got"):
            lowest_eigenpairs(op, m, 1e-9)
    assert lowest_eigenpairs(op, op.size - 2, 1e-9).count == 62


def test_wide_flat_stencil_window_fails_loudly():
    # m = 16 of the flat 64-point stencil solves 32 modes, whose top slice
    # edge flat(32) = 2/h^2 is the stencil's diagonal: the factorization
    # there pivots off the diagonal and counts nothing, so the solve stops
    # rather than return pairs it cannot certify (the pipeline takes this
    # operator's basis from the closed form)
    op = assemble_laplacian(make_grid(1, np.pi, 64, "dirichlet"))
    with pytest.raises(EigensolveError, match="inertia count") as info:
        lowest_eigenpairs(op, 16, 1e-9)
    assert info.value.check == "completeness"


def test_iterative_path_matches_closed_form():
    # above the dense cap; the certificate floor is eps*||M|| ~ 3e-9 here,
    # so ask for the tolerance the grid can actually certify
    points = 6000
    g = make_grid(1, np.pi, points, "dirichlet")
    basis = lowest_eigenpairs(assemble_laplacian(g), 8, 1e-8)
    h = g.spacing[0]
    k = np.arange(1, 9)
    closed = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2
    np.testing.assert_allclose(basis.eigenvalues, closed, rtol=1e-8)
    assert basis.gram_defect() <= 1e-10
    assert np.max(basis.residuals) <= 1e-8


def _direct_residuals(op, lam, vec):
    """Scaled residuals ||A v - lam v|| / (||v|| (1 + |lam|)), column by column."""
    return [
        np.linalg.norm(op.matrix @ vec[:, k] - lam[k] * vec[:, k])
        / (np.linalg.norm(vec[:, k]) * (1.0 + abs(lam[k])))
        for k in range(len(lam))
    ]


def test_lanczos_failure_reports_worst_partial_residual(monkeypatch):
    # ARPACK hands back the pairs it has when it runs out of iterations; the
    # error carries the worst scaled residual among them
    g = make_grid(1, np.pi, 6000, "dirichlet")
    op = assemble_laplacian(g)
    x = g.axis_nodes(0)
    vec = np.column_stack([np.sin(k * x) for k in (1, 2, 3)])
    vec[:, 1] += 1e-3 * np.cos(x)
    lam = np.array([1.0, 4.0, 9.0])

    def stalled(*args, **kwargs):
        raise eigensolve.spla.ArpackNoConvergence("stalled", lam, vec)

    monkeypatch.setattr(eigensolve.spla, "eigsh", stalled)
    with pytest.raises(EigensolveError, match="failed to converge") as info:
        lowest_eigenpairs(op, 3, 1e-9)
    direct = _direct_residuals(op, lam, vec)
    assert info.value.worst_residual == pytest.approx(max(direct), rel=1e-12)


def test_residual_certificate_reports_the_worst_residual(monkeypatch):
    # two columns of a dense window pushed off their eigenvectors by
    # different amounts; the error carries the larger scaled residual
    seen = {}

    def perturb(vec):
        _fix_signs(vec)
        vec[:, 2] += 1e-6 * vec[:, 5]
        vec[:, 4] += 1e-4 * vec[:, 6]
        seen["vec"] = vec.copy()

    monkeypatch.setattr(eigensolve, "_fix_signs", perturb)
    g = make_grid(1, np.pi, 64, "dirichlet")
    op = assemble_laplacian(g)
    with pytest.raises(EigensolveError, match="residual") as info:
        lowest_eigenpairs(op, 8, 1e-9)
    assert info.value.check == "residuals"
    lam = sla.eigh(op.matrix.toarray(), eigvals_only=True)[:8]
    direct = _direct_residuals(op, lam, seen["vec"])
    assert direct[4] > 10 * direct[2] > 1e-9
    assert info.value.worst_residual == pytest.approx(max(direct), rel=1e-6)


class TestWeylFit:
    def test_flat_1d_exponent(self):
        g = make_grid(1, np.pi, 512, "dirichlet")
        basis = lowest_eigenpairs(assemble_laplacian(g), 64, 1e-9)
        fit = weyl_fit(basis, 1, 4, 64)
        assert fit.exponent == pytest.approx(2.0, abs=0.05)

    def test_flat_2d_exponent(self, flat2d_pipeline):
        # the staircase and boundary term need the full 64x64 window
        basis = flat2d_pipeline.basis_L
        cap = 205
        fit = weyl_fit(basis, 2, max(4, cap // 8), cap)
        assert fit.exponent == pytest.approx(1.0, abs=0.1)
        assert fit.expected_exponent == 1.0

    def test_scaling_doubles_constant(self):
        g = make_grid(1, np.pi, 256, "dirichlet")
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=2.0, v0=0.0), g)
        b1 = lowest_eigenpairs(assemble_laplacian(g), 32, 1e-9)
        b2 = lowest_eigenpairs(assemble_schrodinger(f, g), 32, 1e-9)
        fit1 = weyl_fit(b1, 1, 4, 32)
        fit2 = weyl_fit(b2, 1, 4, 32)
        assert fit2.exponent == pytest.approx(fit1.exponent, abs=1e-9)
        assert fit2.constant == pytest.approx(2.0 * fit1.constant, rel=1e-9)

    def test_window_too_small(self):
        g = make_grid(1, np.pi, 64, "dirichlet")
        basis = laplacian_eigenpairs(assemble_laplacian(g), 16, 1e-9)
        with pytest.raises(ValueError):
            weyl_fit(basis, 1, 4, 10)
        with pytest.raises(ValueError):
            weyl_fit(basis, 1, 2, 16)


class TestSupNorms:
    def test_flat_1d_sine_amplitude(self):
        g = make_grid(1, np.pi, 512, "dirichlet")
        basis = lowest_eigenpairs(assemble_laplacian(g), 64, 1e-9)
        per_k, max_n = sup_norms(basis, 64)
        np.testing.assert_allclose(per_k, np.sqrt(2 / np.pi), rtol=0.02)
        assert max_n == pytest.approx(np.sqrt(2 / np.pi), rel=0.02)

    def test_flat_2d_product_amplitude(self, flat2d_small):
        _, _, _, basis = flat2d_small
        per_k, _ = sup_norms(basis, 1)
        assert per_k[0] == pytest.approx(2 / np.pi, rel=0.02)

    def test_max_nondecreasing(self, flat2d_small):
        _, _, _, basis = flat2d_small
        maxima = [sup_norms(basis, n)[1] for n in range(1, 30)]
        assert np.all(np.diff(maxima) >= 0)

    def test_growth_fit_flat_2d(self, flat2d_small):
        _, _, _, basis = flat2d_small
        alpha, _ = supnorm_growth_fit(basis, 4, 60)
        assert alpha <= 0.25 + 0.1


class TestComparability:
    def test_identical_operators_zero_margins(self):
        g = make_grid(1, np.pi, 64, "dirichlet")
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.0), g)
        # L is the flat stencil, so its basis is the closed form, as in the
        # pipeline
        blap = laplacian_eigenpairs(assemble_laplacian(g), 32, 1e-9)
        bL = replace(blap, tag=assemble_schrodinger(f, g).kind)
        rep = comparability_check(bL, blap, f, 32)
        assert rep.ok
        scale = 1.0 + np.abs(bL.eigenvalues[:32])
        assert np.max(np.abs(rep.lower_margins) / scale) < 1e-10
        assert np.max(np.abs(rep.upper_margins) / scale) < 1e-10

    def test_constant_potential_margins(self):
        g = make_grid(1, np.pi, 64, "dirichlet")
        c = 0.75
        f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=c), g)
        bL = lowest_eigenpairs(assemble_schrodinger(f, g), 16, 1e-9)
        blap = laplacian_eigenpairs(assemble_laplacian(g), 16, 1e-9)
        rep = comparability_check(bL, blap, f, 16)
        assert rep.ok
        np.testing.assert_allclose(rep.lower_margins, 2 * c, atol=1e-8)
        np.testing.assert_allclose(rep.upper_margins, 0.0, atol=1e-8)

    def test_random_field_sandwich(self):
        g = make_grid(2, (np.pi, np.pi), (24, 24), "dirichlet")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=7, cutoff=4, a_amplitude=0.3, v_amplitude=0.0)
        f = sample_coefficients(spec, g)
        bL = lowest_eigenpairs(assemble_schrodinger(f, g), 48, 1e-9)
        blap = lowest_eigenpairs(assemble_laplacian(g), 48, 1e-9)
        rep = comparability_check(bL, blap, f, 48)
        assert rep.ok


def _fix_signs_loop(vec):
    # column-by-column reference for the vectorised _fix_signs
    for k in range(vec.shape[1]):
        col = vec[:, k]
        idx = np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if col[idx] < 0:
            vec[:, k] = -col


def test_fix_signs_matches_column_loop():
    rng = np.random.default_rng(17)
    vec = rng.standard_normal((40, 12))
    vec[:5, 0] = 1e-14 * rng.standard_normal(5)   # leading entries below the threshold
    vec[5, 0] = -0.5                               # first significant entry negative
    vec[:3, 1] = -1e-13
    vec[3, 1] = 2.0
    vec[:, 2] = 0.0                                # all-zero column stays as it is
    vec[:20, 3] = 0.0
    vec[20, 3] = -3.0
    expected = vec.copy()
    _fix_signs_loop(expected)
    _fix_signs(vec)
    assert np.array_equal(vec, expected)
    assert vec[5, 0] > 0 and vec[3, 1] > 0 and vec[20, 3] > 0


def _small_config(**coefficients):
    return parse_config(
        {
            "grid": {"dimension": 1, "lengths": [np.pi], "points": [64], "boundary": "dirichlet"},
            "coefficients": coefficients,
            "solver": {"m": 16, "tol": 1e-9},
            "sweep": {"n": [4], "eps": [0.01], "norms": ["l2", "hm1"]},
            "eri": {"enabled": False},
        }
    )


@pytest.mark.parametrize(
    "coefficients",
    [
        {"kind": "constant", "a0": 1.0, "v0": 0.0},
        {"kind": "random_fourier", "seed": 3, "a_amplitude": 0.3, "v_amplitude": 0.5},
    ],
)
def test_stored_gram_defect_matches_fresh(coefficients):
    pipe = build_pipeline(_small_config(**coefficients))
    for basis in (pipe.basis_L, pipe.basis_lap):
        assert isinstance(basis.ortho_defect, float)
        if basis.axis_vectors is None:
            assert basis.ortho_defect == basis.gram_defect()
        else:
            # closed form: the per-axis bound also covers the unstored modes
            h = basis.grid.spacing
            deltas = [
                np.max(np.abs(h_a * (v.T @ v) - np.eye(v.shape[1])))
                for h_a, v in zip(h, basis.axis_vectors)
            ]
            bound = float(np.prod([1.0 + d for d in deltas]) - 1.0)
            assert basis.ortho_defect == max(basis.gram_defect(), bound)


def test_rotated_basis_gets_its_own_defect(flat2d_small):
    _, _, _, basis = flat2d_small
    rotated = rotate_cluster(basis, [1, 2], seed=5)
    assert rotated.ortho_defect == rotated.gram_defect()


def test_orthonormality_defect_raises(monkeypatch):
    # mixing two vectors of one degenerate cluster keeps every residual tiny
    # but breaks orthonormality, so only the Gram certificate can catch it
    def mix_cluster(vec):
        _fix_signs(vec)
        vec[:, 2] += 1e-6 * vec[:, 1]

    monkeypatch.setattr(eigensolve, "_fix_signs", mix_cluster)
    g = make_grid(2, (np.pi, np.pi), (8, 8), "dirichlet")
    with pytest.raises(EigensolveError, match="orthonormality defect") as info:
        lowest_eigenpairs(assemble_laplacian(g), 8, 1e-9)
    assert info.value.worst_residual is None


@pytest.mark.parametrize(
    "dimension, points, boundary",
    [
        (1, 24, "dirichlet"),
        (2, (10, 12), "dirichlet"),
        (2, (12, 12), "dirichlet"),
        (3, (8, 8, 9), "dirichlet"),
        (1, 15, "periodic"),
        (1, 16, "periodic"),
        (2, (9, 9), "periodic"),
        (2, (10, 12), "periodic"),
    ],
)
def test_laplacian_closed_form_matches_dense(dimension, points, boundary):
    g = make_grid(dimension, np.pi, points, boundary)
    op = assemble_laplacian(g)
    closed = laplacian_eigenpairs(op, g.node_count, 1e-9)
    dense = dense_basis(op)
    scale = float(np.max(dense.eigenvalues))
    np.testing.assert_allclose(closed.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=1e-12 * scale)
    assert np.max(closed.residuals) <= 1e-9
    assert closed.ortho_defect <= 1e-10
    assert closed.tag == "laplacian"
    # vectors may differ inside degenerate clusters; their spans may not
    clusters = degenerate_clusters(dense.eigenvalues)
    assert clusters == degenerate_clusters(closed.eigenvalues)
    w = g.quadrature_weight
    for cluster in clusters:
        a, b = closed.vectors[:, cluster], dense.vectors[:, cluster]
        assert np.max(np.abs(w * (a @ a.T - b @ b.T))) <= 1e-10


def test_laplacian_closed_form_partial_and_validated():
    g = make_grid(2, (np.pi, np.pi), (8, 8), "dirichlet")
    full = laplacian_eigenpairs(assemble_laplacian(g), 64, 1e-9)
    # every eigenvalue, fewer stored vectors
    lean = laplacian_eigenpairs(assemble_laplacian(g), 10, 1e-9)
    assert (lean.count, lean.materialized) == (64, 10)
    assert np.array_equal(lean.eigenvalues, full.eigenvalues)
    assert np.array_equal(lean.vectors, full.vectors[:, :10])
    assert np.array_equal(lean.residuals[:10], full.residuals[:10])
    assert np.max(lean.residuals[10:]) <= 1e-9
    f = sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.5), g)
    with pytest.raises(ValueError):
        laplacian_eigenpairs(assemble_schrodinger(f, g), 10, 1e-9)
    for bad in (0, 65):
        with pytest.raises(ValueError):
            laplacian_eigenpairs(assemble_laplacian(g), bad, 1e-9)


def _tamper(monkeypatch, edit):
    original = eigensolve.axis_eigenvectors

    def tampered(points, spacing, boundary):
        vec = original(points, spacing, boundary)
        edit(vec)
        return vec

    monkeypatch.setattr(eigensolve, "axis_eigenvectors", tampered)


def test_laplacian_closed_form_residual_catches_tampering(monkeypatch):
    # the per-axis certificate sees a factor that is no eigenvector
    def mix_modes(vec):
        vec[:, 0] += 1e-6 * vec[:, 3]

    _tamper(monkeypatch, mix_modes)
    g = make_grid(1, np.pi, 32, "dirichlet")
    with pytest.raises(EigensolveError, match="residual") as info:
        laplacian_eigenpairs(assemble_laplacian(g), 32, 1e-9)
    assert info.value.worst_residual > 1e-9


def test_laplacian_closed_form_gram_catches_tampering(monkeypatch):
    # a rescaled eigenvector still has a tiny scaled residual, so only the
    # per-axis Gram certificate can catch it
    def rescale(vec):
        vec[:, 2] *= 1.0 + 1e-6

    _tamper(monkeypatch, rescale)
    g = make_grid(2, (np.pi, np.pi), (8, 8), "periodic")
    with pytest.raises(EigensolveError, match="orthonormality defect"):
        laplacian_eigenpairs(assemble_laplacian(g), 64, 1e-9)


def test_laplacian_closed_form_catches_a_tampered_column(monkeypatch):
    # sound axis factors, but a wrong stored column: only the measured
    # residual against the assembled operator sees it
    original = eigensolve._tensor_columns

    def tampered(axis_vectors, modes, points):
        vec = original(axis_vectors, modes, points)
        vec[:, 4] += 1e-6 * vec[:, 7]
        return vec

    monkeypatch.setattr(eigensolve, "_tensor_columns", tampered)
    g = make_grid(2, (np.pi, np.pi), (10, 12), "dirichlet")
    with pytest.raises(EigensolveError, match="residual") as info:
        laplacian_eigenpairs(assemble_laplacian(g), 20, 1e-9)
    assert info.value.worst_residual > 1e-9


def test_closed_form_columns_need_no_sign_flip():
    # per-axis signs fix every tensor mode's first significant entry
    for boundary, points in (("dirichlet", (9, 10, 8)), ("periodic", (8, 10, 9))):
        g = make_grid(3, np.pi, points, boundary)
        basis = laplacian_eigenpairs(assemble_laplacian(g), g.node_count, 1e-9)
        vec = basis.vectors.copy()
        _fix_signs(vec)
        assert np.array_equal(vec, basis.vectors)


def test_scaled_residuals_blocks_match_one_pass():
    g = make_grid(1, np.pi, 600, "dirichlet")
    op = assemble_laplacian(g)
    basis = laplacian_eigenpairs(op, 600, 1e-9)
    lam, vec = basis.eigenvalues, basis.vectors
    R = op.matrix @ vec - vec * lam[None, :]
    one_pass = np.sqrt(np.sum(R * R, axis=0)) / (
        np.sqrt(np.sum(vec * vec, axis=0)) * (1.0 + np.abs(lam))
    )
    assert np.array_equal(_scaled_residuals(op, lam, vec), one_pass)


def test_flat_pipeline_shares_the_laplacian_basis():
    pipe = build_pipeline(_small_config(kind="constant", a0=1.0, v0=0.0))
    assert pipe.basis_lap.tag == "laplacian"
    assert np.shares_memory(pipe.basis_L.vectors, pipe.basis_lap.vectors)
    assert pipe.basis_lap.ortho_defect == pipe.basis_L.ortho_defect


def _2d_config(boundary, points, m, **coefficients):
    length = np.pi if boundary == "dirichlet" else 2.0 * np.pi
    return parse_config(
        {
            "grid": {
                "dimension": 2,
                "lengths": [length, length],
                "points": [points, points],
                "boundary": boundary,
            },
            "coefficients": coefficients or {"kind": "constant", "a0": 1.0, "v0": 0.0},
            "solver": {"m": m, "tol": 1e-9},
            "sweep": {"n": [m], "eps": [0.01], "norms": ["l2", "hm1"]},
            "eri": {"enabled": False},
        }
    )


@pytest.mark.parametrize("boundary, points, m", [("dirichlet", 12, 4), ("periodic", 12, 8)])
def test_flat_2d_pipeline_takes_both_bases_from_the_closed_form(monkeypatch, boundary, points, m):
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("flat configurations must not call lowest_eigenpairs")

    monkeypatch.setattr(pipeline, "lowest_eigenpairs", no_dense_solve)
    pipe = build_pipeline(_2d_config(boundary, points, m))
    G = pipe.grid.node_count
    closed = laplacian_eigenpairs(pipe.op_lap, G, 1e-9)
    M = pipe.basis_L.materialized
    assert M == m and pipe.basis_L.count == G   # solver.m stored columns, every mode
    assert np.array_equal(pipe.basis_L.vectors, closed.vectors[:, :M])
    assert np.array_equal(pipe.basis_L.eigenvalues, closed.eigenvalues)
    assert pipe.basis_L.tag == "schrodinger"
    assert pipe.basis_lap.tag == "laplacian"
    for name in ("vectors", "eigenvalues", "residuals", "axis_vectors", "modes"):
        assert getattr(pipe.basis_L, name) is getattr(pipe.basis_lap, name)
    assert pipe.basis_L.ortho_defect == pipe.basis_lap.ortho_defect


def _untensored(basis):
    # the same vectors without the axis factors, so products takes the GEMM
    return SpectralBasis(
        grid=basis.grid, tag=basis.tag, eigenvalues=basis.eigenvalues,
        vectors=basis.vectors, residuals=basis.residuals,
    )


@pytest.mark.parametrize(
    "dimension, points, boundary",
    [
        (2, (10, 12), "dirichlet"),
        (2, (10, 9), "periodic"),
        (3, (8, 9, 10), "dirichlet"),
        (3, (8, 9, 8), "periodic"),
    ],
)
def test_tensor_coefficients_match_dense_gemm(dimension, points, boundary):
    g = make_grid(dimension, np.pi, points, boundary)
    G = g.node_count
    closed = laplacian_eigenpairs(assemble_laplacian(g), G, 1e-9)
    spec = CoefficientSpec(RANDOM_FOURIER, seed=4, cutoff=3, a_amplitude=0.3, v_amplitude=0.5)
    src = lowest_eigenpairs(assemble_schrodinger(sample_coefficients(spec, g), g), 6, 1e-9)
    for source in (src, closed):
        tensor = expansion_coefficients(source, closed, 6, G)
        dense = expansion_coefficients(source, _untensored(closed), 6, G)
        assert np.max(np.abs(tensor.coeffs - dense.coeffs)) <= 1e-13
        np.testing.assert_array_equal(tensor.product_l2_norms, dense.product_l2_norms)
    part = expansion_coefficients(src, closed, 6, 17)
    np.testing.assert_array_equal(part.coeffs, expansion_coefficients(src, closed, 6, G).coeffs[:, :17])


@pytest.fixture(scope="module")
def lean_basis():
    g = make_grid(2, (np.pi, np.pi), (8, 8), "dirichlet")
    return laplacian_eigenpairs(assemble_laplacian(g), 10, 1e-9)


def test_function_refuses_unstored_columns(lean_basis):
    # every reader of stored columns goes through require_columns
    lean_basis.require_columns(10)
    with pytest.raises(IndexError):
        lean_basis.require_columns(11)


def test_sup_norms_of_a_lean_basis_read_past_its_columns(lean_basis):
    # the axis factors give every mode's sup norm, stored or not
    full = laplacian_eigenpairs(assemble_laplacian(lean_basis.grid), 64, 1e-9)
    per_k, top = sup_norms(lean_basis, 64)
    assert np.array_equal(per_k, np.max(np.abs(full.vectors), axis=0))
    assert top == float(np.max(per_k))


def test_sup_norms_refuse_unstored_columns(lean_basis):
    # a basis without axis factors has only its columns to read
    rotated = rotate_cluster(lean_basis, [1, 2], seed=3)
    assert len(sup_norms(rotated, 10)[0]) == 10
    with pytest.raises(IndexError):
        sup_norms(rotated, 11)


@pytest.mark.parametrize(
    "dimension, points, boundary",
    [
        (1, 33, "dirichlet"),
        (1, 32, "periodic"),
        (1, 31, "periodic"),
        (2, (10, 12), "dirichlet"),
        (2, (10, 9), "periodic"),
        (3, (8, 9, 10), "dirichlet"),
        (3, (8, 9, 8), "periodic"),
    ],
)
def test_sup_norms_from_the_axis_factors_equal_the_columns(dimension, points, boundary):
    # |prod_a v_a(x_a)| separates and rounding is monotone, so the product of
    # the per-axis sups is the max over the stored column, bit for bit
    g = make_grid(dimension, np.pi, points, boundary)
    basis = laplacian_eigenpairs(assemble_laplacian(g), g.node_count, 1e-9)
    per_k, top = sup_norms(basis, g.node_count)
    assert np.array_equal(per_k, np.max(np.abs(basis.vectors), axis=0))
    assert top == float(np.max(np.abs(basis.vectors)))


def test_product_matrix_refuses_unstored_columns(lean_basis):
    assert product_matrix(lean_basis, 10).shape == (64, 55)
    with pytest.raises(IndexError):
        product_matrix(lean_basis, 11)


def test_gemm_coefficients_refuse_unstored_columns(lean_basis):
    # a rotated basis has no tensor structure, so it can serve only the
    # modes it stores
    rotated = rotate_cluster(lean_basis, [1, 2], seed=3)
    assert expansion_coefficients(lean_basis, rotated, 3, 10).coeffs.shape == (6, 10)
    with pytest.raises(IndexError):
        expansion_coefficients(lean_basis, rotated, 3, 11)
    # the closed form itself covers every mode through its axis factors
    assert expansion_coefficients(lean_basis, lean_basis, 3, 64).coeffs.shape == (6, 64)


def test_non_flat_pipeline_solves_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].kind)
        return lowest_eigenpairs(*args, **kwargs)

    monkeypatch.setattr(pipeline, "lowest_eigenpairs", counted)
    cfg = _2d_config(
        "dirichlet", 12, 4, kind="random_fourier", seed=3, a_amplitude=0.3, v_amplitude=0.5
    )
    pipe = build_pipeline(cfg)
    assert calls == ["schrodinger"]
    assert pipe.basis_L.tag == "schrodinger"
    assert not np.shares_memory(pipe.basis_L.vectors, pipe.basis_lap.vectors)


def test_lanczos_reruns_are_bitwise_identical():
    # ARPACK's own random start vector keeps state between calls, so two
    # solves in one process differed in the last bits before the start
    # vector was fixed
    op = assemble_laplacian(make_grid(1, np.pi, 6000, "dirichlet"))
    first = lowest_eigenpairs(op, 8, 1e-8)
    second = lowest_eigenpairs(op, 8, 1e-8)
    assert first.completeness.route == "lanczos"
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.vectors, second.vectors)


def _random_2d_op(points=16, seed=5):
    grid = make_grid(2, (np.pi, np.pi), (points, points), "dirichlet")
    spec = CoefficientSpec(RANDOM_FOURIER, seed=seed, a_amplitude=0.3, v_amplitude=0.5)
    return assemble_schrodinger(sample_coefficients(spec, grid), grid)


def test_inertia_count_certifies_a_narrow_window():
    op = _random_2d_op()
    basis = lowest_eigenpairs(op, 16, 1e-9)
    done = basis.completeness
    assert done.route == "lanczos"
    assert done.count_below == done.solved_below >= basis.count
    lam = sla.eigh(op.matrix.toarray(), eigvals_only=True)
    assert np.count_nonzero(lam < done.sigma) == done.count_below
    assert done.backward_error < done.distance
    assert np.min(np.abs(lam - done.sigma)) == pytest.approx(done.distance, rel=1e-9)


def test_inertia_count_catches_a_skipped_pair(monkeypatch):
    # a Lanczos run that loses one interior eigenpair still passes every
    # residual and Gram check; only the count sees it
    real = eigensolve.spla.eigsh

    def skipping(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        order = np.argsort(lam)
        keep = np.delete(order, 3)
        return lam[keep], vec[:, keep]

    monkeypatch.setattr(eigensolve.spla, "eigsh", skipping)
    with pytest.raises(EigensolveError, match="inertia count: .* below sigma"):
        lowest_eigenpairs(_random_2d_op(), 16, 1e-9)


def test_inertia_count_reports_the_worst_counted_residual(monkeypatch):
    # the pairs between the window and the shift are counted, so their
    # residuals are judged there; the error carries the worst of them
    real = eigensolve.spla.eigsh
    seen = {}

    def perturbed(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        order = np.argsort(lam)
        lam, vec = lam[order], vec[:, order]
        vec[:, 16:] += 1e-6 * np.arange(1, len(lam) - 15) * vec[:, :1]
        seen.update(lam=lam, vec=vec.copy())
        return lam, vec

    monkeypatch.setattr(eigensolve.spla, "eigsh", perturbed)
    op = _random_2d_op()
    with pytest.raises(EigensolveError, match="inertia count: residual") as info:
        lowest_eigenpairs(op, 16, 1e-9)
    assert info.value.check == "residuals"
    lam = seen["lam"]
    k = 16 + int(np.argmax(np.diff(lam[15:])))   # the shift sits in the widest gap
    assert k > 17
    direct = _direct_residuals(op, lam, seen["vec"])
    assert info.value.worst_residual == pytest.approx(max(direct[16:k]), rel=1e-9)
    assert max(direct[16:k]) < max(direct)


def test_inertia_count_catches_a_ghost_pair(monkeypatch):
    # a solve that loses pair 3 and returns pair 17 twice: the ghost copy
    # stands in for the lost pair in the count below sigma, so only the
    # orthonormality of every counted pair sees it
    real = eigensolve.spla.eigsh

    def ghost(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        order = np.argsort(lam)
        keep = np.append(np.delete(order, 3), order[17])
        return lam[keep], vec[:, keep]

    monkeypatch.setattr(eigensolve.spla, "eigsh", ghost)
    with pytest.raises(EigensolveError, match="inertia count: .* not distinct eigenpairs") as info:
        lowest_eigenpairs(_random_2d_op(), 16, 1e-9)
    assert info.value.check == "orthonormality"


def _sliced(monkeypatch, op, m):
    """lowest_eigenpairs(op, m) in slices of about 16 pairs: three or more
    for the m + CLUSTER_PAD = 46 pairs solved at m = 30."""
    monkeypatch.setattr(eigensolve, "MODES_PER_SLICE", 16)
    return lowest_eigenpairs(op, m, 1e-9)


def _slice_calls(monkeypatch, edit):
    """Patch eigsh so that edit(call, lam, vec, seen) changes the pairs of
    slice `call` (ascending lam); seen holds the earlier slices' pairs."""
    real = eigensolve.spla.eigsh
    seen = []

    def patched(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        order = np.argsort(lam)
        lam, vec = edit(len(seen), lam[order], vec[:, order], seen)
        seen.append((lam, vec))
        return lam, vec

    monkeypatch.setattr(eigensolve.spla, "eigsh", patched)


def test_sliced_window_matches_a_full_eigh(monkeypatch):
    op = _random_2d_op(points=24)
    basis = _sliced(monkeypatch, op, 30)
    done = basis.completeness
    assert done.route == "lanczos" and len(done.slice_sizes) >= 3
    assert len(done.slice_edges) == len(done.slice_sizes) + 1
    assert np.all(np.diff(done.slice_edges) > 0)
    assert done.count_below == done.solved_below <= sum(done.slice_sizes)
    lam = sla.eigh(op.matrix.toarray(), eigvals_only=True)
    np.testing.assert_allclose(basis.eigenvalues, lam[: basis.count], rtol=1e-12)
    # each edge's count is the number of eigenvalues below it
    counts = np.cumsum(done.slice_sizes)
    assert [np.count_nonzero(lam < e) for e in done.slice_edges] == [0, *counts]
    again = _sliced(monkeypatch, op, 30)
    for name in ("eigenvalues", "vectors", "residuals"):
        assert np.array_equal(getattr(again, name), getattr(basis, name))
    assert again.completeness == done


def test_sliced_solve_catches_a_pair_lost_in_the_middle_slice(monkeypatch):
    def drop(call, lam, vec, seen):
        if call != 1:
            return lam, vec
        return np.delete(lam, 2), np.delete(vec, 2, axis=1)

    _slice_calls(monkeypatch, drop)
    with pytest.raises(EigensolveError, match="inertia count: .* below sigma") as info:
        _sliced(monkeypatch, _random_2d_op(points=24), 30)
    assert info.value.check == "completeness"


def test_sliced_solve_catches_a_neighbouring_slice_pair(monkeypatch):
    # the middle slice returns the lowest slice's top pair in place of its own
    # lowest: the count below sigma still matches, the Gram matrix does not
    def borrow(call, lam, vec, seen):
        if call != 1:
            return lam, vec
        lower_lam, lower_vec = seen[0]
        lam, vec = lam.copy(), vec.copy()
        lam[0], vec[:, 0] = lower_lam[-1], lower_vec[:, -1]
        return lam, vec

    _slice_calls(monkeypatch, borrow)
    with pytest.raises(EigensolveError, match="inertia count: .* not distinct eigenpairs") as info:
        _sliced(monkeypatch, _random_2d_op(points=24), 30)
    assert info.value.check == "orthonormality"


def test_sliced_solve_keeps_exact_ties_whole(monkeypatch):
    # -Delta + 2.5 on a square: exact pairs on both sides of the slice edges.
    # The sandwich's middle leaves out the potential, so the first guess of
    # the top edge counts too few and is rescaled before the slices are cut
    grid = make_grid(2, (np.pi, np.pi), (24, 24), "dirichlet")
    spec = CoefficientSpec(CONSTANT, a0=1.0, v0=2.5)
    op = assemble_schrodinger(sample_coefficients(spec, grid), grid)
    basis = _sliced(monkeypatch, op, 30)
    done = basis.completeness
    assert len(done.slice_sizes) >= 3 and done.count_below == done.solved_below
    lam = sla.eigh(op.matrix.toarray(), eigvals_only=True)
    ties = np.flatnonzero(np.diff(lam[: basis.count]) < 1e-8 * lam[1 : basis.count])
    assert ties.size >= 5
    counts = np.cumsum(done.slice_sizes)
    assert [np.count_nonzero(lam < e) for e in done.slice_edges] == [0, *counts]
    np.testing.assert_allclose(basis.eigenvalues, lam[: basis.count], rtol=1e-12)
    assert basis.ortho_defect <= 1e-10


def test_inertia_count_needs_a_symmetric_factorization(monkeypatch):
    real = eigensolve.spla.splu

    class RowPivoted:
        def __init__(self, lu):
            self.L, self.U, self.perm_c = lu.L, lu.U, lu.perm_c
            self.perm_r = np.roll(lu.perm_r, 1)

    monkeypatch.setattr(eigensolve.spla, "splu", lambda *a, **k: RowPivoted(real(*a, **k)))
    with pytest.raises(EigensolveError, match=r"inertia count: .*perm_r != perm_c"):
        lowest_eigenpairs(_random_2d_op(), 16, 1e-9)


def test_inertia_count_passes_exact_degenerate_pairs():
    # -Delta + 2.5 on a square: exact pairs, and solver.m = 14 ends inside one
    grid = make_grid(2, (np.pi, np.pi), (16, 16), "dirichlet")
    spec = CoefficientSpec(CONSTANT, a0=1.0, v0=2.5)
    op = assemble_schrodinger(sample_coefficients(spec, grid), grid)
    basis = lowest_eigenpairs(op, 14, 1e-9)
    done = basis.completeness
    assert done.route == "lanczos" and done.count_below == done.solved_below
    assert basis.count == 15
    lam = sla.eigh(op.matrix.toarray(), eigvals_only=True)
    assert lam[14] - lam[13] < 1e-8 * lam[14]
    np.testing.assert_allclose(basis.eigenvalues, lam[:15], rtol=1e-12)


def _count_solver_calls(monkeypatch):
    calls = {"eigsh": 0, "splu": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(eigensolve.spla, "eigsh")
    counted(eigensolve.spla, "splu")
    return calls


def test_narrow_random_window_takes_the_lanczos_route(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    cfg = _2d_config(
        "dirichlet", 16, 8, kind="random_fourier", seed=3, a_amplitude=0.3, v_amplitude=0.5
    )
    pipe = build_pipeline(cfg)
    # one slice: one count places its top edge, one factor serves the
    # slice's shift-invert solves, one certifies the window
    assert calls == {"eigsh": 1, "splu": 3}
    done = pipe.basis_L.completeness
    assert done.route == "lanczos" and len(done.slice_sizes) == 1


def test_wide_harmonic_window_takes_the_lanczos_route(monkeypatch):
    # 144 of 512 modes in two slices: one count places the top edge, one the
    # interior edge, one factor per slice, one certifies the window
    calls = _count_solver_calls(monkeypatch)
    pipe = build_pipeline(load_config("harmonic-1d"))
    assert calls == {"eigsh": 2, "splu": 5}
    done = pipe.basis_L.completeness
    assert done.route == "lanczos" and len(done.slice_sizes) == 2


def test_inertia_count_needs_a_small_backward_error(monkeypatch):
    # pivots scaled by 1.5 keep their signs, so the count still matches, but
    # L D L^T is then far from L - sigma I and counts nothing about it
    real = eigensolve.spla.splu

    class Inexact:
        def __init__(self, lu):
            self.L, self.U = lu.L, 1.5 * lu.U
            self.perm_r, self.perm_c = lu.perm_r, lu.perm_c
            self.solve = lu.solve   # the slices' shift-invert solves stay exact

    monkeypatch.setattr(eigensolve.spla, "splu", lambda *a, **k: Inexact(real(*a, **k)))
    with pytest.raises(EigensolveError, match="inertia count: backward error"):
        lowest_eigenpairs(_random_2d_op(), 16, 1e-9)
