import math
import tracemalloc

import numpy as np
import pytest

from eigenrank import eri as eri_module
from eigenrank.grid import make_grid
from eigenrank.operator import (
    CONSTANT,
    RANDOM_FOURIER,
    CoefficientSpec,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
)
from eigenrank.eigensolve import laplacian_eigenpairs
from eigenrank.products import expansion_coefficients, pair_list, pair_row, product_matrix
from eigenrank.lowrank import hm1_weights, tail_table
from eigenrank.eri import GreenSolver, eri_benchmark, fitted_integrals, quadruple_classes
from conftest import dense_basis, gather


@pytest.fixture(scope="module")
def eri_setup(flat2d_small):
    grid, op, src, lap = flat2d_small
    co = expansion_coefficients(src, lap, 8, grid.node_count)
    solver = GreenSolver(op)
    return grid, op, src, lap, co, solver


def product(basis, i, j):
    """Node values of phi_i phi_j."""
    return basis.vectors[:, i] * basis.vectors[:, j]


def coeff_row(coeffs, i, j):
    """Expansion coefficients of the product phi_i phi_j."""
    return coeffs.coeffs[pair_row(i, j, coeffs.n)]


def fitted_pair_gram(co, weights, r):
    """Every pair Gram entry of the rank-r fit, one fitted_integrals call."""
    P = co.coeffs.shape[0]
    rows = np.array([(p, q) for p in range(P) for q in range(P)]).reshape(-1, 2)
    return fitted_integrals(co, weights, r, slice(None), rows).reshape(P, P)


def canonical_quadruples(n):
    """One representative (i<=j, k<=l, row(ij) <= row(kl)) per symmetry class,
    by nested loops over pair_list: the reference for quadruple_classes."""
    pairs = pair_list(n)
    return [(i, j, k, l) for p, (i, j) in enumerate(pairs) for (k, l) in pairs[p:]]


def sample_quadruples(n, count, seed):
    """The sorted seeded sample of `count` canonical quadruples: the
    reference for quadruple_classes past EXHAUSTIVE_MAX_N."""
    quads = canonical_quadruples(n)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return [quads[t] for t in sorted(rng.choice(len(quads), size=count, replace=False))]


def fitted_ops(res, pairs):
    """Multiply-adds of the fitted side: r per quadruple plus r per pair scaled."""
    return len(res.quadruples) * res.r + pairs * res.r


def exact_ops(res, grid):
    """Multiply-adds of pairing every quadruple over the G grid nodes."""
    return len(res.quadruples) * grid.node_count


def exact_eri(i, j, k, l, basis, solver):
    """(ij|kl) = <phi_i phi_j, (-Delta)^{-1} phi_k phi_l>, one sparse solve."""
    green = solver.solve(product(basis, k, l))
    return basis.grid.quadrature_weight * float(np.dot(product(basis, i, j), green))


def spectral_green(lap, block):
    """sum_k <rho, psi_k> psi_k / mu_k over a complete Laplacian basis,
    skipping the constant mode; the oracle for the sparse solve."""
    mu = lap.eigenvalues
    inv_mu = np.divide(1.0, mu, out=np.zeros_like(mu), where=np.abs(mu) > 1e-10)
    proj = lap.grid.quadrature_weight * (lap.vectors.T @ block)
    return lap.vectors @ (inv_mu[:, None] * proj)


class TestGreen:
    def test_eigenfunction_inverse(self, eri_setup):
        # a density equal to psi_k returns psi_k / mu_k
        grid, op, src, lap, co, solver = eri_setup
        for k in (0, 1, 2, 37, grid.node_count - 1):
            rho = lap.vectors[:, k]
            np.testing.assert_allclose(
                solver.solve(rho), rho / lap.eigenvalues[k], atol=1e-12 * np.max(np.abs(rho))
            )

    def test_dual_paths_agree(self, eri_setup):
        # the LU pair Gram matrix is C diag(1/mu) C^T at r = G
        grid, op, src, lap, co, solver = eri_setup
        prods = product_matrix(src, 8)
        lu = grid.quadrature_weight * (prods.T @ solver.solve(prods))
        fit = (co.coeffs / lap.eigenvalues[None, :]) @ co.coeffs.T
        assert np.max(np.abs(lu - fit)) <= 1e-12 * np.max(np.abs(lu))

    def test_refined_solve_on_an_ill_conditioned_axis(self):
        # 512 nodes on a box of length 100 pi: the plain LU pair Gram matrix
        # is off the complete spectral fit by 3e-14 relative, the refined one
        # by 5e-15, and the ERI certificate check has only absolute slack
        g = make_grid(1, 100 * np.pi, 512, "dirichlet")
        op = assemble_laplacian(g)
        lap = laplacian_eigenpairs(op, 512, 1e-9)
        co = expansion_coefficients(lap, lap, 8, 512)
        prods = product_matrix(lap, 8)
        lu = g.quadrature_weight * (prods.T @ GreenSolver(op).solve(prods))
        fit = (co.coeffs / lap.eigenvalues[None, :]) @ co.coeffs.T
        assert np.max(np.abs(lu - fit)) <= 1e-14 * np.max(np.abs(fit))

    def test_flat_1d_sine_inverse(self):
        g = make_grid(1, np.pi, 128, "dirichlet")
        op = assemble_laplacian(g)
        basis = laplacian_eigenpairs(op, 128, 1e-9)
        x = g.axis_nodes(0)
        u = GreenSolver(op).solve(np.sin(x))
        # discrete mu_1 = (4/h^2) sin^2(h/2) ~ 1, so u ~ sin x
        np.testing.assert_allclose(u, np.sin(x) / basis.eigenvalues[0], atol=1e-10)

    def test_linearity(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.node_count)
        g_ = rng.standard_normal(grid.node_count)
        a, b = 2.25, -0.75
        lhs = solver.solve(a * f + b * g_)
        rhs = a * solver.solve(f) + b * solver.solve(g_)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_periodic_needs_mean_subtraction(self):
        g = make_grid(1, 2 * np.pi, 32, "periodic")
        op = assemble_laplacian(g)
        basis = laplacian_eigenpairs(op, 32, 1e-9)
        solver = GreenSolver(op)
        # pure constant: solution is 0
        assert np.max(np.abs(solver.solve(np.ones(32)))) <= 1e-10
        rng = np.random.default_rng(11)
        rho = rng.standard_normal(32)
        u = solver.solve(rho)
        assert abs(np.mean(u)) <= 1e-12
        spectral = spectral_green(basis, rho[:, None])[:, 0]
        assert np.max(np.abs(u - spectral)) <= 1e-8


class TestExactERI:
    def test_positive_diagonal(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        assert exact_eri(0, 0, 0, 0, src, solver) > 0

    def test_symmetries(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        combos = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]
        values = [exact_eri(*q, src, solver) for q in combos]
        np.testing.assert_allclose(values, values[0], atol=1e-10)

    def test_flat_1d_diagonal_against_direct_quadrature(self):
        # independent oracle: coefficients by fsum quadrature, mu by closed form
        g = make_grid(1, np.pi, 96, "dirichlet")
        op = assemble_laplacian(g)
        basis = laplacian_eigenpairs(op, 96, 1e-9)
        w = g.quadrature_weight
        h = g.spacing[0]
        sq = basis.vectors[:, 0] ** 2
        total = 0.0
        for k in range(96):
            c_k = w * math.fsum(float(sq[t]) * float(basis.vectors[t, k]) for t in range(96))
            mu_k = (4.0 / h**2) * math.sin((k + 1) * h / 2.0) ** 2
            total += c_k**2 / mu_k
        solved = exact_eri(0, 0, 0, 0, basis, GreenSolver(op))
        assert solved == pytest.approx(total, rel=1e-8)


class TestFittedERI:
    def test_complete_rank_recovers_exact(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        fit = fitted_pair_gram(co, hm1_weights(co), co.m)
        for (i, j, k, l) in [(0, 0, 0, 0), (0, 1, 2, 2), (3, 7, 1, 5)]:
            e = exact_eri(i, j, k, l, src, solver)
            f = fit[pair_row(i, j, 8), pair_row(k, l, 8)]
            assert f == pytest.approx(e, abs=1e-8 * (1 + abs(e)))

    def test_rank_zero_is_zero(self, eri_setup):
        *_, co, solver = eri_setup
        fit = fitted_pair_gram(co, np.ones(co.m), 0)
        assert fit.shape == (36, 36) and np.all(fit == 0.0)

    def test_entries_match_the_pointwise_sum(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        w = hm1_weights(co)
        fit = fitted_pair_gram(co, w, 30)
        for (i, j, k, l) in [(0, 0, 0, 0), (0, 1, 2, 3), (7, 7, 2, 5)]:
            pair_ij, pair_kl = coeff_row(co, i, j)[:30], coeff_row(co, k, l)[:30]
            direct = math.fsum(pair_ij * pair_kl / lap.eigenvalues[:30])
            assert fit[pair_row(i, j, 8), pair_row(k, l, 8)] == pytest.approx(direct, rel=1e-13)

    def test_cauchy_schwarz_bound_random_quadruples(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        rng = np.random.default_rng(2024)
        r = 40
        w = hm1_weights(co)
        fit = fitted_pair_gram(co, w, r)
        tails = tail_table(co, w)[:, r]
        for _ in range(50):
            i, j, k, l = rng.integers(0, 8, size=4)
            e = exact_eri(i, j, k, l, src, solver)
            p, q = pair_row(i, j, 8), pair_row(k, l, 8)
            assert abs(e - fit[p, q]) <= tails[p] * tails[q] + 1e-12

    def test_requires_laplacian_target(self, eri_setup):
        # an expansion windowed to 16 of the 400 modes has no complete
        # H^-1 tail, so it cannot certify the fitted integrals
        grid, op, src, lap, co, solver = eri_setup
        co_l2 = expansion_coefficients(src, src, 4, 16)
        with pytest.raises(ValueError, match="complete expansion"):
            eri_benchmark(4, 1e-2, src, op, co_l2, calib_hm1=1.0, sample_seed=0)


class TestQuadrupleSampling:
    def test_canonical_count(self):
        # P = n(n+1)/2 pairs; P(P+1)/2 canonical quadruples
        assert quadruple_classes(4, 0)[0].shape == (10 * 11 // 2, 4)
        assert quadruple_classes(8, 0)[0].shape == (36 * 37 // 2, 4)

    def test_sampling_deterministic(self):
        a = quadruple_classes(16, 5)
        b = quadruple_classes(16, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert len(a[0]) == len(a[1]) == eri_module.SAMPLE_COUNT

    @pytest.mark.parametrize("n", list(range(1, 14)) + [16])
    def test_classes_are_the_nested_loop_enumeration(self, n):
        # every class up to EXHAUSTIVE_MAX_N, the seeded sample past it (13, 16)
        quads, rows = quadruple_classes(n, 20240801)
        if n <= eri_module.EXHAUSTIVE_MAX_N:
            want = canonical_quadruples(n)
        else:
            want = sample_quadruples(n, eri_module.SAMPLE_COUNT, 20240801)
            assert len(want) == eri_module.SAMPLE_COUNT < len(canonical_quadruples(n))
        assert quads.dtype.kind == rows.dtype.kind == "i"
        np.testing.assert_array_equal(quads, np.array(want).reshape(-1, 4))
        np.testing.assert_array_equal(
            rows, [(pair_row(i, j, n), pair_row(k, l, n)) for (i, j, k, l) in want]
        )

    def test_sampled_classes_form_no_list_of_every_class(self):
        # n = 64 has 2080 pairs and 2,164,160 classes; as Python tuples they
        # took 167 MB, as two index arrays of classes they take about 37 MB
        tracemalloc.start()
        try:
            quads, rows = quadruple_classes(64, 20240801)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert quads.shape == (eri_module.SAMPLE_COUNT, 4)
        assert peak < 64 * 2**20


class TestBenchmark:
    def test_certificates_and_costs(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        res = eri_benchmark(8, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        assert len(res.quadruples) == 36 * 37 // 2
        for e, f, cert in zip(res.exact, res.fitted, res.certificates):
            assert abs(e - f) <= cert + 1e-12
        assert res.max_abs_error <= res.certificate + 1e-12
        assert fitted_ops(res, len(pair_list(8))) < exact_ops(res, grid)

    def test_pair_tails_read_in_blocks_are_the_whole_table_column(self, eri_setup):
        # n = 8 has 36 pairs, more than one BLOCK, so the tails span two blocks
        grid, op, src, lap, co, solver = eri_setup
        res = eri_benchmark(8, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        tails = tail_table(co, hm1_weights(co), co.family_rows(8))[:, res.r]
        _, rows = quadruple_classes(8, 0)
        np.testing.assert_array_equal(res.certificates, tails[rows[:, 0]] * tails[rows[:, 1]])
        assert res.certificate == float(np.max(tails)) ** 2

    def test_rejects_n_past_its_expansion(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        with pytest.raises(ValueError, match="n must satisfy"):
            eri_benchmark(co.n + 1, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)

    def test_sampled_classes_past_the_exhaustive_n(self, flat2d_small):
        # n = 13 has 4186 quadruple classes, so the benchmark evaluates the
        # SAMPLE_COUNT of them that sample_seed draws
        grid, op, src, lap = flat2d_small
        n = 13
        assert n > eri_module.EXHAUSTIVE_MAX_N
        co = expansion_coefficients(src, lap, n, grid.node_count)
        res = eri_benchmark(n, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=3)
        np.testing.assert_array_equal(
            res.quadruples, sample_quadruples(n, eri_module.SAMPLE_COUNT, 3)
        )
        assert len(res.quadruples) == eri_module.SAMPLE_COUNT < len(canonical_quadruples(n))
        slack = 1e-12 * np.maximum(1.0, np.abs(res.exact))
        assert np.all(np.abs(res.exact - res.fitted) <= res.certificates + slack)
        other = eri_benchmark(n, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=4)
        assert not np.array_equal(other.quadruples, res.quadruples)

    def test_fitted_symmetric_under_pair_swap(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        fit = fitted_pair_gram(co, hm1_weights(co), 30)
        assert np.max(np.abs(fit - fit.T)) <= 1e-15 * np.max(np.abs(fit))
        # both pairs are scaled by sqrt(weights), so a swap keeps the bits
        assert np.array_equal(fit, fit.T)

    def test_benchmark_forms_only_the_evaluated_entries(self, eri_setup, monkeypatch):
        # the fitted side's work is quadruples*r dot-product terms plus
        # pairs*r scalings (fitted_ops); no pairs x pairs matrix
        grid, op, src, lap, co, solver = eri_setup
        seen = []
        real = fitted_integrals

        def recording(coeffs, weights, r, family, rows):
            seen.append((len(family), r, len(rows)))
            return real(coeffs, weights, r, family, rows)

        monkeypatch.setattr(eri_module, "fitted_integrals", recording)
        res = eri_benchmark(8, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        (pairs, r, entries), = seen
        assert entries == len(res.quadruples) and r == res.r
        assert fitted_ops(res, len(pair_list(8))) == entries * r + pairs * r
        # a family narrower than its expansion scales its own pairs only
        res = eri_benchmark(6, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        pairs, r, entries = seen[-1]
        assert pairs == len(pair_list(6)) and entries == len(res.quadruples) and r == res.r
        assert fitted_ops(res, len(pair_list(6))) == entries * r + pairs * r

    def test_benchmark_reads_its_family_in_place(self, eri_setup):
        # n = 6 read from the expansion of 8 is, bit for bit, the benchmark
        # on the family's rows gathered into their own expansion
        grid, op, src, lap, co, solver = eri_setup
        wide = eri_benchmark(6, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        own = eri_benchmark(6, 1e-2, src, op, gather(co, 6), calib_hm1=1.0, sample_seed=0)
        assert wide.r == own.r
        np.testing.assert_array_equal(wide.quadruples, own.quadruples)
        own_pairs = len(gather(co, 6).family_rows(6))
        assert fitted_ops(wide, len(co.family_rows(6))) == fitted_ops(own, own_pairs)
        for name in ("exact", "fitted", "certificates"):
            np.testing.assert_array_equal(getattr(wide, name), getattr(own, name))
        assert wide.certificate == own.certificate

    def test_exact_matrix_psd(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        res = eri_benchmark(6, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        pairs = pair_list(6)
        P = len(pairs)
        M = np.zeros((P, P))
        F = np.zeros((P, P))
        for (i, j, k, l), e, f in zip(res.quadruples, res.exact, res.fitted):
            p, q = pair_row(i, j, 6), pair_row(k, l, 6)
            M[p, q] = M[q, p] = e
            F[p, q] = F[q, p] = f
        for mat in (M, F):
            ev = np.linalg.eigvalsh(mat)
            assert ev.min() >= -1e-8 * np.abs(ev).max()


def _assert_exact_matches_spectral(res, src, lap):
    # the batched sparse solve against spectral synthesis in a complete
    # Laplacian basis; the absolute floor covers integrals that vanish by symmetry
    w = src.grid.quadrature_weight
    spectral = []
    for (i, j, k, l) in res.quadruples:
        rho_ij = product(src, i, j)
        rho_kl = product(src, k, l)
        spectral.append(w * rho_ij @ spectral_green(lap, rho_kl[:, None])[:, 0])
    spectral = np.array(spectral)
    np.testing.assert_allclose(
        res.exact, spectral, rtol=1e-8, atol=1e-8 * float(np.max(np.abs(spectral)))
    )


class TestBatchedExact:
    def test_dirichlet_matches_sparse_solver(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        res = eri_benchmark(8, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        solved = np.array([exact_eri(*q, src, solver) for q in res.quadruples])
        np.testing.assert_allclose(
            res.exact, solved, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(solved)))
        )
        _assert_exact_matches_spectral(res, src, lap)

    def test_periodic_matches_sparse_solver(self):
        # products phi_i^2 have nonzero mean and the Laplacian a zero mode,
        # so this exercises the bordered solve on mean-free densities
        g = make_grid(2, (2 * np.pi, 2 * np.pi), (12, 12), "periodic")
        spec = CoefficientSpec(RANDOM_FOURIER, seed=5, cutoff=3, a_amplitude=0.3, v_amplitude=0.5)
        src = dense_basis(assemble_schrodinger(sample_coefficients(spec, g), g))
        op = assemble_laplacian(g)
        lap = laplacian_eigenpairs(op, g.node_count, 1e-9)
        co = expansion_coefficients(src, lap, 6, g.node_count)
        res = eri_benchmark(6, 1e-2, src, op, co, calib_hm1=1.0, sample_seed=0)
        _assert_exact_matches_spectral(res, src, lap)
        for e, f, cert in zip(res.exact, res.fitted, res.certificates):
            assert abs(e - f) <= cert + 1e-12

    def test_block_synthesis_matches_single_columns(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        rng = np.random.default_rng(5)
        block = rng.standard_normal((grid.node_count, 3))
        batched = solver.solve(block)
        for c in range(3):
            single = solver.solve(block[:, c])
            np.testing.assert_allclose(batched[:, c], single, rtol=1e-12, atol=1e-14)

    def test_rejects_non_laplacian_basis(self, eri_setup):
        grid, op, src, lap, co, solver = eri_setup
        schrodinger = assemble_schrodinger(
            sample_coefficients(CoefficientSpec(CONSTANT, a0=1.0, v0=0.5), grid), grid
        )
        with pytest.raises(ValueError):
            GreenSolver(schrodinger)
        with pytest.raises(ValueError):
            solver.solve(np.ones(grid.node_count + 1))
