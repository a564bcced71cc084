import math

import numpy as np
import pytest

from eigenrank.grid import make_grid
from eigenrank.operator import assemble_laplacian
from eigenrank.eigensolve import CLUSTER_REL_GAP, SpectralBasis, laplacian_eigenpairs
from eigenrank.products import (
    expansion_coefficients,
    pair_list,
    pair_row,
    product_matrix,
)
from eigenrank.eri import GreenSolver
from eigenrank import lowrank
from eigenrank import PRESETS
from eigenrank.config import load_config, parse_config
from eigenrank.pipeline import build_pipeline
from eigenrank.lowrank import (
    cutoff,
    empirical_rank,
    geometric_r_samples,
    hm1_weights,
    oracle_rank,
    rank_base,
    scaling_report,
    tail_identity_slack,
    tail_slope,
    tail_table,
)
from rotation import rotate_cluster


@pytest.fixture(scope="module")
def flat1d_coeffs(flat1d_small):
    grid, op, src, lap = flat1d_small
    co_l2 = expansion_coefficients(src, src, 16, grid.node_count)
    co_hm1 = expansion_coefficients(src, lap, 16, grid.node_count)
    return grid, op, src, lap, co_l2, co_hm1


def coeff_row(coeffs, i, j):
    """Expansion coefficients of the product phi_i phi_j."""
    return coeffs.coeffs[pair_row(i, j, coeffs.n)]


def _tail(coeffs, i, j, r, weights=None):
    """Tail of one pair after r modes, straight from its coefficient row."""
    w = np.ones(coeffs.m) if weights is None else weights
    return float(np.sqrt(np.sum(coeff_row(coeffs, i, j)[r:] ** 2 * w[r:])))


class TestTails:
    def test_endpoints(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        table = tail_table(co)
        table_h = tail_table(co_h, hm1_weights(co_h, lap))
        assert table.shape == (co.coeffs.shape[0], grid.node_count + 1)
        assert table[0, 0] == pytest.approx(co.product_l2_norms[0], rel=1e-12)
        assert np.all(table[:, grid.node_count] == 0.0)
        assert np.all(table_h[:, grid.node_count] == 0.0)

    def test_monotone_nonincreasing(self, flat1d_coeffs):
        *_, co, co_h = flat1d_coeffs
        curve = np.max(tail_table(co), axis=0)
        assert np.all(np.diff(curve) <= 1e-14)

    def test_table_matches_pointwise(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        w = hm1_weights(co_h, lap)
        table, table_h = tail_table(co), tail_table(co_h, w)
        for (i, j) in [(0, 0), (2, 7), (15, 15)]:
            for r in (0, 3, 17, grid.node_count):
                row = pair_row(i, j, 16)
                assert table[row, r] == pytest.approx(_tail(co, i, j, r), abs=1e-14)
                assert table_h[row, r] == pytest.approx(_tail(co_h, i, j, r, w), abs=1e-14)

    def test_first_pair_decay_slope(self, flat1d_coeffs):
        # phi_1^2 coefficients decay ~ k^-3, so the tail decays faster than 1/r
        grid, _, src, lap, co, co_h = flat1d_coeffs
        rs = [r for r in geometric_r_samples(grid.node_count) if 0 < r <= grid.node_count // 2]
        tails = tail_table(co)[pair_row(0, 0, 16), rs]
        assert tail_slope(rs, tails) <= -1.0

    def test_hm1_bounded_by_l2_over_sqrt_mu(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        row = pair_row(3, 5, 16)
        table, table_h = tail_table(co_h), tail_table(co_h, hm1_weights(co_h, lap))
        for r in (0, 4, 32, 63):
            bound = table[row, r] / math.sqrt(lap.eigenvalues[r])
            assert table_h[row, r] <= bound * (1 + 1e-12)

    def test_hm1_r0_matches_poisson_solve(self, flat1d_coeffs):
        # independent route: ||f||_{H^-1}^2 = <f, u> with -Delta u = f by sparse solve
        grid, op, src, lap, co, co_h = flat1d_coeffs
        solver = GreenSolver(op)
        table_h = tail_table(co_h, hm1_weights(co_h, lap))
        for (i, j) in [(0, 0), (1, 4), (7, 7)]:
            f = src.vectors[:, i] * src.vectors[:, j]
            direct = math.sqrt(grid.quadrature_weight * float(np.dot(f, solver.solve(f))))
            assert table_h[pair_row(i, j, 16), 0] == pytest.approx(direct, rel=1e-8)

    def test_hm1_requires_laplacian_target(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        with pytest.raises(ValueError):
            hm1_weights(co, lap)


class TestCutoffs:
    def test_l2_formula(self):
        assert cutoff("l2", 0.5, 7, 0.5, 1, 1.0) == 7            # eps = max_sup -> n
        assert cutoff("l2", 0.25, 7, 0.5, 1, 1.0) == 14          # halving eps doubles r in d=1
        assert cutoff("l2", 1e9, 3, 0.5, 2, 1.0) == 1            # clamped to >= 1
        assert rank_base("l2", 0.25, 7, 0.5, 2) == 28.0

    def test_hm1_formula(self):
        assert cutoff("hm1", 0.5, 16, 0.5, 2, 1.0) == 4          # eps = max_sup -> ceil(sqrt(n))
        assert cutoff("hm1", 0.125, 16, 0.5, 2, 1.0) == 16       # (S/eps)^(d/2)*sqrt(n) = 4*4
        assert cutoff("hm1", 1e9, 3, 0.5, 2, 1.0) == 1
        assert rank_base("hm1", 0.125, 16, 0.5, 2) == 16.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cutoff("l2", 0.0, 4, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            cutoff("hm1", 0.1, 4, 1.0, 1, 0.0)
        with pytest.raises(ValueError):
            rank_base("h1", 0.1, 4, 1.0, 1)

    def test_calibration_makes_cutoff_sufficient(self, flat1d_coeffs):
        # the largest implied constant of a sweep, fed back as the
        # calibration, makes every predicted rank at least the empirical one
        grid, _, src, lap, co, co_h = flat1d_coeffs
        sweep = dict(
            n_list=[4, 8, 16], eps_list=[1e-1, 1e-2], norms=["l2", "hm1"], d=1, window=co.m
        )
        first = scaling_report(src, lap, co, co_h, calib_l2=1.0, calib_hm1=1.0, **sweep)
        calib = {
            norm: max(rep.implied_constant for rep in first.rank_reports if rep.norm == norm)
            for norm in ("l2", "hm1")
        }
        second = scaling_report(
            src, lap, co, co_h, calib_l2=calib["l2"], calib_hm1=calib["hm1"], **sweep
        )
        weights = {"l2": None, "hm1": hm1_weights(co_h, lap)}
        for rep in second.rank_reports:
            assert rep.r_predicted >= rep.r_empirical
            sub = {"l2": co, "hm1": co_h}[rep.norm].restrict(rep.n)
            curve = np.max(tail_table(sub, weights[rep.norm]), axis=0)
            assert curve[min(rep.r_predicted, sub.m)] <= rep.eps


def _ordered_family(basis, n):
    """Node values of phi_i phi_j for all n^2 ordered pairs (i, j)."""
    V = basis.vectors[:, :n]
    return (V[:, :, None] * V[:, None, :]).reshape(V.shape[0], n * n)


def _ordered_hm1_family(coeffs, basis_lap):
    rows = [pair_row(i, j, coeffs.n) for i in range(coeffs.n) for j in range(coeffs.n)]
    return (coeffs.coeffs[rows] * np.sqrt(hm1_weights(coeffs, basis_lap))[None, :]).T


def _reference_worst(A):
    """Worst-column residual of A after keeping k singular directions, k = 0..len(s)."""
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    T = (s[:, None] * Vh) ** 2
    resid_sq = np.vstack([np.cumsum(T[::-1], axis=0)[::-1], np.zeros(T.shape[1])])
    return np.sqrt(np.max(resid_sq, axis=1))


def _reference_rank(A, eps):
    """Per-eps oracle on the ordered family: one SVD per call, read only at
    cutoffs k that split no cluster of tied singular values."""
    worst = _reference_worst(A)
    s = np.linalg.svd(A, compute_uv=False)
    closes = np.concatenate([[True], s[:-1] - s[1:] >= CLUSTER_REL_GAP * s[0], [True]])
    hits = np.nonzero(closes & (worst <= eps))[0]
    return int(hits[0]) if hits.size else int(len(worst) - 1)


def _eps_inside_steps(A, rel_gap=1e-6):
    """One eps inside each clear drop of the reference curve, so the rank
    is checked at every k the curve resolves above roundoff."""
    worst = _reference_worst(A)
    hi, lo = worst[:-1], worst[1:]
    keep = (lo > 1e-10 * worst[0]) & (hi > lo * (1 + rel_gap))
    return sorted(np.sqrt(hi[keep] * lo[keep]), reverse=True)


def _weighted_family(A_distinct, n):
    scale = np.array([1.0 if i == j else np.sqrt(2.0) for i, j in pair_list(n)])
    return A_distinct * scale[None, :]


ORACLE_EPS = [1e-2, 1e-3, 1e-6]


@pytest.fixture(scope="module")
def random_pipeline():
    return build_pipeline(
        parse_config(
            {
                "grid": {"dimension": 2, "lengths": [np.pi, np.pi], "points": [12, 12],
                         "boundary": "dirichlet"},
                "coefficients": {"kind": "random_fourier", "seed": 3, "a_amplitude": 0.3,
                                 "v_amplitude": 0.5},
                "solver": {"m": 8, "tol": 1e-9},
                "sweep": {"n": [4, 8], "eps": ORACLE_EPS, "norms": ["l2", "hm1"]},
                "eri": {"enabled": False},
            }
        )
    )


class TestOracle:
    def test_single_column(self, flat1d_coeffs):
        grid, _, src, *_ = flat1d_coeffs
        norm0 = np.sqrt(grid.quadrature_weight) * np.linalg.norm(
            src.vectors[:, 0] ** 2
        )
        assert oracle_rank(src, 1, [1e-6, norm0 * 1.01]) == [1, 0]

    def test_trig_identity_bound(self, flat1d_coeffs):
        grid, _, src, *_ = flat1d_coeffs
        for n in (4, 8, 16):
            (r,) = oracle_rank(src, n, [1e-6])
            assert r <= 2 * n - 1
            # the product family spans exactly 2n-1 dimensions
            A = np.sqrt(grid.quadrature_weight) * product_matrix(src, n)
            s = np.linalg.svd(A, compute_uv=False)
            assert int(np.sum(s > 1e-10 * s[0])) == 2 * n - 1

    def test_dominated_by_empirical(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        curve = np.max(tail_table(co), axis=0)
        curve_h = np.max(tail_table(co_h, hm1_weights(co_h, lap)), axis=0)
        eps_list = [1e-2, 1e-4]
        for eps, r in zip(eps_list, oracle_rank(src, 16, eps_list)):
            assert r <= empirical_rank(curve, eps)
        for eps, r in zip(
            eps_list, oracle_rank(src, 16, eps_list, "hm1", basis_lap=lap, coeffs=co_h)
        ):
            assert r <= empirical_rank(curve_h, eps)

    def test_memory_guard(self, flat1d_coeffs, monkeypatch):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        monkeypatch.setattr(lowrank, "ORACLE_ENTRY_CAP", 1000)
        with pytest.raises(MemoryError):
            oracle_rank(src, 16, [1e-6])
        # the cap counts the matrix actually formed: rows x n(n+1)/2
        n = 16
        formed = grid.node_count * n * (n + 1) // 2
        for norm, kwargs in (("l2", {}), ("hm1", {"basis_lap": lap, "coeffs": co_h})):
            monkeypatch.setattr(lowrank, "ORACLE_ENTRY_CAP", formed - 1)
            with pytest.raises(MemoryError):
                oracle_rank(src, n, [1e-6], norm, **kwargs)
            monkeypatch.setattr(lowrank, "ORACLE_ENTRY_CAP", formed)
            oracle_rank(src, n, [1e-6], norm, **kwargs)

    def test_rejects_bad_inputs(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        with pytest.raises(ValueError):
            oracle_rank(src, 16, [1e-3], "hm1", basis_lap=lap)
        with pytest.raises(ValueError):
            oracle_rank(src, 16, [1e-3], "hm1", coeffs=co_h)
        with pytest.raises(ValueError):
            oracle_rank(src, 8, [1e-3], "hm1", basis_lap=lap, coeffs=co_h)
        with pytest.raises(ValueError):
            oracle_rank(src, 8, [1e-3, 0.0])

    def test_rotation_invariance(self, flat2d_small):
        grid, _, src, lap = flat2d_small
        n = 4
        co = expansion_coefficients(src, lap, n, grid.node_count)
        r0_l2 = oracle_rank(src, n, [1e-3])
        r0_h = oracle_rank(src, n, [1e-3], "hm1", basis_lap=lap, coeffs=co)
        rot = rotate_cluster(src, [1, 2], seed=5)
        lap_rot = rotate_cluster(lap, [1, 2], seed=5)
        co_rot = expansion_coefficients(rot, lap_rot, n, grid.node_count)
        assert oracle_rank(rot, n, [1e-3]) == r0_l2
        assert oracle_rank(rot, n, [1e-3], "hm1", basis_lap=lap_rot, coeffs=co_rot) == r0_h

    def test_reads_only_cutoffs_that_close_a_cluster(self, flat2d_pipeline):
        # flat-2d, n = 8: s_17 = s_18 (0-based), so a cutoff at k = 18 keeps
        # half of a tied pair, and its worst-column residual (0.171 on the
        # closed form, 0.151 and 0.145 after the rotations below) straddles
        # eps = 0.16; k = 19 closes the pair on every basis
        pipe = flat2d_pipeline
        src, n = pipe.basis_L, 8
        for basis in [src] + [rotate_cluster(src, [1, 2], seed=seed) for seed in (1, 3)]:
            assert oracle_rank(basis, n, [0.16]) == [19]
        A = np.sqrt(pipe.grid.quadrature_weight) * _ordered_family(src, n)
        assert _reference_rank(A, 0.16) == 19

    def test_matches_per_eps_ordered_reference_flat1d(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        sqrt_w = np.sqrt(grid.quadrature_weight)
        for n in (4, 8, 16):
            sub = co_h.restrict(n)
            A_l2 = sqrt_w * _ordered_family(src, n)
            A_h = _ordered_hm1_family(sub, lap)
            assert oracle_rank(src, n, ORACLE_EPS) == [
                _reference_rank(A_l2, eps) for eps in ORACLE_EPS
            ]
            assert oracle_rank(src, n, ORACLE_EPS, "hm1", basis_lap=lap, coeffs=sub) == [
                _reference_rank(A_h, eps) for eps in ORACLE_EPS
            ]

    def test_matches_per_eps_ordered_reference_random(self, random_pipeline):
        pipe = random_pipeline
        src, lap = pipe.basis_L, pipe.basis_lap
        sqrt_w = np.sqrt(pipe.grid.quadrature_weight)
        for n in pipe.config.sweep_n:
            sub = pipe.coeffs_hm1.restrict(n)
            A_l2 = sqrt_w * _ordered_family(src, n)
            A_h = _ordered_hm1_family(sub, lap)
            eps_l2 = ORACLE_EPS + _eps_inside_steps(A_l2)
            eps_h = ORACLE_EPS + _eps_inside_steps(A_h)
            assert len(eps_l2) > len(ORACLE_EPS) + n and len(eps_h) > len(ORACLE_EPS) + n
            assert oracle_rank(src, n, eps_l2) == [_reference_rank(A_l2, eps) for eps in eps_l2]
            assert oracle_rank(src, n, eps_h, "hm1", basis_lap=lap, coeffs=sub) == [
                _reference_rank(A_h, eps) for eps in eps_h
            ]

    def test_weighted_family_keeps_ordered_singular_values(self, flat1d_coeffs, random_pipeline):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        pipe = random_pipeline
        sqrt_w = np.sqrt(grid.quadrature_weight)
        cases = [
            (sqrt_w * _ordered_family(src, 16), sqrt_w * product_matrix(src, 16), 16),
            (
                _ordered_hm1_family(co_h, lap),
                (co_h.coeffs * np.sqrt(hm1_weights(co_h, lap))[None, :]).T,
                16,
            ),
            (
                np.sqrt(pipe.grid.quadrature_weight) * _ordered_family(pipe.basis_L, 8),
                np.sqrt(pipe.grid.quadrature_weight) * product_matrix(pipe.basis_L, 8),
                8,
            ),
        ]
        for ordered, distinct, n in cases:
            s_o = np.linalg.svd(ordered, compute_uv=False)
            s_w = np.linalg.svd(_weighted_family(distinct, n), compute_uv=False)
            # the ordered family has rank <= n(n+1)/2: its extra values are roundoff
            floor = 1e-13 * s_o[0]
            np.testing.assert_allclose(s_w, s_o[: s_w.size], rtol=1e-12, atol=floor)
            assert np.all(s_o[s_w.size :] <= floor)


class TestRankMonotonicity:
    def test_empirical_rank_grows_as_eps_shrinks(self, flat1d_coeffs):
        *_, co, co_h = flat1d_coeffs
        curve = np.max(tail_table(co), axis=0)
        ranks = [empirical_rank(curve, eps) for eps in (1e-1, 1e-2, 1e-3, 1e-5)]
        assert ranks == sorted(ranks)


class TestChainIdentities:
    def test_l2_tail_lower_bound_identity(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        lam = src.eigenvalues[: co.m]
        Q = (co.coeffs**2) @ lam
        table = tail_table(co)
        slack = tail_identity_slack(lam, table, Q[:, None])
        assert np.all(slack <= 1e-10 * (1 + np.abs(Q)))
        # the helper's value is the worst of the pointwise identity
        for p in (0, 40, len(Q) - 1):
            direct = max(
                lam[r - 1] * _tail(co, *pair_list(16)[p], r) ** 2 - Q[p]
                for r in geometric_r_samples(co.m) if r >= 1
            )
            assert slack[p] == pytest.approx(direct, abs=1e-12 * (1 + abs(Q[p])))

    def test_hm1_tail_lower_bound_identity(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        mu = lap.eigenvalues[: co_h.m]
        t_h = tail_table(co_h, hm1_weights(co_h, lap))
        t_2 = tail_table(co_h)
        assert np.all(tail_identity_slack(mu, t_h, t_2**2) <= 1e-10)

    def test_h1_identity_against_gradient_quadrature(self, flat1d_coeffs):
        from eigenrank.operator import gradient_energy

        grid, _, src, lap, co, co_h = flat1d_coeffs
        mu = lap.eigenvalues[: co_h.m]
        for (i, j) in [(0, 0), (3, 11), (15, 15)]:
            spectral = float(np.dot(mu, coeff_row(co_h, i, j) ** 2))
            direct = gradient_energy(grid, src.vectors[:, i] * src.vectors[:, j])
            assert spectral == pytest.approx(direct, rel=1e-6)


def test_scaling_report_flat1d(flat1d_coeffs):
    grid, _, src, lap, co, co_h = flat1d_coeffs
    report = scaling_report(
        src, lap, co, co_h,
        n_list=[4, 8, 16],
        eps_list=[1e-2, 1e-3],
        norms=["l2", "hm1"],
        d=1,
        calib_l2=1.0,
        calib_hm1=1.0,
        window=co.m,
        curve_n=16,
    )
    assert len(report.rank_reports) == 12
    for rep in report.rank_reports:
        assert rep.r_oracle <= rep.r_empirical
        if rep.norm == "l2":
            assert rep.r_oracle <= 2 * rep.n - 1
    # aggregate + per-pair curves for both norms at n=16
    aggregates = [c for c in report.tail_curves if c.i is None]
    assert {c.norm for c in aggregates} == {"l2", "hm1"}
    # the -1/d envelope needs the preset-scale grid (acceptance suite);
    # at 64 points the plateau up to r ~ 2n dominates, so only sanity-check
    assert report.slopes["l2"] < 0
    assert report.slopes["hm1"] < report.slopes["l2"]
    # linear growth of the oracle rank in n at fixed eps
    l2_16 = [rep for rep in report.rank_reports if rep.norm == "l2" and rep.eps == 1e-2]
    ns = np.array([rep.n for rep in l2_16])
    rocs = np.array([rep.r_oracle for rep in l2_16])
    slope = np.polyfit(ns, rocs, 1)[0]
    assert slope <= 2.1


def test_scaling_report_one_oracle_call_per_n_and_norm(flat1d_coeffs, monkeypatch):
    grid, _, src, lap, co, co_h = flat1d_coeffs
    calls = []
    real = lowrank.oracle_rank

    def counting(basis_src, n, eps_list, norm="l2", **kwargs):
        calls.append((n, norm))
        return real(basis_src, n, eps_list, norm, **kwargs)

    monkeypatch.setattr(lowrank, "oracle_rank", counting)
    n_list, norms = [4, 8, 16], ["l2", "hm1"]
    report = scaling_report(
        src, lap, co, co_h, n_list=n_list, eps_list=ORACLE_EPS, norms=norms, d=1,
        calib_l2=1.0, calib_hm1=1.0, window=co.m,
    )
    assert sorted(calls) == sorted((n, norm) for n in n_list for norm in norms)
    assert len(report.rank_reports) == len(n_list) * len(norms) * len(ORACLE_EPS)


def test_periodic_hm1_excludes_constant_mode():
    g = make_grid(1, 2 * np.pi, 48, "periodic")
    basis = laplacian_eigenpairs(assemble_laplacian(g), 48, 1e-9)
    src = SpectralBasis(
        grid=g, tag="schrodinger", eigenvalues=basis.eigenvalues,
        vectors=basis.vectors, residuals=basis.residuals,
    )
    co = expansion_coefficients(src, basis, 4, 48)
    # no blow-up from the zero mode, and the full tail is finite
    val = tail_table(co, hm1_weights(co, basis))[0, 0]
    assert np.isfinite(val) and val > 0


PRESET_FIXTURES = {
    "flat-1d": "flat1d_pipeline",
    "flat-2d": "flat2d_pipeline",
    "random-2d": "random2d_pipeline",
}


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_calibration_covers_every_resolved_cell(request, preset):
    # each preset's constants are 1.25 times its largest resolved implied
    # constant, so no resolved cell has a formula cutoff below r_empirical
    fixture = PRESET_FIXTURES.get(preset)
    pipe = request.getfixturevalue(fixture) if fixture else build_pipeline(load_config(preset))
    cfg = pipe.config
    report = scaling_report(
        pipe.basis_L, pipe.basis_lap, pipe.coeffs_l2, pipe.coeffs_hm1,
        cfg.sweep_n, cfg.sweep_eps, cfg.sweep_norms, pipe.grid.dimension,
        calib_l2=cfg.calib_l2, calib_hm1=cfg.calib_hm1, window=pipe.window,
    )
    resolved = [rep for rep in report.rank_reports if rep.resolved]
    assert resolved
    short = [(rep.n, rep.eps, rep.norm) for rep in resolved if rep.r_predicted < rep.r_empirical]
    assert short == []
