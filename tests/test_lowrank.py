import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenrank.grid import make_grid
from eigenrank.operator import assemble_laplacian
from eigenrank.eigensolve import CLUSTER_REL_GAP, SpectralBasis, laplacian_eigenpairs
from eigenrank.products import (
    ProductCoefficients,
    expansion_coefficients,
    pair_list,
    pair_row,
    product_matrix,
    quadratic_form_values,
)
from eigenrank.eri import GreenSolver
from eigenrank import lowrank
from eigenrank import PRESETS
from eigenrank.config import load_config, parse_config
from eigenrank import pipeline
from eigenrank.pipeline import Stages, build_pipeline
from eigenrank.lowrank import (
    cutoff,
    empirical_rank,
    geometric_r_samples,
    hm1_weights,
    oracle_rank,
    rank_base,
    row_scales,
    tail_identity_slack,
    tail_slope,
    tail_table,
)
from rotation import rotate_cluster
from conftest import gather, sweep


@pytest.fixture(scope="module")
def flat1d_coeffs(flat1d_small):
    grid, op, src, lap = flat1d_small
    co_l2 = expansion_coefficients(src, src, 16, grid.node_count)
    co_hm1 = expansion_coefficients(src, lap, 16, grid.node_count)
    return grid, op, src, lap, co_l2, co_hm1


def coeff_row(coeffs, i, j):
    """Expansion coefficients of the product phi_i phi_j."""
    return coeffs.coeffs[pair_row(i, j, coeffs.n)]


def _two_copy_table(coeffs, weights=None):
    """The tail table with its squares, their reversed cumulative sum and
    the square root as separate arrays: the reference for the one-buffer
    tail_table."""
    sq = np.zeros((coeffs.coeffs.shape[0], coeffs.m + 1))
    np.square(coeffs.coeffs, out=sq[:, : coeffs.m])
    if weights is not None:
        sq[:, : coeffs.m] *= weights[None, :]
    if coeffs.outside_mass is not None:
        sq[:, coeffs.m] = coeffs.outside_mass
    table = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    return np.sqrt(np.maximum(table, 0.0))


def test_tail_table_is_bitwise_the_two_copy_formula(flat1d_coeffs, flat2d_small):
    grid, _, src, lap, co, co_h = flat1d_coeffs
    windowed = expansion_coefficients(src, src, 8, 20)
    assert windowed.outside_mass is not None
    cases = [(co, None), (co_h, hm1_weights(co_h)), (windowed, None)]
    grid2, _, src2, lap2 = flat2d_small
    co2 = expansion_coefficients(src2, lap2, 6, grid2.node_count)
    cases.append((gather(co2, 4), hm1_weights(co2)))
    for coeffs, weights in cases:
        table = tail_table(coeffs, weights)
        assert table.shape == (len(pair_list(coeffs.n)), coeffs.m + 1)
        np.testing.assert_array_equal(table, _two_copy_table(coeffs, weights))


def _tail(coeffs, i, j, r, weights=None):
    """Tail of one pair after r modes, straight from its coefficient row."""
    w = np.ones(coeffs.m) if weights is None else weights
    return float(np.sqrt(np.sum(coeff_row(coeffs, i, j)[r:] ** 2 * w[r:])))


class TestTails:
    def test_endpoints(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        table = tail_table(co)
        table_h = tail_table(co_h, hm1_weights(co_h))
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
        w = hm1_weights(co_h)
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
        table, table_h = tail_table(co_h), tail_table(co_h, hm1_weights(co_h))
        for r in (0, 4, 32, 63):
            bound = table[row, r] / math.sqrt(lap.eigenvalues[r])
            assert table_h[row, r] <= bound * (1 + 1e-12)

    def test_hm1_r0_matches_poisson_solve(self, flat1d_coeffs):
        # independent route: ||f||_{H^-1}^2 = <f, u> with -Delta u = f by sparse solve
        grid, op, src, lap, co, co_h = flat1d_coeffs
        solver = GreenSolver(op)
        table_h = tail_table(co_h, hm1_weights(co_h))
        for (i, j) in [(0, 0), (1, 4), (7, 7)]:
            f = src.vectors[:, i] * src.vectors[:, j]
            direct = math.sqrt(grid.quadrature_weight * float(np.dot(f, solver.solve(f))))
            assert table_h[pair_row(i, j, 16), 0] == pytest.approx(direct, rel=1e-8)


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
        cells = dict(
            n_list=[4, 8, 16], eps_list=[1e-1, 1e-2], norms=["l2", "hm1"], window=co.m
        )
        first = sweep(src, co, co_h, calib_l2=1.0, calib_hm1=1.0, **cells)
        calib = {
            norm: max(rep.implied_constant for rep in first.rank_reports if rep.norm == norm)
            for norm in ("l2", "hm1")
        }
        second = sweep(
            src, co, co_h, calib_l2=calib["l2"], calib_hm1=calib["hm1"], **cells
        )
        weights = {"l2": None, "hm1": hm1_weights(co_h)}
        for rep in second.rank_reports:
            assert rep.r_predicted >= rep.r_empirical
            sub = gather({"l2": co, "hm1": co_h}[rep.norm], rep.n)
            curve = np.max(tail_table(sub, weights[rep.norm]), axis=0)
            assert curve[min(rep.r_predicted, sub.m)] <= rep.eps
            # each n's worst-pair curve, read from the table of the widest n,
            # is the curve of its own family
            assert rep.r_empirical == empirical_rank(curve, rep.eps)
            assert rep.resolved == bool(curve[co.m] <= rep.eps)


def _ordered_family(basis, n):
    """Node values of phi_i phi_j for all n^2 ordered pairs (i, j)."""
    V = basis.vectors[:, :n]
    return (V[:, :, None] * V[:, None, :]).reshape(V.shape[0], n * n)


def _ordered_hm1_family(coeffs):
    rows = [pair_row(i, j, coeffs.n) for i in range(coeffs.n) for j in range(coeffs.n)]
    return (coeffs.coeffs[rows] * np.sqrt(hm1_weights(coeffs))[None, :]).T


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


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle took the streamed QR and SVD")


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
        curve_h = np.max(tail_table(co_h, hm1_weights(co_h)), axis=0)
        eps_list = [1e-2, 1e-4]
        for eps, r in zip(eps_list, oracle_rank(src, 16, eps_list)):
            assert r <= empirical_rank(curve, eps)
        for eps, r in zip(
            eps_list, oracle_rank(src, 16, eps_list, "hm1", coeffs=co_h)
        ):
            assert r <= empirical_rank(curve_h, eps)

    def test_memory_guard(self):
        # a tall 2-D family, 36 ORACLE_BLOCKs of rows: the oracle holds
        # a few blocks at a time, never the rows x n(n+1)/2 family
        grid = make_grid(2, (np.pi, np.pi), (192, 192), "dirichlet")
        lap = laplacian_eigenpairs(assemble_laplacian(grid), 8, 1e-9)
        n = 8
        co = expansion_coefficients(lap, lap, n, grid.node_count)
        family_bytes = grid.node_count * len(pair_list(n)) * 8
        for norm, kwargs in (("l2", {}), ("hm1", {"coeffs": co})):
            tracemalloc.start()
            try:
                oracle_rank(lap, n, [1e-3], norm, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < family_bytes / 4

    @staticmethod
    def _ragged_cases(flat1d_coeffs, random_pipeline):
        # the tall 2-D family has 144 rows, the wide 1-D one 64 rows and 136
        # pairs, so blocks of 7 and 100 rows stack several times and end ragged
        grid, _, src1, _, _, co_h1 = flat1d_coeffs
        pipe = random_pipeline
        for src, co_h, sqrt_w in [
            (src1, co_h1, np.sqrt(grid.quadrature_weight)),
            (pipe.basis_L, gather(pipe.coeffs_hm1, 8), np.sqrt(pipe.grid.quadrature_weight)),
        ]:
            n = co_h.n
            yield src, n, "l2", {}, sqrt_w * _ordered_family(src, n)
            yield src, n, "hm1", {"coeffs": co_h}, _ordered_hm1_family(co_h)

    @pytest.mark.parametrize("block", [7, 100])
    def test_gram_route_matches_full_svd_over_ragged_blocks(
        self, block, monkeypatch, flat1d_coeffs, random_pipeline
    ):
        # eps from 1e-2 down to the Gram's floor and inside each clear drop of
        # the curve above it; the SVD and the QR stay out of the oracle
        monkeypatch.setattr(lowrank, "ORACLE_BLOCK", block)
        for src, n, norm, kwargs, A in self._ragged_cases(flat1d_coeffs, random_pipeline):
            s0 = np.linalg.norm(A, 2)
            floor = math.sqrt(lowrank.GRAM_FLOOR * np.finfo(float).eps) * s0
            eps_list = [e for e in [10.0**-k for k in range(2, 13)] + _eps_inside_steps(A)
                        if e >= floor]
            assert len(eps_list) > 5
            expected = [_reference_rank(A, e) for e in eps_list]
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", _refuse)
                m.setattr(np.linalg, "qr", _refuse)
                assert oracle_rank(src, n, eps_list, norm, **kwargs) == expected

    @pytest.mark.parametrize("block", [7, 100])
    def test_qr_route_matches_full_svd_over_ragged_blocks(
        self, block, monkeypatch, flat1d_coeffs, random_pipeline
    ):
        # eps reaches 1e-12, below every family's Gram floor, so each call
        # takes the streamed QR and the SVD
        monkeypatch.setattr(lowrank, "ORACLE_BLOCK", block)
        eps_list = [10.0**-k for k in range(2, 13)]
        for src, n, norm, kwargs, A in self._ragged_cases(flat1d_coeffs, random_pipeline):
            eps = eps_list + _eps_inside_steps(A)
            assert oracle_rank(src, n, eps, norm, **kwargs) == [_reference_rank(A, e) for e in eps]

    def test_eps_below_the_gram_floor_matches_the_svd(self, harmonic1d_pipeline):
        # harmonic-1d, n = 32: the Gram alone resolves the L2 curve only to
        # about sqrt(u) s_0 = 4.8e-8 and reads 141 at eps 1e-8
        pipe = harmonic1d_pipeline
        src, co_h = pipe.basis_L, pipe.coeffs_hm1
        A = np.sqrt(pipe.grid.quadrature_weight) * _ordered_family(src, 32)
        assert oracle_rank(src, 32, [1e-8]) == [_reference_rank(A, 1e-8)] == [67]
        assert oracle_rank(src, 32, [1e-10], "hm1", coeffs=co_h) == [
            _reference_rank(_ordered_hm1_family(co_h), 1e-10)
        ] == [512]

    @pytest.mark.parametrize("norm", ["l2", "hm1"])
    def test_gram_route_accuracy_just_above_the_floor(self, norm, harmonic1d_pipeline, monkeypatch):
        # the accuracy contract of GRAM_FLOOR on harmonic-1d, the preset with
        # the largest measured error: from the floor up, the rank is the
        # SVD's once eps lies 0.1% or more from every value the worst-pair
        # curve takes at a k that closes a cluster (each value is probed
        # 0.1% above and below)
        pipe = harmonic1d_pipeline
        nearest = math.inf
        for n in pipe.config.sweep_n:
            if norm == "l2":
                A, kwargs = np.sqrt(pipe.grid.quadrature_weight) * _ordered_family(pipe.basis_L, n), {}
            else:
                A = _ordered_hm1_family(gather(pipe.coeffs_hm1, n))
                kwargs = {"coeffs": pipe.coeffs_hm1}
            worst = _reference_worst(A)
            s = np.linalg.svd(A, compute_uv=False)
            closes = np.concatenate([[True], s[:-1] - s[1:] >= CLUSTER_REL_GAP * s[0], [True]])
            floor = math.sqrt(lowrank.GRAM_FLOOR * np.finfo(float).eps) * s[0]
            eps_list = [e for w in worst[closes] for e in (w * 1.001, w * 0.999) if e >= floor]
            nearest = min(nearest, min(eps_list) / floor)
            expected = [int(np.argmax(closes & (worst <= e))) for e in eps_list]
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", _refuse)
                m.setattr(np.linalg, "qr", _refuse)
                assert oracle_rank(pipe.basis_L, n, eps_list, norm, **kwargs) == expected
        # n = 8 probes within 2.5x of the floor, where the contract is tightest
        assert nearest < 2.5

    @pytest.mark.parametrize("seed", range(5))
    def test_cluster_rule_reads_small_singular_values_like_the_svd(self, seed):
        # a synthetic H^-1 family (unit weights) whose singular values come
        # in pairs from 3.0e-6 down to 4e-7, each pair split by the
        # CLUSTER_REL_GAP threshold 1e-8 plus or minus 1e-11: only a singular
        # value accurate to about u s_0 judges every pair as the SVD does
        # (sqrt(theta) is off by about u s_0^2 / (2 s), some 3e-10 here)
        rng = np.random.default_rng(seed)
        n, rows = 5, 40
        pairs = pair_list(n)
        s = [1.0]
        for k in range(6):
            a = 4e-7 * 1.5 ** (5 - k)
            s += [a, a - CLUSTER_REL_GAP * (1 + (1e-3 if k % 2 else -1e-3))]
        s += [0.0] * (len(pairs) - len(s))
        U = np.linalg.qr(rng.standard_normal((rows, len(pairs))))[0]
        V = np.linalg.qr(rng.standard_normal((len(pairs), len(pairs))))[0]
        mult = np.array([1.0 if i == j else 2.0 for i, j in pairs])
        co = ProductCoefficients(
            n=n, m=rows, eigenvalues=np.ones(rows),
            coeffs=((U * s) @ V.T / np.sqrt(mult)).T, product_l2_norms=np.ones(len(pairs)),
        )
        A = _ordered_hm1_family(co)
        # eps inside every drop of the curve above the Gram floor by 10% or more
        floor = math.sqrt(lowrank.GRAM_FLOOR * np.finfo(float).eps)
        eps_list = [e for e in _eps_inside_steps(A, rel_gap=0.1) if e >= floor]
        assert len(eps_list) >= 6
        assert oracle_rank(None, n, eps_list, "hm1", coeffs=co) == [
            _reference_rank(A, e) for e in eps_list
        ]

    def test_running_sum_reads_the_cumsum_formula_bit_for_bit(
        self, monkeypatch, flat1d_coeffs, harmonic1d_pipeline
    ):
        # the worst-pair curve summed one row of pairs at a time, against the
        # (k+1) x pairs cumsum it replaced, on the (s, T) of oracle calls on
        # both routes: flat-1d n = 16 (64 rows, 136 pairs) and harmonic-1d
        # n = 32 (512 rows, 528 pairs), where min(rows, pairs) = rows
        def cumsum_ranks(s, T, eps_list):
            resid_sq = np.zeros((len(s) + 1, T.shape[1]))
            np.cumsum(T[::-1], axis=0, out=resid_sq[-2::-1])
            worst = np.sqrt(np.max(resid_sq, axis=1))
            closes = np.ones(len(s) + 1, dtype=bool)
            closes[1:-1] = s[:-1] - s[1:] >= CLUSTER_REL_GAP * s[0]
            return worst, [int(np.argmax(closes & (worst <= eps))) for eps in eps_list]

        calls = []
        real = lowrank._read_ranks

        def recording(s, T, eps_list):
            ranks = real(s, T, eps_list)
            calls.append((s.copy(), T.copy(), list(eps_list), ranks))
            return ranks

        monkeypatch.setattr(lowrank, "_read_ranks", recording)
        _, _, src, _, _, co_h = flat1d_coeffs
        for eps_list in ([1e-2, 1e-4, 1e-6], [1e-4, 1e-12]):
            oracle_rank(src, 16, eps_list)
            oracle_rank(src, 16, eps_list, "hm1", coeffs=co_h)
        oracle_rank(harmonic1d_pipeline.basis_L, 32, [1e-2, 1e-4, 1e-6])
        assert [T.shape for _, T, _, _ in calls[-2:]] == [(64, 136), (512, 528)]
        for s, T, eps_list, ranks in calls:
            worst, expected = cumsum_ranks(s, T, eps_list)
            assert ranks == expected
            # an eps at each value of the curve and at the float just below
            # it reads another rank wherever two non-increasing curves differ,
            # so with every k closing a cluster the ranks pin every bit
            probes = np.concatenate([worst, np.nextafter(worst, 0.0)]).tolist()
            for s_read in (s, np.arange(len(s), 0.0, -1.0)):
                assert real(s_read, T, probes) == cumsum_ranks(s_read, T, probes)[1]

    def test_empty_eps_list(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        assert oracle_rank(src, 8, []) == []
        assert oracle_rank(src, 16, [], "hm1", coeffs=co_h) == []

    def test_rejects_bad_inputs(self, flat1d_coeffs):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        with pytest.raises(ValueError):
            oracle_rank(src, 16, [1e-3], "hm1")
        with pytest.raises(ValueError):
            oracle_rank(src, co_h.n + 1, [1e-3], "hm1", coeffs=co_h)
        with pytest.raises(ValueError):
            oracle_rank(src, 8, [1e-3, 0.0])

    @pytest.mark.parametrize("block", [7, 1024])
    def test_hm1_family_read_in_place_is_the_gathered_family_bit_for_bit(
        self, block, monkeypatch, flat1d_coeffs, random_pipeline
    ):
        # the H^-1 oracle of n read from a wider family has the (s, T) of the
        # oracle on that family's rows gathered into their own expansion, on
        # the Gram route (eps 1e-3) and the QR route (1e-12), in ragged
        # blocks of 7 rows and in one block
        monkeypatch.setattr(lowrank, "ORACLE_BLOCK", block)
        calls = []
        real = lowrank._read_ranks

        def recording(s, T, eps_list):
            calls.append((s.copy(), T.copy()))
            return real(s, T, eps_list)

        monkeypatch.setattr(lowrank, "_read_ranks", recording)
        *_, src1, _, _, co_h1 = flat1d_coeffs
        for src, co_h in [(src1, co_h1), (random_pipeline.basis_L, random_pipeline.coeffs_hm1)]:
            for n in (1, 4, co_h.n - 1):
                for eps in (1e-3, 1e-12):
                    wide = oracle_rank(src, n, [eps], "hm1", coeffs=co_h)
                    own = oracle_rank(src, n, [eps], "hm1", coeffs=gather(co_h, n))
                    assert wide == own
                    (s_wide, T_wide), (s_own, T_own) = calls[-2:]
                    np.testing.assert_array_equal(s_wide, s_own)
                    np.testing.assert_array_equal(T_wide, T_own)

    def test_rotation_invariance(self, flat2d_small):
        grid, _, src, lap = flat2d_small
        n = 4
        co = expansion_coefficients(src, lap, n, grid.node_count)
        r0_l2 = oracle_rank(src, n, [1e-3])
        r0_h = oracle_rank(src, n, [1e-3], "hm1", coeffs=co)
        rot = rotate_cluster(src, [1, 2], seed=5)
        lap_rot = rotate_cluster(lap, [1, 2], seed=5)
        co_rot = expansion_coefficients(rot, lap_rot, n, grid.node_count)
        assert oracle_rank(rot, n, [1e-3]) == r0_l2
        assert oracle_rank(rot, n, [1e-3], "hm1", coeffs=co_rot) == r0_h

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
            A_l2 = sqrt_w * _ordered_family(src, n)
            A_h = _ordered_hm1_family(gather(co_h, n))
            assert oracle_rank(src, n, ORACLE_EPS) == [
                _reference_rank(A_l2, eps) for eps in ORACLE_EPS
            ]
            assert oracle_rank(src, n, ORACLE_EPS, "hm1", coeffs=co_h) == [
                _reference_rank(A_h, eps) for eps in ORACLE_EPS
            ]

    def test_matches_per_eps_ordered_reference_random(self, random_pipeline):
        pipe = random_pipeline
        src = pipe.basis_L
        sqrt_w = np.sqrt(pipe.grid.quadrature_weight)
        for n in pipe.config.sweep_n:
            A_l2 = sqrt_w * _ordered_family(src, n)
            A_h = _ordered_hm1_family(gather(pipe.coeffs_hm1, n))
            eps_l2 = ORACLE_EPS + _eps_inside_steps(A_l2)
            eps_h = ORACLE_EPS + _eps_inside_steps(A_h)
            assert len(eps_l2) > len(ORACLE_EPS) + n and len(eps_h) > len(ORACLE_EPS) + n
            assert oracle_rank(src, n, eps_l2) == [_reference_rank(A_l2, eps) for eps in eps_l2]
            assert oracle_rank(src, n, eps_h, "hm1", coeffs=pipe.coeffs_hm1) == [
                _reference_rank(A_h, eps) for eps in eps_h
            ]

    def test_weighted_family_keeps_ordered_singular_values(self, flat1d_coeffs, random_pipeline):
        grid, _, src, lap, co, co_h = flat1d_coeffs
        pipe = random_pipeline
        sqrt_w = np.sqrt(grid.quadrature_weight)
        cases = [
            (sqrt_w * _ordered_family(src, 16), sqrt_w * product_matrix(src, 16), 16),
            (
                _ordered_hm1_family(co_h),
                (co_h.coeffs * np.sqrt(hm1_weights(co_h))[None, :]).T,
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
        t_h = tail_table(co_h, hm1_weights(co_h))
        t_2 = tail_table(co_h)
        assert np.all(tail_identity_slack(mu, t_h, t_2**2) <= 1e-10)

    def test_h1_identity_against_gradient_quadrature(self, flat1d_coeffs):
        grid, op_lap, src, lap, co, co_h = flat1d_coeffs
        mu = lap.eigenvalues[: co_h.m]
        for (i, j) in [(0, 0), (3, 11), (15, 15)]:
            spectral = float(np.dot(mu, coeff_row(co_h, i, j) ** 2))
            direct = quadratic_form_values(op_lap, src.vectors[:, i] * src.vectors[:, j])
            assert spectral == pytest.approx(direct, rel=1e-6)


# ----------------------------------------------------------------------
# tail_table and tail_identity_slack on random inputs: the guarantees that
# hold for every coefficient array, out-of-window mass and ascending spectrum
# ----------------------------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _expansions(draw, windowed=None):
    """A ProductCoefficients of random shape and values; complete, or
    windowed with a random non-negative out-of-window mass per pair."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    pairs = n * (n + 1) // 2
    coeffs = draw(hnp.arrays(np.float64, (pairs, m), elements=st.floats(-1e3, 1e3, **_finite)))
    if windowed is None:
        windowed = draw(st.booleans())
    outside = (
        draw(hnp.arrays(np.float64, pairs, elements=st.floats(0.0, 1e6, **_finite)))
        if windowed
        else None
    )
    norms = np.sqrt(np.sum(coeffs**2, axis=1) + (0.0 if outside is None else outside))
    return ProductCoefficients(
        n=n, m=m, eigenvalues=draw(_ascending_spectra(m)), coeffs=coeffs,
        product_l2_norms=norms, outside_mass=outside,
    )


@st.composite
def _ascending_spectra(draw, m, null_mode=None):
    """m ascending eigenvalues, ties allowed; with a null mode the first is
    exactly 0 and the rest positive, as on a periodic Laplacian."""
    if null_mode is None:
        null_mode = draw(st.booleans())
    start = draw(st.floats(1e-3, 1e3, **_finite))
    steps = draw(hnp.arrays(np.float64, m, elements=st.floats(0.0, 1e2, **_finite)))
    mu = start + np.cumsum(steps) - steps[0]
    if null_mode:
        mu[0] = 0.0
    return mu


def _reference_table_sq(coeffs, weights):
    """Squared tails by math.fsum of each pair's discarded terms."""
    w = np.ones(coeffs.m) if weights is None else weights
    outside = np.zeros(len(coeffs.coeffs)) if coeffs.outside_mass is None else coeffs.outside_mass
    return np.array([
        [math.fsum([*(w[r:] * row[r:] ** 2), mass]) for r in range(coeffs.m + 1)]
        for row, mass in zip(coeffs.coeffs, outside)
    ])


class TestTailProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_table_is_the_discarded_mass(self, data):
        # every entry is the square root of the discarded (weighted) terms
        # plus the out-of-window mass, each row is non-increasing in r, and
        # the last column is that mass's square root: exactly 0 when complete
        windowed = data.draw(st.booleans())
        co = data.draw(_expansions(windowed=windowed))
        weights = None
        if not windowed and data.draw(st.booleans()):
            weights = hm1_weights(co)
        table = tail_table(co, weights)
        assert table.shape == (len(co.coeffs), co.m + 1)
        last = 0.0 if co.outside_mass is None else np.sqrt(co.outside_mass)
        np.testing.assert_array_equal(table[:, -1], np.broadcast_to(last, table[:, -1].shape))
        assert np.all(np.diff(table, axis=1) <= 0.0)
        np.testing.assert_allclose(
            table**2, _reference_table_sq(co, weights), rtol=1e-12, atol=1e-290
        )

    @settings(max_examples=200, deadline=None)
    @given(co=_expansions(windowed=False))
    # a row whose squares are subnormal floats unless it is scaled
    @example(co=ProductCoefficients(
        n=1, m=2, eigenvalues=np.array([91.0, 91.0]), coeffs=np.array([[0.0, 1.63979681e-159]]),
        product_l2_norms=np.array([1.63979681e-159]), outside_mass=None,
    ))
    def test_hm1_identity_slack_is_never_positive(self, co):
        # mu_{r-1} sum_{k>=r} c_k^2 / mu_k <= sum_{k>=r} c_k^2 for every
        # coefficient array once mu ascends; the null mode's weight 0 only
        # lowers the left side.  Both sides and the bound are read in the
        # row_scales units of each row's largest L2 tail
        l2 = tail_table(co)
        s = row_scales(l2[:, 0])[:, None]
        slack = tail_identity_slack(
            co.eigenvalues, s * tail_table(co, hm1_weights(co)), (s * l2) ** 2
        )
        assert np.all(slack <= 1e-12 * (s[:, 0] * l2[:, 0]) ** 2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_l2_identity_slack_is_never_positive(self, data):
        # lambda_{r-1} tail_r^2 <= Q = sum_k lambda_k c_k^2 plus the
        # out-of-window energy, which is at least lambda_{m-1} times its mass
        co = data.draw(_expansions())
        lam = data.draw(_ascending_spectra(co.m + 1, null_mode=False))
        Q = (co.coeffs**2) @ lam[:-1]
        if co.outside_mass is not None:
            Q = Q + lam[-1] * co.outside_mass
        slack = tail_identity_slack(lam[:-1], tail_table(co), Q[:, None])
        assert np.all(slack <= 1e-12 * Q)


def test_scaling_report_flat1d(flat1d_coeffs):
    grid, _, src, lap, co, co_h = flat1d_coeffs
    report = sweep(
        src, co, co_h,
        n_list=[4, 8, 16],
        eps_list=[1e-2, 1e-3],
        norms=["l2", "hm1"],
        calib_l2=1.0,
        calib_hm1=1.0,
        window=co.m,
    )
    assert len(report.rank_reports) == 12
    for rep in report.rank_reports:
        assert rep.r_oracle <= rep.r_empirical
        if rep.norm == "l2":
            assert rep.r_oracle <= 2 * rep.n - 1
    # for both norms, the worst-pair aggregate (i = j = 0) and every 1-based
    # pair of n = 16, sampled at the same r; the aggregate is the worst pair's,
    # and its slope is fitted over 0 < r <= G/2 as tail-curves fits it
    slopes = {}
    for norm in ("l2", "hm1"):
        rows = [row for row in report.tail_rows if row[0] == norm]
        aggregate = {r: tail for _, i, j, r, tail in rows if i == j == 0}
        assert aggregate
        by_pair = {}
        for _, i, j, r, tail in rows:
            if i or j:
                by_pair.setdefault((i, j), {})[r] = tail
        assert sorted(by_pair) == [(i + 1, j + 1) for i, j in pair_list(16)]
        for r, tail in aggregate.items():
            assert tail == max(curve[r] for curve in by_pair.values())
        fit = [r for r in aggregate if 0 < r <= grid.node_count // 2]
        slopes[norm] = tail_slope(fit, [aggregate[r] for r in fit])
    # the -1/d envelope needs the preset-scale grid (acceptance suite);
    # at 64 points the plateau up to r ~ 2n dominates, so only sanity-check
    assert slopes["l2"] < 0
    assert slopes["hm1"] < slopes["l2"]
    # linear growth of the oracle rank in n at fixed eps
    l2_16 = [rep for rep in report.rank_reports if rep.norm == "l2" and rep.eps == 1e-2]
    ns = np.array([rep.n for rep in l2_16])
    rocs = np.array([rep.r_oracle for rep in l2_16])
    slope = np.polyfit(ns, rocs, 1)[0]
    assert slope <= 2.1


def test_scaling_makes_one_oracle_call_per_n_and_norm(flat1d_pipeline, monkeypatch):
    # every call runs in the oracle stage, which ends before the tails
    # stage starts
    pipe = dataclasses.replace(flat1d_pipeline, timings=Stages())
    cfg = pipe.config
    calls = []
    real = pipeline.oracle_rank

    def counting(basis_src, n, eps_list, norm="l2", **kwargs):
        assert not pipe.timings
        calls.append((n, norm))
        return real(basis_src, n, eps_list, norm, **kwargs)

    monkeypatch.setattr(pipeline, "oracle_rank", counting)
    report = pipeline._scaling(pipe)
    assert sorted(calls) == sorted((n, norm) for n in cfg.sweep_n for norm in cfg.sweep_norms)
    assert len(report.rank_reports) == len(cfg.sweep_n) * len(cfg.sweep_norms) * len(cfg.sweep_eps)
    assert list(pipe.timings) == ["oracle", "tails"]


def test_scaling_report_on_a_preset_sweep_takes_the_gram_route(flat1d_pipeline, monkeypatch):
    # the presets' smallest eps, 1e-6, lies above every cell's Gram floor
    pipe = flat1d_pipeline
    cfg = pipe.config
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    monkeypatch.setattr(np.linalg, "qr", _refuse)
    report = sweep(
        pipe.basis_L, pipe.coeffs_l2, pipe.coeffs_hm1, cfg.sweep_n, cfg.sweep_eps,
        cfg.sweep_norms, cfg.calib_l2, cfg.calib_hm1, window=pipe.window,
    )
    assert len(report.rank_reports) == len(cfg.sweep_n) * len(cfg.sweep_eps) * len(cfg.sweep_norms)
    for rep in report.rank_reports:
        if rep.norm == "l2":
            assert rep.r_oracle <= 2 * rep.n - 1


@pytest.mark.parametrize(
    "dimension, points",
    [(1, 16), (2, (8, 10)), (3, (8, 8, 9))],
)
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_hm1_weights_drop_exactly_the_constant_mode(dimension, points, boundary):
    # the closed form gives the periodic constant mode mu = 0.0 exactly, so
    # the weights are 0.0 there and, everywhere else, bit for bit those of
    # a tolerance test for the null mode
    grid = make_grid(dimension, np.pi, points, boundary)
    basis = laplacian_eigenpairs(assemble_laplacian(grid), 1, 1e-9)
    co = expansion_coefficients(basis, basis, 1, grid.node_count)
    mu = basis.eigenvalues
    if boundary == "periodic":
        mask = np.abs(mu) <= 1e-10 * (1.0 + float(np.max(np.abs(mu))))
    else:
        mask = np.zeros(mu.shape, dtype=bool)
    reference = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, mu))
    weights = hm1_weights(co)
    assert np.array_equal(mask, mu == 0.0)
    assert int(np.sum(mask)) == (boundary == "periodic")
    assert np.array_equal(weights, reference)
    assert np.all(weights[mask] == 0.0) and not np.any(np.signbit(weights))


def test_periodic_hm1_excludes_constant_mode():
    g = make_grid(1, 2 * np.pi, 48, "periodic")
    basis = laplacian_eigenpairs(assemble_laplacian(g), 48, 1e-9)
    src = SpectralBasis(
        grid=g, eigenvalues=basis.eigenvalues,
        vectors=basis.vectors, residuals=basis.residuals, ortho_defect=basis.ortho_defect,
    )
    co = expansion_coefficients(src, basis, 4, 48)
    # no blow-up from the zero mode, and the full tail is finite
    val = tail_table(co, hm1_weights(co))[0, 0]
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
    report = sweep(
        pipe.basis_L, pipe.coeffs_l2, pipe.coeffs_hm1,
        cfg.sweep_n, cfg.sweep_eps, cfg.sweep_norms,
        calib_l2=cfg.calib_l2, calib_hm1=cfg.calib_hm1, window=pipe.window,
    )
    resolved = [rep for rep in report.rank_reports if rep.resolved]
    assert resolved
    short = [(rep.n, rep.eps, rep.norm) for rep in resolved if rep.r_predicted < rep.r_empirical]
    assert short == []
