"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
on a green run (pytest shows them on failures regardless).  The preset
pipelines are session fixtures, so their one-time eigendecompositions are
shared across criteria; runtime-capped criteria add the build time of every
pipeline they depend on.
"""

import time

import numpy as np

from eigenrank.config import load_config
from eigenrank.cli import main
from eigenrank.eigensolve import (
    _gram_defect,
    comparability_check,
    laplacian_eigenpairs,
    lowest_eigenpairs,
)
from eigenrank.operator import assemble_laplacian
from eigenrank.grid import make_grid
from eigenrank.products import (
    expansion_coefficients,
    pair_list,
    pair_row,
    product_matrix,
    quadratic_chain_report,
    quadratic_form_values,
)
from eigenrank.lowrank import (
    empirical_rank,
    geometric_r_samples,
    hm1_weights,
    oracle_rank,
    tail_identity_slack,
    tail_slope,
    tail_table,
)
from eigenrank.eri import eri_benchmark
from rotation import rotate_cluster
from conftest import gather


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_discrete_spectrum_exactness():
    t0 = time.perf_counter()
    grid = make_grid(1, np.pi, 512, "dirichlet")
    basis = lowest_eigenpairs(assemble_laplacian(grid), 64, 1e-9)
    h = grid.spacing[0]
    k = np.arange(1, 65)
    closed = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2
    rel = float(np.max(np.abs(basis.eigenvalues - closed) / closed))
    defect = _gram_defect(basis.vectors, grid.quadrature_weight)
    elapsed = time.perf_counter() - t0
    announce(
        1,
        "discrete spectrum exactness",
        rel <= 1e-9 and defect <= 1e-10 and elapsed < 10.0,
        f"rel err {rel:.2e}, gram defect {defect:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_quadratic_chain(flat1d_pipeline, random2d_pipeline):
    details = []
    ok = True
    for pipe in (flat1d_pipeline, random2d_pipeline):
        rep = quadratic_chain_report(pipe.op_L, pipe.basis_L, pipe.field_, 16)
        violations = int(np.sum(rep.values > rep.bound))
        ok = ok and violations == 0
        details.append(
            f"{pipe.config.name}: worst {float(np.max(rep.values)):.4g} "
            f"vs bound {rep.bound:.4g}, {violations} violations"
        )
    announce(2, "traced quadratic-form chain", ok, "; ".join(details))


def test_criterion_03_tail_identities(flat1d_pipeline, flat2d_pipeline, random2d_pipeline):
    ok = True
    details = []
    for pipe in (flat1d_pipeline, flat2d_pipeline, random2d_pipeline):
        # Q = <L f, f> from the sparse matrix: random-2d's L2 table is windowed
        lam = pipe.basis_L.eigenvalues[: pipe.coeffs_l2.m]
        Q = quadratic_form_values(pipe.op_L, product_matrix(pipe.basis_L, pipe.coeffs_l2.n))
        slack = tail_identity_slack(lam, tail_table(pipe.coeffs_l2), Q[:, None])
        worst_slack = float(np.max(slack - 1e-10 * (1 + np.abs(Q))))
        ok = ok and worst_slack <= 0

        mu = pipe.basis_lap.eigenvalues[: pipe.coeffs_hm1.m]
        grad_spectral = (pipe.coeffs_hm1.coeffs**2) @ mu
        prods = product_matrix(pipe.basis_L, pipe.coeffs_hm1.n)
        direct = quadratic_form_values(pipe.op_lap, prods)
        worst_rel = float(np.max(np.abs(direct - grad_spectral) / direct))
        ok = ok and worst_rel <= 1e-6
        details.append(f"{pipe.config.name}: slack {worst_slack:.2e}, H1 dev {worst_rel:.2e}")
    announce(3, "tail-identity exactness", ok, "; ".join(details))


def test_criterion_04_oracle_linear_growth_d1(flat1d_pipeline):
    src = flat1d_pipeline.basis_L
    ranks = {}
    ok = True
    for n in (8, 16, 32):
        (r,) = oracle_rank(src, n, [1e-6], "l2")
        ranks[n] = r
        ok = ok and r <= 2 * n - 1
    slope = float(np.polyfit(list(ranks), list(ranks.values()), 1)[0])
    ok = ok and slope <= 2.1
    announce(
        4,
        "oracle rank linear in n (d=1)",
        ok,
        f"ranks {ranks} vs bounds {{8: 15, 16: 31, 32: 63}}, fitted slope {slope:.3f}",
    )


def test_criterion_05_tail_decay_envelopes(
    flat1d_pipeline, flat2d_pipeline, random2d_pipeline
):
    t0 = time.perf_counter()
    ok = True
    details = []
    pipes = (flat1d_pipeline, flat2d_pipeline, random2d_pipeline)
    for pipe in pipes:
        d = pipe.grid.dimension
        G = pipe.grid.node_count
        co_l2 = gather(pipe.coeffs_l2, 16)
        co_h = gather(pipe.coeffs_hm1, 16)
        rs = [r for r in geometric_r_samples(G) if 0 < r <= G // 2]
        # a windowed L2 table (random-2d) is fitted up to its window M
        rs_l2 = [r for r in geometric_r_samples(co_l2.m) if 0 < r <= min(co_l2.m, G // 2)]
        curve_l2 = np.max(tail_table(co_l2), axis=0)
        curve_h = np.max(tail_table(co_h, hm1_weights(co_h)), axis=0)
        s_l2 = tail_slope(rs_l2, [curve_l2[r] for r in rs_l2])
        s_h = tail_slope(rs, [curve_h[r] for r in rs])
        ok = ok and s_l2 <= -1.0 / d + 0.1 and s_h <= -2.0 / d + 0.1
        details.append(
            f"{pipe.config.name}: l2 {s_l2:.2f} (<= {-1.0/d + 0.1:.2f}), "
            f"hm1 {s_h:.2f} (<= {-2.0/d + 0.1:.2f})"
        )
    elapsed = time.perf_counter() - t0 + sum(p.build_seconds for p in pipes)
    ok = ok and elapsed < 300.0
    announce(5, "tail decay envelopes", ok, "; ".join(details) + f"; total {elapsed:.1f}s")


def test_criterion_06_hm1_beats_l2(flat2d_pipeline):
    co_l2 = gather(flat2d_pipeline.coeffs_l2, 16)
    co_h = gather(flat2d_pipeline.coeffs_hm1, 16)
    curve_l2 = np.max(tail_table(co_l2), axis=0)
    curve_h = np.max(tail_table(co_h, hm1_weights(co_h)), axis=0)
    ok = True
    details = []
    for eps in (1e-2, 1e-3):
        r2 = empirical_rank(curve_l2, eps)
        rh = empirical_rank(curve_h, eps)
        ok = ok and rh <= r2
        details.append(f"eps={eps:g}: hm1 {rh} vs l2 {r2} (ratio {rh / r2:.3f})")
    announce(6, "H^-1 rank beats L2 rank", ok, "; ".join(details))


def test_criterion_07_comparability_sandwich(random2d_pipeline):
    pipe = random2d_pipeline
    rep = comparability_check(pipe.basis_L, pipe.basis_lap, pipe.field_, 64)
    announce(
        7,
        "min-max comparability sandwich",
        rep.ok,
        f"a in [{pipe.field_.a_min:.3f}, {pipe.field_.a_max:.3f}], "
        f"v_sup {pipe.field_.v_sup:.3f}, worst margin {rep.worst:.3e}",
    )


def test_criterion_08_eri_certificate(flat2d_pipeline):
    t0 = time.perf_counter()
    cfg = load_config("flat-2d")
    pipe = flat2d_pipeline
    eps = 1e-2
    result = eri_benchmark(
        8, eps, pipe.basis_L, pipe.op_lap, pipe.coeffs_hm1,
        calib_hm1=cfg.calib_hm1, sample_seed=cfg.eri_sample_seed,
    )
    violations = 0
    for e, f, cert in zip(result.exact, result.fitted, result.certificates):
        if abs(e - f) > cert + 1e-12:
            violations += 1
    cost_ratio = result.fitted_ops / result.exact_ops
    elapsed = time.perf_counter() - t0 + pipe.build_seconds
    ok = (
        violations == 0
        and result.max_abs_error <= eps**2
        and cost_ratio < 0.10
        and elapsed < 120.0
    )
    announce(
        8,
        "density-fitting certificate",
        ok,
        f"r={result.r}, {len(result.quadruples)} quadruple classes, "
        f"{violations} violations, max err {result.max_abs_error:.2e} <= {eps**2:.0e}, "
        f"cost ratio {cost_ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_degeneracy_invariance(flat2d_pipeline):
    pipe = flat2d_pipeline
    n = 16
    G = pipe.grid.node_count
    # the rotated basis is no tensor product, so its coefficients take the
    # GEMM over all G stored vectors: rotate inside the complete closed form
    src = laplacian_eigenpairs(pipe.op_lap, G, pipe.config.solver_tol)
    # lambda = 1^2 + 2^2 cluster sits at (0-based) indices 1, 2
    cluster = [1, 2]
    assert abs(src.eigenvalues[1] - src.eigenvalues[2]) < 1e-8 * (1 + src.eigenvalues[1])
    rot = rotate_cluster(src, cluster, seed=2718)
    co = gather(pipe.coeffs_l2, n)
    co_rot = expansion_coefficients(rot, rot, n, G)

    def ordered_aggregate(coeffs, r):
        table = tail_table(coeffs)
        total = 0.0
        for (i, j) in pair_list(n):
            mult = 1.0 if i == j else 2.0
            total += mult * table[pair_row(i, j, n), r] ** 2
        return np.sqrt(total)

    # cutoffs that keep the rotated cluster on one side of the split
    r_samples = [r for r in geometric_r_samples(G) if r != 2 and r <= G // 2]
    worst = 0.0
    for r in r_samples:
        a0 = ordered_aggregate(co, r)
        a1 = ordered_aggregate(co_rot, r)
        worst = max(worst, abs(a0 - a1) / max(a0, 1e-30))
    (r_orc0,) = oracle_rank(src, n, [1e-3], "l2")
    (r_orc1,) = oracle_rank(rot, n, [1e-3], "l2")
    ok = worst <= 1e-8 and r_orc0 == r_orc1
    announce(
        9,
        "degenerate-cluster rotation invariance",
        ok,
        f"worst aggregate-tail change {worst:.2e}, oracle rank {r_orc0} -> {r_orc1}",
    )


def test_criterion_10_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1 = main(["verify-all", "--config", "flat-1d", "--out", str(out1)])
    s2 = main(["verify-all", "--config", "flat-1d", "--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("spectrum.csv", "tails.csv", "ranks.csv", "eri.csv")
    )
    announce(
        10,
        "bitwise reproducibility",
        s1 == 0 and s2 == 0 and identical,
        f"exit codes {s1}/{s2}, CSVs identical: {identical}",
    )
