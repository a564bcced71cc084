"""Node-sized temporaries are formed one block of eigensolve.BLOCK columns,
pairs or node rows at a time: the width moves no bit of what is summed,
sorted or reduced in blocks, a block's GEMM only roundoff, and an
expansion holds little more than its result."""

import tracemalloc

import numpy as np
import pytest

from eigenrank import eigensolve, pipeline, products
from eigenrank.config import parse_config
from eigenrank.eigensolve import cluster_end, laplacian_eigenpairs, lowest_eigenpairs, sup_norms
from eigenrank.grid import make_grid
from eigenrank.operator import (
    RANDOM_FOURIER,
    CoefficientSpec,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
)
from eigenrank.pipeline import build_pipeline, run_checks
from eigenrank.products import expansion_coefficients, product_matrix
from conftest import sweep

# whole arrays, one column or pair or node row, and a width that leaves a
# ragged last block of every dimension of the configs below
WIDTHS = [10**9, 1, 7]

CONFIGS = {
    "random": {"kind": "random_fourier", "seed": 7, "a_amplitude": 0.3, "v_amplitude": 0.5},
    "flat": {"kind": "constant", "a0": 1.0, "v0": 0.0},
}


def _pipeline(coefficients):
    return build_pipeline(parse_config({
        "grid": {"dimension": 2, "lengths": [np.pi, np.pi], "points": [20, 20]},
        "coefficients": coefficients,
        "solver": {"m": 16, "tol": 1e-9},
        "sweep": {"n": [4, 8], "eps": [1e-2, 1e-3], "norms": ["l2", "hm1"]},
        "eri": {"enabled": False},
    }))


def _sweep(pipe):
    return sweep(
        pipe.basis_L, pipe.coeffs_l2, pipe.coeffs_hm1, [4, 8], [1e-2, 1e-3], ["l2", "hm1"],
        calib_l2=1.0, calib_hm1=1.0, window=pipe.window,
    )


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_block_width_moves_no_bit_of_the_build(config, monkeypatch):
    pipes = []
    for width in WIDTHS:
        monkeypatch.setattr(eigensolve, "BLOCK", width)
        pipes.append(_pipeline(CONFIGS[config]))
    whole = pipes[0]
    windowed = whole.coeffs_l2.outside_mass is not None
    assert windowed == (config == "random")
    scale = float(np.max(whole.coeffs_hm1.product_l2_norms))
    for pipe in pipes[1:]:
        # the residual certificate, normalization, signs, sort and sup norms
        for name in ("basis_L", "basis_lap"):
            mine, theirs = getattr(pipe, name), getattr(whole, name)
            np.testing.assert_array_equal(mine.vectors, theirs.vectors)
            np.testing.assert_array_equal(mine.residuals, theirs.residuals)
            assert mine.ortho_defect == theirs.ortho_defect
        np.testing.assert_array_equal(
            sup_norms(pipe.basis_L, 16)[0], sup_norms(whole.basis_L, 16)[0]
        )
        # product norms are summed row after row at every width, and the
        # stored target's coefficients are one GEMM over every pair
        for name in ("coeffs_l2", "coeffs_hm1"):
            np.testing.assert_array_equal(
                getattr(pipe, name).product_l2_norms, getattr(whole, name).product_l2_norms
            )
        if windowed:
            np.testing.assert_array_equal(pipe.coeffs_l2.coeffs, whole.coeffs_l2.coeffs)
        # a closed-form target's pair blocks and the out-of-window residual's
        # node-row blocks are each a GEMM, whose kernel OpenBLAS picks by the
        # block's shape: they agree to roundoff of the products' norms
        np.testing.assert_allclose(
            pipe.coeffs_hm1.coeffs, whole.coeffs_hm1.coeffs, rtol=0, atol=1e-14 * scale
        )
        if windowed:
            np.testing.assert_allclose(
                pipe.coeffs_l2.outside_mass, whole.coeffs_l2.outside_mass,
                rtol=0, atol=1e-14 * scale**2,
            )


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_block_width_moves_no_bit_of_the_sweep_or_checks(config, monkeypatch, tmp_path):
    # one set of coefficients: the tail tables read in pair blocks (the
    # tail rows, max_tails and the ranks read off them, and the slopes that
    # tail-curves fits to the rows) and the checks' per-pair sums come out
    # the same at every width
    pipe = _pipeline(CONFIGS[config])
    sweeps, slopes, checks = [], [], []
    for width in WIDTHS:
        monkeypatch.setattr(eigensolve, "BLOCK", width)
        sweeps.append(_sweep(pipe))
        summary = {}
        pipeline.cmd_tail_curves(pipe, str(tmp_path), summary, sweeps[-1])
        slopes.append(summary["tail_slopes"])
        checks.append(run_checks(pipe, sweeps[-1], None))
    for report, slope, check in zip(sweeps[1:], slopes[1:], checks[1:]):
        assert report.tail_rows == sweeps[0].tail_rows
        assert report.rank_reports == sweeps[0].rank_reports
        assert slope == slopes[0]
        assert check == checks[0]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_checks_form_each_product_block_once(config, monkeypatch):
    # every per-pair check reads the one product block of its pairs,
    # whether it is called through products or through pipeline
    pipe = _pipeline(CONFIGS[config])
    report = _sweep(pipe)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("pairs"))
        return product_matrix(*args, **kwargs)

    monkeypatch.setattr(products, "product_matrix", counted)
    monkeypatch.setattr(pipeline, "product_matrix", counted)
    run_checks(pipe, report, None)
    n = pipe.n_max
    assert calls == eigensolve.blocks(n * (n + 1) // 2)


def _traced(fn):
    """fn() and the peak of the memory numpy allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_expansion_holds_its_result_and_one_product_block():
    # 300 pairs of a random 2-D basis, where the four whole (G, pairs)
    # arrays of an unblocked expansion read about three product blocks
    # above its result
    grid = make_grid(2, (np.pi, np.pi), (24, 24), "dirichlet")
    spec = CoefficientSpec(RANDOM_FOURIER, seed=7, cutoff=4, a_amplitude=0.3, v_amplitude=0.5)
    basis = lowest_eigenpairs(assemble_schrodinger(sample_coefficients(spec, grid), grid), 40)
    lap = laplacian_eigenpairs(assemble_laplacian(grid), 40)
    n, G = 24, grid.node_count
    pairs = n * (n + 1) // 2
    product_block = G * pairs * 8
    assert eigensolve.BLOCK * 5 < pairs

    def held(co):
        outside = 0 if co.outside_mass is None else co.outside_mass.nbytes
        return co.coeffs.nbytes + co.product_l2_norms.nbytes + outside

    # the closed-form target: pair blocks of products, each contracted by axis
    co, peak = _traced(lambda: expansion_coefficients(basis, lap, n, G))
    assert co.outside_mass is None
    assert peak < held(co) + product_block
    # the stored target keeps its one product block for one GEMM, and forms
    # the out-of-window residual a few blocks of BLOCK node rows at a time
    window = cluster_end(basis.eigenvalues, 40)
    co, peak = _traced(lambda: expansion_coefficients(basis, basis, n, window))
    assert co.outside_mass is not None
    assert peak < held(co) + product_block + 4 * (eigensolve.BLOCK + 1) * pairs * 8
