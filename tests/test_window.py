"""The resolved window of a non-flat L: the pipeline solves only the M modes
of the window and expands the L2 family over them, carrying each product's
out-of-window mass.  The window is solved in spectrum slices, certified by
its inertia count; on these 16^2 grids a full dense eigh is the
reference."""

import json

import numpy as np
import pytest
import scipy.linalg as sla

from eigenrank.cli import main
from eigenrank.config import parse_config
from eigenrank import eigensolve
from eigenrank.eigensolve import cluster_end, degenerate_clusters, lowest_eigenpairs
from eigenrank.lowrank import L2, empirical_rank, scaling_report, tail_table
from eigenrank.pipeline import build_pipeline
from eigenrank.products import expansion_coefficients, pair_list, pair_row

RANDOM = {"kind": "random_fourier", "seed": 5, "a_amplitude": 0.3, "v_amplitude": 0.5}
# -Delta + 2.5: non-flat, with the degenerate pairs of the square's spectrum
SHIFTED = {"kind": "constant", "a0": 1.0, "v0": 2.5}


def _doc(coefficients, m=8, n=(4, 8)):
    return {
        "grid": {
            "dimension": 2,
            "lengths": [np.pi, np.pi],
            "points": [16, 16],
            "boundary": "dirichlet",
        },
        "coefficients": coefficients,
        "solver": {"m": m, "tol": 1e-9},
        "sweep": {"n": list(n), "eps": [1e-2, 1e-3], "norms": ["l2", "hm1"]},
        "eri": {"enabled": True, "n": 4, "eps": 1e-2, "sample_seed": 3},
    }


@pytest.fixture(scope="module")
def random_pipe():
    return build_pipeline(parse_config(_doc(RANDOM)))


@pytest.fixture(scope="module")
def shifted_pipe():
    # solver.m = 14 ends inside the pair of 0-based modes 13 and 14
    return build_pipeline(parse_config(_doc(SHIFTED, m=14)))


def _complete(pipe):
    """Eigenvalues and grid-normalized eigenvectors from a full dense eigh."""
    lam, vec = sla.eigh(pipe.op_L.matrix.toarray())
    return lam, vec / np.sqrt(pipe.grid.quadrature_weight)


@pytest.mark.parametrize("name", ["random_pipe", "shifted_pipe"])
def test_window_matches_a_full_dense_eigh(request, name):
    pipe = request.getfixturevalue(name)
    G, M = pipe.grid.node_count, pipe.window
    assert pipe.basis_L.count == pipe.basis_L.materialized == M < G
    lam, vec = _complete(pipe)
    np.testing.assert_allclose(pipe.basis_L.eigenvalues, lam[:M], rtol=1e-12)
    # eigenvectors are fixed only up to rotations inside a cluster: compare
    # the spectral projectors, cluster by cluster
    w = pipe.grid.quadrature_weight
    clusters = degenerate_clusters(lam[:M])
    assert sum(len(c) for c in clusters) == M
    for cluster in clusters:
        mine = pipe.basis_L.vectors[:, cluster]
        ref = vec[:, cluster]
        assert np.max(np.abs(w * (mine @ mine.T - ref @ ref.T))) <= 1e-10
    assert np.max(pipe.basis_L.residuals) <= 1e-9
    assert pipe.basis_L.ortho_defect <= 1e-10


def test_window_closes_the_pair_at_solver_m(shifted_pipe):
    pipe = shifted_pipe
    lam, _ = _complete(pipe)
    assert pipe.config.solver_m == 14
    assert lam[14] - lam[13] < 1e-8 * lam[14]       # solver.m splits a pair
    M = pipe.window
    assert M > 14 and cluster_end(lam, M) == M       # the window does not
    # the solver itself extends a window that ends inside the pair, and
    # leaves one that ends between clusters as it is
    assert lowest_eigenpairs(pipe.op_L, 14, 1e-9).count == 15
    assert lowest_eigenpairs(pipe.op_L, 13, 1e-9).count == 13


def test_pad_doubles_while_the_end_cluster_reaches_the_solve(shifted_pipe, monkeypatch):
    # with a pad of one, the first solve (15 modes) ends inside the pair of
    # modes 13 and 14, so its end is unseen; the doubled pad sees it close
    op = shifted_pipe.op_L
    reference = lowest_eigenpairs(op, 14, 1e-9)
    solved = []
    real = eigensolve._sliced_lowest

    def recording(op, m):
        solved.append(m)
        return real(op, m)

    monkeypatch.setattr(eigensolve, "CLUSTER_PAD", 1)
    monkeypatch.setattr(eigensolve, "_sliced_lowest", recording)
    basis = lowest_eigenpairs(op, 14, 1e-9)
    assert solved == [15, 16]
    assert basis.count == 15
    np.testing.assert_allclose(basis.eigenvalues, reference.eigenvalues, rtol=1e-12)


def test_windowed_l2_tails_match_the_complete_table(random_pipe):
    pipe = random_pipe
    M, G = pipe.window, pipe.grid.node_count
    co = pipe.coeffs_l2
    assert co.m == M and co.outside_mass is not None
    lam, vec = _complete(pipe)
    full = type(pipe.basis_L)(
        grid=pipe.grid, tag="schrodinger", eigenvalues=lam, vectors=vec,
        residuals=np.zeros(G),
    )
    complete = expansion_coefficients(pipe.basis_L, full, co.n, G)
    assert complete.outside_mass is None
    windowed, reference = tail_table(co), tail_table(complete)
    assert windowed.shape == (co.coeffs.shape[0], M + 1)
    assert np.max(np.abs(windowed - reference[:, : M + 1])) <= 1e-12
    # the directly measured out-of-window mass is the complete tail at M
    np.testing.assert_allclose(np.sqrt(co.outside_mass), reference[:, M], rtol=1e-12)
    # Pythagoras: window plus outside mass is the whole norm
    total = np.sum(co.coeffs**2, axis=1) + co.outside_mass
    np.testing.assert_allclose(total, co.product_l2_norms**2, rtol=1e-12)
    # restrict keeps each pair's mass
    sub = co.restrict(4)
    rows = [pair_row(i, j, co.n) for i, j in pair_list(4)]
    np.testing.assert_array_equal(tail_table(sub), tail_table(co)[rows])


def test_unresolved_cell_reports_a_lower_bound(random_pipe):
    pipe = random_pipe
    M = pipe.window
    curve = np.max(tail_table(pipe.coeffs_l2), axis=0)
    tiny, loose = 0.5 * float(curve[M]), 2.0 * float(curve[M])
    assert empirical_rank(curve, tiny) == M + 1
    assert empirical_rank(curve, loose) <= M
    report = scaling_report(
        pipe.basis_L, pipe.basis_lap, pipe.coeffs_l2, pipe.coeffs_hm1,
        [pipe.coeffs_l2.n], [loose, tiny], [L2], 2,
        calib_l2=pipe.config.calib_l2, calib_hm1=pipe.config.calib_hm1, window=M,
    )
    by_eps = {rep.eps: rep for rep in report.rank_reports}
    assert by_eps[loose].resolved and by_eps[loose].r_empirical <= M
    assert not by_eps[tiny].resolved and by_eps[tiny].r_empirical == M + 1


def test_resolved_flag_follows_the_tail_at_the_window(tmp_path):
    path = tmp_path / "random.json"
    path.write_text(json.dumps(_doc(RANDOM)))
    out = tmp_path / "out"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(summary["checks"].values())
    M = summary["resolved_window"]
    header, *rows = (out / "ranks.csv").read_text().strip().splitlines()
    assert header.endswith(",resolved")
    unresolved = []
    for row in rows:
        n, eps, norm, _, r_emp, r_orc, _, _, resolved = row.split(",")
        assert resolved in ("0", "1")
        assert (resolved == "1") == (int(r_emp) <= M)
        if resolved == "0":
            unresolved.append({"n": int(n), "eps": float(eps), "norm": norm, "r_empirical": int(r_emp)})
    assert summary["unresolved_cells"] == unresolved
    # the L2 rows of tails.csv end at the window
    l2_r = [int(line.split(",")[3]) for line in (out / "tails.csv").read_text().splitlines()[1:]
            if line.startswith("l2,")]
    assert max(l2_r) == M


def test_rerun_is_bitwise_identical(tmp_path, random_pipe):
    again = build_pipeline(random_pipe.config)
    for name in ("eigenvalues", "vectors", "residuals"):
        assert np.array_equal(getattr(again.basis_L, name), getattr(random_pipe.basis_L, name))
    np.testing.assert_array_equal(again.coeffs_l2.outside_mass, random_pipe.coeffs_l2.outside_mass)
    path = tmp_path / "random.json"
    path.write_text(json.dumps(_doc(RANDOM)))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
    for name in ("spectrum.csv", "tails.csv", "ranks.csv", "eri.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
