import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenrank
from eigenrank import cli
from eigenrank.cli import main
from eigenrank.config import ConfigError, load_config
from eigenrank import config, eigensolve, pipeline


def small_config(tmp_path, **overrides):
    doc = {
        "name": "unit",
        "grid": {
            "dimension": 1,
            "lengths": [3.141592653589793],
            "points": [96],
            "boundary": "dirichlet",
        },
        "coefficients": {"kind": "constant", "a0": 1.0, "v0": 0.0},
        "solver": {"m": 24, "tol": 1e-9},
        "sweep": {"n": [4, 8], "eps": [0.01, 0.001], "norms": ["l2", "hm1"]},
        "eri": {"enabled": True, "n": 4, "eps": 0.01, "sample_seed": 3},
        "calibration": {"calib_l2": 1.0, "calib_hm1": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        block, _, leaf = key.partition(".")
        if leaf:
            doc[block][leaf] = value
        else:
            doc[block] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfigParsing:
    def test_all_presets_load(self):
        for name in ("flat-1d", "flat-2d", "harmonic-1d", "random-2d"):
            cfg = load_config(name)
            assert cfg.name == name
            assert max(cfg.sweep_n) <= cfg.solver_m

    def test_error_names_field(self, tmp_path):
        path = small_config(tmp_path, **{"sweep.eps": [0.0]})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "sweep.eps" in str(err.value)

    def test_eps_must_descend(self, tmp_path):
        path = small_config(tmp_path, **{"sweep.eps": [1e-3, 1e-2]})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "sweep.eps" in str(err.value)

    def test_n_capped_by_m(self, tmp_path):
        path = small_config(tmp_path, **{"sweep.n": [64]})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "sweep.n" in str(err.value)

    def test_missing_block(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"dimension": 1}}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_kind(self, tmp_path):
        path = small_config(tmp_path, **{"coefficients.kind": "cubic"})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "kind" in str(err.value)

    def test_m_capped_by_safe_regime(self, tmp_path):
        # 96-point 1-D grid tracks the continuum only up to mode 24
        path = small_config(tmp_path, **{"solver.m": 25, "sweep.n": [4]})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "solver.m" in str(err.value)


NAN, INF = float("nan"), float("inf")


class _Huge(int):
    """10**400, an int past the float range; JSON writes its digits, the
    test id its short name."""

    def __repr__(self):
        return "10**400"


HUGE = _Huge(10**400)
HARMONIC = {"kind": "harmonic", "a0": 1.0, "v_scale": 1.0}
RANDOM = {"kind": "random_fourier", "seed": 3, "a_amplitude": 0.3, "v_amplitude": 0.5}

# one bad input per row, as small_config overrides, and the path it must name
REJECTED = [
    # a key that no table names, at the top level and in each block
    ({"sovler": {"m": 24}}, "config.sovler"),
    ({"grid.boundry": "periodic"}, "grid.boundry"),
    ({"coefficients.v_scale": 1.0}, "coefficients.v_scale"),   # not read by kind constant
    ({"solver.tolerance": 1e-9}, "solver.tolerance"),
    ({"sweep.norm": ["l2"]}, "sweep.norm"),
    ({"eri.enable": True}, "eri.enable"),
    ({"calibration.calib_l1": 1.0}, "calibration.calib_l1"),
    # a list entry of another type
    ({"sweep.n": [8.7]}, "sweep.n[0]"),
    ({"sweep.n": [4, True]}, "sweep.n[1]"),
    ({"sweep.eps": ["0.01"]}, "sweep.eps[0]"),
    ({"grid.points": [96.0]}, "grid.points[0]"),
    ({"grid.lengths": [True]}, "grid.lengths[0]"),
    # a value of another type
    ({"solver.m": 24.0}, "solver.m"),
    ({"solver.tol": "1e-9"}, "solver.tol"),
    ({"eri.enabled": 1}, "eri.enabled"),
    ({"sweep.n": 8}, "sweep.n"),
    ({"coefficients": {**RANDOM, "seed": True}}, "coefficients.seed"),
    ({"coefficients": {"kind": "random_fourier"}}, "coefficients.seed"),
    # a non-finite float, in each float field
    ({"grid.lengths": [NAN]}, "grid.lengths[0]"),
    ({"coefficients.a0": INF}, "coefficients.a0"),
    ({"coefficients.v0": NAN}, "coefficients.v0"),
    ({"coefficients": {**HARMONIC, "v_scale": INF}}, "coefficients.v_scale"),
    ({"coefficients": {**RANDOM, "a_amplitude": NAN}}, "coefficients.a_amplitude"),
    ({"coefficients": {**RANDOM, "v_amplitude": -INF}}, "coefficients.v_amplitude"),
    ({"solver.tol": INF}, "solver.tol"),
    ({"sweep.eps": [0.01, NAN]}, "sweep.eps[1]"),
    ({"eri.eps": NAN}, "eri.eps"),
    ({"calibration.calib_l2": INF}, "calibration.calib_l2"),
    ({"calibration.calib_hm1": NAN}, "calibration.calib_hm1"),
    # an empty or repeated sweep list, which gives empty or duplicate ranks.csv rows
    ({"sweep.norms": []}, "sweep.norms"),
    ({"sweep.norms": ["hm1", "hm1"]}, "sweep.norms"),
    ({"sweep.n": [4, 4]}, "sweep.n"),
    ({"sweep.eps": [0.01, 0.01]}, "sweep.eps"),
    ({"eri.sample_seed": -1}, "eri.sample_seed"),
    ({"eri.sample_seed": 2**64}, "eri.sample_seed"),   # past the sampler's seed range
    # a value out of CoefficientSpec's range, named by its field; the bad
    # field leads the block so the case's id differs early from seed=True's
    ({"coefficients": {"seed": -1, "kind": "random_fourier", "a_amplitude": 0.3, "v_amplitude": 0.5}},
     "coefficients.seed"),
    ({"coefficients.a0": 0}, "coefficients.a0"),
    ({"coefficients.v0": -1}, "coefficients.v0"),
    ({"coefficients": {**HARMONIC, "v_scale": -1}}, "coefficients.v_scale"),
    ({"coefficients": {**RANDOM, "a_amplitude": 1.0}}, "coefficients.a_amplitude"),   # >= a0
    ({"coefficients": {**RANDOM, "v_amplitude": -1}}, "coefficients.v_amplitude"),
    ({"coefficients": {**RANDOM, "cutoff": 0}}, "coefficients.cutoff"),
    # a value out of its block's range
    ({"grid.dimension": 4}, "grid.dimension"),
    ({"grid.boundary": "neumann"}, "grid.boundary"),
    ({"grid.lengths": [1.0, 2.0]}, "grid.lengths"),   # one entry per dimension
    ({"grid.lengths": [0.0]}, "grid.lengths"),
    ({"grid.points": [96, 96]}, "grid.points"),
    ({"grid.points": [4]}, "grid.points"),            # below MIN_POINTS
    ({"grid.lengths": [HUGE]}, "grid.lengths[0]"),
    ({"solver.tol": 0.0}, "solver.tol"),
    ({"sweep.norms": ["h1"]}, "sweep.norms"),
    ({"eri.n": 0}, "eri.n"),
    ({"eri.n": 25}, "eri.n"),                         # past solver.m = 24
    ({"eri.eps": 0.0}, "eri.eps"),
    ({"calibration.calib_l2": 0.0}, "calibration.calib_l2"),
    ({"calibration.calib_hm1": -1.0}, "calibration.calib_hm1"),
]


@pytest.mark.parametrize(
    "overrides, where", REJECTED, ids=[f"{where}={list(o.values())[0]}" for o, where in REJECTED]
)
def test_rejected_input_names_its_field(tmp_path, capsys, overrides, where):
    path = small_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.where == where
    assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"config error: {where}: ") and "Traceback" not in message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make", ["directory", "latin-1"])
def test_unreadable_config_file_names_config(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    if make == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.where == "config"
    assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"config error: config: cannot read {path}")
    assert "Traceback" not in message
    assert not (tmp_path / "o").exists()


def test_int_past_the_float_range_is_not_finite(tmp_path):
    path = small_config(tmp_path, **{"grid.lengths": [HUGE]})
    with pytest.raises(ConfigError, match=r"^grid\.lengths\[0\]: must be finite, got inf$"):
        load_config(str(path))


def test_config_that_is_not_an_object_names_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([{"name": "unit"}]))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.where == "config"
    assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    message = capsys.readouterr().err
    assert message == "config error: config: expected a JSON object, got list\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["--out", "config.output_dir"])
@pytest.mark.parametrize("under", [False, True], ids=["a file", "a path under a file"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, option, under):
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = blocker / "run" if under else blocker
    if option == "--out":
        argv = ["--out", str(out)]
        path = small_config(tmp_path)
    else:
        argv = []
        path = small_config(tmp_path, output_dir=str(out))
    before = sorted(os.listdir(tmp_path))
    assert main(["spectrum", "--config", str(path), *argv]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"config error: {option}: cannot create directory {str(out)!r}: ")
    assert message.count("\n") == 1 and "Traceback" not in message
    assert sorted(os.listdir(tmp_path)) == before and blocker.read_text() == "kept"


def test_readme_documents_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^\| `([\w.]+)` \|", readme, re.MULTILINE))
    blocks = {
        "grid": config.GRID,
        "solver": config.SOLVER,
        "sweep": config.SWEEP,
        "eri": config.ERI,
        "calibration": config.CALIBRATION,
    }
    fields = {"name", "output_dir"}
    fields |= {f"{block}.{key}" for block, table in blocks.items() for key in table}
    fields |= {f"coefficients.{key}" for table in config.COEFFICIENTS.values() for key in table}
    assert set(config.CONFIG) == {*blocks, "coefficients", "output_dir"}
    assert documented == fields


# every check verify-all runs without ERI; eri_certificate joins them when ERI is on
CHECKS = {
    "residuals", "orthonormality", "completeness", "quadratic_chain", "h1_identity",
    "tail_identity_l2", "parseval", "comparability", "oracle_dominance",
}


def _2d_grid(points):
    return {
        "dimension": 2,
        "lengths": [3.141592653589793, 3.141592653589793],
        "points": [points, points],
        "boundary": "dirichlet",
    }


class TestCommands:
    def test_spectrum_files(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "spec-out"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "k,lambda_L,mu_lap,sup_norm,residual"
        assert len(lines) == 25
        summary = json.loads((out / "summary.json").read_text())
        assert summary["weyl_fit"]["exponent"] == pytest.approx(2.0, abs=0.05)

    def test_spectrum_fits_need_eight_modes_in_the_window(self, tmp_path):
        # 32 points resolve modes up to 8, leaving 4..8 in the fit window
        path = small_config(
            tmp_path, **{"grid.points": [32], "solver.m": 8, "sweep.n": [4]}
        )
        out = tmp_path / "narrow"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "skipped" in summary["weyl_fit"]
        assert "supnorm_growth" not in summary
        wide = tmp_path / "wide"
        assert main(["spectrum", "--config", str(small_config(tmp_path)), "--out", str(wide)]) == 0
        summary = json.loads((wide / "summary.json").read_text())
        assert summary["weyl_fit"]["k_min"] == 4 and summary["weyl_fit"]["k_max"] == 24
        assert summary["supnorm_growth"]["reference_exponent"] == 0.0

    def test_verify_all_green(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "verify-out"
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["checks"]) == CHECKS | {"eri_certificate"}
        assert all(summary["checks"].values())
        # a complete table bounds every cell, so no lower bound is named
        assert summary["check_details"]["oracle_dominance"]["detail"] == "8 of 8 sweep cells"
        for name in ("spectrum.csv", "tails.csv", "ranks.csv", "eri.csv"):
            assert (out / name).exists()

    def test_tail_curves_files(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "tails-out"
        assert main(["tail-curves", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "tails.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["norm", "i", "j", "r", "tail"]
        # the worst-pair aggregate (i = j = 0) and the 36 pairs of n = 8, per norm
        curves = {(row["norm"], row["i"], row["j"]) for row in rows}
        assert len(curves) == 2 * (1 + 36)
        assert {norm for norm, _, _ in curves} == {"l2", "hm1"}
        assert sorted(os.listdir(out)) == ["summary.json", "tails.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tail_curve_n"] == 8
        assert set(summary["tail_slopes"]) == {"l2", "hm1"}
        assert all(slope < 0 for slope in summary["tail_slopes"].values())
        assert "checks" not in summary and "eri" not in summary

    def test_eri_bench_files(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "eri-out"
        assert main(["eri-bench", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "eri.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["i", "j", "k", "l", "exact", "fitted", "abs_err", "certificate"]
        assert sorted(os.listdir(out)) == ["eri.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        eri = summary["eri"]
        assert set(eri) == {
            "enabled", "n", "r", "eps", "quadruples", "max_abs_error", "mean_abs_error",
            "certificate", "exact_seconds", "fitted_seconds",
        }
        assert eri["enabled"] and eri["n"] == 4 and eri["quadruples"] == len(rows)
        # diagonal quadruples attain their certificate, so it holds up to roundoff
        assert all(
            float(row["abs_err"])
            <= float(row["certificate"]) + 1e-12 * max(1.0, abs(float(row["exact"])))
            for row in rows
        )
        assert "eri" in summary["timings"] and "checks" not in summary

    def test_verify_all_names_a_failed_check(self, tmp_path, monkeypatch, capsys):
        real = pipeline.comparability_check

        def failing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), ok=False)

        monkeypatch.setattr(pipeline, "comparability_check", failing)
        out = tmp_path / "failing"
        assert main(["verify-all", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 1
        assert "FAILED" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert [name for name, ok in summary["checks"].items() if not ok] == ["comparability"]
        assert summary["check_details"]["comparability"]["ok"] is False

    def test_rank_scan_trig_bound(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "ranks-out"
        assert main(["rank-scan", "--config", str(path), "--out", str(out)]) == 0
        header, *rows = (out / "ranks.csv").read_text().strip().splitlines()
        assert header == "n,eps,norm,r_paper,r_empirical,r_oracle,max_sup,implied_constant,resolved"
        for row in rows:
            cells = row.split(",")
            n, norm, r_oracle = int(cells[0]), cells[2], int(cells[5])
            if norm == "l2":
                assert r_oracle <= 2 * n - 1

    def test_reproducible_csvs(self, tmp_path):
        path = small_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify-all", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["verify-all", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("spectrum.csv", "tails.csv", "ranks.csv", "eri.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        path = small_config(tmp_path, **{"sweep.eps": [0.0]})
        assert main(["spectrum", "--config", str(path)]) == 2
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2

    def test_flat_2d_runs_past_dense_cap(self, tmp_path):
        # flat configs take both bases from the closed form, at any grid size
        path = small_config(
            tmp_path,
            grid=_2d_grid(72),
            solver={"m": 16, "tol": 1e-9},
            sweep={"n": [4, 8], "eps": [0.01, 0.001], "norms": ["l2", "hm1"]},
        )
        out = tmp_path / "past-cap"
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid_nodes"] == 5184
        assert summary["checks"] and all(summary["checks"].values())
        assert summary["eri"]["enabled"]

    def test_non_flat_past_dense_cap_is_certified(self, tmp_path):
        # a non-flat window is solved in spectrum slices, whose one inertia
        # count certifies that it skipped no mode
        path = small_config(
            tmp_path,
            grid=_2d_grid(72),
            coefficients={"kind": "random_fourier", "seed": 3, "a_amplitude": 0.3, "v_amplitude": 0.5},
            solver={"m": 16, "tol": 1e-9},
            sweep={"n": [4], "eps": [0.01], "norms": ["l2"]},
            eri={"enabled": False},
        )
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid_nodes"] == 5184
        assert set(summary["checks"]) == CHECKS
        assert all(summary["checks"].values())
        done = summary["check_details"]["completeness"]
        assert done["route"] == "lanczos"
        assert done["count_below"] == done["solved_below"] >= summary["resolved_window"]
        assert done["sigma"] > 0.0 and 0.0 <= done["backward_error"] < done["distance"]
        assert len(done["slice_sizes"]) > 1
        assert len(done["slice_edges"]) == len(done["slice_sizes"]) + 1
        assert sum(done["slice_sizes"]) >= done["solved_below"]

    def test_usage_error_exit_2(self):
        assert main(["frobnicate", "--config", "x"]) == 2

    def test_zero_threads_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["spectrum", "--config", "flat-1d", "--out", str(out), "--threads", "0"]) == 2
        assert capsys.readouterr().err == "error: --threads must be >= 1, got 0\n"
        assert not out.exists()

    def test_one_thread_is_recorded(self, tmp_path, monkeypatch):
        for var in cli.THREAD_VARS:
            monkeypatch.setenv(var, "2")
        out = tmp_path / "one"
        assert main(["spectrum", "--config", str(small_config(tmp_path)), "--out", str(out),
                     "--threads", "1"]) == 0
        assert json.loads((out / "summary.json").read_text())["threads"] == 1
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_error_inside_a_command_exits_1_without_traceback(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise ValueError("oracle refused")

        monkeypatch.setattr(pipeline, "oracle_rank", refuse)
        out = tmp_path / "refused"
        assert main(["verify-all", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 1
        message = capsys.readouterr().err
        assert message == "error [verify-all]: oracle refused\n"
        assert message.count("\n") == 1 and "Traceback" not in message

    def test_harmonic_preset_verify_all(self, tmp_path):
        out = tmp_path / "harm"
        assert main(["verify-all", "--config", "harmonic-1d", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(summary["checks"].values())
        assert summary["v_sup"] == pytest.approx((np.pi / 2) ** 2, rel=0.01)
        # a wide window (128 of 512 modes) is sliced and certified too
        assert summary["check_details"]["completeness"]["route"] == "lanczos"

    def test_periodic_config_runs(self, tmp_path):
        path = small_config(
            tmp_path,
            **{"grid.boundary": "periodic", "grid.lengths": [6.283185307179586]},
        )
        out = tmp_path / "per"
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(summary["checks"].values())

    def test_periodic_sweep_of_one_pair_runs_every_command(self, tmp_path):
        # n = 1: phi_0^2 is the constant mode, so its worst-pair tail is
        # roundoff from r = 1 on and leaves no slope to fit; rank-scan fits
        # none, and tail-curves and verify-all report each as null
        path = small_config(
            tmp_path,
            **{"grid.boundary": "periodic", "grid.lengths": [6.283185307179586],
               "sweep.n": [1], "eri": {"enabled": False}},
        )
        for command in ("rank-scan", "tail-curves", "verify-all"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            if command == "rank-scan":
                assert "tail_slopes" not in summary
                assert (out / "ranks.csv").exists()
            else:
                assert summary["tail_slopes"] == {"l2": None, "hm1": None}
                assert (out / "tails.csv").exists()
        assert summary["checks"] and all(summary["checks"].values())

    def test_periodic_random_2d_verify_all(self, tmp_path):
        # non-flat periodic: the Laplacian basis comes from the closed form
        path = small_config(
            tmp_path,
            grid={
                "dimension": 2,
                "lengths": [6.283185307179586, 6.283185307179586],
                "points": [16, 16],
                "boundary": "periodic",
            },
            coefficients={"kind": "random_fourier", "seed": 11, "a_amplitude": 0.3, "v_amplitude": 0.5},
        )
        out = tmp_path / "per2d"
        assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"] and all(summary["checks"].values())
        assert summary["eri"]["enabled"]


def _cli_child(args, **env):
    """Run the command line in a child process, which loads numpy after the
    CLI has set the BLAS environment; `env` adds to (or, with None, removes
    from) the parent's environment."""
    src = str(Path(eigenrank.__file__).resolve().parents[1])
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p))
    for var, value in env.items():
        if value is None:
            child.pop(var, None)
        else:
            child[var] = value
    subprocess.run([sys.executable, "-m", "eigenrank.cli", *args], env=child, check=True)


def _rank_tables_at_1_and_2_threads(tmp_path, path, columns):
    # the thread cap must be set before numpy loads, so each run is a child
    tables = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        _cli_child(["rank-scan", "--config", str(path), "--out", str(out), "--threads", str(threads)])
        with open(out / "ranks.csv", newline="") as fh:
            tables.append([tuple(row[c] for c in columns) for row in csv.DictReader(fh)])
        assert json.loads((out / "summary.json").read_text())["threads"] == threads
    return tables


def test_random_2d_window_ranks_do_not_depend_on_threads(tmp_path):
    # the windowed eigensolve of a non-flat L feeds every rank; at 24^2 the
    # window holds 30 modes, so each L2 cell reports the lower bound 31
    path = small_config(
        tmp_path,
        grid=_2d_grid(24),
        coefficients={"kind": "random_fourier", "seed": 7, "a_amplitude": 0.3, "v_amplitude": 0.5},
        solver={"m": 16, "tol": 1e-9},
        sweep={"n": [5, 12], "eps": [0.01, 0.001], "norms": ["l2", "hm1"]},
        eri={"enabled": False},
    )
    columns = ("r_paper", "r_empirical", "r_oracle", "resolved")
    tables = _rank_tables_at_1_and_2_threads(tmp_path, path, columns)
    assert len(tables[0]) == 8
    assert tables[0] == tables[1]


def test_flat_2d_ranks_do_not_depend_on_threads(tmp_path):
    # n = 5 and n = 12 split the (1,3)/(3,1) and (2,4)/(4,2) clusters, where a
    # dense solver's choice of basis could follow the BLAS thread count
    path = small_config(
        tmp_path,
        grid={
            "dimension": 2,
            "lengths": [3.141592653589793, 3.141592653589793],
            "points": [24, 24],
            "boundary": "dirichlet",
        },
        solver={"m": 16, "tol": 1e-9},
        sweep={"n": [5, 12], "eps": [0.01, 0.001], "norms": ["l2", "hm1"]},
        eri={"enabled": False},
    )
    columns = ("r_paper", "r_empirical", "r_oracle", "max_sup")
    tables = _rank_tables_at_1_and_2_threads(tmp_path, path, columns)
    assert len(tables[0]) == 8
    assert tables[0] == tables[1]


def test_summary_reports_stage_timings_and_peak_rss(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "timed"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["timings"]) == {"basis_lap", "basis_L", "coefficients", "output"}
    assert all(t >= 0.0 for t in summary["timings"].values())
    assert summary["peak_rss_mb"] > 0.0


def test_summary_reports_threads_and_versions(tmp_path):
    path = small_config(tmp_path)
    plain, capped = tmp_path / "plain", tmp_path / "capped"
    assert main(["spectrum", "--config", str(path), "--out", str(plain)]) == 0
    summary = json.loads((plain / "summary.json").read_text())
    assert summary["threads"] is None
    assert summary["versions"]["numpy"] == np.__version__
    assert set(summary["versions"]) == {"numpy", "scipy", "blas", "scipy_blas"}
    assert summary["openblas_thread_timeout"] == os.environ["OPENBLAS_THREAD_TIMEOUT"]
    assert summary["cpu_seconds"] > 0.0 and summary["seconds"] > 0.0
    # the cap is applied before numpy loads, so a capped run is a child
    _cli_child(["spectrum", "--config", str(path), "--out", str(capped), "--threads", "1"])
    assert json.loads((capped / "summary.json").read_text())["threads"] == 1
    # none of it reaches a CSV
    assert (plain / "spectrum.csv").read_bytes() == (capped / "spectrum.csv").read_bytes()


def test_spin_bound_is_recorded_kept_and_moves_no_csv_byte(tmp_path):
    # the bound is set on every invocation, with or without --threads; a
    # value already in the environment (here OpenBLAS's own default
    # exponent) is kept; the spin of idle workers changes no numerics
    path = small_config(tmp_path)
    bounded, default = tmp_path / "bounded", tmp_path / "default"
    _cli_child(["verify-all", "--config", str(path), "--out", str(bounded), "--threads", "2"],
               OPENBLAS_THREAD_TIMEOUT=None)
    _cli_child(["verify-all", "--config", str(path), "--out", str(default), "--threads", "2"],
               OPENBLAS_THREAD_TIMEOUT="28")
    spins = [json.loads((out / "summary.json").read_text())["openblas_thread_timeout"]
             for out in (bounded, default)]
    assert spins == [str(cli.SPIN_TIMEOUT), "28"]
    names = sorted(p.name for p in bounded.glob("*.csv"))
    assert names == ["eri.csv", "ranks.csv", "spectrum.csv", "tails.csv"]
    for name in names:
        assert (bounded / name).read_bytes() == (default / name).read_bytes(), name


def test_summary_of_a_run_not_started_by_the_cli_records_no_spin_bound(tmp_path):
    out = tmp_path / "direct"
    assert pipeline.run(load_config(str(small_config(tmp_path))), "spectrum", out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threads"] is None and summary["openblas_thread_timeout"] is None


@pytest.mark.parametrize("describe", [TypeError("no mode argument"), KeyError("blas")])
def test_versions_survive_a_numpy_without_a_build_description(monkeypatch, describe):
    def show_config(*args, **kwargs):
        raise describe

    monkeypatch.setattr(pipeline.np, "show_config", show_config)
    monkeypatch.setattr(pipeline.scipy, "show_config", show_config)
    versions = pipeline._versions()
    assert versions["blas"] is None and versions["scipy_blas"] is None
    assert versions["numpy"] == np.__version__


def test_csvs_are_written_before_the_checks_run(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("checks failed to run")

    monkeypatch.setattr(pipeline, "run_checks", broken)
    path = small_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        main(["verify-all", "--config", str(path), "--out", str(out)])
    for name in ("spectrum.csv", "tails.csv", "ranks.csv", "eri.csv"):
        assert (out / name).exists()


def test_verify_all_reports_stage_timings(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "timed"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    stages = {"basis_lap", "basis_L", "coefficients", "tails", "oracle", "eri", "checks", "output"}
    assert set(summary["timings"]) == stages
    assert all(t >= 0.0 for t in summary["timings"].values())


@pytest.mark.parametrize("command", ["spectrum", "verify-all"])
def test_summary_reports_the_peak_rss_of_each_stage(tmp_path, command):
    # the process's peak as each stage ended: the stages of timings, none
    # above the run's peak
    path = small_config(tmp_path)
    out = tmp_path / "peaks"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    peaks = summary["stage_peak_rss_mb"]
    assert set(peaks) == set(summary["timings"])
    assert all(0.0 < mb <= summary["peak_rss_mb"] for mb in peaks.values())
    # ru_maxrss never falls, so the build stages read in the order they ran
    assert peaks["basis_lap"] <= peaks["basis_L"] <= peaks["coefficients"] <= peaks["output"]
    if command == "verify-all":
        # the oracle stage ends before the tails stage starts
        assert 0.0 < peaks["oracle"] <= peaks["tails"]


def test_summary_names_the_basis_dependent_columns(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "labelled"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["basis_dependent"] == pipeline.BASIS_DEPENDENT
    assert set(summary["basis_dependent"]) == {"spectrum.csv", "ranks.csv", "tails.csv"}
    for name, columns in summary["basis_dependent"].items():
        with open(out / name, newline="") as fh:
            header = next(csv.reader(fh))
        assert columns and set(columns) <= set(header), name


def test_stretched_flat_1d_keeps_eri_certificate(tmp_path):
    # on a box of length 1000 pi the integrals reach ~460 and the diagonal
    # quadruples attain their certificate exactly, so the check holds only
    # with a slack that grows with |exact|
    doc = json.loads(Path(eigenrank.__file__).with_name("presets").joinpath("flat-1d.json").read_text())
    doc["grid"]["lengths"] = [1000 * np.pi]
    path = tmp_path / "stretched.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "stretched"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] and all(summary["checks"].values())
    with open(out / "eri.csv", newline="") as fh:
        assert max(abs(float(row["exact"])) for row in csv.DictReader(fh)) > 100.0


def test_failed_certificate_exits_1_and_names_its_check(tmp_path, capsys):
    # no closed-form residual reaches 1e-18, so the basis is never built;
    # the run reports the failed certificate as its check, like a failed one
    doc = json.loads(Path(eigenrank.__file__).with_name("presets").joinpath("flat-1d.json").read_text())
    doc["solver"]["tol"] = 1e-18
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "strict"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "FAILED" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == {"residuals": False}
    detail = summary["check_details"]["residuals"]
    assert "exceeds tolerance 1.000e-18" in detail["detail"]
    assert detail["worst_residual"] > 1e-18
    assert f"residual {detail['worst_residual']:.3e} exceeds" in detail["detail"]
    assert not (out / "spectrum.csv").exists()
    # the stage that raised keeps its wall seconds
    assert "basis_lap" in summary["timings"]


def test_skipped_lanczos_pair_fails_completeness(tmp_path, monkeypatch):
    # a Lanczos solve that loses one eigenpair passes every residual and
    # Gram check; the inertia count fails, and the run reports completeness
    real = eigensolve.spla.eigsh

    def skipping(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        keep = np.delete(np.argsort(lam), 3)
        return lam[keep], vec[:, keep]

    monkeypatch.setattr(eigensolve.spla, "eigsh", skipping)
    path = small_config(
        tmp_path,
        grid=_2d_grid(16),
        coefficients={"kind": "random_fourier", "seed": 3, "a_amplitude": 0.3, "v_amplitude": 0.5},
        solver={"m": 8, "tol": 1e-9},
        sweep={"n": [4], "eps": [0.01], "norms": ["l2"]},
        eri={"enabled": False},
    )
    out = tmp_path / "skipped"
    assert main(["verify-all", "--config", str(path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == {"completeness": False}
    detail = summary["check_details"]["completeness"]
    assert detail["ok"] is False and detail["detail"].startswith("inertia count:")
    assert detail["worst_residual"] is None
    # the stages that ran, the failing one included, keep their wall seconds
    assert {"basis_lap", "basis_L"} <= set(summary["timings"])
