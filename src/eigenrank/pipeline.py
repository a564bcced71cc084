"""End-to-end pipeline: grid -> operators -> eigensolve -> products -> reports.

Owns the five CLI commands (spectrum, tail-curves, rank-scan, eri-bench,
verify-all), the cross-module invariant suite behind verify-all, and all
file output.  CSVs are written atomically with 17 significant digits so
identical configs diff bitwise; summary.json echoes the config and every
calibration constant next to the per-check booleans, plus the wall and
CPU seconds, the CLI's startup seconds, stage timings, peak RSS, thread
cap, BLAS spin bound and library versions (none of which reach a CSV).

The basis of L covers the resolved window M: the Weyl-regime cap, extended
to close the degenerate cluster at its end.  Flat configurations take it
from the complete closed form, which stores the solver.m columns read node
by node, and one complete expansion serves both norms; any other L is
solved for those M modes only, so its L2 expansion is windowed.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from itertools import starmap

import numpy as np
import scipy

from . import COMMANDS, __version__
from .config import ConfigError, ExperimentConfig
from .grid import Grid
from .operator import (
    CoefficientField,
    DiscreteOperator,
    assemble_laplacian,
    assemble_schrodinger,
    sample_coefficients,
    weyl_regime_cap,
)
from .eigensolve import (
    EigensolveError,
    SpectralBasis,
    blocks,
    cluster_end,
    comparability_check,
    laplacian_eigenpairs,
    lowest_eigenpairs,
    sup_norms,
    supnorm_growth_fit,
    weyl_fit,
)
from .products import (
    ProductCoefficients,
    chain_bound,
    expansion_coefficients,
    product_matrix,
    quadratic_form_values,
)
from .lowrank import (
    HM1,
    L2,
    ScalingReport,
    oracle_rank,
    scaling_report,
    tail_identity_slack,
    tail_slope,
    tail_table,
)
from .eri import ERIResult, eri_benchmark


# the CSV columns, and their rows, that depend on which basis is chosen inside
# a degenerate eigenspace (README's basis-dependent labels)
BASIS_DEPENDENT = {
    "spectrum.csv": {"sup_norm": "every row"},
    "ranks.csv": dict.fromkeys(
        ("r_paper", "r_empirical", "max_sup", "implied_constant", "resolved"), "every row"
    ),
    "tails.csv": {"tail": "rows with i = j = 0 (the worst-pair aggregate)"},
}


@dataclass(eq=False)
class Pipeline:
    """Solved state shared by every command for one configuration."""

    config: ExperimentConfig
    grid: Grid
    field_: CoefficientField
    op_L: DiscreteOperator
    op_lap: DiscreteOperator
    basis_L: SpectralBasis
    basis_lap: SpectralBasis
    coeffs_l2: ProductCoefficients
    coeffs_hm1: ProductCoefficients
    n_max: int
    cap: int        # weyl_regime_cap: the window before its end cluster closes, the fits' top
    window: int     # the resolved window M of basis_L
    build_seconds: float
    timings: Stages   # the build stages, then run()'s


class Stages(dict):
    """Wall seconds by stage name, and in peak_rss_mb the process's peak
    RSS in MB as each stage last ended."""

    def __init__(self):
        super().__init__()
        self.peak_rss_mb: dict[str, float] = {}


@contextmanager
def _stage(timings: Stages, name: str):
    """Add the wall seconds of the block to timings[name] and read the
    process's peak RSS into timings.peak_rss_mb[name] as it ends.  The peak
    never falls, so a repeated stage keeps its larger reading."""
    t = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t
        timings.peak_rss_mb[name] = _peak_rss_mb()


def build_pipeline(config: ExperimentConfig, timings: Stages | None = None) -> Pipeline:
    """Solve and expand one configuration.  Each build stage adds its wall
    seconds and peak RSS to `timings` (new Stages if None) as it ends,
    raising or not, so a caller that passes its own keeps the stages of a
    failed build."""
    t0 = time.perf_counter()
    timings = Stages() if timings is None else timings
    grid = config.grid
    G = grid.node_count
    fld = sample_coefficients(config.coefficients, grid)
    op_L = assemble_schrodinger(fld, grid)
    op_lap = assemble_laplacian(grid)
    # flat configurations: L is the Laplacian stencil, so the closed form
    # serves both operators, sharing its arrays and certificates.  Any other
    # L is solved over its window only, in spectrum slices, and
    # lowest_eigenpairs certifies that window complete at every grid size by
    # one inertia count
    flat = (op_L.matrix - op_lap.matrix).nnz == 0
    n_max = max(config.sweep_n)
    if config.eri_enabled:
        n_max = max(n_max, config.eri_n)
    # eigenfunctions read node by node: the spectrum rows and the sweep and
    # ERI products, which config validation keeps at or below solver.m (the
    # closed form's sup norms come from its axis factors)
    cap = weyl_regime_cap(grid)
    with _stage(timings, "basis_lap"):
        basis_lap = laplacian_eigenpairs(op_lap, config.solver_m, config.solver_tol)
    with _stage(timings, "basis_L"):
        basis_L = basis_lap if flat else lowest_eigenpairs(op_L, cap, config.solver_tol)
    window = cluster_end(basis_L.eigenvalues, cap)
    with _stage(timings, "coefficients"):
        # flat: L's basis is the Laplacian's, so the L2 expansion is the
        # complete H^-1 one; otherwise it covers the window M, and is built
        # first, so its whole product block is freed before the H^-1
        # coefficients are formed
        coeffs_l2 = None if flat else expansion_coefficients(basis_L, basis_L, n_max, window)
        coeffs_hm1 = expansion_coefficients(basis_L, basis_lap, n_max, G)

    return Pipeline(
        config=config,
        grid=grid,
        field_=fld,
        op_L=op_L,
        op_lap=op_lap,
        basis_L=basis_L,
        basis_lap=basis_lap,
        coeffs_l2=coeffs_hm1 if flat else coeffs_l2,
        coeffs_hm1=coeffs_hm1,
        n_max=n_max,
        cap=cap,
        window=window,
        build_seconds=time.perf_counter() - t0,
        timings=timings,
    )


# ----------------------------------------------------------------------
# file output helpers
# ----------------------------------------------------------------------

# the row formats a CSV declares per column: text, integer (bools as 1 or
# 0), and float to 17 significant digits (integer-valued floats without a
# point, -0.0 as -0)
TEXT, INT, FLOAT = "{}", "{:d}", "{:.17g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns: dict[str, str], rows, timings: Stages) -> None:
    """Write one CSV, its header the names of `columns` and every row
    through the one row format their values (TEXT, INT or FLOAT) make, and
    add its wall seconds to timings["output"]."""
    with _stage(timings, "output"):
        line = ",".join(columns.values()) + "\n"
        _write_atomic(path, ",".join(columns) + "\n" + "".join(starmap(line.format, rows)))


def _versions() -> dict:
    """numpy and scipy versions, and the BLAS each was built against
    (`blas` numpy's, `scipy_blas` scipy's: two separate runtimes)."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(np),
        "scipy_blas": _blas_build(scipy),
    }


def _blas_build(module) -> str | None:
    """Name and version of the BLAS that numpy or scipy was built against,
    or None where it cannot describe its build (show_config(mode=...) needs
    numpy >= 1.25, scipy >= 1.11)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_spectrum(pipe: Pipeline, out_dir: str, summary: dict) -> None:
    m = pipe.config.solver_m
    per_k, _ = sup_norms(pipe.basis_L, m)
    rows = [
        (
            k + 1,
            pipe.basis_L.eigenvalues[k],
            pipe.basis_lap.eigenvalues[k],
            per_k[k],
            pipe.basis_L.residuals[k],
        )
        for k in range(m)
    ]
    write_csv(
        os.path.join(out_dir, "spectrum.csv"),
        {"k": INT, "lambda_L": FLOAT, "mu_lap": FLOAT, "sup_norm": FLOAT, "residual": FLOAT},
        rows,
        pipe.timings,
    )
    cap = pipe.cap
    k_min = max(4, cap // 8)   # skip the boundary-dominated low modes
    if cap - k_min + 1 >= 8:
        fit = weyl_fit(pipe.basis_L, pipe.grid.dimension, k_min, cap)
        alpha, const = supnorm_growth_fit(pipe.basis_L, k_min, cap)
        summary["weyl_fit"] = {
            "k_min": k_min,
            "k_max": cap,
            "exponent": fit.exponent,
            "expected_exponent": fit.expected_exponent,
            "constant": fit.constant,
            "max_rel_dev": fit.max_rel_dev,
        }
        summary["supnorm_growth"] = {
            "exponent": alpha,
            "constant": const,
            "reference_exponent": (pipe.grid.dimension - 1) / 4.0,
        }
    else:
        summary["weyl_fit"] = {"skipped": "fewer than 8 modes inside the safe window"}


def _scaling(pipe: Pipeline) -> ScalingReport:
    """The sweep, timed as two stages run one after the other: the oracle's
    ranks of every (norm, n), then the rest (tails)."""
    cfg = pipe.config
    with _stage(pipe.timings, "oracle"):
        ranks = {
            (norm, n): oracle_rank(pipe.basis_L, n, cfg.sweep_eps, norm, coeffs=pipe.coeffs_hm1)
            for norm in cfg.sweep_norms
            for n in cfg.sweep_n
        }
    with _stage(pipe.timings, "tails"):
        return scaling_report(
            pipe.basis_L,
            pipe.coeffs_l2,
            pipe.coeffs_hm1,
            cfg.sweep_n,
            cfg.sweep_eps,
            cfg.sweep_norms,
            ranks,
            calib_l2=cfg.calib_l2,
            calib_hm1=cfg.calib_hm1,
            window=pipe.window,
        )


def cmd_tail_curves(pipe: Pipeline, out_dir: str, summary: dict, report: ScalingReport) -> None:
    write_csv(
        os.path.join(out_dir, "tails.csv"),
        {"norm": TEXT, "i": INT, "j": INT, "r": INT, "tail": FLOAT},
        report.tail_rows,
        pipe.timings,
    )
    # each norm's slope is fitted to the worst-pair aggregate (its i = j = 0
    # rows) over 0 < r <= G/2; null with fewer than two samples above the floor
    top = pipe.grid.node_count // 2
    curves = {norm: {} for norm in pipe.config.sweep_norms}
    for norm, i, j, r, tail in report.tail_rows:
        if i == j == 0 and 0 < r <= top:
            curves[norm][r] = tail
    summary["tail_slopes"] = {
        norm: tail_slope(list(curve), list(curve.values())) for norm, curve in curves.items()
    }
    summary["tail_curve_n"] = max(pipe.config.sweep_n)


def cmd_rank_scan(pipe: Pipeline, out_dir: str, summary: dict, report: ScalingReport) -> None:
    # RankReport's fields are ranks.csv's columns in order (INT writes the
    # bool resolved as 1 or 0); r_predicted stays named r_paper so rank
    # tables diff cleanly across implementations sharing this file format
    rows = [astuple(rep) for rep in report.rank_reports]
    write_csv(
        os.path.join(out_dir, "ranks.csv"),
        {
            "n": INT, "eps": FLOAT, "norm": TEXT, "r_paper": INT, "r_empirical": INT,
            "r_oracle": INT, "max_sup": FLOAT, "implied_constant": FLOAT, "resolved": INT,
        },
        rows,
        pipe.timings,
    )
    summary["rank_cells"] = len(rows)
    summary["resolved_window"] = pipe.window
    # r_empirical (and implied_constant) of an unresolved windowed L2 cell
    # is a lower bound, window + 1
    summary["unresolved_cells"] = [
        {"n": rep.n, "eps": rep.eps, "norm": rep.norm, "r_empirical": rep.r_empirical}
        for rep in report.rank_reports
        if not rep.resolved
    ]


def cmd_eri_bench(pipe: Pipeline, out_dir: str, summary: dict) -> ERIResult | None:
    cfg = pipe.config
    if not cfg.eri_enabled:
        summary["eri"] = {"enabled": False}
        return None
    with _stage(pipe.timings, "eri"):
        result = eri_benchmark(
            cfg.eri_n,
            cfg.eri_eps,
            pipe.basis_L,
            pipe.op_lap,
            pipe.coeffs_hm1,
            calib_hm1=cfg.calib_hm1,
            sample_seed=cfg.eri_sample_seed,
        )
    rows = [
        (i + 1, j + 1, k + 1, l + 1, exact, fitted, abs(exact - fitted), cert)
        for (i, j, k, l), exact, fitted, cert in zip(
            result.quadruples.tolist(), result.exact, result.fitted, result.certificates
        )
    ]
    write_csv(
        os.path.join(out_dir, "eri.csv"),
        {
            "i": INT, "j": INT, "k": INT, "l": INT,
            "exact": FLOAT, "fitted": FLOAT, "abs_err": FLOAT, "certificate": FLOAT,
        },
        rows,
        pipe.timings,
    )
    summary["eri"] = {
        "enabled": True,
        "n": result.n,
        "r": result.r,
        "eps": result.eps,
        "quadruples": len(result.quadruples),
        "max_abs_error": result.max_abs_error,
        "mean_abs_error": result.mean_abs_error,
        "certificate": result.certificate,
        "exact_seconds": result.exact_seconds,
        "fitted_seconds": result.fitted_seconds,
    }
    return result


# ----------------------------------------------------------------------
# verify-all invariant suite
# ----------------------------------------------------------------------

def run_checks(pipe: Pipeline, scaling: ScalingReport, eri: ERIResult | None) -> dict:
    """Cross-module invariants; each entry is {'ok': bool, 'detail': str}."""
    checks: dict[str, dict] = {}
    cfg = pipe.config

    def record(name, ok, detail, **values):
        checks[name] = {"ok": bool(ok), "detail": detail, **values}

    # eigensolve judged each basis's certificates when it built the basis and
    # raised on a failure, which run() reports as that check failing; these
    # entries report the recorded values
    worst = max(float(np.max(pipe.basis_L.residuals)), float(np.max(pipe.basis_lap.residuals)))
    record("residuals", True, f"max scaled residual {worst:.3e}")

    defect = max(pipe.basis_L.ortho_defect, pipe.basis_lap.ortho_defect)
    each = ", ".join(
        f"{name} basis {b.ortho_defect:.3e} ({b.completeness.covers(b.count, b.materialized)})"
        for name, b in (("L", pipe.basis_L), ("Laplacian", pipe.basis_lap))
    )
    record("orthonormality", True, f"max gram defect {defect:.3e}; {each}")

    # the window of L holds every mode below its end: the closed form has
    # them all, and the sliced Lanczos solve counts them by the inertia of
    # L - sigma I
    done = pipe.basis_L.completeness
    values = {key: value for key, value in asdict(done).items() if value is not None}
    record("completeness", True, done.describe(pipe.basis_L.count), **values)

    # one pass over the pairs of n_max, one block of pairs at a time
    # (eigensolve.blocks): each block's products are formed once, and no
    # array of pairs x G is formed
    n = pipe.n_max
    targets = {"L": pipe.coeffs_l2, "Laplacian": pipe.coeffs_hm1}
    Q = np.empty(n * (n + 1) // 2)      # <L f, f> from the sparse matrix
    direct = np.empty(Q.size)           # <-Delta f, f> from the sparse matrix
    grad_sq = np.empty(Q.size)          # sum_k mu_k c_k^2
    slack = np.empty(Q.size)            # worst lambda_r tail_r^2 - Q
    sums = {name: np.empty(Q.size) for name in targets}
    for cols in blocks(Q.size):
        prods = product_matrix(pipe.basis_L, n, pairs=cols)
        Q[cols] = quadratic_form_values(pipe.op_L, prods)
        direct[cols] = quadratic_form_values(pipe.op_lap, prods)
        del prods   # freed before the next block forms
        # summed per pair, as the Parseval sums are, not by a GEMV whose
        # kernel would depend on the block's shape
        grad_sq[cols] = np.sum(
            np.square(pipe.coeffs_hm1.coeffs[cols]) * pipe.coeffs_hm1.eigenvalues, axis=1
        )
        # Q against the eigenvalue-weighted L2 tails of the spectral expansion
        slack[cols] = tail_identity_slack(
            pipe.coeffs_l2.eigenvalues, tail_table(pipe.coeffs_l2, pairs=cols), Q[cols, None]
        )
        for name, coeffs in targets.items():
            sums[name][cols] = np.sum(np.square(coeffs.coeffs[cols]), axis=1)

    bound = chain_bound(pipe.basis_L, pipe.field_, n)
    worst_q = float(np.max(Q))
    record(
        "quadratic_chain",
        bool(np.all(Q <= bound * (1.0 + 1e-12) + 1e-12)),
        f"n={n}, bound {bound:.6g}, worst value {worst_q:.6g}, margin {bound - worst_q:.3e}",
    )

    # ||grad f||^2 two ways: the spectral sum, and <-Delta f, f> straight
    # from the sparse matrix, which _assemble forms from the face differences.
    # rtol 1e-6 plus an absolute floor so zero-gradient products (periodic
    # constant mode) are judged against the family's noise scale, not 0
    atol = 1e-9 * (1.0 + float(np.max(direct)))
    excess = np.abs(direct - grad_sq) / (1e-6 * direct + atol)
    worst = float(np.max(excess))
    record("h1_identity", worst <= 1.0, f"worst deviation at {worst:.3e} of tolerance")

    worst_slack = float(np.max(slack))
    record(
        "tail_identity_l2",
        worst_slack <= 1e-10 * (1.0 + float(np.max(np.abs(Q)))),
        f"worst lambda_r*tail^2 - Q = {worst_slack:.3e}",
    )

    # expansions in both targets, L's basis and the Laplacian's; a windowed
    # one adds its out-of-window mass (Pythagoras).  That mass is measured as
    # the residual of the projection, so a windowed target only confirms
    # Pythagoras for orthonormal vectors, not that the window skipped no
    # mode: completeness rests on the sliced Lanczos solve's inertia count
    defects = {}
    for name, coeffs in targets.items():
        total = sums[name]
        if coeffs.outside_mass is not None:
            total = total + coeffs.outside_mass
        norms_sq = coeffs.product_l2_norms**2
        defects[name] = float(np.max(np.abs(total - norms_sq) / np.maximum(norms_sq, 1e-300)))
    rel = max(defects.values())
    windowed = pipe.coeffs_l2.outside_mass is not None
    record(
        "parseval",
        rel <= 1e-8,
        f"worst relative Parseval defect {rel:.3e} ("
        + ", ".join(f"{name} target {value:.3e}" for name, value in defects.items())
        + (
            f"; the L target is windowed to {pipe.coeffs_l2.m} modes, so it "
            "checks Pythagoras against the measured out-of-window residual, "
            "not completeness)"
            if windowed
            else ")"
        ),
    )

    # config caps solver.m at the Weyl cap, below the count of either basis
    comp = comparability_check(pipe.basis_L, pipe.basis_lap, pipe.field_, cfg.solver_m)
    record("comparability", comp.ok, f"k<={cfg.solver_m}, worst margin {comp.worst:.3e}")

    # a table of m modes reports r_empirical = m + 1 when it misses eps: a
    # lower bound (windowed L2 only), against which no oracle rank is bounded
    modes = {L2: pipe.coeffs_l2.m, HM1: pipe.coeffs_hm1.m}
    cells = scaling.rank_reports
    exact = [rep for rep in cells if rep.r_empirical <= modes[rep.norm]]
    detail = f"{len(exact)} of {len(cells)} sweep cells"
    if len(exact) < len(cells):
        detail += f"; the others report the lower bound r_empirical = {pipe.coeffs_l2.m + 1}"
    record("oracle_dominance", all(rep.r_oracle <= rep.r_empirical for rep in exact), detail)

    if eri is not None:
        # roundoff in both sides grows with the integrals, so the slack does too
        excess = np.abs(eri.exact - eri.fitted) - eri.certificates
        worst_violation = float(np.max(excess))
        scale = np.maximum(1.0, np.abs(eri.exact))
        ok = bool(np.all(excess <= 1e-12 * scale)) and (
            eri.max_abs_error <= eri.certificate + 1e-12 * float(np.max(scale))
        )
        record(
            "eri_certificate",
            ok,
            f"worst |exact-fitted| - cert = {worst_violation:.3e}, "
            f"max error {eri.max_abs_error:.3e} vs certificate {eri.certificate:.3e}",
        )

    return checks


def run(
    config: ExperimentConfig,
    command: str,
    out_dir: str | None = None,
    threads: int | None = None,
    spin_timeout: str | None = None,
    startup_seconds: float | None = None,
) -> int:
    """Execute one command; returns the process exit status (0 ok, 1 failed
    check or certificate).

    `out_dir` is the CLI's --out (None: the config's output_dir); a path
    that cannot be made a directory raises ConfigError naming which, before
    anything is written.  `threads` is the BLAS thread cap the caller
    applied (None if none) and `spin_timeout` the OPENBLAS_THREAD_TIMEOUT in
    its environment before numpy loaded (None if the caller is not the CLI,
    which sets one); `startup_seconds` is the CLI's wall time from its entry
    to this call, the config load and the heavy imports (None if the caller
    is not the CLI).  All three are recorded in summary.json only.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} (commands: {', '.join(COMMANDS)})")
    out = out_dir or config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        where = "--out" if out_dir else "config.output_dir"
        raise ConfigError(where, f"cannot create directory {out!r}: {exc.strerror}") from exc

    start = time.perf_counter(), _cpu_seconds()
    summary: dict = {
        "command": command,
        "config": config.raw,
        "version": __version__,
        "calibration": {"calib_l2": config.calib_l2, "calib_hm1": config.calib_hm1},
        "threads": threads,
        "openblas_thread_timeout": spin_timeout,
        "startup_seconds": startup_seconds,
        "versions": _versions(),
        "basis_dependent": BASIS_DEPENDENT,
    }
    # the build stages, the stages below and the CSV writes (output); a
    # failed build leaves the stages that ran, the failing one included
    timings = Stages()
    try:
        pipe = build_pipeline(config, timings)
    except EigensolveError as exc:
        # a certificate failed where it was computed: report it as its check
        summary["checks"] = {exc.check: False}
        summary["check_details"] = {
            exc.check: {"ok": False, "detail": str(exc), "worst_residual": exc.worst_residual}
        }
        _write_summary(out, summary, start, timings)
        return 1
    summary.update(
        grid_nodes=pipe.grid.node_count,
        a_min=pipe.field_.a_min,
        a_max=pipe.field_.a_max,
        v_sup=pipe.field_.v_sup,
        build_seconds=pipe.build_seconds,
    )

    status = 0
    if command == "spectrum":
        cmd_spectrum(pipe, out, summary)
    elif command == "tail-curves":
        report = _scaling(pipe)
        cmd_tail_curves(pipe, out, summary, report)
    elif command == "rank-scan":
        report = _scaling(pipe)
        cmd_rank_scan(pipe, out, summary, report)
    elif command == "eri-bench":
        cmd_eri_bench(pipe, out, summary)
    else:  # verify-all
        cmd_spectrum(pipe, out, summary)
        report = _scaling(pipe)
        cmd_tail_curves(pipe, out, summary, report)
        cmd_rank_scan(pipe, out, summary, report)
        eri = cmd_eri_bench(pipe, out, summary)
        with _stage(timings, "checks"):
            checks = run_checks(pipe, report, eri)
        summary["checks"] = {name: entry["ok"] for name, entry in checks.items()}
        summary["check_details"] = checks
        if not all(entry["ok"] for entry in checks.values()):
            status = 1
    _write_summary(out, summary, start, timings)
    return status


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (ru_maxrss is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_seconds() -> float:
    """User plus system CPU seconds of the process so far, all its threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_summary(out: str, summary: dict, start: tuple, timings: Stages) -> None:
    """Add the run's wall and CPU seconds since start = (perf_counter,
    _cpu_seconds), its stage timings and peak RSS, then write summary.json.
    CPU seconds above the wall seconds were spent off the main thread."""
    wall, cpu = start
    summary["seconds"] = time.perf_counter() - wall
    summary["cpu_seconds"] = _cpu_seconds() - cpu
    summary["timings"] = timings
    summary["stage_peak_rss_mb"] = timings.peak_rss_mb
    summary["peak_rss_mb"] = _peak_rss_mb()
    _write_atomic(
        os.path.join(out, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
