"""Closed-loop benchmark of `eigenrank verify-all`.

    python3 perfbench/run.py --workload flat-2d --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the program is run from `src/` there.
With `--trace 0`, one client runs `verify-all` as a child process, starting
each run only after the previous one exits, for as many runs as fit in
`--seconds` (at least one), and reports the end-to-end metrics.  With
`--trace 1` it makes one untraced run, one traced in-process run
(`perfbench/traced.py`) and one single-threaded run, and reports the
per-layer metrics.  Every run uses `--threads` equal to the number of
usable cores, except the single-threaded baseline.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md for
the workloads, the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from traced import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESETS = SRC / "eigenrank" / "presets"
TRACED = Path(__file__).resolve().parent / "traced.py"
WORK = Path(__file__).resolve().parent / ".out"

# Workload -> presets run back to back as one operation.  Only random-2d has
# random coefficients, so only its generated config takes the seed; the
# others are deterministic and their ERI sample (n = 8) is exhaustive.
WORKLOADS = {
    "flat-2d": ("flat-2d",),
    "random-2d": ("random-2d",),
    "sweep-1d": ("flat-1d", "harmonic-1d"),
}
BUDGET_S = 170.0         # children still running past this are killed
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, eigenrank.pipeline\n"
    "from eigenrank.config import load_config\n"
    "load_config(sys.argv[1])\n"
)
ENV_CODE = (
    "import json, platform, numpy, scipy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "    'scipy': scipy.__version__, 'blas': blas['name'] + ' ' + str(blas['version'])}))\n"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metric -> traced function names whose self time it sums
SELF_TIME = {
    "eigensolve.lowest_eigenpairs_s": ("eigensolve.lowest_eigenpairs",),
    "eigensolve.gram_defect_s": ("eigensolve.SpectralBasis.gram_defect",),
    "eri.eri_benchmark_s": ("eri.eri_benchmark",),
    "eri.green_apply_s": ("eri.green_apply",),
    "lowrank.scaling_report_s": ("lowrank.scaling_report",),
    "lowrank.oracle_rank_s": ("lowrank.oracle_rank",),
    "pipeline.build_pipeline_s": ("pipeline.build_pipeline",),
    "pipeline.run_checks_s": ("pipeline.run_checks",),
    "pipeline.write_csv_s": ("pipeline.write_csv",),
    "operator.assemble_s": ("operator.assemble_schrodinger", "operator.assemble_laplacian"),
    "products.expansion_coefficients_s": ("products.expansion_coefficients",),
}
# the roots of the two phases of an invocation are reported inclusive
INCLUSIVE = {
    "config.load_config_s": "config.load_config",
    "pipeline.run_s": "pipeline.run",
}
CALLS = {
    "eigensolve.lowest_eigenpairs_calls": "eigensolve.lowest_eigenpairs",
    "eigensolve.gram_defect_calls": "eigensolve.SpectralBasis.gram_defect",
    "eri.green_apply_calls": "eri.green_apply",
    "lowrank.oracle_rank_calls": "lowrank.oracle_rank",
    "lowrank.tail_table_calls": "lowrank.tail_table",
    "operator.gradient_energy_calls": "operator.gradient_energy",
    "products.product_function_calls": "products.product_function",
}
COMPUTED = ("eigensolve.dense_bytes", "lowrank.oracle_entries", "pipeline.csv_bytes")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to run)."""


@dataclass
class Child:
    status: int       # exit code; negative for a signal
    wall_s: float     # spawn to exit
    cpu_s: float      # user + system, from wait4
    rss_mb: float     # ru_maxrss


@dataclass
class Invocation:
    preset: str
    out: Path
    child: Child
    problems: list[str]
    digests: dict[str, str]


@dataclass
class Op:
    """One operation: every preset of the workload, back to back."""

    runs: list[Invocation] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.child.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.child.cpu_s for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.child.rss_mb for r in self.runs)

    @property
    def problems(self) -> list[str]:
        return [f"{r.preset}: {p}" for r in self.runs for p in r.problems]

    @property
    def digests(self) -> dict[str, str]:
        return {f"{r.preset}/{name}": d for r in self.runs for name, d in r.digests.items()}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_child(argv: list[str], threads: int, log: Path, deadline: float) -> Child:
    """Spawn one child, wait for it with wait4, kill it at the deadline."""
    reaped = threading.Event()
    lock = threading.Lock()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(threads), stdout=fh, stderr=subprocess.STDOUT
        )

        def kill():
            with lock:
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            reaped.set()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,   # Linux reports KiB
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def make_configs(workload: str, seed: int, work: Path) -> list[tuple[str, Path, dict]]:
    """Write one config per preset of the workload; only these reach the program."""
    configs = []
    for preset in WORKLOADS[workload]:
        doc = json.loads((PRESETS / f"{preset}.json").read_text())
        if doc["coefficients"]["kind"] == "random_fourier":
            doc["coefficients"]["seed"] = seed
        doc["output_dir"] = str(work / preset)
        path = work / f"{preset}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        configs.append((preset, path, doc))
    return configs


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def dirichlet_laplacian_spectrum(doc: dict) -> list[float]:
    """Closed-form eigenvalues of the flat (-1, 2, -1)/h^2 Dirichlet stencil,
    tensor-summed over the axes and sorted."""
    values = [0.0]
    for length, points in zip(doc["grid"]["lengths"], doc["grid"]["points"]):
        h = length / (points + 1)
        axis = [(4.0 / h**2) * math.sin(k * math.pi / (2 * (points + 1))) ** 2
                for k in range(1, points + 1)]
        values = [v + a for v in values for a in axis]
    return sorted(values)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path, doc: dict, status: int) -> list[str]:
    """What is wrong with one verify-all run; empty when it passed."""
    if status != 0:
        return [f"exit status {status}"]
    problems = []
    try:
        summary = json.loads((out / "summary.json").read_text())
        checks = summary.get("checks") or {}
        failing = sorted(name for name, ok in checks.items() if ok is not True)
        if not checks or failing:
            problems.append(f"summary.json checks false or missing: {failing}")

        exact = dirichlet_laplacian_spectrum(doc)
        spectrum = read_csv(out / "spectrum.csv")
        worst = max(abs(float(row["mu_lap"]) - exact[k]) / exact[k]
                    for k, row in enumerate(spectrum))
        if len(spectrum) != doc["solver"]["m"] or worst > 1e-9:
            problems.append(f"spectrum.csv: {len(spectrum)} rows, worst mu_lap rel error {worst:.3e}")

        sweep = doc["sweep"]
        ranks = read_csv(out / "ranks.csv")
        cells = len(sweep["n"]) * len(sweep["eps"]) * len(sweep["norms"])
        if len(ranks) != cells or any(int(r["r_oracle"]) > int(r["r_empirical"]) for r in ranks):
            problems.append(f"ranks.csv: {len(ranks)} rows of {cells}, or r_oracle > r_empirical")

        if doc["eri"]["enabled"]:
            pairs = doc["eri"]["n"] * (doc["eri"]["n"] + 1) // 2
            eri = read_csv(out / "eri.csv")
            if len(eri) != pairs * (pairs + 1) // 2 or any(
                float(r["abs_err"]) > float(r["certificate"]) + 1e-12 for r in eri
            ):
                problems.append(f"eri.csv: {len(eri)} rows, or an error above its certificate")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def run_op(configs, threads: int, tag: str, work: Path, deadline: float, traced=None) -> Op:
    """verify-all on every config of the workload; `traced` collects span files."""
    op = Op()
    for preset, path, doc in configs:
        out = work / tag / preset
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli_args = ["verify-all", "--config", str(path), "--out", str(out), "--threads", str(threads)]
        if traced is None:
            argv = [sys.executable, "-m", "eigenrank.cli", *cli_args]
        else:
            spans = work / tag / f"{preset}.spans.json"
            argv = [sys.executable, str(TRACED), "--spans", str(spans), "--", *cli_args]
            traced.append(spans)
        child = run_child(argv, threads, work / tag / f"{preset}.log", deadline)
        problems = check_outputs(out, doc, child.status)
        if problems:
            log_tail = (work / tag / f"{preset}.log").read_text(errors="replace")[-2000:]
            print(f"[{tag}] {preset} failed; log tail:\n{log_tail}", file=sys.stderr)
        op.runs.append(Invocation(preset, out, child, problems, csv_digests(out)))
    return op


def setup_samples(configs, threads: int, work: Path, deadline: float) -> tuple[list[float], list[str]]:
    """Wall time of fresh children that import eigenrank.pipeline and load
    each config, with no numerics; one sample sums the workload's configs."""
    samples, problems = [], []
    for _ in range(SETUP_SAMPLES):
        total = 0.0
        for preset, path, _doc in configs:
            argv = [sys.executable, "-c", SETUP_CODE, str(path)]
            child = run_child(argv, threads, work / f"setup-{preset}.log", deadline)
            if child.status != 0:
                problems.append(f"setup of {preset}: exit status {child.status}")
            total += child.wall_s
        samples.append(total)
    return samples, problems


def environment(work: Path, deadline: float) -> dict:
    """nproc (usable cores) and the Python, numpy, scipy and BLAS versions."""
    log = work / "env.log"
    child = run_child([sys.executable, "-c", ENV_CODE], 1, log, deadline)
    if child.status != 0:
        raise BenchError(f"cannot import numpy and scipy: {log.read_text()[-500:]}")
    env = json.loads(log.read_text().strip().splitlines()[-1])
    return {"nproc": len(os.sched_getaffinity(0)), **env}


RANK_COLUMNS = ("r_paper", "r_empirical", "r_oracle")


def rank_cells_differing(a: Path, b: Path) -> int:
    """Rank cells that differ between two ranks.csv files of the same sweep.

    Only the integer rank columns count: the float columns are written to 17
    digits, so they also differ by last-digit rounding across thread counts.
    The gate has already checked that both files have one row per sweep cell.
    """
    return sum(ra[col] != rb[col] for ra, rb in zip(read_csv(a), read_csv(b))
               for col in RANK_COLUMNS)


# ----------------------------------------------------------------------
# per-layer profile from spans
# ----------------------------------------------------------------------

def profile(span_files: list[Path]) -> dict:
    """Self time and calls per traced function, summed over span files.

    Self time is a span's duration minus the durations of its child spans.
    `blocking_s` sums self time over every span inside a `pipeline.run` span,
    which must equal the run spans' total when the spans nest properly.
    """
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counters: Counter = Counter()
    blocking = 0.0
    for path in span_files:
        doc = json.loads(path.read_text())
        counters.update(doc["counters"])
        spans = doc["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        under_run = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - children[i]
            self_s[name] += own
            inclusive[name] += end - start
            calls[name] += 1
            under_run[i] = name == "pipeline.run" or (parent >= 0 and under_run[parent])
            if under_run[i]:
                blocking += own
    return {"self": self_s, "inclusive": inclusive, "calls": calls,
            "counters": counters, "blocking_s": blocking}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(configs, threads, seconds, work, deadline):
    setup, problems = setup_samples(configs, threads, work, deadline)
    ops: list[Op] = []
    loop_start = time.perf_counter()
    while True:
        op = run_op(configs, threads, f"run{len(ops)}", work, deadline)
        ops.append(op)
        # start another run only if it should end inside the window
        elapsed = time.perf_counter() - loop_start
        left = deadline - time.perf_counter()
        if elapsed + op.wall_s > seconds or left < 2.0 * op.wall_s or op.problems:
            break
    failed = 0
    for k, op in enumerate(ops):
        if op.digests != ops[0].digests:
            op.runs[0].problems.append("CSV digests differ from run 0")
        failed += bool(op.problems)
        print(f"run {k}: verify_s {op.wall_s:.4f} cpu_s {op.cpu_s:.4f} "
              f"peak_rss_mb {op.rss_mb:.1f} {'FAILED ' + '; '.join(op.problems) if op.problems else 'ok'}")
    for name, digest in ops[0].digests.items():
        print(f"sha256 {name} {digest}")
    metrics = {
        "verify_s": metric(statistics.median(op.wall_s for op in ops), "s"),
        "cpu_s": metric(statistics.median(op.cpu_s for op in ops), "s"),
        "peak_rss_mb": metric(statistics.median(op.rss_mb for op in ops), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print(f"samples: {len(ops)} verify-all operations, {len(setup)} set-ups (medians reported)")
    print(f"failed_runs: {failed} of {len(ops)} runs")
    return metrics, len(ops), failed, problems


def traced_run(configs, threads, work, deadline):
    setup, problems = setup_samples(configs, threads, work, deadline)
    base = run_op(configs, threads, "untraced", work, deadline)
    span_files: list[Path] = []
    traced = run_op(configs, threads, "traced", work, deadline, traced=span_files)
    single = run_op(configs, 1, "one-thread", work, deadline)
    ops = (base, traced, single)
    failed = sum(bool(op.problems) for op in ops)
    if traced.digests != base.digests:
        problems.append("traced run's CSV digests differ from the untraced run's")
    for op, tag in zip(ops, ("untraced", "traced", "one-thread")):
        print(f"{tag}: wall {op.wall_s:.4f} s {'FAILED ' + '; '.join(op.problems) if op.problems else 'ok'}")
    for name, digest in traced.digests.items():
        print(f"sha256 {name} {digest}")

    # a failed run leaves partial output: count what exists, correct is false
    prof = profile([path for path in span_files if path.is_file()])
    metrics = {}
    for name, spans in SELF_TIME.items():
        metrics[name] = metric(sum(prof["self"][s] for s in spans), "s")
    for name, span in INCLUSIVE.items():
        metrics[name] = metric(prof["inclusive"][span], "s")
    for name, span in CALLS.items():
        metrics[name] = metric(prof["calls"][span], "count")
    for name in COMPUTED:
        metrics[name] = metric(prof["counters"][name], "B" if name.endswith("bytes") else "count")
    for layer in LAYERS:
        own = sum(v for k, v in prof["self"].items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = metric(own, "s")
    eri_ops = Counter()
    for run in traced.runs:
        summary = run.out / "summary.json"
        eri = json.loads(summary.read_text()).get("eri", {}) if summary.is_file() else {}
        eri_ops["exact_ops"] += eri.get("exact_ops", 0)
        eri_ops["fitted_ops"] += eri.get("fitted_ops", 0)
    metrics["eri.exact_ops"] = metric(eri_ops["exact_ops"], "count")
    metrics["eri.fitted_ops"] = metric(eri_ops["fitted_ops"], "count")

    run_s = prof["inclusive"]["pipeline.run"]
    overhead = run_s - (base.wall_s - statistics.median(setup))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.spans"] = metric(sum(prof["calls"].values()), "count")
    metrics["baseline.verify_1t_s"] = metric(single.wall_s, "s")
    metrics["lowrank.thread_variant_cells"] = metric(
        sum(rank_cells_differing(t.out / "ranks.csv", s.out / "ranks.csv")
            for t, s in zip(traced.runs, single.runs) if not (t.problems or s.problems)),
        "count",
    )
    residual = run_s - prof["blocking_s"]
    print(f"blocking path: layer self times sum to {prof['blocking_s']:.6f} s, "
          f"pipeline.run_s {run_s:.6f} s, residual {residual:.3e} s")
    if abs(residual) > max(abs(overhead), 1e-6):
        problems.append(f"layer self times miss pipeline.run_s by {residual:.3e} s")
    print(f"failed_runs: {failed} of {len(ops)} runs")
    return metrics, len(ops), failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of eigenrank verify-all.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="coefficient seed of random-2d")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")

    deadline = time.perf_counter() + BUDGET_S
    try:
        if not (SRC / "eigenrank" / "cli.py").is_file() or not PRESETS.is_dir():
            raise BenchError(f"no eigenrank sources under {SRC}")
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = environment(work, deadline)
        threads = env["threads"] = env["nproc"]
        for key, value in env.items():
            print(f"env {key}: {value}")
        configs = make_configs(args.workload, args.seed, work)
        print(f"workload {args.workload}: presets {', '.join(WORKLOADS[args.workload])}, seed {args.seed}")
        if args.trace:
            metrics, attempted, failed, problems = traced_run(configs, threads, work, deadline)
        else:
            metrics, attempted, failed, problems = end_to_end(
                configs, threads, args.seconds, work, deadline
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
