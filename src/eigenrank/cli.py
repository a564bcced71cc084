"""Command-line front end: eigenrank <command> --config <path> [--out DIR] [--threads N].

Commands
    spectrum      eigenvalues, sup norms, residuals and a Weyl-law fit
    tail-curves   projection-tail curves per pair and worst-pair aggregate
    rank-scan     formula cutoff vs empirical rank vs SVD oracle per (n, eps, norm)
    eri-bench     exact vs density-fitted repulsion integrals with certificates
    verify-all    all of the above plus the cross-module invariant suite

--config takes a JSON file path or a preset name (eigenrank.PRESETS).  Exit
codes: 0 success, 1 failed check or eigen-certificate (summary.json names
it), 2 bad usage or configuration (the message names the field).

Heavy imports happen after --threads is applied, so the thread cap reaches
the BLAS runtime.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import COMMANDS, PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenrank",
        description="Low-rank structure of eigenfunction products: spectra, "
        "projection tails, rank oracles and density-fitted repulsion integrals.",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument(
        "--config",
        required=True,
        help=f"path to a JSON config, or a preset name ({', '.join(PRESETS)})",
    )
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS/OpenMP threads (must be set before numpy loads)",
    )
    return parser


def _apply_thread_cap(threads: int) -> None:
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(threads)
    except ImportError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.threads is not None:
        if args.threads < 1:
            print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
            return 2
        _apply_thread_cap(args.threads)

    from .config import ConfigError, load_config

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from .pipeline import run

    try:
        status = run(config, args.command, out_dir=args.out, threads=args.threads)
    except ConfigError as exc:   # an output directory that cannot be made
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    if status != 0:
        print("verification FAILED; see summary.json for the failing checks", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
