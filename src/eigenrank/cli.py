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

Heavy imports happen after the BLAS environment is set (_configure_blas),
so the thread cap and the spin bound reach both BLAS runtimes.  Once they
are done, main freezes the collector's heap (gc.freeze): the ~41.9k
objects the cyclic collector tracks by then, nearly all of them numpy's
and scipy's module state, move to its permanent generation, which no
collection walks.  Unfrozen, every full collection walks them: the one at
interpreter shutdown and, on flat-1d and harmonic-1d, one mid-run.  The
collector stays enabled, so cycles made during the run are still
reclaimed, and the frozen objects were alive until exit anyway.  A library
`import eigenrank` freezes nothing.  Measured on 2 shared cores (CPython
3.11, numpy 2.4, scipy 1.17), medians of 8 or 10 processes:

                                                  unfrozen   frozen
    teardown after `import eigenrank.pipeline`    43 ms      11 ms
    teardown after verify-all, each preset        42-45 ms   11 ms
    mid-run full collection, flat-1d/harmonic-1d  10/10 ms   none

The tracemalloc peak of a verify-all rose by 2-3 kB on each preset, and
perfbench's median peak_rss_mb moved by at most 0.03 MB.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import COMMANDS, PRESETS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SPIN_TIMEOUT = 24
"""OPENBLAS_THREAD_TIMEOUT, the exponent e of the 2^e cycles an idle
OpenBLAS worker busy-waits for its next job before it sleeps (OpenBLAS
clamps e to 4..30; its default is 28, about 0.13 s at 2.1 GHz).

A process loads two OpenBLAS runtimes, numpy's and scipy's (ARPACK, SuperLU,
scipy.linalg), each with its own worker pool, and after every BLAS call each
worker spins.  Most runs are shorter than a second, so at the default the
workers spin for much of them.  Measured as children of the command line,
`verify-all --threads 2` on 2 shared 2.1 GHz cores, median wall and CPU
seconds per process over 10 (flat-2d) or 12 alternating runs:

    e             flat-2d        random-2d      flat-1d + harmonic-1d
                  wall   CPU     wall   CPU     wall   CPU
    28 (default)  1.15   1.68    1.75   2.79    2.40   3.58
    20            1.17   1.18    1.75   2.05    2.44   2.55
    22            1.07   1.14    1.82   2.16    2.28   2.53
    24            1.01   1.16    1.67   2.10    2.25   2.71
    26            1.01   1.27    1.73   2.38    2.26   2.86

Peak RSS did not move.  A worker that sleeps between two BLAS calls of a
Lanczos loop makes the next call wait for its wake-up, and on these shared
cores that wait reached milliseconds.  One shift-invert solve, the gap
between two steps' BLAS calls, takes 0.3 ms at 64^2 and 1.8 ms at 128^2.
random-2d's wall time grew by a median 0.27 s at e = 4 and 0.18 s at
e = 12 over 10 paired runs, and by at most 0.01 s from 16 to 24 in quiet
sets.  random-2d at 128^2 (one verify-all of 12-14 s) took a median
13.5 s over 20 runs at the default, 17.7 s over 9 at e = 22 (2 ms of spin),
13.5 s over 17 at 24 (8 ms) and 12.7 s over 14 at 26.  24 is the smallest
exponent that slowed neither.
"""


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
        help="cap the worker threads of both BLAS runtimes, numpy's and scipy's "
        "OpenBLAS (set before numpy loads); with or without it, their idle "
        f"workers spin at most 2^{SPIN_TIMEOUT} cycles before they sleep, unless "
        "OPENBLAS_THREAD_TIMEOUT is set",
    )
    return parser


def _configure_blas(threads: int | None) -> str:
    """Set the BLAS environment before numpy loads: the thread cap, when
    given, and the spin bound SPIN_TIMEOUT unless the caller's environment
    already sets one.  Returns the spin bound in effect."""
    if threads is not None:
        for var in THREAD_VARS:
            os.environ[var] = str(threads)
    return os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(SPIN_TIMEOUT))


def main(argv=None) -> int:
    entered = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.threads is not None and args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    spin_timeout = _configure_blas(args.threads)

    from .config import ConfigError, load_config

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from .pipeline import run

    gc.freeze()   # every heavy module is loaded: see the module docstring
    try:
        status = run(
            config,
            args.command,
            out_dir=args.out,
            threads=args.threads,
            spin_timeout=spin_timeout,
            startup_seconds=time.perf_counter() - entered,
        )
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
