"""Run one `eigenrank` command in-process with a span around every public
function of each layer, and write the spans to a JSON file.

    PYTHONPATH=src python3 perfbench/traced.py --spans spans.json -- \
        verify-all --config cfg.json --out DIR --threads 2

Every public function and method of the layer modules is replaced, at each
module attribute and class attribute that names it, by a wrapper that
records (name, start, end, parent).  Callers therefore reach the wrapper
through the name they already use (`eigenrank.pipeline.lowest_eigenpairs`,
`eigenrank.eri.green_apply`, `SpectralBasis.gram_defect`) and nothing under
`src/` changes.  `eigenrank.grid` and properties are not wrapped: their time
counts toward the calling layer.

Spans stay in memory and are written once, after the command returns.  Three
counters are computed from call arguments rather than timed:

- `eigensolve.dense_bytes`: 8*G^2 per `lowest_eigenpairs` call at or below
  the dense cap, the size of the dense matrix handed to `eigh`;
- `lowrank.oracle_entries`: rows * n^2 per `oracle_rank` call, the size of
  the matrix whose SVD it takes (rows = G for L2, the coefficient count m
  for H^-1);
- `pipeline.csv_bytes`: the size of each file `write_csv` writes.

The BLAS thread count must be set in the environment before this script
starts, because numpy is imported here before the CLI sees `--threads`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("config", "operator", "eigensolve", "products", "lowrank", "eri", "pipeline", "cli")


class Tracer:
    """In-memory span recorder; spans nest by call stack (one thread)."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)   # reserve the slot so children point back to it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent]
                if hook is not None:
                    hook(self.counters, signature.bind(*args, **kwargs).arguments)

        return traced


def _dense_bytes(counters, args):
    from eigenrank.eigensolve import DENSE_CAP

    size = args["op"].size
    if size <= DENSE_CAP:
        counters["eigensolve.dense_bytes"] += 8 * size * size


def _oracle_entries(counters, args):
    n = args["n"]
    if args.get("norm", "l2") == "l2":
        rows = args["basis_src"].grid.node_count
    elif args.get("coeffs") is not None:
        rows = args["coeffs"].m
    else:
        rows = args["basis_lap"].count
    counters["lowrank.oracle_entries"] += rows * n * n


def _csv_bytes(counters, args):
    counters["pipeline.csv_bytes"] += os.path.getsize(args["path"])


HOOKS = {
    "eigensolve.lowest_eigenpairs": _dense_bytes,
    "lowrank.oracle_rank": _oracle_entries,
    "pipeline.write_csv": _csv_bytes,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of each layer module, then
    rebind every eigenrank module attribute that refers to a wrapped one."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"eigenrank.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj):
                for method, member in list(vars(obj).items()):
                    if method.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{method}"
                    if inspect.isfunction(member):
                        setattr(obj, method, tracer.wrap(name, member))
                    elif isinstance(member, classmethod):
                        setattr(obj, method, classmethod(tracer.wrap(name, member.__func__)))
    for module_name, module in list(sys.modules.items()):
        if module_name == "eigenrank" or module_name.startswith("eigenrank."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the eigenrank arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("eigenrank.cli")
    try:
        return cli.main(argv)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
