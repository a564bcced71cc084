"""Experiment configuration: JSON documents and shipped presets.

A config is one JSON object: a name, an output directory and the blocks
grid / coefficients / solver / sweep / eri / calibration.  One table per
block gives each field its type (`[t]`: a list of t) and its default, or
REQUIRED; a coefficient kind's table holds the CoefficientSpec fields it
reads, with the dataclass's types and defaults.  Each block is read by one
reader that refuses unknown keys, values of another type and non-finite
floats.  All randomness flows from explicit seeds in the document.
Errors carry the offending field's path so the CLI can point at it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, field
from importlib import resources

from . import PRESETS
from .eigensolve import DEFAULT_TOL
from .grid import DIRICHLET, Grid, GridError, make_grid
from .lowrank import HM1, L2
from .operator import KIND_FIELDS, CoefficientError, CoefficientSpec, weyl_regime_cap


class ConfigError(ValueError):
    """Invalid configuration; `where` names the field."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


REQUIRED = object()   # the default of a field the document must give

GRID = {
    "dimension": (int, REQUIRED),
    "lengths": ([float], REQUIRED),
    "points": ([int], REQUIRED),
    "boundary": (str, DIRICHLET),
}
SOLVER = {"m": (int, 64), "tol": (float, DEFAULT_TOL)}
SWEEP = {"n": ([int], REQUIRED), "eps": ([float], REQUIRED), "norms": ([str], (L2, HM1))}
ERI = {
    "enabled": (bool, False),
    "n": (int, 8),
    "eps": (float, 1e-2),
    "sample_seed": (int, 20240801),
}
CALIBRATION = {"calib_l2": (float, 1.0), "calib_hm1": (float, 1.0)}
CONFIG = {   # the top level, with "name" (default: the file or preset name)
    "grid": (dict, REQUIRED),
    "coefficients": (dict, REQUIRED),
    "solver": (dict, {}),
    "sweep": (dict, REQUIRED),
    "eri": (dict, {}),
    "calibration": (dict, {}),
    "output_dir": (str, "out"),
}


def _coefficient_tables() -> dict:
    """One table per coefficient kind: its kind plus the CoefficientSpec
    fields it reads; a field whose dataclass default is None has none."""
    hints = typing.get_type_hints(CoefficientSpec)
    spec = {}
    for f in dataclasses.fields(CoefficientSpec):
        typ = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]   # int | None: int
        spec[f.name] = (typ, REQUIRED if f.default in (None, dataclasses.MISSING) else f.default)
    return {
        kind: {key: spec[key] for key in ("kind", *names)} for kind, names in KIND_FIELDS.items()
    }


COEFFICIENTS = _coefficient_tables()


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: Grid
    coefficients: CoefficientSpec
    solver_m: int
    solver_tol: float
    sweep_n: tuple[int, ...]
    sweep_eps: tuple[float, ...]
    sweep_norms: tuple[str, ...]
    eri_enabled: bool
    eri_n: int
    eri_eps: float
    eri_sample_seed: int
    calib_l2: float
    calib_hm1: float
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)


def _typed(value, typ: type, where: str):
    """value as a `typ`; a bool is never a number, an int is a float."""
    accepted = (int, float) if typ is float else typ
    if isinstance(value, bool) != (typ is bool) or not isinstance(value, accepted):
        raise ConfigError(where, f"expected {typ.__name__}, got {type(value).__name__} {value!r}")
    if typ is float:
        try:
            value = float(value)
        except OverflowError:   # an int past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(where, f"must be finite, got {value}")
    return value


def _read(doc, where: str, table: dict) -> dict:
    """Every field of `table` read from the JSON object `doc`: typed, or
    its default when absent.  Lists come back as tuples."""
    if not isinstance(doc, dict):
        raise ConfigError(where, f"expected a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in table:
            raise ConfigError(f"{where}.{key}", f"unknown field (fields: {', '.join(table)})")
    out = {}
    for key, (typ, default) in table.items():
        path = f"{where}.{key}"
        if key not in doc:
            if default is REQUIRED:
                raise ConfigError(path, "missing required field")
            out[key] = default
        elif isinstance(typ, list):
            items = _typed(doc[key], list, path)
            out[key] = tuple(_typed(x, typ[0], f"{path}[{i}]") for i, x in enumerate(items))
        else:
            out[key] = _typed(doc[key], typ, path)
    return out


def _distinct(values: tuple, where: str) -> None:
    if not values or len(set(values)) != len(values):
        raise ConfigError(where, f"must be a nonempty list without repeats, got {list(values)}")


def parse_config(doc: dict, name: str = "config") -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    top = _read(doc, "config", {"name": (str, name), **CONFIG})

    g = _read(top["grid"], "grid", GRID)
    try:
        grid = make_grid(g["dimension"], g["lengths"], g["points"], g["boundary"])
    except GridError as exc:
        raise ConfigError(f"grid.{exc.field}", str(exc)) from exc

    kind = top["coefficients"].get("kind")
    if not isinstance(kind, str) or kind not in COEFFICIENTS:
        raise ConfigError("coefficients.kind", f"must be one of {list(COEFFICIENTS)}, got {kind!r}")
    fields = _read(top["coefficients"], "coefficients", COEFFICIENTS[kind])
    try:
        spec = CoefficientSpec(**fields)
    except CoefficientError as exc:
        raise ConfigError(f"coefficients.{exc.field}", str(exc)) from exc

    solver = _read(top["solver"], "solver", SOLVER)
    m, cap = solver["m"], weyl_regime_cap(grid)
    if not 1 <= m <= cap:
        raise ConfigError(
            "solver.m",
            f"must be in [1, {cap}] ({cap} is the quarter-resolution cap where the "
            f"discrete spectrum still tracks the continuum on this grid), got {m}",
        )
    if not solver["tol"] > 0:
        raise ConfigError("solver.tol", f"must be positive, got {solver['tol']}")

    sweep = _read(top["sweep"], "sweep", SWEEP)
    n_list, eps_list, norms = sweep["n"], sweep["eps"], sweep["norms"]
    _distinct(n_list, "sweep.n")
    if not all(1 <= n <= m for n in n_list):
        raise ConfigError("sweep.n", f"entries must be in [1, solver.m={m}], got {list(n_list)}")
    _distinct(eps_list, "sweep.eps")
    if any(not e > 0 for e in eps_list) or list(eps_list) != sorted(eps_list, reverse=True):
        raise ConfigError("sweep.eps", f"must be positive and descending, got {list(eps_list)}")
    _distinct(norms, "sweep.norms")
    if not set(norms) <= {L2, HM1}:
        raise ConfigError("sweep.norms", f"entries must be {L2!r} or {HM1!r}, got {list(norms)}")

    eri = _read(top["eri"], "eri", ERI)
    if eri["enabled"]:
        if not 1 <= eri["n"] <= m:
            raise ConfigError("eri.n", f"must be in [1, solver.m={m}], got {eri['n']}")
        if not eri["eps"] > 0:
            raise ConfigError("eri.eps", f"must be positive, got {eri['eps']}")
        if not 0 <= eri["sample_seed"] < 2**64:
            raise ConfigError("eri.sample_seed", f"must be in [0, 2**64), got {eri['sample_seed']}")

    calib = _read(top["calibration"], "calibration", CALIBRATION)
    for key, value in calib.items():
        if not value > 0:
            raise ConfigError(f"calibration.{key}", f"must be positive, got {value}")

    return ExperimentConfig(
        name=top["name"],
        grid=grid,
        coefficients=spec,
        solver_m=m,
        solver_tol=solver["tol"],
        sweep_n=n_list,
        sweep_eps=eps_list,
        sweep_norms=norms,
        eri_enabled=eri["enabled"],
        eri_n=eri["n"],
        eri_eps=eri["eps"],
        eri_sample_seed=eri["sample_seed"],
        calib_l2=calib["calib_l2"],
        calib_hm1=calib["calib_hm1"],
        output_dir=top["output_dir"],
        raw=doc,
    )


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Load a config from a JSON file path, or by preset name."""
    if os.path.exists(path_or_preset):
        name = os.path.splitext(os.path.basename(path_or_preset))[0]
        try:
            with open(path_or_preset, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path_or_preset}: {exc}") from exc
    elif path_or_preset in PRESETS:
        name = path_or_preset
        text = resources.files("eigenrank").joinpath(f"presets/{name}.json").read_text()
    else:
        raise ConfigError(
            "config",
            f"{path_or_preset!r} is neither a file nor a preset (presets: {', '.join(PRESETS)})",
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path_or_preset}: {exc}") from exc
    return parse_config(doc, name=name)
