"""Experiment configuration: JSON documents and shipped presets.

A config is one JSON object with blocks grid / coefficients / solver /
sweep / eri / calibration plus an output directory.  All randomness flows
from explicit seeds in the document.  Parse errors carry the offending
field path so the CLI can point at it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .grid import DIRICHLET, MIN_POINTS, PERIODIC, Grid, make_grid
from .operator import CoefficientSpec, weyl_regime_cap

PRESETS = ("flat-1d", "flat-2d", "harmonic-1d", "random-2d")


class ConfigError(ValueError):
    """Invalid configuration; `where` names the field."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


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


def _get(doc, where, key, kind, default=None, required=True):
    if key not in doc:
        if required:
            raise ConfigError(f"{where}.{key}", "missing required field")
        return default
    value = doc[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    raise ConfigError(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")


def parse_config(doc: dict, name: str = "config") -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")

    gblock = _get(doc, "config", "grid", dict)
    d = _get(gblock, "grid", "dimension", int)
    if d not in (1, 2, 3):
        raise ConfigError("grid.dimension", f"must be 1, 2 or 3, got {d}")
    lengths = _get(gblock, "grid", "lengths", list)
    points = _get(gblock, "grid", "points", list)
    boundary = _get(gblock, "grid", "boundary", str, default=DIRICHLET, required=False)
    if boundary not in (DIRICHLET, PERIODIC):
        raise ConfigError("grid.boundary", f"must be dirichlet or periodic, got {boundary!r}")
    try:
        lengths = tuple(float(x) for x in lengths)
        points = tuple(int(x) for x in points)
    except (TypeError, ValueError) as exc:
        raise ConfigError("grid", f"lengths/points must be numeric lists: {exc}") from exc
    if len(lengths) != d or len(points) != d:
        raise ConfigError("grid", f"lengths and points must each have {d} entries")
    if any(L <= 0 for L in lengths):
        raise ConfigError("grid.lengths", f"must be positive, got {lengths}")
    if any(p < MIN_POINTS for p in points):
        raise ConfigError("grid.points", f"must be >= {MIN_POINTS} per axis, got {points}")
    grid = make_grid(d, lengths, points, boundary)

    cblock = _get(doc, "config", "coefficients", dict)
    kind = _get(cblock, "coefficients", "kind", str)
    try:
        if kind == "constant":
            spec = CoefficientSpec.constant(
                a0=_get(cblock, "coefficients", "a0", float, default=1.0, required=False),
                v0=_get(cblock, "coefficients", "v0", float, default=0.0, required=False),
            )
        elif kind == "harmonic":
            spec = CoefficientSpec.harmonic(
                a0=_get(cblock, "coefficients", "a0", float, default=1.0, required=False),
                v_scale=_get(cblock, "coefficients", "v_scale", float, default=1.0, required=False),
            )
        elif kind == "random_fourier":
            spec = CoefficientSpec.random_fourier(
                seed=_get(cblock, "coefficients", "seed", int),
                cutoff=_get(cblock, "coefficients", "cutoff", int, default=4, required=False),
                a_amplitude=_get(
                    cblock, "coefficients", "a_amplitude", float, default=0.3, required=False
                ),
                v_amplitude=_get(
                    cblock, "coefficients", "v_amplitude", float, default=0.0, required=False
                ),
                a0=_get(cblock, "coefficients", "a0", float, default=1.0, required=False),
            )
        else:
            raise ConfigError("coefficients.kind", f"unknown kind {kind!r}")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("coefficients", str(exc)) from exc

    sblock = _get(doc, "config", "solver", dict, default={}, required=False)
    m = _get(sblock, "solver", "m", int, default=64, required=False)
    tol = _get(sblock, "solver", "tol", float, default=1e-9, required=False)
    if m < 1:
        raise ConfigError("solver.m", f"must be >= 1, got {m}")
    if not tol > 0:
        raise ConfigError("solver.tol", f"must be positive, got {tol}")
    cap = weyl_regime_cap(grid)
    if m > cap:
        raise ConfigError(
            "solver.m",
            f"must be <= {cap} (the quarter-resolution cap where the discrete "
            f"spectrum still tracks the continuum on this grid), got {m}",
        )

    wblock = _get(doc, "config", "sweep", dict)
    n_list = _get(wblock, "sweep", "n", list)
    eps_list = _get(wblock, "sweep", "eps", list)
    norms = tuple(_get(wblock, "sweep", "norms", list, default=["l2", "hm1"], required=False))
    try:
        n_list = tuple(int(x) for x in n_list)
        eps_list = tuple(float(x) for x in eps_list)
    except (TypeError, ValueError) as exc:
        raise ConfigError("sweep", f"n/eps must be numeric lists: {exc}") from exc
    if not n_list:
        raise ConfigError("sweep.n", "must be a nonempty list")
    if any(n < 1 for n in n_list):
        raise ConfigError("sweep.n", f"entries must be >= 1, got {n_list}")
    if any(n > m for n in n_list):
        raise ConfigError("sweep.n", f"entries must be <= solver.m={m}, got {n_list}")
    if not eps_list or any(not e > 0 for e in eps_list):
        raise ConfigError("sweep.eps", f"entries must be positive, got {eps_list}")
    if list(eps_list) != sorted(eps_list, reverse=True):
        raise ConfigError("sweep.eps", "entries must be sorted descending")
    for nm in norms:
        if nm not in ("l2", "hm1"):
            raise ConfigError("sweep.norms", f"entries must be 'l2' or 'hm1', got {nm!r}")

    eblock = _get(doc, "config", "eri", dict, default={}, required=False)
    eri_enabled = _get(eblock, "eri", "enabled", bool, default=False, required=False)
    eri_n = _get(eblock, "eri", "n", int, default=8, required=False)
    eri_eps = _get(eblock, "eri", "eps", float, default=1e-2, required=False)
    eri_seed = _get(eblock, "eri", "sample_seed", int, default=20240801, required=False)
    if eri_enabled:
        if eri_n < 1 or eri_n > m:
            raise ConfigError("eri.n", f"must be in [1, solver.m={m}], got {eri_n}")
        if not eri_eps > 0:
            raise ConfigError("eri.eps", f"must be positive, got {eri_eps}")

    kblock = _get(doc, "config", "calibration", dict, default={}, required=False)
    calib_l2 = _get(kblock, "calibration", "calib_l2", float, default=1.0, required=False)
    calib_hm1 = _get(kblock, "calibration", "calib_hm1", float, default=1.0, required=False)
    if not calib_l2 > 0 or not calib_hm1 > 0:
        raise ConfigError("calibration", "constants must be positive")

    out_dir = _get(doc, "config", "output_dir", str, default="out", required=False)

    return ExperimentConfig(
        name=_get(doc, "config", "name", str, default=name, required=False),
        grid=grid,
        coefficients=spec,
        solver_m=m,
        solver_tol=tol,
        sweep_n=n_list,
        sweep_eps=eps_list,
        sweep_norms=norms,
        eri_enabled=eri_enabled,
        eri_n=eri_n,
        eri_eps=eri_eps,
        eri_sample_seed=eri_seed,
        calib_l2=calib_l2,
        calib_hm1=calib_hm1,
        output_dir=out_dir,
        raw=doc,
    )


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Load a config from a JSON file path, or by preset name."""
    import os

    if os.path.exists(path_or_preset):
        with open(path_or_preset) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"invalid JSON in {path_or_preset}: {exc}") from exc
        name = os.path.splitext(os.path.basename(path_or_preset))[0]
        return parse_config(doc, name=name)
    if path_or_preset in PRESETS:
        return load_preset(path_or_preset)
    raise ConfigError(
        "config",
        f"{path_or_preset!r} is neither a file nor a preset (presets: {', '.join(PRESETS)})",
    )


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("config", f"unknown preset {name!r} (presets: {', '.join(PRESETS)})")
    text = resources.files("eigenrank").joinpath(f"presets/{name}.json").read_text()
    return parse_config(json.loads(text), name=name)
