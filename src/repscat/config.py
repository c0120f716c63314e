"""Declarative experiment configs (YAML key/value blocks) and their validation."""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigurationError, check_integer
from .grids import Grid, WaveFunction, gaussian, make_grid
from .potentials import PRESETS, QuadraticSpec, RepulsiveSpec

EXPERIMENT_KINDS = (
    "propagate",
    "cook",
    "wave-operator",
    "velocity",
    "classical",
    "mourre-scan",
    "convergence",
)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict
    seed: int

    def digest(self) -> str:
        canon = json.dumps({"config": self.raw, "seed": self.seed}, sort_keys=True,
                           default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path, seed_override: Optional[int] = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a mapping")
    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigurationError(
            f"{path}: field 'experiment' must be one of {EXPERIMENT_KINDS}, got {kind!r}"
        )
    seed = seed_override if seed_override is not None else int(raw.get("seed", 0))
    return ExperimentConfig(kind=kind, raw=raw, seed=seed)


def require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigurationError(f"{context}: missing required field '{key}'")
    return block[key]


def _real(value, key: str) -> float:
    """A real config value; booleans are refused rather than read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number, got {value!r}")


def _boolean(value, key: str) -> bool:
    """A YAML boolean; strings such as "no" are refused rather than read as true."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def _reals(values, key: str) -> list:
    """A list of real config values; item i is named key[i] in errors."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{key} must be a list of numbers, got {values!r}")
    return [_real(v, f"{key}[{i}]") for i, v in enumerate(values)]


def _axis_reals(value, key: str, dims: int):
    """One real for every axis, or a list of `dims` reals (one per axis)."""
    if not isinstance(value, (list, tuple)):
        return _real(value, key)
    if len(value) != dims:
        raise ConfigurationError(
            f"{key} must be a number or a list of {dims} numbers (one per axis), got {value!r}")
    return _reals(value, key)


def _mapping(block, key: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigurationError(f"{key} must be a mapping, got {block!r}")
    return block


def build_grid(block: dict) -> Grid:
    _mapping(block, "grid")
    return make_grid(
        dims=check_integer(block.get("dims", 1), "grid.dims"),
        points_per_dim=check_integer(require(block, "points", "grid"), "grid.points"),
        half_width=_real(require(block, "half_width", "grid"), "grid.half_width"),
    )


def build_state(block: dict, grid: Grid) -> WaveFunction:
    _mapping(block, "state")
    kind = block.get("kind", "gaussian")
    if kind != "gaussian":
        raise ConfigurationError(f"state: unknown kind {kind!r}")
    width = _real(block.get("width", 1.0), "state.width")
    if not width > 0:
        raise ConfigurationError(f"state.width must be > 0, got {width!r}")
    return gaussian(
        grid,
        center=_axis_reals(block.get("center", 0.0), "state.center", grid.dims),
        width=width,
        momentum=_axis_reals(block.get("momentum", 0.0), "state.momentum", grid.dims),
    )


def build_repulsive(block: dict) -> RepulsiveSpec:
    _mapping(block, "hamiltonian.repulsive")
    return RepulsiveSpec(
        alpha=_real(require(block, "alpha", "hamiltonian.repulsive"),
                    "hamiltonian.repulsive.alpha"),
        regularized=_boolean(block.get("regularized", True),
                             "hamiltonian.repulsive.regularized"),
    )


def build_quadratic(block: dict, dims: int) -> QuadraticSpec:
    _mapping(block, "hamiltonian.quadratic")
    counts = {key: check_integer(block.get(key, 0), f"hamiltonian.quadratic.{key}", minimum=0)
              for key in ("n_minus", "n_plus", "n_E")}
    return QuadraticSpec(
        dims=dims,
        **counts,
        omegas=_reals(block.get("omegas", ()), "hamiltonian.quadratic.omegas"),
        fields=_reals(block.get("fields", ()), "hamiltonian.quadratic.fields"),
    )


def build_perturbation(block: Optional[dict]):
    """Symbolic preset or raw sample table (one value per grid point, in the
    grid's row-major order; the caller checks its length); None means V = 0."""
    if block is None:
        return None
    _mapping(block, "hamiltonian.perturbation")
    if "preset" in block:
        name = block["preset"]
        if name not in PRESETS:
            raise ConfigurationError(
                f"perturbation: unknown preset {name!r}; available {sorted(PRESETS)}"
            )
        factory = PRESETS[name]
        args = block.get("args", {})
        try:
            inspect.signature(factory).bind(**args)
        except TypeError as exc:
            raise ConfigurationError(f"hamiltonian.perturbation.args: {exc}") from exc
        return factory(**{name: _real(value, f"hamiltonian.perturbation.args.{name}")
                          for name, value in args.items()})
    if "table" in block:
        return np.asarray(_reals(block["table"], "hamiltonian.perturbation.table"))
    raise ConfigurationError("perturbation block needs 'preset' or 'table'")


def build_schedule(block: dict) -> np.ndarray:
    _mapping(block, "schedule")
    if "times" in block:
        times = np.asarray(_reals(block["times"], "schedule.times"))
    else:
        start = _real(require(block, "start", "schedule"), "schedule.start")
        stop = _real(require(block, "stop", "schedule"), "schedule.stop")
        count = check_integer(require(block, "count", "schedule"), "schedule.count", minimum=1)
        spacing = block.get("spacing", "linear")
        if spacing == "geometric":
            times = np.geomspace(start, stop, count)
        elif spacing == "linear":
            times = np.linspace(start, stop, count)
        else:
            raise ConfigurationError(f"schedule: unknown spacing {spacing!r}")
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ConfigurationError("schedule times must be positive and increasing")
    return times


def format_float(x) -> object:
    """JSON-safe value with shortest round-trip float text (bit-stable)."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(repr(x))
