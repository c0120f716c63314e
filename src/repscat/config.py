"""Declarative experiment configs: one key table per experiment kind and per
shared block, read and checked in one place before any work starts.

A table maps each accepted key to (reader, default): `reader(value, path)`
returns the typed value or raises a ConfigurationError naming the key path.
The default REQUIRED means the key must be given; None leaves it unset.  A
key given as null counts as left out, and any other key is refused.  The
rules that join blocks run after the tables, in `_check_on_grid`.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import yaml

from .classical import PhasePoint, check_fit_window
from .errors import ConfigurationError, check_integer, check_width
from .grids import make_grid
from .mehler import _checked_factors
from .phasespace import _shell_brackets
from .potentials import PRESETS, QuadraticSpec, RepulsiveSpec, _check_alpha, p_alpha

# CPython's built-in SHA-256: hashlib would load OpenSSL's libcrypto into every
# cold start (3.6 MB resident) for one 16-hex-digit digest.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:  # a build without the built-in modules
        from hashlib import sha256 as _sha256

REQUIRED = object()

#: Ceilings of a run's steps, refused before any array exists: Strang steps
#: times grid points on the split-step route, and leapfrog steps of a
#: classical flow.  The largest sample configs use under 1% of each:
#: velocity_alpha1 4000 steps x 4096 points (0.82%), classical_kappa 1.6e5
#: steps (0.8%).
MAX_STRANG_POINT_STEPS = 2 * 10**9
MAX_LEAPFROG_STEPS = 2 * 10**7
#: Ceilings of the sizes a config names outright, refused as the key is read,
#: before anything is sized by them: the times of a start/stop/count schedule
#: (cook_log_coupling's 25 are 0.25%) and the points of a Mourre shell scan
#: (mourre_scan's 10 000 are 1%).
MAX_SCHEDULE_COUNT = 10**4
MAX_SCAN_SAMPLES = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """A raw config of one experiment kind and its seed (None: the config's
    own `seed` key).  `values` are raw's checked values, read once through
    read_config on first use; the constructor only compares `kind` with
    raw's `experiment`, so a config built with its seed is read inside the
    run that uses it."""

    kind: str
    raw: dict
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind != self.raw.get("experiment"):
            raise ConfigurationError(f"kind {self.kind!r} does not match the config's "
                                     f"experiment {self.raw.get('experiment')!r}")
        if self.seed is None:
            object.__setattr__(self, "seed", self.values["seed"])

    @cached_property
    def values(self) -> dict:
        return read_config(self.raw)

    def digest(self) -> str:
        canon = json.dumps({"config": self.raw, "seed": self.seed}, sort_keys=True,
                           default=str)
        return _sha256(canon.encode()).hexdigest()[:16]


def load_config(path, seed_override: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"{path}: cannot read config: {reason}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a mapping")
    cfg = ExperimentConfig(kind=raw.get("experiment"), raw=raw, seed=seed_override)
    cfg.values  # read and checked here, before any output exists
    return cfg


def read_config(raw: dict) -> dict:
    """The config's values, read through the table of its experiment kind and
    checked by every rule that the values alone decide."""
    kind = raw.get("experiment")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigurationError(f"experiment must be one of {tuple(KINDS)}, got {kind!r}")
    values = _read(KINDS[kind], raw, "", f"a {kind} config")
    if "grid" in values:
        _check_on_grid(kind, values)
    if kind == "classical":
        t, dt = values["t_final"], values["dt"]
        _bounded("dt", f"the work of {t}/{dt} leapfrog steps", lambda: t / dt,
                 "raise the time step or shorten the time", MAX_LEAPFROG_STEPS)
        _built(check_fit_window, "t_final", t_final=t, dt=dt, record_every=values["record_every"])
    if kind == "mourre-scan":
        # {h, a} is largest at the outermost shell points, if the shell is
        # real there; past the float range a scan publishes NaN or false violations
        E, r = values["E"], values["radius_range"][1]
        _bounded("radius_range", f"the Poisson bracket on the energy shell at |x| = {r:.4g} "
                 f"with E = {E:.4g}", lambda: np.max(np.abs(_shell_brackets(
                     values["alpha"], E, np.array([r]))[3]), initial=0.0),
                 "shrink radius_range or |E|")
    return values


def _read(table: dict, block, key: str, what: str) -> dict:
    _mapping(block, key)
    prefix = f"{key}." if key else ""
    for name in block:
        if name not in table:
            raise ConfigurationError(
                f"unknown key {prefix}{name}: {what} takes only {', '.join(table)}")
    values = {}
    for name, (reader, default) in table.items():
        value = block.get(name)
        if value is None and default is REQUIRED:
            raise ConfigurationError(f"{prefix}{name} must be given")
        value = default if value is None else value
        values[name] = None if value is None else reader(value, prefix + name)
    return values


def _block(table: dict, finish=lambda values, key: values):
    """Reader of a nested block: its keys through `table`, then `finish`."""
    return lambda block, key: finish(_read(table, block, key, key), key)


def _real(value, key: str) -> float:
    """A finite real; booleans are refused rather than read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ConfigurationError(f"{key} must be a finite number, got {value!r}")


def _range(test, words: str):
    """`_real` restricted to the numbers that pass `test`."""
    def read(value, key):
        x = _real(value, key)
        if not test(x):
            raise ConfigurationError(f"{key} must be {words}, got {value!r}")
        return x
    return read


def _alpha(value, key: str) -> float:
    return _check_alpha(_real(value, key))


def _boolean(value, key: str) -> bool:
    """A YAML boolean; strings such as "no" are refused rather than read as true."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def _list_of(item):
    """Reader of a list of numbers, each read by `item`; entry i is named key[i]."""
    def read(values, key):
        if not isinstance(values, (list, tuple)):
            raise ConfigurationError(f"{key} must be a list of numbers, got {values!r}")
        return [item(v, f"{key}[{i}]") for i, v in enumerate(values)]
    return read


_positive = _range(lambda x: x > 0, "> 0")
_nonnegative = _range(lambda x: x >= 0, ">= 0")
_reals = _list_of(_real)


def _axis_reals(value, key: str):
    """One real for every axis, or a list of reals (`_check_on_grid` checks its length)."""
    return _reals(value, key) if isinstance(value, (list, tuple)) else _real(value, key)


def _increasing(values, key: str) -> list:
    """Positive, strictly increasing numbers: schedule times, wave-operator
    horizons, a Mourre scan's radius range."""
    numbers = _reals(values, key)
    if not numbers or numbers[0] <= 0 or any(b <= a for a, b in zip(numbers, numbers[1:])):
        raise ConfigurationError(
            f"{key} must be a nonempty list of positive, strictly increasing numbers, "
            f"got {values!r}")
    return numbers


def _counted(reader, least: int, most=math.inf):
    """`reader` for a list of `least` to `most` entries."""
    def read(values, key):
        out = reader(values, key)
        if not least <= len(out) <= most:
            count = least if least == most else f"at least {least}"
            raise ConfigurationError(f"{key} must be a list of {count} values, got {values!r}")
        return out
    return read


def _choice(*options):
    def read(value, key):
        if not isinstance(value, str) or value not in options:
            raise ConfigurationError(f"{key} must be one of {options}, got {value!r}")
        return value
    return read


def _count(minimum, ceiling=math.inf):
    def read(value, key):
        count = check_integer(value, key, minimum=minimum)
        _bounded(key, "the count", lambda: count, "lower it", ceiling)
        return count
    return read


def _file_name(value, key: str) -> str:
    """A plain file name, written inside the output directory."""
    if (not isinstance(value, str) or value in ("", ".", "..") or "\0" in value
            or os.path.basename(value) != value):
        raise ConfigurationError(
            f"{key} must be a plain file name with no directory part, got {value!r}")
    return value


def _perturbation(values: dict, key: str):
    """Symbolic preset, or raw sample table (one value per grid point, in the
    grid's row-major order; `_check_on_grid` checks its length)."""
    preset, args, table = values["preset"], values["args"], values["table"]
    if (preset is None) == (table is None) or (preset is None and args is not None):
        raise ConfigurationError(f"{key} must be given as a preset (with its args) or a table")
    if table is not None:
        return np.asarray(table)
    factory = PRESETS[preset]
    args = args or {}
    try:
        inspect.signature(factory).bind(**args)
    except TypeError as exc:
        raise ConfigurationError(f"{key}.args: {exc}") from exc
    return _built(factory, f"{key}.args",
                  **{name: _real(value, f"{key}.args.{name}") for name, value in args.items()})


def _schedule(values: dict, key: str) -> np.ndarray:
    start_stop_count = [values[name] for name in ("start", "stop", "count")]
    if values["times"] is not None and start_stop_count == [None] * 3:
        return np.asarray(values["times"])
    if values["times"] is not None or None in start_stop_count:
        raise ConfigurationError(f"{key} must be given as times or as start, stop and count")
    spread = np.geomspace if values["spacing"] == "geometric" else np.linspace
    return np.asarray(_increasing(spread(*start_stop_count).tolist(), key))


def _mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be a mapping, got {value!r}")
    return value


def _built(cls, key: str, **fields):
    """cls(**fields), whose own ConfigurationError is prefixed with the key
    (cls may be any callable)."""
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


def _check_on_grid(kind: str, v: dict):
    """The rules that combine the grid, state and hamiltonian blocks.  The
    quadratic block becomes a QuadraticSpec, and a table is reshaped to the grid."""
    grid, ham = v["grid"], v["hamiltonian"]
    for name, value in v["state"].items():
        if isinstance(value, list) and len(value) != grid.dims:
            raise ConfigurationError(f"state.{name} must be a number or a list of "
                                     f"{grid.dims} numbers (one per axis), got {value!r}")
    quad, pert = ham["quadratic"], ham["perturbation"]
    if quad is not None:
        quad = ham["quadratic"] = _built(QuadraticSpec, "hamiltonian.quadratic",
                                         dims=grid.dims, **quad)
        # the quadratic route evolves the factorized saddle alone
        refused = {"velocity": ("repulsive", "perturbation"), "cook": ("repulsive",),
                   "wave-operator": ("repulsive",)}.get(kind, ())
        for key in refused:
            if ham[key] is not None:
                raise ConfigurationError(
                    f"hamiltonian.{key}: the quadratic (factorized) route of this experiment "
                    f"cannot include it; drop hamiltonian.{key} or hamiltonian.quadratic")
    if kind == "wave-operator" and (quad is None or quad.n_plus > 0 or pert is None):
        raise ConfigurationError("wave operators need hamiltonian.perturbation and a "
                                 "hamiltonian.quadratic with n_plus = 0 (no confining axis)")
    split_step = quad is None or (kind == "propagate"
                                  and (ham["repulsive"] is not None or pert is not None))
    latest = {"propagate": "t", "velocity": "schedule", "cook": "schedule",
              "wave-operator": "horizons"}.get(kind)
    points = grid.points_per_dim ** grid.dims
    L = grid.half_width
    if split_step and "dt" in v and v["dt"] is None:
        raise ConfigurationError("dt must be given: the split-step route needs a time step")
    step = (("dt_sequence", abs(v["t"]), min(v["dt_sequence"])) if kind == "convergence" else
            ("dt", float(np.max(np.abs(v[latest]))), v["dt"]) if split_step and "dt" in v
            else None)
    if step is not None:
        key, t, dt = step
        _bounded(key, f"the work of {t}/{dt} Strang steps over {points} point(s) each",
                 lambda: t / dt * points, "raise the time step or shorten the time",
                 MAX_STRANG_POINT_STEPS)
    if split_step and kind == "velocity":
        t, reach = v["schedule"][0], math.sqrt(grid.dims) * L
        alphas = (v["alpha"], 2.0) if v["per_direction"] else (v["alpha"],)
        _bounded("schedule", f"at the first time t={t} the mean of p_alpha(x)/t at the box's "
                 f"reach {reach:.4g}", lambda: max(p_alpha(reach, a) for a in alphas) / t,
                 "move the first time away from 0")
    # each factored-route time takes mehler's one time check (off the
    # kernel's singular times, g_k(2t) and h_k(2t) finite) and, unless it is
    # 0 (no chirp), a finite chirp phase on the box.  g_k(2t) grows with t on
    # every axis the factored route takes, so the last time's factors give
    # the dilated lattice's farthest point, where the cell rule evaluates a
    # preset or p_alpha
    corner, far = (L,) * grid.dims, f"the box corner (L, ..., L), L = {L:.4g}"
    if not split_step and latest is not None:
        for t in np.atleast_1d(v[latest]):
            fac = _built(_checked_factors, latest, t=float(t), spec=quad)
            if fac.t != 0.0:
                _bounded(latest, f"at t={fac.t} the chirp phase L^2 max|h_k/(2 g_k)| + |t| "
                         "max|E_k| L/2", lambda: L * L * np.max(np.abs(fac.h / (2.0 * fac.g)))
                         + abs(fac.t) * max(map(abs, quad.axis_fields)) * L / 2.0,
                         "move the time away from 0")
        if kind != "propagate":
            reach = float(np.max(np.abs(grid.freq_nodes))) + grid.freq_spacing / 2.0
            far = f"the dilated lattice's corner (g_k(2t) (max|xi| + h/2))_k at t={fac.t}"
            _bounded(latest, f"|x|^2 at {far}", lambda: np.sum(np.square(fac.g * reach)),
                     "shorten the times")
            corner = tuple(np.abs(fac.g) * reach)
    if pert is not None and not callable(pert):
        if quad is not None and kind in ("cook", "wave-operator"):
            raise ConfigurationError("hamiltonian.perturbation: quadratic-route experiments "
                                     "need a symbolic perturbation preset; a table cannot be "
                                     "evaluated at dilated coordinates")
        if pert.size != points:
            raise ConfigurationError(
                f"hamiltonian.perturbation.table must hold one value per grid point "
                f"({points}), got {pert.size}")
        ham["perturbation"] = pert.reshape(grid.shape)
    if pert is not None and kind in ("cook", "wave-operator"):
        # a Cook scan squares V wherever it evaluates it; every preset is
        # monotone in |x|, so the origin and the farthest point bound |V|
        table = not callable(pert)
        _bounded("hamiltonian.perturbation",
                 "V^2 at the table's largest |value|" if table
                 else f"V^2 at the origin and at {far}",
                 lambda: np.max(np.square(
                     pert if table else [pert(*np.zeros(grid.dims)), pert(*corner)])),
                 "lower its height or its growth in |x|, or shorten the times")
    if kind == "velocity" and grid.dims > 1 and (quad is None or v["histogram_csv"]):
        raise ConfigurationError("an n-D velocity run needs hamiltonian.quadratic and takes no "
                                 "histogram_csv: split-step snapshots and histograms are 1-D")


def _bounded(key: str, what: str, form, advice: str, ceiling=math.inf):
    """Refuse the number form() makes unless it is finite and at most
    `ceiling`: the one float-range and work rule of read_config.  numpy's
    overflow, divide-by-zero and invalid operations raise inside form(), and
    a Python float's `**` raises OverflowError, while its `*` and `/` go to
    inf without a word, so each of these counts as an overflow.  An
    underflow to 0 or to a subnormal is a finite float and passes."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            x = float(form())
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(f"{key}: {what} is not finite (it overflows a float); {advice}")
    if x > ceiling:
        raise ConfigurationError(
            f"{key}: {what} is {x:.10g}, past the {ceiling:.0e} a run may take; {advice}")


GRID = _block({"dims": (check_integer, 1), "points": (check_integer, REQUIRED),
               "half_width": (_real, REQUIRED)},
              lambda v, key: _built(make_grid, key, dims=v["dims"], points_per_dim=v["points"],
                                    half_width=v["half_width"]))
STATE = _block({"width": (lambda value, key: check_width(_real(value, key), key), 1.0),
                "center": (_axis_reals, 0.0), "momentum": (_axis_reals, 0.0)})
HAMILTONIAN = _block({
    "quadratic": (_block({"n_minus": (_count(0), 0), "n_plus": (_count(0), 0),
                          "n_E": (_count(0), 0), "omegas": (_reals, ()),
                          "fields": (_reals, ())}), None),
    "repulsive": (_block({"alpha": (_real, REQUIRED), "regularized": (_boolean, True)},
                         lambda v, key: _built(RepulsiveSpec, key, **v)), None),
    "perturbation": (_block({"preset": (_choice(*PRESETS), None), "args": (_mapping, None),
                             "table": (_reals, None)}, _perturbation), None),
})
SCHEDULE = _block({"times": (_increasing, None), "start": (_positive, None),
                   "stop": (_positive, None), "count": (_count(1, MAX_SCHEDULE_COUNT), None),
                   "spacing": (_choice("linear", "geometric"), "linear")}, _schedule)
START = _block({"x": (_axis_reals, REQUIRED), "xi": (_axis_reals, REQUIRED)},
               lambda v, key: _built(PhasePoint, key, **v))

_COMMON = {"experiment": (lambda value, key: value, REQUIRED), "seed": (check_integer, 0)}
_ON_GRID = {**_COMMON, "grid": (GRID, REQUIRED), "state": (STATE, {}),
            "hamiltonian": (HAMILTONIAN, REQUIRED)}

#: The accepted keys of each experiment kind; experiments.py has one runner per kind.
KINDS = {
    "propagate": {**_ON_GRID, "t": (_real, REQUIRED), "dt": (_positive, None)},
    "cook": {**_ON_GRID, "schedule": (_counted(SCHEDULE, 4), REQUIRED), "dt": (_positive, None),
             "expected_exponent": (_real, None), "tol": (_nonnegative, 0.3),
             "csv": (_file_name, None)},
    "wave-operator": {**_ON_GRID, "horizons": (_counted(_increasing, 2), REQUIRED)},
    "velocity": {**_ON_GRID, "alpha": (_alpha, REQUIRED), "schedule": (SCHEDULE, REQUIRED),
                 "dt": (_positive, None), "tol": (_nonnegative, None),
                 "per_direction": (_boolean, False), "csv": (_file_name, None),
                 "histogram_csv": (_file_name, None)},
    "classical": {**_COMMON, "alpha": (_alpha, REQUIRED), "t_final": (_nonnegative, REQUIRED),
                  "dt": (_positive, 1e-3), "tol": (_nonnegative, None), "start": (START, None),
                  "regularized": (_boolean, True), "record_every": (_count(1), 10),
                  "csv": (_file_name, None)},
    "mourre-scan": {**_COMMON, "alpha": (_alpha, REQUIRED), "E": (_real, REQUIRED),
                    "eta": (_positive, REQUIRED),
                    "radius_range": (_counted(_increasing, 2, 2), (0.5, 50.0)),
                    "samples": (_count(1, MAX_SCAN_SAMPLES), 10_000), "csv": (_file_name, None)},
    "convergence": {**_ON_GRID, "t": (_real, REQUIRED),
                    "dt_sequence": (_counted(_list_of(_positive), 4), REQUIRED),
                    "tol": (_nonnegative, 0.1)},
}

