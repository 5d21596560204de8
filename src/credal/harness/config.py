"""Experiment configuration: schema validation, presets, and config hashing.

Configs are JSON documents with a required ``schema_version``.  Every
experiment ships a ``desk`` preset (minutes on one core) and a ``paper``
preset (full table scale); a config file overlays the preset, and CLI
flags overlay either and are validated like its keys.  Unknown keys are
rejected everywhere so a typo cannot silently change an experiment, and
the preset table is the params schema: each given param must have the JSON
shape of its preset value.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from credal.measures import DiscreteGrid, Gaussian, ValidationError

SCHEMA_VERSION = 3

_TOP_KEYS = {"schema_version", "experiment", "preset", "seed", "delta", "params"}


class ConfigError(ValueError):
    """Configuration document violates the schema."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    preset: str
    seed: int
    delta: float
    params: Mapping[str, Any] = field(default_factory=dict)

    def document(self) -> dict:
        """Canonical JSON-ready form (the thing that gets hashed)."""
        params = dict(sorted(self.params.items()))
        return {"schema_version": SCHEMA_VERSION, **asdict(self), "params": params}


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.document(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_ENV_N01 = {"type": "gaussian", "mean": 0.0, "std": 1.0}

# experiment -> (desk params, the paper preset's overrides of them); a
# tuple is a list of fixed length, a mapping an environment (see _check_shape)
_PRESETS = {
    "gating_curve": (
        {
            "window_means": [round(-6.0 + 0.25 * i, 4) for i in range(49)],
            "window_std": 1.0,
            "env_gap": 1.0,
            "sigmoid_slope": 1.0,
            "sigmoid_boundaries": (-1.0, 1.0),
        },
        {"window_means": [round(-6.0 + 0.125 * i, 4) for i in range(97)]},
    ),
    "bounds_sweep": (
        {
            "grid_env_count": 6,
            "env_mean_range": (-3.0, 3.0),
            "env_std": 1.0,
            "random_env_count": 0,
            "random_mean_range": (-3.0, 3.0),
            "random_std_range": (0.5, 2.0),
            "labeler_count": 4,
            "labeler_range": (-4.0, 4.0),
            "regimes": ["hard", "soft"],
        },
        {"grid_env_count": 15, "random_env_count": 5, "labeler_count": 10},
    ),
    "diameter_ablation": (
        {
            "regime": "hard",
            "env_count": 60,
            "mean_range": (-2.0, 2.0),
            "std_range": (0.5, 2.0),
            "thresholds": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "probit_kappa": 1.0,
            "probit_biases": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "n": 1000,
            "runs_per_env": 8,
        },
        {"env_count": 500, "runs_per_env": 100},
    ),
    "noise_ablation": (
        {
            "eps_max_list": [0.1, 0.25, 0.5],
            "annotators": 40,
            "n": 1000,
            "replications": 200,
            "base_threshold": 0.0,
            "env": _ENV_N01,
        },
        {"replications": 2000},
    ),
    "sample_complexity": (
        {
            "env": _ENV_N01,
            "thresholds": [-1.0, 1.0],
            "n_list": [10, 30, 100, 500, 1000, 5000],
            "replications": 500,
            "violation_n_list": [10, 100, 1000],
            "violation_replications": 2000,
        },
        {
            "n_list": [10, 30, 100, 500, 1000, 2000, 5000, 10000, 20000, 100000],
            "replications": 2000,
            "violation_replications": 2000,
        },
    ),
    "mechanism_complexity": (
        {
            "env": {"type": "gaussian", "mean": 2.0, "std": 1.0},
            "pinned_mass": 0.2,
            "n": 1000,
            "n_y_list": [2, 12, 100],
            "replications": 500,
        },
        {
            "n_y_list": [2, 5, 12, 20, 30, 50, 80, 100, 200, 500, 1000],
            "replications": 2000,
            "pinned_mass": 0.023,
        },
    ),
    "minimax_demo": ({"etas": [0.1, 0.5, 0.9], "env": _ENV_N01, "grid_n": 1000}, {}),
    "dro_train": (
        {
            "env": _ENV_N01,
            "thresholds": [-1.0, 1.0],
            "mode": "greedy",
            "tau": 0.05,
            "steps": 300,
            "step_size": 0.1,
            "oracle_grid": (-3.0, 3.0, 601),
        },
        {},
    ),
    "certificate": ({"annotations": "", "regime": "exact_hard_deterministic"}, {}),
}

EXPERIMENTS = tuple(_PRESETS)

# (desk, paper) deltas other than 0.05: sample-complexity sweeps default to
# delta = 0.005; user-facing certificates default to 0.05.  The desk
# mechanism sweep also uses 0.005 so its zero-violation gate sits ~4.5 sigma
# beyond the estimator spread, while the full-scale mechanism preset keeps
# 0.05 (a 0.043 radius at n=1000, N_Y=2).
_DELTAS = {"sample_complexity": (0.005, 0.005), "mechanism_complexity": (0.005, 0.05)}


def preset_config(experiment: str, preset: str = "desk", seed: int = 0) -> ExperimentConfig:
    return validate_config(
        {"schema_version": SCHEMA_VERSION, "experiment": experiment, "preset": preset, "seed": seed}
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _require_keys(doc: Mapping, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}; allowed: {sorted(allowed)}")


def validate_config(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw config document and return the typed config.

    Raises :class:`ConfigError` with a pointed diagnostic on any schema
    violation; never silently drops or defaults an unknown key.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config must be a mapping, got {type(doc).__name__}")
    _require_keys(doc, _TOP_KEYS, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose one of {EXPERIMENTS}")
    preset = doc.get("preset", "desk")
    if preset not in ("desk", "paper"):
        raise ConfigError(f"preset must be 'desk' or 'paper', got {preset!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    delta = doc.get("delta", _DELTAS.get(experiment, (0.05, 0.05))[preset == "paper"])
    if not isinstance(delta, (int, float)) or not 0.0 < float(delta) < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta!r}")

    desk, paper = _PRESETS[experiment]
    base = {**desk, **paper} if preset == "paper" else desk
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, Mapping):
        raise ConfigError("params must be a mapping")
    _require_keys(params_doc, set(base), f"params for {experiment}")
    for key, value in params_doc.items():
        _check_shape(value, base[key], f"{experiment} params.{key}")
    # the JSON form: lists for tuples, and no config aliases the table's lists
    params = json.loads(json.dumps({**base, **params_doc}))
    return ExperimentConfig(experiment, preset, seed, float(delta), params)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(doc)


# the type of a scalar preset value -> (what it takes, as words and as types)
_SCALARS = {str: ("a string", str), int: ("an integer", int), float: ("a number", (int, float))}


def _check_shape(value, preset, where: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` has the JSON shape of the preset value ``preset``.

    A float takes a number and an int an int, never a bool nor a number beyond a float's range, and never a
    negative int: every integer param is a count.  A list takes a list of items shaped as its first item, and a
    tuple a list of its length, item by item (a tuple for a list too); a mapping is an environment.
    """
    if isinstance(preset, Mapping):
        try:
            parse_env(value)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        return
    if isinstance(preset, (list, tuple)):
        fixed = isinstance(preset, tuple)
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(preset):
            raise ConfigError(f"{where} must be a list{f' of {len(preset)} items' if fixed else ''}, got {value!r}")
        for k, item in enumerate(value):
            _check_shape(item, preset[k] if fixed else preset[0], f"{where}[{k}]")
        return
    kind, types = _SCALARS[type(preset)]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    if types is not str and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be {kind} that a float can hold, got {value!r}")
    if types is int and value < 0:
        raise ConfigError(f"{where} must be a non-negative integer (a count), got {value!r}")


# environment type -> the preset shapes of its fields
_ENV_FIELDS = {"gaussian": {"mean": 0.0, "std": 1.0}, "grid": {"points": [0.0], "weights": [1.0]}}


def parse_env(doc: Mapping[str, Any]):
    """Parse an environment description: {"type": "gaussian"|"grid", ...}."""
    if not isinstance(doc, Mapping) or "type" not in doc:
        raise ConfigError(f"environment must be a mapping with a 'type', got {doc!r}")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _ENV_FIELDS:
        raise ConfigError(f"unknown environment type {kind!r}")
    shape = _ENV_FIELDS[kind]
    _require_keys(doc, {"type", *shape}, f"{kind} environment")
    for key, preset in shape.items():
        _check_shape(doc.get(key), preset, f"{kind} environment {key}")
    try:
        if kind == "gaussian":
            return Gaussian(float(doc["mean"]), float(doc["std"]))
        return DiscreteGrid(tuple(doc["points"]), tuple(doc["weights"]))
    except ValidationError as exc:
        raise ConfigError(f"invalid {kind} environment: {exc}") from exc
