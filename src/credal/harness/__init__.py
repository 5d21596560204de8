"""Experiment harness: configs, runners, summaries, and the ``credal`` CLI."""

from credal.harness.config import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    preset_config,
    validate_config,
)
from credal.harness.experiments import run
from credal.harness.summary import wilson_interval

__all__ = [
    "EXPERIMENTS",
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "config_hash",
    "load_config",
    "preset_config",
    "run",
    "validate_config",
    "wilson_interval",
]
