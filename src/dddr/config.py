"""Experiment configuration: YAML file + dotted-key overrides -> validated config.

The schema is flat sections of scalar keys. Unknown keys are rejected,
every value is type- and constraint-checked, and the fully resolved
("effective") config is what gets echoed into the run directory, so a
stored run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml


class ConfigError(Exception):
    pass


DEFAULTS: dict[str, dict[str, Any]] = {
    "experiment": {
        "method": "dddr",  # dddr | finetune | fedewc
        "seed": 0,
        "n_tasks": 2,
        "threads": 1,  # accepted for compatibility; clients always run serially
    },
    "data": {
        "source": "shapes",  # shapes | idx
        "image_size": 16,
        "classes": 8,
        "samples_per_class": 250,
        "pretrain_samples_per_class": 250,
        "holdout_fraction": 0.2,
        "idx_images": "",
        "idx_labels": "",
    },
    "federation": {
        "clients": 5,
        "partition": "dirichlet",  # iid | dirichlet
        "alpha": 0.5,
    },
    "diffusion": {
        "timesteps": 100,
        "beta_min": 1.0e-4,
        "beta_max": 0.2,
        "embed_dim": 16,
        "time_dim": 16,
        "hidden": 256,
        "pretrain_steps": 12000,
        "pretrain_batch": 128,
        "pretrain_lr": 1.0e-3,
    },
    "inversion": {
        "rounds": 10,
        "local_steps": 50,
        "lr": 1.0e-2,
        "batch": 16,
    },
    "training": {
        "rounds": 100,
        "epochs": 5,
        "batch": 32,
        "lr": 1.0e-3,
        "optimizer": "adam",  # adam | sgd
    },
    "loss": {
        "w1": 1.0,
        "w2": 0.5,
        "w3": 10.0,
        "tau": 0.07,
        "kd_temperature": 1.0,
        "kd_direction": "teacher_ref",  # teacher_ref | student_ref
    },
    "replay": {
        "past_per_class": 50,
        "current_per_class": 50,
    },
    "ablation": {
        "replay_past": True,
        "replay_current": True,
        "scl": True,
    },
    "noise": {
        "sigma_g": 0.0,
        "sigma_c": 0.0,
    },
    "ewc": {
        "lam": 1000.0,
        "fisher_samples": 64,
    },
}

_CHOICES = {
    "experiment.method": ("dddr", "finetune", "fedewc"),
    "data.source": ("shapes", "idx"),
    "federation.partition": ("iid", "dirichlet"),
    "training.optimizer": ("adam", "sgd"),
    "loss.kd_direction": ("teacher_ref", "student_ref"),
}

_POSITIVE = {
    "experiment.n_tasks", "experiment.threads", "data.image_size", "data.classes",
    "data.samples_per_class", "data.pretrain_samples_per_class", "federation.clients",
    "diffusion.timesteps", "diffusion.embed_dim", "diffusion.time_dim", "diffusion.hidden",
    "diffusion.pretrain_steps", "diffusion.pretrain_batch", "inversion.rounds",
    "inversion.local_steps", "inversion.batch", "training.batch",
    "replay.past_per_class", "replay.current_per_class", "ewc.fisher_samples",
    "diffusion.pretrain_lr", "inversion.lr", "training.lr", "loss.tau", "loss.kd_temperature",
    "federation.alpha",
}

_NON_NEGATIVE = {
    "experiment.seed", "training.rounds", "training.epochs", "loss.w1", "loss.w2", "loss.w3",
    "noise.sigma_g", "noise.sigma_c", "ewc.lam",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully populated configuration tree."""

    values: dict[str, dict[str, Any]]

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def get(self, dotted: str) -> Any:
        section, key = dotted.split(".", 1)
        return self.values[section][key]

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.values, sort_keys=True)


def _type_name(value: Any) -> str:
    return type(value).__name__


def _check_value(dotted: str, default: Any, value: Any) -> Any:
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{dotted}: expected bool, got {_type_name(value)} {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{dotted}: expected int, got {_type_name(value)} {value!r}")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{dotted}: expected float, got {_type_name(value)} {value!r}")
        value = float(value)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{dotted}: expected str, got {_type_name(value)} {value!r}")
    if dotted in _CHOICES and value not in _CHOICES[dotted]:
        raise ConfigError(f"{dotted}: must be one of {_CHOICES[dotted]}, got {value!r}")
    if dotted in _POSITIVE and not value > 0:
        raise ConfigError(f"{dotted}: must be > 0, got {value!r}")
    if dotted in _NON_NEGATIVE and not value >= 0:
        raise ConfigError(f"{dotted}: must be >= 0, got {value!r}")
    return value


def _merge(base: dict, updates: dict, path: str = "") -> None:
    for key, value in updates.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected a section, got {_type_name(value)}")
            _merge(base[key], value, f"{dotted}.")
        else:
            base[key] = _check_value(dotted, DEFAULTS[path.rstrip(".")][key], value)


def _validate_cross(values: dict) -> None:
    frac = values["data"]["holdout_fraction"]
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"data.holdout_fraction: must be in (0, 1), got {frac}")
    if values["data"]["source"] == "shapes" and values["data"]["classes"] % values["experiment"]["n_tasks"] != 0:
        raise ConfigError(
            f"experiment.n_tasks: {values['data']['classes']} classes do not split evenly into "
            f"{values['experiment']['n_tasks']} tasks"
        )
    if values["data"]["source"] == "idx":
        for key in ("idx_images", "idx_labels"):
            if not values["data"][key]:
                raise ConfigError(f"data.{key}: required when data.source is idx")
    bmin, bmax = values["diffusion"]["beta_min"], values["diffusion"]["beta_max"]
    if not 0.0 < bmin <= bmax < 1.0:
        raise ConfigError(f"diffusion.beta_min/beta_max: need 0 < {bmin} <= {bmax} < 1")


def parse_overrides(pairs: list[str]) -> dict:
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        dotted, raw = pair.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {dotted}: unparseable value {raw!r}: {exc}") from exc
        tree.setdefault(parts[0], {})[parts[1]] = value
    return tree


def parse_config(path: str | Path | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load, override, validate; missing keys fall back to defaults."""
    values = copy.deepcopy(DEFAULTS)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = yaml.safe_load(path.read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping of sections")
        _merge(values, loaded)
    if overrides:
        _merge(values, parse_overrides(list(overrides)))
    _validate_cross(values)
    return ExperimentConfig(values=values)
