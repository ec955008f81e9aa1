"""Experiment configuration: a single nested JSON document per experiment.

Every command stamps a copy of the fully resolved configuration beside its
outputs so results stay attributable to the settings that produced them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .artifacts import replace_atomically
from .benchmarks import get_function, registry_list
from .envloop import EvolutionEnv
from .observe import ObservationSpec
from .policy import action_spec
from .ppo import PpoConfig


class ConfigError(ValueError):
    pass


@dataclass
class TrainingSection:
    mode: str = "single"            # "single" | "multi"
    function: str | None = "Sphere"
    dimension: int | None = 10
    episodes: int = 5000
    retries: int = 3


@dataclass
class ExperimentConfig:
    algorithm: str = "de"           # "de" | "cmaes"
    action: str = "de_uniform"
    observation: ObservationSpec = field(default_factory=ObservationSpec)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    training: TrainingSection = field(default_factory=TrainingSection)
    seed: int = 0
    out: str = "results/experiment"

    def function_set(self) -> list:
        if self.training.mode == "multi":
            return registry_list()
        if self.training.function is None or self.training.dimension is None:
            raise ConfigError("single-function training requires function and dimension")
        try:
            fn = get_function(self.training.function, self.training.dimension)
        except KeyError as exc:
            raise ConfigError(f"unknown training function: {exc.args[0]}") from exc
        return [(fn.name, fn.dimension)]

    def validate(self) -> None:
        if self.algorithm not in ("de", "cmaes"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        try:
            steers = action_spec(self.action).algorithm
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        if steers != self.algorithm:
            raise ConfigError(f"action space {self.action!r} steers {steers}, "
                              f"not {self.algorithm}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.training.mode not in ("single", "multi"):
            raise ConfigError(f"unknown training.mode {self.training.mode!r}")
        if self.training.episodes <= 0:
            raise ConfigError(f"training.episodes must be positive, got {self.training.episodes}")
        if self.training.retries < 0:
            raise ConfigError(f"training.retries must not be negative, "
                              f"got {self.training.retries}")
        steps = self.training.episodes * EvolutionEnv.steps_per_episode
        if steps < self.ppo.horizon:
            raise ConfigError(f"training.episodes x {EvolutionEnv.steps_per_episode} = {steps} "
                              f"steps fill no ppo.horizon of {self.ppo.horizon} steps")
        self.function_set()  # resolves against the registry


# The JSON values a field of each annotated type accepts; a "X | None" field
# takes null or an X, a "float" field a finite number (JSON's NaN and Infinity
# parse to floats), and a "tuple" field (`ppo.hidden`) a list of ints.
JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _fits(annotation: str, value) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _fits(annotation.removesuffix(" | None"), value)
    if annotation == "tuple":
        return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
    if annotation == "float" and type(value) is float and not math.isfinite(value):
        return False
    return type(value) in JSON_TYPES.get(annotation, (type(value),))


def _build(cls, data: dict, label: str):
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {sorted(unknown)}")
    try:
        for key, value in data.items():
            annotation = fields[key].type
            if not _fits(annotation, value):
                kind = "list of int" if annotation == "tuple" else annotation
                raise TypeError(f"{key} must be of type {kind}, got {value!r}")
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {label} section: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    sections = {
        "observation": ObservationSpec,
        "ppo": PpoConfig,
        "training": TrainingSection,
    }
    kwargs = {}
    for key, value in data.items():
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            kwargs[key] = _build(sections[key], value, key)
        else:
            kwargs[key] = value
    cfg = _build(ExperimentConfig, kwargs, "experiment")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with replace_atomically(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
