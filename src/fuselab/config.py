"""Experiment configuration files.

A config is a single INI-style file with four sections: [experiment],
[model], [data] and [train]. Unknown sections or keys are hard errors: a
silently ignored typo corrupts an experiment.

Every key is a field of a config dataclass (ModelConfig, TrainConfig,
DataConfig, SyntheticSpec or ExperimentConfig), and `_SECTIONS` maps
each key to its field. The field's type says how the value is read and
its default applies when the key is absent or empty, so a setting is
declared, typed and defaulted in one place.

One seed under [experiment] drives everything; model initialization,
splits, batch order, and adversarial noise are all derived from it.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .datakit import SyntheticSpec, check_split_ratios
from .exceptions import ConfigError
from .training import ModelConfig, TrainConfig


@dataclass
class DataConfig:
    path: Optional[Path] = None
    synthetic: Optional[SyntheticSpec] = None
    split: Tuple[float, float, float] = (0.8, 0.1, 0.1)
    binarize: bool = False

    def __post_init__(self):
        check_split_ratios(self.split)


@dataclass(kw_only=True)
class ExperimentConfig:
    seed: int = 0
    model: ModelConfig
    data: DataConfig
    train: TrainConfig
    vocab_size: Optional[int] = None
    source_path: Optional[Path] = None


def _keys(cls, *names, skip=(), prefix=""):
    """INI key -> (class, field name, field type) for the fields of `cls`
    listed in `names` (all but `skip` when none are listed)."""
    hints = typing.get_type_hints(cls)
    return {prefix + f.name: (cls, f.name, hints[f.name])
            for f in dataclasses.fields(cls)
            if (f.name in names if names else f.name not in skip)}


# section -> key -> field; ModelConfig.in_channels comes from the training
# grids, and every seed from [experiment]
_SECTIONS = {
    "experiment": _keys(ExperimentConfig, "seed"),
    "model": {**_keys(ModelConfig, skip=("in_channels", "seed")),
              **_keys(ExperimentConfig, "vocab_size")},
    "data": {**_keys(DataConfig, "path", "split", "binarize"),
             **_keys(SyntheticSpec, "task", "n", prefix="synthetic_")},
    "train": _keys(TrainConfig, skip=("seed",)),
}
_MODEL_KEYS, _DATA_KEYS, _TRAIN_KEYS = (
    set(_SECTIONS[name]) for name in ("model", "data", "train"))


def _read(kind, text: str, where: str):
    """Parse `text` as a value of the field type `kind`: bool, int, float,
    str, Path, Optional of one, or a comma-separated Tuple or List."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union:
        (kind,) = [arg for arg in args if arg is not type(None)]
        return _read(kind, text, where)
    if origin in (tuple, list):
        items = [_read(args[0], item.strip(), where) for item in text.split(",")]
        if origin is list:
            return items
        if len(items) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} comma-separated "
                              f"values, got {text!r}")
        return tuple(items)
    if kind is bool:
        booleans = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in booleans:
            raise ConfigError(f"{where}: expected a boolean, got {text!r}")
        return booleans[text.lower()]
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {text!r}")


def _build(cls, where: str, **fields):
    """cls(**fields), with a range error its constructor raises prefixed
    by `where`, the file and section the fields were read from."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where} {exc}") from None


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")

    # field values by config class; an empty value leaves the field's default
    values = defaultdict(dict)
    for section in parser.sections():
        if section not in _SECTIONS:
            keys = ", ".join(parser[section])
            raise ConfigError(f"{path}: unknown section [{section}]"
                              + (f" (setting {keys})" if keys else ""))
        allowed = _SECTIONS[section]
        for key, text in parser[section].items():
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}] "
                                  f"(allowed: {sorted(allowed)})")
            cls, name, kind = allowed[key]
            if text.strip():
                values[cls][name] = _read(kind, text.strip(),
                                          f"{path}: [{section}] {key}")

    experiment = values[ExperimentConfig]
    seed = experiment.setdefault("seed", ExperimentConfig.seed)
    if seed < 0:
        raise ConfigError(f"{path}: [experiment] seed must be >= 0, got {seed}")
    if experiment.get("vocab_size", 3) < 3:
        raise ConfigError(f"{path}: [model] vocab_size must be at least 3, past the "
                          f"two reserved ids, got {experiment['vocab_size']}")

    model = _build(ModelConfig, f"{path}: [model]", **values[ModelConfig], seed=seed)

    spec = values[SyntheticSpec]
    has_path, has_task = "path" in values[DataConfig], "task" in spec
    if not has_path and not has_task:
        raise ConfigError(f"{path}: [data]: provide either path or synthetic_task")
    if has_path and has_task:
        raise ConfigError(f"{path}: [data]: path and synthetic_task are mutually "
                          f"exclusive")
    if spec and not has_task:
        key = next(key for key, (cls, name, _) in _SECTIONS["data"].items()
                   if cls is SyntheticSpec and name in spec)
        raise ConfigError(f"{path}: [data] {key}: applies only with synthetic_task")
    synthetic = (_build(SyntheticSpec, f"{path}: [data]", **spec, seed=seed)
                 if has_task else None)
    data = _build(DataConfig, f"{path}: [data]", **values[DataConfig],
                  synthetic=synthetic)

    train = _build(TrainConfig, f"{path}: [train]", **values[TrainConfig], seed=seed)
    return ExperimentConfig(model=model, data=data, train=train, source_path=path,
                            **experiment)
