"""Experiment configuration files.

A config is a single INI-style file with four sections: [experiment],
[model], [data], [train] (plus optional [eval]). Unknown sections or
keys are hard errors: a silently ignored typo corrupts an experiment.

One seed under [experiment] drives everything; model initialization,
splits, batch order, and adversarial noise are all derived from it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .datakit import SyntheticSpec
from .exceptions import ConfigError
from .training import ModelConfig, TrainConfig

_MODEL_KEYS = {
    "input_modes", "fusion", "latent_dim", "embed_dim", "hidden_dim",
    "visual_channels", "fusion_out_dim", "concat_projection", "noise_dim",
    "append_raw_latents", "use_entity_tuple", "normalize_text", "vocab_size",
}
_DATA_KEYS = {
    "path", "synthetic_task", "synthetic_n", "synthetic_noise",
    "synthetic_grid", "synthetic_seq_len", "split", "binarize",
}
_TRAIN_KEYS = {
    "epochs", "batch_size", "optimizer", "lr", "disc_lr", "lambda",
    "disc_steps", "clip_norm", "fusion_loss_updates_encoders", "patience",
    "class_weights",
}
_EVAL_KEYS = {"metrics_path"}
_EXPERIMENT_KEYS = {"seed"}

_SECTIONS = {
    "experiment": _EXPERIMENT_KEYS,
    "model": _MODEL_KEYS,
    "data": _DATA_KEYS,
    "train": _TRAIN_KEYS,
    "eval": _EVAL_KEYS,
}


@dataclass
class DataConfig:
    path: Optional[Path] = None
    synthetic: Optional[SyntheticSpec] = None
    split: Tuple[float, float, float] = (0.8, 0.1, 0.1)
    binarize: bool = False


@dataclass
class ExperimentConfig:
    seed: int
    model: ModelConfig
    data: DataConfig
    train: TrainConfig
    vocab_size: Optional[int] = None
    metrics_path: Optional[Path] = None
    source_path: Optional[Path] = None


class _Section:
    def __init__(self, name: str, values: Dict[str, str]):
        self.name = name
        self.values = values

    def _get(self, key: str) -> Optional[str]:
        value = self.values.get(key)
        if value is None or value.strip() == "":
            return None
        return value.strip()

    def str_(self, key: str, default: Optional[str] = None) -> Optional[str]:
        value = self._get(key)
        return default if value is None else value

    def int_(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self._get(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected an integer, got {value!r}")

    def float_(self, key: str, default: Optional[float] = None) -> Optional[float]:
        value = self._get(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected a number, got {value!r}")

    def bool_(self, key: str, default: Optional[bool] = None) -> Optional[bool]:
        value = self._get(key)
        if value is None:
            return default
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: expected a boolean, got {value!r}")

    def floats(self, key: str) -> Optional[List[float]]:
        value = self._get(key)
        if value is None:
            return None
        try:
            return [float(x) for x in value.split(",")]
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected comma-separated "
                              f"numbers, got {value!r}")

    def ints(self, key: str) -> Optional[List[int]]:
        value = self._get(key)
        if value is None:
            return None
        try:
            return [int(x) for x in value.split(",")]
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected comma-separated "
                              f"integers, got {value!r}")


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

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        allowed = _SECTIONS[section]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}] "
                                  f"(allowed: {sorted(allowed)})")

    def section(name: str) -> _Section:
        values = dict(parser[name]) if parser.has_section(name) else {}
        return _Section(name, values)

    exp = section("experiment")
    seed = exp.int_("seed", 0)

    m = section("model")
    channels = m.ints("visual_channels") or [8, 16]
    if len(channels) != 2:
        raise ConfigError("[model] visual_channels: expected two integers")
    input_modes = m.str_("input_modes", "multimodal")
    fusion = m.str_("fusion")
    if input_modes == "multimodal" and fusion is None:
        raise ConfigError("[model] fusion: required for multimodal models "
                          "(concat | auto | gan)")
    if input_modes != "multimodal" and fusion is not None:
        raise ConfigError(f"[model] fusion: not applicable to {input_modes}-only "
                          f"models; remove the key")
    model = ModelConfig(
        input_modes=input_modes,
        fusion=fusion,
        latent_dim=m.int_("latent_dim", 64),
        embed_dim=m.int_("embed_dim", 32),
        hidden_dim=m.int_("hidden_dim", 32),
        visual_channels=(channels[0], channels[1]),
        fusion_out_dim=m.int_("fusion_out_dim"),
        concat_projection=m.bool_("concat_projection", False),
        noise_dim=m.int_("noise_dim"),
        append_raw_latents=m.bool_("append_raw_latents", False),
        use_entity_tuple=m.bool_("use_entity_tuple"),
        normalize_text=m.bool_("normalize_text", True),
        seed=seed,
    )

    d = section("data")
    data_path = d.str_("path")
    task = d.str_("synthetic_task")
    if data_path is None and task is None:
        raise ConfigError("[data]: provide either path or synthetic_task")
    if data_path is not None and task is not None:
        raise ConfigError("[data]: path and synthetic_task are mutually exclusive")
    synthetic = None
    if task is not None:
        synthetic = SyntheticSpec(
            task=task,
            n=d.int_("synthetic_n", 1000),
            seed=seed,
            noise=d.float_("synthetic_noise", 0.0),
            grid_size=d.int_("synthetic_grid", 12),
            seq_len=d.int_("synthetic_seq_len", 5),
        )
    split = d.floats("split") or [0.8, 0.1, 0.1]
    if len(split) != 3:
        raise ConfigError("[data] split: expected three ratios")
    data = DataConfig(
        path=Path(data_path) if data_path else None,
        synthetic=synthetic,
        split=(split[0], split[1], split[2]),
        binarize=d.bool_("binarize", False),
    )

    t = section("train")
    train = TrainConfig(
        epochs=t.int_("epochs", 5),
        batch_size=t.int_("batch_size", 32),
        optimizer=t.str_("optimizer", "adam"),
        lr=t.float_("lr"),
        disc_lr=t.float_("disc_lr"),
        lam=t.float_("lambda", 1.0),
        disc_steps=t.int_("disc_steps", 1),
        seed=seed,
        clip_norm=t.float_("clip_norm", 5.0),
        class_weights=t.floats("class_weights"),
        fusion_loss_updates_encoders=t.bool_("fusion_loss_updates_encoders", True),
        patience=t.int_("patience"),
    )

    e = section("eval")
    metrics_path = e.str_("metrics_path")
    return ExperimentConfig(
        seed=seed,
        model=model,
        data=data,
        train=train,
        vocab_size=m.int_("vocab_size"),
        metrics_path=Path(metrics_path) if metrics_path else None,
        source_path=path,
    )
