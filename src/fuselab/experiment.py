"""Experiment orchestration: data preparation, training, evaluation,
artifact writing. This is what `fuselab train` runs.

Everything is derived from the single experiment seed: the synthetic
dataset (when used), the split shuffle, model initialization, batch
order, and adversarial noise. Two runs of the same config are
indistinguishable down to the loss curves and the bytes of the metrics
tables.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from .config import ExperimentConfig
from .datakit import Dataset, Vocab, generate_synthetic, load_jsonl, split_dataset
from .exceptions import InputError
from .metrics import MetricsReport, ResultRow, format_csv, format_report, format_table
from .training import (
    FusionModel,
    TrainResult,
    build_model,
    evaluate_model,
    save_model,
    train,
)
from .training.model import ModelConfig, read_text


def prepare_data(config: ExperimentConfig) -> Tuple[Dataset, Dataset, Dataset]:
    if config.data.synthetic is not None:
        dataset = generate_synthetic(config.data.synthetic)
    else:
        dataset = load_jsonl(config.data.path)
    if config.data.binarize:
        dataset = dataset.merged_binary()
    if len(dataset) < 3:
        raise InputError(f"dataset too small to split: {len(dataset)} publications")
    train_ds, val_ds, test_ds = split_dataset(dataset, config.data.split, seed=config.seed)
    if len(test_ds) < 1:
        raise InputError("test split is empty; adjust [data] split")
    return train_ds, val_ds, test_ds


def build_vocab(train_ds: Dataset, model_config: ModelConfig,
                max_size: Optional[int] = None) -> Vocab:
    """Vocabulary over the training split, tokenized exactly as the model
    will tokenize at run time."""
    texts = [read_text(pub, model_config.normalize_text)[0] for pub in train_ds]
    return Vocab.from_texts(texts, max_size=max_size)


@dataclass
class ExperimentResult:
    model: FusionModel
    train_result: TrainResult
    report: MetricsReport
    table_text: str
    table_csv: str
    artifacts: List[Path]
    split_sizes: Tuple[int, int, int] = (0, 0, 0)
    label_histogram: Optional[dict] = None


def describe_model(config: ModelConfig) -> Tuple[str, str]:
    """(input modes, fusion type) cells for the results table."""
    if config.input_modes == "multimodal":
        fusion_names = {"concat": "Concat", "auto": "Auto-Fusion", "gan": "GAN-Fusion"}
        return "image+text", fusion_names[config.fusion]
    return config.input_modes, "none"


def run_experiment(config: ExperimentConfig, out_dir: Optional[Path] = None,
                   model_name: str = "model") -> ExperimentResult:
    train_ds, val_ds, test_ds = prepare_data(config)
    histogram: dict = {}
    for part in (train_ds, val_ds, test_ds):
        for name, count in part.label_histogram().items():
            histogram[name] = histogram.get(name, 0) + count
    model_config = config.model
    channels = next((pub.visual.shape[-1] for pub in train_ds if pub.visual is not None), None)
    if channels is not None and model_config.input_modes != "text":
        # no config key sets the channel count: the training grids do
        model_config = dataclasses.replace(model_config, in_channels=channels)
    vocab = build_vocab(train_ds, model_config, config.vocab_size)
    model = build_model(model_config, train_ds.label_space, vocab)
    result = train(model, train_ds, config.train,
                   val_dataset=val_ds if len(val_ds) else None)
    report = evaluate_model(model, test_ds)

    modes, fusion_type = describe_model(config.model)
    row = ResultRow(model_name, modes, fusion_type, report)
    table_text = format_table([row]) + "\n\n" + format_report(report) + "\n"
    table_csv = format_csv([row])

    artifacts: List[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        model_path = out_dir / f"{model_name}.fuse"
        save_model(model, model_path)
        loss_path = out_dir / "loss.csv"
        loss_path.write_text(result.loss_csv(), encoding="utf-8")
        metrics_txt = out_dir / "metrics.txt"
        metrics_txt.write_text(table_text, encoding="utf-8")
        metrics_csv = out_dir / "metrics.csv"
        metrics_csv.write_text(table_csv, encoding="utf-8")
        artifacts = [model_path, loss_path, metrics_txt, metrics_csv]
        if config.source_path is not None and config.source_path.exists():
            echoed = out_dir / "config.ini"
            if config.source_path.resolve() != echoed.resolve():
                shutil.copyfile(config.source_path, echoed)
                artifacts.append(echoed)

    return ExperimentResult(model, result, report, table_text, table_csv, artifacts,
                            split_sizes=(len(train_ds), len(val_ds), len(test_ds)),
                            label_histogram=histogram)
