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
from .metrics import MetricsReport
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


TABLE_COLUMNS = ("Model", "Input modes", "Fusion type", "P", "R", "F", "A")


def render_report(model_name: str, config: ModelConfig,
                  report: MetricsReport) -> Tuple[str, str]:
    """(metrics.txt, metrics.csv) of one model: the results table (one row
    in the Model | Input modes | Fusion type | P | R | F | A layout, with
    macro P, R and F), a blank line and the per-class breakdown; and the
    table as CSV."""
    r = report
    row = (model_name, *describe_model(config),
           *(f"{v:.4f}" for v in (r.macro_precision, r.macro_recall, r.macro_f1, r.accuracy)))
    widths = [max(len(a), len(b)) for a, b in zip(TABLE_COLUMNS, row)]

    def table_line(cells) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    lines = [table_line(TABLE_COLUMNS), "-+-".join("-" * w for w in widths),
             table_line(row), "",
             f"{'class':<16} {'P':>8} {'R':>8} {'F1':>8} {'support':>8}"]
    for name, m in r.per_class.items():
        lines.append(f"{name:<16} {m.precision:8.4f} {m.recall:8.4f} "
                     f"{m.f1:8.4f} {m.support:8d}")
    lines.append(f"{'macro':<16} {r.macro_precision:8.4f} "
                 f"{r.macro_recall:8.4f} {r.macro_f1:8.4f}")
    lines.append(f"accuracy {r.accuracy:.4f} "
                 f"(uninformative under heavy class skew; prefer macro-F)")
    csv = ",".join(TABLE_COLUMNS) + "\n" + ",".join(row) + "\n"
    return "\n".join(lines) + "\n", csv


def run_experiment(config: ExperimentConfig,
                   out_dir: Optional[Path] = None) -> ExperimentResult:
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

    table_text, table_csv = render_report("model", config.model, report)

    artifacts: List[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        model_path = out_dir / "model.fuse"
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
