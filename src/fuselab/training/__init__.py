"""Objectives, optimizers, the training loop, and model persistence."""

from .loop import (
    LossReport,
    TrainConfig,
    TrainResult,
    evaluate_model,
    predict_dataset,
    train,
)
from .model import (
    FORMAT_VERSION,
    FusionModel,
    ModelConfig,
    PreparedBatch,
    build_model,
    load_model,
    save_model,
)
from .optim import Adam

__all__ = [
    "Adam",
    "FORMAT_VERSION",
    "FusionModel",
    "LossReport",
    "ModelConfig",
    "PreparedBatch",
    "TrainConfig",
    "TrainResult",
    "build_model",
    "evaluate_model",
    "load_model",
    "predict_dataset",
    "save_model",
    "train",
]
