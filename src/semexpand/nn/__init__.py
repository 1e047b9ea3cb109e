"""From-scratch neural network layers, classifiers and training utilities."""

from . import layers
from .models import (
    CHECKPOINT_TAG,
    ClassifierConfig,
    CnnClassifier,
    LstmClassifier,
    build_model,
    cnn_output_lengths,
    load_model,
    save_model,
)
from .training import EvalResult, TrainConfig, TrainLog, evaluate, train_classifier

__all__ = [
    "CHECKPOINT_TAG",
    "ClassifierConfig",
    "CnnClassifier",
    "layers",
    "LstmClassifier",
    "build_model",
    "cnn_output_lengths",
    "load_model",
    "save_model",
    "EvalResult",
    "TrainConfig",
    "TrainLog",
    "evaluate",
    "train_classifier",
]
