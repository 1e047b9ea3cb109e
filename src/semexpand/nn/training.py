"""Mini-batch SGD training and evaluation metrics."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError, check_range

logger = logging.getLogger(__name__)

EVAL_BATCH_SIZE = 128


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 10
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_range("batch_size", self.batch_size, 1)
        check_range("epochs", self.epochs, 1)
        check_range("learning_rate", self.learning_rate, 0, low_open=True)
        check_range("seed", self.seed, 0)


@dataclass
class TrainLog:
    epoch_losses: list = field(default_factory=list)
    epoch_accuracies: list = field(default_factory=list)
    first_batch_loss: float = float("nan")


def _batches(count: int, batch_size: int, order):
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


def train_classifier(model, x, mask, y, config: TrainConfig) -> TrainLog:
    """Train in place with plain SGD; returns per-epoch loss and accuracy.

    The loss per epoch is the example-weighted mean of batch losses, so it
    equals the mean cross entropy over the epoch's forward passes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    count = len(x)
    if count == 0:
        raise ConfigError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    log = TrainLog()
    for epoch in range(config.epochs):
        order = np.arange(count)
        rng.shuffle(order)
        loss_sum = 0.0
        correct = 0
        for batch_index, batch in enumerate(_batches(count, config.batch_size, order)):
            bmask = mask[batch] if mask is not None else None
            loss, grads, probs = model.loss_and_grads(x[batch], bmask, y[batch])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch + 1}, batch {batch_index + 1}"
                )
            if epoch == 0 and batch_index == 0:
                log.first_batch_loss = float(loss)
            model.apply_grads(grads, config.learning_rate)
            loss_sum += loss * len(batch)
            correct += int((probs.argmax(axis=1) == y[batch]).sum())
        log.epoch_losses.append(loss_sum / count)
        log.epoch_accuracies.append(correct / count)
        logger.info(
            "epoch %d/%d loss %.6f accuracy %.4f",
            epoch + 1,
            config.epochs,
            log.epoch_losses[-1],
            log.epoch_accuracies[-1],
        )
    return log


@dataclass
class EvalResult:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    confusion: np.ndarray

    def summary_lines(self, label_names=None) -> list:
        k = len(self.precision)
        names = label_names if label_names is not None else [str(c) for c in range(k)]
        lines = [f"accuracy {self.accuracy:.4f}"]
        for c in range(k):
            lines.append(
                f"class {names[c]}: precision {self.precision[c]:.4f} recall {self.recall[c]:.4f}"
            )
        return lines


def evaluate(model, x, mask, y) -> EvalResult:
    """Accuracy, per-class precision/recall and a true-by-predicted confusion matrix.

    Precision and recall are 0.0 when their denominator is zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(x) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    k = model.num_classes
    confusion = np.zeros((k, k), dtype=int)
    order = np.arange(len(x))
    for batch in _batches(len(x), EVAL_BATCH_SIZE, order):
        bmask = mask[batch] if mask is not None else None
        probs = model.forward(x[batch], bmask)
        predicted = probs.argmax(axis=1)
        np.add.at(confusion, (y[batch], predicted), 1)
    correct = np.trace(confusion)
    accuracy = correct / len(x)
    predicted_totals = confusion.sum(axis=0)
    true_totals = confusion.sum(axis=1)
    diag = np.diag(confusion)
    precision = np.where(predicted_totals > 0, diag / np.maximum(predicted_totals, 1), 0.0)
    recall = np.where(true_totals > 0, diag / np.maximum(true_totals, 1), 0.0)
    return EvalResult(float(accuracy), precision, recall, confusion)
