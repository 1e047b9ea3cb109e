"""CNN and LSTM short-text classifiers and their text checkpoint format.

Both models consume pre-embedded inputs of shape (B, max_len, input_width)
with a parallel validity mask; embeddings are static inputs, never trained.
The CNN is Kim's short-text CNN with one kernel width: a valid convolution,
ReLU, a max over all its positions (padding positions included) and a fully
connected softmax layer. The LSTM runs one recurrent layer, mean-pools
hidden states over valid positions and classifies the pooled state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataFormatError, check_range, format_floats, open_text
from . import layers

logger = logging.getLogger(__name__)

CHECKPOINT_TAG = "semexpand-model v1"
MODEL_KINDS = ("cnn", "lstm")


@dataclass
class ClassifierConfig:
    """Classifier kind and sizes; ``max_len`` is the padded input length.

    build_model takes one; each kind keeps only its own sizes. Every kind keeps
    ``max_len``, so a model file records the length its inputs are embedded at.
    """

    model: str = "lstm"
    hidden: int = 300
    kernels: int = 64
    kernel_width: int = 5
    max_len: int = 20

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"must be one of {MODEL_KINDS}, got {self.model!r}", "model")
        for key in ("hidden", "kernels", "kernel_width", "max_len"):
            check_range(key, getattr(self, key), 1)
        if self.model == "cnn" and self.max_len < self.kernel_width:
            raise ConfigError(
                f"max_len={self.max_len} too short for kernel_width={self.kernel_width}: "
                "the convolution needs one whole window"
            )


class _Classifier:
    """Inputs, the softmax head, initialization and updates, for every kind.

    A kind supplies ``param_shapes(shape, input_width, num_classes)``, each
    parameter's name and dimensions in order, computed with integers only;
    ``_forward_cache(x, mask)``, the logits and a cache; and ``_backward(dlogits,
    cache)``, the parameters' gradients in ``param_shapes`` order.
    """

    kind: str = ""
    size_names: tuple = ()

    def __init__(self, shape, input_width: int, num_classes: int, seed=0, params=None):
        """The kind's sizes in ``shape`` as attributes; ``params``, or fresh ones from ``seed``."""
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        self.input_width, self.num_classes = input_width, num_classes
        self.sizes = {name: getattr(shape, name) for name in self.size_names}
        vars(self).update(self.sizes)
        if params is None:
            params = self._initialize(self.param_shapes(shape, input_width, num_classes), seed)
        self.params: dict[str, np.ndarray] = params

    def _initialize(self, shapes: dict, seed: int) -> dict:
        """2-d weights Glorot-uniform from ``seed`` in ``shapes``' order; 1-d biases zero."""
        rng = np.random.default_rng(seed)
        return {
            name: layers.glorot_uniform(rng, dims) if len(dims) == 2 else np.zeros(dims)
            for name, dims in shapes.items()
        }

    def arch(self) -> dict:
        """The checkpoint's architecture lines: kind, input_width, num_classes, the kind's sizes."""
        head = {"kind": self.kind, "input_width": self.input_width, "num_classes": self.num_classes}
        return head | self.sizes

    def _inputs(self, x, mask):
        """``x`` as floats, checked against the model's input width, and ``mask``."""
        x = np.asarray(x, dtype=float)
        if x.shape[2] != self.input_width:
            raise ValueError(f"input width {x.shape[2]} != model width {self.input_width}")
        return x, mask

    def forward(self, x, mask):
        logits, _ = self._forward_cache(*self._inputs(x, mask))
        return layers.softmax(logits)

    def loss_and_grads(self, x, mask, y):
        y = np.asarray(y, dtype=int)
        logits, cache = self._forward_cache(*self._inputs(x, mask))
        probs = layers.softmax(logits)
        loss = layers.cross_entropy(probs, y)
        grads = self._backward(layers.softmax_cross_entropy_grad(probs, y), cache)
        return loss, dict(zip(self.params, grads, strict=True)), probs

    def apply_grads(self, grads: dict, learning_rate: float) -> None:
        for name, g in grads.items():
            self.params[name] -= learning_rate * g


class CnnClassifier(_Classifier):
    kind = "cnn"
    size_names = ("max_len", "kernels", "kernel_width")

    @staticmethod
    def param_shapes(shape, input_width, num_classes):
        return {
            "conv_w": (shape.kernel_width * input_width, shape.kernels),
            "conv_b": (shape.kernels,),
            "fc_w": (shape.kernels, num_classes),
            "fc_b": (num_classes,),
        }

    def _forward_cache(self, x, mask):
        p = self.params
        conv, conv_cache = layers.conv1d_forward(x, p["conv_w"], p["conv_b"], self.kernel_width)
        relu, relu_mask = layers.relu_forward(conv)
        pooled, pool_cache = layers.max_over_time_forward(relu)
        logits, fc_cache = layers.dense_forward(pooled, p["fc_w"], p["fc_b"])
        return logits, (conv_cache, relu_mask, pool_cache, fc_cache)

    def _backward(self, dlogits, cache):
        conv_cache, relu_mask, pool_cache, fc_cache = cache
        dpooled, dfc_w, dfc_b = layers.dense_backward(dlogits, fc_cache, self.params["fc_w"])
        drelu = layers.max_over_time_backward(dpooled, pool_cache)
        dconv = layers.relu_backward(drelu, relu_mask)
        # x is static embeddings, so the convolution's input gradient is never formed
        dconv_w, dconv_b = layers.conv1d_backward(dconv, conv_cache)
        return dconv_w, dconv_b, dfc_w, dfc_b


class LstmClassifier(_Classifier):
    kind = "lstm"
    size_names = ("max_len", "hidden")

    @staticmethod
    def param_shapes(shape, input_width, num_classes):
        hidden = shape.hidden
        return {
            "gate_w": (input_width + hidden, 4 * hidden),
            "gate_b": (4 * hidden,),
            "fc_w": (hidden, num_classes),
            "fc_b": (num_classes,),
        }

    def _initialize(self, shapes, seed):
        params = super()._initialize(shapes, seed)
        params["gate_b"][self.hidden : 2 * self.hidden] = 1.0  # forget-gate bias
        return params

    def _inputs(self, x, mask):
        """x and mask cut after the last column that any row's mask marks valid.

        The recurrence is causal, so later columns never reach the pooled
        state.
        """
        x, mask = super()._inputs(x, mask)
        mask = np.asarray(mask, dtype=float)
        used = np.flatnonzero(mask.any(axis=0))
        length = used[-1] + 1 if used.size else 0
        return x[:, :length], mask[:, :length]

    def _forward_cache(self, x, mask):
        p = self.params
        h_seq, lstm_cache = layers.lstm_forward(x, p["gate_w"], p["gate_b"], self.hidden)
        pooled, pool_cache = layers.masked_mean_forward(h_seq, mask)
        logits, fc_cache = layers.dense_forward(pooled, p["fc_w"], p["fc_b"])
        valid_rows = pool_cache[2]
        if not valid_rows.all():
            logger.warning(
                "%d sequence(s) have no valid positions; emitting uniform predictions",
                int((~valid_rows).sum()),
            )
            logits[~valid_rows] = 0.0  # equal logits: the softmax is exactly uniform
        return logits, (lstm_cache, pool_cache, fc_cache, valid_rows)

    def _backward(self, dlogits, cache):
        lstm_cache, pool_cache, fc_cache, valid_rows = cache
        p = self.params
        dlogits[~valid_rows] = 0.0  # uniform override is constant wrt params
        dpooled, dfc_w, dfc_b = layers.dense_backward(dlogits, fc_cache, p["fc_w"])
        dh_seq = layers.masked_mean_backward(dpooled, pool_cache)
        dgate_w, dgate_b = layers.lstm_backward(dh_seq, lstm_cache, p["gate_w"], self.hidden)
        return dgate_w, dgate_b, dfc_w, dfc_b


_CLASSES = {cls.kind: cls for cls in (CnnClassifier, LstmClassifier)}


def build_model(shape: ClassifierConfig, input_width: int, num_classes: int, seed: int):
    """A freshly initialized classifier of kind ``shape.model`` with ``shape``'s sizes."""
    return _CLASSES[shape.model](shape, input_width, num_classes, seed)


def save_model(model: _Classifier, path) -> None:
    """Write the architecture descriptor and flat parameter arrays as text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_TAG + "\n")
        for key, value in model.arch().items():
            fh.write(f"{key} {value}\n")
        for name, p in model.params.items():
            fh.write(f"param {name} {p.size}\n")
            fh.write(format_floats(p.ravel()) + "\n")


def load_model(path) -> _Classifier:
    """Rebuild a classifier from a checkpoint file.

    The architecture lines fix every parameter's shape, so each ``param``
    line's size is checked against it, in exact integer arithmetic, before
    that parameter's values are read.
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_TAG:
        raise DataFormatError(f"{path}:1: expected format tag {CHECKPOINT_TAG!r}")
    arch: dict = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("param "):
        fields = lines[i].split()
        if len(fields) != 2:
            raise DataFormatError(f"{path}:{i + 1}: expected 'key value'")
        key, value = fields
        if key in arch:
            raise DataFormatError(f"{path}:{i + 1}: repeated architecture key {key!r}")
        if key != "kind" and not value.isdecimal():
            raise DataFormatError(f"{path}:{i + 1}: {key} must be a whole number, got {value!r}")
        arch[key] = value if key == "kind" else int(value)
        i += 1
    kind = arch.get("kind")
    if kind not in _CLASSES:
        raise DataFormatError(f"{path}: unknown model kind {kind!r}")
    cls = _CLASSES[kind]
    names = ("kind", "input_width", "num_classes", *cls.size_names)
    for key in (*names, *arch):
        if key not in arch:
            raise DataFormatError(f"{path}: missing architecture key {key!r}")
        if key not in names:
            raise DataFormatError(f"{path}: architecture key {key!r} is not used by kind {kind!r}")
    try:
        shape = ClassifierConfig(kind, **{key: arch[key] for key in cls.size_names})
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    shapes = cls.param_shapes(shape, arch["input_width"], arch["num_classes"])
    params: dict[str, np.ndarray] = {}
    while i < len(lines):
        header = lines[i].split()
        if len(header) != 3 or header[0] != "param" or not header[2].isdecimal():
            raise DataFormatError(f"{path}:{i + 1}: expected 'param <name> <size>'")
        name, size = header[1], int(header[2])
        if name not in shapes:
            raise DataFormatError(f"{path}:{i + 1}: unexpected param {name!r}")
        if name in params:
            raise DataFormatError(f"{path}:{i + 1}: repeated param {name!r}")
        if size != math.prod(shapes[name]):
            raise DataFormatError(f"{path}:{i + 1}: param {name!r} size mismatch")
        if i + 1 >= len(lines):
            raise DataFormatError(f"{path}:{i + 2}: missing values for param {name!r}")
        try:
            values = np.array(lines[i + 1].split(), dtype=float)
        except ValueError:
            raise DataFormatError(f"{path}:{i + 2}: bad values for param {name!r}") from None
        if values.size != size:
            raise DataFormatError(
                f"{path}:{i + 2}: param {name!r} has {values.size} values, expected {size}"
            )
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}:{i + 2}: param {name!r} has non-finite values")
        params[name] = values.reshape(shapes[name])
        i += 2
    missing = [name for name in shapes if name not in params]
    if missing:
        raise DataFormatError(f"{path}: missing param {missing[0]!r}")
    try:
        ordered = {name: params[name] for name in shapes}
        return cls(shape, arch["input_width"], arch["num_classes"], params=ordered)
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
