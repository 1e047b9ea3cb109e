"""CNN and LSTM short-text classifiers and their text checkpoint format.

Both models consume pre-embedded inputs of shape (B, max_len, input_width)
with a parallel validity mask; embeddings are static inputs, never trained.
The CNN stacks two valid convolutions with ReLU and width-2 max pooling, then
a fully connected softmax layer. The LSTM runs one recurrent layer, mean-pools
hidden states over valid positions and classifies the pooled state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataFormatError, check_range, open_text
from . import layers

logger = logging.getLogger(__name__)

CHECKPOINT_TAG = "semexpand-model v1"
MODEL_KINDS = ("cnn", "lstm")


def cnn_output_lengths(max_len: int, kernel_width: int, pool_width: int):
    """Sequence lengths after each conv/pool stage."""
    conv1 = max_len - kernel_width + 1
    pool1 = conv1 // pool_width
    conv2 = pool1 - kernel_width + 1
    pool2 = conv2 // pool_width if conv2 >= 1 else 0
    return conv1, pool1, conv2, pool2


@dataclass
class ClassifierConfig:
    """Classifier kind and sizes; ``max_len`` is the padded input length.

    build_model takes one; each kind keeps only its own sizes.
    """

    model: str = "lstm"
    hidden: int = 300
    kernels: int = 64
    kernel_width: int = 5
    pool_width: int = 2
    max_len: int = 20

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"must be one of {MODEL_KINDS}, got {self.model!r}", "model")
        for key in ("hidden", "kernels", "kernel_width", "pool_width", "max_len"):
            check_range(key, getattr(self, key), 1)
        lengths = cnn_output_lengths(self.max_len, self.kernel_width, self.pool_width)
        if self.model == "cnn" and min(lengths) < 1:
            raise ConfigError(
                f"max_len={self.max_len} too short for kernel_width={self.kernel_width}, "
                f"pool_width={self.pool_width}: stage lengths {lengths} must all be >= 1"
            )


class _Classifier:
    """Shared parameter bookkeeping for both model kinds."""

    kind: str = ""
    size_names: tuple = ()

    def __init__(self, shape: ClassifierConfig, input_width: int, num_classes: int):
        """Keep the kind's sizes from ``shape`` (already range-checked) as attributes."""
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        self.input_width = input_width
        self.num_classes = num_classes
        self.sizes = {name: getattr(shape, name) for name in self.size_names}
        for name, value in self.sizes.items():
            setattr(self, name, value)
        self.params: dict[str, np.ndarray] = {}

    def arch(self) -> dict:
        """The checkpoint's architecture lines: kind, input_width, num_classes, the kind's sizes."""
        head = {"kind": self.kind, "input_width": self.input_width, "num_classes": self.num_classes}
        return head | self.sizes

    def forward(self, x, mask=None):
        raise NotImplementedError

    def loss_and_grads(self, x, mask, y):
        raise NotImplementedError

    def apply_grads(self, grads: dict, learning_rate: float) -> None:
        for name, g in grads.items():
            self.params[name] -= learning_rate * g


class CnnClassifier(_Classifier):
    kind = "cnn"
    size_names = ("max_len", "kernels", "kernel_width", "pool_width")

    def __init__(self, shape: ClassifierConfig, input_width: int, num_classes: int, seed: int = 0):
        super().__init__(shape, input_width, num_classes)
        kernels, kw = shape.kernels, shape.kernel_width
        self.flat_width = cnn_output_lengths(shape.max_len, kw, shape.pool_width)[3] * kernels
        rng = np.random.default_rng(seed)
        self.params = {
            "conv1_w": layers.glorot_uniform(rng, kw * input_width, kernels, (kw * input_width, kernels)),
            "conv1_b": np.zeros(kernels),
            "conv2_w": layers.glorot_uniform(rng, kw * kernels, kernels, (kw * kernels, kernels)),
            "conv2_b": np.zeros(kernels),
            "fc_w": layers.glorot_uniform(rng, self.flat_width, num_classes, (self.flat_width, num_classes)),
            "fc_b": np.zeros(num_classes),
        }

    def _forward_cache(self, x):
        p = self.params
        kw = self.kernel_width
        c1, c1_cache = layers.conv1d_forward(x, p["conv1_w"], p["conv1_b"], kw)
        r1, r1_mask = layers.relu_forward(c1)
        p1, p1_cache = layers.maxpool1d_forward(r1, self.pool_width)
        c2, c2_cache = layers.conv1d_forward(p1, p["conv2_w"], p["conv2_b"], kw)
        r2, r2_mask = layers.relu_forward(c2)
        p2, p2_cache = layers.maxpool1d_forward(r2, self.pool_width)
        flat = p2.reshape(len(x), -1)
        logits, fc_cache = layers.dense_forward(flat, p["fc_w"], p["fc_b"])
        probs = layers.softmax(logits)
        cache = (c1_cache, r1_mask, p1_cache, c2_cache, r2_mask, p2_cache, p2.shape, fc_cache)
        return probs, cache

    def forward(self, x, mask=None):
        x = np.asarray(x, dtype=float)
        if x.shape[2] != self.input_width:
            raise ValueError(f"input width {x.shape[2]} != model width {self.input_width}")
        probs, _ = self._forward_cache(x)
        return probs

    def loss_and_grads(self, x, mask, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        probs, cache = self._forward_cache(x)
        c1_cache, r1_mask, p1_cache, c2_cache, r2_mask, p2_cache, p2_shape, fc_cache = cache
        loss = layers.cross_entropy(probs, y)
        p = self.params
        dlogits = layers.softmax_cross_entropy_grad(probs, y)
        dflat, dfc_w, dfc_b = layers.dense_backward(dlogits, fc_cache, p["fc_w"])
        dp2 = dflat.reshape(p2_shape)
        dr2 = layers.maxpool1d_backward(dp2, p2_cache)
        dc2 = layers.relu_backward(dr2, r2_mask)
        dconv2_w, dconv2_b = layers.conv1d_backward(dc2, c2_cache)
        dp1 = layers.conv1d_input_grad(dc2, c2_cache, p["conv2_w"], self.kernel_width)
        dr1 = layers.maxpool1d_backward(dp1, p1_cache)
        dc1 = layers.relu_backward(dr1, r1_mask)
        # x is static embeddings, so conv1's input gradient is never formed
        dconv1_w, dconv1_b = layers.conv1d_backward(dc1, c1_cache)
        grads = {
            "conv1_w": dconv1_w,
            "conv1_b": dconv1_b,
            "conv2_w": dconv2_w,
            "conv2_b": dconv2_b,
            "fc_w": dfc_w,
            "fc_b": dfc_b,
        }
        return loss, grads, probs


class LstmClassifier(_Classifier):
    kind = "lstm"
    size_names = ("hidden",)

    def __init__(self, shape: ClassifierConfig, input_width: int, num_classes: int, seed: int = 0):
        super().__init__(shape, input_width, num_classes)
        hidden = shape.hidden
        rng = np.random.default_rng(seed)
        gate_b = np.zeros(4 * hidden)
        gate_b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.params = {
            "gate_w": layers.glorot_uniform(
                rng, input_width + hidden, 4 * hidden, (input_width + hidden, 4 * hidden)
            ),
            "gate_b": gate_b,
            "fc_w": layers.glorot_uniform(rng, hidden, num_classes, (hidden, num_classes)),
            "fc_b": np.zeros(num_classes),
        }

    def _valid_prefix(self, x, mask):
        """x and mask cut after the last column that any row's mask marks valid.

        The recurrence is causal, so later columns never reach the pooled
        state. A None mask marks every position valid.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[2] != self.input_width:
            raise ValueError(f"input width {x.shape[2]} != model width {self.input_width}")
        mask = np.ones(x.shape[:2]) if mask is None else np.asarray(mask, dtype=float)
        used = np.flatnonzero(mask.any(axis=0))
        length = used[-1] + 1 if used.size else 0
        return x[:, :length], mask[:, :length]

    def _forward_cache(self, x, mask):
        p = self.params
        h_seq, lstm_cache = layers.lstm_forward(x, p["gate_w"], p["gate_b"], self.hidden)
        pooled, pool_cache = layers.masked_mean_forward(h_seq, mask)
        logits, fc_cache = layers.dense_forward(pooled, p["fc_w"], p["fc_b"])
        probs = layers.softmax(logits)
        valid_rows = pool_cache[2]
        if not valid_rows.all():
            logger.warning(
                "%d sequence(s) have no valid positions; emitting uniform predictions",
                int((~valid_rows).sum()),
            )
            probs[~valid_rows] = 1.0 / self.num_classes
        return probs, (lstm_cache, pool_cache, fc_cache, valid_rows)

    def forward(self, x, mask=None):
        probs, _ = self._forward_cache(*self._valid_prefix(x, mask))
        return probs

    def loss_and_grads(self, x, mask, y):
        y = np.asarray(y, dtype=int)
        probs, cache = self._forward_cache(*self._valid_prefix(x, mask))
        lstm_cache, pool_cache, fc_cache, valid_rows = cache
        loss = layers.cross_entropy(probs, y)
        p = self.params
        dlogits = layers.softmax_cross_entropy_grad(probs, y)
        dlogits[~valid_rows] = 0.0  # uniform override is constant wrt params
        dpooled, dfc_w, dfc_b = layers.dense_backward(dlogits, fc_cache, p["fc_w"])
        dh_seq = layers.masked_mean_backward(dpooled, pool_cache)
        dgate_w, dgate_b = layers.lstm_backward(dh_seq, lstm_cache, p["gate_w"], self.hidden)
        grads = {"gate_w": dgate_w, "gate_b": dgate_b, "fc_w": dfc_w, "fc_b": dfc_b}
        return loss, grads, probs


_CLASSES = {cls.kind: cls for cls in (CnnClassifier, LstmClassifier)}


def build_model(
    shape: ClassifierConfig, input_width: int, num_classes: int, seed: int = 0
) -> _Classifier:
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
            fh.write(" ".join(f"{v:.17g}" for v in p.ravel()) + "\n")


def load_model(path) -> _Classifier:
    """Rebuild a classifier from a checkpoint file."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_TAG:
        raise DataFormatError(f"{path}:1: expected format tag {CHECKPOINT_TAG!r}")
    arch: dict = {}
    raw_params: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("param "):
        fields = lines[i].split()
        if len(fields) != 2:
            raise DataFormatError(f"{path}:{i + 1}: expected 'key value'")
        key, value = fields
        if key != "kind" and not value.isdecimal():
            raise DataFormatError(f"{path}:{i + 1}: {key} must be a whole number, got {value!r}")
        arch[key] = value if key == "kind" else int(value)
        i += 1
    while i < len(lines):
        header = lines[i].split()
        if len(header) != 3 or header[0] != "param" or not header[2].isdecimal():
            raise DataFormatError(f"{path}:{i + 1}: expected 'param <name> <size>'")
        name, size = header[1], int(header[2])
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
        raw_params[name] = values
        i += 2
    kind = arch.get("kind")
    if kind not in _CLASSES:
        raise DataFormatError(f"{path}: unknown model kind {kind!r}")
    size_names = _CLASSES[kind].size_names
    names = ("kind", "input_width", "num_classes", *size_names)
    for key in (*names, *arch):
        if key not in arch:
            raise DataFormatError(f"{path}: missing architecture key {key!r}")
        if key not in names:
            raise DataFormatError(f"{path}: architecture key {key!r} is not used by kind {kind!r}")
    sizes = {key: arch[key] for key in size_names}
    try:
        model = build_model(ClassifierConfig(kind, **sizes), arch["input_width"], arch["num_classes"])
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    for name, p in model.params.items():
        if name not in raw_params:
            raise DataFormatError(f"{path}: missing param {name!r}")
        if raw_params[name].size != p.size:
            raise DataFormatError(f"{path}: param {name!r} size mismatch")
        model.params[name] = raw_params[name].reshape(p.shape)
    extra = set(raw_params) - set(model.params)
    if extra:
        raise DataFormatError(f"{path}: unexpected param {sorted(extra)[0]!r}")
    return model
