"""Forward/backward primitives for the from-scratch classifiers.

Every forward returns (output, cache); the matching backward consumes the
upstream gradient plus that cache. The convolution's backward is split in
two: conv1d_backward returns the weight and bias gradients, and
conv1d_input_grad the input gradient, which a caller forms only where
something upstream learns (the first conv layer reads static embeddings).
Arrays are float64 throughout so finite difference checks resolve below 1e-4
relative error.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / sum(shape))  # shape is (fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)


def dense_forward(x, w, b):
    return x @ w + b, x


def dense_backward(dout, x, w):
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dout, mask):
    return dout * mask


def conv1d_forward(x, w, b, kernel_width: int):
    """Valid 1-D convolution along the sequence axis.

    x: (B, L, C); w: (kernel_width * C, F); b: (F,). Output (B, L-k+1, F).
    Each window is flattened (time-major, then channel) to match w's layout.
    """
    batch, length, channels = x.shape
    out_len = length - kernel_width + 1
    if out_len < 1:
        raise ValueError(f"sequence length {length} shorter than kernel {kernel_width}")
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel_width, axis=1)
    # (B, out_len, C, k) -> (B, out_len, k*C)
    cols = windows.transpose(0, 1, 3, 2).reshape(batch, out_len, kernel_width * channels)
    out = cols @ w + b
    return out, (cols, x.shape)


def conv1d_backward(dout, cache):
    """(dw, db) of conv1d_forward for the upstream gradient dout (B, L-k+1, F)."""
    cols, _ = cache
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.sum(axis=(0, 1))
    return dw, db


def conv1d_input_grad(dout, cache, w, kernel_width: int):
    """d(loss)/dx of conv1d_forward: each window's gradient added back at its offsets."""
    _, x_shape = cache
    batch, length, channels = x_shape
    out_len = dout.shape[1]
    dcols = (dout @ w.T).reshape(batch, out_len, kernel_width, channels)
    dx = np.zeros(x_shape)
    for j in range(kernel_width):
        dx[:, j : j + out_len, :] += dcols[:, :, j, :]
    return dx


def maxpool1d_forward(x, width: int):
    """Non-overlapping max pooling along the sequence axis; floor on odd tails."""
    batch, length, channels = x.shape
    pooled_len = length // width
    if pooled_len < 1:
        raise ValueError(f"sequence length {length} shorter than pool width {width}")
    blocks = x[:, : pooled_len * width, :].reshape(batch, pooled_len, width, channels)
    # argmax is the first index of each block's max, where the backward sends the gradient
    return blocks.max(axis=2), (blocks.argmax(axis=2), x.shape, width)


def maxpool1d_backward(dout, cache):
    idx, x_shape, width = cache
    batch, length, channels = x_shape
    pooled_len = length // width
    dblocks = np.zeros((batch, pooled_len, width, channels))
    np.put_along_axis(dblocks, idx[:, :, None, :], dout[:, :, None, :], axis=2)
    dx = np.zeros(x_shape)
    dx[:, : pooled_len * width, :] = dblocks.reshape(batch, pooled_len * width, channels)
    return dx


def softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs, labels):
    """Mean negative log likelihood of the true classes."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def softmax_cross_entropy_grad(probs, labels):
    """d(mean cross-entropy)/d(logits) for softmax outputs."""
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


def _gate_blocks(z, hidden: int):
    """Input, forget, cell and output blocks along the last axis of z."""
    return (
        z[..., :hidden],
        z[..., hidden : 2 * hidden],
        z[..., 2 * hidden : 3 * hidden],
        z[..., 3 * hidden :],
    )


def _gate_affine(hidden: int):
    """Per-column (scale, shift) that turn tanh into the four gate activations.

    sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5, which rounds to the same float as
    0.5 * (1 + tanh(0.5 * z)) because halving is exact; the cell block keeps
    tanh(z) (times 1, plus -0.0, which leaves every float as it is).
    """
    scale = np.full(4 * hidden, 0.5)
    shift = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift[2 * hidden : 3 * hidden] = -0.0
    return scale, shift


def lstm_forward(x, w, b, hidden: int):
    """Single-layer LSTM over (B, L, C) input.

    w: (C + hidden, 4*hidden) with gate blocks ordered input, forget, cell,
    output; b likewise. Returns the hidden sequence as a (B, L, hidden) view
    of the time-major hidden states, and the cache for ``lstm_backward``.

    The input projection is one GEMM over all steps, so a step multiplies only
    h by w[C:]. The sigmoid columns of w and b are halved first (exactly, as a
    power of two), so one tanh per step covers all four gates.
    """
    batch, length, channels = x.shape
    xs = np.empty((length, batch, channels))
    gates = np.empty((length, batch, 4 * hidden))
    cells = np.empty((length + 1, batch, hidden))
    hs = np.empty((length + 1, batch, hidden))
    tanh_cs = np.empty((length, batch, hidden))
    scale, shift = _gate_affine(hidden)
    w_scaled = w * scale
    np.copyto(xs, x.transpose(1, 0, 2))
    np.matmul(xs.reshape(-1, channels), w_scaled[:channels], out=gates.reshape(-1, 4 * hidden))
    gates += b * scale
    w_h = w_scaled[channels:]
    cells[0] = 0.0
    hs[0] = 0.0
    for t in range(length):
        z = gates[t]
        z += hs[t] @ w_h
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f, g, o = _gate_blocks(z, hidden)
        np.multiply(f, cells[t], out=cells[t + 1])
        cells[t + 1] += i * g
        np.tanh(cells[t + 1], out=tanh_cs[t])
        np.multiply(o, tanh_cs[t], out=hs[t + 1])
    return hs[1:].transpose(1, 0, 2), (xs, gates, cells, hs, tanh_cs)


def lstm_backward(dh_seq, cache, w, hidden: int):
    """Backpropagation through time over lstm_forward's cache; returns (dw, db).

    dh_seq is (B, L, hidden). The activations' derivatives are formed for all
    steps at once; each step then writes its gate gradient into the time-major
    dz buffer and carries dh back through w[C:] only. dw is one GEMM for the
    input rows and one for the recurrent rows.
    """
    xs, gates, cells, hs, tanh_cs = cache
    length, batch, channels = xs.shape
    # dz starts as d(gate)/dz: s * (1 - s) for the sigmoid blocks, 1 - g**2 for the cell block
    dz = np.subtract(1.0, gates)
    dz *= gates
    dz_g = _gate_blocks(dz, hidden)[2]
    np.square(_gate_blocks(gates, hidden)[2], out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dtanh_cs = np.square(tanh_cs)
    np.subtract(1.0, dtanh_cs, out=dtanh_cs)
    w_h_t = w[channels:].T
    upstream = np.empty((batch, 4 * hidden))
    u_i, u_f, u_g, u_o = _gate_blocks(upstream, hidden)
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(range(length)):
        i, f, g, o = _gate_blocks(gates[t], hidden)
        dh = dh_seq[:, t, :] + dh_next
        dc = dh * o
        dc *= dtanh_cs[t]
        dc += dc_next
        np.multiply(dc, g, out=u_i)
        np.multiply(dc, cells[t], out=u_f)
        np.multiply(dc, i, out=u_g)
        np.multiply(dh, tanh_cs[t], out=u_o)
        dz[t] *= upstream
        dh_next = dz[t] @ w_h_t
        dc_next = dc * f
    dz_rows = dz.reshape(-1, 4 * hidden)
    dw = np.empty_like(w)
    np.matmul(xs.reshape(-1, channels).T, dz_rows, out=dw[:channels])
    np.matmul(hs[:-1].reshape(-1, hidden).T, dz_rows, out=dw[channels:])
    return dw, dz_rows.sum(axis=0)


def masked_mean_forward(h_seq, mask):
    """Mean of hidden states over valid positions only.

    Examples with zero valid positions pool to zero; the returned
    ``valid_rows`` flags them so the caller can special-case the output.
    """
    counts = mask.sum(axis=1)
    valid_rows = counts > 0
    safe = np.where(valid_rows, counts, 1.0)
    pooled = (h_seq * mask[:, :, None]).sum(axis=1) / safe[:, None]
    return pooled, (mask, safe, valid_rows)


def masked_mean_backward(dpooled, cache):
    mask, safe, valid_rows = cache
    dprm = dpooled * valid_rows[:, None] / safe[:, None]
    return mask[:, :, None] * dprm[:, None, :]
