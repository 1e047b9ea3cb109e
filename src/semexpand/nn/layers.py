"""Forward/backward primitives for the from-scratch classifiers.

Every forward returns (output, cache); the matching backward consumes the
upstream gradient plus that cache. The convolution's backward returns only
the weight and bias gradients: its input is the static embeddings, which
never learn.

conv1d_forward copies its windows into one C-contiguous (B, L-k+1, k*C)
column array. A product on a strided window view pays numpy's overhead for
the view on every call, and the backward then copied the columns again; the
contiguous array multiplies as it is, and conv1d_backward reads it as rows
through a free reshape. The forward product stays batched (3-D @ 2-D): one
flattened 2-D product is faster still, but it rounds differently once k*C is
large (500 at a TREC-like shape), and every output here is bit-identical to
the window-view form. max_over_time_forward caches a mask of each channel's
first max instead of argmax indices: at a TREC-like (128, 16, 64), the mask's
forward and backward took 0.43 ms together, and argmax with put_along_axis
0.58 ms.

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
    The windows are copied into one C-contiguous column array, a slice of x
    per kernel offset, which is the cache conv1d_backward reads.
    """
    batch, length, channels = x.shape
    out_len = length - kernel_width + 1
    if out_len < 1:
        raise ValueError(f"sequence length {length} shorter than kernel {kernel_width}")
    cols = np.empty((batch, out_len, kernel_width * channels))
    by_offset = cols.reshape(batch, out_len, kernel_width, channels)
    for j in range(kernel_width):
        by_offset[:, :, j] = x[:, j : j + out_len]
    out = cols @ w  # batched: see the module docstring
    out += b
    return out, cols


def conv1d_backward(dout, cols):
    """(dw, db) of conv1d_forward for the upstream gradient dout (B, L-k+1, F).

    The cached columns are contiguous, so they reshape to (B * (L-k+1), k*C)
    rows without a copy.
    """
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.sum(axis=(0, 1))
    return dw, db


def max_over_time_forward(x):
    """Max of each channel over the sequence axis: (B, L, C) -> (B, C).

    The cache is a mask of each channel's first max, where the backward sends
    the gradient: a later position equal to the max is cleared once an earlier
    one has been taken.
    """
    out = x.max(axis=1)
    first = x == out[:, None, :]
    taken = first[:, 0].copy()
    for t in range(1, x.shape[1]):
        first[:, t] &= ~taken
        taken |= first[:, t]
    return out, first


def max_over_time_backward(dout, first):
    # every position that is not its channel's first max stays +0.0
    return np.where(first, dout[:, None, :], 0.0)


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
