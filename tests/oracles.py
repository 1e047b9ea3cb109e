"""Slow reference implementations used only by the tests.

naive_hac is an independent O(n^3) agglomerative clusterer: it caches
pairwise-cluster linkages, recomputes only the merged cluster's row after each
merge with literal ascending-id double loops, and snapshots the assignment at
every cluster count during a single agglomeration.

slot_scan_hac is the O(n^3) full-rescan loop that build_dendrogram replaced.
It shares build_dendrogram's similarity sums, sum updates and linkage
arithmetic, so it is the bit-exact reference for merge order under exact
ties, where naive_hac's different summation order can differ in the last ulp.
Its similarities come from loop_similarity_matrix, the full row-by-row pass
that the mirrored similarity_matrix replaced.

walk_cut_dendrogram is the cut that cut_dendrogram's reverse pass replaced: it
maps each merged node to its parent in a dict and walks every leaf up to its
root, O(n * depth) in all. It is the reference for the cut's member lists.

pair_similarity is the similarity formula 1 / (1 + ||u - v||) for one pair;
similarity_matrix computes it for all pairs at once.

average_linkage and softmax_probability are the textbook formulas for the
cluster linkage and the skip-gram pair probability; the pipeline computes both
through other paths (the linkage sum matrix, corpus_objective).

loop_embed_dataset is the per-example, per-token loop that the single gather in
embed_dataset replaced, kept as the reference for its arrays and dtypes.

step_lstm_forward and step_lstm_backward are the per-step LSTM that the
time-major layers.lstm_forward/lstm_backward replaced: every step concatenates
[x_t, h], multiplies by the whole gate matrix, and keeps its own cache tuple.
They are the reference for the hidden sequence and the gate gradients.

loop_train_skipgram is the skip-gram loop that the blocked train_skipgram
replaced: it walks the window pairs of every sentence again in every epoch,
computes each learning rate in Python and draws each pair's negatives with its
own rng.random(K) call. It is the reference for the trained parameters. Its
exact mode steps through loop_softmax_pair_gradients, the textbook form of the
pair gradients (p = e / z, np.outer(-p, v)), which train_skipgram's loop
computes inline with in-place numpy calls that round the same way. It also
returns the pair's log probability, which the finite-difference checks
differentiate.

A negative-sampling pair has two textbook forms. negative_sampling_pair_gradients
is the list form: it gathers the rows [context, *negatives], takes label minus
sigmoid of their scores and returns one gradient entry per listed row, which
train_skipgram's inline step rounds the same way, up to the sign of an exact
zero (0 - s against -s), which compares equal. The step writes the updated rows
back whole when they are all distinct, and adds the entries with np.add.at when
a row repeats or a draw was dropped. The loop trainer with list_rows adds the
entries to their rows in list order, as np.add.at does, so the two train bit
for bit. It caps each
searchsorted draw at V - 1, where train_skipgram searches the cumulative sum
less its last entry; the two draw alike. dict_negative_sampling_pair_gradients
sums a repeated row's entries in a dict first, so the loop trainer's default
path agrees with train_skipgram only within rounding. Both forms return the pair
loss, which the finite-difference checks differentiate.

gradient_check compares a classifier's analytic gradients with central
differences, bumping each entry of model.params in place and putting it back.

window_conv1d_forward and window_conv1d_backward are the convolution as it
was before its columns were copied into one contiguous array: the forward
multiplies a strided sliding-window view, and the backward copies it to rows.
argmax_maxpool1d_forward and argmax_maxpool1d_backward are the max pool as it
was before its cache became a first-max mask: the forward caches each block's
argmax, and the backward scatters into zeros with put_along_axis. All four are
verbatim apart from their names, and are the bit-for-bit reference for the
layers' outputs and gradients.

full_cnn_loss_and_grads is CnnClassifier.loss_and_grads as it was before the
convolution's backward was split: full_conv1d_backward forms every layer's
input gradient, and the first layer's is discarded. It runs on the four
functions above and on layers code that none of them replaced (ReLU, dense,
softmax, cross entropy), so it is the bit-for-bit reference for the loss,
probabilities and gradients. loop_conv1d_backward and loop_conv1d_input_grad
are per-window loops for the split functions.

fstring_write_vector_file is write_vector_file as it was before each row was
formatted with one "%.17g" template: it formats every value with its own
f-string. It is the reference for the bytes of every vector file.
fstring_save_model is save_model as it was before it shared that template; it
is the reference for the bytes of every model file.

choice_sentence is synthetic's sentence generator as it was before each word
index was drawn with rng.integers: it draws with rng.choice. It is the
reference for every generated planted benchmark.
"""

import numpy as np

from semexpand.embedding import MODE_EXACT, MODE_NEGATIVE, EmbeddingMatrix, corpus_objective
from semexpand.errors import DataFormatError, NumericError
from semexpand.nn import CHECKPOINT_TAG, layers
from semexpand.synthetic import TOPIC_COUNT, topic_word


def pair_similarity(u, v) -> float:
    """Euclidean-distance-based similarity 1 / (1 + ||u - v||)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(1.0 / (1.0 + np.sqrt(np.sum((u - v) ** 2))))


def _snapshot(clusters) -> list:
    """Cluster index per leaf, clusters ordered by smallest contained leaf."""
    groups = sorted(clusters.values(), key=lambda members: members[0])
    size = sum(len(g) for g in groups)
    assign = [0] * size
    for index, members in enumerate(groups):
        for leaf in members:
            assign[leaf] = index
    return assign


def loop_similarity_matrix(vectors) -> np.ndarray:
    """All pairwise similarities, every row computed in full with the pair formula."""
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        dist = np.sqrt(np.sum((vectors - vectors[i]) ** 2, axis=1))
        out[i] = 1.0 / (1.0 + dist)
    return out


def average_linkage(a_members, b_members, vectors) -> float:
    """Mean pair similarity between two disjoint clusters."""
    a = sorted(a_members)
    b = sorted(b_members)
    if not a or not b:
        raise ValueError("clusters must be non-empty")
    if set(a) & set(b):
        raise ValueError("clusters overlap")
    vectors = np.asarray(vectors, dtype=float)
    total = 0.0
    for i in a:
        for j in b:
            total += pair_similarity(vectors[i], vectors[j])
    return total / (len(a) * len(b))


def softmax_probability(center: int, context: int, emb: EmbeddingMatrix) -> float:
    """Probability of ``context`` given ``center`` under the full softmax."""
    n = len(emb.vocabulary)
    if not (0 <= center < n and 0 <= context < n):
        raise ValueError(f"word ids must be < {n}")
    scores = emb.output_vectors @ emb.input_vectors[center]
    scores -= scores.max()
    e = np.exp(scores)
    return float(e[context] / e.sum())


def naive_hac(vectors):
    """Full agglomeration of row vectors under average-similarity linkage.

    Returns (merges, assignments_by_k). merges holds (id_a, id_b, linkage,
    new_id) tuples in merge order, with leaves 0..n-1 and merge t creating id
    n+t; ties go to the pair with the smallest (min id, other id). The
    assignments dict has an entry for every k from n down to 1.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    sim = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sim[i, j] = pair_similarity(vectors[i], vectors[j])

    clusters = {i: [i] for i in range(n)}  # dendrogram id -> sorted leaves

    def linkage(a_members, b_members) -> float:
        total = 0.0
        for u in a_members:
            for v in b_members:
                total += sim[u, v]
        return total / (len(a_members) * len(b_members))

    cache = {}
    for a in range(n):
        for b in range(a + 1, n):
            cache[(a, b)] = sim[a, b]

    merges = []
    assignments = {n: _snapshot(clusters)}
    for step in range(n - 1):
        best_pair = None
        best_value = None
        for (a, b), value in cache.items():
            if (
                best_pair is None
                or value > best_value
                or (value == best_value and (a, b) < best_pair)
            ):
                best_pair = (a, b)
                best_value = value
        a, b = best_pair
        new_id = n + step
        merges.append((a, b, best_value, new_id))
        merged = sorted(clusters.pop(a) + clusters.pop(b))
        for pair in [p for p in cache if a in p or b in p]:
            del cache[pair]
        for other, members in clusters.items():
            key = (other, new_id) if other < new_id else (new_id, other)
            cache[key] = linkage(members, merged)
        clusters[new_id] = merged
        assignments[n - step - 1] = _snapshot(clusters)
    return merges, assignments


def slot_scan_hac(vectors):
    """Merges of a full agglomeration, rescanning every active pair per step.

    Returns build_dendrogram's merge list: (id_a, id_b, linkage, new_id)
    tuples with id_a < id_b, ties going to the smallest (id_a, id_b).
    """
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    sims = loop_similarity_matrix(vectors)

    # slot arrays: a merge reuses the first operand's slot
    pair_sums = sims.copy()
    counts = np.ones(n)
    ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges = []
    for step in range(n - 1):
        act = np.flatnonzero(active)
        sub = pair_sums[np.ix_(act, act)] / np.outer(counts[act], counts[act])
        upper = np.triu(np.ones(sub.shape, dtype=bool), 1)
        best = sub[upper].max()
        cand_i, cand_j = np.nonzero(upper & (sub == best))
        # ids, not slots, drive the tie rule
        keyed = []
        for i, j in zip(cand_i, cand_j):
            ia, ib = int(ids[act[i]]), int(ids[act[j]])
            keyed.append(((min(ia, ib), max(ia, ib)), act[i], act[j]))
        (id_a, id_b), slot_a, slot_b = min(keyed)
        new_id = n + step
        merges.append((id_a, id_b, float(best), new_id))
        pair_sums[slot_a, :] += pair_sums[slot_b, :]
        pair_sums[:, slot_a] += pair_sums[:, slot_b]
        counts[slot_a] += counts[slot_b]
        ids[slot_a] = new_id
        active[slot_b] = False
    return merges


def walk_cut_dendrogram(dendrogram, k: int) -> list[list[int]]:
    """Member lists of the k clusters left after the first n-k merges.

    Clusters are ordered by smallest contained leaf, members ascending.
    """
    n = dendrogram.leaf_count
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    parent: dict[int, int] = {}
    for a, b, _, new_id in dendrogram.merges[: n - k]:
        parent[a] = new_id
        parent[b] = new_id
    groups: dict[int, list[int]] = {}
    for leaf in range(n):
        root = leaf
        while root in parent:
            root = parent[root]
        groups.setdefault(root, []).append(leaf)
    clusters = sorted(groups.values(), key=lambda m: m[0])
    if len(clusters) != k:
        raise ValueError(f"cut produced {len(clusters)} clusters, expected {k}")
    return clusters


def _loop_embed_sequence(token_ids, table, max_len: int, oov_marker: int | None = None):
    """Token ids -> (max_len x width matrix, validity mask).

    ``table`` is a row-aligned lookup table. The OOV marker (default: table
    row count) maps to a zero row but still counts as a valid position.
    Sequences are tail-truncated to ``max_len`` and tail-padded with zero rows;
    the mask is 1 on real positions, 0 on padding.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    table = np.asarray(table, dtype=float)
    if oov_marker is None:
        oov_marker = table.shape[0]
    out = np.zeros((max_len, table.shape[1]))
    mask = np.zeros(max_len)
    for t, tok in enumerate(token_ids[:max_len]):
        if tok != oov_marker:
            out[t] = table[tok]
        mask[t] = 1.0
    return out, mask


def loop_embed_dataset(dataset, table, max_len: int):
    """Embed a whole LabeledDataset into (B x L x width, B x L mask, labels)."""
    table = np.asarray(table, dtype=float)
    batch = np.zeros((len(dataset.examples), max_len, table.shape[1]))
    masks = np.zeros((len(dataset.examples), max_len))
    labels = np.zeros(len(dataset.examples), dtype=int)
    for i, (ids, label) in enumerate(dataset.examples):
        batch[i], masks[i] = _loop_embed_sequence(ids, table, max_len, dataset.oov_marker)
        labels[i] = label
    return batch, masks, labels


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def step_lstm_forward(x, w, b, hidden: int):
    """Single-layer LSTM over (B, L, C) input.

    w: (C + hidden, 4*hidden) with gate blocks ordered input, forget, cell,
    output; b likewise. Returns the full hidden sequence (B, L, hidden).
    """
    batch, length, _ = x.shape
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    h_seq = np.zeros((batch, length, hidden))
    caches = []
    for t in range(length):
        xh = np.concatenate([x[:, t, :], h], axis=1)
        z = xh @ w + b
        i = _sigmoid(z[:, :hidden])
        f = _sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(z[:, 3 * hidden :])
        c_prev = c
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        h_seq[:, t, :] = h
        caches.append((xh, i, f, g, o, c_prev, tanh_c))
    return h_seq, caches


def step_lstm_backward(dh_seq, caches, w, hidden: int):
    """Backpropagation through time; returns (dw, db)."""
    batch, length, _ = dh_seq.shape
    dw = np.zeros_like(w)
    db = np.zeros(w.shape[1])
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(range(length)):
        xh, i, f, g, o, c_prev, tanh_c = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dw += xh.T @ dz
        db += dz.sum(axis=0)
        dxh = dz @ w.T
        dh_next = dxh[:, -hidden:]
        dc_next = dc * f
    return dw, db


def dict_negative_sampling_pair_gradients(
    input_vectors, output_vectors, center: int, context: int, negatives
):
    """Negative-sampling pair loss and ascent gradients.

    ``negatives`` must not contain ``context``. Returns
    ``(loss, grad_center_input, {row_id: grad_output_row})``.
    """
    v = input_vectors[center]
    s_pos = _sigmoid(output_vectors[context] @ v)
    loss = float(_log_sigmoid(output_vectors[context] @ v))
    grad_v = (1.0 - s_pos) * output_vectors[context]
    grad_rows = {context: (1.0 - s_pos) * v}
    for n in negatives:
        if n == context:
            raise ValueError("negative sample equals the context word")
        x = output_vectors[n] @ v
        loss += float(_log_sigmoid(-x))
        s_n = _sigmoid(x)
        grad_v = grad_v - s_n * output_vectors[n]
        grad_rows[n] = grad_rows.get(n, 0.0) - s_n * v
    return loss, grad_v, grad_rows


def negative_sampling_pair_gradients(
    input_vectors, output_vectors, center: int, context: int, negatives
):
    """Negative-sampling pair loss and ascent gradients.

    ``negatives`` must not contain ``context``. Returns
    ``(loss, grad_center_input, rows, grad_rows)`` with ``rows`` the list
    ``[context, *negatives]`` and ``grad_rows[i]`` the ascent gradient of output
    row ``rows[i]``; a row listed more than once receives the sum of its entries.
    """
    if context in negatives:
        raise ValueError("negative sample equals the context word")
    rows = [context, *negatives]
    v = input_vectors[center]
    w = output_vectors[rows]
    x = w @ v
    labels = np.zeros(len(rows))
    labels[0] = 1.0
    g = labels - _sigmoid(x)
    loss = float(_log_sigmoid(x[0]) + _log_sigmoid(-x[1:]).sum())
    return loss, g @ w, rows, np.outer(g, v)


def loop_softmax_pair_gradients(input_vectors, output_vectors, center: int, context: int):
    """Log probability of one (center, context) pair and its ascent gradients.

    Returns ``(logp, grad_center_input, grad_output_matrix)`` where the output
    gradient covers every vocabulary row (the exact-softmax normalizer touches
    them all).
    """
    v = input_vectors[center]
    scores = output_vectors @ v
    m = scores.max()
    e = np.exp(scores - m)
    z = e.sum()
    p = e / z
    logp = float(scores[context] - m - np.log(z))
    grad_v = output_vectors[context] - p @ output_vectors
    grad_out = np.outer(-p, v)
    grad_out[context] += v
    return logp, grad_v, grad_out


def window_pairs(sentence: list[int], window: int):
    """(center, context) pairs, clipped at sentence boundaries."""
    n = len(sentence)
    for t in range(n):
        lo = max(0, t - window)
        hi = min(n, t + window + 1)
        for j in range(lo, hi):
            if j != t:
                yield sentence[t], sentence[j]


def loop_noise_distribution(corpus) -> np.ndarray:
    """Unigram^(3/4) noise distribution for negative sampling."""
    counts = np.zeros(len(corpus.vocabulary))
    for sent in corpus.sentences:
        for t in sent:
            counts[t] += 1
    weights = counts**0.75
    return weights / weights.sum()


def loop_train_skipgram(corpus, config, track_objective: bool = False, list_rows: bool = False):
    """Train skip-gram embeddings by per-pair stochastic gradient ascent.

    A negative-sampling pair steps through dict_negative_sampling_pair_gradients,
    whose dict sums a repeated row's entries before the row is updated, or with
    ``list_rows`` through negative_sampling_pair_gradients, adding each row
    entry to its row in list order.
    """
    vocab = corpus.vocabulary
    n = len(vocab)
    if n < 2:
        raise DataFormatError("skip-gram needs a vocabulary of at least 2 words")
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    inp = rng.uniform(-bound, bound, size=(n, config.dim))
    out = rng.uniform(-bound, bound, size=(n, config.dim))
    emb = EmbeddingMatrix(vocab, inp, out)

    pairs_per_epoch = sum(1 for s in corpus.sentences for _ in window_pairs(s, config.window))
    if pairs_per_epoch == 0:
        if track_objective:
            emb.objective_history = [0.0]
        return emb
    total_updates = config.epochs * pairs_per_epoch

    cumulative = None
    if config.mode == MODE_NEGATIVE:
        cumulative = np.cumsum(loop_noise_distribution(corpus))

    history = []
    if track_objective:
        history.append(corpus_objective(corpus, emb, config.window))

    lr0 = config.learning_rate
    lr1 = config.final_learning_rate
    done = 0
    for epoch in range(1, config.epochs + 1):
        for sent in corpus.sentences:
            for center, context in window_pairs(sent, config.window):
                frac = done / total_updates
                lr = lr0 + (lr1 - lr0) * frac
                if config.mode == MODE_EXACT:
                    _, grad_v, grad_out = loop_softmax_pair_gradients(
                        inp, out, center, context
                    )
                    inp[center] += lr * grad_v
                    out += lr * grad_out
                else:
                    # capped: a cumulative sum that ends below 1 leaves its top to the last word
                    draws = np.minimum(
                        np.searchsorted(cumulative, rng.random(config.negative_samples)), n - 1
                    )
                    negatives = [int(d) for d in draws if d != context]
                    if list_rows:
                        _, grad_v, rows, grad_rows = negative_sampling_pair_gradients(
                            inp, out, center, context, negatives
                        )
                        row_entries = zip(rows, grad_rows)
                    else:
                        _, grad_v, grad_by_row = dict_negative_sampling_pair_gradients(
                            inp, out, center, context, negatives
                        )
                        row_entries = grad_by_row.items()
                    inp[center] += lr * grad_v
                    for row, g in row_entries:
                        out[row] += lr * g
                done += 1
        if not (np.isfinite(inp).all() and np.isfinite(out).all()):
            raise NumericError(f"skip-gram training diverged at epoch {epoch}")
        if track_objective:
            history.append(corpus_objective(corpus, emb, config.window))
    if track_objective:
        emb.objective_history = history
    return emb


def gradient_check(model, x, mask, y, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Near-zero pairs (both below 1e-10 in magnitude) are compared absolutely
    against 1e-7 instead, since the relative error is meaningless there.
    """
    _, grads, _ = model.loss_and_grads(x, mask, y)
    max_error = 0.0
    for name, p in model.params.items():
        for i, a in enumerate(grads[name].ravel()):
            saved = p.flat[i]
            p.flat[i] = saved + step
            loss_plus, _, _ = model.loss_and_grads(x, mask, y)
            p.flat[i] = saved - step
            loss_minus, _, _ = model.loss_and_grads(x, mask, y)
            p.flat[i] = saved
            n = (loss_plus - loss_minus) / (2 * step)
            s = max(abs(a), abs(n))
            if s < 1e-10:
                if abs(a - n) >= 1e-7:
                    max_error = max(max_error, 1.0)
                continue
            max_error = max(max_error, abs(a - n) / s)
    return float(max_error)


def full_conv1d_backward(dout, cache, w, kernel_width: int):
    cols, x_shape = cache
    batch, length, channels = x_shape
    out_len = dout.shape[1]
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.sum(axis=(0, 1))
    dcols = (dout @ w.T).reshape(batch, out_len, kernel_width, channels)
    dx = np.zeros(x_shape)
    for j in range(kernel_width):
        dx[:, j : j + out_len, :] += dcols[:, :, j, :]
    return dx, dw, db


def window_conv1d_forward(x, w, b, kernel_width: int):
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


def window_conv1d_backward(dout, cache):
    """(dw, db) of conv1d_forward for the upstream gradient dout (B, L-k+1, F)."""
    cols, _ = cache
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.sum(axis=(0, 1))
    return dw, db


def argmax_maxpool1d_forward(x, width: int):
    """Non-overlapping max pooling along the sequence axis; floor on odd tails."""
    batch, length, channels = x.shape
    pooled_len = length // width
    if pooled_len < 1:
        raise ValueError(f"sequence length {length} shorter than pool width {width}")
    blocks = x[:, : pooled_len * width, :].reshape(batch, pooled_len, width, channels)
    # argmax is the first index of each block's max, where the backward sends the gradient
    return blocks.max(axis=2), (blocks.argmax(axis=2), x.shape, width)


def argmax_maxpool1d_backward(dout, cache):
    idx, x_shape, width = cache
    batch, length, channels = x_shape
    pooled_len = length // width
    dblocks = np.zeros((batch, pooled_len, width, channels))
    np.put_along_axis(dblocks, idx[:, :, None, :], dout[:, :, None, :], axis=2)
    dx = np.zeros(x_shape)
    dx[:, : pooled_len * width, :] = dblocks.reshape(batch, pooled_len * width, channels)
    return dx


def _full_cnn_forward_cache(model, x):
    p = model.params
    kw = model.kernel_width
    c1, c1_cache = window_conv1d_forward(x, p["conv1_w"], p["conv1_b"], kw)
    r1, r1_mask = layers.relu_forward(c1)
    p1, p1_cache = argmax_maxpool1d_forward(r1, model.pool_width)
    c2, c2_cache = window_conv1d_forward(p1, p["conv2_w"], p["conv2_b"], kw)
    r2, r2_mask = layers.relu_forward(c2)
    p2, p2_cache = argmax_maxpool1d_forward(r2, model.pool_width)
    flat = p2.reshape(len(x), -1)
    logits, fc_cache = layers.dense_forward(flat, p["fc_w"], p["fc_b"])
    probs = layers.softmax(logits)
    cache = (c1_cache, r1_mask, p1_cache, c2_cache, r2_mask, p2_cache, p2.shape, fc_cache)
    return probs, cache


def full_cnn_loss_and_grads(model, x, mask, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    probs, cache = _full_cnn_forward_cache(model, x)
    c1_cache, r1_mask, p1_cache, c2_cache, r2_mask, p2_cache, p2_shape, fc_cache = cache
    loss = layers.cross_entropy(probs, y)
    p = model.params
    kw = model.kernel_width
    dlogits = layers.softmax_cross_entropy_grad(probs, y)
    dflat, dfc_w, dfc_b = layers.dense_backward(dlogits, fc_cache, p["fc_w"])
    dp2 = dflat.reshape(p2_shape)
    dr2 = argmax_maxpool1d_backward(dp2, p2_cache)
    dc2 = layers.relu_backward(dr2, r2_mask)
    dp1, dconv2_w, dconv2_b = full_conv1d_backward(dc2, c2_cache, p["conv2_w"], kw)
    dr1 = argmax_maxpool1d_backward(dp1, p1_cache)
    dc1 = layers.relu_backward(dr1, r1_mask)
    _, dconv1_w, dconv1_b = full_conv1d_backward(dc1, c1_cache, p["conv1_w"], kw)
    grads = {
        "conv1_w": dconv1_w,
        "conv1_b": dconv1_b,
        "conv2_w": dconv2_w,
        "conv2_b": dconv2_b,
        "fc_w": dfc_w,
        "fc_b": dfc_b,
    }
    return loss, grads, probs


def loop_conv1d_backward(dout, x, kernel_width: int):
    """(dw, db) of a valid 1-D convolution, one window at a time."""
    batch, length, channels = x.shape
    dw = np.zeros((kernel_width * channels, dout.shape[-1]))
    db = np.zeros(dout.shape[-1])
    for bi in range(batch):
        for t in range(dout.shape[1]):
            dw += np.outer(x[bi, t : t + kernel_width, :].reshape(-1), dout[bi, t])
            db += dout[bi, t]
    return dw, db


def loop_conv1d_input_grad(dout, x_shape, w, kernel_width: int):
    """d(loss)/dx of a valid 1-D convolution, one window at a time."""
    batch, length, channels = x_shape
    dx = np.zeros(x_shape)
    for bi in range(batch):
        for t in range(dout.shape[1]):
            dx[bi, t : t + kernel_width, :] += (w @ dout[bi, t]).reshape(kernel_width, channels)
    return dx


def fstring_write_vector_file(path, words, matrix) -> None:
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            vals = " ".join(f"{x:.17g}" for x in row)
            fh.write(f"{word} {vals}\n")


def fstring_save_model(model, path) -> None:
    """Write the architecture descriptor and flat parameter arrays as text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_TAG + "\n")
        for key, value in model.arch().items():
            fh.write(f"{key} {value}\n")
        for name, p in model.params.items():
            fh.write(f"param {name} {p.size}\n")
            fh.write(" ".join(f"{v:.17g}" for v in p.ravel()) + "\n")


def choice_sentence(rng, topic: int, word_indices, contamination: float, length_range) -> str:
    length = int(rng.integers(length_range[0], length_range[1] + 1))
    tokens = []
    for _ in range(length):
        t = topic
        if contamination > 0 and rng.random() < contamination:
            t = int((topic + 1 + rng.integers(TOPIC_COUNT - 1)) % TOPIC_COUNT)
        tokens.append(topic_word(t, int(rng.choice(word_indices))))
    return " ".join(tokens)
