"""Skip-Gram word embedding training and the embedding text-file format.

Training maximizes the average log probability of context words around each
center word. The exact-softmax mode normalizes over the whole vocabulary every
update and is the default at desk scale. Negative sampling is the documented
approximation for larger vocabularies. Both steps are written once, inline in
train_skipgram's loop, where per-call cost dominates. In both, the current center
word's input row is row 0 of one block, directly above the output rows that a
pair updates, so that one multiply and one add apply the whole update. The row is
copied into the block when the center word changes, and written back to the input
vectors when it changes again and at the end of every epoch.

File format: first line ``<vocab_size> <dim>``, then one ``<word> <v1> .. <vd>``
line per word. Words are written as they are: no token that tokenize() emits
holds whitespace (it joins dictionary terms with ``_``), so none needs escaping.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import MIN_COUNT, TokenizedCorpus, Vocabulary
from .errors import ConfigError, DataFormatError, NumericError, check_range, open_text

logger = logging.getLogger(__name__)

MODE_EXACT = "exact-softmax"
MODE_NEGATIVE = "negative-sampling"

# Pairs per block of learning rates and negative draws in train_skipgram, and
# the rows of its negative-sampling row table (context, then the K draws). Each
# block's ids and rates become Python lists; at 1024 pairs the lists then made
# per block raised peak RSS on the negative-sampling benchmark by about 0.5 MiB.
PAIR_BLOCK = 256


@dataclass
class SkipGramConfig:
    """Skip-gram settings; ``min_count`` applies when the vocabulary is built."""

    window: int = 2
    dim: int = 50
    epochs: int = 15
    learning_rate: float = 0.025
    final_learning_rate: float = 0.0001
    seed: int = 0
    mode: str = MODE_EXACT
    negative_samples: int = 5
    min_count: int = MIN_COUNT

    def __post_init__(self):
        for key in ("window", "dim", "epochs", "negative_samples", "min_count"):
            check_range(key, getattr(self, key), 1)
        check_range("learning_rate", self.learning_rate, 0, low_open=True)
        check_range("final_learning_rate", self.final_learning_rate, 0, self.learning_rate)
        check_range("seed", self.seed, 0)
        if self.mode not in (MODE_EXACT, MODE_NEGATIVE):
            raise ConfigError(f"must be {MODE_EXACT} or {MODE_NEGATIVE}, got {self.mode!r}", "mode")


@dataclass
class EmbeddingMatrix:
    """Input- and output-side vectors for every vocabulary word.

    ``input_vectors`` are the word representations exported downstream;
    ``output_vectors`` are the context-side softmax parameters.
    """

    vocabulary: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    objective_history: list[float] | None = None

    def __post_init__(self):
        n = len(self.vocabulary)
        if self.input_vectors.shape != self.output_vectors.shape:
            raise ValueError("input/output vector shapes differ")
        if self.input_vectors.shape[0] != n:
            raise ValueError(f"expected {n} rows, got {self.input_vectors.shape[0]}")

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


def _pair_arrays(sentences, window: int):
    """Every in-window (center, context) id pair, clipped at sentence ends.

    Pairs come in training order: sentence by sentence, center position
    ascending, then context position ascending.
    """
    # int32 throughout: these whole-corpus arrays are the only large ones that
    # training allocates, and smaller ones leave less heap behind
    lengths = np.fromiter(map(len, sentences), dtype=np.int32, count=len(sentences))
    ids = np.fromiter(chain.from_iterable(sentences), dtype=np.int32, count=int(lengths.sum()))
    start = np.repeat(np.cumsum(lengths, dtype=np.int32) - lengths, lengths)[:, None]
    offsets = np.array([o for o in range(-window, window + 1) if o != 0], dtype=np.int32)
    context = np.arange(ids.size, dtype=np.int32)[:, None] + offsets
    valid = (context >= start) & (context < start + np.repeat(lengths, lengths)[:, None])
    return np.repeat(ids, valid.sum(axis=1)), ids[context[valid]]


def corpus_objective(corpus: TokenizedCorpus, emb: EmbeddingMatrix, window: int) -> float:
    """Average log probability of all in-window pairs, normalized by token count."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if not corpus.sentences:
        raise DataFormatError("cannot evaluate the objective on an empty corpus")
    total = 0.0
    pairs = 0
    out_t = emb.output_vectors.T
    for sent in corpus.sentences:
        ids = np.asarray(sent)
        logits = emb.input_vectors[ids] @ out_t
        m = logits.max(axis=1)
        logz = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        logp = logits - logz[:, None]
        length = len(ids)
        rows = np.arange(length)
        for off in range(1, window + 1):
            if length > off:
                total += float(logp[rows[: length - off], ids[off:]].sum())
                total += float(logp[rows[off:], ids[: length - off]].sum())
                pairs += 2 * (length - off)
    if pairs == 0:
        logger.warning("no valid training pairs (all sentences shorter than 2 tokens)")
        return 0.0
    return total / corpus.token_count


def _noise_distribution(corpus: TokenizedCorpus) -> np.ndarray:
    """Unigram^(3/4) noise distribution for negative sampling."""
    ids = np.fromiter(chain.from_iterable(corpus.sentences), dtype=np.intp)
    weights = np.bincount(ids, minlength=len(corpus.vocabulary)) ** 0.75
    return weights / weights.sum()


def train_skipgram(
    corpus: TokenizedCorpus, config: SkipGramConfig, track_objective: bool = False
) -> EmbeddingMatrix:
    """Train skip-gram embeddings by per-pair stochastic gradient ascent.

    Parameters start uniform in [-0.5/dim, 0.5/dim] from ``config.seed``; the
    learning rate decays linearly to ``config.final_learning_rate`` over all
    updates. Deterministic for a fixed seed (single-threaded). With
    ``track_objective`` the exact objective is recorded before training and
    after every epoch in ``objective_history``.

    Pairs are updated one at a time in corpus order. The pair list is built
    once; learning rates and negative samples are computed for blocks of
    ``PAIR_BLOCK`` pairs. One ``rng.random(block * K)`` call yields the same
    draws as ``K`` per pair, so blocking changes no random number.

    Pairs come center-major, so consecutive pairs mostly share a center. The
    current center's input row ``v`` is row 0 of a block of rows, directly
    above the output rows that the pair updates, and its gradient is row 0 of a
    gradient block of the same layout: one in-place ``multiply`` by ``lr`` and
    one ``add`` apply a pair's whole update. In exact mode the blocks are
    ``(V + 1) x d`` and ``output_vectors`` is a view of rows 1..V; in negative
    sampling they are ``(K + 2) x d`` and a pair uses rows 0..m. ``v`` is copied
    into the block when the center word changes, and written back to
    ``input_vectors`` when it changes again and at the end of every epoch, so
    the finiteness check, the objective and the returned vectors all see it.

    An exact-softmax pair is a fixed sequence of numpy calls on buffers made
    once per call, since at desk-scale V and d the cost of a call, not its
    arithmetic, dominates. Every stored value is rounded as in the textbook
    step ``p = e / z``, ``inp[center] += lr * (out[context] - p @ out)``,
    ``out += lr * (outer(-p, v) + onehot(context) v)``: negating the divisor
    or a product's input negates the rounded result exactly, and scaling by
    ``lr`` in place rounds ``lr * g`` as a temporary would. The one difference
    is the sign of an exact zero in the output gradient: the k = 1 matrix
    product starts from +0, so a -0.0 product (an underflowed ``e``) comes out
    as +0.0, which no update ``out + lr * grad_out`` can tell apart.

    A negative-sampling pair updates the output rows ``[context, *draws]``,
    less every draw equal to the context, with ``g = label - sigmoid(w @ v)``
    in the tanh form ``-0.5 * (1 + tanh(0.5 * x))`` plus 1 for the context,
    ``v += (g @ w) * lr`` and ``lr`` times the outer product
    ``dot(g[:, None], v[None, :])``, formed before ``v`` moves, added to the
    rows. Each block's contexts and draws fill a ``(block, K + 1)`` row table,
    and sorting it along axis 1 flags the pairs whose rows are distinct. Every
    pair runs one fixed sequence of numpy calls on rows 0..m of the blocks, m
    being its row count: ``take`` gathers its rows into rows 1..m and the step
    is computed in place. Only the write-back differs: a pair whose rows are
    distinct updates each row once, so its updated rows are written back whole;
    a pair with a repeated row or a dropped draw adds its scaled gradients with
    ``np.add.at``, so a repeated row accumulates in list order.
    Both round every stored value as the list form does. A draw is the first
    word whose cumulative noise probability reaches the uniform; the last word
    also owns whatever of [0, 1) lies above a cumulative sum that ends below 1.
    """
    vocab = corpus.vocabulary
    n = len(vocab)
    if n < 2:
        raise DataFormatError("skip-gram needs a vocabulary of at least 2 words")
    exact = config.mode == MODE_EXACT
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    inp = rng.uniform(-bound, bound, size=(n, config.dim))
    if exact:
        # the current center's input row, then every output row, so that one add
        # applies a pair's whole update. Made before the draw: a draw made first and
        # then copied in left a hole below the block, and the toy benchmark's peak
        # RSS rose by 0.6 MiB
        rows = np.empty((n + 1, config.dim))
        rows[1:] = rng.uniform(-bound, bound, size=(n, config.dim))
        out = rows[1:]
    else:
        out = rng.uniform(-bound, bound, size=(n, config.dim))
    emb = EmbeddingMatrix(vocab, inp, out)

    centers, contexts = _pair_arrays(corpus.sentences, config.window)
    pairs_per_epoch = centers.size
    if pairs_per_epoch == 0:
        logger.warning("corpus yields no training pairs; returning initial vectors")
        if track_objective:
            emb.objective_history = [0.0]
        return emb
    total_updates = config.epochs * pairs_per_epoch

    if exact:
        negp = np.empty((n, 1))  # the scores, then -p: a column for the outer product
        negp_flat = negp[:, 0]
        grads = np.empty((n + 1, config.dim))  # the center's gradient, then every output row's
        grad_v, grad_out = grads[0], grads[1:]
    else:
        k = config.negative_samples
        # searched without its last entry, so that the last word owns the top of
        # [0, 1): a cumulative sum can end below 1, and a uniform above it gave V
        cumulative = np.cumsum(_noise_distribution(corpus))[:-1]
        # the center's input row, then the pair's output rows, the context's first;
        # the update is made in place
        rows = np.empty((k + 2, config.dim))
        grads = np.empty((k + 2, config.dim))  # the center's gradient, then each row's
        g_all = np.empty((k + 1, 1))  # the scores, then label minus sigmoid: a column
        grad_v = grads[0]
        # for a pair that updates m output rows: those rows and their gradients, the
        # first m entries of g, and the first m + 1 rows of both blocks
        buffers = [
            (rows[1:m + 1], g_all[:m], g_all[:m, 0], grads[1:m + 1], rows[:m + 1], grads[:m + 1])
            for m in range(k + 2)
        ]
        # 0-d arrays, which a ufunc takes without converting a Python float each call
        half, one, minus_half = np.array(0.5), np.array(1.0), np.array(-0.5)
    # the current center's input row, held in the block until the center changes
    v_row = rows[:1]
    v = rows[0]
    current = int(centers[0])
    v[:] = inp[current]

    history = []
    if track_objective:
        history.append(corpus_objective(corpus, emb, config.window))

    lr0 = config.learning_rate
    lr1 = config.final_learning_rate
    add, add_at, add_reduce, divide, dot = np.add, np.add.at, np.add.reduce, np.divide, np.dot
    exp, multiply, subtract, tanh = np.exp, np.multiply, np.subtract, np.tanh
    for epoch in range(1, config.epochs + 1):
        first = (epoch - 1) * pairs_per_epoch
        for start in range(0, pairs_per_epoch, PAIR_BLOCK):
            stop = min(start + PAIR_BLOCK, pairs_per_epoch)
            done = np.arange(first + start, first + stop)
            rates = (lr0 + (lr1 - lr0) * (done / total_updates)).tolist()
            pairs = zip(centers[start:stop].tolist(), contexts[start:stop].tolist(), rates)
            if exact:
                for center, context, lr in pairs:
                    if center != current:
                        inp[current] = v
                        v[:] = inp[center]
                        current = center
                    dot(out, v, negp_flat)
                    # the max through argmax: the same float, NaN included, at a third the cost
                    subtract(negp_flat, negp_flat[negp_flat.argmax()], negp_flat)
                    exp(negp_flat, negp_flat)
                    divide(negp_flat, -add_reduce(negp_flat), negp_flat)
                    dot(negp_flat, out, grad_v)
                    add(out[context], grad_v, grad_v)
                    dot(negp, v_row, grad_out)
                    context_row = grad_out[context]
                    add(context_row, v, context_row)
                    multiply(grads, lr, grads)
                    add(rows, grads, rows)
            else:
                draws = np.searchsorted(cumulative, rng.random((stop - start) * k))
                table = np.column_stack((contexts[start:stop], draws.reshape(-1, k)))
                ordered = np.sort(table, axis=1)
                distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1).tolist()
                for (center, context, lr), row, fast in zip(pairs, table, distinct):
                    if center != current:
                        inp[current] = v
                        v[:] = inp[center]
                        current = center
                    # the context row, then every draw that differs from it
                    pair_rows = row if fast else [
                        context, *(d for d in row.tolist()[1:] if d != context)
                    ]
                    w, g, g_flat, grad_rows, stacked, stacked_grads = buffers[len(pair_rows)]
                    out.take(pair_rows, 0, w)
                    dot(w, v, g_flat)
                    # label minus sigmoid, in tanh form so that no score overflows:
                    # 1 for the context row, 0 for each draw
                    multiply(g_flat, half, g_flat)
                    tanh(g_flat, g_flat)
                    add(g_flat, one, g_flat)
                    multiply(g_flat, minus_half, g_flat)
                    g_flat[0] += 1.0
                    dot(g, v_row, grad_rows)  # formed before v moves
                    dot(g_flat, w, grad_v)
                    multiply(stacked_grads, lr, stacked_grads)
                    add(stacked, stacked_grads, stacked)
                    if fast:
                        # no row repeats and no draw equals the context: each row is
                        # updated once, so the updated rows are written back whole
                        out[pair_rows] = w
                    else:
                        add_at(out, pair_rows, grad_rows)  # repeated rows add up, in list order
        inp[current] = v  # before the check and the objective read inp
        if not (np.isfinite(inp).all() and np.isfinite(out).all()):
            raise NumericError(f"skip-gram training diverged at epoch {epoch}")
        if track_objective:
            obj = corpus_objective(corpus, emb, config.window)
            if not np.isfinite(obj):
                raise NumericError(f"skip-gram objective became NaN at epoch {epoch}")
            history.append(obj)
            logger.info("epoch %d/%d objective %.6f", epoch, config.epochs, obj)
    if track_objective:
        emb.objective_history = history
    return emb


def write_vector_file(path, words, matrix) -> None:
    """Write any (words, |words| x d matrix) pair in the embedding file format."""
    bad = [word for word in words if word.split() != [word]]
    if bad:  # read_vector_file splits lines on whitespace: such a word would not read back
        raise ValueError(f"vector-file word {bad[0]!r} is empty or holds whitespace")
    matrix = np.asarray(matrix)
    row_format = " ".join(["%.17g"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        # row by row: a whole-matrix tolist() would hold every value as a Python float at once
        for word, row in zip(words, matrix):
            fh.write(f"{word} {row_format % tuple(row.tolist())}\n")


def read_vector_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an embedding-format file into (words, matrix).

    Raises DataFormatError with a line number for malformed headers, rows with
    the wrong number of values, non-numeric or non-finite values and duplicate
    words.
    """
    with open_text(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise DataFormatError(f"{path}:1: header must be '<vocab_size> <dim>'")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataFormatError(f"{path}:1: header must contain two integers") from None
        if count < 1 or dim < 1:
            raise DataFormatError(f"{path}:1: vocab size and dim must be positive")
        words: list[str] = []
        seen: set[str] = set()
        # rows are collected, not preallocated: the header's count is not trusted
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if len(rows) >= count:
                raise DataFormatError(f"{path}:{lineno}: more rows than the header declares")
            fields = line.split()
            if len(fields) != dim + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 1 word + {dim} values, got {len(fields)} fields"
                )
            word = fields[0]
            if word in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
            try:
                values = np.array([float(x) for x in fields[1:]])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric value") from None
            if not np.isfinite(values).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite value")
            words.append(word)
            rows.append(values)
    if len(rows) != count:
        raise DataFormatError(f"{path}: header declares {count} rows, found {len(rows)}")
    return words, np.stack(rows)


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Persist the input-side vectors (the exported word representations)."""
    write_vector_file(path, emb.vocabulary.words, emb.input_vectors)


def load_embeddings(path) -> EmbeddingMatrix:
    """Load a standalone embedding file; the output side is zero."""
    words, matrix = read_vector_file(path)
    return EmbeddingMatrix(Vocabulary(words), matrix, np.zeros_like(matrix))
