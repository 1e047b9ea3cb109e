"""Skip-Gram word embedding training and the embedding text-file format.

Training maximizes the average log probability of context words around each
center word. The exact-softmax mode normalizes over the whole vocabulary every
update and is the default at desk scale; negative sampling is the documented
approximation for larger vocabularies.

File format: first line ``<vocab_size> <dim>``, then one ``<word> <v1> .. <vd>``
line per word. Words must be space-free on disk, so internal spaces of
multi-word tokens (from dictionary merging) are written as ``_`` and restored
on load.
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

# Pairs per block of learning rates and negative draws in train_skipgram. Each
# block's ids, rates and draws become Python lists; at 1024 pairs these raised
# peak RSS on the negative-sampling benchmark by about 0.5 MiB.
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


def _sigmoid(x):
    # tanh form avoids overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax_pair_gradients(input_vectors, output_vectors, center: int, context: int):
    """Log probability of one (center, context) pair and its ascent gradients.

    Returns ``(logp, grad_center_input, grad_output_matrix)`` where the output
    gradient covers every vocabulary row (the exact-softmax normalizer touches
    them all).

    Each value is rounded as in the textbook form ``p = e / z``, ``grad_v =
    out[context] - p @ out``, ``grad_out = outer(-p, v)``: negating the divisor
    or the GEMV input negates the rounded result exactly. The one difference is
    the sign of an exact zero in ``grad_out``: the k = 1 matrix product starts
    from +0, so a -0.0 product (an underflowed ``e``) comes out as +0.0, which
    no update ``out + lr * grad_out`` can tell apart. The calls are chosen for
    their per-call cost, which dominates at desk-scale V and d.
    """
    v = input_vectors[center]
    scores = output_vectors @ v
    m = np.maximum.reduce(scores)
    e = np.exp(scores - m)
    z = np.add.reduce(e)
    negp = e / -z
    logp = float(scores[context] - m - np.log(z))
    grad_v = output_vectors[context] + negp @ output_vectors
    grad_out = np.dot(negp[:, None], v[None, :])
    grad_out[context] += v
    return logp, grad_v, grad_out


def _negative_sampling_gradients(input_vectors, output_vectors, center: int, rows):
    """Scores and ascent gradients of one pair, over its gathered output rows.

    ``rows`` is ``[context, *negatives]``. Returns ``(scores, grad_center_input,
    grad_rows)`` where ``grad_rows[i]`` belongs to output row ``rows[i]``.
    """
    v = input_vectors[center]
    w = output_vectors[rows]
    x = w @ v
    # label minus sigmoid: 1 for the context row, 0 for each negative
    g = -_sigmoid(x)
    g[0] += 1.0
    return x, g @ w, np.dot(g[:, None], v[None, :])


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

    centers, contexts = _pair_arrays(corpus.sentences, config.window)
    pairs_per_epoch = centers.size
    if pairs_per_epoch == 0:
        logger.warning("corpus yields no training pairs; returning initial vectors")
        if track_objective:
            emb.objective_history = [0.0]
        return emb
    total_updates = config.epochs * pairs_per_epoch

    k = config.negative_samples
    cumulative = None
    if config.mode == MODE_NEGATIVE:
        cumulative = np.cumsum(_noise_distribution(corpus))

    history = []
    if track_objective:
        history.append(corpus_objective(corpus, emb, config.window))

    lr0 = config.learning_rate
    lr1 = config.final_learning_rate
    for epoch in range(1, config.epochs + 1):
        first = (epoch - 1) * pairs_per_epoch
        for start in range(0, pairs_per_epoch, PAIR_BLOCK):
            stop = min(start + PAIR_BLOCK, pairs_per_epoch)
            done = np.arange(first + start, first + stop)
            rates = (lr0 + (lr1 - lr0) * (done / total_updates)).tolist()
            block = zip(centers[start:stop].tolist(), contexts[start:stop].tolist(), rates)
            if config.mode == MODE_EXACT:
                for center, context, lr in block:
                    _, grad_v, grad_out = softmax_pair_gradients(inp, out, center, context)
                    # in-place scaling rounds lr * g exactly as a temporary would
                    grad_v *= lr
                    inp[center] += grad_v
                    grad_out *= lr
                    out += grad_out
            else:
                draws = np.searchsorted(cumulative, rng.random((stop - start) * k))
                for (center, context, lr), drawn in zip(block, draws.reshape(-1, k).tolist()):
                    # the context row, then every draw that differs from it; scores unused
                    rows = [context, *(d for d in drawn if d != context)]
                    _, grad_v, grad_rows = _negative_sampling_gradients(inp, out, center, rows)
                    grad_v *= lr
                    inp[center] += grad_v
                    # grad_rows was formed before this update; repeated rows add up
                    grad_rows *= lr
                    np.add.at(out, rows, grad_rows)
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


def escape_word(word: str) -> str:
    """On-disk form of a token: internal spaces become ``_``."""
    return word.replace(" ", "_")


def unescape_word(word: str) -> str:
    """Inverse of escape_word; lossy for a token with its own ``_``."""
    return word.replace("_", " ")


def write_vector_file(path, words, matrix) -> None:
    """Write any (words, |words| x d matrix) pair in the embedding file format."""
    matrix = np.asarray(matrix)
    row_format = " ".join(["%.8g"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        # row by row: a whole-matrix tolist() would hold every value as a Python float at once
        for word, row in zip(words, matrix):
            fh.write(f"{escape_word(word)} {row_format % tuple(row.tolist())}\n")


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
            word = unescape_word(fields[0])
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
