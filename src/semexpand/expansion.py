"""Word-cluster feature expansion: concatenate each word vector with the
centroid of its cluster, doubling the representation width.

Words outside the clustered set and OOV tokens fall back to zeros, extending
the zero-vector OOV policy to the centroid half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterAssignment
from .embedding import EmbeddingMatrix, write_vector_file


@dataclass
class WordClusterMatrix:
    """|V| x 2d matrix: row i = (word vector i, centroid of word i's cluster)."""

    rows: np.ndarray
    embedding: EmbeddingMatrix
    assignment: ClusterAssignment

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def vocabulary(self):
        return self.embedding.vocabulary


def expand(emb: EmbeddingMatrix, assignment: ClusterAssignment) -> WordClusterMatrix:
    """Concatenate word vectors with their cluster centroids.

    Every clustered word must exist in the embedding vocabulary; words the
    assignment does not cover get a zero centroid half. Values are copied from
    their sources, never re-derived.
    """
    if assignment.words is None:
        raise ValueError("assignment carries no words; cannot align with vocabulary")
    d = emb.dim
    rows = np.zeros((len(emb.vocabulary), 2 * d))
    rows[:, :d] = emb.input_vectors
    for word, cid in zip(assignment.words, assignment.assign):
        if word not in emb.vocabulary:
            raise ValueError(f"clustered word {word!r} missing from the embedding vocabulary")
        rows[emb.vocabulary.index_of(word), d:] = assignment.centroids[cid]
    return WordClusterMatrix(rows, emb, assignment)


def _lookup_table(source) -> np.ndarray:
    if isinstance(source, WordClusterMatrix):
        return source.rows
    if isinstance(source, EmbeddingMatrix):
        return source.input_vectors
    return np.asarray(source, dtype=float)


def embed_dataset(dataset, source, max_len: int):
    """Embed a LabeledDataset into (B x L x width inputs, B x L mask, labels).

    ``source`` is a WordClusterMatrix, an EmbeddingMatrix or a plain lookup
    table. Each example is tail-truncated to ``max_len`` and tail-padded; the
    mask is 1 on real positions and 0 on padding. The dataset's OOV marker
    maps to a zero row but still counts as a valid position. Any other id
    outside the table raises ValueError.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    table = _lookup_table(source)
    vocab_size = table.shape[0]
    # row vocab_size is the zero row shared by OOV tokens and padding
    padded = np.vstack([table, np.zeros(table.shape[1])])
    examples = dataset.examples
    flat = np.array([tok for ids, _ in examples for tok in ids[:max_len]], dtype=np.intp)
    bad = flat[(flat != dataset.oov_marker) & ((flat < 0) | (flat >= vocab_size))]
    if bad.size:
        raise ValueError(f"token id {bad[0]} outside 0..{vocab_size - 1}")
    flat[flat == dataset.oov_marker] = vocab_size
    lengths = np.array([min(len(ids), max_len) for ids, _ in examples], dtype=np.intp)
    valid = np.arange(max_len) < lengths[:, None]
    ids = np.full(valid.shape, vocab_size, dtype=np.intp)
    ids[valid] = flat
    labels = np.array([label for _, label in examples], dtype=int)
    return padded[ids], valid.astype(float), labels


def save_expanded(wc: WordClusterMatrix, path) -> None:
    """Persist the expanded matrix in the embedding file format (dim = 2d)."""
    write_vector_file(path, wc.vocabulary.words, wc.rows)
