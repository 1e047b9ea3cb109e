"""Word-cluster feature expansion: concatenate each word vector with the
centroid of its cluster, doubling the representation width.

Words outside the clustered set and OOV tokens fall back to zeros, extending
the zero-vector OOV policy to the centroid half.
"""

from __future__ import annotations

import numpy as np

from .clustering import ClusterAssignment
from .embedding import EmbeddingMatrix, write_vector_file
from .errors import DataFormatError


def expand(emb: EmbeddingMatrix, assignment: ClusterAssignment) -> np.ndarray:
    """|V| x 2d table: row i is (word vector i, centroid of word i's cluster).

    Rows follow ``emb.vocabulary``. Every clustered word must exist in the
    embedding vocabulary; words the assignment does not cover get a zero
    centroid half. Values are copied from their sources, never re-derived.
    Centroids of another width than the vectors raise DataFormatError.
    """
    d = emb.dim
    if assignment.centroids.shape[1] != d:
        raise DataFormatError(
            f"centroids have width {assignment.centroids.shape[1]}, but the vectors have width {d}"
        )
    rows = np.zeros((len(emb.vocabulary), 2 * d))
    rows[:, :d] = emb.input_vectors
    for word, cid in zip(assignment.words, assignment.assign):
        if word not in emb.vocabulary:
            raise ValueError(f"clustered word {word!r} missing from the embedding vocabulary")
        rows[emb.vocabulary.index_of(word), d:] = assignment.centroids[cid]
    return rows


def embed_dataset(dataset, table, max_len: int):
    """Embed a LabeledDataset into (B x L x width inputs, B x L mask, labels).

    ``table`` is the row-aligned lookup table: ``expand``'s output or an
    embedding's ``input_vectors``. Each example is tail-truncated to
    ``max_len`` and tail-padded; the mask is 1 on real positions and 0 on
    padding. The dataset's OOV marker maps to a zero row but still counts as a
    valid position. Any other id outside the table raises ValueError.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    table = np.asarray(table, dtype=float)
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


def save_expanded(words, table, path) -> None:
    """Persist the expanded table in the embedding file format (dim = 2d)."""
    write_vector_file(path, words, table)
