"""Average-linkage hierarchical agglomerative clustering of word vectors.

Pair similarity is 1 / (1 + euclidean distance), so it lies in (0, 1] and
equals 1 only for identical vectors. Cluster-pair linkage is the mean of all
cross-cluster pair similarities. Agglomeration starts from singletons and
repeatedly merges the most similar pair; equal linkages are broken by the
lexicographically smallest (min cluster id, other cluster id) pair, which
makes merge order deterministic and oracle-testable.

The implementation keeps a matrix of cross-cluster similarity *sums* and adds
the two merged rows on every merge. For average linkage this reproduces the
mean-of-all-pairs definition exactly (the sum over the union is the sum of
the sums), unlike shortcuts that average centroid distances.

The search for the next merge is the "generic" algorithm of Müllner (Modern
hierarchical, agglomerative clustering algorithms, arXiv:1109.2378): every
active cluster caches its best partner, and a merge rescans only the rows
whose cached partner it removed (see build_dendrogram). This takes about
O(n^2) time, where a full rescan per merge takes O(n^3), and gives the same
merges bit for bit. Memory is one n x n float64 matrix: about 8 MB at
n = 1000 and 200 MB at n = 5000.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import read_vector_file, write_vector_file
from .errors import DataFormatError, open_text

logger = logging.getLogger(__name__)


def similarity_matrix(vectors) -> np.ndarray:
    """All pairwise similarities with the pair formula, one row pass per vector.

    Row i computes only columns j >= i and copies them into column i; this is
    exact, because (a - b)^2 == (b - a)^2 in floating point.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    try:
        out = np.empty((n, n))
    except MemoryError:
        gib = n * n * 8 / 2**30
        raise DataFormatError(
            f"{n} words need a {gib:.1f} GiB similarity matrix, more memory than is available"
        ) from None
    for i in range(n):
        dist = np.sqrt(np.sum((vectors[i:] - vectors[i]) ** 2, axis=1))
        out[i, i:] = 1.0 / (1.0 + dist)
        out[i:, i] = out[i, i:]
    return out


@dataclass
class Dendrogram:
    """Full merge history: leaves are 0..n-1, merge t creates cluster n+t."""

    merges: list[tuple[int, int, float, int]]
    leaf_count: int

    def __post_init__(self):
        if self.leaf_count >= 1 and len(self.merges) != self.leaf_count - 1:
            raise ValueError(
                f"{self.leaf_count} leaves need {self.leaf_count - 1} merges, "
                f"got {len(self.merges)}"
            )


@dataclass
class ClusterAssignment:
    """Final word -> cluster map with per-cluster centroids.

    ``words[i]`` belongs to cluster ``assign[i]``; the k = ``len(centroids)``
    cluster ids are 0..k-1, ordered by each cluster's smallest member id.
    """

    words: list[str]
    assign: np.ndarray
    centroids: np.ndarray

    def __post_init__(self):
        self.assign = np.asarray(self.assign, dtype=int)
        k = len(self.centroids)
        if self.assign.size and (self.assign.min() < 0 or self.assign.max() >= k):
            raise ValueError("cluster id outside 0..k-1")
        if (np.bincount(self.assign, minlength=k) < 1).any():
            raise ValueError("empty cluster in assignment")
        if len(self.words) != len(self.assign):
            raise ValueError("words and assignment lengths differ")


def compute_centroids(assign, vectors, k: int) -> np.ndarray:
    """Arithmetic mean of member vectors per cluster 0..k-1, ascending-id order."""
    assign = np.asarray(assign, dtype=int)
    vectors = np.asarray(vectors, dtype=float)
    centroids = np.empty((k, vectors.shape[1]))
    for c in range(k):
        members = np.flatnonzero(assign == c)
        if members.size == 0:
            raise ValueError(f"cluster {c} has no members")
        centroids[c] = vectors[members].mean(axis=0)
    return centroids


# Rows per block of a best-partner scan: a block holds about this many
# linkage values, so the scan's temporaries stay small next to the n x n sums.
_SCAN_VALUES = 1 << 16


def _best_partners(pair_sums, counts, ids, active, rows):
    """Best linkage of each slot in ``rows`` to any other active slot.

    Returns (values, partner ids); among tied partners the smallest id wins.
    """
    n = pair_sums.shape[0]
    block = max(1, _SCAN_VALUES // n)
    values = np.empty(rows.size)
    partners = np.empty(rows.size, dtype=ids.dtype)
    inactive = ~active
    for start in range(0, rows.size, block):
        chunk = rows[start : start + block]
        links = pair_sums[chunk] / (counts[chunk, None] * counts)
        links[:, inactive] = -np.inf
        links[np.arange(chunk.size), chunk] = -np.inf
        best = links.max(axis=1)
        tied = links == best[:, None]
        values[start : start + chunk.size] = best
        # every id is below 2n - 1, so the fill value never wins
        partners[start : start + chunk.size] = np.where(tied, ids, 2 * n).min(axis=1)
    return values, partners


def build_dendrogram(vectors) -> Dendrogram:
    """Agglomerate n vectors all the way to one cluster under average linkage.

    Invariant: every active slot caches its exact best linkage to any other
    active slot and the smallest partner id among the ties. The global merge
    is the largest cached value; among tied rows the smallest (min id, max id)
    pair wins. The two rows of that pair cache each other (a smaller tied
    partner of either would make a smaller pair), so the caches alone decide
    the tie rule.

    After a merge into ``slot_a`` only ``slot_a`` and the rows whose cached
    partner was one of the two merged ids are rescanned. Every other row keeps
    its partner, whose linkage is unchanged, and compares it with its one new
    candidate, the merged cluster, by a strict ``>``: the new id is larger
    than every existing id, so on an exact tie the old partner keeps the win.
    The linkage arithmetic and the sum updates are those of a full rescan, so
    the merges are the same bit for bit.

    A step costs O(n) plus O(n) per rescanned row, about O(n^2) overall. The
    memory is one n x n float64 matrix of similarity sums (about 8 MB at
    n = 1000 and 200 MB at n = 5000) plus scan blocks of ``_SCAN_VALUES``
    values. Non-finite vectors raise ValueError.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    if n < 1:
        raise ValueError("need at least one vector")
    if not np.isfinite(vectors).all():
        raise ValueError("vectors contain non-finite values")

    # slot arrays: a merge reuses the first operand's slot
    pair_sums = similarity_matrix(vectors)
    counts = np.ones(n)
    ids = np.arange(n)
    slot_of = np.arange(2 * n - 1)
    active = np.ones(n, dtype=bool)
    best, partner = _best_partners(pair_sums, counts, ids, active, np.arange(n))
    merges = []
    for step in range(n - 1):
        value = best.max()
        rows = np.flatnonzero(best == value)
        lo = np.minimum(ids[rows], partner[rows])
        hi = np.maximum(ids[rows], partner[rows])
        pick = np.lexsort((hi, lo))[0]
        id_a, id_b = int(lo[pick]), int(hi[pick])
        slot_a, slot_b = sorted((int(slot_of[id_a]), int(slot_of[id_b])))
        new_id = n + step
        merges.append((id_a, id_b, float(value), new_id))
        pair_sums[slot_a, :] += pair_sums[slot_b, :]
        pair_sums[:, slot_a] += pair_sums[:, slot_b]
        counts[slot_a] += counts[slot_b]
        ids[slot_a] = new_id
        slot_of[new_id] = slot_a
        active[slot_b] = False
        best[slot_b] = -np.inf
        # the merged pair cached each other, so this includes slot_a
        rescan = np.flatnonzero(active & ((partner == id_a) | (partner == id_b)))
        links = pair_sums[slot_a] / (counts[slot_a] * counts)
        gains = active & (links > best)
        best[gains] = links[gains]
        partner[gains] = new_id
        best[rescan], partner[rescan] = _best_partners(
            pair_sums, counts, ids, active, rescan
        )
    return Dendrogram(merges, n)


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> list[list[int]]:
    """Member lists of the k clusters left after the first n-k merges.

    Clusters are ordered by smallest contained leaf, members ascending. One
    reverse pass over those merges gives every node its root: merge t creates
    node n+t, so a node's parent comes later in the list and already knows its
    root when the node is reached.
    """
    n = dendrogram.leaf_count
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    root = list(range(2 * n - k))
    for a, b, _, new_id in reversed(dendrogram.merges[: n - k]):
        root[a] = root[b] = root[new_id]
    groups: dict[int, list[int]] = {}
    for leaf in range(n):
        groups.setdefault(root[leaf], []).append(leaf)
    clusters = sorted(groups.values(), key=lambda m: m[0])
    if len(clusters) != k:
        raise ValueError(f"cut produced {len(clusters)} clusters, expected {k}")
    return clusters


def assignment_from_cut(clusters, vectors, words) -> ClusterAssignment:
    """Build the ClusterAssignment of ``words``, with centroids, from cut member lists."""
    vectors = np.asarray(vectors, dtype=float)
    assign = np.empty(vectors.shape[0], dtype=int)
    for cid, members in enumerate(clusters):
        assign[members] = cid
    centroids = compute_centroids(assign, vectors, k=len(clusters))
    return ClusterAssignment(words, assign, centroids)


def hac_cluster(vectors, k: int, words) -> ClusterAssignment:
    """Cluster the vectors of ``words`` into k groups: the assignment after n-k merges."""
    return assignment_from_cut(cut_dendrogram(build_dendrogram(vectors), k), vectors, words)


def centroid_path_for(path) -> str:
    return str(path) + ".centroids"


def save_assignment(assignment: ClusterAssignment, path) -> None:
    """Write ``word<TAB>cluster_id`` lines plus a companion centroid file."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, cid in zip(assignment.words, assignment.assign):
            fh.write(f"{word}\t{int(cid)}\n")
    labels = [f"cluster_{c}" for c in range(len(assignment.centroids))]
    write_vector_file(centroid_path_for(path), labels, assignment.centroids)


def load_assignment(path, vocabulary) -> ClusterAssignment:
    """Read an assignment and its companion centroid file, as ``save_assignment`` writes them.

    Words absent from ``vocabulary`` are rejected. With k distinct cluster ids,
    every id must be spelled ``0`` .. ``<k-1>`` exactly, so no cluster is empty
    and no other spelling (``01``, ``+1``, a space, other digits) reads as an id.
    The centroid file must hold the rows ``cluster_0`` .. ``cluster_<k-1>`` in
    that order.
    """
    words: list[str] = []
    seen: set[str] = set()
    lines_ids: list[tuple[int, str]] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected word<TAB>cluster_id")
            if parts[0] in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate word {parts[0]!r}")
            seen.add(parts[0])
            if parts[0] not in vocabulary:
                raise DataFormatError(f"{path}:{lineno}: unknown word {parts[0]!r}")
            words.append(parts[0])
            lines_ids.append((lineno, parts[1]))
    if not words:
        raise DataFormatError(f"{path}: empty assignment file")
    k = len({cid for _, cid in lines_ids})
    ids = {str(c): c for c in range(k)}
    for lineno, cid in lines_ids:
        if cid not in ids:
            raise DataFormatError(
                f"{path}:{lineno}: cluster id must be an integer in 0..{k - 1}, got {cid!r}"
            )

    cpath = centroid_path_for(path)
    labels, centroids = read_vector_file(cpath)
    names = [f"cluster_{c}" for c in range(k)]
    if labels != names:
        # the first row that differs, or the first row past the shorter list
        c = min(len(labels), k)
        c = next((i for i in range(c) if labels[i] != names[i]), c)
        if c < len(labels):
            raise DataFormatError(f"{cpath}: unexpected centroid token {labels[c]!r}")
        raise DataFormatError(f"{cpath}: missing centroid row for cluster {c}")
    return ClusterAssignment(words, np.array([ids[cid] for _, cid in lines_ids]), centroids)
