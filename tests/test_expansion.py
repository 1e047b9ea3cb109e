import numpy as np
import pytest

from semexpand.clustering import ClusterAssignment, hac_cluster
from semexpand.corpus import LabeledDataset, Vocabulary
from semexpand.embedding import EmbeddingMatrix, read_vector_file
from semexpand.errors import DataFormatError
from oracles import loop_embed_dataset
from semexpand.expansion import embed_dataset, expand, save_expanded


def make_embedding(words, vectors):
    vocab = Vocabulary(words)
    vectors = np.asarray(vectors, dtype=float)
    return EmbeddingMatrix(vocab, vectors, np.zeros_like(vectors))


class TestExpand:
    def test_rows_concatenate_vector_and_centroid(self):
        words = ["a", "b", "c", "d"]
        vectors = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        emb = make_embedding(words, vectors)
        assignment = ClusterAssignment(
            words=words,
            assign=[0, 0, 1, 1],
            centroids=np.array([[0.0, 0.5], [10.0, 0.5]]),
        )
        table = expand(emb, assignment)
        assert table.shape == (4, 4)
        assert np.array_equal(table[0], [0.0, 0.0, 0.0, 0.5])
        assert np.array_equal(table[3], [10.0, 1.0, 10.0, 0.5])

    def test_matches_clustering_output(self):
        rng = np.random.default_rng(10)
        words = [f"w{i}" for i in range(6)]
        vectors = rng.normal(size=(6, 3))
        emb = make_embedding(words, vectors)
        assignment = hac_cluster(vectors, k=2, words=words)
        table = expand(emb, assignment)
        for i, cid in enumerate(assignment.assign):
            assert np.array_equal(table[i, :3], vectors[i])
            assert np.array_equal(table[i, 3:], assignment.centroids[cid])

    def test_centroids_copied_not_recomputed(self):
        # a deliberately inconsistent centroid must pass through untouched
        emb = make_embedding(["a", "b"], [[1.0, 0.0], [3.0, 0.0]])
        assignment = ClusterAssignment(["a", "b"], assign=[0, 0], centroids=np.array([[9.0, 9.0]]))
        table = expand(emb, assignment)
        assert np.array_equal(table[:, 2:], [[9.0, 9.0], [9.0, 9.0]])

    def test_words_outside_assignment_get_zero_centroid(self):
        emb = make_embedding(["a", "b", "c"], np.ones((3, 2)))
        assignment = ClusterAssignment(["a", "b"], assign=[0, 0], centroids=np.array([[1.0, 1.0]]))
        table = expand(emb, assignment)
        assert np.array_equal(table[2], [1.0, 1.0, 0.0, 0.0])

    def test_clustered_word_missing_from_vocabulary_rejected(self):
        emb = make_embedding(["a", "b"], np.ones((2, 2)))
        assignment = ClusterAssignment(["a", "zzz"], assign=[0, 0], centroids=np.ones((1, 2)))
        with pytest.raises(ValueError, match="zzz"):
            expand(emb, assignment)

    def test_assignment_without_words_rejected(self):
        with pytest.raises(TypeError, match="words"):
            ClusterAssignment(assign=[0, 0], centroids=np.ones((1, 2)))

    def test_centroids_of_another_width_rejected(self):
        emb = make_embedding(["a", "b"], np.ones((2, 4)))
        assignment = ClusterAssignment(["a", "b"], assign=[0, 0], centroids=np.ones((1, 3)))
        with pytest.raises(DataFormatError, match="width 3.*width 4"):
            expand(emb, assignment)


def embed_one(token_ids, source, max_len, oov_marker=3):
    """embed_dataset on a one-example dataset; rows and mask of that example."""
    dataset = LabeledDataset([(token_ids, 0)], oov_marker=oov_marker, label_names=["a", "b"])
    batch, masks, _ = embed_dataset(dataset, source, max_len)
    return batch[0], masks[0]


class TestEmbedSequence:
    table = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_pads_tail_with_zero_rows(self):
        out, mask = embed_one([0, 1], self.table, max_len=4)
        assert np.array_equal(out, [[1, 2], [3, 4], [0, 0], [0, 0]])
        assert mask.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_truncates_tail_beyond_max_len(self):
        out, mask = embed_one([0, 1, 2, 0, 1], self.table, max_len=3)
        assert np.array_equal(out, [[1, 2], [3, 4], [5, 6]])
        assert mask.tolist() == [1.0, 1.0, 1.0]

    def test_oov_marker_is_zero_row_but_valid(self):
        out, mask = embed_one([0, 3, 1], self.table, max_len=3)
        assert np.array_equal(out[1], [0.0, 0.0])
        assert mask.tolist() == [1.0, 1.0, 1.0]

    def test_explicit_oov_marker(self):
        out, _ = embed_one([0, 7], self.table, max_len=2, oov_marker=7)
        assert np.array_equal(out, [[1, 2], [0, 0]])

    def test_embedding_matrix_source(self):
        emb = make_embedding(["a", "b", "c"], self.table)
        out, _ = embed_one([2, 0], emb.input_vectors, max_len=2)
        assert np.array_equal(out, [[5, 6], [1, 2]])

    def test_expanded_source(self):
        emb = make_embedding(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        assignment = ClusterAssignment(["a", "b"], assign=[0, 0], centroids=np.array([[0.5, 0.5]]))
        out, _ = embed_one([1], expand(emb, assignment), max_len=1)
        assert np.array_equal(out, [[0.0, 1.0, 0.5, 0.5]])

    def test_rejects_nonpositive_max_len(self):
        with pytest.raises(ValueError):
            embed_one([0], self.table, max_len=0)

    def test_rejects_ids_outside_table(self):
        for bad in (3, -1):
            with pytest.raises(ValueError, match=f"token id {bad} outside 0..2"):
                embed_one([0, bad], self.table, max_len=2, oov_marker=7)


class TestEmbedDataset:
    def test_shapes_masks_and_labels(self):
        table = np.eye(3)
        dataset = LabeledDataset(
            examples=[([0, 1], 0), ([2], 1), ([1, 2, 0], 1)],
            oov_marker=3,
            label_names=["x", "y"],
        )
        batch, masks, labels = embed_dataset(dataset, table, max_len=4)
        assert batch.shape == (3, 4, 3)
        assert masks.shape == (3, 4)
        assert labels.tolist() == [0, 1, 1]
        assert masks.sum(axis=1).tolist() == [2.0, 1.0, 3.0]

    def test_respects_dataset_oov_marker(self):
        table = np.ones((2, 2))
        dataset = LabeledDataset(
            examples=[([0, 2, 1], 0), ([1], 1)], oov_marker=2, label_names=["a", "b"]
        )
        batch, masks, _ = embed_dataset(dataset, table, max_len=3)
        assert np.array_equal(batch[0, 1], [0.0, 0.0])
        assert masks[0].tolist() == [1.0, 1.0, 1.0]


class TestLoopParity:
    """The gather against the per-token loop it replaced: equal arrays, equal dtypes."""

    @staticmethod
    def assert_same(dataset, source, max_len):
        for got, want in zip(
            embed_dataset(dataset, source, max_len), loop_embed_dataset(dataset, source, max_len)
        ):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_random_datasets(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            vocab_size = int(rng.integers(1, 40))
            table = rng.normal(size=(vocab_size, int(rng.integers(1, 6))))
            oov = vocab_size if rng.random() < 0.5 else int(rng.integers(vocab_size + 1, 99))
            examples = []
            for _ in range(int(rng.integers(0, 12))):
                ids = rng.integers(0, vocab_size, size=int(rng.integers(0, 15))).tolist()
                ids = [oov if rng.random() < 0.2 else tok for tok in ids]
                examples.append((ids, int(rng.integers(0, 3))))
            dataset = LabeledDataset(examples=examples, oov_marker=oov, label_names=["a", "b", "c"])
            self.assert_same(dataset, table, int(rng.integers(1, 12)))

    def test_wide_vocabulary(self):
        rng = np.random.default_rng(23)
        table = rng.normal(size=(1000, 16))
        examples = [
            (rng.integers(0, 1001, size=int(rng.integers(0, 30))).tolist(), int(rng.integers(0, 2)))
            for _ in range(1500)
        ]
        dataset = LabeledDataset(examples=examples, oov_marker=1000, label_names=["a", "b"])
        self.assert_same(dataset, table, 20)

    def test_edge_cases(self):
        table = np.arange(12, dtype=float).reshape(4, 3)
        dataset = LabeledDataset(
            examples=[([], 1), ([4, 4, 4], 0), ([0, 1, 2, 3, 0, 1], 1), ([4], 0), ([3], 1)],
            oov_marker=4,
            label_names=["a", "b"],
        )
        for max_len in (1, 2, 6, 9):
            self.assert_same(dataset, table, max_len)

    def test_sources(self):
        rng = np.random.default_rng(22)
        words = [f"w{i}" for i in range(8)]
        emb = make_embedding(words, rng.normal(size=(8, 3)))
        assignment = hac_cluster(emb.input_vectors, k=3, words=words)
        dataset = LabeledDataset(
            examples=[([0, 8, 7, 1], 0), ([5, 5], 1), ([], 0)], oov_marker=8, label_names=["a", "b"]
        )
        for source in (emb.input_vectors, expand(emb, assignment), emb.input_vectors.tolist()):
            self.assert_same(dataset, source, 3)


class TestSaveExpanded:
    def test_round_trip_through_vector_file(self, tmp_path):
        rng = np.random.default_rng(11)
        words = ["chest_pain", "fever", "rash"]
        vectors = rng.normal(size=(3, 2))
        emb = make_embedding(words, vectors)
        assignment = hac_cluster(vectors, k=2, words=words)
        table = expand(emb, assignment)
        path = tmp_path / "expanded.txt"
        save_expanded(words, table, path)
        loaded_words, matrix = read_vector_file(path)
        assert loaded_words == words
        assert matrix.shape == (3, 4)
        assert np.abs(matrix - table).max() < 1e-6
