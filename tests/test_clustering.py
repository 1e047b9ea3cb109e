import numpy as np
import pytest

from helpers import embeddings_of, word_names
from oracles import (
    average_linkage,
    loop_similarity_matrix,
    naive_hac,
    pair_similarity,
    slot_scan_hac,
    walk_cut_dendrogram,
)
from semexpand import clustering
from semexpand.clustering import (
    ClusterAssignment,
    Dendrogram,
    build_dendrogram,
    compute_centroids,
    cut_dendrogram,
    hac_cluster,
    load_assignment,
    save_assignment,
    similarity_matrix,
)
from semexpand.errors import DataFormatError


class TestPairSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.5, -2.0, 3.0])
        assert pair_similarity(v, v) == 1.0

    def test_three_four_five_triangle(self):
        assert abs(pair_similarity([0.0, 0.0], [3.0, 4.0]) - 1 / 6) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            s = pair_similarity(u, v)
            assert s == pair_similarity(v, u)
            assert 0.0 < s <= 1.0

    def test_strictly_decreasing_in_distance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        values = [pair_similarity(u, u + t * direction) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSimilarityMatrix:
    """The mirrored matrix against the full row pass it replaced, bit for bit."""

    def test_random_vectors(self):
        rng = np.random.default_rng(31)
        for n, d in ((1, 3), (2, 3), (7, 1), (60, 5), (200, 16)):
            vectors = rng.normal(size=(n, d))
            assert np.array_equal(similarity_matrix(vectors), loop_similarity_matrix(vectors))

    def test_tie_heavy_integer_grids(self):
        rng = np.random.default_rng(32)
        for n, d in ((1, 2), (2, 2), (50, 2), (300, 3)):
            vectors = rng.integers(-2, 3, size=(n, d)).astype(float)
            assert np.array_equal(similarity_matrix(vectors), loop_similarity_matrix(vectors))

    def test_refused_allocation_names_words_and_gib(self, monkeypatch):
        # the stand-in refuses at once, so no 298 GiB request reaches the system
        def refuse(shape, *args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB")

        vectors = np.zeros((200_000, 1))
        monkeypatch.setattr(np, "empty", refuse)
        message = "200000 words need a 298.0 GiB similarity matrix"
        with pytest.raises(DataFormatError, match=message):
            similarity_matrix(vectors)


class TestAverageLinkage:
    def test_singletons_equal_pair_similarity(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert average_linkage([0], [1], vectors) == pair_similarity(vectors[0], vectors[1])

    def test_hand_value_seven_twelfths(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        assert abs(average_linkage([0], [1, 2], vectors) - 7 / 12) < 1e-12

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            vectors = rng.normal(size=(10, 3))
            a = sorted(rng.choice(10, size=4, replace=False).tolist())
            b = sorted(set(range(10)) - set(a))
            expected = 0.0
            for u in a:
                for v in b:
                    expected += pair_similarity(vectors[u], vectors[v])
            expected /= len(a) * len(b)
            assert abs(average_linkage(a, b, vectors) - expected) < 1e-12

    def test_overlapping_clusters_rejected(self):
        vectors = np.zeros((3, 2))
        with pytest.raises(ValueError):
            average_linkage([0, 1], [1, 2], vectors)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            average_linkage([], [0], np.zeros((1, 2)))


class TestCentroids:
    def test_hand_mean(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        centroids = compute_centroids([0, 0, 0], vectors, k=1)
        assert np.allclose(centroids, [[1.0, 1.0]], atol=1e-12)

    def test_singleton_equals_vector(self):
        vectors = np.array([[3.0, -1.0], [0.5, 2.0]])
        centroids = compute_centroids([0, 1], vectors, k=2)
        assert np.array_equal(centroids, vectors)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vectors = rng.normal(size=(6, 2))
            assign = rng.integers(0, 2, size=6)
            if len(set(assign.tolist())) < 2:
                assign[0], assign[1] = 0, 1
            shift = rng.normal(size=2)
            base = compute_centroids(assign, vectors, k=2)
            shifted = compute_centroids(assign, vectors + shift, k=2)
            assert np.allclose(shifted, base + shift, atol=1e-9)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(12, 5))
        assign = rng.integers(0, 3, size=12)
        assign[:3] = [0, 1, 2]
        centroids = compute_centroids(assign, vectors, k=3)
        for cluster in range(3):
            members = np.flatnonzero(assign == cluster)
            direct = vectors[members].sum(axis=0) / len(members)
            assert np.allclose(centroids[cluster], direct, atol=1e-9)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            compute_centroids([0, 2], np.zeros((2, 2)), k=3)


class TestHacCluster:
    def test_one_dimensional_hand_case(self):
        vectors = np.array([[0.0], [1.0], [10.0], [12.0]])
        assert build_dendrogram(vectors).merges[0][:2] == (0, 1)
        assignment = hac_cluster(vectors, 2, word_names(4))
        assert assignment.assign.tolist() == [0, 0, 1, 1]
        assert assignment.words == ["w0", "w1", "w2", "w3"]

    def test_k_equals_n_identity(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(5, 3))
        assignment = hac_cluster(vectors, 5, word_names(5))
        assert assignment.assign.tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(assignment.centroids, vectors)

    def test_k_one_global_mean(self):
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(7, 4))
        assignment = hac_cluster(vectors, 1, word_names(7))
        assert assignment.assign.tolist() == [0] * 7
        assert np.allclose(assignment.centroids[0], vectors.mean(axis=0), atol=1e-9)

    def test_k_out_of_range(self):
        vectors = np.zeros((3, 2))
        with pytest.raises(ValueError):
            hac_cluster(vectors, 4, word_names(3))
        with pytest.raises(ValueError):
            hac_cluster(vectors, 0, word_names(3))

    def test_tie_breaking_prefers_smallest_ids(self):
        # unit square: four equally similar edges at the first step
        vectors = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        dendrogram = build_dendrogram(vectors)
        assert dendrogram.merges[0][:2] == (0, 1)
        assert dendrogram.merges[1][:2] == (2, 3)
        assert hac_cluster(vectors, 2, word_names(4)).assign.tolist() == [0, 0, 1, 1]

    def test_matches_naive_oracle_quick(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 33))
            d = int(rng.integers(1, 9))
            vectors = rng.normal(size=(n, d))
            merges, assignments = naive_hac(vectors)
            dendrogram = build_dendrogram(vectors)
            assert [m[:2] + (m[3],) for m in dendrogram.merges] == [
                (a, b, new_id) for a, b, _, new_id in merges
            ]
            for value, oracle in zip(
                (m[2] for m in dendrogram.merges), (m[2] for m in merges)
            ):
                assert abs(value - oracle) < 1e-9
            for k in range(1, n + 1):
                cut = cut_dendrogram(dendrogram, k)
                assignment = clustering.assignment_from_cut(cut, vectors, word_names(n))
                assert assignment.assign.tolist() == assignments[k]

    def test_chosen_merge_is_maximal_each_step(self):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(12, 3))
        dendrogram = build_dendrogram(vectors)
        clusters = {i: [i] for i in range(12)}
        for a, b, value, new_id in dendrogram.merges:
            best = max(
                average_linkage(clusters[x], clusters[y], vectors)
                for x in clusters
                for y in clusters
                if x < y
            )
            assert value >= best - 1e-9
            clusters[new_id] = sorted(clusters.pop(a) + clusters.pop(b))

    def test_refinement_across_k(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(20, 4))
        dendrogram = build_dendrogram(vectors)
        for k in range(1, 20):
            coarse = cut_dendrogram(dendrogram, k)
            fine = cut_dendrogram(dendrogram, k + 1)
            coarse_sets = [set(c) for c in coarse]
            for group in fine:
                assert any(set(group) <= c for c in coarse_sets)

    def test_adjacent_cuts_differ_by_one_merge(self):
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(15, 3))
        dendrogram = build_dendrogram(vectors)
        for k in range(1, 15):
            coarse = {tuple(c) for c in cut_dendrogram(dendrogram, k)}
            fine = {tuple(c) for c in cut_dendrogram(dendrogram, k + 1)}
            merged_away = fine - coarse
            created = coarse - fine
            assert len(created) == 1
            assert len(merged_away) == 2
            (new,) = created
            assert set(new) == set().union(*merged_away)


class TestSlotScanParity:
    """build_dendrogram's merges equal the full-rescan loop's, floats included."""

    @staticmethod
    def _assert_parity(vectors):
        assert build_dendrogram(vectors).merges == slot_scan_hac(vectors)

    def test_one_and_two_vectors(self):
        rng = np.random.default_rng(20)
        for n in (1, 2):
            for d in (1, 3):
                self._assert_parity(rng.normal(size=(n, d)))
                self._assert_parity(rng.integers(0, 3, size=(n, d)).astype(float))

    def test_tie_heavy_integer_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(np.exp(rng.uniform(0.0, np.log(151))))
            d = int(rng.integers(1, 5))
            self._assert_parity(rng.integers(0, 3, size=(n, d)).astype(float))

    def test_normal_data(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(np.exp(rng.uniform(0.0, np.log(151))))
            d = int(rng.integers(1, 9))
            self._assert_parity(rng.normal(size=(n, d)))

    def test_large_integer_grid(self):
        # 600 points on 243 grid sites: duplicates and exact ties at most steps
        rng = np.random.default_rng(23)
        self._assert_parity(rng.integers(0, 3, size=(600, 5)).astype(float))


class TestCutParity:
    """cut_dendrogram's reverse pass gives the member lists of the leaf-to-root walk."""

    @staticmethod
    def _assert_parity(dendrogram, ks):
        for k in ks:
            assert cut_dendrogram(dendrogram, k) == walk_cut_dendrogram(dendrogram, k)

    def test_random_vectors(self):
        rng = np.random.default_rng(30)
        for n in (1, 2, 50, 300):
            dendrogram = build_dendrogram(rng.normal(size=(n, 4)))
            self._assert_parity(dendrogram, range(1, n + 1))

    def test_tie_heavy_integer_grids(self):
        rng = np.random.default_rng(31)
        for n in (3, 40, 300):
            dendrogram = build_dendrogram(rng.integers(0, 3, size=(n, 2)).astype(float))
            self._assert_parity(dendrogram, range(1, n + 1))

    def test_chain_of_paper_vocabulary_size(self):
        # each merge adds one leaf to the last merged node: the walk's deepest tree;
        # the walk takes seconds per cut at small k, so a few k stand for all
        n = 9592
        merges = [(0, 1, 1.0, n)]
        merges += [(leaf, n + leaf - 2, 1.0, n + leaf - 1) for leaf in range(2, n)]
        self._assert_parity(Dendrogram(merges, n), (1, n // 2, n - 1, n))


class TestBuildDendrogramInput:
    def test_non_finite_vectors_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            vectors = np.zeros((4, 2))
            vectors[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                build_dendrogram(vectors)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_dendrogram(np.zeros((0, 2)))


class TestAssignmentFiles:
    def _sample(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(5, 3))
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        return hac_cluster(vectors, 2, words), embeddings_of(words, vectors)

    def test_round_trip(self, tmp_path):
        assignment, emb = self._sample()
        path = tmp_path / "clusters.tsv"
        save_assignment(assignment, path)
        loaded = load_assignment(path, emb)
        assert len(loaded.centroids) == len(assignment.centroids) == 2
        assert loaded.words == assignment.words
        assert np.array_equal(loaded.assign, assignment.assign)
        assert np.array_equal(loaded.centroids, assignment.centroids)

    def test_only_clusters_tsv_is_written(self, tmp_path):
        assignment, _ = self._sample()
        save_assignment(assignment, tmp_path / "clusters.tsv")
        assert [p.name for p in tmp_path.iterdir()] == ["clusters.tsv"]

    def test_centroids_average_the_listed_words_in_file_order(self, tmp_path):
        # a subset of the vocabulary, listed in another order than the vectors;
        # 0.3 + 0.2 + 0.1 and 0.1 + 0.2 + 0.3 differ in the last bit
        vectors = np.array([[0.1, 1.0], [0.2, 2.0], [5.0, 5.0], [0.3, 3.0], [9.0, 9.0]])
        emb = embeddings_of(["a", "b", "c", "d", "e"], vectors)
        path = tmp_path / "clusters.tsv"
        path.write_text("c\t1\nd\t0\nb\t0\na\t0\n", encoding="utf-8")
        loaded = load_assignment(path, emb)
        assert loaded.words == ["c", "d", "b", "a"]
        assert loaded.assign.tolist() == [1, 0, 0, 0]
        in_file_order = vectors[[3, 1, 0]].mean(axis=0)
        assert not np.array_equal(in_file_order, vectors[[0, 1, 3]].mean(axis=0))
        assert np.array_equal(loaded.centroids, [in_file_order, vectors[2]])

    def test_unknown_word_rejected_against_vocabulary(self, tmp_path):
        assignment, _ = self._sample()
        path = tmp_path / "clusters.tsv"
        save_assignment(assignment, path)
        with pytest.raises(DataFormatError, match="gamma"):
            load_assignment(path, embeddings_of(["alpha", "beta"]))

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("a\t0\na\t0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_assignment(path, embeddings_of(["a"]))

    def test_negative_and_noninteger_ids_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("a\t-1\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_assignment(path, embeddings_of(["a"]))
        path.write_text("a\tx\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_assignment(path, embeddings_of(["a"]))

    def test_gap_in_cluster_ids_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("a\t0\nb\t2\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_assignment(path, embeddings_of(["a", "b"]))


class TestClusterAssignmentType:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty cluster"):
            ClusterAssignment(["a", "b"], np.array([0, 2]), np.zeros((3, 1)))
