"""End-to-end acceptance checks for the whole package.

Each test verifies one numbered acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line describing what was established. Run with
``python3 -m pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import make_separable_toyset
from oracles import (
    average_linkage,
    gradient_check,
    loop_softmax_pair_gradients,
    naive_hac,
    negative_sampling_pair_gradients,
    pair_similarity,
)
from semexpand.clustering import (
    assignment_from_cut,
    compute_centroids,
    cut_dendrogram,
    hac_cluster,
    load_assignment,
    save_assignment,
)
from semexpand.config import ExperimentConfig, load_config
from semexpand.corpus import build_vocabulary, encode_corpus
from semexpand.embedding import (
    MODE_EXACT,
    SkipGramConfig,
    read_vector_file,
    train_skipgram,
    write_vector_file,
)
from semexpand.errors import DataFormatError
from semexpand.nn import (
    ClassifierConfig,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    save_model,
    train_classifier,
)
from semexpand.pipeline import ARTIFACT_NAMES, run_pipeline
from semexpand.synthetic import (
    ACCURACY_MARGIN,
    BENCHMARK_SEEDS,
    run_benchmark,
)

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


@contextmanager
def criterion(number: int, label: str):
    """Print exactly one [PASS]/[FAIL] line for the wrapped assertions."""
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_clustering_matches_naive_oracle():
    with criterion(1, "clustering matches the naive oracle on 100 random instances"):
        start = time.time()
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 9))
            vectors = rng.normal(size=(n, d))
            merges, assignments = naive_hac(vectors)
            dendrogram, coarsest = hac_cluster(vectors, 1)
            assert [m[:2] + (m[3],) for m in dendrogram.merges] == [
                (a, b, new_id) for a, b, _, new_id in merges
            ]
            for value, oracle in zip(
                (m[2] for m in dendrogram.merges), (m[2] for m in merges)
            ):
                assert abs(value - oracle) < 1e-9
            assert coarsest.assign.tolist() == assignments[1]
            for k in range(2, n + 1):
                cut = cut_dendrogram(dendrogram, k)
                assert assignment_from_cut(cut, vectors).assign.tolist() == assignments[k]
        assert time.time() - start < 30.0


def test_criterion_2_similarity_linkage_centroid_formulas():
    with criterion(2, "similarity, linkage and centroid pass analytic and property checks"):
        u, v = np.zeros(2), np.array([3.0, 4.0])
        assert abs(pair_similarity(u, u) - 1.0) < 1e-12
        assert abs(pair_similarity(u, v) - 1.0 / 6.0) < 1e-12

        vectors = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        assert abs(average_linkage([0], [1, 2], vectors) - 7.0 / 12.0) < 1e-12
        assert abs(average_linkage([0], [1], vectors) - pair_similarity(u, v)) < 1e-12

        tri = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert np.max(np.abs(compute_centroids([0, 0, 0], tri, k=1) - [[1.0, 1.0]])) < 1e-12
        assert np.max(np.abs(compute_centroids([0], tri[:1], k=1) - tri[:1])) < 1e-12

        rng = np.random.default_rng(22)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            a = rng.normal(size=d)
            b = rng.normal(size=d)
            s = pair_similarity(a, b)
            assert abs(s - pair_similarity(b, a)) < 1e-12
            assert 0.0 < s <= 1.0
            group = rng.normal(size=(6, d))
            assign = rng.integers(0, 2, size=6)
            assign[0], assign[1] = 0, 1  # both clusters populated
            shift = rng.normal(size=d)
            moved = compute_centroids(assign, group + shift, k=2)
            fixed = compute_centroids(assign, group, k=2) + shift
            assert np.max(np.abs(moved - fixed)) < 1e-12


def test_criterion_3_gradients_match_finite_differences():
    with criterion(3, "analytic gradients match finite differences for every model"):
        start = time.time()
        rng = np.random.default_rng(6)
        inp = rng.normal(scale=0.5, size=(5, 3))
        out = rng.normal(scale=0.5, size=(5, 3))
        h = 1e-4
        worst = 0.0

        def relerr(analytic, numeric):
            return abs(analytic - numeric) / max(abs(numeric), 1e-8)

        center, context = 2, 4
        _, grad_v, grad_out = loop_softmax_pair_gradients(inp, out, center, context)
        for j in range(3):
            bumped, dipped = inp.copy(), inp.copy()
            bumped[center, j] += h
            dipped[center, j] -= h
            numeric = (
                loop_softmax_pair_gradients(bumped, out, center, context)[0]
                - loop_softmax_pair_gradients(dipped, out, center, context)[0]
            ) / (2 * h)
            worst = max(worst, relerr(grad_v[j], numeric))
        for i in range(5):
            for j in range(3):
                bumped, dipped = out.copy(), out.copy()
                bumped[i, j] += h
                dipped[i, j] -= h
                numeric = (
                    loop_softmax_pair_gradients(inp, bumped, center, context)[0]
                    - loop_softmax_pair_gradients(inp, dipped, center, context)[0]
                ) / (2 * h)
                worst = max(worst, relerr(grad_out[i, j], numeric))

        center, context, negatives = 1, 3, [0, 4, 4]
        _, grad_v, rows, grad_rows = negative_sampling_pair_gradients(
            inp, out, center, context, negatives
        )
        grad_out = np.zeros_like(out)
        np.add.at(grad_out, rows, grad_rows)
        for j in range(3):
            bumped, dipped = inp.copy(), inp.copy()
            bumped[center, j] += h
            dipped[center, j] -= h
            numeric = (
                negative_sampling_pair_gradients(bumped, out, center, context, negatives)[0]
                - negative_sampling_pair_gradients(dipped, out, center, context, negatives)[0]
            ) / (2 * h)
            worst = max(worst, relerr(grad_v[j], numeric))
        for i in range(5):
            for j in range(3):
                bumped, dipped = out.copy(), out.copy()
                bumped[i, j] += h
                dipped[i, j] -= h
                numeric = (
                    negative_sampling_pair_gradients(inp, bumped, center, context, negatives)[0]
                    - negative_sampling_pair_gradients(inp, dipped, center, context, negatives)[0]
                ) / (2 * h)
                worst = max(worst, relerr(grad_out[i, j], numeric))

        shape = ClassifierConfig("cnn", max_len=10, kernels=4, kernel_width=3, pool_width=2)
        cnn = build_model(shape, 3, 3, seed=3)
        x = rng.normal(size=(4, 10, 3))
        y = np.array([0, 1, 2, 1])
        worst = max(worst, gradient_check(cnn, x, None, y))

        lstm = build_model(ClassifierConfig("lstm", hidden=5), 3, 3, seed=4)
        x = rng.normal(size=(4, 6, 3))
        mask = np.ones((4, 6))
        mask[1, 4:] = 0.0
        mask[3, 2:] = 0.0
        y = np.array([2, 0, 1, 1])
        worst = max(worst, gradient_check(lstm, x, mask, y))

        assert worst < 1e-4
        assert time.time() - start < 120.0


def test_criterion_4_embeddings_separate_disjoint_topics():
    with criterion(4, "embeddings separate disjoint topics with a non-decreasing objective"):
        rng = np.random.default_rng(0)
        topics = [[f"t{t}w{i}" for i in range(10)] for t in range(2)]
        sentences = []
        for s in range(200):
            words = topics[s % 2]
            length = int(rng.integers(5, 10))
            sentences.append([words[int(rng.integers(10))] for _ in range(length)])
        vocab = build_vocabulary(sentences, min_count=1)
        corpus = encode_corpus(sentences, vocab)
        cfg = SkipGramConfig(
            dim=16, window=2, epochs=10, learning_rate=0.05,
            final_learning_rate=0.001, mode=MODE_EXACT, seed=0,
        )
        emb = train_skipgram(corpus, cfg, track_objective=True)
        history = emb.objective_history
        assert len(history) == cfg.epochs + 1
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9

        def mean_similarity(words_a, words_b, skip_same):
            values = []
            for a in words_a:
                for b in words_b:
                    if skip_same and a >= b:
                        continue
                    u, v = (emb.input_vectors[vocab.index_of(w)] for w in (a, b))
                    values.append(pair_similarity(u, v))
            return float(np.mean(values))

        intra = np.mean([mean_similarity(t, t, True) for t in topics])
        inter = mean_similarity(topics[0], topics[1], False)
        assert intra > inter


def test_criterion_5_expansion_beats_ablation_on_benchmark():
    with criterion(5, "cluster expansion beats the no-expansion ablation by the margin"):
        start = time.time()
        deltas = [run_benchmark(seed).delta for seed in BENCHMARK_SEEDS]
        assert statistics.median(deltas) >= ACCURACY_MARGIN
        assert time.time() - start < 600.0


def test_criterion_6_classifiers_overfit_toy_set():
    with criterion(6, "both classifiers reach 100% training accuracy on the toy set"):
        x, mask, y = make_separable_toyset()
        shape = ClassifierConfig("cnn", max_len=20, kernels=8, kernel_width=5, pool_width=2)
        cnn = build_model(shape, 8, 2, seed=0)
        train_classifier(
            cnn, x, mask, y, TrainConfig(batch_size=4, epochs=200, learning_rate=0.05, seed=0)
        )
        assert evaluate(cnn, x, mask, y).accuracy == 1.0

        lstm = build_model(ClassifierConfig("lstm", hidden=16), 8, 2, seed=0)
        train_classifier(
            lstm, x, mask, y, TrainConfig(batch_size=4, epochs=200, learning_rate=0.1, seed=0)
        )
        assert evaluate(lstm, x, mask, y).accuracy == 1.0


def test_criterion_7_snapshot_rerun_reproduces_accuracy(tmp_path):
    with criterion(7, "re-running from a report's config snapshot reproduces its accuracy"):
        first = run_pipeline(
            ExperimentConfig(
                corpus=str(DATA / "corpus.txt"),
                dataset=str(DATA / "dataset.tsv"),
                dictionary=str(DATA / "dict.txt"),
                output_dir=str(tmp_path / "first"),
                dim=8,
                embed_epochs=5,
                window=2,
                k=6,
                model="lstm",
                hidden=8,
                max_len=10,
                batch_size=16,
                train_epochs=3,
                learning_rate=0.3,
                seed=3,
            )
        )
        snapshot = tmp_path / "first" / ARTIFACT_NAMES["config"]
        rerun_cfg = load_config(snapshot, overrides={"output_dir": str(tmp_path / "second")})
        rerun = run_pipeline(rerun_cfg)
        assert rerun.test_accuracy == first.test_accuracy
        assert rerun.confusion == first.confusion


def test_criterion_8_round_trips_and_named_errors(tmp_path):
    with criterion(8, "artifacts round-trip and malformed inputs raise the documented errors"):
        rng = np.random.default_rng(33)

        words = ["alpha", "beta", "chest_pain", "delta"]
        matrix = rng.normal(size=(4, 5))
        vec_path = tmp_path / "vectors.txt"
        write_vector_file(vec_path, words, matrix)
        loaded_words, loaded = read_vector_file(vec_path)
        assert loaded_words == words
        assert np.max(np.abs(loaded - matrix)) < 1e-6
        with pytest.raises(ValueError, match="chest pain"):
            write_vector_file(tmp_path / "spaced.txt", ["chest pain"], matrix[:1])

        vectors = rng.normal(size=(6, 3))
        _, assignment = hac_cluster(vectors, 3, words=[f"w{i}" for i in range(6)])
        assign_path = tmp_path / "clusters.tsv"
        save_assignment(assignment, assign_path)
        restored = load_assignment(assign_path)
        assert restored.assign.tolist() == assignment.assign.tolist()
        assert restored.words == assignment.words
        assert np.max(np.abs(restored.centroids - assignment.centroids)) < 1e-6

        model = build_model(ClassifierConfig("lstm", hidden=6), 4, 3, seed=7)
        ckpt_path = tmp_path / "model.ckpt"
        save_model(model, ckpt_path)
        clone = load_model(ckpt_path)
        x = rng.normal(size=(3, 5, 4))
        mask = np.ones((3, 5))
        assert np.max(np.abs(clone.forward(x, mask) - model.forward(x, mask))) < 1e-12

        bad_header = tmp_path / "bad_header.txt"
        bad_header.write_text("not a header\n")
        with pytest.raises(DataFormatError, match=":1:"):
            read_vector_file(bad_header)

        bad_row = tmp_path / "bad_row.txt"
        bad_row.write_text("1 2\nword 0.5 oops\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            read_vector_file(bad_row)

        bad_id = tmp_path / "bad_id.tsv"
        bad_id.write_text("w0\tzero\n")
        (tmp_path / "bad_id.tsv.centroids").write_text("1 1\ncluster_0 0.0\n")
        with pytest.raises(DataFormatError, match="cluster id must be an integer"):
            load_assignment(bad_id)

        bad_tag = tmp_path / "bad_tag.ckpt"
        bad_tag.write_text("some other format\n")
        with pytest.raises(DataFormatError, match="format tag"):
            load_model(bad_tag)
