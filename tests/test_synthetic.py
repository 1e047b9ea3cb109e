import os

import numpy as np
import pytest

from helpers import assert_no_child_left, make_separable_toyset, write_benchmark
from semexpand import clustering, sidebyside, synthetic
from semexpand.corpus import load_labeled_file, load_sentence_file
from semexpand.errors import NumericError


class TestSeparableToyset:
    def test_shapes_and_balanced_labels(self):
        x, mask, y = make_separable_toyset()
        assert x.shape == (20, 20, 8)
        assert mask.shape == (20, 20)
        assert sorted(y.tolist()) == [0] * 10 + [1] * 10

    def test_classes_separated_by_first_feature_mean(self):
        x, mask, y = make_separable_toyset(seed=4)
        means = (x[:, :, 0] * mask).sum(axis=1) / mask.sum(axis=1)
        assert means[y == 0].min() > 0.5
        assert means[y == 1].max() < -0.5

    def test_padding_matches_mask(self):
        x, mask, _ = make_separable_toyset(seed=5)
        assert np.all(x[mask == 0.0] == 0.0)
        assert np.all(mask.sum(axis=1) >= 10)

    def test_deterministic(self):
        a = make_separable_toyset(seed=6)
        b = make_separable_toyset(seed=6)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


class TestBenchmarkGenerator:
    def test_counts_and_label_balance(self):
        bench = synthetic.make_benchmark(seed=1)
        assert len(bench.train) == synthetic.TRAIN_SENTENCES
        assert len(bench.test) == synthetic.TEST_SENTENCES
        assert len(bench.unlabeled) >= synthetic.UNLABELED_SENTENCES
        labels = [label for label, _ in bench.train]
        for topic in range(synthetic.TOPIC_COUNT):
            assert labels.count(f"topic{topic}") == synthetic.TRAIN_SENTENCES // 3

    def test_unlabeled_corpus_covers_every_word(self):
        bench = synthetic.make_benchmark(seed=2)
        seen = {token for line in bench.unlabeled for token in line.split()}
        for topic in range(synthetic.TOPIC_COUNT):
            for index in range(synthetic.WORDS_PER_TOPIC):
                assert synthetic.topic_word(topic, index) in seen

    def test_train_and_test_vocabularies_disjoint(self):
        bench = synthetic.make_benchmark(seed=3)
        cut = synthetic.TRAIN_WORDS_PER_TOPIC
        for label, text in bench.train:
            topic = int(label.removeprefix("topic"))
            for token in text.split():
                assert token.startswith(f"t{topic}w")
                assert int(token[3:]) < cut
        for label, text in bench.test:
            topic = int(label.removeprefix("topic"))
            for token in text.split():
                assert token.startswith(f"t{topic}w")
                assert int(token[3:]) >= cut

    def test_sentence_lengths_in_declared_ranges(self):
        bench = synthetic.make_benchmark(seed=4)
        lo, hi = synthetic.TRAIN_LENGTH
        assert all(lo <= len(t.split()) <= hi for _, t in bench.train)
        lo, hi = synthetic.TEST_LENGTH
        assert all(lo <= len(t.split()) <= hi for _, t in bench.test)

    def test_deterministic(self):
        a = synthetic.make_benchmark(seed=7)
        b = synthetic.make_benchmark(seed=7)
        assert a.unlabeled == b.unlabeled and a.train == b.train and a.test == b.test

    def test_written_files_load_back(self, tmp_path):
        bench = synthetic.make_benchmark(seed=5)
        paths = write_benchmark(bench, tmp_path)
        sentences = load_sentence_file(paths["corpus"])
        assert len(sentences) == len(bench.unlabeled)
        train = load_labeled_file(paths["train"])
        assert train == bench.train
        test = load_labeled_file(paths["test"])
        assert test == bench.test


class TestBenchmarkResult:
    def test_delta(self):
        result = synthetic.BenchmarkResult(expanded_accuracy=0.9, plain_accuracy=0.8)
        assert abs(result.delta - 0.1) < 1e-12


def width_keyed_training(monkeypatch, failing):
    """Make ``synthetic.train_classifier`` raise for the input widths in ``failing``
    (32: the expanded arm, 16: the plain one) and skip training for the others."""

    def train(model, x, mask, y, config):
        if x.shape[2] in failing:
            raise NumericError(f"injected at width {x.shape[2]}")

    monkeypatch.setattr(synthetic, "train_classifier", train)


class TestArmsSideBySide:
    """At 2 CPUs this process trains the expanded arm and a forked child the plain one."""

    @pytest.mark.parametrize("seed", [1000, 3002])
    def test_results_do_not_depend_on_cpu_count(self, monkeypatch, seed):
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: cpus)
            results.append(synthetic.run_benchmark(seed))
            assert_no_child_left()
        assert results[1] == results[0]

    @pytest.mark.parametrize("failing", [{32}, {16}, {32, 16}])
    def test_failure_is_the_serial_runs(self, monkeypatch, failing):
        width_keyed_training(monkeypatch, failing)
        raised = []
        for cpus in (1, 2):
            monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: cpus)
            with pytest.raises(NumericError) as info:
                synthetic.run_benchmark(1)
            assert_no_child_left()
            raised.append((type(info.value), str(info.value)))
        width = max(failing)  # the expanded arm's error wins when both fail
        assert raised == [(NumericError, f"injected at width {width}")] * 2

    def test_dendrogram_is_built_once_in_this_process(self, monkeypatch, tmp_path):
        width_keyed_training(monkeypatch, set())
        calls = tmp_path / "calls"
        build = clustering.build_dendrogram

        def recording_build(vectors):
            # a file, not a list, so that a call in a forked child would show too
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(vectors)

        monkeypatch.setattr(clustering, "build_dendrogram", recording_build)
        monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: 2)
        synthetic.run_benchmark(1)
        assert_no_child_left()
        assert calls.read_text(encoding="utf-8").split() == [str(os.getpid())]
