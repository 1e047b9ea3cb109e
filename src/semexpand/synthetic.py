"""The seeded planted-topic benchmark for the expansion ablation.

The planted-topic benchmark builds three disjoint 30-word topic vocabularies.
Labeled training sentences draw only from the first 20 words of their topic;
test sentences draw from the 10 held-out words, so test-time generalization
has to come from the embedding space, not from memorized word features. The
unlabeled companion corpus covers all 90 words but mixes topics within a
sentence at CONTAMINATION_RATE, leaving single-epoch embeddings individually
noisy while pairwise similarity still groups topics. Cluster centroids average
that noise away, which is exactly the signal the expanded classifier can use
and the plain one cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import clustering, corpus, embedding, expansion
from .config import ExperimentConfig
from .nn import build_model, evaluate, train_classifier
from .sidebyside import run_side_by_side

TOPIC_COUNT = 3
WORDS_PER_TOPIC = 30
TRAIN_WORDS_PER_TOPIC = 20
TRAIN_SENTENCES = 600
TEST_SENTENCES = 150
UNLABELED_SENTENCES = 2000
TRAIN_LENGTH = (4, 8)
TEST_LENGTH = (2, 4)
CONTAMINATION_RATE = 0.25
EMBED_DIM = 16

# benchmark harness settings, tuned for a reliable gap at small runtime;
# perfbench/workloads.py reads BENCH_WINDOW and BENCH_EMBED_EPOCHS by name
BENCH_EMBED_EPOCHS = 1
BENCH_WINDOW = 2
BENCH_CONFIG = ExperimentConfig(
    dim=EMBED_DIM,
    window=BENCH_WINDOW,
    embed_epochs=BENCH_EMBED_EPOCHS,
    k=3,
    model="lstm",
    hidden=64,
    max_len=8,
    batch_size=32,
    train_epochs=30,
    learning_rate=0.1,
)
ACCURACY_MARGIN = 0.02
BENCHMARK_SEEDS = (1, 2, 3, 4, 5)


def topic_word(topic: int, index: int) -> str:
    return f"t{topic}w{index:02d}"


@dataclass
class SyntheticBenchmark:
    unlabeled: list
    train: list
    test: list


def _sentence(rng, topic: int, word_indices, contamination: float, length_range) -> str:
    length = int(rng.integers(length_range[0], length_range[1] + 1))
    tokens = []
    for _ in range(length):
        t = topic
        if contamination > 0 and rng.random() < contamination:
            t = int((topic + 1 + rng.integers(TOPIC_COUNT - 1)) % TOPIC_COUNT)
        # the draw rng.choice makes, without its per-call overhead
        tokens.append(topic_word(t, int(word_indices[rng.integers(len(word_indices))])))
    return " ".join(tokens)


def make_benchmark(seed: int) -> SyntheticBenchmark:
    """Generate the planted-topic benchmark for one seed."""
    rng = np.random.default_rng(seed)
    all_indices = np.arange(WORDS_PER_TOPIC)
    train_indices = all_indices[:TRAIN_WORDS_PER_TOPIC]
    test_indices = all_indices[TRAIN_WORDS_PER_TOPIC:]

    unlabeled = [
        _sentence(rng, int(rng.integers(TOPIC_COUNT)), all_indices, CONTAMINATION_RATE, TRAIN_LENGTH)
        for _ in range(UNLABELED_SENTENCES)
    ]
    seen = {token for line in unlabeled for token in line.split()}
    for topic in range(TOPIC_COUNT):
        missing = [i for i in all_indices if topic_word(topic, i) not in seen]
        while missing:
            unlabeled.append(" ".join(topic_word(topic, i) for i in missing[:8]))
            missing = missing[8:]

    train = [
        (f"topic{n % TOPIC_COUNT}", _sentence(rng, n % TOPIC_COUNT, train_indices, 0.0, TRAIN_LENGTH))
        for n in range(TRAIN_SENTENCES)
    ]
    test = [
        (f"topic{n % TOPIC_COUNT}", _sentence(rng, n % TOPIC_COUNT, test_indices, 0.0, TEST_LENGTH))
        for n in range(TEST_SENTENCES)
    ]
    return SyntheticBenchmark(unlabeled, train, test)


@dataclass
class BenchmarkResult:
    expanded_accuracy: float
    plain_accuracy: float

    @property
    def delta(self) -> float:
        return self.expanded_accuracy - self.plain_accuracy


def run_benchmark(seed: int) -> BenchmarkResult:
    """Train expanded and plain LSTM classifiers on one benchmark instance.

    Both arms share the same embeddings, data and training hyperparameters;
    they differ only in input width (2d expanded vs d plain). Skip-gram and
    clustering run in this process; the arms then train side by side
    (``sidebyside.run_side_by_side``): this process trains the expanded arm
    and, where a second CPU is usable, a forked child the plain one. An arm
    reads nothing the other writes, so the runner returns the two accuracies
    a serial run would, and a failure raises the first failed arm's
    exception, the expanded arm's first, as a serial run would.
    """
    cfg = replace(BENCH_CONFIG, seed=seed)
    bench = make_benchmark(seed)
    sentences = [corpus.tokenize(line) for line in bench.unlabeled]
    vocab = corpus.build_vocabulary(sentences)
    encoded = corpus.encode_corpus(sentences, vocab)
    emb = embedding.train_skipgram(encoded, cfg.skipgram_config())
    assignment = clustering.hac_cluster(emb.input_vectors, cfg.k, vocab.words)
    expanded = expansion.expand(emb, assignment)

    train_ds, test_ds = (
        corpus.encode_dataset([(label, corpus.tokenize(text)) for label, text in rows], vocab)
        for rows in (bench.train, bench.test)
    )

    def arm(source) -> float:
        x_train, m_train, y_train = expansion.embed_dataset(train_ds, source, cfg.max_len)
        x_test, m_test, y_test = expansion.embed_dataset(test_ds, source, cfg.max_len)
        model = build_model(cfg.classifier_config(), x_train.shape[2], train_ds.num_classes, seed)
        train_classifier(model, x_train, m_train, y_train, cfg.train_config(seed))
        return evaluate(model, x_test, m_test, y_test).accuracy

    return BenchmarkResult(*run_side_by_side(arm, [expanded, emb.input_vectors]))
