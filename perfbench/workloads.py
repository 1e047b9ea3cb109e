"""The benchmark's workloads: input generation, one experiment, output checks.

Every workload is an experiment a researcher runs and waits for. Inputs are a
pure function of the benchmark seed; the program only ever sees the generated
files (or, for ``planted``, the seed that ``synthetic.run_benchmark`` takes).
Repetitions inside one benchmark run use sub-seeds derived from the benchmark
seed (``sub_seed``), so an accuracy averaged over them is deterministic per
seed and a repeated sub-seed must reproduce its accuracy bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from semexpand import corpus, embedding, synthetic
from semexpand.config import load_config
from semexpand.pipeline import load_report, run_pipeline

ROOT = Path(__file__).resolve().parent.parent

# Distinct sub-seeds whose accuracies are averaged into test_accuracy. Timing
# repetitions past this count cycle through the same sub-seeds again.
ACCURACY_SEEDS = {"toy": 5, "planted": 5, "wide-vocab": 4}

WIDE_TOPICS = 5
WIDE_WORDS_PER_TOPIC = 200
WIDE_SENTENCES = 1500
WIDE_EXAMPLES = 500
WIDE_LENGTH = (4, 8)
WIDE_CONTAMINATION = 0.2
WIDE_CONFIG = {
    "dim": 32,
    "window": 2,
    "embed_epochs": 1,
    "embed_learning_rate": 0.5,
    "embed_mode": embedding.MODE_NEGATIVE,
    "negative_samples": 5,
    "k_min": 6,
    "k_max": 96,
    "k_steps": 4,
    "model": "cnn",
    "kernels": 32,
    "kernel_width": 3,
    "pool_width": 2,
    "max_len": 12,
    "batch_size": 32,
    "train_epochs": 10,
    "learning_rate": 0.3,
}
_WIDE_WORDS = [
    f"{chr(ord('a') + topic)}{index:03d}"
    for topic in range(WIDE_TOPICS)
    for index in range(WIDE_WORDS_PER_TOPIC)
]


class CheckFailed(Exception):
    """An experiment returned, but its output is wrong."""


def sub_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _wide_sentences(rng, topics, lengths) -> list:
    """One sentence per (topic, length); each word leaves its topic with WIDE_CONTAMINATION.

    Within a topic, words are drawn Zipf-like, with weight 1 / (rank + 10).
    """
    weights = 1.0 / (np.arange(WIDE_WORDS_PER_TOPIC) + 10.0)
    word_topics = np.repeat(topics, lengths)
    stray = rng.random(len(word_topics)) < WIDE_CONTAMINATION
    word_topics[stray] = rng.integers(WIDE_TOPICS, size=int(stray.sum()))
    ranks = rng.choice(WIDE_WORDS_PER_TOPIC, size=len(word_topics), p=weights / weights.sum())
    tokens = [_WIDE_WORDS[t * WIDE_WORDS_PER_TOPIC + r] for t, r in zip(word_topics, ranks)]
    ends = np.cumsum(lengths)
    return [" ".join(tokens[end - n : end]) for n, end in zip(lengths, ends)]


def _write_wide_vocab(seed: int, work: Path) -> dict:
    """Topic corpus and labelled set in which every one of the 1000 words occurs."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(WIDE_LENGTH[0], WIDE_LENGTH[1] + 1, size=WIDE_SENTENCES + WIDE_EXAMPLES)
    topics = rng.integers(WIDE_TOPICS, size=WIDE_SENTENCES)
    lines = _wide_sentences(rng, topics, lengths[:WIDE_SENTENCES])
    seen = {w for line in lines for w in line.split()}
    unseen = [w for w in _WIDE_WORDS if w not in seen]
    lines += [" ".join(unseen[i : i + 8]) for i in range(0, len(unseen), 8)]
    (work / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels = np.arange(WIDE_EXAMPLES) % WIDE_TOPICS
    texts = _wide_sentences(rng, labels, lengths[WIDE_SENTENCES:])
    rows = "".join(f"topic{label}\t{text}\n" for label, text in zip(labels, texts))
    (work / "dataset.tsv").write_text(rows, encoding="utf-8")
    return {"corpus": str(work / "corpus.txt"), "dataset": str(work / "dataset.tsv"), **WIDE_CONFIG}


def write_inputs(name: str, seed: int, work: Path) -> None:
    """Generate the workload's inputs for ``seed`` and write them under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    base, values = None, {}
    if name == "toy":
        # The shipped config names its data relative to the repository root.
        toy = ROOT / "data" / "toy"
        base = str(toy / "config.txt")
        for key, fname in (
            ("corpus", "corpus.txt"),
            ("dataset", "dataset.tsv"),
            ("dictionary", "dict.txt"),
            ("synonyms", "synonyms.tsv"),
        ):
            values[key] = str(toy / fname)
    elif name == "wide-vocab":
        values = _write_wide_vocab(seed, work)
    elif name != "planted":
        raise ValueError(f"unknown workload {name!r}")
    spec = {"seed": seed, "base": base, "overrides": values}
    (work / "inputs.json").write_text(json.dumps(spec), encoding="utf-8")


class Experiment:
    """One workload's generated inputs, ready to be run repeatedly."""

    def __init__(self, name: str, work: Path):
        self.name = name
        self.work = work
        spec = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        self.seed, self.base, self.values = spec["seed"], spec["base"], spec["overrides"]

    def config(self, seed: int, out_dir: Path):
        return load_config(self.base, {**self.values, "seed": seed, "output_dir": str(out_dir)})

    def run(self, seed: int, out_dir: Path):
        """The timed call: one complete experiment, returning its result."""
        if self.name == "planted":
            return synthetic.run_benchmark(seed)
        return run_pipeline(self.config(seed, out_dir))

    def check(self, result, out_dir: Path, dendrogram) -> float:
        """Validate one experiment's output; returns its test accuracy."""
        if dendrogram is None:
            raise CheckFailed("no dendrogram was built")
        if len(dendrogram.merges) != dendrogram.leaf_count - 1:
            raise CheckFailed(
                f"dendrogram has {len(dendrogram.merges)} merges for {dendrogram.leaf_count} leaves"
            )
        if self.name == "planted":
            accuracies = [result.expanded_accuracy, result.plain_accuracy]
            _check_fractions("accuracy", accuracies)
            return result.expanded_accuracy
        loaded = load_report(out_dir / "report.json")
        if loaded.to_dict() != json.loads(json.dumps(result.to_dict())):
            raise CheckFailed("report.json does not agree with the returned report")
        grid = [row["k"] for row in result.grid]
        if result.chosen_k not in grid:
            raise CheckFailed(f"chosen k {result.chosen_k} is not in the grid {grid}")
        _check_fractions("test accuracy", [result.test_accuracy])
        _check_fractions("validation accuracy", [row["validation_accuracy"] for row in result.grid])
        _check_fractions(
            "precision/recall", [row[key] for row in result.per_class for key in ("precision", "recall")]
        )
        return result.test_accuracy

    def sizes(self) -> dict:
        """Input sizes, the base of every per-second figure and ratio."""
        if self.name == "planted":
            seed = sub_seed(self.seed, 0)
            bench = synthetic.make_benchmark(seed)
            sentences = [corpus.tokenize(line) for line in bench.unlabeled]
            window, epochs = synthetic.BENCH_WINDOW, synthetic.BENCH_EMBED_EPOCHS
            examples = len(bench.train) + len(bench.test)
            grid = 1
            min_count = 1
        else:
            cfg = self.config(sub_seed(self.seed, 0), self.work)
            user_dict = corpus.load_dictionary_file(cfg.dictionary) if cfg.dictionary else None
            sentences = corpus.load_sentence_file(cfg.corpus, user_dict)
            window, epochs = cfg.window, cfg.embed_epochs
            examples = len(corpus.load_labeled_file(cfg.dataset))
            grid = None
            min_count = cfg.min_count
        vocab = corpus.build_vocabulary(sentences, min_count)
        encoded = corpus.encode_corpus(sentences, vocab)
        if grid is None:
            grid = len(cfg.grid_values(len(vocab)))
        return {
            "vocabulary": len(vocab),
            "tokens": encoded.token_count,
            "pairs": epochs * skipgram_pairs(encoded.sentences, window),
            "examples": examples,
            "grid": grid,
        }


def skipgram_pairs(sentences, window: int) -> int:
    """In-window (center, context) pairs per epoch, clipped at sentence ends."""
    total = 0
    for sent in sentences:
        n = len(sent)
        total += sum(min(n, t + window + 1) - max(0, t - window) - 1 for t in range(n))
    return total


def _check_fractions(what: str, values) -> None:
    for v in values:
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise CheckFailed(f"{what} {v!r} is not a finite fraction in [0, 1]")

