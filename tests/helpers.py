"""Data builders that only the tests use.

make_separable_toyset is a tiny two-class set that either classifier can
overfit; write_benchmark puts a planted-topic benchmark on disk in the
pipeline's input formats; split_dataset applies the pipeline's stratified
split to a whole dataset.
"""

from pathlib import Path

import numpy as np

from semexpand.corpus import LabeledDataset
from semexpand.pipeline import _subset, stratified_split_indices
from semexpand.synthetic import SyntheticBenchmark


def make_separable_toyset(
    num_examples: int = 20, max_len: int = 20, width: int = 8, seed: int = 0
):
    """A tiny two-class set, linearly separated in the mean input vector.

    Returns (x, mask, y) ready for either classifier; class c offsets the
    first feature by +/-1 on all valid positions, plus small noise.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros((num_examples, max_len, width))
    mask = np.zeros((num_examples, max_len))
    y = np.arange(num_examples) % 2
    for i in range(num_examples):
        length = int(rng.integers(max_len // 2, max_len + 1))
        rows = rng.normal(scale=0.1, size=(length, width))
        rows[:, 0] += 1.0 if y[i] == 0 else -1.0
        x[i, :length] = rows
        mask[i, :length] = 1.0
    return x, mask, y


def write_benchmark(bench: SyntheticBenchmark, out_dir) -> dict:
    """Write corpus.txt, train.tsv and test.tsv under out_dir; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.txt",
        "train": out / "train.tsv",
        "test": out / "test.tsv",
    }
    paths["corpus"].write_text("\n".join(bench.unlabeled) + "\n", encoding="utf-8")
    for key in ("train", "test"):
        rows = getattr(bench, key)
        paths[key].write_text(
            "".join(f"{label}\t{text}\n" for label, text in rows), encoding="utf-8"
        )
    return paths


def split_dataset(dataset: LabeledDataset, fractions, seed: int):
    """Stratified (train, validation, test) split of a labeled dataset."""
    labels = [label for _, label in dataset.examples]
    parts = stratified_split_indices(labels, dataset.label_names, fractions, seed)
    return tuple(_subset(dataset, indices) for indices in parts)
