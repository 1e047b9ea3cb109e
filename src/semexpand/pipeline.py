"""End-to-end experiment pipeline: split, grid search over k, run, compare.

Every stochastic stage draws from the single config seed. Grid trials and the
final model use a per-k seed derived with SeedSequence([seed, k]), so adding
or removing grid points never perturbs the other points' results.

Grid trials run side by side (``sidebyside.run_side_by_side``), which returns
the validation accuracies in grid order, as a serial loop would. A trial's
result depends only on (config, k, training split, validation split), so the
number of processes cannot change a validation accuracy, the chosen k or any
artifact. A failing trial names its k: the first failing k in grid order
raises ``grid_search: k=<k>: ...``.

When the grid has one value, the chosen k is known before its trial runs, so
the final model trains beside the trial, in this process, within the same
``grid_search`` stage; ``train`` then only writes it. The final fit returns
what it raises instead of raising it, and ``train`` raises it, after
``expand`` has written its files: a failing run fails as a serial one does,
and when both fail, the trial's error wins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clustering, corpus, embedding, expansion
from .config import ExperimentConfig
from .errors import ConfigError, DataFormatError, SemexpandError, open_text
from .nn import ClassifierConfig, TrainConfig, build_model, evaluate, save_model
from .nn import train_classifier
from .sidebyside import run_side_by_side

logger = logging.getLogger(__name__)

REPORT_VERSION = 1

ARTIFACT_NAMES = {
    "embeddings": "embeddings.txt",
    "assignment": "clusters.tsv",
    "expanded": "expanded.txt",
    "model": "model.txt",
    "report": "report.json",
    "summary": "report.txt",
    "config": "config.txt",
}


def stratified_split_indices(labels, label_names, fractions, seed: int):
    """Per-class shuffled index slices for (train, validation, test).

    ``fractions`` is (train, validation): those parts take floor(fraction *
    class size), and the test part gets the remainder. Any empty part fails,
    naming the offending class.
    """
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    parts: tuple[list, list, list] = ([], [], [])
    for class_id in range(len(label_names)):
        members = np.flatnonzero(labels == class_id)
        rng.shuffle(members)
        n = len(members)
        n_train = int(fractions[0] * n)
        n_val = int(fractions[1] * n)
        slices = (members[:n_train], members[n_train : n_train + n_val], members[n_train + n_val :])
        if any(len(s) == 0 for s in slices):
            raise ConfigError(
                f"class {label_names[class_id]!r} has only {n} example(s), "
                f"too few for a {fractions[0]}/{fractions[1]}/rest split"
            )
        for part, s in zip(parts, slices):
            part.extend(int(i) for i in s)
    return tuple(sorted(p) for p in parts)


def _subset(dataset: corpus.LabeledDataset, indices) -> corpus.LabeledDataset:
    return corpus.LabeledDataset(
        examples=[dataset.examples[i] for i in indices],
        oov_marker=dataset.oov_marker,
        label_names=list(dataset.label_names),
    )


def split_fingerprint(test_indices, total: int) -> str:
    """Hash identifying a test split; equal iff the same examples are held out."""
    payload = f"{total}:" + ",".join(str(i) for i in sorted(test_indices))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def seed_for(base_seed: int, k: int) -> int:
    return int(np.random.SeedSequence([base_seed, k]).generate_state(1)[0])


@dataclass
class ExperimentReport:
    config: dict
    split_fingerprint: str
    label_names: list
    chosen_k: int
    grid: list
    test_accuracy: float
    per_class: list
    confusion: list
    train_log: dict
    timings: dict
    artifacts: dict
    format_version: int = REPORT_VERSION

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def summary_lines(self) -> list:
        cfg = self.config
        lines = [
            f"model {cfg['model']}  seed {cfg['seed']}  "
            + ("no expansion" if cfg["no_expansion"] else f"chosen k {self.chosen_k}"),
            f"test accuracy {self.test_accuracy:.4f}",
        ]
        for row in self.per_class:
            lines.append(
                f"class {row['label']}: precision {row['precision']:.4f} "
                f"recall {row['recall']:.4f}"
            )
        if len(self.grid) > 1:
            lines.append("grid (k -> validation accuracy):")
            for row in self.grid:
                lines.append(f"  {row['k']} -> {row['validation_accuracy']:.4f}")
        lines.append(
            "timings: "
            + "  ".join(f"{name} {seconds:.2f}s" for name, seconds in self.timings.items())
        )
        return lines


def save_report(report: ExperimentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> ExperimentReport:
    try:
        with open_text(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    version = raw.get("format_version")
    if version != REPORT_VERSION:
        raise DataFormatError(f"{path}: unsupported report version {version!r}")
    names = {f.name for f in dataclasses.fields(ExperimentReport)}
    missing = names - raw.keys()
    if missing:
        raise DataFormatError(f"{path}: missing report field {sorted(missing)[0]!r}")
    _check_compared_fields(path, raw)
    return ExperimentReport(**{name: raw[name] for name in names})


def _check_compared_fields(path, raw: dict) -> None:
    """Raise DataFormatError unless the fields compare_runs reads have the types it reads."""

    def expect(ok: bool, field: str, kind: str) -> None:
        if not ok:
            raise DataFormatError(f"{path}: report field {field} must be {kind}")

    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    expect(isinstance(raw["split_fingerprint"], str), "split_fingerprint", "a string")
    chosen_k = raw["chosen_k"]
    expect(isinstance(chosen_k, int) and not isinstance(chosen_k, bool), "chosen_k", "an integer")
    expect(is_number(raw["test_accuracy"]), "test_accuracy", "a number")
    rows = raw["per_class"]
    expect(isinstance(rows, list), "per_class", "a list")
    for i, row in enumerate(rows):
        expect(isinstance(row, dict), f"per_class[{i}]", "an object")
        expect(isinstance(row.get("label"), str), f"per_class[{i}].label", "a string")
        for key in ("precision", "recall"):
            expect(is_number(row.get(key)), f"per_class[{i}].{key}", "a number")


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except SemexpandError as exc:
        raise type(exc)(f"{name}: {exc}") from None
    finally:
        timings[name] = time.perf_counter() - start


def fit(shape: ClassifierConfig, train_config: TrainConfig, dataset, table):
    """Train a fresh ``shape`` classifier on ``dataset``, embedded through ``table``.

    The model is initialized from ``train_config.seed``. Returns (model, train log).
    """
    x, m, y = expansion.embed_dataset(dataset, table, shape.max_len)
    model = build_model(shape, x.shape[2], dataset.num_classes, train_config.seed)
    log = train_classifier(model, x, m, y, train_config)
    return model, log


def score(model, dataset, table):
    """Evaluate ``model`` on ``dataset``, embedded through ``table`` at ``model.max_len``."""
    x, m, y = expansion.embed_dataset(dataset, table, model.max_len)
    return evaluate(model, x, m, y)


def run_pipeline(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full experiment and write all artifacts to cfg.output_dir."""
    if not cfg.dataset:
        raise ConfigError("dataset path is required")
    if not (cfg.embeddings or cfg.corpus):
        raise ConfigError(
            "embeddings: either a corpus to train on or an embeddings file is required"
        )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in ARTIFACT_NAMES.items()}
    timings: dict = {}
    total_start = time.perf_counter()

    with _stage("tokenize", timings):
        user_dict = corpus.load_dictionary_file(cfg.dictionary) if cfg.dictionary else None
        examples = corpus.load_labeled_file(cfg.dataset, user_dict)
        if not cfg.embeddings:
            sentences = corpus.load_sentence_file(cfg.corpus, user_dict)
    if not cfg.embeddings:
        with _stage("vocabulary", timings):
            vocab = corpus.build_vocabulary(sentences, cfg.min_count)
            encoded_corpus = corpus.encode_corpus(sentences, vocab)
    with _stage("embeddings", timings):
        if cfg.embeddings:
            emb = embedding.load_embeddings(cfg.embeddings)
        else:
            emb = embedding.train_skipgram(encoded_corpus, cfg.skipgram_config())
        embedding.save_embeddings(emb, paths["embeddings"])
    vocab = emb.vocabulary

    with _stage("split", timings):
        dataset = corpus.encode_dataset(examples, vocab)
        fractions = (cfg.train_fraction, cfg.validation_fraction)
        labels = [label for _, label in dataset.examples]
        idx_train, idx_val, idx_test = stratified_split_indices(
            labels, dataset.label_names, fractions, cfg.seed
        )
        train_ds, val_ds, test_ds = (_subset(dataset, i) for i in (idx_train, idx_val, idx_test))
        final_train = _subset(dataset, list(idx_train) + list(idx_val))
        fingerprint = split_fingerprint(idx_test, len(dataset))

    shape = cfg.classifier_config()

    def final_fit(k: int, table):
        """(final model, training log), or the exception its training raised, for ``train``."""
        try:
            return fit(shape, cfg.train_config(seed_for(cfg.seed, k)), final_train, table)
        except Exception as exc:
            return exc

    dendrogram = None
    grid_rows: list = []
    fitted = None
    if cfg.no_expansion:
        chosen_k = 0
    else:
        with _stage("cluster", timings):
            grid = cfg.grid_values(len(vocab))
            dendrogram = clustering.build_dendrogram(emb.input_vectors)

        def source_for(k: int):
            cut = clustering.cut_dendrogram(dendrogram, k)
            assignment = clustering.assignment_from_cut(cut, emb.input_vectors, vocab.words)
            return assignment, expansion.expand(emb, assignment)

        def at_k(k: int, step):
            """``step()``, naming k in the SemexpandError it raises."""
            try:
                return step()
            except SemexpandError as exc:
                raise type(exc)(f"k={k}: {exc}") from None

        def validation_accuracy(k: int, table) -> float:
            trial_model, _ = fit(shape, cfg.train_config(seed_for(cfg.seed, k)), train_ds, table)
            return score(trial_model, val_ds, table).accuracy

        def trial(k: int) -> float:
            return at_k(k, lambda: validation_accuracy(k, source_for(k)[1]))

        with _stage("grid_search", timings):
            if len(grid) == 1:
                # k is chosen before its trial runs, so the final model fits beside it,
                # in this process, which keeps the model unpickled
                (k,) = grid
                assignment, source = at_k(k, lambda: source_for(k))
                tasks = [
                    lambda: final_fit(k, source),
                    lambda: at_k(k, lambda: validation_accuracy(k, source)),
                ]
                fitted, accuracy = run_side_by_side(lambda task: task(), tasks)
                accuracies = [accuracy]
            else:
                accuracies = run_side_by_side(trial, grid)
            for k, accuracy in zip(grid, accuracies):
                grid_rows.append({"k": k, "validation_accuracy": accuracy})
                logger.info("grid k=%d validation accuracy %.4f", k, accuracy)
            # the grid ascends, so a tie goes to the smallest k
            chosen_k = grid[accuracies.index(max(accuracies))]

    with _stage("expand", timings):
        if cfg.no_expansion:
            source = emb.input_vectors
        else:
            if fitted is None:
                assignment, source = source_for(chosen_k)
            clustering.save_assignment(assignment, paths["assignment"])
            expansion.save_expanded(vocab.words, source, paths["expanded"])

    with _stage("train", timings):
        if fitted is None:
            fitted = final_fit(chosen_k, source)
        if isinstance(fitted, Exception):
            raise fitted
        model, log = fitted
        save_model(model, paths["model"])
    with _stage("evaluate", timings):
        test_result = score(model, test_ds, source)

    report = ExperimentReport(
        config={f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        split_fingerprint=fingerprint,
        label_names=list(dataset.label_names),
        chosen_k=chosen_k,
        grid=grid_rows,
        test_accuracy=test_result.accuracy,
        per_class=[
            {
                "label": dataset.label_names[c],
                "precision": float(test_result.precision[c]),
                "recall": float(test_result.recall[c]),
            }
            for c in range(dataset.num_classes)
        ],
        confusion=test_result.confusion.tolist(),
        train_log={
            "epoch_losses": log.epoch_losses,
            "epoch_accuracies": log.epoch_accuracies,
            "first_batch_loss": log.first_batch_loss,
        },
        timings={},
        artifacts={name: str(path) for name, path in paths.items()},
    )
    timings["total"] = time.perf_counter() - total_start
    report.timings = {name: round(seconds, 6) for name, seconds in timings.items()}
    save_report(report, paths["report"])
    Path(paths["summary"]).write_text("\n".join(report.summary_lines()) + "\n", encoding="utf-8")
    Path(paths["config"]).write_text("\n".join(cfg.snapshot_lines()) + "\n", encoding="utf-8")
    return report


def compare_runs(report_a: ExperimentReport, report_b: ExperimentReport) -> dict:
    """Side-by-side deltas (a minus b); refuses runs with different test splits or classes."""
    if report_a.split_fingerprint != report_b.split_fingerprint:
        raise ConfigError(
            "cannot compare runs with different test splits "
            f"({report_a.split_fingerprint[:12]} vs {report_b.split_fingerprint[:12]})"
        )
    by_label = {row["label"]: row for row in report_b.per_class}
    labels_a, labels_b = {row["label"] for row in report_a.per_class}, set(by_label)
    for missing, which in ((labels_a - labels_b, "second"), (labels_b - labels_a, "first")):
        if missing:
            raise DataFormatError(f"class {min(missing)!r} missing from {which} report")
    per_class = [
        {
            "label": row["label"],
            "precision_delta": row["precision"] - by_label[row["label"]]["precision"],
            "recall_delta": row["recall"] - by_label[row["label"]]["recall"],
        }
        for row in report_a.per_class
    ]
    return {
        "accuracy_a": report_a.test_accuracy,
        "accuracy_b": report_b.test_accuracy,
        "accuracy_delta": report_a.test_accuracy - report_b.test_accuracy,
        "chosen_k_a": report_a.chosen_k,
        "chosen_k_b": report_b.chosen_k,
        "per_class": per_class,
    }


def comparison_lines(comparison: dict) -> list:
    lines = [
        f"accuracy {comparison['accuracy_a']:.4f} vs {comparison['accuracy_b']:.4f} "
        f"(delta {comparison['accuracy_delta']:+.4f})",
        f"chosen k {comparison['chosen_k_a']} vs {comparison['chosen_k_b']}",
    ]
    for row in comparison["per_class"]:
        lines.append(
            f"class {row['label']}: precision {row['precision_delta']:+.4f} "
            f"recall {row['recall_delta']:+.4f}"
        )
    return lines
