import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_no_child_left, split_dataset, write_benchmark
from semexpand import corpus, pipeline, sidebyside, synthetic
from semexpand.config import ExperimentConfig, load_config, parse_config_lines
from semexpand.corpus import LabeledDataset
from semexpand.errors import ConfigError, DataFormatError, NumericError
from semexpand.nn import evaluate, load_model, save_model
from semexpand.pipeline import (
    ARTIFACT_NAMES,
    ExperimentReport,
    compare_runs,
    comparison_lines,
    load_report,
    run_pipeline,
    save_report,
    seed_for,
    split_fingerprint,
    stratified_split_indices,
)

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


def fast_config(output_dir, **overrides):
    values = dict(
        corpus=str(DATA / "corpus.txt"),
        dataset=str(DATA / "dataset.tsv"),
        dictionary=str(DATA / "dict.txt"),
        output_dir=str(output_dir),
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
    values.update(overrides)
    return ExperimentConfig(**values)


def stable_fields(report: ExperimentReport) -> dict:
    return {
        "split_fingerprint": report.split_fingerprint,
        "label_names": report.label_names,
        "chosen_k": report.chosen_k,
        "grid": report.grid,
        "test_accuracy": report.test_accuracy,
        "per_class": report.per_class,
        "confusion": report.confusion,
        "train_log": report.train_log,
    }


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("base") / "out"
    cfg = fast_config(out)
    report = run_pipeline(cfg)
    return cfg, report


class TestStratifiedSplit:
    def test_balanced_ninety_examples(self):
        labels = [0] * 30 + [1] * 30 + [2] * 30
        train, val, test = stratified_split_indices(
            labels, ["a", "b", "c"], (0.8, 0.1), seed=0
        )
        assert (len(train), len(val), len(test)) == (72, 9, 9)
        for part in (train, val, test):
            counts = [sum(1 for i in part if labels[i] == c) for c in range(3)]
            assert counts == [len(part) // 3] * 3

    def test_parts_disjoint_and_cover(self):
        labels = [0] * 25 + [1] * 40
        parts = stratified_split_indices(labels, ["a", "b"], (0.8, 0.1), seed=4)
        combined = sorted(i for part in parts for i in part)
        assert combined == list(range(65))

    def test_same_seed_is_identical(self):
        labels = [0] * 30 + [1] * 30
        args = (labels, ["a", "b"], (0.8, 0.1))
        assert stratified_split_indices(*args, seed=5) == stratified_split_indices(*args, seed=5)
        assert stratified_split_indices(*args, seed=5) != stratified_split_indices(*args, seed=6)

    def test_degenerate_fractions_rejected(self):
        labels = [0] * 30 + [1] * 30
        with pytest.raises(ConfigError, match="class 'a'"):
            stratified_split_indices(labels, ["a", "b"], (1.0, 0.0), seed=0)

    def test_small_class_error_names_class(self):
        labels = [0] * 20 + [1] * 2
        with pytest.raises(ConfigError, match="rare"):
            stratified_split_indices(labels, ["big", "rare"], (0.8, 0.1), seed=0)

    def test_split_dataset_preserves_examples(self):
        examples = [([i], i % 2) for i in range(40)]
        dataset = LabeledDataset(examples=examples, oov_marker=99, label_names=["e", "o"])
        train, val, test = split_dataset(dataset, (0.8, 0.1), seed=1)
        assert (len(train), len(val), len(test)) == (32, 4, 4)
        assert train.label_names == ["e", "o"] and train.oov_marker == 99
        for part in (train, val, test):
            for example in part.examples:
                assert example in examples


class TestSplitFingerprint:
    def test_order_independent(self):
        assert split_fingerprint([5, 2, 9], 20) == split_fingerprint([9, 5, 2], 20)

    def test_sensitive_to_indices_and_total(self):
        assert split_fingerprint([1, 2], 20) != split_fingerprint([1, 3], 20)
        assert split_fingerprint([1, 2], 20) != split_fingerprint([1, 2], 21)


class TestSeedDerivation:
    def test_deterministic_and_distinct_per_k(self):
        assert seed_for(3, 5) == seed_for(3, 5)
        seeds = {seed_for(3, k) for k in range(10)}
        assert len(seeds) == 10
        assert seed_for(3, 5) != seed_for(4, 5)
        assert all(s >= 0 for s in seeds)


def make_report(**overrides) -> ExperimentReport:
    base = dict(
        config={"model": "lstm", "seed": 0, "no_expansion": False},
        split_fingerprint="ab" * 32,
        label_names=["x", "y"],
        chosen_k=3,
        grid=[{"k": 3, "validation_accuracy": 1.0}],
        test_accuracy=0.75,
        per_class=[
            {"label": "x", "precision": 1.0, "recall": 0.5},
            {"label": "y", "precision": 0.6, "recall": 1.0},
        ],
        confusion=[[1, 1], [0, 2]],
        train_log={"epoch_losses": [0.7], "epoch_accuracies": [0.5], "first_batch_loss": 0.7},
        timings={"total": 1.0},
        artifacts={},
    )
    base.update(overrides)
    return ExperimentReport(**base)


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        report = make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path).to_dict() == report.to_dict()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{broken")
        with pytest.raises(DataFormatError, match="JSON"):
            load_report(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataFormatError, match="object"):
            load_report(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(make_report(), path)
        raw = json.loads(path.read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_report(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(make_report(), path)
        raw = json.loads(path.read_text())
        del raw["chosen_k"]
        path.write_text(json.dumps(raw))
        with pytest.raises(DataFormatError, match="chosen_k"):
            load_report(path)


class TestCompareRuns:
    def test_identical_reports_have_zero_deltas(self):
        comparison = compare_runs(make_report(), make_report())
        assert comparison["accuracy_delta"] == 0.0
        for row in comparison["per_class"]:
            assert row["precision_delta"] == 0.0 and row["recall_delta"] == 0.0

    def test_different_test_splits_refused(self):
        with pytest.raises(ConfigError, match="test splits"):
            compare_runs(make_report(), make_report(split_fingerprint="cd" * 32))

    def test_missing_class_rejected(self):
        short = make_report(
            label_names=["x"],
            per_class=[{"label": "x", "precision": 1.0, "recall": 0.5}],
        )
        with pytest.raises(DataFormatError, match="class 'y' missing from second report"):
            compare_runs(make_report(), short)
        with pytest.raises(DataFormatError, match="class 'y' missing from first report"):
            compare_runs(short, make_report())

    def test_comparison_lines_show_delta(self):
        a = make_report(test_accuracy=0.9)
        b = make_report(test_accuracy=0.8)
        lines = comparison_lines(compare_runs(a, b))
        assert any("+0.1000" in line for line in lines)


class TestRunPipeline:
    def test_writes_all_artifacts(self, base_run):
        cfg, _ = base_run
        out = Path(cfg.output_dir)
        for fname in ARTIFACT_NAMES.values():
            assert (out / fname).is_file(), fname

    def test_report_contents(self, base_run):
        cfg, report = base_run
        assert report.chosen_k == 6
        assert [row["k"] for row in report.grid] == [6]
        assert report.label_names == ["digestive", "respiratory", "skin"]
        assert sum(sum(row) for row in report.confusion) == 6
        assert len(report.train_log["epoch_losses"]) == cfg.train_epochs
        assert 0.0 <= report.test_accuracy <= 1.0
        assert set(report.timings) >= {"tokenize", "embeddings", "cluster", "train", "total"}

    def test_stage_timings_do_not_overlap(self, tmp_path, monkeypatch):
        build_vocabulary = corpus.build_vocabulary

        def slow_build_vocabulary(*args, **kwargs):
            time.sleep(0.2)
            return build_vocabulary(*args, **kwargs)

        monkeypatch.setattr(corpus, "build_vocabulary", slow_build_vocabulary)
        timings = run_pipeline(fast_config(tmp_path / "run")).timings
        assert list(timings) == [
            "tokenize", "vocabulary", "embeddings", "split", "cluster", "grid_search",
            "expand", "train", "evaluate", "total",
        ]
        assert timings["vocabulary"] >= 0.2
        stages = sum(seconds for name, seconds in timings.items() if name != "total")
        # each value is rounded to 1e-6 s
        assert stages <= timings["total"] + 1e-5

    def test_each_stage_is_timed_once(self, tmp_path, monkeypatch):
        # the inputs are read in one `tokenize` span, the dataset encoded and
        # split in one `split` span; a second span would replace the first
        def slowed(function):
            def slow(*args, **kwargs):
                time.sleep(0.1)
                return function(*args, **kwargs)

            return slow

        for name in ("load_labeled_file", "load_sentence_file", "encode_dataset"):
            monkeypatch.setattr(corpus, name, slowed(getattr(corpus, name)))
        timings = run_pipeline(fast_config(tmp_path / "run")).timings
        assert timings["tokenize"] >= 0.2
        assert timings["split"] >= 0.1

    def test_timings_name_only_the_stages_that_ran(self, base_run, tmp_path):
        cfg, _ = base_run
        embeddings = str(Path(cfg.output_dir) / ARTIFACT_NAMES["embeddings"])
        plain = fast_config(tmp_path / "plain", embeddings=embeddings, no_expansion=True)
        timings = run_pipeline(plain).timings
        assert list(timings) == [
            "tokenize", "embeddings", "split", "expand", "train", "evaluate", "total",
        ]
        assert sum(seconds for name, seconds in timings.items() if name != "total") <= (
            timings["total"] + 1e-5
        )

    def test_saved_report_round_trips(self, base_run):
        cfg, report = base_run
        loaded = load_report(Path(cfg.output_dir) / ARTIFACT_NAMES["report"])
        assert loaded.to_dict() == report.to_dict()

    def test_summary_file_mentions_accuracy(self, base_run):
        cfg, report = base_run
        text = (Path(cfg.output_dir) / ARTIFACT_NAMES["summary"]).read_text()
        assert f"test accuracy {report.test_accuracy:.4f}" in text

    def test_config_snapshot_parses_back(self, base_run):
        cfg, _ = base_run
        snapshot = Path(cfg.output_dir) / ARTIFACT_NAMES["config"]
        parsed = parse_config_lines(
            snapshot.read_text().splitlines(), source=str(snapshot)
        )
        assert ExperimentConfig(**parsed) == cfg

    def test_identical_config_reproduces_run(self, base_run, tmp_path):
        cfg, report = base_run
        rerun = run_pipeline(fast_config(tmp_path / "again"))
        assert stable_fields(rerun) == stable_fields(report)
        for name in ("embeddings", "model"):
            original = (Path(cfg.output_dir) / ARTIFACT_NAMES[name]).read_bytes()
            repeated = (tmp_path / "again" / ARTIFACT_NAMES[name]).read_bytes()
            assert original == repeated

    def test_rerun_from_snapshot_reproduces_accuracy(self, base_run, tmp_path):
        cfg, report = base_run
        snapshot = Path(cfg.output_dir) / ARTIFACT_NAMES["config"]
        rerun_cfg = load_config(snapshot, overrides={"output_dir": str(tmp_path / "snap")})
        rerun = run_pipeline(rerun_cfg)
        assert rerun.test_accuracy == report.test_accuracy

    def test_pretrained_embeddings_input(self, base_run, tmp_path):
        cfg, report = base_run
        rerun_cfg = fast_config(
            tmp_path / "pre",
            embeddings=str(Path(cfg.output_dir) / ARTIFACT_NAMES["embeddings"]),
        )
        rerun = run_pipeline(rerun_cfg)
        assert rerun.test_accuracy == report.test_accuracy

    def test_pretrained_embeddings_leave_the_corpus_unread(self, base_run, tmp_path, monkeypatch):
        cfg, report = base_run

        def read_corpus(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(corpus, "load_sentence_file", read_corpus)
        rerun_cfg = fast_config(
            tmp_path / "pre",
            corpus=str(tmp_path / "absent.txt"),
            embeddings=str(Path(cfg.output_dir) / ARTIFACT_NAMES["embeddings"]),
        )
        assert run_pipeline(rerun_cfg).test_accuracy == report.test_accuracy

    def test_no_expansion_ablation(self, base_run, tmp_path):
        cfg, report = base_run
        ablated_cfg = fast_config(tmp_path / "plain", no_expansion=True)
        ablated = run_pipeline(ablated_cfg)

        assert ablated.chosen_k == 0
        out = Path(ablated_cfg.output_dir)
        assert not (out / ARTIFACT_NAMES["assignment"]).exists()
        assert not (out / ARTIFACT_NAMES["expanded"]).exists()

        expanded_model = load_model(Path(cfg.output_dir) / ARTIFACT_NAMES["model"])
        plain_model = load_model(out / ARTIFACT_NAMES["model"])
        assert expanded_model.input_width == 2 * cfg.dim
        assert plain_model.input_width == cfg.dim

        differing = {
            key
            for key in report.config
            if report.config[key] != ablated.config[key]
        }
        assert differing == {"no_expansion", "output_dir"}

        comparison = compare_runs(report, ablated)
        assert comparison["accuracy_delta"] == report.test_accuracy - ablated.test_accuracy

    def test_grid_selection_rule(self, tmp_path):
        cfg = fast_config(tmp_path / "grid", k=0, k_min=2, k_max=8, k_steps=3)
        report = run_pipeline(cfg)
        ks = [row["k"] for row in report.grid]
        assert ks == [2, 4, 8]
        best = max(row["validation_accuracy"] for row in report.grid)
        winners = [row["k"] for row in report.grid if row["validation_accuracy"] == best]
        assert report.chosen_k == min(winners)

    def test_grid_of_one_equals_single_run(self, tmp_path):
        single = run_pipeline(fast_config(tmp_path / "single", k=5))
        grid = run_pipeline(
            fast_config(tmp_path / "one", k=0, k_min=5, k_max=5, k_steps=1)
        )
        assert grid.chosen_k == 5
        assert grid.test_accuracy == single.test_accuracy
        model_a = (tmp_path / "single" / ARTIFACT_NAMES["model"]).read_bytes()
        model_b = (tmp_path / "one" / ARTIFACT_NAMES["model"]).read_bytes()
        assert model_a == model_b

    def test_stage_errors_name_stage_and_keep_artifacts(self, tmp_path):
        cfg = fast_config(tmp_path / "bad", k=200)
        with pytest.raises(ConfigError, match="^cluster: "):
            run_pipeline(cfg)
        assert (tmp_path / "bad" / ARTIFACT_NAMES["embeddings"]).is_file()

    def test_missing_dataset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset"):
            run_pipeline(fast_config(tmp_path / "x", dataset=""))

    def test_nonexistent_dataset_file(self, tmp_path):
        with pytest.raises(OSError):
            run_pipeline(fast_config(tmp_path / "x", dataset=str(tmp_path / "absent.tsv")))

    def test_needs_corpus_or_embeddings(self, tmp_path):
        with pytest.raises(ConfigError, match="embeddings: "):
            run_pipeline(fast_config(tmp_path / "x", corpus=""))

    def test_rejected_inputs_create_no_output_dir(self, tmp_path):
        for overrides in ({"dataset": ""}, {"corpus": ""}):
            with pytest.raises(ConfigError):
                run_pipeline(fast_config(tmp_path / "never", **overrides))
            assert not (tmp_path / "never").exists()


class TestToyCnnRun:
    def test_checkpoint_reloads_and_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        """The shipped toy config with the CNN, at a kernel width its max_len of 12 fits."""
        kept = []

        def keep_model(model, path):
            kept.append(model)
            save_model(model, path)

        scored = []

        def keep_inputs(model, x, mask, y):
            scored.append((model, x, mask, y))
            return evaluate(model, x, mask, y)

        monkeypatch.setattr(pipeline, "save_model", keep_model)
        monkeypatch.setattr(pipeline, "evaluate", keep_inputs)

        def toy_cnn(name):
            overrides = {
                "corpus": str(DATA / "corpus.txt"),
                "dataset": str(DATA / "dataset.tsv"),
                "dictionary": str(DATA / "dict.txt"),
                "output_dir": str(tmp_path / name),
                "model": "cnn",
                "kernel_width": 3,
            }
            return load_config(DATA / "config.txt", overrides)

        report = run_pipeline(toy_cnn("first"))
        assert report.config["model"] == "cnn"
        assert 0.0 <= report.test_accuracy <= 1.0
        model_path = tmp_path / "first" / ARTIFACT_NAMES["model"]
        loaded = load_model(model_path)
        trained, (scored_model, x, mask, y) = kept[-1], scored[-1]
        assert scored_model is trained
        assert loaded.arch() == trained.arch()
        assert np.array_equal(loaded.forward(x, mask), trained.forward(x, mask))
        assert evaluate(loaded, x, mask, y).accuracy == report.test_accuracy

        run_pipeline(toy_cnn("again"))
        rerun_model = tmp_path / "again" / ARTIFACT_NAMES["model"]
        assert rerun_model.read_bytes() == model_path.read_bytes()


def four_point_grid_run(path, monkeypatch, cpus):
    """A run over the grid [2, 3, 5, 8], as if this process could use ``cpus`` CPUs."""
    monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: cpus)
    return run_pipeline(fast_config(path, k=0, k_min=2, k_max=8, k_steps=4))


def fail_trials_at(monkeypatch, ks, error_type):
    """Make the trial fits of the given k raise ``error_type``."""
    fit, base_seed = pipeline.fit, fast_config("").seed

    def failing_fit(shape, train_config, dataset, table):
        for k in ks:
            if train_config.seed == seed_for(base_seed, k):
                raise error_type(f"injected at k={k}")
        return fit(shape, train_config, dataset, table)

    monkeypatch.setattr(pipeline, "fit", failing_fit)


class TestParallelGridTrials:
    """Trials on forked processes: at 2 CPUs this process runs k = 2, 5 and a child
    k = 3, 8; at 3 CPUs this process runs k = 2, 8 and two children k = 3 and k = 5."""

    def test_results_and_artifacts_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        runs = {}
        for cpus in (1, 2, 3):
            out = tmp_path / f"cpus{cpus}"
            report = four_point_grid_run(out, monkeypatch, cpus)
            assert_no_child_left()
            files = [
                (out / ARTIFACT_NAMES[name]).read_bytes()
                for name in ("model", "assignment", "expanded")
            ]
            runs[cpus] = (report.grid, report.chosen_k, report.test_accuracy, files)
        assert [row["k"] for row in runs[1][0]] == [2, 3, 5, 8]
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    @pytest.mark.parametrize("error_type", [NumericError, ValueError])
    @pytest.mark.parametrize("failing", [{3}, {5}, {8}, {3, 5}, {5, 8}])
    def test_earliest_failure_is_the_serial_runs(self, tmp_path, monkeypatch, error_type, failing):
        fail_trials_at(monkeypatch, failing, error_type)
        raised = []
        for cpus in (1, 2, 3):
            with pytest.raises(error_type) as info:
                four_point_grid_run(tmp_path / f"cpus{cpus}", monkeypatch, cpus)
            assert_no_child_left()
            raised.append((type(info.value), str(info.value)))
        k = min(failing)
        prefix = f"grid_search: k={k}: " if error_type is NumericError else ""
        assert raised == [(error_type, f"{prefix}injected at k={k}")] * 3

    def test_child_that_dies_is_reported_and_reaped(self, tmp_path, monkeypatch):
        fit, parent, base_seed = pipeline.fit, os.getpid(), fast_config("").seed

        def dying_fit(shape, train_config, dataset, table):
            if train_config.seed == seed_for(base_seed, 3) and os.getpid() != parent:
                os._exit(7)
            return fit(shape, train_config, dataset, table)

        monkeypatch.setattr(pipeline, "fit", dying_fit)
        with pytest.raises(RuntimeError, match="without a result \\(exit code 7\\)"):
            four_point_grid_run(tmp_path / "out", monkeypatch, 2)
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_children(self, tmp_path, monkeypatch):
        fail_trials_at(monkeypatch, {2}, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            four_point_grid_run(tmp_path / "out", monkeypatch, 2)
        assert_no_child_left()

    def test_children_never_return_into_the_caller(self, monkeypatch):
        with tempfile.TemporaryDirectory() as tmp:
            four_point_grid_run(Path(tmp) / "out", monkeypatch, 2)
            assert (Path(tmp) / "out" / ARTIFACT_NAMES["report"]).is_file()

    def test_one_cpu_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert sidebyside._usable_cpus() == 1


def fixed_k_run(path, monkeypatch, cpus):
    """A run at the fixed k = 6, as if this process could use ``cpus`` CPUs."""
    monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: cpus)
    return run_pipeline(fast_config(path))


def final_training_size() -> int:
    """Examples the final model of ``fast_config`` trains on: the training and validation parts."""
    cfg = fast_config("")
    examples = corpus.load_labeled_file(cfg.dataset)
    # only the labels decide the split, so every token may be out of vocabulary
    dataset = corpus.encode_dataset(examples, corpus.Vocabulary([]))
    fractions = (cfg.train_fraction, cfg.validation_fraction)
    train, validation, _ = split_dataset(dataset, fractions, cfg.seed)
    return len(train) + len(validation)


def before_each_fit(monkeypatch, action):
    """Call ``action(role)`` before each fit; the role, "final" or "trial", is told by size."""
    fit, final_size = pipeline.fit, final_training_size()

    def patched_fit(shape, train_config, dataset, table):
        action("final" if len(dataset) == final_size else "trial")
        return fit(shape, train_config, dataset, table)

    monkeypatch.setattr(pipeline, "fit", patched_fit)


def fail_fits(monkeypatch, which, error_type):
    """Make the trial's fit, the final fit or both raise ``error_type``."""

    def fail(role):
        if role in which:
            raise error_type(f"injected in the {role} fit")

    before_each_fit(monkeypatch, fail)


class TestFinalFitBesideTheTrial:
    """With one k, at 2 CPUs or more this process fits the final model while a
    child runs the trial; at 1 CPU this process runs both."""

    def test_artifacts_and_report_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        runs = {}
        out = tmp_path / "out"
        for cpus in (1, 2, 3):
            fixed_k_run(out, monkeypatch, cpus)
            assert_no_child_left()
            files = {
                name: (out / ARTIFACT_NAMES[name]).read_bytes()
                for name in ("model", "assignment", "expanded", "embeddings", "config")
            }
            files["centroids"] = (out / (ARTIFACT_NAMES["assignment"] + ".centroids")).read_bytes()
            report = json.loads((out / ARTIFACT_NAMES["report"]).read_text(encoding="utf-8"))
            del report["timings"]
            summary = (out / ARTIFACT_NAMES["summary"]).read_text(encoding="utf-8").splitlines()
            assert summary[-1].startswith("timings: ")
            runs[cpus] = (files, report, summary[:-1])
        assert [row["k"] for row in runs[1][1]["grid"]] == [6]
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_this_process_fits_the_final_model_and_a_child_the_trial(self, tmp_path, monkeypatch):
        fits = tmp_path / "fits"

        def record(role):
            # a file, not a list, so that a fit in a forked child shows too
            with open(fits, "a", encoding="utf-8") as fh:
                fh.write(f"{role} {os.getpid()}\n")

        before_each_fit(monkeypatch, record)
        fixed_k_run(tmp_path / "out", monkeypatch, 2)
        assert_no_child_left()
        pids = dict(line.split() for line in fits.read_text(encoding="utf-8").splitlines())
        assert pids["final"] == str(os.getpid()) != pids["trial"]

    @pytest.mark.parametrize("error_type", [NumericError, ValueError])
    @pytest.mark.parametrize("which", [{"trial"}, {"final"}, {"trial", "final"}])
    def test_failures_are_the_serial_runs(self, tmp_path, monkeypatch, error_type, which):
        fail_fits(monkeypatch, which, error_type)
        raised = []
        for cpus in (1, 2, 3):
            out = tmp_path / f"cpus{cpus}"
            with pytest.raises(error_type) as info:
                fixed_k_run(out, monkeypatch, cpus)
            assert_no_child_left()
            names = ("assignment", "expanded", "model")
            written = [(out / ARTIFACT_NAMES[name]).is_file() for name in names]
            raised.append((type(info.value), str(info.value), written))
        # the trial's error wins when both fail; a failing final fit fails in
        # `train`, after `expand` has written its files
        role = "trial" if "trial" in which else "final"
        prefix = {"trial": "grid_search: k=6: ", "final": "train: "}[role]
        message = (prefix if error_type is NumericError else "") + f"injected in the {role} fit"
        written = [role == "final", role == "final", False]
        assert raised == [(error_type, message, written)] * 3

    def test_interrupt_in_the_final_fit_kills_and_reaps_the_trial(self, tmp_path, monkeypatch):
        fail_fits(monkeypatch, {"final"}, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            fixed_k_run(tmp_path / "out", monkeypatch, 2)
        assert_no_child_left()


class TestGridRecoversPlantedClusters:
    def test_chosen_k_within_factor_two_of_topic_count(self, tmp_path):
        bench = synthetic.make_benchmark(seed=1)
        write_benchmark(bench, tmp_path)
        cfg = dataclasses.replace(
            synthetic.BENCH_CONFIG,
            corpus=str(tmp_path / "corpus.txt"),
            dataset=str(tmp_path / "train.tsv"),
            output_dir=str(tmp_path / "out"),
            embed_epochs=5,
            k=0,
            k_min=2,
            k_max=27,
            k_steps=4,
            seed=1,
        )
        report = run_pipeline(cfg)
        best = max(row["validation_accuracy"] for row in report.grid)
        winners = [row["k"] for row in report.grid if row["validation_accuracy"] == best]
        assert report.chosen_k == min(winners)
        planted = synthetic.TOPIC_COUNT
        assert planted / 2 <= report.chosen_k <= planted * 2
