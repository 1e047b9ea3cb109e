import dataclasses
import errno
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from semexpand import cli, corpus, embedding, expansion
from semexpand.config import ExperimentConfig
from semexpand.embedding import read_vector_file, write_vector_file
from semexpand.nn import evaluate, load_model
from semexpand.pipeline import ARTIFACT_NAMES, REPORT_VERSION, load_report

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data" / "toy"


@pytest.fixture()
def tiny(tmp_path):
    files = {
        "corpus": tmp_path / "corpus.txt",
        "dictionary": tmp_path / "dict.txt",
        "dataset": tmp_path / "data.tsv",
    }
    files["corpus"].write_text(
        "the chest pain got worse\n"
        "the chest pain eased today\n"
        "fever and cough all night\n"
        "cough and fever this morning\n"
    )
    files["dictionary"].write_text("chest pain\n")
    files["dataset"].write_text(
        "pain\tthe chest pain got worse\n"
        "pain\tthe chest pain eased today\n"
        "cold\tfever and cough all night\n"
        "cold\tcough and fever this morning\n"
    )
    return files


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestStageCommands:
    def test_tokenize_to_stdout(self, tiny, capsys):
        assert run_cli("tokenize", tiny["corpus"], "--dictionary", tiny["dictionary"]) == 0
        out = capsys.readouterr().out
        assert "chest_pain" in out.splitlines()[0]

    def test_tokenize_to_file(self, tiny, tmp_path):
        out_file = tmp_path / "tokens.txt"
        assert run_cli("tokenize", tiny["corpus"], "--output", out_file) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "the chest pain got worse"

    def test_embeddings_cluster_expand_chain(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        code = run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors,
            "--dictionary", tiny["dictionary"], "--dim", 4, "--epochs", 3,
            "--track-objective",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective initial:" in out and "objective epoch 3:" in out
        words, matrix = read_vector_file(vectors)
        assert "chest_pain" in words and matrix.shape[1] == 4

        clusters = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 3, "--output", clusters) == 0
        assert clusters.is_file()
        assert Path(str(clusters) + ".centroids").is_file()

        expanded = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", expanded) == 0
        _, wide = read_vector_file(expanded)
        assert wide.shape[1] == 8

    def test_underscore_token_keeps_its_id_through_vector_file(self, tiny, tmp_path, capsys):
        tiny["corpus"].write_text("covid_19 and fever\nchest pain and covid_19\n")
        vectors = tmp_path / "vectors.txt"
        assert run_cli("train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 2) == 0
        capsys.readouterr()
        trained = corpus.build_vocabulary(corpus.load_sentence_file(tiny["corpus"]))
        loaded = embedding.load_embeddings(vectors).vocabulary
        assert loaded.words == trained.words
        assert loaded.index_of("covid_19") == trained.index_of("covid_19")

    def test_term_and_its_underscore_spelling_are_one_token(self, tiny, tmp_path, capsys):
        tiny["corpus"].write_text("chest pain at night\nchest_pain at rest\nfever at night\n")
        vectors, clusters = tmp_path / "vectors.txt", tmp_path / "clusters.tsv"
        code = run_cli(
            "train-embeddings", tiny["corpus"], "--dictionary", tiny["dictionary"],
            "--output", vectors, "--dim", 2,
        )
        assert code == 0
        assert read_vector_file(vectors)[0].count("chest_pain") == 1
        assert run_cli("cluster", vectors, "--k", 2, "--output", clusters) == 0
        capsys.readouterr()

    def test_train_then_evaluate(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        run_cli("train-embeddings", tiny["corpus"], "--output", vectors,
                "--dictionary", tiny["dictionary"], "--dim", 4, "--epochs", 2)
        model = tmp_path / "model.txt"
        code = run_cli(
            "train", tiny["dataset"], "--vectors", vectors,
            "--dictionary", tiny["dictionary"], "--output", model,
            "--model", "lstm", "--hidden", 4, "--max-len", 6,
            "--batch-size", 2, "--epochs", 2, "--learning-rate", 0.1,
        )
        assert code == 0 and model.is_file()
        capsys.readouterr()
        code = run_cli(
            "evaluate", tiny["dataset"], "--vectors", vectors,
            "--dictionary", tiny["dictionary"], "--model-file", model,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        assert "class pain:" in out

    def test_evaluate_scores_an_lstm_at_its_trained_max_len(self, stage_inputs, tmp_path, capsys):
        vectors, _ = stage_inputs
        model = tmp_path / "model.txt"
        code = run_cli(
            "train", DATA / "dataset.tsv", "--vectors", vectors, "--output", model,
            "--hidden", 3, "--max-len", 3, "--epochs", 2,
        )
        assert code == 0
        assert "max_len 3" in model.read_text().splitlines()
        capsys.readouterr()
        code = run_cli(
            "evaluate", DATA / "dataset.tsv", "--vectors", vectors, "--model-file", model
        )
        assert code == 0
        emb = embedding.load_embeddings(vectors)
        dataset = corpus.encode_dataset(
            corpus.load_labeled_file(DATA / "dataset.tsv"), emb.vocabulary
        )
        x, mask, y = expansion.embed_dataset(dataset, emb.input_vectors, 3)
        at_three = evaluate(load_model(model), x, mask, y).summary_lines(dataset.label_names)
        assert capsys.readouterr().out.splitlines() == at_three

    def test_stage_chain_reproduces_run_vectors_and_clusters(self, tmp_path, capsys):
        # vector files read back exactly, so the centroids that `cluster` computes
        # from one, and `expand`'s vectors, are the run's, computed in memory
        run = tmp_path / "run"
        inputs = ("--corpus", DATA / "corpus.txt", "--dataset", DATA / "dataset.tsv")
        code = run_cli(
            "run", "--config", DATA / "config.txt", *inputs,
            "--dictionary", DATA / "dict.txt", "--embed-epochs", 2, "--output-dir", run,
        )
        assert code == 0
        tokens, vectors, clusters = (tmp_path / n for n in ("tokens.txt", "vectors.txt", "c.tsv"))
        code = run_cli(
            "tokenize", DATA / "corpus.txt", "--dictionary", DATA / "dict.txt", "--output", tokens
        )
        assert code == 0
        code = run_cli(
            "train-embeddings", tokens, "--dim", 16, "--window", 2, "--epochs", 2,
            "--seed", 7, "--output", vectors,
        )
        assert code == 0
        assert run_cli("cluster", vectors, "--k", 6, "--output", clusters) == 0
        expanded = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", expanded) == 0
        capsys.readouterr()
        run_clusters = run / ARTIFACT_NAMES["assignment"]
        assert vectors.read_bytes() == (run / ARTIFACT_NAMES["embeddings"]).read_bytes()
        assert clusters.read_bytes() == run_clusters.read_bytes()
        centroids = Path(f"{clusters}.centroids").read_bytes()
        assert centroids == Path(f"{run_clusters}.centroids").read_bytes()
        assert expanded.read_bytes() == (run / ARTIFACT_NAMES["expanded"]).read_bytes()


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-run")
    start = time.perf_counter()
    code = cli.main(["run", "--config", str(DATA / "config.txt"), "--output-dir", str(out)])
    elapsed = time.perf_counter() - start
    return out, code, elapsed


class TestFullRuns:
    def test_bundled_toy_run_completes_quickly(self, toy_run):
        out, code, elapsed = toy_run
        assert code == 0
        assert elapsed < 60.0
        for name in ("embeddings", "assignment", "expanded", "model", "report"):
            assert (out / ARTIFACT_NAMES[name]).is_file(), name

    def test_summary_printed(self, toy_run, capsys):
        out, _, _ = toy_run
        report = load_report(out / ARTIFACT_NAMES["report"])
        assert report.test_accuracy >= 0.5  # toy data is deliberately easy

    def test_no_expansion_and_compare(self, toy_run, tmp_path, capsys):
        out, _, _ = toy_run
        plain = tmp_path / "plain"
        code = cli.main(
            [
                "run", "--config", str(DATA / "config.txt"),
                "--output-dir", str(plain), "--no-expansion",
            ]
        )
        assert code == 0
        assert not (plain / ARTIFACT_NAMES["assignment"]).exists()
        capsys.readouterr()
        code = run_cli(
            "compare", out / ARTIFACT_NAMES["report"], plain / ARTIFACT_NAMES["report"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("accuracy ")
        assert any(line.startswith("chosen k") for line in lines)

    def test_rerun_from_snapshot_via_cli(self, toy_run, tmp_path, capsys):
        out, _, _ = toy_run
        again = tmp_path / "again"
        code = cli.main(
            [
                "run", "--config", str(out / ARTIFACT_NAMES["config"]),
                "--output-dir", str(again),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert run_cli(
            "compare", out / ARTIFACT_NAMES["report"], again / ARTIFACT_NAMES["report"]
        ) == 0
        assert "delta +0.0000" in capsys.readouterr().out

    def test_compare_refuses_different_splits(self, toy_run, tmp_path, capsys):
        out, _, _ = toy_run
        other = tmp_path / "other-split"
        code = cli.main(
            [
                "run", "--config", str(DATA / "config.txt"),
                "--output-dir", str(other), "--seed", "99",
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = run_cli(
            "compare", out / ARTIFACT_NAMES["report"], other / ARTIFACT_NAMES["report"]
        )
        assert code == 1
        assert "test splits" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert cli.main(["no-such-command"]) == 1
        assert cli.main(["cluster", "missing-positional-output"]) == 1
        capsys.readouterr()
        # test_fraction is retired: the test part is what the other two leave
        assert run_cli("run", "--config", DATA / "config.txt", "--test-fraction", 0.1) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --test-fraction 0.1\n"

    def test_config_error_is_one(self, tiny, tmp_path, capsys):
        code = run_cli(
            "run", "--dataset", tiny["dataset"], "--corpus", tiny["corpus"],
            "--k", "0",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        code = run_cli(
            "run", "--dataset", tiny["dataset"], "--corpus", tiny["corpus"], "--k", 2,
            "--train-fraction", 0.9, "--validation-fraction", 0.1, "--output-dir", tmp_path / "out",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: train_fraction + validation_fraction must be below 1, leaving a test part, "
            "got 0.9 + 0.1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_value_config_txt_cannot_hold_is_one(self, tiny, tmp_path, capsys):
        code = run_cli(
            "run", "--dataset", tiny["dataset"], "--corpus", tiny["corpus"], "--k", 2,
            "--output-dir", tmp_path / "exp#2",
        )
        assert code == 1
        assert "error: output_dir must hold no '#'" in capsys.readouterr().err
        assert not (tmp_path / "exp#2").exists()

    def test_no_expansion_with_a_k_grid_is_one(self, tmp_path, capsys):
        code = run_cli(
            "run", "--config", DATA / "config.txt", "--no-expansion", "--k", 0, "--k-min", 2,
            "--k-max", 4, "--output-dir", tmp_path / "out",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no_expansion ") and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["augment", "grid-search"])
    def test_retired_command_is_one(self, command, capsys):
        assert run_cli(command, "--config", DATA / "config.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"invalid choice: '{command}'" in err, err

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert run_cli("tokenize", tmp_path / "absent.txt") == 2
        capsys.readouterr()

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        absent = tmp_path / "absent.txt"
        assert run_cli("run", "--config", absent) == 2
        assert str(absent) in capsys.readouterr().err

    def test_malformed_data_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad-vectors.txt"
        bad.write_text("not a header\n")
        assert run_cli("cluster", bad, "--k", 2, "--output", tmp_path / "c.tsv") == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_vectors_are_two(self, tmp_path, capsys):
        for value in ("nan", "inf"):
            vectors = tmp_path / f"{value}-vectors.txt"
            vectors.write_text(f"3 2\na 1 2\nb {value} 4\nc 5 6\n")
            out = tmp_path / f"{value}-clusters.tsv"
            assert run_cli("cluster", vectors, "--k", 1, "--output", out) == 2
            assert "non-finite" in capsys.readouterr().err
            assert not out.exists()

    def test_overstated_vector_header_is_two(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2000000000 2\na 1 2\nb 3 4\n")
        out = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 1, "--output", out) == 2
        assert "header declares 2000000000 rows, found 2" in capsys.readouterr().err
        assert not out.exists()

    def test_vocabulary_too_large_for_memory_is_two(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the n x n similarity matrix, as it does for a 200,000-word file
        empty = np.empty

        def refuse_square(shape, *args, **kwargs):
            if shape == (3, 3):
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_square)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("3 2\na 1 2\nb 3 4\nc 5 6\n")
        out = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 1, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 3 words need a ") and err.count("\n") == 1
        assert not out.exists()

    def test_invalid_skipgram_flags_are_one(self, tiny, tmp_path, capsys):
        output = tmp_path / "v.txt"
        for flags, message in (
            (["--dim", 0], "dim"),
            (["--mode", "negative-sampling", "--negative-samples", 0], "negative_samples"),
            (["--final-learning-rate", -5], "final_learning_rate"),
            (["--final-learning-rate", "-0.000001"], "final_learning_rate"),
        ):
            assert run_cli("train-embeddings", tiny["corpus"], "--output", output, *flags) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert not output.exists()

    def test_negative_final_embedding_rate_in_run_is_one(self, tiny, capsys):
        code = run_cli(
            "run", "--dataset", tiny["dataset"], "--corpus", tiny["corpus"], "--k", 2,
            "--embed-final-learning-rate", -5,
        )
        assert code == 1
        assert "error: embed_final_learning_rate" in capsys.readouterr().err

    def test_malformed_checkpoint_is_two(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        model = tmp_path / "model.txt"
        assert run_cli(
            "train", tiny["dataset"], "--vectors", vectors, "--output", model,
            "--hidden", 3, "--epochs", 1,
        ) == 0
        lines = model.read_text().splitlines()
        hidden = lines.index("hidden 3")
        fc_b = lines.index("param fc_b 2")
        max_len = lines.index("max_len 20")
        cases = [
            (hidden, "hidden three", f"model.txt:{hidden + 1}: hidden"),
            (
                max_len,
                "max_len 20\nmax_len 3",
                f"model.txt:{max_len + 2}: repeated architecture key 'max_len'",
            ),
            (hidden, None, "missing architecture key 'hidden'"),
            (hidden, "hidden 3\nkernels 3", "key 'kernels' is not used by kind 'lstm'"),
            (fc_b, "param fc_b two", f"model.txt:{fc_b + 1}:"),
        ]
        capsys.readouterr()
        for index, replacement, message in cases:
            bad = list(lines)
            if replacement is None:
                del bad[index]
            else:
                bad[index] = replacement
            model.write_text("\n".join(bad) + "\n")
            code = run_cli("evaluate", tiny["dataset"], "--vectors", vectors, "--model-file", model)
            assert code == 2
            assert message in capsys.readouterr().err

    def test_checkpoint_size_line_beyond_its_values_is_two(self, tiny, tmp_path, capsys):
        # the architecture asks for 65.5 PiB of gate weights; numpy refuses that at once
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        model = tmp_path / "model.txt"
        assert run_cli(
            "train", tiny["dataset"], "--vectors", vectors, "--output", model,
            "--hidden", 48, "--epochs", 1,
        ) == 0
        lines = model.read_text().splitlines()
        gate_w = lines.index(f"param gate_w {(4 + 48) * 4 * 48}")
        lines[lines.index("hidden 48")] = "hidden 48000000"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("evaluate", tiny["dataset"], "--vectors", vectors, "--model-file", model)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {model}:{gate_w + 1}: param 'gate_w' size mismatch\n"

    def test_cluster_id_beyond_the_word_count_is_two(self, tiny, tmp_path, capsys):
        # an id is checked as a string against 0..k-1: nothing is allocated per id
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        clusters = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 2, "--output", clusters) == 0
        rows = [line.split("\t") for line in clusters.read_text().splitlines()]
        rows[-1][1] = "900000000000000"
        clusters.write_text("".join(f"{word}\t{cid}\n" for word, cid in rows))
        k = len({cid for _, cid in rows})
        capsys.readouterr()
        output = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", output) == 2
        assert capsys.readouterr().err == (
            f"error: {clusters}:{len(rows)}: cluster id must be an integer in 0..{k - 1}, "
            "got '900000000000000'\n"
        )
        assert not output.exists()

    # cluster 1 spelled as save_assignment never writes it: with a leading zero,
    # a sign, a space, an Arabic-Indic digit, or as 2, which leaves cluster 1 empty
    @pytest.mark.parametrize("spelling", ["01", "+1", " 1", "\u0661", "2"])
    def test_cluster_id_of_another_spelling_is_two(self, spelling, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        clusters = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 2, "--output", clusters) == 0
        rows = [line.split("\t") for line in clusters.read_text().splitlines()]
        line = 1 + [cid for _, cid in rows].index("1")
        text = "".join(f"{word}\t{spelling if cid == '1' else cid}\n" for word, cid in rows)
        clusters.write_text(text, encoding="utf-8")
        capsys.readouterr()
        output = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", output) == 2
        assert capsys.readouterr().err == (
            f"error: {clusters}:{line}: cluster id must be an integer in 0..1, got {spelling!r}\n"
        )
        assert not output.exists()

    def test_vectors_of_wrong_width_are_two(self, tiny, tmp_path, capsys):
        wide = tmp_path / "wide.txt"
        narrow = tmp_path / "narrow.txt"
        for path, dim in ((wide, 4), (narrow, 3)):
            assert run_cli(
                "train-embeddings", tiny["corpus"], "--output", path, "--dim", dim,
                "--epochs", 1,
            ) == 0
        model = tmp_path / "model.txt"
        assert run_cli(
            "train", tiny["dataset"], "--vectors", wide, "--output", model,
            "--hidden", 3, "--epochs", 1,
        ) == 0
        capsys.readouterr()
        code = run_cli("evaluate", tiny["dataset"], "--vectors", narrow, "--model-file", model)
        assert code == 2
        err = capsys.readouterr().err
        assert "narrow.txt" in err and "width 3" in err and "expects 4" in err

    def test_dataset_of_other_class_count_is_two(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        model = tmp_path / "model.txt"
        assert run_cli(
            "train", tiny["dataset"], "--vectors", vectors, "--output", model,
            "--hidden", 3, "--epochs", 1,
        ) == 0
        dataset = tmp_path / "three.tsv"
        dataset.write_text(tiny["dataset"].read_text() + "other\tfever today\n")
        capsys.readouterr()
        code = run_cli("evaluate", dataset, "--vectors", vectors, "--model-file", model)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {dataset}: dataset has 3 classes, but {model} expects 2\n"

    def test_evaluate_max_len_is_an_unrecognized_argument(self, stage_inputs, capsys):
        vectors, model = stage_inputs
        capsys.readouterr()
        code = run_cli(
            "evaluate", DATA / "dataset.tsv", "--vectors", vectors, "--model-file", model,
            "--max-len", 3,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --max-len 3\n"

    def test_malformed_report_is_two(self, tmp_path, capsys):
        good = {
            "config": {}, "split_fingerprint": "ab" * 32, "label_names": ["x"], "chosen_k": 3,
            "grid": [], "test_accuracy": 0.5,
            "per_class": [{"label": "x", "precision": 0.5, "recall": 1.0}],
            "confusion": [[1]], "train_log": {}, "timings": {}, "artifacts": {},
            "format_version": REPORT_VERSION,
        }
        reference = tmp_path / "good.json"
        reference.write_text(json.dumps(good))
        assert run_cli("compare", reference, reference) == 0
        row = good["per_class"][0]
        cases = [
            ({"per_class": [{"label": "x", "recall": 1.0}]}, "per_class[0].precision"),
            ({"per_class": [row | {"recall": "1.0"}]}, "per_class[0].recall"),
            ({"per_class": [row | {"label": ["x"]}]}, "per_class[0].label"),
            ({"per_class": [row, "x"]}, "per_class[1]"),
            ({"per_class": {"x": row}}, "per_class"),
            ({"test_accuracy": None}, "test_accuracy"),
            ({"chosen_k": "3"}, "chosen_k"),
            ({"split_fingerprint": 7}, "split_fingerprint"),
            ({"format_version": True}, "format_version"),
            ({"format_version": float(REPORT_VERSION)}, "format_version"),
        ]
        capsys.readouterr()
        for change, field in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(good | change))
            assert run_cli("compare", reference, bad) == 2, field
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"report field {field} must be" in err

    def test_repeated_class_in_report_is_two(self, toy_run, tmp_path, capsys):
        good = toy_run[0] / ARTIFACT_NAMES["report"]
        report = json.loads(good.read_text(encoding="utf-8"))
        rows = report["per_class"]
        label = rows[0]["label"]
        rows.append(rows[0] | {"precision": 1 - rows[0]["precision"]})
        bad = tmp_path / "repeated.json"
        bad.write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("compare", good, bad) == 2
        field = f"per_class[{len(rows) - 1}].label"
        message = f"error: {bad}: report field {field} must be unique, but {label!r} repeats\n"
        assert capsys.readouterr() == ("", message)

    # a row save_assignment never writes: a second spelling of cluster 1, and
    # cluster 1 spelled with an Arabic-Indic digit in place of its own row
    @pytest.mark.parametrize("token, replaces", [("cluster_01", False), ("cluster_\u0661", True)])
    def test_centroid_row_of_another_name_is_two(self, token, replaces, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        clusters = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 2, "--output", clusters) == 0
        centroids = Path(f"{clusters}.centroids")
        header, first, second = centroids.read_text(encoding="utf-8").splitlines()
        assert second.startswith("cluster_1 ")
        values = first.split(" ", 1)[1]
        rows = [first, f"{token} {values}"] if replaces else [first, second, f"{token} {values}"]
        dim = header.split()[1]
        text = f"{len(rows)} {dim}\n" + "".join(f"{row}\n" for row in rows)
        centroids.write_text(text, encoding="utf-8")
        capsys.readouterr()
        output = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", output) == 2
        assert capsys.readouterr().err == f"error: {centroids}: unexpected centroid token {token!r}\n"
        assert not output.exists()

    def test_centroid_rows_out_of_order_are_two(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        clusters = tmp_path / "clusters.tsv"
        assert run_cli("cluster", vectors, "--k", 2, "--output", clusters) == 0
        centroids = Path(f"{clusters}.centroids")
        header, first, second = centroids.read_text(encoding="utf-8").splitlines()
        centroids.write_text(f"{header}\n{second}\n{first}\n", encoding="utf-8")
        capsys.readouterr()
        output = tmp_path / "expanded.txt"
        assert run_cli("expand", vectors, clusters, "--output", output) == 2
        assert capsys.readouterr().err == (
            f"error: {centroids}: unexpected centroid token 'cluster_1'\n"
        )
        assert not output.exists()

    def test_centroids_of_wrong_width_are_two(self, tiny, tmp_path, capsys):
        wide = tmp_path / "v4.txt"
        narrow = tmp_path / "v3.txt"
        for path, dim in ((wide, 4), (narrow, 3)):
            assert run_cli(
                "train-embeddings", tiny["corpus"], "--output", path, "--dim", dim,
                "--epochs", 1,
            ) == 0
        clusters = tmp_path / "c3.tsv"
        assert run_cli("cluster", narrow, "--k", 2, "--output", clusters) == 0
        capsys.readouterr()
        output = tmp_path / "e.txt"
        assert run_cli("expand", wide, clusters, "--output", output) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "width 3" in err and "width 4" in err
        assert not output.exists()

    def test_non_finite_checkpoint_is_two(self, tiny, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        assert run_cli(
            "train-embeddings", tiny["corpus"], "--output", vectors, "--dim", 4, "--epochs", 1
        ) == 0
        model = tmp_path / "model.txt"
        assert run_cli(
            "train", tiny["dataset"], "--vectors", vectors, "--output", model,
            "--hidden", 3, "--epochs", 1,
        ) == 0
        lines = model.read_text().splitlines()
        values = 1 + next(i for i, line in enumerate(lines) if line.startswith("param gate_w"))
        lines[values] = " ".join(["nan"] + lines[values].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("evaluate", tiny["dataset"], "--vectors", vectors, "--model-file", model)
        assert code == 2
        assert f"model.txt:{values + 1}: param 'gate_w' has non-finite values" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout_pipe_is_zero(self, failing, tiny, tmp_path, monkeypatch, capsys):
        """A reader that leaves early, as ``| head -1`` does, is no failure: exit 0 and
        nothing on stderr. stdout's descriptor then points at devnull, so the flush at
        interpreter exit cannot fail again."""

        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                return len(text)

            def flush(self):
                if failing == "flush":
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout.txt", "w") as held, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe(held.fileno()))
            assert run_cli("tokenize", tiny["corpus"]) == 0
            assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    def test_numeric_failure_is_three(self, tiny, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = run_cli(
                "train-embeddings", tiny["corpus"], "--output", tmp_path / "v.txt",
                "--dim", 4, "--epochs", 2, "--learning-rate", 1e6,
                "--final-learning-rate", 1e6,
            )
        assert code == 3
        assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tokenize", "train-embeddings", "cluster", "run"])
def test_non_utf8_input_is_two(command, tiny, tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\xe9\tcaf\xe9 au lait\n".encode("latin-1"))
    output = tmp_path / "output"
    argv = {
        "tokenize": [latin1],
        "train-embeddings": [latin1, "--output", output],
        "cluster": [latin1, "--k", 1, "--output", output],
        "run": ["--dataset", latin1, "--corpus", tiny["corpus"], "--k", 2, "--output-dir", output],
    }[command]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "utf-8" in err, err
    assert f"{latin1}:1:" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "reader", ["corpus", "dictionary", "config", "assignment", "model", "report"]
)
def test_non_utf8_input_names_file_and_line(reader, tiny, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# a valid first line\n" + "caf\xe9\n".encode("latin-1"))
    vectors = tmp_path / "vectors.txt"
    write_vector_file(vectors, ["the", "pain"], np.ones((2, 3)))
    output = tmp_path / "output"
    run = ["run", "--dataset", tiny["dataset"], "--k", 2, "--output-dir", output]
    argv = {
        "corpus": [*run, "--corpus", bad],
        "dictionary": [*run, "--corpus", tiny["corpus"], "--dictionary", bad],
        "config": ["run", "--config", bad],
        "assignment": ["expand", vectors, bad, "--output", output],
        "model": ["evaluate", tiny["dataset"], "--vectors", vectors, "--model-file", bad],
        "report": ["compare", bad, bad],
    }[reader]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad}:2: " in err and "0xe9" in err, err


def test_punctuated_dictionary_term_is_named_and_exits_2(tiny, tmp_path, capsys):
    dictionary = tmp_path / "dict.txt"
    dictionary.write_text("chest pain\ncovid-19\n", encoding="utf-8")
    argv = ["--dataset", tiny["dataset"], "--corpus", tiny["corpus"], "--dictionary", dictionary]
    assert run_cli("run", *argv, "--k", 2, "--output-dir", tmp_path / "output") == 2
    err = capsys.readouterr().err
    named = "error: tokenize: dictionary term 'covid-19' joins into 'covid_-_19'"
    assert err.startswith(named), err


def checkout_env():
    """The parent's environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(REPO / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


class TestInstalledEntryPoints:
    def test_console_script(self, tiny):
        target = declared_console_script("semexpand")
        match = re.fullmatch(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)", target)
        assert match, f"console script target {target!r} is not module:function"
        module, function = match.groups()
        # What pip's generated ``semexpand`` script does, minus the install.
        wrapper = (
            "import sys\n"
            f"from {module} import {function}\n"
            "sys.argv[0] = 'semexpand'\n"
            f"sys.exit({function}())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "tokenize", str(tiny["corpus"])],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "the chest pain got worse" in result.stdout

    @pytest.mark.skipif(
        shutil.which("semexpand") is None,
        reason="the semexpand console script is not installed on PATH",
    )
    def test_installed_console_script(self, tiny):
        result = subprocess.run(
            ["semexpand", "tokenize", str(tiny["corpus"])],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "the chest pain got worse" in result.stdout

    def test_module_execution(self, tiny):
        result = subprocess.run(
            [sys.executable, "-m", "semexpand.cli", "tokenize", str(tiny["corpus"])],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip()


# Every numeric flag of every subcommand, with the values its range forbids.
# run reads the toy config, which sets no grid, so --k 0 fails too. The
# grid-search cases run the same config over a k grid (--k 0 --k-min 2
# --k-max 4), where --k 0 is the grid itself and so not a bad value.
POSITIVE = ("0", "-1", "nan", "inf")
NON_NEGATIVE = ("-1", "nan", "inf")
_RUN_FLAGS = {
    **dict.fromkeys(
        (
            "--min-count", "--window", "--dim", "--embed-epochs", "--embed-learning-rate",
            "--negative-samples", "--k", "--k-steps", "--hidden", "--kernels",
            "--kernel-width", "--pool-width", "--max-len", "--batch-size", "--train-epochs",
            "--learning-rate", "--train-fraction", "--validation-fraction",
        ),
        POSITIVE,
    ),
    **dict.fromkeys(("--embed-final-learning-rate", "--k-min", "--k-max", "--seed"), NON_NEGATIVE),
}
NUMERIC_FLAGS = {
    "train-embeddings": {
        **dict.fromkeys(
            (
                "--min-count", "--window", "--dim", "--epochs", "--learning-rate",
                "--negative-samples",
            ),
            POSITIVE,
        ),
        **dict.fromkeys(("--final-learning-rate", "--seed"), NON_NEGATIVE),
    },
    "cluster": {"--k": POSITIVE + ("500",)},
    "train": {
        **dict.fromkeys(
            (
                "--max-len", "--hidden", "--kernels", "--kernel-width", "--pool-width",
                "--batch-size", "--epochs", "--learning-rate",
            ),
            POSITIVE,
        ),
        "--seed": NON_NEGATIVE,
    },
    "run": _RUN_FLAGS,
    "grid-search": {**_RUN_FLAGS, "--k": POSITIVE[1:]},
}
BAD_FLAG_CASES = [
    (case, flag, value)
    for case, flags in NUMERIC_FLAGS.items()
    for flag, values in flags.items()
    for value in values
]


def test_every_numeric_config_key_has_flag_cases():
    numeric = {
        "--" + f.name.replace("_", "-")
        for f in dataclasses.fields(ExperimentConfig)
        if isinstance(f.default, (int, float)) and not isinstance(f.default, bool)
    }
    assert set(_RUN_FLAGS) == numeric


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A vector file (129 toy words) and an LSTM checkpoint trained on it."""
    base = tmp_path_factory.mktemp("stage-inputs")
    vectors, model = base / "vectors.txt", base / "model.txt"
    assert cli.main([
        "train-embeddings", str(DATA / "corpus.txt"), "--output", str(vectors),
        "--dim", "4", "--epochs", "1",
    ]) == 0
    assert cli.main([
        "train", str(DATA / "dataset.tsv"), "--vectors", str(vectors), "--output", str(model),
        "--hidden", "3", "--epochs", "1",
    ]) == 0
    return vectors, model


@pytest.mark.parametrize(("case", "flag", "value"), BAD_FLAG_CASES)
def test_out_of_range_flag_is_one(case, flag, value, stage_inputs, tmp_path, capsys):
    vectors, _ = stage_inputs
    output = tmp_path / "output"
    run = ["run", "--config", DATA / "config.txt", "--output-dir", output]
    argv = {
        "train-embeddings": ["train-embeddings", DATA / "corpus.txt", "--output", output],
        "cluster": ["cluster", vectors, "--output", output],
        "train": ["train", DATA / "dataset.tsv", "--vectors", vectors, "--output", output],
        "run": run,
        "grid-search": [*run, "--k", 0, "--k-min", 2, "--k-max", 4],
    }[case]
    capsys.readouterr()
    assert run_cli(*argv, f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert flag in err or flag[2:].replace("-", "_") in err, err
    assert "Traceback" not in err
    assert not output.exists()
