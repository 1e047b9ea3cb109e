"""Byte-level mutations of the files a run reads or writes never end in a traceback.

One tiny run writes model.txt, a vector file, clusters.tsv with its centroids
file, and report.json; its copy also holds the toy labeled dataset and
dictionary. Each property mutates one of these files and feeds it to the
subcommand that reads it: ``cli.main`` must return an exit code from 0 to 3,
and a failure must end in one ``error:`` line. config.txt is left out,
because its sizes are user settings that may legitimately ask for much memory.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semexpand import cli
from semexpand.pipeline import ARTIFACT_NAMES

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"
INPUTS = ("dataset.tsv", "dict.txt")

# Bytes that turn a number into another, a line into two, or a file into non-UTF-8.
PIECES = [
    b"0", b"1", b"9", b"-", b".", b"e", b" ", b"\t", b"\n", b"#", b'"', b"{", b"]", b",",
    b"nan", b"inf", b"99999999999999999999", b"param ", b"kind cnn", b"\xff",
]
EDITS = st.lists(
    st.tuples(
        st.integers(0, 300) | st.integers(0, 2**20),
        st.sampled_from(["replace", "insert", "delete"]),
        st.sampled_from(PIECES) | st.binary(min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-run")
    argv = [
        "run", "--config", str(DATA / "config.txt"), "--output-dir", str(out),
        "--dim", "4", "--embed-epochs", "1", "--k", "3", "--hidden", "3", "--train-epochs", "1",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    for name in INPUTS:
        shutil.copy(DATA / name, out / name)
    return out


def mutate(data: bytes, edits) -> bytes:
    for position, action, piece in edits:
        at = position % (len(data) + 1)
        if action == "insert":
            data = data[:at] + piece + data[at:]
        elif action == "replace":
            data = data[:at] + piece + data[at + len(piece) :]
        else:
            data = data[:at] + data[at + len(piece) :]
    return data


def exits_cleanly(run_dir, fname, edits, command) -> None:
    """Copy the run, mutate its file ``fname``, and run ``command(copy)`` through the CLI."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "run"
        shutil.copytree(run_dir, copy)
        target = copy / fname
        target.write_bytes(mutate(target.read_bytes(), edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(arg) for arg in command(copy)])
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def artifact(run, name):
    return run / ARTIFACT_NAMES[name]


FUZZ = settings(max_examples=40)


@FUZZ
@given(edits=EDITS)
def test_mutated_checkpoint_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, ARTIFACT_NAMES["model"], edits, lambda run: [
        "evaluate", DATA / "dataset.tsv", "--vectors", artifact(run, "expanded"),
        "--model-file", artifact(run, "model"),
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_vector_file_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, ARTIFACT_NAMES["embeddings"], edits, lambda run: [
        "cluster", artifact(run, "embeddings"), "--k", 3, "--output", run / "clusters-again.tsv",
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_assignment_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, ARTIFACT_NAMES["assignment"], edits, lambda run: [
        "expand", artifact(run, "embeddings"), artifact(run, "assignment"),
        "--output", run / "expanded-again.txt",
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_report_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, ARTIFACT_NAMES["report"], edits, lambda run: [
        "compare", run_dir / ARTIFACT_NAMES["report"], artifact(run, "report"),
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_centroids_file_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, ARTIFACT_NAMES["assignment"] + ".centroids", edits, lambda run: [
        "expand", artifact(run, "embeddings"), artifact(run, "assignment"),
        "--output", run / "expanded-again.txt",
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_dataset_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, "dataset.tsv", edits, lambda run: [
        "evaluate", run / "dataset.tsv", "--vectors", artifact(run, "expanded"),
        "--dictionary", run / "dict.txt", "--model-file", artifact(run, "model"),
    ])


@FUZZ
@given(edits=EDITS)
def test_mutated_dictionary_exits_cleanly(run_dir, edits):
    exits_cleanly(run_dir, "dict.txt", edits, lambda run: [
        "tokenize", DATA / "corpus.txt", "--dictionary", run / "dict.txt",
        "--output", run / "tokens.txt",
    ])
