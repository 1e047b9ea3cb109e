"""The README's stage-by-stage commands and its library example run as written,
and every `semexpand` command in its shell blocks parses."""

import re
import shlex
from pathlib import Path

from semexpand import cli
from semexpand.corpus import load_labeled_file
from semexpand.embedding import read_vector_file

REPO = Path(__file__).resolve().parents[1]


def section_block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``## heading``."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def section_commands(heading: str) -> list:
    """The commands of the first ``sh`` block under ``## heading``, continuations joined."""
    block = section_block(heading, "sh")
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_every_command_parses():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("semexpand")]
    assert {"run", "compare", "tokenize"} <= {argv[1] for argv in commands}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a retired command or flag raises ConfigError


def test_running_stages_individually(tmp_path, monkeypatch, capsys):
    commands = section_commands("Running stages individually")
    assert [argv[:2] for argv in commands] == [
        ["semexpand", "tokenize"],
        ["semexpand", "train-embeddings"],
        ["semexpand", "cluster"],
        ["semexpand", "expand"],
        ["semexpand", "train"],
        ["semexpand", "evaluate"],
    ]
    (tmp_path / "data").symlink_to(REPO / "data", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    capsys.readouterr()
    assert "chest_pain" in read_vector_file(tmp_path / "vectors.txt")[0]


def test_library_use(tmp_path, monkeypatch):
    for name in ("corpus.txt", "dataset.tsv"):
        (tmp_path / name).symlink_to(REPO / "data" / "toy" / name)
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(section_block("Library use", "python"), "README.md", "exec"), names)
    vocab, assignment = names["vocab"], names["assignment"]
    assert assignment.words == vocab.words and len(assignment.centroids) == 40
    assert names["expanded"].shape == (len(vocab), 64)
    assert len(names["dataset"]) == len(load_labeled_file(tmp_path / "dataset.tsv"))
