"""The README's stage-by-stage commands run as written."""

import re
import shlex
from pathlib import Path

from semexpand import cli
from semexpand.embedding import read_vector_file

REPO = Path(__file__).resolve().parents[1]


def section_commands(heading: str) -> list:
    """The commands of the first ``sh`` block under ``## heading``, continuations joined."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


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
