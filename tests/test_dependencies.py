"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semexpand"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def third_party_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are neither numpy nor stdlib."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_package_imports_only_numpy_and_stdlib():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {
        str(path.relative_to(PACKAGE)): bad
        for path in files
        if (bad := third_party_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_check_flags_third_party_and_passes_relative():
    source = (
        "import os.path\nimport numpy as np\nfrom . import layers\n"
        "import scipy.sparse\nfrom yaml import load\n"
    )
    assert third_party_imports(source) == ["scipy.sparse", "yaml"]
