"""nn.build_model is the one way the package constructs a classifier."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semexpand"
CLASSIFIERS = {"CnnClassifier", "LstmClassifier"}
OWNER = Path("nn") / "models.py"


def classifier_calls(source: str) -> list[str]:
    """Names of the classifier classes that ``source`` calls, bare or as an attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CLASSIFIERS:
                names.append(name)
    return names


def test_only_models_module_constructs_classifiers():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / OWNER in files
    found = {
        str(path.relative_to(PACKAGE)): calls
        for path in files
        if path.relative_to(PACKAGE) != OWNER
        and (calls := classifier_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_check_flags_direct_construction_and_passes_build_model():
    source = (
        "from .nn import LstmClassifier, build_model\nfrom . import nn\n"
        "a = LstmClassifier(input_width=2, num_classes=2)\n"
        "b = nn.CnnClassifier(2, 2)\n"
        "c = build_model({'kind': 'lstm'}, 0)\n"
        "isinstance(c, LstmClassifier)\n"
    )
    assert classifier_calls(source) == ["LstmClassifier", "CnnClassifier"]
