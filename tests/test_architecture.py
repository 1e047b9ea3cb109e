"""nn.build_model is the one way the package constructs a classifier, and a
ClassifierConfig the one way to describe it: only nn/models.py spells the
checkpoint's architecture dict."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semexpand"
CLASSIFIERS = {"CnnClassifier", "LstmClassifier"}
OWNER = Path("nn") / "models.py"


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def classifier_calls(source: str) -> list[str]:
    """Names of the classifier classes that ``source`` calls, bare or as an attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in CLASSIFIERS:
            names.append(_called_name(node))
    return names


def _is_kind(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "kind"


def architecture_dicts(source: str) -> list[int]:
    """Lines of ``source`` that write a "kind" dict key or pass build_model a dict.

    A build_model call passes a dict when its first argument is a dict
    expression, or when it lacks the input width and class count that
    follow a ClassifierConfig.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict) and any(_is_kind(key) for key in node.keys):
            lines.add(node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if _is_kind(node.slice):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and _called_name(node) == "dict":
            if any(keyword.arg == "kind" for keyword in node.keywords):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and _called_name(node) == "build_model":
            first = node.args[0] if node.args else None
            dict_like = isinstance(first, (ast.Dict, ast.DictComp, ast.BinOp)) or (
                isinstance(first, ast.Call) and _called_name(first) in ("dict", "asdict")
            )
            if dict_like or len(node.args) + len(node.keywords) < 3:
                lines.add(node.lineno)
    return sorted(lines)


def _outside_owner(check) -> dict:
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / OWNER in files
    return {
        str(path.relative_to(PACKAGE)): found
        for path in files
        if path.relative_to(PACKAGE) != OWNER
        and (found := check(path.read_text(encoding="utf-8")))
    }


def test_only_models_module_constructs_classifiers():
    assert _outside_owner(classifier_calls) == {}


def test_only_models_module_spells_architecture_dicts():
    assert _outside_owner(architecture_dicts) == {}


def test_check_flags_direct_construction_and_passes_build_model():
    source = (
        "from .nn import LstmClassifier, build_model\nfrom . import nn\n"
        "a = LstmClassifier(input_width=2, num_classes=2)\n"
        "b = nn.CnnClassifier(2, 2)\n"
        "c = build_model({'kind': 'lstm'}, 0)\n"
        "isinstance(c, LstmClassifier)\n"
    )
    assert classifier_calls(source) == ["LstmClassifier", "CnnClassifier"]


def test_check_flags_kind_keys_and_dict_descriptors():
    source = (
        'arch = {"kind": "lstm", "hidden": 2}\n'
        'arch["kind"] = "cnn"\n'
        "build_model(dataclasses.asdict(shape) | arch, 0)\n"
        "build_model(arch, 0)\n"
        'nn.build_model(dict(kind="cnn"), 2, 2)\n'
        "build_model(shape, 2, 2, seed)\n"
        "build_model(cfg.classifier_config(), x.shape[2], n, seed=seed)\n"
        'row = {"k": 3, "seconds": 0.5}\n'
        'kind = arch["kind"]\n'
    )
    assert architecture_dicts(source) == [1, 2, 3, 4, 5]
