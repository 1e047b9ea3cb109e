"""nn.build_model is the one way the package constructs a classifier, and a
ClassifierConfig the one way to describe it: only nn/models.py spells the
checkpoint's architecture dict. pipeline.fit and pipeline.score are the one
way it builds, trains and scores a classifier: only pipeline.py calls
build_model, train_classifier or evaluate. sidebyside.run_side_by_side is the
one way it runs work in parallel: only sidebyside.py forks or imports a module
that starts processes or threads. Text becomes tokens where corpus.py reads it:
only corpus.py calls tokenize. Each reference implementation in
tests/oracles.py stands apart from the code it checks: it reaches no
_-prefixed name of the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semexpand"
CLASSIFIERS = {"CnnClassifier", "LstmClassifier"}
OWNER = Path("nn") / "models.py"
FIT_CALLS = {"build_model", "train_classifier", "evaluate"}
FITTER = Path("pipeline.py")
# The planted benchmark's two arms still build, train and score their own
# classifiers. ROADMAP direction 9 moves them onto pipeline.fit and
# pipeline.score; the move waits for perfbench's TRACED_CALLS to drop the
# synthetic names (synthetic.train_classifier and synthetic.evaluate).
PLANTED = "synthetic.py"
RUNNER = Path("sidebyside.py")
PARALLEL_MODULES = ("multiprocessing", "concurrent.futures", "subprocess", "threading")
TOKENIZER = Path("corpus.py")
# `semexpand tokenize` prints the tokens of every line, comments too, so it
# tokenizes in cli.py, once; the planted benchmark tokenizes text it generates
# itself and reads from no file.
TOKENIZE_EXCEPTIONS = {"cli.py": ["tokenize"], "synthetic.py": None}
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(source: str, names) -> list[str]:
    """The calls in ``source`` of a name in ``names``, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in names:
            found.append(_called_name(node))
    return found


def classifier_calls(source: str) -> list[str]:
    """Names of the classifier classes that ``source`` calls."""
    return _calls(source, CLASSIFIERS)


def fit_calls(source: str) -> list[str]:
    """Calls in ``source`` of build_model, train_classifier or evaluate."""
    return _calls(source, FIT_CALLS)


def tokenize_calls(source: str) -> list[str]:
    """Calls in ``source`` of tokenize."""
    return _calls(source, {"tokenize"})


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


def _starts_work(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in PARALLEL_MODULES)


def parallel_starts(source: str) -> list[tuple[int, str]]:
    """(line, name) of each os.fork call in ``source``, and of each import of a
    module that starts processes or threads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _starts_work(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [(node.lineno, name) for name in names if _starts_work(name)]
            found += [(node.lineno, name) for name in names if name == "os.fork"]
        elif isinstance(node, ast.Call) and _called_name(node) == "fork":
            found.append((node.lineno, "os.fork"))
    return sorted(found)


def _in_package(module) -> bool:
    return module == PACKAGE.name or str(module).startswith(PACKAGE.name + ".")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else None


def private_package_names(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each _-prefixed package name that ``source`` imports,
    or reads as an attribute of a package name it imported."""
    tree = ast.parse(source)
    found, bound = [], {}  # bound: local name -> the package name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _in_package(a.name):
                    bound[a.asname or PACKAGE.name] = a.name if a.asname else PACKAGE.name
                    if any(map(_private, a.name.split("."))):
                        found.append((node.lineno, a.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _in_package(node.module):
            for a in node.names:
                name = f"{node.module}.{a.name}"
                bound[a.asname or a.name] = name
                if any(map(_private, name.split("."))):
                    found.append((node.lineno, name))
    for node in ast.walk(tree):
        dotted = isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value)
        if dotted and dotted.split(".")[0] in bound:
            head, _, rest = dotted.partition(".")
            found.append((node.lineno, ".".join(filter(None, [bound[head], rest, node.attr]))))
    return sorted(found)


def _outside_owner(check, owner=OWNER) -> dict:
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / owner in files
    return {
        str(path.relative_to(PACKAGE)): found
        for path in files
        if path.relative_to(PACKAGE) != owner
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


def test_only_the_pipeline_builds_trains_and_scores_classifiers():
    found = _outside_owner(fit_calls, FITTER)
    found.pop(PLANTED, None)
    assert found == {}
    assert fit_calls((PACKAGE / FITTER).read_text(encoding="utf-8")) != []


def test_check_flags_build_train_and_evaluate_calls():
    source = (
        "from .nn import build_model, evaluate\nfrom . import nn, pipeline\n"
        "model = build_model(shape, 2, 2, seed)\n"
        "log = nn.train_classifier(model, x, mask, y, config)\n"
        "result = evaluate(model, x, mask, y)\n"
        "model, log = pipeline.fit(shape, config, dataset, table)\n"
        "result = pipeline.score(model, dataset, table)\n"
    )
    assert sorted(fit_calls(source)) == ["build_model", "evaluate", "train_classifier"]


def test_only_the_side_by_side_runner_forks_or_starts_threads():
    assert _outside_owner(parallel_starts, RUNNER) == {}
    assert parallel_starts((PACKAGE / RUNNER).read_text(encoding="utf-8")) != []


def test_check_flags_forks_and_parallel_imports():
    source = (
        "import os, subprocess\n"
        "import concurrent.futures as cf\n"
        "from multiprocessing import Pool\n"
        "from concurrent import futures\n"
        "from threading import Thread\n"
        "from os import fork, getpid\n"
        "pid = os.fork()\n"
        "import pickle, signal\n"
        "from os import path\n"
        "from concurrent import interpreters_not_futures\n"
        "import subprocessing\n"
        "os.getpid()\n"
    )
    assert parallel_starts(source) == [
        (1, "subprocess"),
        (2, "concurrent.futures"),
        (3, "multiprocessing.Pool"),
        (4, "concurrent.futures"),
        (5, "threading.Thread"),
        (6, "os.fork"),
        (7, "os.fork"),
    ]


def test_only_the_corpus_readers_tokenize():
    found = _outside_owner(tokenize_calls, TOKENIZER)
    for module, allowed in TOKENIZE_EXCEPTIONS.items():
        calls = found.pop(module, [])
        assert allowed is None or calls == allowed, (module, calls)
    assert found == {}
    assert tokenize_calls((PACKAGE / TOKENIZER).read_text(encoding="utf-8")) != []


def test_check_flags_tokenize_calls():
    source = (
        "from .corpus import tokenize\nfrom . import corpus\n"
        "tokens = tokenize(text)\n"
        "tokens = corpus.tokenize(line, user_dict)\n"
        "examples = corpus.load_labeled_file(path, user_dict)\n"
        "sentences = corpus.load_sentence_file(path, user_dict)\n"
        "tokenizer = corpus.tokenize\n"
    )
    assert tokenize_calls(source) == ["tokenize", "tokenize"]


def test_oracles_reach_no_private_package_name():
    source = ORACLES.read_text(encoding="utf-8")
    assert private_package_names(source) == []
    assert any(_in_package(getattr(node, "module", None)) for node in ast.walk(ast.parse(source)))


def test_check_flags_private_package_names():
    source = (
        "from semexpand.embedding import MODE_EXACT, _sigmoid\n"
        "from semexpand.embedding import _sigmoid as sigmoid\n"
        "import semexpand.embedding as emb\n"
        "emb._negative_sampling_gradients(1)\n"
        "from semexpand import nn, _hidden_module\n"
        "nn.layers._helper\n"
        "import semexpand._hidden\n"
        "semexpand.embedding._pair_arrays\n"
        "emb.train_skipgram, emb.__name__, np._core, sigmoid, MODE_EXACT\n"
        "from .embedding import _sigmoid\n"
        "from semexpand_other import _x\n"
    )
    assert private_package_names(source) == [
        (1, "semexpand.embedding._sigmoid"),
        (2, "semexpand.embedding._sigmoid"),
        (4, "semexpand.embedding._negative_sampling_gradients"),
        (5, "semexpand._hidden_module"),
        (6, "semexpand.nn.layers._helper"),
        (7, "semexpand._hidden"),
        (8, "semexpand.embedding._pair_arrays"),
    ]
