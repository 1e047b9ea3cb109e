"""The benchmark's layer tracer patches program functions by name.

These checks load perfbench/layertrace.py without changing it and fail when a
rename leaves one of its traced names unresolvable, or when installing and
restoring its patches does not leave the program as it was.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves(layertrace):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in layertrace.TRACED_CALLS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_install_then_restore_leaves_every_attribute_as_it_was(layertrace):
    before = [
        (owner, attr, attr in vars(owner), getattr(owner, attr))
        for owner, attr, _ in layertrace.TRACED_CALLS
    ]
    patches = layertrace.Patches()
    layertrace.Tracer().install(patches)
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, _, original in before)
    finally:
        patches.restore()
    for owner, attr, own, original in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
        assert (attr in vars(owner)) == own, f"{owner.__name__}.{attr}"
