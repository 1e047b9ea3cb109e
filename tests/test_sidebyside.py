import os
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_no_child_left
from semexpand import sidebyside


class TwoArgError(Exception):
    """Pickles, but cannot unpickle: ``args`` holds one value, ``__init__`` needs two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def run_on(monkeypatch, cpus, trial, values):
    monkeypatch.setattr(sidebyside, "_usable_cpus", lambda: cpus)
    return sidebyside.run_side_by_side(trial, values)


def in_child(parent, action, otherwise):
    """A trial that calls ``action(value)`` in a forked child and ``otherwise(value)`` here."""
    return lambda value: action(value) if os.getpid() != parent else otherwise(value)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_position_order(monkeypatch, cpus):
    results = run_on(monkeypatch, cpus, lambda v: (v * v, os.getpid()), list(range(7)))
    assert_no_child_left()
    assert [square for square, _ in results] == [v * v for v in range(7)]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    # position p runs in process p % cpus, so each process runs a fixed share
    assert len(set(pids)) == cpus
    assert all(pid == pids[p % cpus] for p, pid in enumerate(pids))


@pytest.mark.parametrize("failing", [{0}, {1}, {2}, {1, 2}, {2, 3}, {4, 5}])
def test_earliest_failure_in_position_order_wins(monkeypatch, failing):
    def trial(value):
        if value in failing:
            raise ValueError(f"failed at {value}")
        return value

    first = min(failing)
    for cpus in (1, 2, 3):
        with pytest.raises(ValueError) as info:
            run_on(monkeypatch, cpus, trial, list(range(6)))
        assert_no_child_left()
        assert (type(info.value), str(info.value)) == (ValueError, f"failed at {first}")


def test_child_that_dies_is_reported_and_reaped(monkeypatch):
    trial = in_child(os.getpid(), lambda v: os._exit(7), lambda v: v)
    with pytest.raises(RuntimeError, match=r"^process \d+ ended without a result \(exit code 7\)$"):
        run_on(monkeypatch, 2, trial, [0, 1])
    assert_no_child_left()


def test_result_that_cannot_be_pickled_names_the_pickling_error(monkeypatch):
    trial = in_child(os.getpid(), lambda v: (x for x in ()), lambda v: v)
    with pytest.raises(RuntimeError) as info:
        run_on(monkeypatch, 2, trial, [0, 1])
    assert_no_child_left()
    assert info.match(
        r"^process \d+ could not send its result: TypeError: cannot pickle 'generator' object$"
    )


def test_exception_that_cannot_be_unpickled_names_the_trials_error(monkeypatch):
    def raise_two_arg_error(value):
        raise TwoArgError("left", "right")

    trial = in_child(os.getpid(), raise_two_arg_error, lambda v: v)
    with pytest.raises(RuntimeError) as info:
        run_on(monkeypatch, 2, trial, [0, 1])
    assert_no_child_left()
    assert info.match(r"^process \d+ could not send its result: TwoArgError: left and right$")


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread getter, with the count set to 2 for the test and restored after."""
    if not (Path(np.__file__).resolve().parent.parent / "numpy.libs").is_dir():
        pytest.skip("this numpy has no numpy.libs, so no wheel OpenBLAS to control")
    control = sidebyside._blas_threads_control()
    assert control is not None, "numpy.libs holds no OpenBLAS with a known thread getter"
    get, set_ = control
    before = get()
    set_(2)
    assert get() == 2
    yield get
    set_(before)


@pytest.mark.parametrize("cpus", [2, 3])
def test_each_share_runs_on_one_blas_thread(monkeypatch, blas_threads, cpus):
    results = run_on(monkeypatch, cpus, lambda v: (os.getpid(), blas_threads()), list(range(cpus)))
    assert_no_child_left()
    assert len({pid for pid, _ in results}) == cpus
    assert [threads for _, threads in results] == [1] * cpus
    assert blas_threads() == 2


@pytest.mark.parametrize(
    "failing, error_type",
    [(0, ValueError), (1, ValueError), (0, KeyboardInterrupt)],
)
def test_blas_threads_come_back_after_a_failure(monkeypatch, blas_threads, failing, error_type):
    def trial(value):
        if value == failing:
            raise error_type(f"failed at {value}")
        return value

    with pytest.raises(error_type, match=f"failed at {failing}"):
        run_on(monkeypatch, 2, trial, [0, 1])
    assert_no_child_left()
    assert blas_threads() == 2


def test_one_process_where_blas_threads_cannot_be_set(monkeypatch):
    monkeypatch.setattr(sidebyside, "_blas_threads_control", lambda: None)
    for name in sidebyside.BLAS_PINNING_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_on(monkeypatch, 2, lambda v: os.getpid(), [0, 1]) == [os.getpid()] * 2
    assert_no_child_left()


@pytest.mark.parametrize("name", sidebyside.BLAS_PINNING_VARIABLES)
def test_side_by_side_where_the_environment_pins_blas(monkeypatch, name):
    monkeypatch.setattr(sidebyside, "_blas_threads_control", lambda: None)
    for other in sidebyside.BLAS_PINNING_VARIABLES:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(name, "1")
    pids = run_on(monkeypatch, 2, lambda v: os.getpid(), [0, 1])
    assert_no_child_left()
    assert pids[0] == os.getpid() and pids[1] != os.getpid()


@pytest.mark.parametrize("pinned", [False, True])
def test_no_values_give_no_results(monkeypatch, pinned):
    for name in sidebyside.BLAS_PINNING_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if pinned:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert run_on(monkeypatch, 2, lambda v: v, []) == []
    assert_no_child_left()
