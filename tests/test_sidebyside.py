import os

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
