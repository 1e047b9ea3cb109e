"""Independent trials run side by side, on forked processes.

``run_side_by_side(trial, values)`` runs on up to one process per CPU this
process may use: forked children take fixed positions of ``values`` and send
their results back over a pipe. It returns ``[trial(v) for v in values]``,
or raises what that loop would raise, when each trial's result depends only
on its value and on state that existed before the call: when a trial draws
from its own seeded generators, reads no file and nothing another trial
wrote, and makes the same numpy calls on the same arrays in whichever
process runs it. So the number of processes cannot change a result: a run
on eight CPUs gives the same results, and writes the same bytes, as a run on
one. The pipeline's grid trials and the planted-topic benchmark's two arms
are such trials.
"""

from __future__ import annotations

import os
import pickle


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _move_to_cpu(index: int) -> None:
    """Move this process to the index-th CPU it may use, then let it migrate again.

    A scheduler may keep a forked child on its parent's CPU while another CPU
    idles: on a 2-vCPU Linux VM the two processes then shared one CPU, and
    each trial took twice its CPU time. Narrowing the affinity to one CPU moves
    the process at once; restoring it leaves the scheduler free to move it later.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
    os.sched_setaffinity(0, allowed)


def _outcomes(trial, values) -> list:
    """``(True, trial(value))`` for each value in order, up to and including the
    first ``(False, exception)``."""
    outcomes = []
    for value in values:
        try:
            outcomes.append((True, trial(value)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _sendable(outcomes) -> bytes:
    """``outcomes`` pickled, or, if they would not read back, a pickled ``"type: message"``.

    The message names the trial's exception when one was raised, since that is
    what a serial run would raise; otherwise the error that stopped the pickling.
    An exception whose ``__init__`` needs more arguments than it passes on to
    ``Exception`` pickles but does not unpickle, so the bytes are read back here.
    """
    try:
        data = pickle.dumps(outcomes)
        pickle.loads(data)
        return data
    except Exception as exc:
        ok, result = outcomes[-1]
        cause = exc if ok else result
        return pickle.dumps(f"{type(cause).__name__}: {cause}")


def _run_child(w, trial, values, write_fd) -> None:
    """Body of forked child w: send ``_outcomes(trial, values)`` pickled, then exit.

    It leaves through os._exit and never returns into the caller's stack, where
    ``finally`` blocks (a temporary directory's clean-up, say) would run again.
    """
    status = 1
    try:
        _move_to_cpu(w)
        with open(write_fd, "wb") as pipe:
            pipe.write(_sendable(_outcomes(trial, values)))
        status = 0
    finally:
        os._exit(status)


def run_side_by_side(trial, values) -> list:
    """``[trial(v) for v in values]``, computed by min(len(values), usable CPUs) processes.

    Forked child w runs positions w, w + n, ... and this process runs 0, n, ...,
    each starting on its own CPU. The split is fixed, so each process does the
    same share on every run. A child's outcomes come back over a pipe that is
    read to EOF before the child is reaped. Once every child is reaped, the
    exception of the first failing value, in value order, is raised: the one a
    serial loop would raise. A child that ends without a result, or whose
    outcomes cannot be pickled and read back, raises ``RuntimeError`` naming
    its process. No child outlives the call: on any exception, a
    KeyboardInterrupt included, the children left are killed and reaped.
    Forking is safe only if every library that started a thread here handles
    fork: the package starts none, and the OpenBLAS in numpy's wheels stops
    its thread pool around fork.
    """
    n = min(len(values), _usable_cpus())
    pids, pipes = [], []
    try:
        if n > 1:
            _move_to_cpu(0)
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(w, trial, values[w::n], write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        shares = [_outcomes(trial, values[::n])]
        for pid, pipe in zip(list(pids), pipes):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"process {pid} ended without a result (exit code {code})")
            share = pickle.loads(data)
            if isinstance(share, str):
                raise RuntimeError(f"process {pid} could not send its result: {share}")
            shares.append(share)
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal  # only this clean-up path needs it

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = []
    for position in range(len(values)):
        # a process stops at its first failure, so its later positions are never reached
        ok, result = shares[position % n][position // n]
        if not ok:
            raise result
        results.append(result)
    return results
