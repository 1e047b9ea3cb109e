"""The semexpand benchmark: whole experiments, timed from outside the program.

    python3 perfbench/run.py --workload toy|planted|wide-vocab|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it). Each workload's inputs
are generated from ``--seed``; ``BENCHMARK.json`` says why each workload
exists. With ``--trace 0`` it prints the end-to-end metrics

    run_s          s         median wall time of one complete experiment
    setup_s        s         median of several timed set-ups: interpreter
                             start, ``import semexpand``, writing the inputs
    peak_rss_mb    MiB       ru_maxrss of the process after its first experiment
    test_accuracy  fraction  held-out accuracy, averaged over fixed sub-seeds

``run_s`` is scaled to a host of fixed speed by a reference load sampled
during each experiment (``hostref.py``), and ``setup_s`` by a reference child
timed next to each set-up; the unscaled medians are printed and recorded too.
With ``--trace 1`` it prints the per-layer metrics of a
separate traced run (see ``layertrace.py``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, with the environment, the input sizes, every run and (traced) the
spans, is written to ``.perfbench_out/``. All load runs in one process at a
time, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
SETUP_REPEATS = 8
# Set-up time is scaled like run_s, by a reference timed next to each set-up:
# a child that starts the interpreter and imports numpy, the bulk of a set-up
# without the program. It tracks the host's phases for short new processes,
# which the in-process bursts of hostref.py do not.
SETUP_REFERENCE = ("-c", "import numpy")
SETUP_NOMINAL_S = 0.2
MEASURE_TIMEOUT_S = 150


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def _git_sha():
    """HEAD of the checkout, read from .git directly; None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args, env, timeout) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        env = _child_env(work)
        inputs = work / "inputs"
        # The first set-up also writes bytecode caches; it is not timed.
        _worker(["setup", name, seed, inputs], env, 60)
        setups, references = [], []

        def timed_setups(count):
            for _ in range(0 if traced else count):
                start = time.perf_counter()
                subprocess.run([sys.executable, *SETUP_REFERENCE], env=env, timeout=60, check=True)
                references.append(time.perf_counter() - start)
                start = time.perf_counter()
                _worker(["setup", name, seed, inputs], env, 60)
                setups.append(time.perf_counter() - start)

        # Set-up time drifts in phases of seconds, so half the set-ups are
        # timed before the measurement and half after it.
        timed_setups(SETUP_REPEATS // 2)
        child = _worker(["measure", name, inputs, seconds, int(traced)], env, MEASURE_TIMEOUT_S)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        timed_setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setups and result["metrics"]:
        wall_s, reference_s = statistics.median(setups), statistics.median(references)
        result["metrics"]["setup_s"] = wall_s * SETUP_NOMINAL_S / reference_s
        result["unscaled"].update(wall_setup_s=wall_s, setup_reference_s=reference_s)
        result["setup_runs_s"] = setups
        result["setup_references_s"] = references
    result["environment"]["git_sha"] = _git_sha()
    result.update(workload=name, why=WHY[name], seed=seed, seconds=seconds, trace=int(traced))
    return result


def summary(result: dict, units: dict) -> dict:
    rows = result["rows"]
    failed = sum("error" in r for r in rows)
    metrics = result["metrics"]
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(rows),
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": unit} for n, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semexpand" / "__init__.py").is_file():
        print(f"error: no semexpand source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    lines = {}
    for name in WHY if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
            print(f"error: workload {name} did not produce a result: {exc}", file=sys.stderr)
            return 1
        line = summary(result, units)
        record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({**result, "summary": line}, indent=1) + "\n", encoding="utf-8")
        print_result(result, line, record)
        lines[name] = line
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{n}": m for w, l in lines.items() for n, m in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def print_result(result: dict, line: dict, record: Path) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"   why: {result['why']}")
    print("   environment: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("   inputs: " + "  ".join(f"{k} {v}" for k, v in result["sizes"].items()))
    for row in result["rows"]:
        if "error" in row:
            print(f"   FAILED run (seed {row['seed']}): {row['error']}")
    for name, m in line["metrics"].items():
        print(f"   {name:28s} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.get("unscaled", {}).items():
        print(f"   {name:28s} {value:>14.6g} s (as measured, not scaled to the reference host)")
    for name, reason in result.get("not_applicable", {}).items():
        print(f"   {name}: not applicable, this workload {reason}")
    print(f"   attempted {line['attempted']}  failed {line['failed']}  record {record.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
