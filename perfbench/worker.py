"""Child process of the benchmark: generate one workload's inputs, or measure it.

    worker.py setup   <workload> <seed> <work-dir>
    worker.py measure <workload> <work-dir> <seconds> <trace 0|1>

``setup`` is timed from outside by run.py (interpreter start, ``import
semexpand``, generating and writing the inputs). ``measure`` runs complete
experiments on those inputs and prints one JSON object as its last line; its
``ru_maxrss`` after the first experiment is the peak memory of a process that
ran one experiment of this workload and nothing else.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import semexpand  # noqa: E402
import hostref  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# Time metrics: (metric, span whose non-nested durations it sums).
SPAN_METRICS = [
    ("corpus.s", "corpus.call"),
    ("embedding.train_s", "embedding.train"),
    ("embedding.io_s", "embedding.io"),
    ("clustering.dendrogram_s", "clustering.dendrogram"),
    ("clustering.cut_s", "clustering.cut"),
    ("clustering.io_s", "clustering.io"),
    ("expansion.expand_s", "expansion.expand"),
    ("expansion.embed_s", "expansion.embed"),
    ("nn.train_s", "nn.train"),
    ("nn.step_s", "nn.step"),
    ("nn.update_s", "nn.update"),
    ("nn.eval_s", "nn.eval"),
    ("nn.io_s", "nn.io"),
    ("synthetic.generate_s", "synthetic.generate"),
]
COUNTS = [
    "corpus.tokens",
    "embedding.pairs",
    "clustering.leaves",
    "clustering.cuts",
    "expansion.examples",
    "nn.steps",
    "nn.train_examples",
    "pipeline.grid_trials",
]
RATES = [
    ("corpus.tokens_per_s", "corpus.tokens", "corpus.s"),
    ("embedding.pairs_per_s", "embedding.pairs", "embedding.train_s"),
    ("expansion.examples_per_s", "expansion.examples", "expansion.embed_s"),
    ("nn.train_examples_per_s", "nn.train_examples", "nn.train_s"),
]
SHARE_LAYERS = ("pipeline",) + layertrace.LAYERS


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "semexpand": semexpand.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def one_run(exp, seed: int, tracer=None, sampler=None) -> dict:
    """One complete experiment in a fresh output directory, then its output check.

    With a ``hostref.Sampler``, ``run_s`` excludes the time of its bursts and
    ``scaled_run_s`` is ``run_s`` scaled to the reference host.
    """
    gc.collect()
    row = {"seed": seed, "traced": tracer is not None}
    with tempfile.TemporaryDirectory(dir=exp.work) as out_dir:
        out = Path(out_dir)
        patches = layertrace.Patches()
        dendrograms: list = []
        try:
            layertrace.capture_dendrograms(patches, dendrograms)
            if tracer is not None:
                tracer.install(patches)
                root = tracer.open(layertrace.ROOT_SPAN)
            start = time.perf_counter()
            try:
                with sampler or contextlib.nullcontext():
                    result = exp.run(seed, out)
            finally:
                row["run_s"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(root)
                    row["run_s"] = tracer.spans[root][2] - tracer.spans[root][1]
                patches.restore()
            if sampler is not None:
                row["run_s"] -= sum(sampler.bursts)
                row["bursts"] = len(sampler.bursts)
                row["burst_s"] = statistics.median(sampler.bursts)
                row["scaled_run_s"] = row["run_s"] * hostref.NOMINAL_S / row["burst_s"]
            row["accuracy"] = exp.check(result, out, dendrograms[-1] if dendrograms else None)
            row["grid_trials"] = len(getattr(result, "grid", ()))
        except Exception as exc:  # a failed run is counted, not fatal
            row["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    return row


def _check_repeat(row: dict, accuracy_by_seed: dict) -> None:
    """A repeated sub-seed must reproduce its accuracy exactly."""
    if "error" in row:
        return
    first = accuracy_by_seed.setdefault(row["seed"], row["accuracy"])
    if first != row["accuracy"]:
        row["error"] = f"seed {row['seed']} gave accuracy {row['accuracy']!r}, earlier {first!r}"


def measure(exp, seconds: float) -> dict:
    """Untraced runs cycling over the accuracy sub-seeds until ``seconds`` is used.

    ``run_s`` is the median of the runs' times scaled to the reference host
    by the sampler's bursts inside them (``hostref.py``).
    """
    distinct = workloads.ACCURACY_SEEDS[exp.name]
    rows: list = []
    accuracy_by_seed: dict = {}
    sampler = hostref.Sampler()
    start = time.perf_counter()
    while True:
        times = [r["run_s"] for r in rows if "error" not in r]
        elapsed = time.perf_counter() - start
        if len(rows) >= distinct and (not times or elapsed + statistics.median(times) > seconds):
            break
        row = one_run(exp, workloads.sub_seed(exp.seed, len(rows) % distinct), sampler=sampler)
        _check_repeat(row, accuracy_by_seed)
        rows.append(row)
        if len(rows) == 1:
            # What a user's one-experiment process peaks at; later runs in the
            # same process add heap fragmentation that differs by seed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good = [r for r in rows if "error" not in r]
    if not good:
        return {"rows": rows, "metrics": {}}
    return {
        "rows": rows,
        "metrics": {
            "run_s": statistics.median(r["scaled_run_s"] for r in good),
            "peak_rss_mb": peak_rss_mb,
            "test_accuracy": statistics.fmean(accuracy_by_seed.values()),
        },
        "unscaled": {
            "wall_run_s": statistics.median(r["run_s"] for r in good),
            "burst_s": statistics.median(r["burst_s"] for r in good),
        },
    }


def measure_traced(exp, seconds: float) -> dict:
    """Pairs of an untraced and a traced run of the first sub-seed.

    The per-layer figures are those of the median traced run; counts must
    repeat exactly across traced runs.
    """
    seed = workloads.sub_seed(exp.seed, 0)
    rows: list = []
    traced: list = []
    accuracy_by_seed: dict = {}
    start = time.perf_counter()
    while True:
        pair_times = [a["run_s"] + b["run_s"] for a, b in zip(rows[::2], rows[1::2])]
        elapsed = time.perf_counter() - start
        if pair_times and elapsed + statistics.median(pair_times) > seconds:
            break
        for tracer in (None, layertrace.Tracer()):
            row = one_run(exp, seed, tracer)
            _check_repeat(row, accuracy_by_seed)
            if tracer is not None and "error" not in row:
                tracer.finish(workloads.skipgram_pairs)
                row["layer"] = layer_metrics(tracer, row)
                _check_layers(row, traced)
                traced.append((row, tracer))
            rows.append(row)
        if any("error" in r for r in rows[-2:]):
            break
    good_traced = sorted(
        ((row, tracer) for row, tracer in traced if "error" not in row), key=lambda t: t[0]["run_s"]
    )
    good_plain = [r["run_s"] for r in rows if not r["traced"] and "error" not in r]
    metrics, spans = {}, []
    if good_traced and good_plain:
        # The (lower) median traced run, whole, so its layer times add up.
        row, tracer = good_traced[(len(good_traced) - 1) // 2]
        metrics, spans = dict(row["layer"]), tracer.spans
        for name, count, seconds_name in RATES:
            metrics[name] = metrics[count] / metrics[seconds_name] if metrics[seconds_name] else 0.0
        metrics["trace.untraced_run_s"] = statistics.median(good_plain)
        metrics["trace.overhead"] = metrics["trace.run_s"] / metrics["trace.untraced_run_s"] - 1.0
    for row in rows:
        row.pop("layer", None)
    seen = {s[0] for s in spans}
    absent = {
        metric: "makes no call to "
        + ", ".join(sorted({attr for _, attr, name in layertrace.TRACED_CALLS if name == span}))
        for metric, span in SPAN_METRICS
        if span not in seen
    }
    if metrics and not metrics["pipeline.grid_trials"]:
        absent["pipeline.grid_trials"] = "runs no k grid (it clusters at one fixed k)"
    return {"rows": rows, "metrics": metrics, "spans": spans, "not_applicable": absent}


def layer_metrics(tracer, row: dict) -> dict:
    run_s = row["run_s"]
    values = {name: tracer.inclusive(span) for name, span in SPAN_METRICS}
    counts = dict(tracer.counts)
    counts["pipeline.grid_trials"] = row["grid_trials"]
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["clustering.peak_alloc_mb"] = tracer.peak_alloc / 2**20
    self_times = tracer.self_times()
    values["pipeline.self_s"] = self_times.get("pipeline", 0.0)
    for layer in SHARE_LAYERS:
        values[f"{layer}.share"] = self_times.get(layer, 0.0) / run_s
    values["trace.run_s"] = run_s
    return values


def _check_layers(row: dict, earlier: list) -> None:
    """Layer self times must add up to the run; counts must repeat exactly."""
    layer = row["layer"]
    covered = sum(layer[f"{name}.share"] for name in SHARE_LAYERS)
    if abs(covered - 1.0) > 1e-9:
        row["error"] = f"layer shares sum to {covered!r}, not 1"
    for other, _ in earlier:
        if "error" in other:
            continue
        changed = [n for n in COUNTS if other["layer"][n] != layer[n]]
        if changed:
            row["error"] = f"counts {changed} differ between traced runs of one seed"


def main(argv) -> int:
    command, name = argv[0], argv[1]
    if command == "setup":
        workloads.write_inputs(name, int(argv[2]), Path(argv[3]))
        return 0
    work, seconds, traced = Path(argv[2]), float(argv[3]), argv[4] == "1"
    exp = workloads.Experiment(name, work)
    result = measure_traced(exp, seconds) if traced else measure(exp, seconds)
    result["sizes"] = exp.sizes()
    result["environment"] = environment()
    if traced and result["metrics"] and result["sizes"]["pairs"] != result["metrics"]["embedding.pairs"]:
        result["rows"][-1]["error"] = "traced embedding.pairs disagrees with the input size"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
