"""Write a BENCH_<pr>.json benchmark record from two sets of perfbench records.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --output BENCH_<pr>.json \
        [--controls WORKLOAD ...]

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` files that
``perfbench/run.py`` writes to ``.perfbench_out/``: one checkout's runs of the
parent commit, the other's of the change, with the same seeds and settings.
Every untraced (workload, seed) must be present on both sides; each is one
pair. Per workload and end-to-end metric the output holds both sides' median
and quartiles (``numpy.percentile``, linear interpolation), every run, how
many pairs the change won or tied, the parent's interquartile range and the
median change; the unscaled ``wall_run_s`` and ``burst_s`` are compared the
same way. Traced records present on both sides are copied per seed. The
git shas are the ones the records carry (``null`` for a checkout without
``.git``); the environment must be the same on both sides.

Each workload's ``verdict`` is "shown" only when the host-scaled ``run_s`` and
the unscaled ``wall_run_s`` both agree on a gain: each is better in at least
9 pairs and 90% of them, and each median moves the better way by more than the
parent's interquartile range. Otherwise it is "not shown", and
``verdict_reasons`` names every condition that failed. Workloads named with
``--controls`` are ones the change does not touch: if a control shows a move
either way by the same rule, no workload's gain is shown.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
# the unscaled run time is kept beside the end-to-end metrics, as in BENCH_6.json, and
# so is the reference burst that scales run_s, so drift in the host-scale factor shows
UNSCALED = {"wall_run_s": "lower", "burst_s": "lower"}
# a gain is shown only when the scaled and the unscaled run time agree on it
VERDICT_METRICS = ("run_s", "wall_run_s")
VERDICT_MIN_WINS = 9
VERDICT_PAIR_SHARE = 0.9


class RecordError(Exception):
    """The two record sets cannot be paired."""


def load_records(directory) -> dict:
    """{(workload, seed, trace): record} for every record file in ``directory``."""
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        m = RECORD_NAME.fullmatch(path.name)
        if m:
            key = (m["workload"], int(m["seed"]), int(m["trace"]))
            records[key] = json.loads(path.read_text(encoding="utf-8"))
    if not records:
        raise RecordError(f"{directory}: no perfbench records")
    return records


def _quartiles(runs) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare_metric(parent_runs, change_runs, better: str) -> dict:
    """Medians, quartiles, pair wins and ties of one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    parent, change = _quartiles(parent_runs), _quartiles(change_runs)
    median_change = change["median"] - parent["median"]
    return {
        "parent": parent,
        "change": change,
        "change_better_pairs": sum(g > 0 for g in gains),
        "tied_pairs": sum(g == 0 for g in gains),
        "pairs": len(gains),
        "parent_iqr": parent["q3"] - parent["q1"],
        "median_change": median_change,
        "relative_median_change": median_change / parent["median"] if parent["median"] else None,
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def move_reasons(metrics: dict, directions: dict, towards: str = "better") -> list:
    """Why the pairs do not show a move ``towards`` "better" or "worse"; [] when they do.

    Both VERDICT_METRICS must move that way in at least VERDICT_MIN_WINS pairs
    and VERDICT_PAIR_SHARE of them, and each median by more than the parent's
    interquartile range.
    """
    reasons, gains = [], {}
    for name in VERDICT_METRICS:
        m = metrics.get(name)
        if m is None:
            reasons.append(f"{name}: not in the records")
            continue
        moved = m["change_better_pairs"]
        if towards == "worse":
            moved = m["pairs"] - moved - m["tied_pairs"]
        needed = max(VERDICT_MIN_WINS, math.ceil(VERDICT_PAIR_SHARE * m["pairs"]))
        if moved < needed:
            reasons.append(f"{name}: {towards} in {moved}/{m['pairs']} pairs, {needed} needed")
        sign = -1.0 if directions[name] == "lower" else 1.0
        gains[name] = sign * m["median_change"] * (1.0 if towards == "better" else -1.0)
        if gains[name] <= m["parent_iqr"]:
            reasons.append(
                f"{name}: median moved {m['median_change']:+.4g}, "
                f"not {towards} by more than the parent IQR {m['parent_iqr']:.4g}"
            )
    if len(gains) == 2 and (gains["run_s"] > 0) != (gains["wall_run_s"] > 0):
        reasons.append(
            "run_s and wall_run_s medians move opposite ways "
            f"({metrics['run_s']['median_change']:+.4g}, "
            f"{metrics['wall_run_s']['median_change']:+.4g})"
        )
    return reasons


def _accuracy_by_sub_seed(record) -> dict:
    return {row["seed"]: row["accuracy"] for row in record["rows"] if "error" not in row}


def _one(values, what: str):
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    if len(distinct) != 1:
        raise RecordError(f"records disagree on {what}: {sorted(distinct)}")
    return values[0]


def build_record(parent: dict, change: dict, directions: dict, controls=()) -> dict:
    """The BENCH_<pr>.json object for two {(workload, seed, trace): record} maps.

    ``controls`` names workloads the change does not touch (see the module docstring).
    """
    untraced = sorted({key for key in parent | change if key[2] == 0})
    unpaired = [key for key in untraced if key not in parent or key not in change]
    if unpaired:
        raise RecordError(f"untraced records without a pair (workload, seed, trace): {unpaired}")
    if not untraced:
        raise RecordError("no untraced records to compare")
    both = [side[key] for key in untraced for side in (parent, change)]
    seconds = _one([r["seconds"] for r in both], "--seconds")
    environment = _one(
        [{k: v for k, v in r["environment"].items() if k != "git_sha"} for r in both],
        "the environment",
    )
    workloads = {}
    for name in dict.fromkeys(key[0] for key in untraced):
        seeds = [seed for w, seed, _ in untraced if w == name]
        pairs = [(parent[(name, s, 0)], change[(name, s, 0)]) for s in seeds]
        metrics = {}
        for metric, better in directions.items():
            table = "unscaled" if metric in UNSCALED else "metrics"
            if all(metric in r[table] for pair in pairs for r in pair):
                metrics[metric] = compare_metric(
                    [p[table][metric] for p, _ in pairs],
                    [c[table][metric] for _, c in pairs],
                    better,
                )
        identical = True
        for p, c in pairs:
            pa, ca = _accuracy_by_sub_seed(p), _accuracy_by_sub_seed(c)
            identical &= all(pa[s] == ca[s] for s in pa.keys() & ca.keys())
        traced = {}
        for w, seed, trace in sorted(parent.keys() & change.keys()):
            if w == name and trace == 1:
                key = (w, seed, trace)
                traced[f"seed{seed}"] = {
                    "parent": parent[key]["metrics"], "change": change[key]["metrics"]
                }
        reasons = move_reasons(metrics, directions)
        workloads[name] = {
            "seeds": seeds,
            "verdict": "not shown" if reasons else "shown",
            "verdict_reasons": reasons,
            "metrics": metrics,
            "test_accuracy_identical_per_sub_seed": identical,
            "failed_runs": {
                side: sum("error" in row for pair in pairs for row in pair[i]["rows"])
                for i, side in enumerate(("parent", "change"))
            },
            "traced": traced,
        }
    unknown = [name for name in controls if name not in workloads]
    if unknown:
        raise RecordError(f"controls without records: {unknown}")
    for control in controls:
        for towards in ("better", "worse"):
            if not move_reasons(workloads[control]["metrics"], directions, towards):
                for workload in workloads.values():
                    workload["verdict"] = "not shown"
                    workload["verdict_reasons"].append(f"control {control} moved {towards}")
    all_seeds = sorted({seed for _, seed, _ in untraced})
    return {
        "benchmark": {
            "command": "python3 perfbench/run.py --workload <w> --seed <s> "
            f"--seconds {seconds} --trace 0",
            "pairs": f"seeds {', '.join(map(str, all_seeds))}; one parent and one change "
            "run per workload and seed",
            "quartiles": "numpy.percentile, linear interpolation",
        },
        "controls": list(controls),
        "workloads": workloads,
        **{
            f"{side}_sha": _one(
                [records[key]["environment"].get("git_sha") for key in untraced], f"the {side} sha"
            )
            for side, records in (("parent", parent), ("change", change))
        },
        "environment": environment,
    }


def metric_directions() -> dict:
    """{metric: "lower" | "higher"}: BENCHMARK.json's end-to-end metrics, then the unscaled."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]} | UNSCALED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--output", required=True)
    parser.add_argument(
        "--controls", nargs="*", default=[], metavar="WORKLOAD",
        help="workloads the change does not touch; a move in any of them shows no gain",
    )
    args = parser.parse_args(argv)
    try:
        record = build_record(
            load_records(args.parent_dir), load_records(args.change_dir), metric_directions(),
            args.controls,
        )
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, workload in record["workloads"].items():
        for metric, m in workload["metrics"].items():
            print(
                f"{name:11s} {metric:14s} {m['parent']['median']:.4g} -> "
                f"{m['change']['median']:.4g}  better in {m['change_better_pairs']}/{m['pairs']}"
            )
        reasons = workload["verdict_reasons"]
        print(f"{name:11s} verdict: {workload['verdict']}", *reasons, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
