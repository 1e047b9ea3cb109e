"""scripts/bench_record.py on small fabricated perfbench record directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(
    directory, workload, seed, run_s, trace=0, sha=None, accuracy=0.9, burst_s=0.001,
    wall_run_s=None, **extra
):
    rows = [{"seed": 1000 * seed + i, "accuracy": accuracy + i / 100} for i in range(2)]
    wall_run_s = run_s - 0.5 if wall_run_s is None else wall_run_s
    record = {
        "seconds": 30,
        "environment": {**ENVIRONMENT, "git_sha": sha},
        "metrics": {"run_s": run_s, "peak_rss_mb": 40.0, "test_accuracy": accuracy},
        "unscaled": {"wall_run_s": wall_run_s, "burst_s": burst_s},
        "rows": rows,
        **extra,
    }
    directory.mkdir(exist_ok=True)
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


@pytest.fixture()
def dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = [(4.0, 3.0), (5.0, 3.5), (4.5, 4.5), (4.2, 4.4)]
    bursts = [(0.0010, 0.0011), (0.0009, 0.0010), (0.0010, 0.0012), (0.0011, 0.0010)]
    for seed, ((before, after), (burst_before, burst_after)) in enumerate(zip(runs, bursts), 1):
        write_record(parent, "toy", seed, before, sha="aaa", burst_s=burst_before)
        write_record(change, "toy", seed, after, burst_s=burst_after)
    write_record(parent, "planted", 1, 2.0, sha="aaa")
    write_record(change, "planted", 1, 1.0, accuracy=0.8)
    write_record(parent, "toy", 1, 0.0, trace=1, metrics={"embedding.train_s": 2.5})
    write_record(change, "toy", 1, 0.0, trace=1, metrics={"embedding.train_s": 1.5})
    write_record(change, "toy", 2, 0.0, trace=1, metrics={"embedding.train_s": 1.4})
    return parent, change


def test_writes_medians_quartiles_runs_and_pairs(bench_record, dirs, tmp_path, capsys):
    output = tmp_path / "BENCH.json"
    assert bench_record.main([*map(str, dirs), "--output", str(output)]) == 0
    record = json.loads(output.read_text(encoding="utf-8"))
    assert record["parent_sha"] == "aaa" and record["change_sha"] is None
    assert record["environment"] == ENVIRONMENT
    assert "--seconds 30 --trace 0" in record["benchmark"]["command"]

    toy = record["workloads"]["toy"]
    assert toy["seeds"] == [1, 2, 3, 4]
    run_s = toy["metrics"]["run_s"]
    assert run_s["parent_runs"] == [4.0, 5.0, 4.5, 4.2]
    assert run_s["change_runs"] == [3.0, 3.5, 4.5, 4.4]
    q1, median, q3 = np.percentile([4.0, 5.0, 4.5, 4.2], [25, 50, 75])
    assert run_s["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert run_s["parent_iqr"] == pytest.approx(q3 - q1)
    assert run_s["change"]["median"] == pytest.approx(3.95)
    assert run_s["median_change"] == pytest.approx(3.95 - median)
    # lower is better for run_s: two wins, one tie, one loss
    assert (run_s["change_better_pairs"], run_s["tied_pairs"], run_s["pairs"]) == (2, 1, 4)
    assert toy["metrics"]["wall_run_s"]["parent_runs"] == [3.5, 4.5, 4.0, 3.7]
    # the reference burst that scales run_s, one median per side
    burst_s = toy["metrics"]["burst_s"]
    assert burst_s["parent"]["median"] == pytest.approx(0.0010)
    assert burst_s["change"]["median"] == pytest.approx(0.00105)
    assert burst_s["change_better_pairs"] == 1
    assert toy["metrics"]["test_accuracy"]["tied_pairs"] == 4
    assert "setup_s" not in toy["metrics"]  # absent from the records
    assert toy["test_accuracy_identical_per_sub_seed"] is True
    assert toy["failed_runs"] == {"parent": 0, "change": 0}
    # four pairs cannot show a gain, however they fall
    assert toy["verdict"] == "not shown"
    assert "run_s: better in 2/4 pairs, 9 needed" in toy["verdict_reasons"]
    assert record["controls"] == []
    # only seed 1 was traced on both sides
    assert toy["traced"] == {
        "seed1": {"parent": {"embedding.train_s": 2.5}, "change": {"embedding.train_s": 1.5}}
    }

    planted = record["workloads"]["planted"]
    assert planted["test_accuracy_identical_per_sub_seed"] is False
    # higher is better for test_accuracy
    assert planted["metrics"]["test_accuracy"]["change_better_pairs"] == 0
    assert "toy" in capsys.readouterr().out


def test_failed_rows_are_counted(bench_record, dirs):
    parent, change = dirs
    write_record(change, "planted", 1, 1.0, rows=[{"seed": 1000, "error": "boom"}])
    record = bench_record.build_record(
        bench_record.load_records(parent), bench_record.load_records(change),
        bench_record.metric_directions(),
    )
    assert record["workloads"]["planted"]["failed_runs"] == {"parent": 0, "change": 1}


@pytest.mark.parametrize("fault", ["unpaired", "environment", "seconds", "empty"])
def test_records_that_cannot_be_paired_are_refused(bench_record, dirs, tmp_path, fault, capsys):
    parent, change = dirs
    if fault == "unpaired":
        write_record(parent, "toy", 9, 4.0, sha="aaa")
        expected = "without a pair"
    elif fault == "environment":
        write_record(change, "toy", 2, 3.5, environment={**ENVIRONMENT, "numpy": "1.24.4"})
        expected = "environment"
    elif fault == "seconds":
        write_record(change, "toy", 2, 3.5, seconds=10)
        expected = "--seconds"
    else:
        change = tmp_path / "nothing"
        change.mkdir()
        expected = "no perfbench records"
    output = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--output", str(output)]) == 1
    assert expected in capsys.readouterr().err
    assert not output.exists()


PARENT_RUNS = [2.40, 2.45, 2.50, 2.38, 2.55, 2.42, 2.47, 2.52, 2.44, 2.49]


def write_pairs(parent, change, workload, change_run_s, change_wall_s=None):
    """Ten pairs; the wall times default to the scaled ones, minus 1.4 s."""
    change_wall_s = change_wall_s or [r - 1.4 for r in change_run_s]
    for seed, (before, after, wall) in enumerate(zip(PARENT_RUNS, change_run_s, change_wall_s), 1):
        write_record(parent, workload, seed, before, wall_run_s=before - 1.4)
        write_record(change, workload, seed, after, wall_run_s=wall)


def verdicts(bench_record, parent, change, controls=()):
    record = bench_record.build_record(
        bench_record.load_records(parent), bench_record.load_records(change),
        bench_record.metric_directions(), controls,
    )
    return {name: (w["verdict"], w["verdict_reasons"]) for name, w in record["workloads"].items()}


FASTER = [r - 0.3 for r in PARENT_RUNS]


def test_verdict_is_shown_when_scaled_and_wall_times_agree(bench_record, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_pairs(parent, change, "wide-vocab", FASTER)
    assert verdicts(bench_record, parent, change) == {"wide-vocab": ("shown", [])}


def test_nine_of_ten_pairs_suffice_and_eight_do_not(bench_record, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    one_loss = FASTER[:9] + [PARENT_RUNS[9] + 0.01]
    write_pairs(parent, change, "wide-vocab", one_loss)
    assert verdicts(bench_record, parent, change)["wide-vocab"] == ("shown", [])
    two_losses = FASTER[:8] + [r + 0.01 for r in PARENT_RUNS[8:]]
    write_pairs(parent, change, "wide-vocab", two_losses)
    verdict, reasons = verdicts(bench_record, parent, change)["wide-vocab"]
    assert verdict == "not shown"
    assert reasons == [
        "run_s: better in 8/10 pairs, 9 needed",
        "wall_run_s: better in 8/10 pairs, 9 needed",
    ]


def test_scaled_gain_that_wall_time_does_not_share_is_not_shown(bench_record, tmp_path):
    # the scaled run_s wins every pair while the wall time rises in six of them
    parent, change = tmp_path / "parent", tmp_path / "change"
    wall = [r - 1.4 + (0.02 if i < 6 else -0.02) for i, r in enumerate(PARENT_RUNS)]
    write_pairs(parent, change, "wide-vocab", [r - 0.07 for r in PARENT_RUNS], wall)
    verdict, reasons = verdicts(bench_record, parent, change)["wide-vocab"]
    assert verdict == "not shown"
    assert "wall_run_s: better in 4/10 pairs, 9 needed" in reasons
    assert any(r.startswith("run_s and wall_run_s medians move opposite ways") for r in reasons)
    assert not any(r.startswith("run_s: better") for r in reasons)


def test_wall_gain_that_scaled_time_does_not_share_is_not_shown(bench_record, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_pairs(parent, change, "wide-vocab", PARENT_RUNS, [r - 1.7 for r in PARENT_RUNS])
    verdict, reasons = verdicts(bench_record, parent, change)["wide-vocab"]
    assert verdict == "not shown"
    assert "run_s: better in 0/10 pairs, 9 needed" in reasons
    assert not any(r.startswith("wall_run_s") for r in reasons)


def test_gain_inside_the_parent_iqr_is_not_shown(bench_record, tmp_path):
    # every pair wins, but by 0.01 s against a parent IQR of about 0.07 s
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_pairs(parent, change, "wide-vocab", [r - 0.01 for r in PARENT_RUNS])
    verdict, reasons = verdicts(bench_record, parent, change)["wide-vocab"]
    assert verdict == "not shown"
    assert [r.split(":")[0] for r in reasons] == ["run_s", "wall_run_s"]
    assert all("parent IQR" in r for r in reasons)


@pytest.mark.parametrize(
    "towards, control_runs", [("better", FASTER), ("worse", [r + 0.3 for r in PARENT_RUNS])]
)
def test_a_control_that_moves_shows_no_gain(bench_record, tmp_path, towards, control_runs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_pairs(parent, change, "wide-vocab", FASTER)
    write_pairs(parent, change, "toy", PARENT_RUNS)
    write_pairs(parent, change, "planted", control_runs)
    result = verdicts(bench_record, parent, change, controls=["toy", "planted"])
    assert result["wide-vocab"] == ("not shown", [f"control planted moved {towards}"])
    assert result["toy"][0] == "not shown"
    # without controls, wide-vocab's gain stands on its own pairs
    assert verdicts(bench_record, parent, change)["wide-vocab"] == ("shown", [])


def test_controls_that_stay_put_leave_the_gain_shown(bench_record, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_pairs(parent, change, "wide-vocab", FASTER)
    write_pairs(parent, change, "toy", PARENT_RUNS[5:] + PARENT_RUNS[:5])
    output = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--output", str(output), "--controls", "toy"]
    assert bench_record.main(argv) == 0
    record = json.loads(output.read_text(encoding="utf-8"))
    assert record["controls"] == ["toy"]
    assert record["workloads"]["wide-vocab"]["verdict"] == "shown"
    assert record["workloads"]["toy"]["verdict"] == "not shown"
    assert "wide-vocab  verdict: shown" in capsys.readouterr().out


def test_unknown_control_is_refused(bench_record, dirs, tmp_path, capsys):
    output = tmp_path / "BENCH.json"
    argv = [*map(str, dirs), "--output", str(output), "--controls", "wide-vocab"]
    assert bench_record.main(argv) == 1
    assert "controls without records" in capsys.readouterr().err
