"""The summary of tools/bench_pairs.py on fixed numbers."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under tools/
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_higher_is_better(bench_pairs):
    change = [20.0, 11.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0]  # pair 2 ties
    s = bench_pairs.summarize(PARENT, change, "higher", 0.2)
    assert s["parent_median"] == 14.5
    assert s["change_median"] == 29.0
    # statistics.quantiles' exclusive method: positions 2.75 and 8.25
    assert s["parent_iqr"] == [11.75, 17.25]
    assert s["parent_iqr_width"] == 5.5
    assert s["median_difference"] == 14.5
    assert s["change_wins"] == 9
    assert s["relative_change"] == 1.0
    assert s["within_bound"] is True


@pytest.mark.parametrize("scale, within", [(1.25, True), (1.3, False)])
def test_lower_is_better_bound(bench_pairs, scale, within):
    s = bench_pairs.summarize(PARENT, [x * scale for x in PARENT], "lower", 0.25)
    assert s["change_wins"] == 0
    assert s["relative_change"] == pytest.approx(scale - 1.0)
    assert s["within_bound"] is within


def test_higher_is_better_bound(bench_pairs):
    assert bench_pairs.summarize(PARENT, [x * 0.85 for x in PARENT], "higher", 0.2)["within_bound"]
    assert not bench_pairs.summarize(PARENT, [x * 0.75 for x in PARENT], "higher", 0.2)["within_bound"]


def test_zero_parent(bench_pairs):
    assert bench_pairs.summarize([0.0, 0.0], [0.0, 0.0], "lower", 0.1)["relative_change"] == 0.0
    s = bench_pairs.summarize([0.0, 0.0], [1.0, 1.0], "lower", 0.1)
    assert s["relative_change"] == float("inf") and s["within_bound"] is False


def test_compare_reads_every_metric_in_order(bench_pairs):
    runs = {
        "parent": [{"metrics": {"a": p, "b": 1.0}} for p in PARENT],
        "change": [{"metrics": {"a": 2 * p, "b": 1.0}} for p in PARENT],
    }
    spec = [{"name": "b", "better": "higher", "bound": 0.01}, {"name": "a", "better": "lower", "bound": 0.25}]
    metrics = bench_pairs.compare(runs, spec)
    assert list(metrics) == ["b", "a"]
    assert metrics["b"]["change_wins"] == 0 and metrics["b"]["within_bound"]
    assert metrics["a"]["change_wins"] == 0 and not metrics["a"]["within_bound"]
    assert metrics["a"]["change_runs"] == [2 * p for p in PARENT]


def test_phase_seconds_by_name(bench_pairs):
    line = "setup and warm-up 1.4, timed 21.2, checks 10.1, memory pass 3.0"
    assert bench_pairs.phase_seconds(line) == {
        "setup and warm-up": 1.4, "timed": 21.2, "checks": 10.1, "memory pass": 3.0,
    }
    assert bench_pairs.phase_seconds("") == {}


def test_phase_medians_per_side(bench_pairs):
    runs = {
        "parent": [{"phases": f"setup and warm-up 1.0, timed {t}, checks {c}, traced pass 2.0"}
                   for t, c in ((20.5, 49.6), (21.0, 40.0), (23.0, 45.0))],
        "change": [{"phases": "setup and warm-up 1.0, timed 20.0, checks 10.4, memory pass 2.0"},
                   {"phases": ""},
                   {"phases": "setup and warm-up 1.0, timed 22.0, checks 10.8, memory pass 2.0"}],
    }
    assert bench_pairs.phase_medians(runs) == {
        "parent": {"timed": 21.0, "checks": 45.0},
        "change": {"timed": 21.0, "checks": 10.6},  # (10.4 + 10.8) / 2 is 10.600000000000001
    }
    assert bench_pairs.phase_medians({"parent": [{"phases": ""}], "change": []}) == {
        "parent": {"timed": None, "checks": None},
        "change": {"timed": None, "checks": None},
    }


def test_options_come_from_benchmark_json(bench_pairs):
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 20}
    args = bench_pairs.parse_args(["--base", "HEAD", "--workload", "w2", "--seed0", "7", "--out", "f"], spec)
    assert (args.base, args.workload, args.seed0, args.out) == ("HEAD", "w2", 7, "f")
    for extra in (["--workload", "table1"], ["--seconds", "5"], ["--pairs", "3"]):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--base", "HEAD", "--workload", "w1", "--seed0", "7", "--out", "f", *extra], spec)
    assert bench_pairs.PAIRS == 10
