"""scripts/bench_pairs.py keeps one environment line per BENCH file, so it
must refuse runs whose core or BLAS thread counts differ; its summary counts
the pairs in which the change is better, by each metric's direction."""

import importlib.util
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KEPT = {"nproc": 2, "blas_threads": 1, "python": "3.11.7", "note": "shared machine"}


def test_same_counts_pass(bench_pairs):
    # fields other than the counts may differ; a run with no environment line
    # is reported as a failed run instead
    run = {**KEPT, "workload": "desk", "seed": 5, "python": "3.12.0"}
    assert bench_pairs.environment_problem(KEPT, run) is None
    assert bench_pairs.environment_problem(KEPT, None) is None


@pytest.mark.parametrize("field,value", [("nproc", 1), ("nproc", 4), ("blas_threads", 2)])
def test_a_different_count_is_a_problem(bench_pairs, field, value):
    problem = bench_pairs.environment_problem(KEPT, {**KEPT, field: value})
    assert problem is not None and field in problem and repr(value) in problem


def test_a_missing_count_is_a_problem(bench_pairs):
    run = {k: v for k, v in KEPT.items() if k != "nproc"}
    assert "nproc" in bench_pairs.environment_problem(KEPT, run)


@pytest.mark.parametrize("nprocs,code", [((2, 2), 0), ((2, 1), 1)])
def test_main_exits_one_on_mixed_runs(bench_pairs, monkeypatch, tmp_path, capsys, nprocs, code):
    # no git archive and no benchmark runs: each run reports the next core count
    counts = iter(nprocs * 3)
    result = {"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args: ({**KEPT, "nproc": next(counts)}, result, None))
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: types.SimpleNamespace(stdout=b""))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--seeds", "7", "--out", str(out)]) == code
    assert ("problem: " in capsys.readouterr().out) == bool(code)
    assert '"nproc": 2' in out.read_text(encoding="utf-8")  # the first run's line is kept


def _runs(metric, parent, change):
    """Synthetic pair runs of one desk metric, seed i holding parent[i] and change[i]."""
    return [{"side": side, "workload": "desk", "seed": seed,
             "result": {"metrics": {metric: {"value": value}}}}
            for side, values in (("parent", parent), ("change", change))
            for seed, value in enumerate(values)]


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


@pytest.mark.parametrize("better, change, counted, gain", [
    ("lower", [v - 1.0 for v in PARENT], "10/10", True),
    ("higher", [v + 1.0 for v in PARENT], "10/10", True),
    ("higher", [v - 1.0 for v in PARENT], "0/10", False),
    # nine wins and a tie: enough pairs, but the medians sit within the parent's spread
    ("lower", [v - 0.01 for v in PARENT[:9]] + PARENT[9:], "9/10", False),
    # eight wins, however large: too few pairs
    ("lower", [v - 5.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]], "8/10", False),
    ("lower", PARENT, "0/10", False),  # ties count for neither side
], ids=["lower-gain", "higher-gain", "higher-loss", "within-spread", "eight-of-ten", "ties"])
def test_summary_counts_better_pairs(bench_pairs, better, change, counted, gain):
    line, = bench_pairs.summary(_runs("m", PARENT, change), {"m": better})
    assert f"change better {counted}" in line
    assert line.endswith("GAIN") == gain
