"""scripts/bench_pairs.py keeps one environment line per BENCH file, so it
must refuse runs whose core or BLAS thread counts differ; it runs the change
from a snapshot of the working tree; its summary counts the pairs in which the
change is better, by each metric's direction, and marks end-to-end metrics
that regressed past their bound or spread too widely to tell."""

import importlib.util
import subprocess
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
    line, = bench_pairs.summary(_runs("m", PARENT, change), {"m": better}, {})
    assert f"change better {counted}" in line
    assert line.endswith("GAIN") == gain


# PARENT's quartiles are 9.975 and 10.2 about a median of 10.05: a spread of 2.2%.
@pytest.mark.parametrize("better, change, bound, mark", [
    ("lower", [v * 1.30 for v in PARENT], 0.25, "REGRESSED"),  # +30% against 25%
    ("lower", [v * 1.20 for v in PARENT], 0.25, ""),  # +20%: within the bound
    ("higher", [v * 0.70 for v in PARENT], 0.25, "REGRESSED"),  # -30% where higher is better
    ("higher", [v * 1.30 for v in PARENT], 0.25, ""),
    # a spread wider than the bound: unresolved, whichever way the median moves ...
    ("lower", [v * 1.01 for v in PARENT], 0.01, "UNRESOLVED"),
    ("lower", [v * 0.99 for v in PARENT], 0.01, "UNRESOLVED"),
    # ... unless every change run is better than every parent run
    ("lower", [v - 0.6 for v in PARENT], 0.01, ""),
    ("higher", [v + 0.6 for v in PARENT], 0.01, ""),
], ids=["regressed", "within-bound", "higher-regressed", "higher-better", "wide-worse",
        "wide-better", "wide-all-better", "higher-wide-all-better"])
def test_summary_marks_end_to_end_metrics_by_their_bound(bench_pairs, better, change, bound,
                                                         mark):
    line, = bench_pairs.summary(_runs("m", PARENT, change), {"m": better}, {"m": bound})
    assert ("REGRESSED" in line, "UNRESOLVED" in line) == (mark == "REGRESSED",
                                                           mark == "UNRESOLVED")
    assert bench_pairs.verdict(PARENT, change, better, bound) == mark


def test_a_metric_without_a_bound_is_not_marked(bench_pairs):
    line, = bench_pairs.summary(_runs("m", PARENT, [v * 2 for v in PARENT]), {}, {"n": 0.1})
    assert "REGRESSED" not in line and "UNRESOLVED" not in line


def test_snapshot_holds_the_working_tree_less_ignored_files(bench_pairs, tmp_path):
    root, dest = tmp_path / "root", tmp_path / "dest"
    (root / "pkg").mkdir(parents=True)
    files = {".gitignore": "ignored.txt\nbuild/\n", "tracked.txt": "committed\n",
             "pkg/mod.py": "x = 1\n", "gone.txt": "deleted later\n"}
    for name, text in files.items():
        (root / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + argv, cwd=root, check=True, capture_output=True)
    (root / "tracked.txt").write_text("modified\n")
    (root / "gone.txt").unlink()
    (root / "pkg" / "new.py").write_text("y = 2\n")
    (root / "ignored.txt").write_text("left out\n")
    (root / "build").mkdir()
    (root / "build" / "out.bin").write_bytes(b"left out")

    bench_pairs.snapshot(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py", "tracked.txt"]
    assert (dest / "tracked.txt").read_text() == "modified\n"
    assert (dest / "pkg" / "new.py").read_text() == "y = 2\n"
