#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, saved in the BENCH_<n>.json layout.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD --seeds 1101-1110 --out BENCH_11.json \
        --change "what the change does"

For each seed and each workload of BENCHMARK.json it runs `perfbench/run.py`,
for BENCHMARK.json's `run_seconds`, once on the parent revision and once on
the working tree. Both sides run from copies in one temporary directory: the
parent is the committed files of --parent, unpacked with `git archive`, so it
builds from its own source and leaves nothing in `.git`; the change is a
snapshot of the working tree's files, tracked and untracked, less those git
ignores, taken when the script starts, so both sides run from fresh copies
side by side. The side that runs first alternates from one pair to the next.
Each run's last stdout line must be its result object; the script exits 1 if
any run's is not, if any run reports failed operations, or if runs report
different `nproc` or `blas_threads`: the file keeps one environment line, and
timings depend on both. --trace 1 records the runs under "traced" instead of
"pairs"; an existing --out file keeps its other key. The summary marks each
end-to-end metric that regressed past its BENCHMARK.json bound, or whose
parent runs spread too widely for the bound to tell.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Environment fields the timings depend on; every run in one file must agree on them.
SAME_ENVIRONMENT = ("nproc", "blas_threads")


def seeds(text: str) -> list[int]:
    """'1101-1110' or '5,7,9'."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--seeds", required=True, type=seeds, help="'FIRST-LAST' or 'A,B,C'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    p.add_argument("--change", default="", help="one line on what the change does")
    return p.parse_args(argv)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """(environment line, result object or None, note on what went wrong)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        env, result = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        env, result = None, None
    if not (isinstance(result, dict) and {"correct", "failed", "metrics"} <= result.keys()):
        tail = (lines[-1:] or ["<no stdout>"])[0][:200]
        return env, None, (f"exit {proc.returncode}; last stdout line {tail!r}; "
                           f"stderr {proc.stderr.strip()[-500:]!r}")
    if result["failed"]:
        return env, result, f"{result['failed']} failed operations: {proc.stderr.strip()[-500:]}"
    return env, result, None


def environment_problem(kept: dict, env: dict | None) -> str | None:
    """What in a run's environment line differs from the kept one, if anything."""
    differ = [f"{key} {env.get(key)!r}, not {kept.get(key)!r}" for key in SAME_ENVIRONMENT
              if env is not None and env.get(key) != kept.get(key)]
    return f"environment differs from the first run's: {'; '.join(differ)}" if differ else None


def snapshot(root: Path, dest: Path):
    """Copy the working tree's files at root into dest: every tracked file still on disk,
    as it is now, and every untracked one that git does not ignore."""
    dest.mkdir(parents=True, exist_ok=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True).stdout
    for name in (os.fsdecode(n) for n in listed.split(b"\0") if n):
        if (root / name).is_file():  # a tracked file deleted from the tree is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression rule for an end-to-end metric with a relative bound: UNRESOLVED
    where the parent's quartile spread exceeds the bound and not every change run is better
    than every parent run; else REGRESSED where the change's median is worse than the
    parent's by more than the bound; else ''."""
    sign = -1 if better == "higher" else 1  # > 0: change better
    q1, median, q3 = statistics.quantiles(parent, n=4)
    if q3 - q1 > bound * abs(median) and not all(sign * (p - c) > 0
                                                 for p in parent for c in change):
        return "UNRESOLVED"
    if sign * (statistics.median(change) - median) > bound * abs(median):
        return "REGRESSED"
    return ""


def summary(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> list[str]:
    """Per workload and metric: parent and change medians [quartiles], and the pairs in
    which the change is better, by the metric's `better` ("lower" or "higher"; lower if
    unlisted); ties count for neither side. GAIN marks a metric whose change is better in
    at least 9 of 10 pairs and whose median moves the better way by more than the
    parent's quartile spread; a metric with a bound is marked by `verdict`."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by = {(r["side"], r["seed"]): r["result"]["metrics"] for r in runs
              if r["workload"] == workload and r["result"]}
        paired = sorted({s for side, s in by if (("parent", s) in by and ("change", s) in by)})
        for metric in dict.fromkeys(m for v in by.values() for m in v):
            pairs = [(by["parent", s][metric]["value"], by["change", s][metric]["value"])
                     for s in paired if metric in by["parent", s] and metric in by["change", s]]
            if len(pairs) < 2:
                continue
            cols = list(zip(*pairs))
            q = [statistics.quantiles(c, n=4) for c in cols]
            sign = -1 if better.get(metric, "lower") == "higher" else 1  # > 0: change better
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            gain = 10 * wins >= 9 * len(pairs) and sign * (q[0][1] - q[1][1]) > q[0][2] - q[0][0]
            mark = (verdict(*cols, better.get(metric, "lower"), bounds[metric])
                    if metric in bounds else "")
            out.append(f"{workload:<11} {metric:<34} {q[0][1]:10.4g} [{q[0][0]:.4g}-{q[0][2]:.4g}]"
                       f" -> {q[1][1]:10.4g} [{q[1][0]:.4g}-{q[1][2]:.4g}]"
                       f"  change better {wins}/{len(pairs)}{'  GAIN' if gain else ''}"
                       f"{'  ' + mark if mark else ''}")
    return out


def dump(doc: dict) -> str:
    """JSON in BENCH_6.json's layout: one line per run."""
    order = ("change", "environment", "pairs", "traced")
    keys = [k for k in order if k in doc] + [k for k in doc if k not in order]
    parts = []
    for key in keys:
        value = doc[key]
        if isinstance(value, dict) and "runs" in value:
            inner = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items() if k != "runs"]
            runs = ",\n".join(f"   {json.dumps(run)}" for run in value["runs"])
            inner.append(f'  "runs": [\n{runs}\n  ]')
            value = "{\n" + ",\n".join(inner) + "\n }"
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, workloads = bench["run_seconds"], [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    command = (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
               f"--trace {args.trace}")
    runs, problems, pair = [], [], 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        sides["parent"].mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive, check=True)
        snapshot(ROOT, sides["change"])
        for seed in args.seeds:
            for workload in workloads:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                pair += 1
                for side in order:
                    env, result, problem = run_once(sides[side], workload, seed, seconds,
                                                    args.trace)
                    if env and "environment" not in doc:
                        doc["environment"] = {k: v for k, v in env.items()
                                              if k not in ("workload", "seed")}
                    run = {"side": side, "workload": workload, "seed": seed, "result": result}
                    if args.trace:
                        run["trace"] = 1
                    runs.append(run)
                    for found in (problem, environment_problem(doc.get("environment", {}), env)):
                        if found:
                            problems.append(f"{side} {workload} seed {seed}: {found}")
                            print(f"problem: {problems[-1]}", file=sys.stderr)
                    print(f"{side:<6} {workload:<11} {seed}: "
                          f"{(result or {}).get('metrics', {}).get('wall_s', {}).get('value')}",
                          file=sys.stderr)
    if args.change:
        doc["change"] = args.change
    if args.trace:
        doc["traced"] = {"command": command, "runs": runs}
    else:
        doc["pairs"] = {"command": command, "seeds": args.seeds,
                        "order": "parent and change alternate which runs first, pair by pair",
                        "runs": runs}
    out.write_text(dump(doc), encoding="utf-8")
    print("\n".join(summary(runs, better, bounds)))
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
