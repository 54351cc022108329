#!/usr/bin/env python3
"""The process's max RSS after each step of one benchmark workload's sequence.

Usage, from the repository root:

    python3 scripts/step_rss.py embed-imdb 2001

It writes the workload's inputs for SEED in a child process (so the
generator's memory stays out of this one), then runs the subcommands of
`perfbench/workloads.py:sequence` in order, in this process, as the
benchmark does, with one BLAS thread and a `gc.collect()` before each call.
The benchmark calls a short step again until its calls add up to a minimum
time, and a second call can peak higher than the first (build-hal's does),
so each repeatable step is called twice here. After each call it prints the
stage, the pooling, `ru_maxrss` in MB and the call's number; the attend
texts, called once each, share one line. The first line is the max RSS after
the imports, and whether they loaded the `scipy.sparse` package. It has no
gate: a step that exits non-zero is counted on its line, and the script
exits 1.
"""

from __future__ import annotations

import os

# As the benchmark: one BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
sys.path[:0] = PATHS

from halattn import cli  # noqa: E402
from workloads import WORKLOADS, sequence  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call(step) -> int:
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(step.argv)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or args[0] not in WORKLOADS or not args[1].isdigit():
        print(f"usage: step_rss.py WORKLOAD SEED; WORKLOAD one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    name, seed = args
    sparse = "loaded" if "scipy.sparse" in sys.modules else "not loaded"
    print(f"{'imports':<12} {'':<10} {max_rss_mb():7.1f} MB  scipy.sparse {sparse}")
    failed = False
    with tempfile.TemporaryDirectory(prefix="step_rss-") as tmp:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "workloads.py"), name,
                        seed, str(Path(tmp) / "inputs"), "1"],
                       env=env, stdout=subprocess.DEVNULL, check=True)
        out = Path(tmp) / "out"
        out.mkdir()
        steps = sequence(WORKLOADS[name], Path(tmp) / "inputs" / "rep0", out)
        for (stage, pooling), group in itertools.groupby(steps, lambda s: (s.stage, s.pooling)):
            group = list(group)
            lines = [[step] for step in group for _ in range(2)] if group[0].repeat else [group]
            for number, calls in enumerate(lines, 1):
                codes = sum(call(step) != 0 for step in calls)
                failed |= codes > 0
                note = f"  x{len(calls)}" if len(calls) > 1 else f"  call {number}"
                note += f"  {codes} exited non-zero" if codes else ""
                print(f"{stage:<12} {pooling or '':<10} {max_rss_mb():7.1f} MB{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
