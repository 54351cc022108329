"""scripts/step_rss.py runs a benchmark workload's sequence in one process, each
repeatable step twice, and prints the max RSS after each call; it has no gate,
so these only check its shape."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "step_rss.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def test_desk_prints_one_non_decreasing_line_per_call():
    proc = run("desk", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [re.fullmatch(r"(\S+) +(\S*) +([\d.]+) MB(.*)", line).groups()
            for line in proc.stdout.splitlines()]
    repeated = [("build-vocab", ""), ("build-hal", ""), ("svd", ""), ("train", "mean"),
                ("eval", "mean"), ("train", "attention"), ("eval", "attention")]
    assert [(stage, pooling, note) for stage, pooling, _, note in rows] == [
        ("imports", "", "  scipy.sparse not loaded"),
        *[(*step, f"  call {n}") for step in repeated for n in (1, 2)],
        ("attend", "attention", "  x48")]  # the attend texts, called once each, share one line
    peaks = [float(mb) for _, _, mb, _ in rows]
    assert peaks == sorted(peaks)  # a maximum never falls


def test_unknown_workload_is_a_usage_error():
    proc = run("nope", "1")
    assert proc.returncode == 2 and "one of" in proc.stderr and not proc.stdout
