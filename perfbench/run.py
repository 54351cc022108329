#!/usr/bin/env python3
"""Benchmark: the `scripts/run_imdb.sh` stages, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each run generates the workload's inputs from --seed in a child process
(several times, to time set-up), then drives `halattn.cli.main` in this
process with the subcommand sequence of `scripts/run_imdb.sh`, stdout going
to a buffer. A step shorter than a tenth of --seconds is called again until
its calls fill that tenth and is timed by the median call. The benchmark
repeats the whole pass while another one still fits in --seconds, checks
every pass's outputs, and prints one JSON object as the last line of
stdout: `correct`, `attempted`, `failed` and `metrics`. An operation is one
subcommand call or one output check.

--trace 0 reports the end-to-end metrics, timed here around each
subcommand with no tracing installed. --trace 1 runs each pass twice, once
plain and once with wrappers around the calls between layers
(`tracing.py`), and reports the per-layer metrics and the tracing overhead.
The last traced pass's spans are written to
`.perfbench/spans-<workload>-<seed>.jsonl`.

The first stdout line records the environment. Timings are wall-clock
times of this one process on a machine that may be shared; the inputs are
read from the page cache, which the benchmark does not drop.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# One BLAS thread: on a small shared machine a second thread made the
# model kernels slower and noisier. Set before numpy is first imported.
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
MIN_STEP_SHARE = 0.1  # of --seconds; see the module docstring
# Metric names and units come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class StepResult:
    stage: str
    pooling: str | None
    code: int | None  # None when the call raised
    seconds: float  # median over the calls made
    calls: int
    stdout: str  # of the last call


@dataclass
class Pass:
    out: Path
    steps: list[StepResult]

    @property
    def wall(self) -> float:
        """One run_imdb.sh sequence: the sum of its steps' median times."""
        return sum(s.seconds for s in self.steps)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "note": "shared machine; wall-clock timings of this process; "
        "inputs read from the page cache, which is not dropped",
    }


def run_pass(workload, inputs: Path, out: Path, min_step_s: float) -> Pass:
    """Run the sequence once. A step shorter than `min_step_s` is called
    again until its calls add up to `min_step_s`, and its time is the median
    call; the outputs of a repeated call are identical to the first's."""
    from halattn import cli
    from workloads import sequence

    out.mkdir(parents=True)
    results = []
    for step in sequence(workload, inputs, out):
        times = []
        while True:
            buf = io.StringIO()
            gc.collect()  # garbage left by earlier calls is not this call's cost
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(step.argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=sys.stderr)
                code = None
            times.append(time.perf_counter() - t0)
            if code != 0 or not step.repeat or sum(times) >= min_step_s:
                break
        results.append(StepResult(step.stage, step.pooling, code, statistics.median(times),
                                  len(times), buf.getvalue()))
    return Pass(out, results)


def check_pass(workload, p: Pass) -> list[str | None]:
    """One entry per operation: each subcommand call and each output check."""
    import checks
    from workloads import POOLINGS

    outcomes: list[str | None] = []
    for s in p.steps:  # a repeated step stops at its first failing call
        outcomes += [None] * (s.calls - 1)
        outcomes.append(None if s.code == 0 else f"{s.stage} {s.pooling or ''} exited {s.code}")

    def guarded(fn):
        try:
            return fn()
        except Exception as exc:  # malformed or missing output fails the check
            return f"{type(exc).__name__}: {exc}"

    svd = next(s for s in p.steps if s.stage == "svd")
    try:
        outcomes += checks.check_svd(svd.stdout, p.out / "emb.bin", p.out / "pair.cooc",
                                     workload.normalize)
    except Exception as exc:  # malformed or missing output fails both checks
        outcomes += [f"{type(exc).__name__}: {exc}"] * 2
    for pooling in POOLINGS:
        outcomes.append(guarded(lambda: checks.check_losses(
            checks.train_losses(p.out / f"{pooling}.csv"))))
    outcomes.append(guarded(lambda: checks.check_accuracies(
        {s.pooling: checks.parse_accuracy(s.stdout) for s in p.steps if s.stage == "eval"},
        workload.acc_floor, workload.ab_margin)))
    for s in p.steps:
        if s.stage == "attend":
            outcomes.append(guarded(lambda: checks.check_attention_weights(
                checks.parse_alphas(s.stdout))))
    return outcomes


def end_to_end(workload, counts: dict, p: Pass) -> dict[str, float]:
    """Whole-pass and per-subcommand figures of one pass."""
    import checks
    from workloads import POOLINGS, train_docs

    def stage_s(stage, pooling=None):
        return sum(s.seconds for s in p.steps if s.stage == stage and s.pooling == pooling)

    n_train = train_docs(counts, workload)
    n_test = sum(counts["test"])
    m = {
        "wall_s": p.wall,
        "embed_s": stage_s("build-vocab") + stage_s("build-hal") + stage_s("svd"),
        "step.classify_s": sum(stage_s(st, pl) for st in ("train", "eval") for pl in POOLINGS),
        "step.attend_ms": 1000 * statistics.median(
            s.seconds for s in p.steps if s.stage == "attend"),
    }
    for pooling in POOLINGS:
        epochs = len(checks.train_losses(p.out / f"{pooling}.csv"))
        m[f"step.train_docs_per_s.{pooling}"] = epochs * n_train / stage_s("train", pooling)
        m[f"step.eval_docs_per_s.{pooling}"] = n_test / stage_s("eval", pooling)
    return m


def per_layer(spans, p: Pass) -> dict[str, float]:
    from tracing import self_seconds
    from workloads import POOLINGS

    def named(name, pooling=None):
        return [s for s in spans
                if s.name == name and (pooling is None or s.facts.get("pooling") == pooling)]

    def batched(name, pooling):
        # Calls from fit and evaluate; attend's one-document calls are train.attend_ms.
        return [s for s in named(name, pooling)
                if s.parent is not None and spans[s.parent].name in ("train.fit", "train.evaluate")]

    def total(name):
        found = named(name)
        return sum(s.seconds for s in found) if found else None

    def median_ms(found):
        return 1000 * statistics.median(s.seconds for s in found) if found else None

    def median_s(name):
        found = named(name)
        return statistics.median(s.seconds for s in found) if found else None

    m: dict[str, float | None] = {
        "corpus.load_s": total("corpus.load_labeled_dir"),
        "corpus.vocab_s": total("corpus.build_vocab"),
        "corpus.encode_s": total("corpus.encode_corpus"),
        "cooc.build_s": total("cooc.build_cooc"),
        "cooc.concat_s": total("cooc.concat_pair"),
        "linalg.svd_s": total("linalg.truncated_svd"),
        "model.adam_step_ms": median_ms(named("model.adam_step")),
        "train.evaluate_s": total("train.evaluate"),
        "train.attend_ms": median_ms(named("train.inspect_attention")),
        "store.write_s.cooc": median_s("store.save_cooc"),
        "store.write_s.emb": median_s("store.save_embeddings"),
        "store.write_s.ckpt": median_s("store.save_checkpoint"),
        "store.read_s.cooc": median_s("store.load_cooc"),
        "store.read_s.emb": median_s("store.load_embeddings"),
        "store.read_s.ckpt": median_s("store.load_checkpoint"),
    }
    for layer, seconds in self_seconds(spans).items():
        m[f"{layer}.self_s"] = seconds
    for name, metric in (("cooc.build_cooc", "cooc.build_peak_mb"),
                         ("linalg.truncated_svd", "linalg.svd_peak_mb"),
                         ("train.fit", "train.fit_peak_mb")):
        found = named(name)
        m[metric] = max(s.facts["peak_mb"] for s in found) if found else None
    for s in named("cooc.build_cooc"):
        m["cooc.nnz"] = s.facts["nnz"]
        m["cooc.pairs_per_s"] = s.facts["pairs"] / s.seconds
    for s in named("linalg.truncated_svd"):
        m["linalg.svd_cols"] = s.facts["cols"]
    for pooling in POOLINGS:
        m[f"model.loss_and_grad_ms.{pooling}"] = median_ms(named("model.loss_and_grad", pooling))
        m[f"model.predict_logits_ms.{pooling}"] = median_ms(
            batched("model.predict_logits", pooling))
        fits = named("train.fit", pooling)
        m[f"train.fit_s.{pooling}"] = sum(s.seconds for s in fits) if fits else None
    batches = named("model.loss_and_grad")
    if batches:
        m["model.batches"] = len(batches)
        m["model.pad_share"] = 1 - sum(b.facts["real"] for b in batches) / sum(
            b.facts["slots"] for b in batches)
        m["model.batch_fill"] = statistics.fmean(
            b.facts["longest"] * b.facts["docs"] / b.facts["slots"] for b in batches)
    fits = named("train.fit")
    if fits:
        m["train.epochs"] = sum(s.facts["epochs"] for s in fits)
    for fit_span in named("train.fit", "attention"):
        index = spans.index(fit_span)
        in_eval = sum(s.seconds for s in spans
                      if s.parent == index and s.name == "model.predict_logits")
        m["train.eval_share.attention"] = in_eval / fit_span.seconds
    for kind, filename in (("cooc", "pair.cooc"), ("emb", "emb.bin"), ("ckpt", "attention.ckpt")):
        m[f"store.bytes.{kind}"] = (p.out / filename).stat().st_size
    top = sum(s.seconds for s in spans if s.parent is None)
    m["trace.coverage"] = top / p.wall
    return {k: v for k, v in m.items() if v is not None}


def input_properties(inputs: Path, p: Pass, vocab_s: float | None) -> dict[str, float]:
    """Tokens and out-of-vocabulary share of the embedding corpus."""
    from halattn import store
    from halattn.corpus import load_labeled_dir, tokenize

    vocab = store.load_vocab(p.out / "vocab.txt")
    tokens = oov = 0
    for doc in load_labeled_dir(inputs / "embed"):
        words = tokenize(doc.text)
        tokens += len(words)
        oov += sum(w not in vocab.index for w in words)
    m = {"corpus.tokens": tokens, "corpus.oov_share": oov / tokens}
    if vocab_s:
        m["corpus.tokens_per_s"] = tokens / vocab_s
    return m


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each metric."""
    keys = dict.fromkeys(k for m in per_pass for k in m)
    return {k: statistics.median(m[k] for m in per_pass if k in m) for k in keys}


def setup_inputs(name: str, seed: int, root: Path) -> tuple[list[float], dict]:
    """Write the inputs SETUP_REPS times in a child process, which has ended
    on return, so the generator's memory stays out of this process's peak RSS.
    Returns the seconds of each rep and the per-class document counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (SRC, TESTS, HERE))))
    child = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(root), str(SETUP_REPS)],
        env=env, stdout=subprocess.PIPE, check=True, text=True)
    times, counts = json.loads(child.stdout)
    return times, counts


def measure(workload, inputs: Path, run_dir: Path, seconds: float, trace: bool, seed: int):
    """Repeat a unit (one pass; with tracing, a plain and a traced pass)
    while another unit still fits in `seconds`."""
    from tracing import Tracer

    units = []  # (plain pass, traced pass or None, spans)
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        i = len(units)
        min_step_s = 0.0 if trace else MIN_STEP_SHARE * seconds
        plain = run_pass(workload, inputs, run_dir / f"pass{i}", min_step_s)
        traced, tracer = None, None
        if trace:
            with Tracer() as tracer:
                traced = run_pass(workload, inputs, run_dir / f"traced{i}", 0.0)
            tracer.write(WORK / f"spans-{workload.name}-{seed}.jsonl")
            if tracer.missing:
                print(f"note: not in the program, metrics absent: {tracer.missing}",
                      file=sys.stderr)
        units.append((plain, traced, tracer.spans if tracer else None))
        now = time.perf_counter()
        if now - started + (now - unit_started) > seconds:
            return units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "halattn" / "cli.py").is_file() or not (TESTS / "synthetic.py").is_file():
        print(f"error: {ROOT} does not hold src/halattn and tests/synthetic.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"workload": workload.name, "seed": args.seed, **environment()}))

    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    inputs = run_dir / "inputs" / f"rep{SETUP_REPS - 1}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times, counts = setup_inputs(workload.name, args.seed, run_dir / "inputs")
        print(f"setup_s per rep: {[round(t, 3) for t in setup_times]}", file=sys.stderr)
        units = measure(workload, inputs, run_dir, args.seconds, bool(args.trace), args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        passes = [p for plain, traced, _ in units for p in (plain, traced) if p is not None]
        outcomes = [o for p in passes for o in check_pass(workload, p)]
        failures = [o for o in outcomes if o is not None]
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)

        try:
            if args.trace:
                layer = []
                for plain, traced, spans in units:
                    m = per_layer(spans, traced)
                    m["trace.overhead_s"] = traced.wall - plain.wall
                    m.update(end_to_end(workload, counts, plain))
                    layer.append(m)
                metrics = combine(layer)
                last = units[-1][1]
                metrics.update(input_properties(inputs, last, metrics.get("corpus.vocab_s")))
            else:
                metrics = combine([end_to_end(workload, counts, plain) for plain, _, _ in units])
                metrics["setup_s"] = statistics.median(setup_times)
                metrics["peak_rss_mb"] = peak_rss_mb
        except Exception:  # outputs too broken to measure; the failed checks say why
            if not failures:
                raise
            traceback.print_exc(file=sys.stderr)
            metrics = {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
