"""Spans around the calls one layer makes into another, recorded from outside.

`Tracer` replaces module attributes with timing wrappers while it is
active and restores every one on exit. Spans stay in memory (name, layer,
start, end, parent) and are written out when the run ends. tracemalloc runs
only inside the spans listed in PEAK_SPANS, which never nest in one another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

# (module, attribute, layer). The first group is what `halattn.cli` calls
# into each layer; `store` functions are looked up on the module at call
# time, so they are wrapped there. The model group is what
# `halattn.train` imported from `halattn.model`.
TARGETS = (
    ("halattn.cli", "load_labeled_dir", "corpus"),
    ("halattn.cli", "build_vocab", "corpus"),
    ("halattn.cli", "encode_corpus", "corpus"),
    ("halattn.cli", "build_cooc", "cooc"),
    ("halattn.cli", "concat_pair", "cooc"),
    ("halattn.cli", "truncated_svd", "linalg"),
    ("halattn.cli", "embed", "linalg"),
    ("halattn.cli", "split", "train"),
    ("halattn.cli", "fit", "train"),
    ("halattn.cli", "evaluate", "train"),
    ("halattn.cli", "inspect_attention", "train"),
    ("halattn.store", "save_vocab", "store"),
    ("halattn.store", "load_vocab", "store"),
    ("halattn.store", "save_cooc", "store"),
    ("halattn.store", "load_cooc", "store"),
    ("halattn.store", "save_embeddings", "store"),
    ("halattn.store", "load_embeddings", "store"),
    ("halattn.store", "save_checkpoint", "store"),
    ("halattn.store", "load_checkpoint", "store"),
    ("halattn.store", "save_metrics", "store"),
    ("halattn.train", "init_params", "model"),
    ("halattn.train", "loss_and_grad", "model"),
    ("halattn.train", "adam_step", "model"),
    ("halattn.train", "predict_logits", "model"),
    ("halattn.train", "pool_sequence", "model"),
)
PEAK_SPANS = frozenset({"cooc.build_cooc", "linalg.truncated_svd", "train.fit"})
LAYERS = ("corpus", "cooc", "linalg", "model", "train", "store")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    parent: int | None  # index of the enclosing span
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _facts(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Counts taken at the boundary: pooling mode, batch shape, sizes."""
    a = bound.arguments
    if name in ("model.loss_and_grad", "model.predict_logits"):
        batch = a["batch"]
        lengths = [d.real_length for d in batch]
        return {"pooling": a["pooling"], "docs": len(batch),
                "slots": len(batch) * int(batch[0].ids.shape[0]),
                "real": sum(lengths), "longest": max(lengths)}
    if name == "train.fit":
        return {"pooling": a["config"].pooling, "epochs": len(result[1])}
    if name == "cooc.build_cooc":
        lengths = [d.real_length for d in a["corpus"]]
        w = a["window"]
        return {"nnz": int(result.left.nnz), "tokens": sum(lengths),
                "pairs": sum(max(0, n - d) for n in lengths for d in range(1, w + 1))}
    if name == "linalg.truncated_svd":
        return {"cols": a["k"] + a["oversample"]}
    return {}


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        return False

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if peak:
                    span.facts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.facts.update(_facts(name, bound, result))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer: time in its spans minus the time their child spans cover.

    A span whose parent is of the same layer is counted inside the parent.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    out = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        out[span.layer] += span.seconds - child_time[i]
    return out
