"""The benchmark's tracer (perfbench/tracing.py) wraps functions of this
package by module attribute and reads their arguments by name. These checks
import the tracer and run no benchmark pass, so a rename that would leave a
span silently untraced fails here."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _targets(tracing) -> dict[str, object]:
    """Span name ("<layer>.<attr>") -> the function the tracer would wrap."""
    return {
        f"{layer}.{attr}": getattr(importlib.import_module(module), attr, None)
        for module, attr, layer in tracing.TARGETS
    }


def _arguments_read(tracing) -> dict[str, set[str]]:
    """Span name -> argument names `_facts` reads as `a["..."]` for it."""
    tree = ast.parse(inspect.getsource(tracing._facts))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        names = {c.value for c in ast.walk(node.test) if isinstance(c, ast.Constant)}
        read = {
            sub.slice.value
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name) and sub.value.id == "a"
            and isinstance(sub.slice, ast.Constant)
        }
        for name in names:
            out.setdefault(name, set()).update(read)
    return out


def test_every_target_resolves(tracing):
    missing = [name for name, fn in _targets(tracing).items() if fn is None]
    assert missing == []


def test_facts_read_a_set_as_its_list_of_rows(tracing):
    # `_facts` reads a batch or corpus as a sequence of rows; an EncodedSet
    # must give the same counts as the list of its rows.
    from synthetic import encoded_set
    from halattn.cooc import build_cooc
    from halattn.model import loss_and_grad, predict_logits

    docs = encoded_set([[1, 2, 3], [4], [2, 2, 5, 6]], labels=[0, 1, 1], seq_len=6)
    rows = [docs[i] for i in range(len(docs))]
    calls = {
        "model.loss_and_grad": (loss_and_grad, (None, None, "attention", 0.0, None),
                                {"temperature": 2.0, "dropout_p": 0.0, "out": None}, None),
        "model.predict_logits": (predict_logits, (None, None, "mean"),
                                 {"temperature": 2.0}, None),
        "cooc.build_cooc": (build_cooc, (7, 2), {}, build_cooc(docs, 7, 2)),
    }
    for name, (fn, rest, kwargs, result) in calls.items():
        facts = [tracing._facts(name, inspect.signature(fn).bind(batch, *rest, **kwargs), result)
                 for batch in (docs, rows)]
        assert facts[0] == facts[1], name
    assert facts[0]["tokens"] == 8
    batch_facts = tracing._facts(
        "model.predict_logits",
        inspect.signature(predict_logits).bind(docs, None, None, "mean", temperature=2.0), None)
    assert batch_facts == {"pooling": "mean", "docs": 3, "slots": 18, "real": 8, "longest": 4}


def test_every_argument_read_is_a_parameter(tracing):
    targets = _targets(tracing)
    read = _arguments_read(tracing)
    assert {"model.loss_and_grad", "model.predict_logits", "train.fit"} <= set(read)
    for name, args in read.items():
        assert name in targets, f"_facts reads arguments of {name}, which no target wraps"
        params = inspect.signature(targets[name]).parameters
        assert args <= set(params), f"{name} lacks {sorted(args - set(params))}"


def _halattn_name(module: str, name: str):
    """`from module import name` for a halattn module, or None if it fails."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def test_benchmark_imports_resolve():
    # perfbench/ also imports this package directly (checks.py calls store
    # loaders, run.py calls cli.main), so a deleted or renamed name fails here
    # rather than in a benchmark run.
    checked, missing = set(), []
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("halattn"):
                for alias in node.names:
                    value = _halattn_name(node.module, alias.name)
                    checked.add(f"{node.module}.{alias.name}")
                    if value is None:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                checked.add(f"{node.value.id}.{node.attr}")
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert {"store.load_vocab", "store.load_metrics", "cli.main"} <= checked
    assert missing == []
