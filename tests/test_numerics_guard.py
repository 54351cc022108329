"""The package's factorizations are its own: the randomized range finder, CGS2
and one-sided Jacobi. LAPACK-backed factorizations are test oracles only,
scipy's private sparse kernels are called from linalg.py alone, each of
csr_matvecs and csc_matvecs by one function, and scipy itself is imported by
the sparse layers (cooc, linalg, store) alone. The rules are checked on the
source text, so a stray call fails here, not in a review."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "halattn"
# numpy.linalg names that run a LAPACK factorization or solve; norm and the like stay allowed
FACTORIZATIONS = {"svd", "qr", "eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq",
                  "cholesky"}
FORBIDDEN_MODULES = ("scipy.linalg", "scipy.sparse.linalg")
KERNELS = "scipy.sparse._sparsetools"


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _aliases(tree) -> dict[str, str]:
    """Each name the tree's imports bind, mapped to the module or attribute it stands for."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]  # import a.b binds a
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolved(node, aliases: dict[str, str]) -> str | None:
    """The name or attribute chain `node` with its root alias resolved, None if its root is
    not an import."""
    root, dot, rest = (_dotted(node) or "").partition(".")
    return aliases[root] + dot + rest if root in aliases else None


def used_names(source: str) -> set[str]:
    """Every module or attribute path the source imports or reads, aliases resolved:
    'np.linalg.qr' after 'import numpy as np' gives 'numpy.linalg.qr'."""
    tree, names = ast.parse(source), set()
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update([node.module, *(f"{node.module}.{alias.name}" for alias in node.names)])
        elif isinstance(node, ast.Attribute) and _resolved(node, aliases):
            names.add(_resolved(node, aliases))
    return names


def violations(source: str) -> list[str]:
    """LAPACK factorizations the source reaches, by resolved name."""
    found = []
    for name in sorted(used_names(source)):
        module, _, attr = name.rpartition(".")
        if (module == "numpy.linalg" and attr in FACTORIZATIONS) or any(
                name == m or name.startswith(m + ".") for m in FORBIDDEN_MODULES):
            found.append(name)
    return found


SOURCES = sorted(SRC.glob("*.py"))


def test_the_checker_sees_each_spelling():
    source = """
import numpy as np
import numpy
import scipy.sparse as sp
from numpy.linalg import cholesky
from scipy import linalg
from scipy.linalg import qr as lapack_qr
x = np.linalg.svd(a), numpy.linalg.eigh(a), np.linalg.norm(a), sp.linalg.svds(a)
"""
    assert violations(source) == [
        "numpy.linalg.cholesky", "numpy.linalg.eigh", "numpy.linalg.svd", "scipy.linalg",
        "scipy.linalg.qr", "scipy.sparse.linalg", "scipy.sparse.linalg.svds"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_lapack_factorization(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def users_of(module: str) -> set[str]:
    """The source files that import module or anything under it."""
    return {path.name for path in SOURCES
            if any(n == module or n.startswith(module + ".")
                   for n in used_names(path.read_text(encoding="utf-8")))}


def test_private_kernels_only_in_linalg():
    assert users_of(KERNELS) == {"linalg.py"}


def kernel_callers(source: str, name: str) -> list[str]:
    """The innermost function around each call of `name` ('module.attr', aliases resolved)."""
    tree, found = ast.parse(source), []
    aliases = _aliases(tree)

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and _resolved(node.func, aliases) == name:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_caller_finder_sees_each_spelling():
    source = """
import scipy.sparse._sparsetools as st
from scipy.sparse._sparsetools import csc_matvecs as kernel
def one():
    st.csc_matvecs(1)
    def inner():
        kernel(2)
    return inner
kernel(3)
"""
    assert kernel_callers(source, f"{KERNELS}.csc_matvecs") == ["one", "inner", "<module>"]


@pytest.mark.parametrize("kernel, home", [("csr_matvecs", "add_csr_product"),
                                          ("csc_matvecs", "add_csc_product")])
def test_each_sparse_kernel_has_one_caller(kernel, home):
    # one home per kernel: every sparse product in the package goes through its linalg function
    callers = [(path.name, fn) for path in SOURCES
               for fn in kernel_callers(path.read_text(encoding="utf-8"), f"{KERNELS}.{kernel}")]
    assert callers == [("linalg.py", home)]


def test_scipy_only_in_the_sparse_layers():
    # the classifier layer gets its CSR product from linalg.add_csr_product
    assert users_of("scipy") <= {"cooc.py", "linalg.py", "store.py"}
