"""The package's factorizations are its own: the randomized range finder, CGS2
and one-sided Jacobi. LAPACK-backed factorizations are test oracles only,
scipy's private sparse kernels are called from linalg.py alone, each of
csr_matvecs, csc_matvecs and csr_plus_csr by one function, and scipy itself is
named by linalg.py alone, whose loader reads the kernels' module by its name.
The rules are checked on the source text, so a stray call fails here, not in a
review. A string that spells a module path counts as a use of that module, a
name bound to a call given such a string stands for that module, and a name
imported from a sibling module stands for what that module bound it to."""

import ast
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "halattn"
# numpy.linalg names that run a LAPACK factorization or solve; norm and the like stay allowed
FACTORIZATIONS = {"svd", "qr", "eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq",
                  "cholesky"}
FORBIDDEN_MODULES = ("scipy.linalg", "scipy.sparse.linalg")
KERNELS = "scipy.sparse._sparsetools"
MODULE_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _module_path(node) -> str | None:
    """The string constant `node` when it spells a dotted module path, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if MODULE_PATH.fullmatch(node.value) else None
    return None


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
        elif isinstance(node, ast.ImportFrom) and node.level == 1:  # from .m import x
            for alias in node.names:
                path = ".".join(filter(None, ("halattn", node.module, alias.name)))
                aliases[alias.asname or alias.name] = path
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            # m = load("a.b"): m stands for the module a.b
            for module in filter(None, map(_module_path, node.value.args)):
                aliases.update((t.id, module) for t in node.targets if isinstance(t, ast.Name))
    return aliases


@functools.cache
def _bound_by(module: str) -> dict[str, str]:
    """The aliases the package module `module` binds, {} if there is no such module."""
    path = SRC / f"{module}.py"
    return _aliases(ast.parse(path.read_text(encoding="utf-8"))) if path.is_file() else {}


def _through_siblings(name: str) -> str:
    """'halattn.m.x.rest' as what module m bound x to, followed by rest: so
    'halattn.linalg._kernels.f' is the loaded kernels' f."""
    package, module, bound, *rest = name.split(".") + ["", ""]
    if package != "halattn" or bound not in _bound_by(module):
        return name
    return ".".join([_bound_by(module)[bound], *filter(None, rest)])


def _resolved(node, aliases: dict[str, str]) -> str | None:
    """The name or attribute chain `node` with its root alias resolved, through sibling
    modules' aliases, None if its root is not an import."""
    root, dot, rest = (_dotted(node) or "").partition(".")
    return _through_siblings(aliases[root] + dot + rest) if root in aliases else None


def used_names(source: str) -> set[str]:
    """Every module or attribute path the source imports, reads or spells as a string, aliases
    resolved: 'np.linalg.qr' after 'import numpy as np' gives 'numpy.linalg.qr'."""
    tree, names = ast.parse(source), set()
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update([node.module, *(f"{node.module}.{alias.name}" for alias in node.names)])
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update(_through_siblings(aliases[alias.asname or alias.name])
                         for alias in node.names)
        elif isinstance(node, ast.Attribute) and _resolved(node, aliases):
            names.add(_resolved(node, aliases))
        elif _module_path(node):
            names.add(node.value)
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
solver = importlib.import_module("numpy.linalg")
y = solver.lstsq(a, b), getattr(importlib.import_module("scipy.linalg"), "lu"), "scipy.linalg.lu"
"""
    assert violations(source) == [
        "numpy.linalg.cholesky", "numpy.linalg.eigh", "numpy.linalg.lstsq", "numpy.linalg.svd",
        "scipy.linalg", "scipy.linalg.lu", "scipy.linalg.qr", "scipy.sparse.linalg",
        "scipy.sparse.linalg.svds"]


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


def test_the_user_finder_sees_a_module_named_by_a_string():
    # the kernels are loaded by their module's name, with no import statement
    source = 'kernels = _extension("scipy.sparse._sparsetools")\n'
    assert KERNELS in used_names(source) and "scipy" not in used_names("x = 'scipy is slow'\n")


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
loaded = _extension("scipy.sparse._sparsetools")
def two():
    return loaded.csc_matvecs(4)
"""
    assert kernel_callers(source, f"{KERNELS}.csc_matvecs") == ["one", "inner", "<module>", "two"]


def test_the_finders_see_the_kernels_through_linalg():
    # linalg binds its loaded kernels to a name; a sibling module reaching them through it
    # is a user and a caller, however it imports them
    source = """
from . import linalg
from .linalg import _kernels as kernels
def one():
    linalg._kernels.csr_plus_csr(1)
def two():
    kernels.csr_plus_csr(2)
"""
    assert kernel_callers(source, f"{KERNELS}.csr_plus_csr") == ["one", "two"]
    assert KERNELS in used_names("from .linalg import _kernels\n")


@pytest.mark.parametrize("kernel, home", [("csr_matvecs", "add_csr_product"),
                                          ("csc_matvecs", "add_csc_product"),
                                          ("csr_plus_csr", "csr_sum")])
def test_each_sparse_kernel_has_one_caller(kernel, home):
    # one home per kernel: every sparse product in the package goes through its linalg function
    callers = [(path.name, fn) for path in SOURCES
               for fn in kernel_callers(path.read_text(encoding="utf-8"), f"{KERNELS}.{kernel}")]
    assert callers == [("linalg.py", home)]


def test_scipy_only_in_linalg():
    # cooc, store and the classifier layer get their CSR record, sums and products from linalg
    assert users_of("scipy") == {"linalg.py"}
