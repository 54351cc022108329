"""What the benchmark process imports before it reads its peak RSS must not load the
`scipy.sparse` package, whose imports outweigh the rest of the package: `linalg` loads
scipy's compiled sparse kernels as one extension module, which a later `import
scipy.sparse` shares. Each probe runs in a fresh interpreter, so no test's imports leak in."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]


def probe(source: str) -> subprocess.CompletedProcess:
    source = f"import sys\nsys.path[:0] = {PATHS!r}\n{source}"
    return subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)


def test_benchmark_imports_load_the_kernels_without_scipy_sparse():
    # perfbench/run.py's imports before the peak: workloads (and through it gen and
    # synthetic), scipy (for its version), the CLI and the tracer
    proc = probe("""
import workloads, scipy, tracing
from halattn import cli, linalg
assert "scipy.sparse" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
kernels = sys.modules["scipy.sparse._sparsetools"]
assert linalg._kernels is kernels
import scipy.sparse
import scipy.sparse._sparsetools as shared
assert shared is kernels and shared.csr_matvecs is linalg._kernels.csr_matvecs
assert scipy.sparse._compressed._sparsetools is kernels  # scipy's own sums run it too
""")
    assert proc.returncode == 0, proc.stderr


def test_kernels_already_imported_are_reused():
    proc = probe("""
import scipy.sparse
from halattn import linalg
assert linalg._kernels is scipy.sparse._compressed._sparsetools
""")
    assert proc.returncode == 0, proc.stderr


def test_kernels_not_found_is_an_import_error():
    # no fallback to importing scipy.sparse, which would silently give the memory back
    proc = probe("""
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES[:] = [".not-a-suffix"]
try:
    from halattn import linalg
except ImportError as exc:
    assert "no compiled scipy.sparse._sparsetools" in str(exc), exc
    assert not any(m.startswith("scipy.sparse") for m in sys.modules)
else:
    raise AssertionError("linalg imported without its kernels")
""")
    assert proc.returncode == 0, proc.stderr

