"""README's Python examples import each name from the module that defines it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) for every `from halattn... import name` in README's python blocks."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    return [(node.module, alias.name)
            for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "halattn"
            for alias in node.names]


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "README's Library use imports nothing from halattn"
    for module, name in imports:
        exec(f"from {module} import {name}", {})
