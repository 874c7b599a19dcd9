"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sitewatch"


def _imported_modules(path: Path):
    """(line, top-level module) for every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {module}"
        for path in files
        for line, module in _imported_modules(path)
        if module != "sitewatch" and module not in sys.stdlib_module_names
    ]
    assert outside == []
