"""The package imports only the standard library and itself, one way."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _package_imports(path: Path) -> set[str]:
    """The sitewatch modules one file imports by ``from .x import``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module)
            else:
                names.update(alias.name for alias in node.names)
    return names


MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def test_package_imports_have_no_cycle():
    graph = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}
    # Repeatedly drop the modules that import nothing left in the graph;
    # a cycle is what can never be dropped.
    while graph:
        leaves = {name for name, deps in graph.items() if not deps & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        for name in leaves:
            del graph[name]


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    done = _run(f"import sitewatch.{module}")
    assert done.returncode == 0, done.stderr


def test_the_cli_does_not_load_the_simulator():
    done = _run("import sys, sitewatch.cli; print('sitewatch.simulator' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
