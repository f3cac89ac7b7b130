import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package_dir):
    """Top-level names of every absolute import in the package's modules,
    imports inside functions included."""
    names = set()
    for path in sorted(package_dir.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_declared_dependencies_are_the_imported_ones():
    # each dependency's import name is its distribution name (numpy)
    imported = imported_top_level_modules(ROOT / "src" / "spinmap")
    third_party = imported - set(sys.stdlib_module_names) - {"spinmap"}
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
