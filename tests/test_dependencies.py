"""The third-party modules that src/ imports are the declared runtime dependencies.

src/eitqfc/*.py is parsed with ast, so a deferred import inside a
function counts as much as one at the top of a module.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules() -> set:
    found = set()
    for path in sorted((ROOT / "src" / "eitqfc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_src_imports_exactly_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"eitqfc"}
    assert third_party == declared
