"""The benchmark scripts import only names that the package defines.

perfbench/*.py is parsed with ast, never run or changed, so a deletion in
src/ that would break a benchmark script fails here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _eitqfc_imports() -> list:
    """(script, module, name) of every eitqfc import in perfbench/*.py; name is None for a plain import."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "eitqfc":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "eitqfc"]
    return found


IMPORTS = _eitqfc_imports()


def test_the_scripts_import_from_the_package():
    assert any(script == "make_reference.py" for script, _, _ in IMPORTS)


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_imported_name_exists(script, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}") is not None, (
            f"{script}: from {module} import {name}"
        )
