"""The benchmark scripts import only names that the package defines, and call them in shapes they accept.

perfbench/*.py is parsed with ast, never run or changed, so a deletion in
src/ that would break a benchmark script fails here first, and so does a
signature change that would break one of its calls.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _scripts() -> list:
    """(file name, parsed module) of every perfbench/*.py."""
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in sorted(PERFBENCH.glob("*.py"))]


def _eitqfc_imports() -> list:
    """(script, module, name) of every eitqfc import in perfbench/*.py; name is None for a plain import."""
    found = []
    for script, tree in _scripts():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "eitqfc":
                found += [(script, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(script, a.name, None) for a in node.names if a.name.split(".")[0] == "eitqfc"]
    return found


def _eitqfc_calls() -> list:
    """(script, line, callee, (module, name, attr), positional count, keyword names) of perfbench's eitqfc calls.

    A direct call of ``name`` from ``from eitqfc.x import name`` has attr
    None; a call of ``module.attr``, with ``module`` bound by an eitqfc
    import, has the attribute.  Calls that unpack ``*`` or ``**``, and
    calls through any other name (a loop variable, say), are skipped.
    """
    calls = []
    for script, tree in _scripts():
        bound = {}  # local name -> (module, name), name None for a plain import
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "eitqfc":
                bound.update({a.asname or a.name: (node.module, a.name) for a in node.names})
            elif isinstance(node, ast.Import):
                # import eitqfc.x binds eitqfc; import eitqfc.x as y binds y to eitqfc.x
                eitqfc = [a for a in node.names if a.name.split(".")[0] == "eitqfc"]
                bound.update({a.asname or "eitqfc": (a.name if a.asname else "eitqfc", None) for a in eitqfc})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bound:
                target, label = (*bound[func.id], None), func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in bound:
                target, label = (*bound[func.value.id], func.attr), f"{func.value.id}.{func.attr}"
            else:
                continue
            calls.append((script, node.lineno, label, target, len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


def _callee(module: str, name: str | None, attr: str | None):
    """The object that a target (module, name, attr) of _eitqfc_calls names."""
    found = importlib.import_module(module)
    if name is not None:
        found = getattr(found, name) if hasattr(found, name) else importlib.import_module(f"{module}.{name}")
    return found if attr is None else getattr(found, attr)


IMPORTS = _eitqfc_imports()
CALLS = _eitqfc_calls()


def test_the_scripts_import_from_the_package():
    assert any(script == "make_reference.py" for script, _, _ in IMPORTS)


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_imported_name_exists(script, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}") is not None, (
            f"{script}: from {module} import {name}"
        )


def test_the_scripts_call_the_package():
    # the walk sees both call forms: a name and a module attribute
    labels = {label for _, _, label, *_ in CALLS}
    assert {"noise_kernels", "diffusion_matrix", "cli.main", "noise.eta1"} <= labels


@pytest.mark.parametrize(
    "script, line, label, target, npos, keywords", CALLS, ids=[f"{c[0]}:{c[1]}:{c[2]}" for c in CALLS]
)
def test_call_binds_to_the_signature(script, line, label, target, npos, keywords):
    signature = inspect.signature(_callee(*target))
    try:
        signature.bind(*[None] * npos, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{script}:{line}: {label} with {npos} positional and keywords {keywords}: {exc}")
