"""Every demo script, the README's Python blocks and the benchmark's reference builder run."""

import os
import re
import runpy
import sys
from pathlib import Path

import pytest

from eitqfc.params import symmetric_params

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a demo may save a figure into its working directory
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the blocks share one namespace, in the order a reader meets them
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert float(capsys.readouterr().out) == pytest.approx(0.9804, abs=5e-5)  # the printed fidelity
    assert namespace["ce"] == pytest.approx(0.9612, abs=5e-5)
    assert namespace["ce_grid"][200] == pytest.approx(namespace["ce"], rel=1e-12)


def test_benchmark_reference_builder_imports(monkeypatch):
    # the module body binds its eitqfc names; main(), the slow table rebuild, does not run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # the builder sets defaults for both
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the builder prepends src/
    builder = runpy.run_path(str(ROOT / "perfbench" / "make_reference.py"), run_name="make_reference")
    p, q = builder["midpoint_unit_integrals"](symmetric_params(2.0, 1.0), 4)
    assert p > 0.0 and q > 0.0
