import os
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"
READ_BACK = (
    "import os, runpy, sys; runpy.run_path(sys.argv[1]); "
    "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
)


@pytest.mark.parametrize("given, expected", [({}, "1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1")])
def test_blas_threads_default_to_one_and_a_set_count_wins(given, expected):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    result = subprocess.run(
        [sys.executable, "-c", READ_BACK, str(CONFTEST)],
        env={**env, **given},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected
