"""Test-session set-up, run before any test module imports numpy.

One BLAS thread unless the environment already names a count, so that
the suite's wall time and the runtime budgets in test_acceptance.py do
not depend on the machine's default thread count.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
