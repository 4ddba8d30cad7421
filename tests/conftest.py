"""Test-session set-up, run before any test module imports numpy.

One BLAS thread unless the environment already names a count, so that
the suite's wall time and the runtime budgets in test_acceptance.py do
not depend on the machine's default thread count.  Every hypothesis
test runs the same examples on every run: derandomized, with no example
database and no deadline, so a timing outlier on a shared host fails
nothing.  A test's own @settings gives only its max_examples.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from hypothesis import settings  # noqa: E402  (after the BLAS thread count)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
