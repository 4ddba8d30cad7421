"""Test-session set-up, run before any test module imports numpy.

One BLAS thread unless the environment already names a count: the
scipy.linalg.expm behind beam_splitter_oracle takes about 9x longer
with 2 OpenBLAS threads than with 1 on a 2-core machine, so without a
pin the suite's wall time would depend on the machine's default.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
