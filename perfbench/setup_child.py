"""Child process of the set-up measurement.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR

Imports the package, runs the workload's first operation, then one more
operation of the same kind on another input, and prints one JSON line:
the CLOCK_MONOTONIC time at which the first operation ended and the
duration of the second.  The parent, which noted the clock just before
starting this process, takes set-up time as (first end - start) - second.
Sweeps run on a small grid here, because set-up does not depend on the
grid and the full grid would only add noise.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SHORT_ROWS, WORKLOADS  # noqa: E402  (imports eitqfc)


def main(name: str, seed: int, workdir: Path) -> None:
    workload = WORKLOADS[name](seed, workdir, rows=SHORT_ROWS)
    first, second = workload.setup_ops
    result = workload.run(first)
    first_end = time.monotonic()
    workload.check(first, result)
    start = time.monotonic()
    result = workload.run(second)
    second_s = time.monotonic() - start
    workload.check(second, result)
    print(json.dumps({"first_end": first_end, "second_s": second_s}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
