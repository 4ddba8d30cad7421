"""eitqfc benchmark: one workload, one seed, one measured run.

Usage, from the repository root:

    python3 perfbench/run.py --workload od_sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): od_sweep, state_sweep, noise_integrals.
Each is a closed loop in one process and one thread: the next operation
starts when the last one has returned and its output has been checked.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with times in seconds at a fixed host speed (see HostClock);
with --trace 1 it wraps the package's public functions in spans and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it name each metric with its unit and record the
environment, the output hashes and, in traced runs, the wrapper call
counts and the known-defect probes.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS thread, so runs compare.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("od_sweep", "state_sweep", "noise_integrals")

SETUP_SAMPLES = 3
#: host_probe runs just before and just after each set-up process.
SETUP_PROBES = 10
#: Median time of one host_probe() on the 2-vCPU Intel Xeon (2.1 GHz) the
#: benchmark was sized on.  It only sets the scale of the reported seconds.
PROBE_REFERENCE_S = 0.00195
SETUP_TIMEOUT_S = 100
#: Exact per-operation call counts at the seed commit.  Reported next to the
#: measured counts, not enforced: a vectorised core changes them on purpose.
SEED_CALLS = {
    "od_sweep": {
        "spectral.solve_susceptibilities": 1203,
        "transfer.propagation_matrix": 802,
        "transfer.expm2": 802,
        "transfer.semiclassical_solve": 401,
    },
    "state_sweep": {"transfer.propagation_matrix": 802, "states.apply_loss_channel": 401},
    "noise_integrals": {
        "spectral.solve_susceptibilities": 1539,
        "transfer.noise_kernels": 1539,
        "noise.gauss_legendre_grid": 4,
    },
}


def info(label: str, value) -> None:
    print(f"{label} {json.dumps(value, sort_keys=True)}", flush=True)


def environment() -> dict:
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git not available)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def host_probe() -> float:
    """Seconds taken by a fixed piece of small-array numpy and scalar Python work."""
    import numpy as np

    start = time.perf_counter()
    a = np.eye(3, dtype=complex) * 2 + 0.1
    b = np.ones(3, dtype=complex)
    s = 0.0
    for k in range(200):
        x = np.linalg.solve(a, b)
        s += abs(x[0]) * 1.0001 + k % 7
        a[0, 1] = 0.1 + (k % 5) * 0.01
    return time.perf_counter() - start


class WallClock:
    """Times an interval in wall seconds."""

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        return time.perf_counter() - self._start


class HostClock(WallClock):
    """Times an interval in reference seconds: wall seconds at a fixed host speed.

    The shared host runs this process at a speed that drifts by up to 50%
    within seconds, with no steal time: CPU time drifts with wall time.
    An interval is scaled by PROBE_REFERENCE_S / (mean of the probes run
    just before, inside and just after it).  Inside the `with` block a
    timer runs host_probe every PERIOD_S, and the probes that ran inside
    an interval are taken off its wall time.  The probe is benchmark
    code, so a change to the package cannot move it; small numpy calls
    and scalar Python are also what most of the package's time goes to.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.last_wall = math.nan

    def __enter__(self) -> "HostClock":
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, *_signal) -> None:
        self.samples.append(host_probe())

    def start(self) -> None:
        self._sample()
        self._first = len(self.samples)
        super().start()

    def stop(self) -> float:
        wall = super().stop() - sum(self.samples[self._first :])
        self._sample()
        self.last_wall = wall
        return wall * PROBE_REFERENCE_S / statistics.mean(self.samples[self._first - 1 :])


def setup_sample(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Seconds from process start to the end of its first operation, minus one warm operation.

    Returns the wall seconds and the reference seconds (see HostClock).
    The probes run just before and just after the child, not while it
    runs: a probe in this process then would measure the two processes
    contending, not the child's speed.
    """
    workdir.mkdir()
    before = [host_probe() for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    after = [host_probe() for _ in range(SETUP_PROBES)]
    if child.returncode != 0:
        raise RuntimeError(f"set-up child failed ({child.returncode}):\n{child.stderr}")
    reading = json.loads(child.stdout.splitlines()[-1])
    wall = reading["first_end"] - start - reading["second_s"]
    return wall, wall * PROBE_REFERENCE_S / statistics.mean(before + after)


class Ops:
    """Closed-loop operation log: counts, outcomes of passed operations, hashes."""

    def __init__(self, workload, clock: WallClock):
        self.workload = workload
        self.clock = clock
        self.attempted = self.failed = 0
        self.passed: dict = {}
        self.digests: dict[int, str] = {}

    def run(self, i: int) -> float:
        self.clock.start()
        try:
            result = self.workload.run(i)
        except Exception:  # a failed operation is counted, and the loop goes on
            seconds = self.clock.stop()
            self._fail(i, traceback.format_exc())
            return seconds
        seconds = self.clock.stop()
        self.check(i, result)
        return seconds

    def check(self, i: int, result) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        try:
            outcome = self.workload.check(i, result)
            key = self.workload.case_key(i)
            if self.digests.setdefault(key, outcome.digest) != outcome.digest:
                raise CheckFailed(f"output of input {key} differs from its earlier run")
        except (CheckFailed, OSError, ValueError, IndexError) as exc:  # malformed output fails too
            self.failed += 1
            print(f"perfbench: operation {i} failed its check: {exc}", file=sys.stderr)
            return
        self.passed[i] = outcome

    def rows(self, ops) -> int:
        return sum(self.passed[i].rows for i in ops if i in self.passed)

    def _fail(self, i: int, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: operation {i} raised:\n{why}", file=sys.stderr)


def tail(seconds: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    if n < 11:
        return {"samples": n, "note": "fewer than 11 samples, no tail percentile"}
    ranked = sorted(seconds)
    return {"percentile": round(100 * (n - 10) / n, 1), "value_s": ranked[n - 11], "samples": n}


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[Ops, dict]:
    from workloads import WORKLOADS

    host_probe()  # warm-up: numpy.linalg's first call
    setups = [setup_sample(name, seed, workdir / f"setup{k}") for k in range(SETUP_SAMPLES)]
    with HostClock() as clock:
        info("env", environment())
        workload = WORKLOADS[name](seed, workdir)
        ops = Ops(workload, clock)
        workload.short_op()  # warm-up: lazy set-up and caches
        durations, wall = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            durations.append(ops.run(len(durations)))
            wall.append(clock.last_wall)
        probes = clock.samples
    rows = ops.rows(range(len(durations)))
    info("call_s.tail", tail(durations))
    info(
        "wall_clock",
        {
            "setup_s": statistics.median(w for w, _ in setups),
            "rows_per_s": rows / sum(wall),
            "call_s.p50": statistics.median(wall),
            "host_probe_s.p50": statistics.median(probes),
            "host_probes": len(probes),
        },
    )
    info("fail_ratio", {"failed": ops.failed, "attempted": ops.attempted})
    info("output_sha256", ops.digests)
    return ops, {
        "setup_s": statistics.median(ref for _, ref in setups),
        "rows_per_s": rows / sum(durations),
        "call_s.p50": statistics.median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[Ops, dict, bool]:
    from probes import run_probes
    from tracing import NO_OP, Tracer
    from workloads import DEFAULT_ROWS, SHORT_ROWS, WORKLOADS

    info("env", environment())
    workload = WORKLOADS[name](seed, workdir)
    ops = Ops(workload, WallClock())
    tracer = Tracer()
    tracer.install()

    cold, calibration = -2, -3
    tracer.op = cold
    workload.short_op()  # its gauss_legendre_grid time is the table set-up

    # Every call the wrappers record must also be seen by the interpreter's profiler.
    tracer.op = calibration
    profiled = tracer.profile_counts(workload.short_op)
    wrapped = tracer.span_counts(calibration)
    unseen = {f: [wrapped[f], profiled[f]] for f in profiled | wrapped if wrapped[f] != profiled[f]}
    info("wrapper_check", {"ok": not unseen, "wrapped_vs_profiled": unseen})

    traced, traced_s, untraced_s = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or not (traced and untraced_s):
        # Alternate traced and untraced operations so drift hits both alike.
        if i % 2 == 0:
            tracer.install()
            tracer.op = i
        else:
            tracer.uninstall()
            tracer.op = NO_OP
        duration = ops.run(i)
        if i % 2 == 0:
            traced.append(i)
            traced_s.append(duration)
        else:
            untraced_s.append(duration)
        i += 1
    tracer.uninstall()
    tracer.op = NO_OP

    per_op = tracer.span_counts(traced[0])
    scale = DEFAULT_ROWS / SHORT_ROWS if name != "noise_integrals" else 1
    info(
        "seed_call_counts",
        {
            f: {"seed": n, "per_op": per_op[f], "calibration_scaled": wrapped[f] * scale}
            for f, n in SEED_CALLS[name].items()
        },
    )
    info("known_defects", run_probes(workdir))
    info("fail_ratio", {"failed": ops.failed, "attempted": ops.attempted})
    info("output_sha256", ops.digests)

    csv_bytes = sum(ops.passed[i].csv_bytes for i in traced if i in ops.passed)
    metrics = tracer.layer_metrics(traced, traced_s, ops.rows(traced), csv_bytes, cold, untraced_s)
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{name}-seed{seed}.npz")
    return ops, metrics, not unseen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "eitqfc" / "__init__.py").is_file():
        print(f"perfbench: no eitqfc sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import eitqfc

    if Path(eitqfc.__file__).resolve().parent != SRC / "eitqfc":
        print(f"perfbench: imported eitqfc from {eitqfc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
        if args.trace:
            ops, metrics, wrappers_ok = traced_run(args.workload, args.seed, args.seconds, workdir)
            wanted = declared["per_layer"]
        else:
            ops, metrics = timed_run(args.workload, args.seed, args.seconds, workdir)
            wrappers_ok = True
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in report.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": ops.failed == 0 and wrappers_ok,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
