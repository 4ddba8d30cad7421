"""Seeded inputs, the timed operation and the output check of each workload.

Importing this module imports eitqfc, so the caller must have put the
checkout's src/ on sys.path and pinned the BLAS threads first.

Every workload draws CASES inputs from its seed and operation i uses
input i mod CASES (for noise_integrals, (i // 3) mod CASES), so a run
repeats each input and can compare the output hashes of the repeats.
All checks use the acceptance-test tolerances.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from eitqfc import cli, noise
from eitqfc.noise import diffusion_matrix
from eitqfc.params import symmetric_params

CASES = 4
DEFAULT_ROWS = 401
DEFAULT_ALPHA_MAX = 400.0
#: Grid of the short sweep used to warm up and to cross-check call counts.
SHORT_ROWS = 5
REFERENCE_FILE = Path(__file__).resolve().parent / "noise_reference.json"

CLOSED_FORM_TOL = 1e-12
SEMICLASSICAL_TOL = 1e-6
FIDELITY_TOL = 1e-10
VARIANCE_TOL = 1e-12
REFERENCE_REL_TOL = 1e-6


class CheckFailed(Exception):
    """An operation's output broke one of the workload's checks."""


@dataclass
class Outcome:
    rows: int
    digest: str
    csv_bytes: int = 0


def _parse_csv(text: str, header: list[str], n_rows: int) -> list[list[float]]:
    lines = list(csv.reader(io.StringIO(text)))
    if lines[0] != header:
        raise CheckFailed(f"header {lines[0]} != {header}")
    rows = [[float(v) for v in line] for line in lines[1:]]
    if len(rows) != n_rows:
        raise CheckFailed(f"{len(rows)} rows, expected {n_rows}")
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"non-finite value in row {row}")
    return rows


def _close(name: str, alpha: float, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{name} at alpha={alpha}: {got!r} vs {want!r} (tol {tol})")


def _check_alpha_grid(rows: list[list[float]]) -> None:
    step = DEFAULT_ALPHA_MAX / (len(rows) - 1)
    for k, row in enumerate(rows):
        _close("alpha grid", row[0], row[0], k * step, CLOSED_FORM_TOL * max(1.0, k * step))


def _closed_forms(alpha: float) -> tuple[float, float]:
    """Symmetric-case transmittance (4/(4+a))^2 and CE (a/(4+a))^2."""
    return (4.0 / (4.0 + alpha)) ** 2, (alpha / (4.0 + alpha)) ** 2


def _draw_rabi(rng: random.Random) -> complex:
    """A common Rabi frequency: magnitude in [0.5, 3], any phase."""
    return cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2 * math.pi))


class _CliSweep:
    """One `eitqfc <command>` run at the default 401-point optical-depth grid."""

    command = ""
    header: list[str] = []
    #: First operation of a fresh process, then one of the same kind on another input.
    setup_ops = (0, 1)

    def __init__(self, seed: int, workdir: Path, rows: int = DEFAULT_ROWS):
        rng = random.Random(f"{self.name}:{seed}")
        self.rows = rows
        self.out = workdir / f"{self.name}.csv"
        self.cases = []
        for k in range(CASES):
            rabi, extra = self._draw(rng)
            cfg = workdir / f"{self.name}-case{k}.cfg"
            cfg.write_text(f"omega_c = {rabi!r}\nomega_d = {rabi!r}\n", encoding="ascii")
            self.cases.append((cfg, extra))

    def _draw(self, rng: random.Random) -> tuple[complex, list[str]]:
        return _draw_rabi(rng), []

    def argv(self, i: int, rows: int | None = None) -> list[str]:
        cfg, extra = self.cases[i % CASES]
        grid = [] if rows is None else ["--grid-points", str(rows)]
        return [self.command, *extra, *grid, "--config", str(cfg), "--out", str(self.out)]

    def case_key(self, i: int) -> int:
        return i % CASES

    def run(self, i: int) -> int:
        rows = None if self.rows == DEFAULT_ROWS else self.rows
        return cli.main(self.argv(i, rows))

    def short_op(self) -> int:
        """The same code path on a 5-row grid: a warm-up, and the call-count cross-check."""
        return cli.main(self.argv(0, SHORT_ROWS))

    def check(self, i: int, exit_code: int) -> Outcome:
        if exit_code != 0:
            raise CheckFailed(f"exit code {exit_code}")
        data = self.out.read_bytes()
        rows = _parse_csv(data.decode("ascii"), self.header, self.rows)
        _check_alpha_grid(rows)
        self._check_rows(i, rows)
        return Outcome(rows=len(rows), digest=hashlib.sha256(data).hexdigest(), csv_bytes=len(data))

    def _check_rows(self, i: int, rows: list[list[float]]) -> None:
        raise NotImplementedError


class OdSweep(_CliSweep):
    """`eitqfc fig2`: quantum and semiclassical transmittance and CE versus optical depth."""

    name = "od_sweep"
    command = "fig2"
    header = ["alpha", "tp_quantum", "ce_quantum", "tp_semiclassical", "ce_semiclassical"]

    def _check_rows(self, i: int, rows: list[list[float]]) -> None:
        for alpha, tq, cq, ts, cs in rows:
            tp, ce = _closed_forms(alpha)
            _close("tp_quantum", alpha, tq, tp, CLOSED_FORM_TOL)
            _close("ce_quantum", alpha, cq, ce, CLOSED_FORM_TOL)
            _close("tp_semiclassical", alpha, ts, tq, SEMICLASSICAL_TOL)
            _close("ce_semiclassical", alpha, cs, cq, SEMICLASSICAL_TOL)


class StateSweep(_CliSweep):
    """`eitqfc custom --state fock`: transfer, Fock fidelity and variances versus optical depth."""

    name = "state_sweep"
    command = "custom"
    header = ["alpha", "tp", "ce", "fidelity", "var_x", "var_y"]

    def _draw(self, rng: random.Random) -> tuple[complex, list[str]]:
        n = rng.choice((1, 2, 3))
        return _draw_rabi(rng), ["--state", "fock", "--nbar", str(n)]

    def _check_rows(self, i: int, rows: list[list[float]]) -> None:
        n = int(self.cases[i % CASES][1][-1])  # the --nbar value
        var_in = (2 * n + 1) / 4.0
        for alpha, tp, ce, fid, var_x, var_y in rows:
            tp_closed, ce_closed = _closed_forms(alpha)
            _close("tp", alpha, tp, tp_closed, CLOSED_FORM_TOL)
            _close("ce", alpha, ce, ce_closed, CLOSED_FORM_TOL)
            # Fock |n> through a pure-loss channel keeps |C0|^(2n) on |n><n|
            _close("fidelity", alpha, fid, math.sqrt(ce) ** n, FIDELITY_TOL)
            var_out = ce * var_in + (1.0 - ce) / 4.0
            _close("var_x", alpha, var_x, var_out, VARIANCE_TOL)
            _close("var_y", alpha, var_y, var_out, VARIANCE_TOL)


@dataclass(frozen=True)
class _NoiseCase:
    params: object
    diffusion: object
    d2112: float
    photon_noise_unit: float
    eta1_unit: float


class NoiseIntegrals:
    """Library calls in a fixed rotation: zero-diffusion photon noise, eta1, photon noise."""

    name = "noise_integrals"
    ROTATION = ("photon_noise_zero", "eta1", "photon_noise")
    setup_ops = (0, 3)

    def __init__(self, seed: int, workdir: Path, rows: int = DEFAULT_ROWS):
        table = json.loads(REFERENCE_FILE.read_text())["entries"]
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for _ in range(CASES):
            entry = rng.choice(table)
            p33, p44 = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)
            diffusion = diffusion_matrix(p33, p44)
            self.cases.append(
                _NoiseCase(
                    params=symmetric_params(entry["alpha"], entry["rabi"]),
                    diffusion=diffusion,
                    d2112=float(diffusion.entries[0, 0].real),
                    photon_noise_unit=entry["photon_noise_unit"],
                    eta1_unit=entry["eta1_unit"],
                )
            )

    def case_key(self, i: int) -> int:
        return i % (3 * CASES)

    def _case(self, i: int) -> tuple[_NoiseCase, str]:
        return self.cases[(i // 3) % CASES], self.ROTATION[i % 3]

    def run(self, i: int) -> float:
        case, kind = self._case(i)
        if kind == "photon_noise_zero":
            return noise.langevin_photon_noise(case.params)
        if kind == "eta1":
            return noise.eta1(case.params, case.diffusion)
        return noise.langevin_photon_noise(case.params, case.diffusion)

    def short_op(self) -> float:
        """One eta1 call: a warm-up, and the call-count cross-check."""
        return self.run(1)

    def check(self, i: int, value: float) -> Outcome:
        case, kind = self._case(i)
        if kind == "photon_noise_zero":
            if value != 0.0:
                raise CheckFailed(f"zero-diffusion photon noise returned {value!r}, not 0.0")
        else:
            unit = case.eta1_unit if kind == "eta1" else case.photon_noise_unit
            want = case.d2112 * unit
            if not abs(value - want) <= REFERENCE_REL_TOL * abs(want):
                raise CheckFailed(f"{kind} = {value!r}, reference {want!r} (rel tol 1e-6)")
        return Outcome(rows=1, digest=hashlib.sha256(repr(value).encode()).hexdigest())


WORKLOADS = {w.name: w for w in (OdSweep, StateSweep, NoiseIntegrals)}
