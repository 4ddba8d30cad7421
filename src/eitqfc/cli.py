"""Batch command-line front end: deterministic CSV parameter sweeps.

Subcommands:

* ``fig2``   -- probe transmittance and conversion efficiency versus
               optical depth, quantum closed-channel columns next to the
               independent semiclassical boundary-value solution, each
               from one sweep over the whole grid; a row that breaks
               passivity or where the two routes disagree is a
               numerical failure;
* ``fig3``   -- conversion fidelity versus CE for coherent inputs with
               mean photon number 1 and 10 and for the one-photon Fock
               input;
* ``fig4``   -- output quadrature variances versus CE for a squeezed
               (variant a) or one-photon Fock (variant b) input;
* ``custom`` -- combined sweep over optical depth emitting transfer,
               fidelity and variance columns for a chosen input state;
               the transfer columns come from one sweep over the grid.

Numbers are emitted with 15 significant digits so rows round-trip
through the CSV; identical inputs produce byte-identical files.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.  A
numerical failure names the first grid value that failed, as a row by
row evaluation would meet it, and nothing is written.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonPassiveAmplitude, QfcError
from .params import SystemParams, validate
from .states import (
    DEFAULT_DIM,
    Coherent,
    Fock,
    Squeezed,
    apply_loss_channel,
    coherent_fidelity,
    fidelity,
    fock_dm,
    input_variances,
    output_variance,
)
from .transfer import propagation_sweep, semiclassical_sweep

#: Default squeezing magnitude: variance ratio of exactly 4 (6.02 dB).
DEFAULT_SQUEEZE_R = math.log(2.0)

#: A fig2 power column above 1 + PASSIVITY_TOL breaks passivity.
PASSIVITY_TOL = 1e-9
#: Largest gap allowed between the semiclassical and the quantum fig2 columns.
ORACLE_TOL = 1e-6
#: Largest squeezing accepted, in dB either way: the quadrature variances
#: then stay within a factor 1e30 of the vacuum's, far from float overflow.
MAX_SQUEEZE_DB = 300.0
#: Largest Fock input level: the channel's guard wants the top two levels of
#: the DEFAULT_DIM basis empty, and its weighted shift tensor grows as dim^3
#: (its output as grid points x dim^2).
MAX_FOCK_LEVEL = DEFAULT_DIM - 3

_PHYSICAL_KEYS = ("omega_c", "omega_d", "gamma31", "gamma41", "gamma21")

_CONFIG_SCHEMA: dict[str, type] = {
    "alpha_max": float,
    "grid_points": int,
    "state": str,
    "nbar": float,
    "squeeze_db": float,
    "convention_scale": int,
    "out": str,
    "omega_c": complex,
    "omega_d": complex,
    "gamma31": float,
    "gamma41": float,
    "gamma21": float,
}


def format_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(["%.14e"] * len(row)) % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    Path(path).write_text(format_csv(header, rows), encoding="ascii", newline="\n")


def _sweep_params(alphas: np.ndarray, overrides: dict) -> SystemParams:
    """The validated physical parameters of an optical-depth sweep.

    The grid's smallest value stands in for the optical depth, so a
    negative one is a configuration error like an invalid physical key.
    """
    kwargs = {k: overrides[k] for k in _PHYSICAL_KEYS if k in overrides}
    try:
        return validate(SystemParams(alpha=float(np.min(alphas, initial=0.0)), **kwargs))
    except QfcError as exc:
        raise ConfigError(str(exc)) from exc


def _raise_first(*failures: QfcError | None) -> None:
    """Raise the first failure that is not None."""
    for failure in failures:
        if failure is not None:
            raise failure


def _check_oracle(row: list[float]) -> None:
    """QfcError unless a fig2 row is passive and its two routes agree.

    The passing test is spelled out so that a NaN column fails it.
    """
    alpha, tq, cq, ts, cs = row
    limit = 1 + PASSIVITY_TOL
    if (
        tq <= limit
        and cq <= limit
        and ts <= limit
        and cs <= limit
        and abs(ts - tq) <= ORACLE_TOL
        and abs(cs - cq) <= ORACLE_TOL
    ):
        return
    excess = [v for v in row[1:] if v > limit]
    if excess:
        raise QfcError(f"at alpha={alpha!r}: passivity broken, largest power column {max(excess):.6g}")
    gap = float(np.maximum(abs(ts - tq), abs(cs - cq)))  # a NaN gap stays NaN
    raise QfcError(
        f"at alpha={alpha!r}: semiclassical columns leave the quantum ones by {gap:.3e} (limit {ORACLE_TOL})"
    )


def run_fig2(alphas: np.ndarray, overrides: dict | None = None) -> tuple[list[str], list[list[float]]]:
    """Transmittance and CE versus optical depth, quantum and semiclassical.

    The quantum columns come from one propagation_sweep and the
    semiclassical ones from one semiclassical_sweep over the rows the
    quantum sweep solved.  A row whose power columns exceed
    1 + PASSIVITY_TOL, or whose semiclassical columns leave the quantum
    ones by more than ORACLE_TOL, is a numerical failure: it is never
    written.
    """
    overrides = overrides or {}
    header = ["alpha", "tp_quantum", "ce_quantum", "tp_semiclassical", "ce_semiclassical"]
    params = _sweep_params(alphas, overrides)
    quantum = propagation_sweep(params, alphas)
    classical = semiclassical_sweep(params, quantum.alphas)
    rows = []
    for alpha, a0, c0, ts, cs in zip(
        classical.alphas,
        quantum.resolved[:, 0, 0],
        quantum.resolved[:, 1, 0],
        classical.transmittance,
        classical.conversion_efficiency,
    ):
        # |A|^2 from numpy scalars: an array ** 2 can round differently in the last bit
        row = [float(alpha), float(abs(a0) ** 2), float(abs(c0) ** 2), float(ts), float(cs)]
        _check_oracle(row)
        rows.append(row)
    _raise_first(classical.failure, quantum.failure)
    return header, rows


def run_fig3(ces: np.ndarray) -> tuple[list[str], list[list[float]]]:
    """Fidelity versus CE: coherent nbar = 1 and 10, one-photon Fock."""
    header = ["ce", "fid_coherent_n1", "fid_coherent_n10", "fid_fock1"]
    rows = []
    for ce in ces:
        ce = float(ce)
        rows.append(
            [ce, coherent_fidelity(1.0, ce), coherent_fidelity(10.0, ce), math.sqrt(ce)]
        )
    return header, rows


def run_fig4(
    ces: np.ndarray,
    variant: str,
    convention_scale: float = 1.0,
    squeeze_r: float = DEFAULT_SQUEEZE_R,
) -> tuple[list[str], list[list[float]]]:
    """Output quadrature variances versus CE.

    Variant "a" uses a squeezed input (anti-squeezed quadrature on X),
    variant "b" the one-photon Fock state; columns are multiplied by
    ``convention_scale`` (2 reproduces the doubled-variance convention).
    """
    if variant not in ("a", "b"):
        raise ConfigError(f"fig4 variant must be 'a' or 'b', got {variant!r}")
    state = Squeezed(squeeze_r) if variant == "a" else Fock(1)
    vin = input_variances(state)
    header = ["ce", "var_x", "var_y"]
    rows = []
    for ce in ces:
        ce = float(ce)
        rows.append(
            [
                ce,
                convention_scale * output_variance(vin.var_x, ce),
                convention_scale * output_variance(vin.var_y, ce),
            ]
        )
    return header, rows


def run_custom(
    alphas: np.ndarray,
    state_kind: str,
    nbar: float,
    convention_scale: float = 1.0,
    squeeze_r: float = DEFAULT_SQUEEZE_R,
    overrides: dict | None = None,
) -> tuple[list[str], list[list[float]]]:
    """Combined optical-depth sweep for one input state.

    One propagation_sweep gives every row's probe transmittance |A_0|^2,
    CE |C_0|^2 and channel amplitude C_0.  Each row emits those plus the
    conversion fidelity (Fock input: |n><n| pushed through the loss
    channel on the truncated basis in one call for the sweep's whole
    stack of amplitudes, read off the stack's diagonal; coherent input:
    closed-form overlap) and the converted-signal quadrature variances.
    An amplitude with |C_0| > 1 is a NonPassiveAmplitude naming its
    alpha.  Squeezed inputs carry no fidelity column.  ``nbar`` is the
    Fock level, a whole number in [0, MAX_FOCK_LEVEL], or the
    coherent mean photon number, finite and >= 0; anything else is a
    ConfigError.
    """
    overrides = overrides or {}
    if state_kind == "fock":
        if not (0 <= nbar <= MAX_FOCK_LEVEL and float(nbar).is_integer()):
            raise ConfigError(f"a Fock input needs a whole nbar in [0, {MAX_FOCK_LEVEL}], got {nbar}")
        state: Fock | Coherent | Squeezed = Fock(int(nbar))
    elif state_kind == "coherent":
        if not 0 <= nbar < math.inf:
            raise ConfigError(f"a coherent input needs a finite nbar >= 0, got {nbar}")
        state = Coherent(math.sqrt(nbar))
    elif state_kind == "squeezed":
        state = Squeezed(squeeze_r)
    else:
        raise ConfigError(f"unknown state {state_kind!r}")

    with_fidelity = not isinstance(state, Squeezed)
    header = ["alpha", "tp", "ce"] + (["fidelity"] if with_fidelity else []) + ["var_x", "var_y"]
    vin = input_variances(state)
    quantum = propagation_sweep(_sweep_params(alphas, overrides), alphas)
    amplitudes = quantum.resolved[:, 1, 0]
    if isinstance(state, Fock):
        try:
            channel = apply_loss_channel(fock_dm(state.n), amplitudes)
        except NonPassiveAmplitude as exc:
            alpha = float(quantum.alphas[exc.row])
            raise NonPassiveAmplitude(f"at alpha={alpha!r}: {exc}", exc.row) from exc
        fock_fidelities = fidelity(state, channel)
    rows = []
    for k, alpha in enumerate(quantum.alphas):
        alpha = float(alpha)
        tp = float(abs(quantum.resolved[k, 0, 0]) ** 2)
        ce = abs(complex(amplitudes[k])) ** 2
        row = [alpha, tp, ce]
        if isinstance(state, Fock):
            row.append(float(fock_fidelities[k]))
        elif isinstance(state, Coherent):
            row.append(coherent_fidelity(abs(state.beta) ** 2, ce))
        row.append(convention_scale * output_variance(vin.var_x, ce))
        row.append(convention_scale * output_variance(vin.var_y, ce))
        rows.append(row)
    _raise_first(quantum.failure)
    return header, rows


def parse_config(path: str) -> dict:
    """Read a plain-text key=value configuration file."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_SCHEMA[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw_value!r}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitqfc",
        description="Deterministic CSV sweeps of the FWM frequency-conversion model.",
    )
    parser.add_argument("command", choices=("fig2", "fig3", "fig4", "custom"))
    parser.add_argument("--alpha-max", type=float, default=None, help="largest optical depth")
    parser.add_argument("--grid-points", type=int, default=None, help="number of grid points")
    parser.add_argument("--state", choices=("fock", "coherent", "squeezed"), default=None)
    parser.add_argument("--nbar", type=float, default=None, help="mean photon number / Fock level")
    parser.add_argument("--squeeze-db", type=float, default=None, help="squeezing in dB")
    parser.add_argument("--convention-scale", type=int, choices=(1, 2), default=None)
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    return parser


_DEFAULTS = {
    "fig2": {"alpha_max": 400.0, "grid_points": 401, "out": "fig2.csv"},
    "fig3": {"grid_points": 101, "out": "fig3.csv"},
    "fig4": {"grid_points": 101, "state": "squeezed", "convention_scale": 1, "out": "fig4.csv"},
    "custom": {
        "alpha_max": 400.0,
        "grid_points": 401,
        "state": "fock",
        "nbar": 1.0,
        "convention_scale": 1,
        "out": "custom.csv",
    },
}


def _merge_settings(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit CLI flags."""
    settings = dict(_DEFAULTS[args.command])
    if args.config is not None:
        settings.update(parse_config(args.config))
    for key in ("alpha_max", "grid_points", "state", "nbar", "squeeze_db", "convention_scale", "out"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings.get("convention_scale", 1) not in (1, 2):  # the flag's choices, for a config file's value
        raise ConfigError(f"convention_scale must be 1 or 2, got {settings['convention_scale']}")
    return settings


def _squeeze_r(settings: dict) -> float:
    if settings.get("squeeze_db") is None:
        return DEFAULT_SQUEEZE_R
    squeeze_db = float(settings["squeeze_db"])
    if not abs(squeeze_db) <= MAX_SQUEEZE_DB:
        raise ConfigError(
            f"squeeze_db must lie in [-{MAX_SQUEEZE_DB:g}, {MAX_SQUEEZE_DB:g}], got {squeeze_db}"
        )
    return squeeze_db * math.log(10.0) / 20.0


def _alpha_grid(settings: dict) -> np.ndarray:
    n = int(settings["grid_points"])
    alpha_max = float(settings["alpha_max"])
    if n < 1:
        raise ConfigError(f"grid_points must be >= 1, got {n}")
    if not 0.0 <= alpha_max <= 1e6:  # also rejects NaN
        raise ConfigError(f"alpha_max must lie in [0, 1e6], got {alpha_max}")
    if n > 1 and alpha_max == 0.0:
        raise ConfigError("alpha_max = 0 only supports a single grid point")
    return np.linspace(0.0, alpha_max, n)


def _ce_grid(settings: dict) -> np.ndarray:
    n = int(settings["grid_points"])
    if n < 1:
        raise ConfigError(f"grid_points must be >= 1, got {n}")
    return np.linspace(0.0, 1.0, n)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_settings(args)
        overrides = {k: settings[k] for k in _PHYSICAL_KEYS if k in settings}
        if args.command == "fig2":
            header, rows = run_fig2(_alpha_grid(settings), overrides)
        elif args.command == "fig3":
            header, rows = run_fig3(_ce_grid(settings))
        elif args.command == "fig4":
            state = settings.get("state", "squeezed")
            if state == "squeezed":
                variant = "a"
            elif state == "fock":
                variant = "b"
            else:
                raise ConfigError("fig4 supports --state squeezed (variant a) or fock (variant b)")
            header, rows = run_fig4(
                _ce_grid(settings),
                variant,
                float(settings.get("convention_scale", 1)),
                _squeeze_r(settings),
            )
        else:
            header, rows = run_custom(
                _alpha_grid(settings),
                settings.get("state", "fock"),
                float(settings.get("nbar", 1.0)),
                float(settings.get("convention_scale", 1)),
                _squeeze_r(settings),
                overrides,
            )
    except ConfigError as exc:
        print(f"eitqfc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except QfcError as exc:
        print(f"eitqfc: numerical failure: {exc}", file=sys.stderr)
        return 3

    write_csv(settings["out"], header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
