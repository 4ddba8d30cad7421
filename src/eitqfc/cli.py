"""Batch command-line front end: deterministic CSV parameter sweeps.

Subcommands:

* ``fig2``   -- probe transmittance and conversion efficiency versus
               optical depth, quantum closed-channel columns next to the
               independent semiclassical boundary-value solution;
* ``fig3``   -- conversion fidelity versus CE for coherent inputs with
               mean photon number 1 and 10 and for the one-photon Fock
               input;
* ``fig4``   -- output quadrature variances versus CE for a squeezed
               (variant a) or one-photon Fock (variant b) input;
* ``custom`` -- combined sweep over optical depth emitting transfer,
               fidelity and variance columns for a chosen input state.

Numbers are emitted with 15 significant digits so rows round-trip
through the CSV; identical inputs produce byte-identical files.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, QfcError
from .params import SystemParams, validate
from .states import (
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
from .transfer import resolved_coefficients, semiclassical_solve

#: Default squeezing magnitude: variance ratio of exactly 4 (6.02 dB).
DEFAULT_SQUEEZE_R = math.log(2.0)

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


def _format(value: float) -> str:
    return f"{value:.14e}"


def format_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    Path(path).write_text(format_csv(header, rows), encoding="ascii", newline="\n")


def _base_params(alpha: float, overrides: dict) -> SystemParams:
    kwargs = {k: overrides[k] for k in _PHYSICAL_KEYS if k in overrides}
    try:
        return validate(SystemParams(alpha=alpha, **kwargs))
    except QfcError as exc:
        raise ConfigError(str(exc)) from exc


def run_fig2(alphas: np.ndarray, overrides: dict | None = None) -> tuple[list[str], list[list[float]]]:
    """Transmittance and CE versus optical depth, quantum and semiclassical."""
    overrides = overrides or {}
    header = ["alpha", "tp_quantum", "ce_quantum", "tp_semiclassical", "ce_semiclassical"]
    rows = []
    for alpha in alphas:
        params = _base_params(float(alpha), overrides)
        try:
            a0, _, c0, _ = resolved_coefficients(params, 0.0)
            tq = float(abs(a0) ** 2)
            cq = float(abs(c0) ** 2)
            ts, cs = semiclassical_solve(params)
        except QfcError as exc:
            raise type(exc)(f"at alpha={float(alpha)!r}: {exc}") from exc
        rows.append([float(alpha), tq, cq, ts, cs])
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

    Each row runs the transfer pipeline once for the probe transmittance
    |A_0|^2, the CE |C_0|^2 and the channel amplitude C_0.  It emits
    those plus the conversion fidelity (Fock input: |n><n| pushed through
    the Kraus-form loss channel on the truncated basis; coherent input:
    closed-form overlap) and the converted-signal quadrature variances.
    Squeezed inputs carry no fidelity column.
    """
    overrides = overrides or {}
    if state_kind == "fock":
        state: Fock | Coherent | Squeezed = Fock(int(round(nbar)))
    elif state_kind == "coherent":
        state = Coherent(math.sqrt(nbar))
    elif state_kind == "squeezed":
        state = Squeezed(squeeze_r)
    else:
        raise ConfigError(f"unknown state {state_kind!r}")

    with_fidelity = not isinstance(state, Squeezed)
    header = ["alpha", "tp", "ce"] + (["fidelity"] if with_fidelity else []) + ["var_x", "var_y"]
    vin = input_variances(state)
    rho_in = fock_dm(state.n) if isinstance(state, Fock) else None
    rows = []
    for alpha in alphas:
        params = _base_params(float(alpha), overrides)
        try:
            a0, _, c0, _ = resolved_coefficients(params, 0.0)
            tp = float(abs(a0) ** 2)
            c0 = complex(c0)
            ce = abs(c0) ** 2
            row = [float(alpha), tp, ce]
            if isinstance(state, Fock):
                rho_out = apply_loss_channel(rho_in, c0)
                row.append(fidelity(state, rho_out))
            elif isinstance(state, Coherent):
                row.append(coherent_fidelity(abs(state.beta) ** 2, ce))
            row.append(convention_scale * output_variance(vin.var_x, ce))
            row.append(convention_scale * output_variance(vin.var_y, ce))
        except QfcError as exc:
            raise type(exc)(f"at alpha={float(alpha)!r}: {exc}") from exc
        rows.append(row)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fig2", "fig3", "fig4", "custom"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--alpha-max", type=float, default=None, help="largest optical depth")
        cmd.add_argument("--grid-points", type=int, default=None, help="number of grid points")
        cmd.add_argument("--state", choices=("fock", "coherent", "squeezed"), default=None)
        cmd.add_argument("--nbar", type=float, default=None, help="mean photon number / Fock level")
        cmd.add_argument("--squeeze-db", type=float, default=None, help="squeezing in dB")
        cmd.add_argument("--convention-scale", type=int, choices=(1, 2), default=None)
        cmd.add_argument("--out", type=str, default=None, help="output CSV path")
        cmd.add_argument("--config", type=str, default=None, help="key=value config file")
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
    return settings


def _squeeze_r(settings: dict) -> float:
    if settings.get("squeeze_db") is None:
        return DEFAULT_SQUEEZE_R
    return float(settings["squeeze_db"]) * math.log(10.0) / 20.0


def _alpha_grid(settings: dict) -> np.ndarray:
    n = int(settings["grid_points"])
    alpha_max = float(settings["alpha_max"])
    if n < 1:
        raise ConfigError(f"grid_points must be >= 1, got {n}")
    if alpha_max < 0 or alpha_max > 1e6:
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
