"""Batch command-line front end: deterministic CSV parameter sweeps.

Subcommands:

* ``fig2``   -- probe transmittance and conversion efficiency versus
               optical depth, quantum closed-channel columns next to the
               independent semiclassical boundary-value solution, both
               from one unit-depth spectral solve and each one pass over
               the whole grid; a row that breaks
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

Numbers are emitted as "%.14e" writes them (15 significant digits), so rows round-trip
through the CSV; identical inputs produce byte-identical files.  _csv_bytes forms a whole
table in numpy as ASCII bytes, one 28-byte record per number, and format_csv is its text.
write_csv writes those bytes over --out in place and cuts a regular file to length; a pipe
or a device is written but not cut.  parse_config reads its file with os.read.  Exit codes:
0 success, 2 invalid configuration, 3 numerical failure.  A numerical failure names the
first grid value that failed, as a row by row evaluation would meet it, and nothing is written.
_FLAGS declares each --flag once; a command and exact ``--flag value`` pairs are read from it, argparse reads the rest.
_DEFAULTS lists the settings each command reads, whatever its input state; any other flag or config key is exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, NonPassiveAmplitude, QfcError, at, first_failure
from .params import SystemParams
from .states import (
    MAX_FOCK_LEVEL,
    Coherent,
    Fock,
    Squeezed,
    coherent_fidelity,
    fock_fidelity,
    output_variances,
    passive_amplitudes,
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
#: Most grid points a sweep accepts: 25 times the default optical-depth grid.
#: It bounds what one run holds at once, its table, the formatter's words and
#: the CSV text (about 1.3 MB at the limit); a larger request exits 2 before
#: anything is computed.
MAX_GRID_POINTS = 10_001

_PHYSICAL_KEYS = ("omega_c", "omega_d", "gamma31", "gamma41", "gamma21")
_OD_SWEEP = {"alpha_max": 400.0, "grid_points": 401, **dict.fromkeys(_PHYSICAL_KEYS)}  # fig2's and custom's
#: Each command and every setting it reads (None: unset), before the config file and the flags; it refuses any other.
_DEFAULTS = {
    "fig2": {**_OD_SWEEP, "out": "fig2.csv"},
    "fig3": {"grid_points": 101, "out": "fig3.csv"},
    "fig4": {"grid_points": 101, "state": "squeezed", "squeeze_db": None, "convention_scale": 1, "out": "fig4.csv"},
    "custom": {**_OD_SWEEP, "state": "fock", "nbar": 1.0, "squeeze_db": None, "convention_scale": 1,
               "out": "custom.csv"},
}

#: Each --flag: its setting name, its type, the values it accepts (None: any) and its help text.
_FLAGS: dict[str, tuple[str, type, tuple | None, str | None]] = {
    "--alpha-max": ("alpha_max", float, None, "largest optical depth"),
    "--grid-points": ("grid_points", int, None, "number of grid points"),
    "--state": ("state", str, ("fock", "coherent", "squeezed"), None),
    "--nbar": ("nbar", float, None, "mean photon number / Fock level"),
    "--squeeze-db": ("squeeze_db", float, None, "squeezing in dB"),
    "--convention-scale": ("convention_scale", int, (1, 2), None),
    "--out": ("out", str, None, "output CSV path"),
    "--config": ("config", str, None, "key=value config file"),
}
#: Every flag's setting, unset: a Namespace's entries after its command, in the order argparse adds them.
_UNSET = {name: None for name, *_ in _FLAGS.values()}

#: The config file's keys and types: every flag's setting but config, then the physical keys.
_CONFIG_SCHEMA: dict[str, type] = {
    **{name: kind for name, kind, _, _ in _FLAGS.values() if name != "config"},
    **dict(zip(_PHYSICAL_KEYS, (complex, complex, float, float, float))),
}


#: 4x the error of y = |x| 10**(14 - e) in long double (two roundings, y < 1e15): a y this near a
#: half-integer takes its digits from "%.14e", as every y does where long double is plain double.
_TIE_WINDOW = float(4 * np.finfo(np.longdouble).eps * 1e15)


@functools.cache
def _csv_tables() -> tuple[np.ndarray, ...]:
    """10**k in long double, k in [-310, 340], correctly rounded and capped at its largest value; NUL-padded
    words "d.dd" then "-d.dd" (0..999), "dddd" (0..9999), "e+05" with "," then "\\n" last (e in [-324, 308])."""
    pow10 = np.minimum(np.array([b"1e%d" % k for k in range(-310, 341)], np.longdouble), np.finfo(np.longdouble).max)
    end = np.array([b"e%+03d" % e for e in range(-324, 309)] * 2, "S8").view(np.uint8).reshape(2, -1, 8)
    end[:, :, 7] = [[ord(",")], [ord("\n")]]
    quad = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    lead = np.zeros((2, 1000, 8), np.uint8)
    lead[1, :, 0], lead[:, :, 2], lead[:, :, [1, 3, 4]] = ord("-"), ord("."), quad[:1000, 1:]
    return pow10, lead.view(np.uint64).ravel(), quad.view(np.uint32).ravel(), end.view(np.uint64).ravel()


def _csv_bytes(header: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]]) -> bytes:
    """The CSV as ASCII bytes: the header line, then one line of len(header) numbers per row.

    ``rows`` is any (n, len(header)) float array-like; every number reads exactly as "%.14e" % x.
    Finite nonzero x get the digits N = round(y) of y = |x| 10**(14 - e), e = floor(log10 |x|), or
    those of "%.14e" where y is within _TIE_WINDOW of a tie, lies below 1e14 or rounds to 1e15 or more
    (log10 may put e one off).
    Each number is one 28-byte record of _csv_tables words, NULs dropped: lead "d.dd" or "-d.dd" (the sign and
    N // 10**12), three "dddd" (the rest of N) and end "e+05," or "e+05\\n"; nan, inf: word, no digits, separator.
    """
    pow10, lead, quad, end = _csv_tables()
    x = np.asarray(rows, dtype=float).reshape(-1, len(header)).ravel()
    special = np.flatnonzero(~(np.isfinite(x) & (x != 0)))  # zeros, nan and inf
    a = np.abs(x)
    a[special] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * pow10[324 - e]
    n = y.astype(np.int64)
    frac = (y - n).astype(float)
    n += frac >= 0.5
    for i in np.flatnonzero(~(np.abs(frac - 0.5) > _TIE_WINDOW) | (y < 1e14) | (n >= 10**15)):
        text = "%.14e" % a[i]
        n[i], e[i] = int(text[0] + text[2:16]), int(text[17:])
    n[special] = e[special] = 0
    records = np.empty(x.size, [("lead", np.uint64), ("digits", np.uint32, 3), ("end", np.uint64)])
    top = n // 10**12
    rest = n - top * 10**12
    q4 = rest // 10**4
    q8 = q4 // 10**4
    records["lead"] = lead[top + 1000 * np.signbit(x)]
    for j, group in enumerate([q8, q4 - q8 * 10**4, rest - q4 * 10**4]):
        records["digits"][:, j] = quad[group]
    e[len(header) - 1 :: len(header)] += 633  # the newline half of the end table
    records["end"] = end[e + 324]
    nonfinite = special[~np.isfinite(x[special])]
    records["lead"][nonfinite] = np.array(["%.14e" % v for v in x[nonfinite].tolist()], "S8").view(np.uint64)
    records["digits"][nonfinite] = 0
    records["end"][nonfinite] = np.where(e[nonfinite], ord("\n"), ord(","))
    return (",".join(header) + "\n").encode("ascii") + records.tobytes().translate(None, b"\0")


def format_csv(header: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]]) -> str:
    """The CSV text, the bytes write_csv writes (_csv_bytes) decoded as ASCII."""
    return _csv_bytes(header, rows).decode("ascii")


def write_csv(path: str, header: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]]) -> None:
    """Write the CSV bytes (_csv_bytes) over path in place; a path that cannot be written is a ConfigError.
    A regular file is then cut to the bytes written, after a failed write too; a pipe or a device is not cut."""
    data, written = _csv_bytes(header, rows), 0
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            try:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
            finally:
                os.close(fd)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _sweep_params(alphas: np.ndarray, overrides: dict) -> SystemParams:
    """The physical parameters of an optical-depth sweep, from the physical keys of ``overrides`` (None: unset).

    np.min(alphas, initial=0.0) stands in for the optical depth: the
    grid's smallest value, or 0 for an empty grid.  So a negative value
    is a configuration error like an invalid physical key.
    """
    kwargs = {k: overrides[k] for k in _PHYSICAL_KEYS if overrides.get(k) is not None}
    try:
        return SystemParams(alpha=float(np.min(alphas, initial=0.0)), **kwargs)
    except QfcError as exc:
        raise ConfigError(str(exc)) from exc


def _powers(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 of each amplitude in a stack: the correctly rounded square of libm hypot, abs(z) * abs(z).

    np.hypot is libm hypot, bit for bit abs(complex); np.abs may round it
    differently, and libm pow(h, 2) is not always correctly rounded.
    """
    return np.square(np.hypot(amplitudes.real, amplitudes.imag))


def _check_oracle(table: np.ndarray) -> None:
    """QfcError unless every row of the (n, 5) fig2 table is passive and its two routes agree.

    The error names the first row that fails (first_failure); within a
    row, broken passivity comes before a gap.  The gap test is spelled
    out so that a NaN column, whose gap is NaN, fails it.
    """
    above = table[:, 1:] > 1 + PASSIVITY_TOL
    gap = abs(table[:, 3:] - table[:, 1:3]).max(axis=1)

    def broken(k: int) -> QfcError:
        return QfcError(f"passivity broken, largest power column {table[k, 1:][above[k]].max():.6g}")

    def apart(k: int) -> QfcError:
        return QfcError(f"semiclassical columns leave the quantum ones by {gap[k]:.3e} (limit {ORACLE_TOL})")

    _, failure = first_failure(table[:, 0], [(above.any(axis=1), broken), (~(gap <= ORACLE_TOL), apart)])
    if failure is not None:
        raise failure


def run_fig2(alphas: np.ndarray, overrides: dict | None = None) -> tuple[list[str], np.ndarray]:
    """Transmittance and CE versus optical depth, quantum and semiclassical.

    One unit-depth spectral solve serves both routes: the quantum
    columns come from propagation_sweep and the semiclassical ones from
    semiclassical_sweep, the invariant imbedding over the rows the
    quantum route solved, with its generator.  A row whose power
    columns exceed 1 + PASSIVITY_TOL, or whose semiclassical columns
    leave the quantum ones by more than ORACLE_TOL, is a numerical
    failure: it is never written.  A physical key of ``overrides`` set to None is unset.
    """
    overrides = overrides or {}
    header = ["alpha", "tp_quantum", "ce_quantum", "tp_semiclassical", "ce_semiclassical"]
    params = _sweep_params(alphas, overrides)
    quantum = propagation_sweep(params, alphas)
    classical = semiclassical_sweep(quantum)
    solved = quantum.resolved[: classical.alphas.size]
    # column 0 of each resolved matrix holds (A, C): the transmittance and the CE of one route
    table = np.column_stack([classical.alphas, _powers(solved[:, :, 0]), _powers(classical.resolved[:, :, 0])])
    _check_oracle(table)
    for failure in (classical.failure, quantum.failure):
        if failure is not None:
            raise failure
    return header, table


def run_fig3(ces: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Fidelity versus CE: coherent nbar = 1 and 10, one-photon Fock (amplitude sqrt(CE))."""
    header = ["ce", "fid_coherent_n1", "fid_coherent_n10", "fid_fock1"]
    coherent = [coherent_fidelity(nbar, ces, 0.0) for nbar in (1.0, 10.0)]
    return header, np.column_stack([ces, *coherent, fock_fidelity(1, np.sqrt(ces))])


def run_fig4(
    ces: np.ndarray,
    state_kind: str,
    convention_scale: float = 1.0,
    squeeze_r: float = DEFAULT_SQUEEZE_R,
) -> tuple[list[str], np.ndarray]:
    """Output quadrature variances versus CE, at arg C_0 = 0.

    ``state_kind`` "squeezed" (variant a) uses a squeezed input
    (anti-squeezed quadrature on X), "fock" (variant b) the one-photon
    Fock state, and any other state is a ConfigError; columns are
    multiplied by ``convention_scale`` (2 reproduces the doubled-variance
    convention).
    """
    if state_kind not in ("squeezed", "fock"):
        raise ConfigError("fig4 supports --state squeezed (variant a) or fock (variant b)")
    ces = np.asarray(ces, dtype=float)
    out = output_variances(Squeezed(squeeze_r) if state_kind == "squeezed" else Fock(1), ces, 0.0)
    table = np.column_stack([ces, convention_scale * out.var_x, convention_scale * out.var_y])
    return ["ce", "var_x", "var_y"], table


def run_custom(
    alphas: np.ndarray,
    state_kind: str,
    nbar: float,
    convention_scale: float = 1.0,
    squeeze_r: float = DEFAULT_SQUEEZE_R,
    overrides: dict | None = None,
) -> tuple[list[str], np.ndarray]:
    """Combined optical-depth sweep for one input state.

    One propagation_sweep gives every row's probe transmittance |A_0|^2,
    CE |C_0|^2 and channel amplitude C_0.  An amplitude with |C_0| > 1
    beyond rounding is a NonPassiveAmplitude naming its alpha, whatever
    the state; within rounding the fidelity and variance laws take the CE
    as 1.  Next to the transfer columns come the conversion fidelity
    (fock_fidelity or coherent_fidelity; squeezed inputs carry none) and
    the converted-signal quadrature variances (output_variances), closed
    forms in each row's CE and arg C_0, each one call on the whole stack.
    ``nbar`` is the Fock level, a whole number in [0, MAX_FOCK_LEVEL],
    or the coherent mean photon number, finite and >= 0; anything else
    is a ConfigError.  A physical key of ``overrides`` set to None is unset.
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

    header = ["alpha", "tp", "ce"] + ([] if isinstance(state, Squeezed) else ["fidelity"]) + ["var_x", "var_y"]
    quantum = propagation_sweep(_sweep_params(alphas, overrides), alphas)
    try:
        amplitudes = passive_amplitudes(quantum.resolved[:, 1, 0])
    except NonPassiveAmplitude as exc:
        raise at(quantum.alphas[exc.row], exc) from exc
    ces = _powers(amplitudes)
    columns = [quantum.alphas, _powers(quantum.resolved[:, 0, 0]), ces]
    # a passive amplitude's CE exceeds 1 at most by rounding
    ce_column, phases = np.minimum(ces, 1.0), np.angle(amplitudes)
    if isinstance(state, Fock):
        columns.append(fock_fidelity(state.n, amplitudes))
    elif isinstance(state, Coherent):
        columns.append(coherent_fidelity(nbar, ce_column, phases))
    out = output_variances(state, ce_column, phases)
    table = np.column_stack(columns + [convention_scale * out.var_x, convention_scale * out.var_y])
    if quantum.failure is not None:
        raise quantum.failure
    return header, table


def parse_config(path: str) -> dict:
    """Read a plain-text key=value configuration file: os.read to end of file, decoded as UTF-8 less a
    leading BOM; splitlines ends a line at LF, CRLF or a lone CR.  An unreadable path is a ConfigError."""
    values: dict = {}
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            text = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b"")).decode("utf-8-sig")
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or a UnicodeDecodeError
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The eitqfc argument parser, built on first use from _DEFAULTS' commands and _FLAGS, and shared."""
    parser = argparse.ArgumentParser(
        prog="eitqfc",
        description="Deterministic CSV sweeps of the FWM frequency-conversion model.",
    )
    parser.add_argument("command", choices=tuple(_DEFAULTS))
    for flag, (name, kind, choices, text) in _FLAGS.items():
        parser.add_argument(flag, dest=name, type=kind, choices=choices, help=text)
    return parser


def _parse_argv(argv: Sequence[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv), read from _FLAGS when argv is a command and exact ``--flag value``
    pairs of str values that do not start with "-" and pass their flag's type and choices.
    Any other argv, or a value that fails, goes to argparse, which writes every usage, error and help text."""
    plain = isinstance(argv, (list, tuple)) and len(argv) % 2 and all(type(item) is str for item in argv)
    if plain and argv[0] in _DEFAULTS:
        args = argparse.Namespace(command=argv[0], **_UNSET)
        for flag, text in zip(argv[1::2], argv[2::2]):
            if flag not in _FLAGS or text.startswith("-"):
                break
            name, kind, choices, _ = _FLAGS[flag]
            try:
                value = kind(text)
            except ValueError:
                break
            if choices is not None and value not in choices:
                break
            setattr(args, name, value)
        else:
            return args
    return build_parser().parse_args(argv)


def _merge_settings(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit CLI flags, over the settings the command reads: its _DEFAULTS entry.
    Any other config key or flag is a ConfigError, raised before any value is checked.  The rule is per command:
    a setting one of its states leaves unread (--squeeze-db with a Fock input, --nbar with a squeezed one) passes."""
    settings = dict(_DEFAULTS[args.command])
    given = parse_config(args.config) if args.config is not None else {}
    given.update((k, v) for k, v in vars(args).items() if v is not None and k in _CONFIG_SCHEMA)
    for name in given:
        if name not in settings:
            raise ConfigError(f"{args.command} does not read {name}")
    settings.update(given)
    scale, scales = settings.get("convention_scale", 1), _FLAGS["--convention-scale"][2]
    if scale not in scales:  # the flag's choices, for a config file's value
        raise ConfigError(f"convention_scale must be {' or '.join(map(str, scales))}, got {scale}")
    return settings


def _squeeze_r(settings: dict) -> float:
    squeeze_db = settings["squeeze_db"]  # a float, from the flag or the config file, or None
    if squeeze_db is None:
        return DEFAULT_SQUEEZE_R
    if not abs(squeeze_db) <= MAX_SQUEEZE_DB:
        raise ConfigError(f"squeeze_db must lie in [-{MAX_SQUEEZE_DB:g}, {MAX_SQUEEZE_DB:g}], got {squeeze_db}")
    return squeeze_db * math.log(10.0) / 20.0


def _grid_points(settings: dict) -> int:
    n = int(settings["grid_points"])
    if n < 1:
        raise ConfigError(f"grid_points must be >= 1, got {n}")
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"grid_points must be <= {MAX_GRID_POINTS}, got {n}")
    return n


def _alpha_grid(settings: dict) -> np.ndarray:
    n = _grid_points(settings)
    alpha_max = float(settings["alpha_max"])
    if not 0.0 <= alpha_max <= 1e6:  # also rejects NaN
        raise ConfigError(f"alpha_max must lie in [0, 1e6], got {alpha_max}")
    if n > 1 and alpha_max == 0.0:
        raise ConfigError("alpha_max = 0 only supports a single grid point")
    return np.linspace(0.0, alpha_max, n)


def _ce_grid(settings: dict) -> np.ndarray:
    return np.linspace(0.0, 1.0, _grid_points(settings))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command (module docstring); _parse_argv reads a command and exact --flag value pairs from _FLAGS."""
    args = _parse_argv(argv)
    try:
        settings = _merge_settings(args)
        if args.command == "fig2":
            header, rows = run_fig2(_alpha_grid(settings), settings)
        elif args.command == "fig3":
            header, rows = run_fig3(_ce_grid(settings))
        elif args.command == "fig4":
            header, rows = run_fig4(
                _ce_grid(settings), settings["state"], settings["convention_scale"], _squeeze_r(settings)
            )
        else:
            header, rows = run_custom(
                _alpha_grid(settings),
                settings["state"],
                settings["nbar"],
                settings["convention_scale"],
                _squeeze_r(settings),
                settings,
            )
        write_csv(settings["out"], header, rows)
    except ConfigError as exc:
        print(f"eitqfc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except QfcError as exc:
        print(f"eitqfc: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
