"""Untimed probes of two known defects; reported, never counted as failed operations.

(a) Asymmetric or dephased configurations: the semiclassical column of
    `fig2` loses passivity (transmittance up to ~1e64) and leaves the
    quantum column from alpha ~ 78 on, yet the run exits 0.
(b) omega_d = 2 at alpha up to 20000: `fig2` writes NaN quantum columns
    with exit 0 and `custom` escapes with an OverflowError.

A probe passes when the CLI either exits 3 (the documented numerical
failure) or exits 0 with output that is finite, passive and, for `fig2`,
has semiclassical columns within 1e-6 of the quantum ones.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

from eitqfc import cli

PROBES = (
    ("a_asymmetric_fig2", "omega_c = 1.5\nomega_d = 0.8\n", ["fig2", "--grid-points", "41"]),
    (
        "a_dephased_fig2",
        "omega_c = 1.2\nomega_d = 1.0\ngamma21 = 0.01\n",
        ["fig2", "--grid-points", "41"],
    ),
    ("b_large_od_fig2", "omega_d = 2\n", ["fig2", "--alpha-max", "20000", "--grid-points", "5"]),
    ("b_large_od_custom", "omega_d = 2\n", ["custom", "--alpha-max", "20000", "--grid-points", "5"]),
)

SEMICLASSICAL_TOL = 1e-6
PASSIVITY_TOL = 1e-9


def _defects_in(path: Path) -> list[str]:
    with path.open(newline="") as f:
        table = list(csv.DictReader(f))
    found = []
    values = [(k, float(v)) for row in table for k, v in row.items() if k != "alpha"]
    bad = [k for k, v in values if not math.isfinite(v)]
    if bad:
        found.append(f"{len(bad)} non-finite values ({bad[0]} first)")
    powers = [(k, v) for k, v in values if k.startswith(("tp", "ce")) and math.isfinite(v)]
    worst = max(powers, key=lambda kv: kv[1], default=None)
    if worst is not None and worst[1] > 1 + PASSIVITY_TOL:
        found.append(f"passivity broken: {worst[0]} = {worst[1]:.3g}")
    for row in table:
        gaps = [
            abs(float(row[f"{q}_semiclassical"]) - float(row[f"{q}_quantum"]))
            for q in ("tp", "ce")
            if f"{q}_quantum" in row
        ]
        if any(not gap <= SEMICLASSICAL_TOL for gap in gaps):
            found.append(f"semiclassical leaves quantum from alpha = {float(row['alpha']):g}")
            break
    return found


def run_probes(workdir: Path) -> dict[str, str]:
    """Run every probe; map its name to "ok: ..." or "defect: ..."."""
    report = {}
    for name, config, argv in PROBES:
        cfg = workdir / f"probe-{name}.cfg"
        out = workdir / f"probe-{name}.csv"
        cfg.write_text(config, encoding="ascii")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = cli.main([*argv, "--config", str(cfg), "--out", str(out)])
        except Exception as exc:  # a probe records an escaping error instead of raising it
            report[name] = f"defect: exit via {type(exc).__name__}: {exc}"
            continue
        if code == 3:
            report[name] = "ok: exit 3 (numerical failure reported)"
        elif code != 0:
            report[name] = f"defect: exit {code}"
        else:
            found = _defects_in(out)
            report[name] = "defect: exit 0 with " + "; ".join(found) if found else "ok: exit 0, output valid"
    return report
