import argparse
import cmath
import contextlib
import errno
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitqfc import cli, transfer
from eitqfc.cli import (
    format_csv,
    main,
    parse_config,
    run_fig2,
    run_fig3,
    run_fig4,
    run_custom,
)
from eitqfc.errors import ConfigError, IllPosedBoundary, NonPassiveAmplitude, QfcError
from eitqfc.params import SystemParams
from eitqfc.states import Coherent, apply_loss_channel, coherent_dm, coherent_fidelity, fidelity
from eitqfc.transfer import propagation_sweep, semiclassical_sweep
from test_states import quadrature_moments, squeezed_dm


def _fig2_rows(path: Path) -> np.ndarray:
    """The rows of a fig2 CSV as an (n, 5) array, after checking its header."""
    header, *lines = path.read_text().splitlines()
    assert header == "alpha,tp_quantum,ce_quantum,tp_semiclassical,ce_semiclassical"
    return np.array([[float(v) for v in line.split(",")] for line in lines])


class TestRunFig2:
    def test_empty_medium_row(self):
        _, rows = run_fig2(np.array([0.0]))
        assert rows[0] == pytest.approx([0.0, 1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_crossover_row(self):
        _, rows = run_fig2(np.array([4.0]))
        assert rows[0] == pytest.approx([4.0, 0.25, 0.25, 0.25, 0.25], abs=1e-9)

    def test_headline_row(self):
        header, rows = run_fig2(np.array([200.0]))
        assert header == ["alpha", "tp_quantum", "ce_quantum", "tp_semiclassical", "ce_semiclassical"]
        tp, ce = (4 / 204) ** 2, (200 / 204) ** 2
        assert rows[0][1] == pytest.approx(tp, rel=1e-12)
        assert rows[0][2] == pytest.approx(ce, rel=1e-12)
        assert rows[0][3] == pytest.approx(tp, abs=1e-6)
        assert rows[0][4] == pytest.approx(ce, abs=1e-6)

    def test_both_routes_share_one_unit_depth_solve(self, monkeypatch):
        # M(alpha) = alpha M(1): the quantum and the semiclassical columns scale the same generator
        real_solve, solves = transfer.solve_susceptibility_stack, []

        def counting_solve(params, omegas):
            solves.append((params.alpha, list(omegas)))
            return real_solve(params, omegas)

        monkeypatch.setattr(transfer, "solve_susceptibility_stack", counting_solve)
        _, rows = run_fig2(np.linspace(0.0, 400.0, 401))
        assert len(rows) == 401
        assert solves == [(1.0, [0.0])]

    def test_largest_optical_depth_passes_the_oracle_gate(self):
        alphas = np.linspace(0.0, 1e6, 401)
        _, rows = run_fig2(alphas, {"omega_c": 2.2j, "omega_d": 2.2j})
        assert [row[0] for row in rows] == list(alphas)
        for alpha, tq, cq, ts, cs in rows:
            assert abs(ts - tq) <= 1e-6 and abs(cs - cq) <= 1e-6
            assert abs(cq - (alpha / (4 + alpha)) ** 2) <= 1e-12

    @pytest.mark.parametrize(
        "row, message",
        [
            ([90.0, 0.1, 0.8, 2.6e64, 0.8], "passivity broken, largest power column 2.6e+64"),
            ([90.0, 0.1, 0.8, 0.1, float("nan")], "leave the quantum ones by nan"),
            ([90.0, 0.1, 0.8, 0.1, 0.8 + 2e-6], "leave the quantum ones by 2.000e-06"),
        ],
    )
    def test_oracle_gate(self, row, message):
        with pytest.raises(QfcError, match=r"^at alpha=90\.0: ") as exc:
            cli._check_oracle(np.array([row]))
        assert message in str(exc.value)
        cli._check_oracle(np.array([[90.0, 0.1, 0.8, 0.1 + 9e-7, 0.8]]))

    def test_oracle_gate_names_the_first_failing_row_of_a_table(self):
        table = np.array(
            [
                [10.0, 0.1, 0.8, 0.1, 0.8],
                [20.0, 0.1, 0.8, 0.1, 0.8 + 2e-6],
                [30.0, 0.1, 0.8, 2.6e64, 0.8],
            ]
        )
        with pytest.raises(QfcError, match=r"^at alpha=20\.0: .* by 2\.000e-06 "):
            cli._check_oracle(table)
        cli._check_oracle(table[:1])
        cli._check_oracle(table[:0])

    def test_negative_optical_depth_is_a_configuration_error(self):
        with pytest.raises(ConfigError, match="optical depth"):
            run_fig2(np.array([0.0, -1.0]))


class TestRunFig3:
    def test_perfect_conversion_row(self):
        _, rows = run_fig3(np.array([1.0]))
        assert rows[0] == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-14)

    def test_headline_fidelity(self):
        _, rows = run_fig3(np.array([0.9612]))
        assert rows[0][3] == pytest.approx(0.9804, abs=1e-4)

    def test_quarter_ce_row(self):
        _, rows = run_fig3(np.array([0.25]))
        assert rows[0][3] == pytest.approx(0.5, abs=1e-14)
        assert rows[0][1] == pytest.approx(math.exp(-0.125), rel=1e-12)

    def test_column_order(self):
        header, _ = run_fig3(np.array([0.5]))
        assert header == ["ce", "fid_coherent_n1", "fid_coherent_n10", "fid_fock1"]


class TestRunFig4:
    def test_squeezed_endpoints_doubled_convention(self):
        _, rows = run_fig4(np.array([0.0, 1.0]), "squeezed", convention_scale=2.0)
        assert rows[0][1:] == pytest.approx([0.5, 0.5], abs=1e-14)
        assert rows[1][1:] == pytest.approx([2.0, 0.125], abs=1e-14)

    def test_squeezed_endpoints_internal_convention(self):
        _, rows = run_fig4(np.array([0.0, 1.0]), "squeezed", convention_scale=1.0)
        assert rows[0][1:] == pytest.approx([0.25, 0.25], abs=1e-14)
        assert rows[1][1:] == pytest.approx([1.0, 0.0625], abs=1e-14)

    def test_fock_variant_symmetric(self):
        _, rows = run_fig4(np.linspace(0, 1, 11), "fock", convention_scale=1.0)
        for row in rows:
            assert row[1] == row[2]

    def test_bad_variant(self):
        message = r"^fig4 supports --state squeezed \(variant a\) or fock \(variant b\)$"
        with pytest.raises(ConfigError, match=message):
            run_fig4(np.array([0.5]), "coherent")


class TestRunCustom:
    def test_fock_headline(self):
        header, rows = run_custom(np.array([200.0]), "fock", nbar=1.0)
        assert header == ["alpha", "tp", "ce", "fidelity", "var_x", "var_y"]
        assert rows[0][2] == pytest.approx((200 / 204) ** 2, rel=1e-12)
        assert rows[0][3] == pytest.approx(200 / 204, abs=1e-10)

    def test_squeezed_drops_fidelity_column(self):
        header, rows = run_custom(np.array([4.0]), "squeezed", nbar=1.0)
        assert header == ["alpha", "tp", "ce", "var_x", "var_y"]
        assert len(rows[0]) == 5

    def test_unknown_state(self):
        with pytest.raises(ConfigError):
            run_custom(np.array([1.0]), "thermal", nbar=1.0)

    def test_coherent_fidelity_follows_the_phase_of_c0(self, tmp_path):
        # omega_d = -1 gives C0 = -0.9804 at alpha = 200; the loss channel keeps that sign, and so does the column
        cfg, out = tmp_path / "negative_drive.cfg", tmp_path / "custom.csv"
        cfg.write_text("omega_d = -1\n")
        argv = ["custom", "--state", "coherent", "--nbar", "1", "--config", str(cfg), "--alpha-max", "200"]
        assert main([*argv, "--grid-points", "2", "--out", str(out)]) == 0
        written = float(out.read_text().splitlines()[-1].split(",")[3])
        c0 = propagation_sweep(SystemParams(alpha=200.0, omega_d=-1.0), [200.0]).resolved[0, 1, 0]
        channel = fidelity(Coherent(1.0), apply_loss_channel(coherent_dm(1.0), c0))
        assert channel == pytest.approx(0.14072, abs=1e-5)
        assert written == pytest.approx(channel, abs=1e-9)

    @pytest.mark.parametrize("nbar", [2.0, 3.0, 10.0])
    def test_coherent_column_is_the_law_at_the_setting_nbar(self, nbar):
        # sqrt(nbar) ** 2 is not nbar for these: the column takes the setting itself
        alphas = np.linspace(0.0, 400.0, 401)
        _, rows = run_custom(alphas, "coherent", nbar=nbar)
        phases = np.angle(propagation_sweep(cli._sweep_params(alphas, {}), alphas).resolved[:, 1, 0])
        ces = np.minimum(rows[:, 2], 1.0)  # the row's own CE, as the column reads it
        law = np.array([coherent_fidelity(nbar, ce, phase) for ce, phase in zip(ces.tolist(), phases.tolist())])
        assert np.array_equal(rows[:, 3].view(np.int64), law.view(np.int64))

    def test_squeezed_variances_follow_the_phase_of_c0(self, tmp_path):
        # arg omega_d = pi/4 turns C0 by -pi/4: the squeezed ellipse lies diagonal, so both quadratures read alike
        cfg, out = tmp_path / "turned_drive.cfg", tmp_path / "custom.csv"
        cfg.write_text(PHASED_SWEEP_RUNS["quarter-turn drive"][0])
        argv = ["custom", "--state", "squeezed", "--config", str(cfg), "--alpha-max", "200"]
        assert main([*argv, "--grid-points", "2", "--out", str(out)]) == 0
        written = [float(v) for v in out.read_text().splitlines()[-1].split(",")[3:]]
        c0 = propagation_sweep(SystemParams(alpha=200.0, omega_d=QUARTER_TURN), [200.0]).resolved[0, 1, 0]
        var_x, var_y, _ = quadrature_moments(apply_loss_channel(squeezed_dm(math.log(2.0), 0.0, 50), c0))
        assert (var_x, var_y) == pytest.approx((0.520329, 0.520329), abs=1e-6)
        assert written == pytest.approx([var_x, var_y], abs=1e-9)


def test_degenerate_alpha_grid_rejected(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["fig2", "--alpha-max", "0", "--grid-points", "5", "--out", str(out)]) == 2


def _percent_csv(header, rows):
    """The CSV text by one "%.14e" per value: the format format_csv reproduces."""
    values = tuple(itertools.chain.from_iterable(np.asarray(rows, dtype=float).reshape(-1, len(header)).tolist()))
    line = ",".join(["%.14e"] * len(header)) + "\n"
    return ",".join(header) + "\n" + line * (len(values) // len(header)) % values


def _assert_percent_format(header, rows):
    """format_csv(header, rows) is the "%" text; a failure names the first line that differs."""
    got, want = format_csv(header, rows).split("\n"), _percent_csv(header, rows).split("\n")
    first = next((i for i, pair in enumerate(itertools.zip_longest(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first : first + 1]} != {want[first : first + 1]}"


#: Values at the edges of "%.14e": signed zeros, the subnormal and normal extremes, carries into the
#: next decade, exact ties, every power of ten a double holds, the non-finite values, and last, mantissas
#: with 4-digit groups of 0000 and 9999 at two- and three-digit exponents and subnormal ones.
_EDGE_VALUES = np.concatenate(
    [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
        [1e-310, 9.999999999999995e5, 999999999999999.5, 99999999999999.95, np.nextafter(10.0, 0.0), 0.5, 1.5],
        np.arange(10**14, 10**15, 899_999_999_999) + 0.5,
        -(np.arange(10**14 + 1, 10**15, 1_234_567_890_123) + 0.5),
        [float(f"1e{k}") for k in range(-323, 309)],
        [math.nan, -math.nan, math.inf, -math.inf],
        [
            float(f"{sign}{mantissa}e{k}")
            for mantissa in ("1.00000000000001", "1.00000001", "0.999999999999999")
            for k in (99, -99, 100, -100, -307, -308, -310, -316, -322)
            for sign in "+-"
        ],
    ]
)


class TestCsvFormat:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_edge_values_match_the_percent_format(self, width):
        rows = _EDGE_VALUES[: _EDGE_VALUES.size // width * width].reshape(-1, width)
        header = [f"c{i}" for i in range(width)]
        _assert_percent_format(header, rows)
        _assert_percent_format(header, rows.tolist())

    def test_every_exact_tie_rounds_half_to_even(self):
        ties = np.arange(10**14, 10**14 + 2000) + 0.5
        _assert_percent_format(["t"], ties[:, None])
        text = format_csv(["t"], ties[:, None])
        # 100000000000000.5 and 100000000000001.5 both go to the even neighbour
        assert text.splitlines()[1:3] == ["1.00000000000000e+14", "1.00000000000002e+14"]

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_empty_table_is_the_header_line(self, rows):
        assert format_csv(["a", "b", "c"], rows) == "a,b,c\n"

    @settings(max_examples=300)
    @given(width=st.integers(1, 6), values=st.lists(st.floats(), max_size=60))
    def test_any_floats_match_the_percent_format(self, width, values):
        rows = np.array(values[: len(values) // width * width], dtype=float).reshape(-1, width)
        header = [f"c{i}" for i in range(width)]
        _assert_percent_format(header, rows)

    def test_near_tie_path_alone_gives_the_same_bytes(self, monkeypatch):
        # a window of 1 sends every value through "%.14e", as a plain-double long double does
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(float)
        rows = np.concatenate([_EDGE_VALUES, bits])
        rows = rows[: rows.size // 5 * 5].reshape(-1, 5)
        header = list("abcde")
        monkeypatch.setattr(cli, "_TIE_WINDOW", 1.0)
        _assert_percent_format(header, rows)

    def test_random_bit_patterns_match_the_percent_format(self):
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64).view(float)
        subnormals = rng.random(6_000) * 2.2250738585072014e-308
        rows = np.concatenate([bits, subnormals]).reshape(-1, 6)
        _assert_percent_format(list("abcdef"), rows)

    def test_tables_stay_small(self):
        # a wider digit group (6 digits: an 8 MB table) or an int64 build fails here
        assert sum(table.nbytes for table in cli._csv_tables()) < 128 * 1024
        tracemalloc.start()
        try:
            cli._csv_tables.__wrapped__()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 128 * 1024

    def test_powers_of_ten_table_is_correctly_rounded(self):
        top = np.finfo(np.longdouble).max
        for k, power in zip(range(-310, 341), cli._csv_tables()[0]):
            exact = Fraction(10) ** k
            if exact > Fraction(*top.as_integer_ratio()):
                assert power == top, k  # capped where long double cannot hold 10**k
                continue
            error = abs(Fraction(*power.as_integer_ratio()) - exact)
            assert error <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, k

    @pytest.mark.parametrize(
        "cfg",
        [{}, {"omega_c": 1.5, "omega_d": 0.8}, {"omega_c": 1.2, "omega_d": 1.0, "gamma21": 0.01}],
        ids=["symmetric", "asymmetric", "dephased"],
    )
    def test_sweep_tables_match_the_percent_format(self, cfg):
        alphas = np.linspace(0.0, 400.0, 401)
        for header, rows in (
            run_fig2(alphas, cfg),
            run_custom(alphas, "fock", 1.0, overrides=cfg),
            run_custom(alphas, "coherent", 3.0, overrides=cfg),
        ):
            _assert_percent_format(header, rows)

    def test_ce_tables_match_the_percent_format(self):
        ces = np.linspace(0.0, 1.0, 101)
        for header, rows in (run_fig3(ces), run_fig4(ces, "squeezed"), run_fig4(ces, "fock")):
            _assert_percent_format(header, rows)

    def test_round_trip_precision(self):
        rows = [[math.pi, 1e-17, 0.9611687812379853]]
        text = format_csv(["a", "b", "c"], rows)
        parsed = [float(x) for x in text.splitlines()[1].split(",")]
        for original, back in zip(rows[0], parsed):
            assert abs(back - original) <= 1e-14 * abs(original)

    def test_newline_and_header(self):
        text = format_csv(["x"], [[1.0]])
        assert text == "x\n1.00000000000000e+00\n"

    def test_emitted_file_round_trips(self, tmp_path):
        # every number in a real sweep file survives the format
        out = tmp_path / "f2.csv"
        assert main(["fig2", "--alpha-max", "300", "--grid-points", "7", "--out", str(out)]) == 0
        _, rows = run_fig2(np.linspace(0.0, 300.0, 7))
        lines = out.read_text().splitlines()[1:]
        for line, row in zip(lines, rows):
            for text_value, value in zip(line.split(","), row):
                assert abs(float(text_value) - value) <= 1e-14 * max(abs(value), 1e-300)


#: Text a config file may hold for a value: float reprs with nan and inf, integers, state words, complex numbers.
_CONFIG_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-20_000, 20_000).map(str),
    st.sampled_from(["fock", "coherent", "squeezed", "thermal"]),
    st.complex_numbers().map(str),
)

#: Values drawn for the CLI flags: numbers at and past the limits, complex and state words, junk.
_ARGV_VALUE = st.sampled_from(
    ["nan", "inf", "-1", "0", "1.5", "17", "18", "10002", "1e7", "1+2j", "0.5-3j", "fock", "coherent", "squeezed", "x"]
)
#: Config files for --config: empty, singular (exits 3), out of range, not key=value, and one that is missing.
_ARGV_CONFIGS = {
    "empty.cfg": "",
    "singular.cfg": "omega_c = 0\nomega_d = 0\n",
    "far.cfg": "alpha_max = 1e7\n",
    "junk.cfg": "x\n",
}
#: One flag and its value; a grid of more than 50 points is never drawn, so every run stays small.
_FLAG = st.one_of(
    st.tuples(st.sampled_from(["--alpha-max", "--state", "--nbar", "--squeeze-db", "--convention-scale"]), _ARGV_VALUE),
    st.tuples(st.just("--grid-points"), _ARGV_VALUE.filter(lambda v: not v.isdigit() or int(v) <= 50)),
    st.tuples(st.just("--out"), st.sampled_from(["out.csv", ".", "missing/out.csv"])),
    st.tuples(st.just("--config"), st.sampled_from([*_ARGV_CONFIGS, "missing.cfg"])),
)


class TestMain:
    def test_fig2_writes_file(self, tmp_path):
        out = tmp_path / "f2.csv"
        code = main(["fig2", "--alpha-max", "4", "--grid-points", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,tp_quantum,ce_quantum,tp_semiclassical,ce_semiclassical"
        assert len(lines) == 3

    def test_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for name, extra in (
            ("fig2", ["--alpha-max", "50", "--grid-points", "6"]),
            ("fig3", ["--grid-points", "11"]),
            ("fig4", ["--grid-points", "11", "--convention-scale", "2"]),
            ("custom", ["--alpha-max", "50", "--grid-points", "6"]),
        ):
            assert main([name, *extra, "--out", str(out_a)]) == 0
            assert main([name, *extra, "--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep setup\nalpha_max = 10\ngrid_points = 3\nout = ignored.csv\n")
        out = tmp_path / "cfg.csv"
        code = main(["fig2", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows from config grid
        assert float(lines[-1].split(",")[0]) == 10.0

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha_mx = 10\n")
        assert main(["fig2", "--config", str(cfg)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_points = many\n")
        assert main(["fig3", "--config", str(cfg)]) == 2

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha_max 5\n")
        out = tmp_path / "never.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"eitqfc: invalid configuration: {cfg}:1: expected key=value, got 'alpha_max 5'\n"
        )
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # vanishing Rabi fields make the line-center response singular
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("omega_c = 0\nomega_d = 0\n")
        out = tmp_path / "never.csv"
        code = main(
            ["fig2", "--config", str(cfg), "--alpha-max", "4", "--grid-points", "2", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "alpha=" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2", "custom"])
    def test_large_optical_depth_writes_finite_passive_rows(self, tmp_path, command):
        # with omega_d = 2 the unscaled e^{-ML} route broke down from alpha = 5000 on
        cfg = tmp_path / "large_od.cfg"
        cfg.write_text("omega_d = 2\n")
        out = tmp_path / "large_od.csv"
        argv = [command, "--config", str(cfg), "--alpha-max", "20000", "--grid-points", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        lines = out.read_text().splitlines()
        header, rows = lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0.0, 5000.0, 10000.0, 15000.0, 20000.0]
        assert all(math.isfinite(v) for row in rows for v in row)
        assert header[1:3] in (["tp_quantum", "ce_quantum"], ["tp", "ce"])
        assert all(row[1] + row[2] <= 1.0 + 1e-12 for row in rows)

    @pytest.mark.parametrize(
        "config", ["omega_c = 1.5\nomega_d = 0.8\n", "gamma21 = 0.01\n"], ids=["asymmetric", "dephased"]
    )
    def test_semiclassical_columns_hold_to_the_largest_optical_depth(self, tmp_path, config):
        # the imbedding keeps every slab bounded: the semiclassical columns stay on the quantum ones to alpha = 1e6
        cfg = tmp_path / "large_od.cfg"
        cfg.write_text(config)
        out = tmp_path / "large_od.csv"
        argv = ["fig2", "--config", str(cfg), "--alpha-max", "1e6", "--grid-points", "101", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught] == []
        rows = _fig2_rows(out)
        assert rows[:, 0].tolist() == np.linspace(0.0, 1e6, 101).tolist()
        assert np.isfinite(rows).all()
        assert np.max(rows[:, 3] + rows[:, 4]) <= 1.0 + 1e-12
        assert np.max(np.abs(rows[:, 3:] - rows[:, 1:3])) <= 1e-6

    @pytest.mark.parametrize(
        "config",
        ["omega_c = 1.5\nomega_d = 0.8\n", "omega_c = 1.2\nomega_d = 1.0\ngamma21 = 0.01\n"],
        ids=["asymmetric", "dephased"],
    )
    def test_asymmetric_semiclassical_columns_stay_on_the_quantum_ones(self, tmp_path, capsys, config):
        # the shooting step used to lose the decaying solution here (exit 3 from alpha = 77 and 229)
        cfg = tmp_path / "asymmetric.cfg"
        cfg.write_text(config)
        out = tmp_path / "asymmetric.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = _fig2_rows(out)
        assert rows[:, 0].tolist() == np.linspace(0.0, 400.0, 401).tolist()
        assert np.isfinite(rows).all()
        assert np.max(rows[:, 1:3].sum(axis=1)) <= 1.0 + 1e-12
        assert np.max(rows[:, 3:].sum(axis=1)) <= 1.0 + 1e-12
        assert np.max(np.abs(rows[:, 3:] - rows[:, 1:3])) <= 1e-8

    @pytest.mark.parametrize("command", ["fig2", "custom"])
    def test_singular_response_exits_3_at_first_alpha(self, tmp_path, capsys, command):
        # no Rabi fields and no dephasing: the 3x3 response at omega = 0 is singular for every alpha
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("omega_c = 0\nomega_d = 0\n")
        out = tmp_path / "never.csv"
        assert main([command, "--config", str(cfg), "--grid-points", "11", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("eitqfc: numerical failure: at alpha=0.0: atomic response matrix")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2", "custom"])
    def test_zero_response_matrix_exits_3(self, tmp_path, capsys, command):
        # every drift entry rounds to 0: the omega = 0 matrix is exactly zero, not merely ill-conditioned
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("omega_c = 5e-324\nomega_d = 5e-324\ngamma31 = 5e-324\ngamma41 = 5e-324\n")
        out = tmp_path / "never.csv"
        assert main([command, "--grid-points", "3", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "eitqfc: numerical failure: at alpha=0.0: atomic response matrix at omega=0.0 has condition number inf\n"
        )
        assert not out.exists()

    def test_condition_bound_past_the_float_range_passes_without_a_warning(self, tmp_path):
        # s_min is past 1.8e296 here, so COND_LIMIT * s_min overflows to inf, which every s_max passes
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("gamma41 = 1e308\nomega_c = 1e308\ngamma21 = 1e-160\n")
        out = tmp_path / "custom.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["custom", "--state", "coherent", "--nbar", "4", "--grid-points", "41", "--config", str(cfg)]
            assert main([*argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "52fe4dbeb5ecc1c6217cbb4c113a3d08af4f2a0419f08b7b7b9050d74ecc4563"

    @staticmethod
    def _sweep_with_amplitude(monkeypatch, row, c0):
        """Make cli's propagation sweep put c0 as the channel amplitude of one row."""
        real_sweep = cli.propagation_sweep

        def sweep_with_amplitude(params, alphas):
            sweep = real_sweep(params, alphas)
            resolved = sweep.resolved.copy()
            resolved[row, 1, 0] = c0
            return replace(sweep, resolved=resolved)

        monkeypatch.setattr(cli, "propagation_sweep", sweep_with_amplitude)

    @pytest.mark.parametrize("state", ["fock", "coherent", "squeezed"])
    def test_non_passive_amplitude_exits_3_naming_its_alpha(self, tmp_path, capsys, monkeypatch, state):
        # a sweep row with |C0| just above 1 beyond rounding is refused for every input state
        self._sweep_with_amplitude(monkeypatch, 2, 1.0 + 1e-10)
        out = tmp_path / "never.csv"
        argv = ["custom", "--state", state, "--alpha-max", "4", "--grid-points", "5", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "eitqfc: numerical failure: at alpha=2.0: |c0| = 1.000000 exceeds 1\n"
        assert not out.exists()

    def test_non_passive_amplitude_keeps_its_row(self, monkeypatch):
        # naming the alpha keeps the error's own attributes: row is still the failing position
        self._sweep_with_amplitude(monkeypatch, 2, 1.0 + 1e-10)
        with pytest.raises(NonPassiveAmplitude) as caught:
            run_custom(np.linspace(0.0, 4.0, 5), "fock", 1.0)
        assert caught.value.row == 2
        assert str(caught.value) == "at alpha=2.0: |c0| = 1.000000 exceeds 1"

    @pytest.mark.parametrize("state", ["fock", "coherent", "squeezed"])
    def test_amplitude_above_1_by_rounding_reads_as_full_conversion(self, tmp_path, capsys, monkeypatch, state):
        # |C0| = 1 + 5e-13 passes the passivity check; its CE exceeds 1 only in the CE column
        self._sweep_with_amplitude(monkeypatch, 2, 1.0 + 5e-13)
        out = tmp_path / "rounding.csv"
        argv = ["custom", "--state", state, "--alpha-max", "4", "--grid-points", "5", "--out", str(out)]
        assert main([*argv, "--nbar", "2"]) == 0
        assert capsys.readouterr().err == ""
        header, *lines = out.read_text().splitlines()
        row = dict(zip(header.split(","), map(float, lines[2].split(","))))
        assert row["ce"] == abs(1.0 + 5e-13) ** 2 > 1.0
        if state != "squeezed":
            assert row["fidelity"] == pytest.approx(1.0, abs=2e-12)
        var_in = {"fock": 1.25, "coherent": 0.25, "squeezed": 1.0}[state]
        assert (row["var_x"], row["var_y"]) == (var_in, 0.0625 if state == "squeezed" else var_in)

    @staticmethod
    def _routes_failing_at(monkeypatch, quantum_row, classical_row=None, scaled_c_row=None):
        """Make cli's two sweeps stop before their rows with failures naming them; scale one classical C by 1 + 1e-4.

        The quantum sweep stops before ``quantum_row``, so the semiclassical one covers the rows
        before it; if ``classical_row`` is given, the semiclassical one stops before that row.
        """
        real_quantum, real_classical = cli.propagation_sweep, cli.semiclassical_sweep

        def failing(sweep, name, row, scaled_c_row=None):
            resolved = sweep.resolved.copy()
            if scaled_c_row is not None:
                resolved[scaled_c_row, 1, 0] *= 1 + 1e-4
            failure = IllPosedBoundary(f"at alpha={float(sweep.alphas[row])!r}: {name} fails")
            return replace(sweep, alphas=sweep.alphas[:row], resolved=resolved[:row], failure=failure)

        def failing_quantum(params, alphas):
            return failing(real_quantum(params, alphas), "propagation_sweep", quantum_row)

        def failing_classical(quantum):
            classical = real_classical(quantum)
            if classical_row is None:
                return classical
            return failing(classical, "semiclassical_sweep", classical_row, scaled_c_row)

        monkeypatch.setattr(cli, "propagation_sweep", failing_quantum)
        monkeypatch.setattr(cli, "semiclassical_sweep", failing_classical)

    @pytest.mark.parametrize(
        "classical_row, scaled_c_row, message",
        [
            (None, None, "at alpha=4.0: propagation_sweep fails"),
            (2, None, "at alpha=2.0: semiclassical_sweep fails"),
            (3, 1, "at alpha=1.0: semiclassical columns leave the quantum ones by 8.000e-06 (limit 1e-06)"),
        ],
    )
    def test_fig2_failure_names_the_first_failing_row(
        self, tmp_path, capsys, monkeypatch, classical_row, scaled_c_row, message
    ):
        # the quantum sweep fails at alpha = 4; a classical failure or an oracle gap on an earlier row comes first
        self._routes_failing_at(monkeypatch, 4, classical_row, scaled_c_row)
        out = tmp_path / "never.csv"
        assert main(["fig2", "--alpha-max", "4", "--grid-points", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"eitqfc: numerical failure: {message}\n"
        assert not out.exists()

    def test_sweep_failing_at_first_alpha_gives_the_channel_no_rows(self, tmp_path, capsys, monkeypatch):
        real_sweep = cli.propagation_sweep
        stacks = {}

        def sweep_failing_at_first_alpha(params, alphas):
            sweep = real_sweep(params, alphas)
            failure = IllPosedBoundary(f"at alpha={float(alphas[0])!r}: backward resonance")
            return replace(sweep, alphas=sweep.alphas[:0], resolved=sweep.resolved[:0], failure=failure)

        def recording(name):
            real = getattr(cli, name)

            def law(first, stack, *rest):  # the stack is c0 for fock_fidelity and ce for coherent_fidelity
                stacks.setdefault(name, []).append(np.shape(stack))
                return real(first, stack, *rest)

            return law

        monkeypatch.setattr(cli, "propagation_sweep", sweep_failing_at_first_alpha)
        for name in ("fock_fidelity", "coherent_fidelity"):
            monkeypatch.setattr(cli, name, recording(name))
        out = tmp_path / "never.csv"
        for state in ("fock", "coherent"):
            assert main(["custom", "--state", state, "--grid-points", "5", "--out", str(out)]) == 3
            assert capsys.readouterr().err == "eitqfc: numerical failure: at alpha=0.0: backward resonance\n"
            assert not out.exists()
        # each law is called once, with the whole (empty) stack
        assert stacks == {"fock_fidelity": [(0,)], "coherent_fidelity": [(0,)]}

    def test_invalid_physical_params_exit_2(self, tmp_path):
        cfg = tmp_path / "bad_phys.cfg"
        cfg.write_text("gamma31 = -1\n")
        assert main(["fig2", "--config", str(cfg), "--grid-points", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["custom", "--state", "coherent", "--nbar", "-1"],
            ["custom", "--state", "coherent", "--nbar", "nan"],
            ["custom", "--state", "coherent", "--nbar", "inf"],
            ["custom", "--state", "fock", "--nbar", "inf"],
            ["custom", "--state", "fock", "--nbar", "nan"],
            ["custom", "--state", "fock", "--nbar", "1.5"],
            ["custom", "--state", "fock", "--nbar", "2.5"],
            ["custom", "--state", "fock", "--nbar", "-1"],
            ["fig2", "--alpha-max", "nan"],
            ["custom", "--alpha-max", "nan"],
            ["fig4", "--squeeze-db", "nan"],
            ["custom", "--state", "squeezed", "--squeeze-db", "inf"],
            ["fig4", "--squeeze-db=-inf"],
            ["fig4", "--squeeze-db", "1e4"],  # cosh(2r) overflows a float
        ],
    )
    def test_bad_numeric_setting_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert main([*argv, "--grid-points", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("eitqfc: invalid configuration: ")
        assert not out.exists()

    @pytest.mark.parametrize("nbar, level", [("0", 0), ("3", 3), ("2.0", 2)])
    def test_whole_fock_level_is_used_as_given(self, tmp_path, nbar, level):
        out = tmp_path / "fock.csv"
        argv = ["custom", "--state", "fock", "--nbar", nbar, "--alpha-max", "4", "--grid-points", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        var_x = float(out.read_text().splitlines()[-1].split(",")[4])
        assert var_x == pytest.approx(0.25 * (0.25 * (2 * level + 1)) + 0.75 * 0.25, abs=1e-14)

    def test_largest_squeezing_is_accepted(self, tmp_path):
        out = tmp_path / "fig4.csv"
        for db in ("300", "-300"):
            argv = ["fig4", "--squeeze-db", db, "--grid-points", "3", "--convention-scale", "2"]
            assert main([*argv, "--out", str(out)]) == 0
            values = [float(v) for line in out.read_text().splitlines()[1:] for v in line.split(",")]
            assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", cli._PHYSICAL_KEYS)
    @pytest.mark.parametrize("command", ["fig2", "custom"])
    def test_non_finite_physical_parameter_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "non_finite.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "never.csv"
        assert main([command, "--config", str(cfg), "--grid-points", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        parsed = cli._CONFIG_SCHEMA[key](value)
        assert err == f"eitqfc: invalid configuration: {key} must be finite, got {parsed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [("1", 0), ("2", 0), ("0", 2), ("5", 2), ("-1", 2)])
    def test_config_convention_scale_is_checked_like_the_flag(self, tmp_path, capsys, scale, code):
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(f"convention_scale = {scale}\n")
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--config", str(cfg), "--grid-points", "3", "--out", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err == (
                f"eitqfc: invalid configuration: convention_scale must be 1 or 2, got {scale}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("setting", ["--state coherent", "state = thermal"], ids=["flag", "config"])
    def test_fig4_rejects_a_state_without_a_variant(self, tmp_path, capsys, setting):
        cfg = tmp_path / "state.cfg"
        cfg.write_text(setting + "\n")
        out = tmp_path / "never.csv"
        extra = setting.split() if setting.startswith("--") else ["--config", str(cfg)]
        assert main(["fig4", *extra, "--grid-points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "eitqfc: invalid configuration: fig4 supports --state squeezed (variant a) or fock (variant b)\n"
        )
        assert not out.exists()

    def test_custom_rejects_an_unknown_state_from_the_config(self, tmp_path, capsys):
        # the config file types state as str and leaves the choice to run_custom, unlike the --state flag
        cfg = tmp_path / "state.cfg"
        cfg.write_text("state = thermal\n")
        out = tmp_path / "never.csv"
        assert main(["custom", "--config", str(cfg), "--grid-points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "eitqfc: invalid configuration: unknown state 'thermal'\n"
        assert not out.exists()

    def test_custom_checks_the_config_convention_scale_like_fig4(self, tmp_path, capsys):
        cfg = tmp_path / "scale.cfg"
        cfg.write_text("convention_scale = 3\n")
        messages = []
        for command in ("fig4", "custom"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--grid-points", "3", "--out", str(out)]) == 2
            messages.append(capsys.readouterr().err)
            assert not out.exists()
        assert messages == ["eitqfc: invalid configuration: convention_scale must be 1 or 2, got 3\n"] * 2

    @pytest.mark.parametrize("level, code", [("17", 0), ("18", 2), ("20", 2)])
    def test_fock_level_must_fit_the_basis(self, tmp_path, capsys, level, code):
        out = tmp_path / "fock.csv"
        argv = ["custom", "--state", "fock", "--nbar", level, "--grid-points", "5", "--out", str(out)]
        assert main(argv) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("eitqfc: invalid configuration: ")
            assert f"a whole nbar in [0, {cli.MAX_FOCK_LEVEL}], got {float(level)}" in err
            assert not out.exists()
        else:
            assert float(out.read_text().splitlines()[-1].split(",")[3]) > 0.0

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--convention-scale", "3"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        # the shared parser keeps nothing from one call to the next
        for argv, message in [
            (["fig4", "--convention-scale", "3"], "argument --convention-scale: invalid choice: 3"),
            (["fig5"], "argument command: invalid choice: 'fig5'"),
            (["fig3", "--grid-points", "x"], "argument --grid-points: invalid int value: 'x'"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: eitqfc ") and f"eitqfc: error: {message}" in err
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--grid-points", "3", "--out", str(out)]) == 0
        assert main(["fig3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 102

    def test_parse_config_rejects_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfealpha_max = 10\n")
        assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eitqfc: invalid configuration: cannot read config file {cfg}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "never.csv").exists()

    def test_config_with_a_utf8_bom_reads_like_one_without(self, tmp_path):
        text = "omega_c = 1.5\nomega_d = 0.8\nalpha_max = 50\n"
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode())
        (tmp_path / "plain.cfg").write_bytes(text.encode())
        for name in ("bom", "plain"):
            argv = ["custom", "--grid-points", "5", "--config", str(tmp_path / f"{name}.cfg")]
            assert main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize(
        "prefix, newline", [(b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")], ids=["crlf", "cr", "bom-crlf"]
    )
    def test_config_line_endings_read_like_lf(self, tmp_path, prefix, newline):
        # the file's bytes are not translated on the way in: str.splitlines alone ends the lines
        lines = [b"# asymmetric sweep", b"omega_c = 1.5", b"omega_d = 0.8  # probe side", b"", b"alpha_max = 50"]
        (tmp_path / "lf.cfg").write_bytes(b"\n".join(lines) + b"\n")
        (tmp_path / "other.cfg").write_bytes(prefix + newline.join(lines) + newline)
        assert parse_config(str(tmp_path / "other.cfg")) == parse_config(str(tmp_path / "lf.cfg"))
        for name in ("lf", "other"):
            argv = ["custom", "--grid-points", "5", "--config", str(tmp_path / f"{name}.cfg")]
            assert main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "other.csv").read_bytes() == (tmp_path / "lf.csv").read_bytes()

    def test_config_over_64_kib_is_read_whole(self, tmp_path):
        # more than one read's worth of comment lines, then the one key
        cfg = tmp_path / "long.cfg"
        cfg.write_bytes(b"".join(b"# comment line %05d\n" % k for k in range(8000)) + b"grid_points = 3\n")
        assert cfg.stat().st_size > 2 * 65536
        assert parse_config(str(cfg)) == {"grid_points": 3}
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, target):
        cfg = str(tmp_path / "missing.cfg") if target == "missing" else str(tmp_path)
        out = tmp_path / "never.csv"
        assert main(["fig3", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eitqfc: invalid configuration: cannot read config file {cfg}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_path_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch):
        # os.open refuses a path with a NUL byte in it with a ValueError, which is a bad configuration
        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--config", "a\x00b"]) == 2
        err = capsys.readouterr().err
        assert err == "eitqfc: invalid configuration: cannot read config file a\x00b: embedded null byte\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        out = {"missing-directory": f"{tmp_path}/missing/x.csv", "directory": str(tmp_path), "empty": ""}[target]
        assert main(["fig3", "--grid-points", "3", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eitqfc: invalid configuration: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_out_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch, route):
        # the OS takes no path with a NUL byte in it; os.open refuses it with a ValueError
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "nul.cfg"
        cfg.write_bytes(b"out = a\x00b.csv\n" if route == "config" else b"")
        extra = [] if route == "config" else ["--out", "a\x00b.csv"]
        assert main(["fig3", "--config", str(cfg), *extra]) == 2
        assert capsys.readouterr().err == "eitqfc: invalid configuration: cannot write a\x00b.csv: embedded null byte\n"
        assert [path.name for path in tmp_path.iterdir()] == ["nul.cfg"]

    def test_bad_configuration_leaves_an_existing_output_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "old.csv"
        assert main(["fig3", "--grid-points", "7", "--out", str(out)]) == 0
        before = out.read_bytes()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma31 = -1\n")
        assert main(["fig2", "--config", str(cfg), "--grid-points", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("eitqfc: invalid configuration: ")
        assert out.read_bytes() == before

    @pytest.mark.parametrize("command", ["fig2", "custom"])
    def test_numerical_failure_leaves_an_existing_output_as_it_was(self, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "old.csv"
        assert main(["fig3", "--grid-points", "3", "--out", str(out)]) == 0
        before = out.read_bytes()
        self._routes_failing_at(monkeypatch, 4)
        assert main([command, "--alpha-max", "4", "--grid-points", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "eitqfc: numerical failure: at alpha=4.0: propagation_sweep fails\n"
        assert out.read_bytes() == before

    @settings(max_examples=200)
    @given(
        command=st.sampled_from(["fig2", "fig3", "fig4", "custom"]),
        config=st.dictionaries(
            st.sampled_from([key for key in cli._CONFIG_SCHEMA if key != "out"]), _CONFIG_TEXT, max_size=5
        ),
    )
    def test_any_config_exits_0_2_or_3(self, tmp_path_factory, command, config):
        # every bad input is a configuration error or a numerical failure, never a traceback,
        # and a run that fails writes nothing
        directory = tmp_path_factory.mktemp("any_config")
        cfg, out = directory / "any.cfg", directory / "out.csv"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()), encoding="utf-8")
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)

    @settings(max_examples=100)
    @given(
        command=st.sampled_from(["fig2", "fig3", "fig4", "custom"]),
        name=st.text(st.characters(blacklist_characters="/"), max_size=12) | st.sampled_from(["", ".", "..", "a\0b"]),
        via_config=st.booleans(),
    )
    def test_any_out_name_exits_0_2_or_3(self, tmp_path_factory, command, name, via_config):
        # any file name inside a directory, NUL bytes and names a config line cannot hold included: a run
        # returns 0, 2 or 3, and a run that fails creates nothing there
        directory, cfg = tmp_path_factory.mktemp("any_out"), tmp_path_factory.mktemp("any_out_cfg") / "any.cfg"
        out = f"{directory}/{name}"
        cfg.write_text(f"grid_points = 3\nout = {out}\n" if via_config else "grid_points = 3\n", encoding="utf-8")
        code = main([command, "--config", str(cfg)] + ([] if via_config else ["--out", out]))
        assert code in (0, 2, 3)
        written = list(directory.iterdir())
        assert len(written) == (code == 0)
        assert all(path.is_file() for path in written)

    @settings(max_examples=200)
    @given(command=st.sampled_from(["fig2", "fig3", "fig4", "custom", "fig5"]), flags=st.lists(_FLAG, max_size=4))
    def test_any_argv_exits_0_2_or_3(self, tmp_path_factory, command, flags):
        # flags as well as configs: argparse refuses what it cannot read with SystemExit(2),
        # every other run returns 0, 2 or 3, and only a run that returns 0 writes its file
        directory = tmp_path_factory.mktemp("any_argv")
        for name, text in _ARGV_CONFIGS.items():
            (directory / name).write_text(text, encoding="utf-8")
        out = directory / "out.csv"
        argv = [command, "--out", str(out)]
        for flag, value in flags:
            if flag in ("--out", "--config"):
                value = str(directory / value)
            if flag == "--out":
                out = Path(value)
            argv += [flag, value]
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
        assert code in (0, 2, 3)
        assert out.is_file() == (code == 0)


#: Every option string of the parser, abbreviations (one ambiguous: --c), a flag it does not know, "--" and help.
_PARSER_FLAGS = sorted({option for action in cli.build_parser()._actions for option in action.option_strings})
_ARGV_FLAGS = [*_PARSER_FLAGS, "--grid", "--sta", "--alpha", "--conv", "--o", "--c", "--bogus", "--", "-h", "--help"]
#: Each choice, numbers with and without a sign, nan, an empty value, spaces, an underscore, full-width digits,
#: a flag as a value, junk.
_ARGV_TEXT = st.sampled_from(
    ["fig2", "fig3", "fig4", "custom", "fock", "coherent", "squeezed", "1", "2", "3", "0", "2.5", "1e3", "-1",
     "-2.5", "-inf", "nan", "NaN", "", " 2 ", "1_0", "\uff11\uff10", "x", "--out", "-h", "out.csv"]
)
_ARGV_PAIR = st.tuples(st.sampled_from(_ARGV_FLAGS), _ARGV_TEXT).map(list)
#: Tokens before or after the command: --flag value pairs (most often), --flag=value, a lone flag or value.
_ARGV_TOKENS = st.one_of(
    _ARGV_PAIR,
    _ARGV_PAIR,
    _ARGV_PAIR.map(lambda pair: ["=".join(pair)]),
    st.sampled_from(_ARGV_FLAGS).map(lambda flag: [flag]),
    _ARGV_TEXT.map(lambda text: [text]),
)
_MIXED_ARGV = st.tuples(
    st.lists(_ARGV_TOKENS, max_size=1),
    st.sampled_from(["fig2", "fig3", "fig4", "custom", "fig5", "", "-h"]),
    st.lists(_ARGV_TOKENS, max_size=5),
).map(lambda parts: [*itertools.chain(*parts[0]), parts[1], *itertools.chain(*parts[2])])
#: Text each flag reads, so that most plain argvs convert: its choices, or numbers, or file names.
_FLAG_TEXT = {
    "--state": ["fock", "coherent", "squeezed"],
    "--convention-scale": ["1", "2", " 2 "],
    "--grid-points": ["5", "0", " 2 ", "1_0", "\uff11\uff10"],
    "--out": ["out.csv", "a b.csv", "x=y"],
    "--config": ["case.cfg", " "],
    "--sta": ["fock", "squeezed"],
    "--grid": ["5", " 2 "],
    "--c": ["1", "case.cfg"],
}
_NUMBER_TEXT = ["0", "2.5", "1e3", "nan", "inf", " 2 ", "1_0"]
#: A flag that takes a value, or one time in nine an abbreviation, and mostly (three draws in four) text it reads.
_PLAIN_FLAGS = [flag for flag in _PARSER_FLAGS if flag not in ("-h", "--help")] * 3 + ["--sta", "--grid", "--c"]
_PLAIN_PAIR = st.sampled_from(_PLAIN_FLAGS).flatmap(
    lambda flag: st.tuples(
        st.just(flag),
        st.integers(0, 3).flatmap(lambda k: st.sampled_from(_FLAG_TEXT.get(flag, _NUMBER_TEXT)) if k else _ARGV_TEXT),
    )
)
#: A command and --flag value pairs: with exact option strings, the argvs read without argparse when every value passes.
_PLAIN_ARGV = st.tuples(st.sampled_from(["fig2", "fig3", "fig4", "custom"]), st.lists(_PLAIN_PAIR, max_size=5)).map(
    lambda parts: [parts[0], *itertools.chain(*parts[1])]
)


def _parse_outcome(parse, argv: list) -> tuple:
    """The Namespace items (type and repr, so NaN equals NaN and -0.0 is not 0.0), or the exit code and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, stdout.getvalue(), stderr.getvalue()
    except TypeError as exc:  # argparse's own, for an item that is not a str
        return "raised", str(exc)
    assert type(args) is argparse.Namespace
    return "parsed", [(key, type(value), repr(value)) for key, value in vars(args).items()], stdout.getvalue()


class TestParseArgv:
    @settings(max_examples=600)
    @given(argv=st.one_of(_PLAIN_ARGV, _MIXED_ARGV))
    def test_any_argv_parses_as_argparse_parses_it(self, argv):
        assert _parse_outcome(cli._parse_argv, argv) == _parse_outcome(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["custom", "--state", "fock", "--nbar", "2", "--grid-points", "5"],
            ["custom", "--nbar", "nan"],
            ["fig2", "--alpha-max", "-0.0"],
            ["fig4", "--squeeze-db", "1_0", "--squeeze-db", " 2 "],
            ["custom", "--nbar", 2],
            ["custom", "--out", Path("out.csv")],
            ("fig3", "--grid-points", "\uff11\uff10"),
            [],
            ["custom", "--state"],
        ],
    )
    def test_edge_argvs_parse_as_argparse_parses_them(self, argv):
        assert _parse_outcome(cli._parse_argv, argv) == _parse_outcome(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--config", "{cfg}", "--out", "{out}"],
            ["fig2", "--grid-points", "5", "--config", "{cfg}", "--out", "{out}"],
            ["custom", "--state", "fock", "--nbar", "3", "--config", "{cfg}", "--out", "{out}"],
            ["custom", "--state", "fock", "--nbar", "1", "--grid-points", "5", "--config", "{cfg}", "--out", "{out}"],
        ],
    )
    def test_sweep_argvs_never_reach_argparse(self, tmp_path, monkeypatch, argv):
        # the shapes the fig2 and custom sweeps are driven with: a command, then exact --flag value pairs
        cfg, out = tmp_path / "case.cfg", tmp_path / "out.csv"
        cfg.write_text("omega_c = (1.2+0.5j)\nomega_d = (1.2+0.5j)\n", encoding="ascii")
        calls = []
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda *args, **kwargs: calls.append(args))
        assert main([item.format(cfg=cfg, out=out) for item in argv]) == 0
        assert calls == []
        assert out.read_text().startswith("alpha,")

    def test_help_exits_0_with_the_argparse_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help()
        assert out.startswith("usage: eitqfc [-h] ") and "--convention-scale {1,2}" in out

    def test_help_lists_each_flag_with_its_help_text(self):
        # the options section as words, so the terminal width that wraps it does not matter
        words = " ".join(cli.build_parser().format_help().split())
        assert words.endswith(
            "-h, --help show this help message and exit --alpha-max ALPHA_MAX largest optical depth "
            "--grid-points GRID_POINTS number of grid points --state {fock,coherent,squeezed} --nbar NBAR "
            "mean photon number / Fock level --squeeze-db SQUEEZE_DB squeezing in dB --convention-scale {1,2} "
            "--out OUT output CSV path --config CONFIG key=value config file"
        )


#: sha256 of each subcommand's CSV at its default settings, and of coherent runs on the default grid at
#: nbar = 2 and 10, whose fidelities reach arguments that nbar = 1 does not.
GOLDEN_DIGESTS = {
    "fig2": "c80f9f8eca5d4a086d1d2c977fed280c285d571a1b8c0438cbdce6797192d524",
    "fig3": "13e3b979aa1d6147a98713e56412703d76e8776c8d0b215d3b1ea0f98b854968",
    "fig4 --state squeezed": "905bf0b59b3c4df1c0c458fc57552e5d7dbd801bbb7752ecdb4a053461a9bfc0",
    "fig4 --state fock": "f512a2febb3cbf0eb48ee95de2530e685983391cb541f143cc84a3b5474040fd",
    "custom --state fock": "24948a7af6d1fd4572ec488a36668374327cb52c7ef1310862773b14bf7da398",
    "custom --state coherent": "a8799759cb01248995dfb65d187041ee9c7b64f9359b3f931a15c0b2586c82a6",
    "custom --state coherent --nbar 2": "d5a2e2f6cf24650a1b08c01cd7f5ff26f295200d7d066d2c4a58a92f5899bfd1",
    "custom --state coherent --nbar 10": "606382f4dcc35438af323172c48ecfcc83e5250ead27f8f225fbb850072f846d",
    "custom --state squeezed": "3036de99270f7b2a2322c1d4a38c2492a37088cbcf7679c7559a3584899442fc",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_default_csv_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "default.csv"
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[argv]


#: Sizes of the file a run overwrites, relative to the new CSV's length.
_OLD_FILE_SIZES = {"longer": 1000, "shorter": -100, "same": 0}


@pytest.mark.parametrize("size", list(_OLD_FILE_SIZES))
@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_overwritten_csv_keeps_its_pinned_bytes(tmp_path, argv, size):
    # the CSV is written over the old file in place; whatever the old length, no byte of it survives
    fresh, out = tmp_path / "fresh.csv", tmp_path / "old.csv"
    assert main([*argv.split(), "--out", str(fresh)]) == 0
    out.write_bytes(b"9" * (fresh.stat().st_size + _OLD_FILE_SIZES[size]))
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[argv]


class TestInPlaceWrite:
    @staticmethod
    def _fig3_csv() -> bytes:
        return format_csv(*run_fig3(np.linspace(0.0, 1.0, 11))).encode("ascii")

    @pytest.mark.parametrize("size", list(_OLD_FILE_SIZES))
    def test_old_file_holds_exactly_the_new_bytes(self, tmp_path, size):
        out, new = tmp_path / "fig3.csv", self._fig3_csv()
        out.write_bytes(b"\n" * (len(new) + _OLD_FILE_SIZES[size]))
        assert main(["fig3", "--grid-points", "11", "--out", str(out)]) == 0
        assert out.read_bytes() == new

    def test_symlink_writes_through_to_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        assert main(["fig3", "--grid-points", "11", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == self._fig3_csv()

    def test_dev_null_is_written_and_not_cut(self):
        assert main(["fig3", "--grid-points", "11", "--out", os.devnull]) == 0

    def test_dev_stdout_carries_the_csv(self, capfd):
        capfd.readouterr()
        assert main(["fig3", "--grid-points", "11", "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr() == (self._fig3_csv().decode("ascii"), "")

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "new.csv"
        old_umask = os.umask(0o027)
        try:
            assert main(["fig3", "--grid-points", "3", "--out", str(out)]) == 0
        finally:
            os.umask(old_umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        # write(2) may take fewer bytes than it was given; the rest follows in further calls
        real_write, calls = os.write, []

        def short_write(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:100]))

        out, new = tmp_path / "fig3.csv", self._fig3_csv()
        out.write_bytes(b"x" * 2 * len(new))
        monkeypatch.setattr(os, "write", short_write)
        assert main(["fig3", "--grid-points", "11", "--out", str(out)]) == 0
        monkeypatch.undo()
        assert len(calls) == -(-len(new) // 100) > 1
        assert out.read_bytes() == new

    def test_failed_write_cuts_the_old_tail(self, tmp_path, capsys, monkeypatch):
        # the first write takes 100 bytes, the second fails: the file holds those 100 bytes and nothing of the old one
        real_write = os.write

        def failing_write(fd, data):
            if len(data) < len(new):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, bytes(data[:100]))

        out, new = tmp_path / "old.csv", self._fig3_csv()
        assert main(["fig2", "--out", str(out)]) == 0
        assert out.stat().st_size > len(new)
        monkeypatch.setattr(os, "write", failing_write)
        assert main(["fig3", "--grid-points", "11", "--out", str(out)]) == 2
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err == f"eitqfc: invalid configuration: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == new[:100]


#: sha256 of `custom --state fock` CSVs at non-default physical settings.
FOCK_SWEEP_CONFIGS = {
    "complex-phase symmetric": "omega_c = (0.8+1.1j)\nomega_d = (0.8+1.1j)\n",
    "asymmetric": "omega_c = 1.5\nomega_d = 0.8\n",
}
FOCK_SWEEP_DIGESTS = {
    ("complex-phase symmetric", "0"): "5e728b87320cddefaf52e14324cbc66acb2f2ed22dd4976bbbae7174b2e6dd55",
    ("complex-phase symmetric", "3"): "e0af9b26fd8b0ccc4f67e577c0e95b12ec0fa0787893dc4af03d68e43ba05935",
    ("complex-phase symmetric", "17"): "140312e4c26341dc5935e3640a028e2861654140fc7a2a163354786ca74b2858",
    ("asymmetric", "0"): "1ccc15675bf94f3dadbd0deb02dd86fa20fb02e9c64ad48aa870f89a8f763d1f",
    ("asymmetric", "3"): "72c07f0d7aa7ac26a5d3a74f63c0f24636ee8dc22eed401daad7c5696781849e",
    ("asymmetric", "17"): "ab4550b2d4059d573ab24fd42349e0f52c0f33b4a2e98a996ca39f15f267970b",
}


@pytest.mark.parametrize("config, nbar", list(FOCK_SWEEP_DIGESTS))
def test_fock_sweep_bytes_are_pinned(tmp_path, config, nbar):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FOCK_SWEEP_CONFIGS[config])
    out = tmp_path / "fock.csv"
    assert main(["custom", "--state", "fock", "--nbar", nbar, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FOCK_SWEEP_DIGESTS[config, nbar]


#: Drive Rabi frequency of unit size at arg omega_d = pi/4.
QUARTER_TURN = cmath.exp(1j * math.pi / 4)
#: sha256 of `custom` CSVs whose C0 carries a phase: (config, state flags, digest).
PHASED_SWEEP_RUNS = {
    "negative drive": (
        "omega_d = -1\n",
        "--state coherent --nbar 1",
        "e306a07d63e258e04b0c95e3245dc498b9dda66eb1d9ea8aa311b538c032e1e7",
    ),
    "quarter-turn drive": (
        f"omega_d = {QUARTER_TURN!r}\n",
        "--state squeezed",
        "0ef3bb2852db16d737015d72de5484bff887136c621a99f30d77a2711be90a55",
    ),
}


@pytest.mark.parametrize("name", list(PHASED_SWEEP_RUNS))
def test_phased_sweep_bytes_are_pinned(tmp_path, name):
    config, flags, digest = PHASED_SWEEP_RUNS[name]
    cfg = tmp_path / "phased.cfg"
    cfg.write_text(config)
    out = tmp_path / "custom.csv"
    assert main(["custom", *flags.split(), "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", list(PHASED_SWEEP_RUNS))
def test_coherent_and_squeezed_columns_equal_the_channel(tmp_path, name):
    cfg = tmp_path / "phased.cfg"
    cfg.write_text(PHASED_SWEEP_RUNS[name][0])
    overrides = parse_config(str(cfg))
    alphas = np.linspace(0.0, 400.0, 9)
    amplitudes = propagation_sweep(cli._sweep_params(alphas, overrides), alphas).resolved[:, 1, 0]
    assert np.all(np.abs(np.angle(amplitudes[1:])) > 0.7)  # C0 = 0 at alpha = 0, turned by pi/4 or pi after
    _, coherent = run_custom(alphas, "coherent", nbar=2.0, overrides=overrides)
    _, squeezed = run_custom(alphas, "squeezed", nbar=0.0, overrides=overrides)
    beta = math.sqrt(2.0)
    coherent_out = apply_loss_channel(coherent_dm(beta, 40), amplitudes)
    squeezed_out = apply_loss_channel(squeezed_dm(math.log(2.0), 0.0, 50), amplitudes)
    assert coherent[:, 3] == pytest.approx(fidelity(Coherent(beta), coherent_out), abs=1e-9)
    assert np.all(coherent[:, 4:] == 0.25)
    assert squeezed[:, 3:] == pytest.approx(np.array([quadrature_moments(rho)[:2] for rho in squeezed_out]), abs=1e-9)


#: sha256 of `fig2` CSVs at non-default physical settings: (config, --alpha-max, digest).
FIG2_SWEEP_RUNS = {
    "asymmetric": (
        "omega_c = 1.5\nomega_d = 0.8\n",
        "60",
        "f63e06781c58eb4d51d83c1ce3d6468d34a2bc752d3f6b9f3bafa79e0170af31",
    ),
    "asymmetric dephased": (
        "omega_c = 1.2\nomega_d = 1.0\ngamma21 = 0.01\n",
        "200",
        "5d99e3bd7aeb6e85dff532624658a57961639d85e54ad70e892b0909ca3ca90c",
    ),
    "dephased": (
        "gamma21 = 0.01\n",
        "200",
        "f499e5a57e5e7ed414917129574d6f6e144576a091514102358ce6beec5a317a",
    ),
}


@pytest.mark.parametrize("name", list(FIG2_SWEEP_RUNS))
def test_fig2_sweep_bytes_are_pinned(tmp_path, name):
    config, alpha_max, digest = FIG2_SWEEP_RUNS[name]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--config", str(cfg), "--alpha-max", alpha_max, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _assert_powers_per_value(amplitudes):
    """cli._powers(amplitudes) is abs(z) * abs(z), a correctly rounded product, of each amplitude in every bit."""
    want = np.array([abs(z) * abs(z) for z in amplitudes.tolist()])
    assert np.array_equal(np.asarray(cli._powers(amplitudes)).view(np.int64), want.view(np.int64))


class TestPowers:
    def test_random_amplitudes(self):
        # |z| from 1e-160 to 1e150: |z|^2 stays below overflow
        rng = np.random.default_rng(27)
        size = 100_000
        parts = np.empty(size, complex)
        parts.real, parts.imag = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-160, 150, (2, size))
        polar = 10.0 ** rng.uniform(-160, 150, size) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size))
        _assert_powers_per_value(parts)
        _assert_powers_per_value(polar)

    def test_signed_zeros_and_subnormal_parts(self):
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.225073858507201e-308, 2.2250738585072014e-308, 1.0, -3.0]
        _assert_powers_per_value(np.array([complex(re, im) for re, im in itertools.product(parts, repeat=2)]))

    @pytest.mark.parametrize(
        "config, alpha_max",
        [("", "400"), *(run[:2] for run in FIG2_SWEEP_RUNS.values())],
        ids=["default", *FIG2_SWEEP_RUNS],
    )
    def test_sweep_columns(self, tmp_path, config, alpha_max):
        # the default fig2 and custom sweeps solve the same grid; fig2 adds its semiclassical columns
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        alphas = np.linspace(0.0, float(alpha_max), 401)
        params = cli._sweep_params(alphas, parse_config(str(cfg)))
        quantum = propagation_sweep(params, alphas)
        for sweep in (quantum, semiclassical_sweep(quantum)):
            _assert_powers_per_value(sweep.resolved[:, 0, 0])
            _assert_powers_per_value(sweep.resolved[:, 1, 0])


def test_import_leaves_the_ode_solver_unloaded(tmp_path):
    # scipy.integrate is about a third of a scipy start-up; nothing in the package imports it.  numpy.ma
    # (about 14 ms on first import) loads only if np.unique is called without return options.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, eitqfc, eitqfc.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
        "eitqfc.langevin_photon_noise(eitqfc.symmetric_params(4.0))\n"
        "assert eitqfc.cli.main(['fig2', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "fig2.csv")], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "False"]


@pytest.mark.parametrize("command", ["fig2", "fig3", "fig4", "custom"])
def test_oversized_grid_exits_2_before_allocating(tmp_path, capsys, command):
    # unchecked, a grid of 50 million points dies with an uncaught ArrayMemoryError
    out = tmp_path / "never.csv"
    tracemalloc.start()
    try:
        code = main([command, "--grid-points", str(cli.MAX_GRID_POINTS + 1), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"eitqfc: invalid configuration: grid_points must be <= {cli.MAX_GRID_POINTS}, "
        f"got {cli.MAX_GRID_POINTS + 1}\n"
    )
    assert peak < 1_000_000
    assert not out.exists()


def test_largest_grid_is_accepted(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--grid-points", str(cli.MAX_GRID_POINTS), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == cli.MAX_GRID_POINTS + 1


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports eitqfc from this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


#: Every production path, fig2 with its semiclassical oracle among them, run in a fresh interpreter.
NUMPY_ONLY_PATHS = """
import sys
import eitqfc, eitqfc.cli
from eitqfc import diffusion_matrix, eta1, eta2, langevin_photon_noise, symmetric_params

out, cfg = sys.argv[1], sys.argv[2]
with open(cfg, "w") as f:
    f.write("omega_c = 1.5\\nomega_d = 0.8\\n")
for argv in (
    ["custom", "--state", "fock"],
    ["custom", "--state", "coherent"],
    ["custom", "--state", "squeezed"],
    ["fig3"],
    ["fig4"],
    ["fig4", "--state", "fock"],
):
    assert eitqfc.cli.main([*argv, "--grid-points", "5", "--out", out]) == 0, argv
for argv in (["fig2"], ["fig2", "--config", cfg]):  # the default 401-row grid
    assert eitqfc.cli.main([*argv, "--out", out]) == 0, argv
params = symmetric_params(4.0)
for diffusion in (None, diffusion_matrix(0.01, 0.01)):
    assert langevin_photon_noise(params, diffusion) >= 0.0
    assert eta1(params, diffusion) >= 0.0
assert langevin_photon_noise(symmetric_params(1e4), diffusion_matrix(0.5, 0.5)) > 0.0  # one refinement round
assert 0.0 <= eta2(params) <= 1.0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_sweeps_and_noise_integrals_run_without_scipy(tmp_path):
    # scipy.linalg alone is most of a scipy start-up; the package's one dependency is numpy
    assert _fresh_python(NUMPY_ONLY_PATHS, str(tmp_path / "cold.csv"), str(tmp_path / "asymmetric.cfg")) == "[]"


def test_beam_splitter_oracle_runs_without_scipy():
    code = (
        "import sys\n"
        "from eitqfc import fock_dm\n"
        "from eitqfc.states import beam_splitter_oracle\n"
        "rho = beam_splitter_oracle(fock_dm(1, 4), 0.5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), round(float(rho[1, 1].real), 12))"
    )
    assert _fresh_python(code) == "[] 0.5"


def _run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python -m eitqfc.cli args`` in a new interpreter that imports eitqfc from this tree, run in ``cwd``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "eitqfc.cli", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestProcessExitCodes:
    """The exit status of ``python -m eitqfc.cli``: main's return value, or argparse's SystemExit."""

    def test_success_exits_0_with_the_in_process_bytes(self, tmp_path):
        result = _run_cli("fig3", "--grid-points", "3", "--out", "process.csv", cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert main(["fig3", "--grid-points", "3", "--out", str(tmp_path / "in_process.csv")]) == 0
        assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()

    def test_unknown_command_exits_2_with_the_argparse_usage(self, tmp_path):
        result = _run_cli("fig5", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("usage: eitqfc [-h] ")
        assert "eitqfc: error: argument command: invalid choice: 'fig5'" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exits_3_and_writes_nothing(self, tmp_path):
        (tmp_path / "singular.cfg").write_text("omega_c = 0\nomega_d = 0\n")
        result = _run_cli("fig2", "--config", "singular.cfg", "--out", "never.csv", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("eitqfc: numerical failure: at alpha=0.0: ")
        assert not (tmp_path / "never.csv").exists()


#: The (command, setting) pairs a command does not read: each exits 2, from a flag or a config key alike.
_UNREAD = {
    "fig2": ["state", "nbar", "squeeze_db", "convention_scale"],
    "fig3": ["alpha_max", "state", "nbar", "squeeze_db", "convention_scale", *cli._PHYSICAL_KEYS],
    "fig4": ["alpha_max", "nbar", *cli._PHYSICAL_KEYS],
    "custom": [],
}
#: A value each setting accepts where it is read.
_READABLE = {
    "alpha_max": "50", "state": "coherent", "nbar": "5", "squeeze_db": "3", "convention_scale": "2",
    "omega_c": "1.5", "omega_d": "0.8", "gamma31": "1.2", "gamma41": "0.9", "gamma21": "0.01",
}
_FLAG_OF = {name: flag for flag, (name, *_) in cli._FLAGS.items()}


class _RecordingDict(dict):
    """A dict that records every key read through [] or get."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestSettingsACommandReads:
    def test_the_unread_pairs_are_the_table_complement(self):
        # 4 commands x 13 settings (the 8 flags, --config among them, and the 5 physical keys) = 52 pairs;
        # the table and --config leave 31 settable, so 21 are refused
        unread = {(command, name) for command, names in _UNREAD.items() for name in names}
        assert unread == {(c, k) for c in cli._DEFAULTS for k in cli._CONFIG_SCHEMA if k not in cli._DEFAULTS[c]}
        assert (len(unread), sum(len(entry) + 1 for entry in cli._DEFAULTS.values())) == (21, 31)
        assert set(_READABLE) | {"grid_points", "out"} == set(cli._CONFIG_SCHEMA)

    @pytest.mark.parametrize(
        "command, name, via",
        [(c, k, via) for c, names in _UNREAD.items() for k in names for via in ("flag", "config")[k not in _FLAG_OF :]],
        ids="-".join,
    )
    def test_an_unread_setting_exits_2_and_writes_nothing(self, tmp_path, capsys, command, name, via):
        cfg, out = tmp_path / "unread.cfg", tmp_path / "never.csv"
        cfg.write_text(f"{name} = {_READABLE[name]}\n")
        extra = [_FLAG_OF[name], _READABLE[name]] if via == "flag" else ["--config", str(cfg)]
        assert main([command, *extra, "--grid-points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"eitqfc: invalid configuration: {command} does not read {name}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "command, config, flags, name",
        [
            ("fig2", "nbar = 5\ngrid_points = 0\n", [], "nbar"),
            ("fig3", "grid_points = 0\n", ["--alpha-max", "50"], "alpha_max"),
            ("fig4", "convention_scale = 5\nomega_c = nan\n", [], "omega_c"),
            ("fig4", "squeeze_db = 1e4\n", ["--nbar", "2"], "nbar"),
            ("fig2", "alpha_max = -1\n", ["--convention-scale", "2"], "convention_scale"),
        ],
    )
    def test_an_unread_setting_is_reported_before_a_bad_value(self, tmp_path, capsys, command, config, flags, name):
        cfg, out = tmp_path / "both.cfg", tmp_path / "never.csv"
        cfg.write_text(config)
        assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"eitqfc: invalid configuration: {command} does not read {name}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["custom", "--state", "fock"], ["--squeeze-db", "3"]),
            (["custom", "--state", "coherent"], ["--squeeze-db", "3"]),
            (["custom", "--state", "squeezed"], ["--nbar", "5"]),
            (["fig4", "--state", "fock"], ["--squeeze-db", "3"]),
        ],
    )
    def test_a_setting_the_state_leaves_unread_is_accepted_and_changes_nothing(self, tmp_path, argv, unread):
        # the rule is per command, not per (command, state): such a setting passes and leaves every byte
        given, bare = tmp_path / "given.csv", tmp_path / "bare.csv"
        assert main([*argv, *unread, "--grid-points", "5", "--out", str(given)]) == 0
        assert main([*argv, "--grid-points", "5", "--out", str(bare)]) == 0
        assert given.read_bytes() == bare.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2"],
            ["fig3"],
            ["fig4", "--state", "squeezed"],
            ["fig4", "--state", "fock"],
            ["custom", "--state", "fock"],
            ["custom", "--state", "coherent"],
            ["custom", "--state", "squeezed"],
        ],
        ids=" ".join,
    )
    def test_a_command_reads_exactly_its_table_entry(self, tmp_path, monkeypatch, argv):
        # main, the runners, _sweep_params and _squeeze_r read the merged settings; between them they read
        # every key of the command's _DEFAULTS entry and no other
        merged = []

        def recording(args, merge=cli._merge_settings):
            merged.append(_RecordingDict(merge(args)))
            return merged[-1]

        monkeypatch.setattr(cli, "_merge_settings", recording)
        assert main([*argv, "--grid-points", "3", "--out", str(tmp_path / "out.csv")]) == 0
        assert merged[0].read == set(cli._DEFAULTS[argv[0]])

    def test_a_physical_key_set_to_none_is_unset(self):
        alphas = np.linspace(0.0, 20.0, 3)
        unset = dict.fromkeys(cli._PHYSICAL_KEYS)
        assert np.array_equal(run_fig2(alphas, unset)[1], run_fig2(alphas)[1])
        assert np.array_equal(run_custom(alphas, "fock", 1, overrides=unset)[1], run_custom(alphas, "fock", 1)[1])
        assert np.array_equal(run_fig2(alphas, {**unset, "omega_c": 1.5})[1], run_fig2(alphas, {"omega_c": 1.5})[1])


def test_readme_usage_lists_every_setting_each_command_reads():
    # each usage line (continuation lines indented) names the flags of its command's _DEFAULTS entry and --config;
    # the paragraph after the block names the physical keys that only a config file sets
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text().split("## Command line", 1)[1]
    _, block, after = section.split("```", 2)
    usage = re.sub(r"\n\s+", " ", block.strip()).splitlines()
    commands = [line.split()[1] for line in usage]
    assert [line.split()[0] for line in usage] == ["eitqfc"] * 4
    assert commands == list(cli._DEFAULTS)
    for command, line in zip(commands, usage):
        reads = {flag for flag, (name, *_) in cli._FLAGS.items() if name in cli._DEFAULTS[command] or name == "config"}
        flags = re.findall(r"\[(--[a-z-]+)[ \]]", line)
        assert sorted(flags) == sorted(reads), command
    paragraph = after.strip().split("\n\n", 1)[0]
    assert paragraph.startswith("`fig2` and `custom` also read the physical parameters")
    assert all(f"`{key}`" in paragraph for key in cli._PHYSICAL_KEYS)
    assert [c for c, entry in cli._DEFAULTS.items() if entry.keys() >= set(cli._PHYSICAL_KEYS)] == ["fig2", "custom"]
