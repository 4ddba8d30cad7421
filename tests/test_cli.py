import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitqfc import cli
from eitqfc.cli import (
    format_csv,
    main,
    parse_config,
    run_fig2,
    run_fig3,
    run_fig4,
    run_custom,
)
from eitqfc.errors import ConfigError, IllPosedBoundary, QfcError
from eitqfc.transfer import PropagationSweep


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
            cli._check_oracle(row)
        assert message in str(exc.value)
        cli._check_oracle([90.0, 0.1, 0.8, 0.1 + 9e-7, 0.8])

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
        _, rows = run_fig4(np.array([0.0, 1.0]), "a", convention_scale=2.0)
        assert rows[0][1:] == pytest.approx([0.5, 0.5], abs=1e-14)
        assert rows[1][1:] == pytest.approx([2.0, 0.125], abs=1e-14)

    def test_squeezed_endpoints_internal_convention(self):
        _, rows = run_fig4(np.array([0.0, 1.0]), "a", convention_scale=1.0)
        assert rows[0][1:] == pytest.approx([0.25, 0.25], abs=1e-14)
        assert rows[1][1:] == pytest.approx([1.0, 0.0625], abs=1e-14)

    def test_fock_variant_symmetric(self):
        _, rows = run_fig4(np.linspace(0, 1, 11), "b", convention_scale=1.0)
        for row in rows:
            assert row[1] == row[2]

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            run_fig4(np.array([0.5]), "c")


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
#: next decade, exact ties, every power of ten a double holds, and the non-finite values.
_EDGE_VALUES = np.concatenate(
    [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
        [1e-310, 9.999999999999995e5, 999999999999999.5, 99999999999999.95, np.nextafter(10.0, 0.0), 0.5, 1.5],
        np.arange(10**14, 10**15, 899_999_999_999) + 0.5,
        -(np.arange(10**14 + 1, 10**15, 1_234_567_890_123) + 0.5),
        [float(f"1e{k}") for k in range(-323, 309)],
        [math.nan, -math.nan, math.inf, -math.inf],
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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
        for header, rows in (run_fig3(ces), run_fig4(ces, "a"), run_fig4(ces, "b")):
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

    @staticmethod
    def _sweep_with_amplitude(monkeypatch, row, c0):
        """Make cli's propagation sweep put c0 as the channel amplitude of one row."""
        real_sweep = cli.propagation_sweep

        def sweep_with_amplitude(params, alphas):
            sweep = real_sweep(params, alphas)
            resolved = sweep.resolved.copy()
            resolved[row, 1, 0] = c0
            return PropagationSweep(sweep.alphas, resolved, sweep.failure)

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

    def test_sweep_failing_at_first_alpha_gives_the_channel_no_rows(self, tmp_path, capsys, monkeypatch):
        real_sweep, real_fidelity = cli.propagation_sweep, cli.fock_fidelity
        stacks = []

        def sweep_failing_at_first_alpha(params, alphas):
            sweep = real_sweep(params, alphas)
            failure = IllPosedBoundary(f"at alpha={float(alphas[0])!r}: backward resonance")
            return PropagationSweep(sweep.alphas[:0], sweep.resolved[:0], failure)

        def recording_fidelity(n, c0):
            stacks.append(np.shape(c0))
            return real_fidelity(n, c0)

        monkeypatch.setattr(cli, "propagation_sweep", sweep_failing_at_first_alpha)
        monkeypatch.setattr(cli, "fock_fidelity", recording_fidelity)
        out = tmp_path / "never.csv"
        assert main(["custom", "--state", "fock", "--grid-points", "5", "--out", str(out)]) == 3
        assert stacks == [(0,)]
        assert capsys.readouterr().err == "eitqfc: numerical failure: at alpha=0.0: backward resonance\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
        assert main(["fig3", "--grid-points", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eitqfc: invalid configuration: cannot write {out}: ")
        assert err.count("\n") == 1


#: sha256 of each subcommand's CSV at its default settings.
GOLDEN_DIGESTS = {
    "fig2": "c80f9f8eca5d4a086d1d2c977fed280c285d571a1b8c0438cbdce6797192d524",
    "fig3": "13e3b979aa1d6147a98713e56412703d76e8776c8d0b215d3b1ea0f98b854968",
    "fig4 --state squeezed": "905bf0b59b3c4df1c0c458fc57552e5d7dbd801bbb7752ecdb4a053461a9bfc0",
    "fig4 --state fock": "f512a2febb3cbf0eb48ee95de2530e685983391cb541f143cc84a3b5474040fd",
    "custom --state fock": "24948a7af6d1fd4572ec488a36668374327cb52c7ef1310862773b14bf7da398",
    "custom --state coherent": "a8799759cb01248995dfb65d187041ee9c7b64f9359b3f931a15c0b2586c82a6",
    "custom --state squeezed": "3036de99270f7b2a2322c1d4a38c2492a37088cbcf7679c7559a3584899442fc",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_default_csv_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "default.csv"
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[argv]


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


def test_import_leaves_the_ode_solver_unloaded():
    # scipy.integrate is about a third of a scipy start-up; nothing in the package imports it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, eitqfc, eitqfc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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
        "rho = beam_splitter_oracle(fock_dm(1, 4), 0.5, 4)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), round(float(rho[1, 1].real), 12))"
    )
    assert _fresh_python(code) == "[] 0.5"
