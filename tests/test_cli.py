import math
import warnings

import numpy as np
import pytest

from eitqfc.cli import (
    format_csv,
    main,
    parse_config,
    run_fig2,
    run_fig3,
    run_fig4,
    run_custom,
)
from eitqfc.errors import ConfigError


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


class TestCsvFormat:
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
    def test_overflowing_transfer_matrix_exits_3(self, tmp_path, capsys, command):
        # with omega_d = 2 the unscaled e^{-ML} is already nan at alpha = 5000
        cfg = tmp_path / "large_od.cfg"
        cfg.write_text("omega_d = 2\n")
        out = tmp_path / "never.csv"
        argv = [command, "--config", str(cfg), "--alpha-max", "20000", "--grid-points", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("eitqfc: numerical failure: at alpha=5000.0: ")
        assert not out.exists()

    def test_invalid_physical_params_exit_2(self, tmp_path):
        cfg = tmp_path / "bad_phys.cfg"
        cfg.write_text("gamma31 = -1\n")
        assert main(["fig2", "--config", str(cfg), "--grid-points", "2"]) == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--convention-scale", "3"])
        assert exc.value.code == 2

    def test_parse_config_rejects_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")
