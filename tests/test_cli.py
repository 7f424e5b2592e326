"""End-to-end command-line behaviour: outputs, formats, exit codes."""

import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import telespline
from telespline import cli
from telespline.cli import main
from telespline.linalg import SingularSystemError
from telespline.stability import stability_sweep


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_rows(text, sep=","):
    lines = text.strip("\n").split("\n")
    return lines[0].split(sep), [line.split(sep) for line in lines[1:]]


class TestSolve:
    def test_csv_shape_and_header(self, capsys):
        code, out, err = run_cli(
            [
                "solve",
                "--problem", "1",
                "--n", "20",
                "--dt", "0.05",
                "--t-final", "0.5",
                "--times", "0.25,0.5",
            ],
            capsys,
        )
        assert code == 0 and err == ""
        header, rows = split_rows(out)
        assert header == ["x", "t", "u", "exact", "error"]
        assert len(rows) == 2 * 21
        # every cell must survive a parse round-trip at 17 significant digits
        x, t, u, exact, error = rows[5]
        assert format(float(u), ".17g") == u
        assert float(error) == pytest.approx(float(u) - float(exact), abs=1e-17)
        # times are ascending blocks over ascending knots
        assert float(rows[0][1]) == 0.25
        assert float(rows[-1][1]) == 0.5
        assert float(rows[0][0]) == 0.0
        assert float(rows[20][0]) == pytest.approx(math.pi)

    def test_times_default_to_t_final(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--problem", "3", "--n", "8", "--dt", "0.1", "--t-final", "0.3"],
            capsys,
        )
        assert code == 0
        _, rows = split_rows(out)
        assert len(rows) == 9
        assert all(float(row[1]) == 0.3 for row in rows)

    def test_off_grid_t_final_outputs_the_last_level(self, capsys):
        # 0.35 falls between levels 3 and 4 of dt = 0.1: without --times the
        # output is level 3, the last one within the horizon
        code, out, err = run_cli(
            ["solve", "--problem", "1", "--n", "10", "--dt", "0.1", "--t-final", "0.35"],
            capsys,
        )
        assert code == 0 and err == ""
        _, rows = split_rows(out)
        assert {row[1] for row in rows} == {format(3 * 0.1, ".17g")}
        code, on_grid, _ = run_cli(
            ["solve", "--problem", "1", "--n", "10", "--dt", "0.1", "--t-final", "0.3"],
            capsys,
        )
        assert code == 0
        assert [(row[0], row[2]) for row in rows] == [
            (row[0], row[2]) for row in split_rows(on_grid)[1]
        ]

    def test_off_grid_t_final_with_plot_data(self, capsys, tmp_path):
        plot = tmp_path / "grid.csv"
        code, out, err = run_cli(
            [
                "solve", "--problem", "3", "--n", "8", "--dt", "0.1", "--t-final", "0.37",
                "--emit-plot-data", str(plot),
            ],
            capsys,
        )
        assert code == 0 and err == ""
        _, rows = split_rows(out)
        _, plot_rows = split_rows(plot.read_text())
        assert len(plot_rows) == 4 * 9  # levels 0 .. 3
        assert [(r[0], r[1], r[2]) for r in rows] == [tuple(r) for r in plot_rows[-9:]]

    def test_times_are_sorted_and_deduplicated(self, capsys):
        code, out, _ = run_cli(
            [
                "solve",
                "--problem", "3",
                "--n", "4",
                "--dt", "0.1",
                "--t-final", "0.5",
                "--times", "0.5,0.2,0.5",
            ],
            capsys,
        )
        assert code == 0
        _, rows = split_rows(out)
        assert [float(row[1]) for row in rows] == [0.2] * 5 + [0.5] * 5

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(
            [
                "solve",
                "--problem", "3",
                "--n", "4",
                "--dt", "0.1",
                "--t-final", "0.2",
                "--format", "tsv",
            ],
            capsys,
        )
        assert code == 0
        assert out.split("\n", 1)[0] == "x\tt\tu\texact\terror"

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        args = ["solve", "--problem", "1", "--n", "10", "--dt", "0.05", "--t-final", "0.2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        target = tmp_path / "solution.csv"
        code2, out2, _ = run_cli(args + ["--output", str(target)], capsys)
        assert code2 == 0 and out2 == ""
        assert target.read_text() == out

    def test_deterministic_across_runs(self, capsys):
        args = ["solve", "--problem", "4", "--n", "15", "--dt", "0.02", "--t-final", "0.3"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_exact_cells_empty_without_exact(self, capsys, write_config):
        path = write_config(3, exact=None)
        code, out, _ = run_cli(
            ["solve", "--config", path, "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 0
        _, rows = split_rows(out)
        assert all(row[3] == "" and row[4] == "" for row in rows)

    def test_plot_data_covers_every_step(self, capsys, tmp_path):
        plot = tmp_path / "grid.csv"
        out_file = tmp_path / "solution.csv"
        code, _, _ = run_cli(
            [
                "solve",
                "--problem", "3",
                "--n", "8",
                "--dt", "0.1",
                "--t-final", "0.5",
                "--output", str(out_file),
                "--emit-plot-data", str(plot),
            ],
            capsys,
        )
        assert code == 0
        header, rows = split_rows(plot.read_text())
        assert header == ["x", "t", "u"]
        assert len(rows) == 6 * 9  # levels 0.0 .. 0.5 by 0.1, nine knots each
        assert out_file.exists()

    def test_plot_data_leaves_the_main_output_unchanged(self, capsys, tmp_path):
        args = [
            "solve",
            "--problem", "5",
            "--n", "12",
            "--dt", "0.05",
            "--t-final", "0.5",
            "--times", "0,0.15,0.45",
        ]
        code, plain, _ = run_cli(args, capsys)
        assert code == 0
        plot = tmp_path / "grid.csv"
        code, with_plot, _ = run_cli(args + ["--emit-plot-data", str(plot)], capsys)
        assert code == 0
        assert with_plot == plain
        _, rows = split_rows(plot.read_text())
        assert len(rows) == 11 * 13


class TestBench:
    def test_header_and_zero_start(self, capsys):
        code, out, _ = run_cli(
            [
                "bench",
                "--problem", "3",
                "--n", "10",
                "--dt", "0.1",
                "--t-final", "0.4",
                "--times", "0,0.4",
            ],
            capsys,
        )
        assert code == 0
        header, rows = split_rows(out)
        assert header == ["t", "L2", "Linf", "RMS", "cpu_seconds"]
        assert len(rows) == 2
        # the zero-data problem starts from bitwise-zero coefficients
        assert rows[0] == ["0", "0", "0", "0", "0"]
        assert float(rows[1][2]) > 0.0

    def test_deterministic_up_to_timing(self, capsys):
        args = ["bench", "--problem", "1", "--n", "20", "--dt", "0.05", "--t-final", "0.5"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(first) == strip(second)

    def test_documented_example_accuracy(self, capsys):
        code, out, _ = run_cli(
            [
                "bench",
                "--problem", "1",
                "--n", "157",
                "--dt", "0.01",
                "--t-final", "3",
                "--times", "1,2,3",
            ],
            capsys,
        )
        assert code == 0
        _, rows = split_rows(out)
        assert len(rows) == 3
        for row in rows:
            for cell in row[1:4]:
                assert float(cell) < 1e-2

    def test_requires_exact_solution(self, capsys, write_config):
        path = write_config(3, exact=None)
        code, _, err = run_cli(
            ["bench", "--config", path, "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 2
        assert "exact" in err


class TestConfigFiles:
    @pytest.mark.parametrize("pid", [1, 3])
    def test_config_run_is_bitwise_identical_to_builtin(
        self, capsys, tmp_path, write_config, pid
    ):
        path = write_config(pid)
        tail = ["--n", "18", "--dt", "0.05", "--t-final", "0.5", "--times", "0.25,0.5"]
        from_config = tmp_path / "from_config.csv"
        from_builtin = tmp_path / "from_builtin.csv"
        assert run_cli(
            ["solve", "--config", path, "--output", str(from_config)] + tail, capsys
        )[0] == 0
        assert run_cli(
            ["solve", "--problem", str(pid), "--output", str(from_builtin)] + tail,
            capsys,
        )[0] == 0
        assert from_config.read_bytes() == from_builtin.read_bytes()

    def test_slope_key_optional_with_close_fallback(self, capsys, write_config):
        # without g1x the end slopes come from finite differences of g1
        exact_path = write_config(1)
        fd_path = write_config(1, g1x=None)
        tail = ["--n", "18", "--dt", "0.05", "--t-final", "0.25"]
        _, exact_out, _ = run_cli(["solve", "--config", exact_path] + tail, capsys)
        _, fd_out, _ = run_cli(["solve", "--config", fd_path] + tail, capsys)
        _, exact_rows = split_rows(exact_out)
        _, fd_rows = split_rows(fd_out)
        gap = max(
            abs(float(a[2]) - float(b[2])) for a, b in zip(exact_rows, fd_rows)
        )
        assert gap < 1e-6

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"volume": "3"}, "unknown key"),
            ({"alpha": None}, "missing required"),
            ({"bc": "robin"}, "dirichlet or neumann"),
            ({"g1": "sin(t)"}, "may only use"),
            ({"left": "x"}, "may only use"),
            ({"q": "2 +"}, "q"),
            ({"domain": "0"}, "domain"),
            ({"alpha": "x + 1"}, "constant"),
        ],
    )
    def test_config_errors_exit_2(self, capsys, write_config, overrides, fragment):
        path = write_config(1, **overrides)
        code, _, err = run_cli(
            ["solve", "--config", path, "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert fragment in err

    def test_deeply_nested_expression_exit_2(self, capsys, write_config):
        path = write_config(1, q="(" * 150 + "-2*exp(-t)*sin(x)" + ")" * 150)
        code, out, err = run_cli(
            ["solve", "--config", path, "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "q" in err and "levels of nesting" in err

    def test_long_flat_chain_exit_2(self, capsys, write_config):
        path = write_config(1, q="-2*exp(-t)*sin(x)" + "+0*x" * 1500)
        code, out, err = run_cli(
            ["solve", "--config", path, "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "q" in err and "operators" in err

    def test_moderately_nested_expression_solves(self, capsys, write_config):
        tail = ["--n", "6", "--dt", "0.1", "--t-final", "0.2"]
        nested = write_config(1, q="(" * 50 + "-2*exp(-t)*sin(x)" + ")" * 50)
        code, nested_out, _ = run_cli(["solve", "--config", nested] + tail, capsys)
        assert code == 0
        _, plain_out, _ = run_cli(["solve", "--config", write_config(1)] + tail, capsys)
        assert nested_out == plain_out

    def test_duplicate_key_exit_2(self, capsys, tmp_path, config_texts):
        path = tmp_path / "dup.cfg"
        path.write_text(config_texts[1] + "alpha = 7\n")
        code, _, err = run_cli(
            [
                "solve",
                "--config", str(path),
                "--n", "6",
                "--dt", "0.1",
                "--t-final", "0.2",
            ],
            capsys,
        )
        assert code == 2
        assert "duplicate key" in err

    def test_unreadable_config_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            [
                "solve",
                "--config", str(tmp_path / "nope.cfg"),
                "--n", "6",
                "--dt", "0.1",
                "--t-final", "0.2",
            ],
            capsys,
        )
        assert code == 2
        assert "cannot read" in err


class TestStability:
    def test_single_theta_row(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--alpha", "4", "--beta", "2", "--dt", "1e-3", "--n", "40"],
            capsys,
        )
        assert code == 0
        header, rows = split_rows(out)
        assert header == [
            "theta",
            "max_amplification",
            "worst_phi",
            "rh1",
            "rh2",
            "rh3",
            "verdict",
        ]
        assert len(rows) == 1
        assert rows[0][0] == "0.5"
        assert rows[0][6] == "stable"
        assert float(rows[0][1]) <= 1.0 + 1e-12

    def test_sweep_spans_the_verdict_flip(self, capsys):
        code, out, _ = run_cli(
            [
                "stability",
                "--alpha", "0",
                "--beta", "0",
                "--dt", "1",
                "--n", "40",
                "--sweep", "theta=0:1:0.05",
            ],
            capsys,
        )
        assert code == 0
        _, rows = split_rows(out)
        assert len(rows) == 21
        thetas = [float(row[0]) for row in rows]
        assert thetas == pytest.approx([0.05 * i for i in range(21)])
        verdicts = {row[0]: row[6] for row in rows}
        assert verdicts["0"] == "unstable"
        assert verdicts["0.5"] == "stable"
        assert verdicts["1"] == "stable"

    def test_domain_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "stability",
                "--alpha", "1",
                "--beta", "1",
                "--dt", "0.01",
                "--n", "10",
                "--domain", "0, 2*pi",
            ],
            capsys,
        )
        assert code == 0

    def test_sweep_rows_equal_single_theta_runs(self, capsys):
        flags = ["stability", "--alpha", "2", "--beta", "0.5", "--dt", "0.3", "--n", "7"]
        code, out, _ = run_cli(flags + ["--sweep", "theta=0:1:0.07"], capsys)
        assert code == 0
        header, lines = out.split("\n", 1)
        rows = lines.splitlines()
        assert len(rows) == 15
        for row in rows:
            code, single, _ = run_cli(flags + ["--theta", row.split(",")[0]], capsys)
            assert code == 0
            assert single == header + "\n" + row + "\n"

    @pytest.mark.parametrize(
        "extra",
        [["--dt", "1e160", "--theta", "0.5"], ["--dt", "1e154", "--sweep", "theta=0:1:0.25"]],
    )
    def test_overflowing_coefficients_exit_2(self, capsys, extra):
        code, out, err = run_cli(
            ["stability", "--alpha", "1", "--beta", "1", "--n", "40"] + extra, capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: dt = ")

    def test_overflow_in_the_scan_writes_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["stability", "--alpha", "1", "--beta", "1", "--dt", "1e80", "--n", "40"],
                capsys,
            )
        assert code == 0 and err == ""
        _, rows = split_rows(out)
        assert rows[0][1] == "inf" and rows[0][6] == "unstable"

    @pytest.mark.parametrize("rows", [["--theta", "0.3"], ["--sweep", "theta=0:1:0.01"]])
    def test_default_domain_is_zero_to_pi(self, capsys, rows):
        flags = ["stability", "--alpha", "2", "--beta", "1", "--dt", "1e-3", "--n", "100"] + rows
        code, out, err = run_cli(flags, capsys)
        assert code == 0 and err == ""
        assert run_cli(flags + ["--domain", "0, pi"], capsys) == (0, out, "")

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("0", "domain needs two comma-separated endpoints, got '0'"),
            ("0, foo(1)", "unknown function 'foo' at offset 1 (known: abs, cos, exp, sin, sqrt, tan)"),
            ("0, x", "expected a constant, found variables ['x']"),
        ],
    )
    def test_bad_domain_messages(self, capsys, domain, message):
        code, out, err = run_cli(
            ["stability", "--alpha", "1", "--beta", "1", "--dt", "0.1", "--n", "40",
             "--domain", domain],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: --domain: {message}\n")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--theta", "1.5"],
            ["--sweep", "theta=0:1"],
            ["--sweep", "theta=1:0:0.1"],
            ["--domain", "junk"],
            ["--n", "2"],
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, extra):
        code, _, err = run_cli(
            ["stability", "--alpha", "1", "--beta", "1", "--dt", "0.1", "--n", "40"]
            + extra,
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "sweep, fragment",
        [
            ("theta=nan:1:0.1", "start must be finite, got nan"),
            ("theta=0:nan:0.1", "stop must be finite, got nan"),
            ("theta=0:inf:0.1", "stop must be finite, got inf"),
            ("theta=0:1:inf", "step must be finite, got inf"),
            ("theta=0:1:1e-300", "more than 1000000 theta values"),
            ("theta=0:1:1e-320", "more than 1000000 theta values"),
            ("theta=-1e308:1e308:1", "more than 1000000 theta values"),
        ],
    )
    def test_bad_sweeps_exit_2(self, capsys, monkeypatch, sweep, fragment):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("telespline.stability.stability_sweep", never)
        code, out, err = run_cli(
            ["stability", "--alpha", "1", "--beta", "1", "--dt", "0.1", "--n", "40",
             "--sweep", sweep],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --sweep: ") and fragment in err

    def test_sweep_point_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 21)
        assert len(cli._parse_sweep("theta=0:1:0.05")) == 21
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 20)
        with pytest.raises(cli.ConfigError, match="more than 20 theta values"):
            cli._parse_sweep("theta=0:1:0.05")

    @given(
        start=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 10.0),
        step=st.floats(1e-3, 10.0),
    )
    @example(start=0.0, width=1.0, step=1 / 2.9999999995)  # the 1e-9 slack overshoots stop
    @example(start=0.0, width=0.3, step=0.1)  # 3 * 0.1 rounds past 0.3
    @settings(max_examples=300, deadline=None)
    def test_sweep_values_clamp_at_stop_as_a_min_per_value(self, start, width, step):
        # the values are start + i*step with those past stop set to stop: the
        # same bits as min(start + i*step, stop) for every i
        stop = start + width
        count = int((stop - start) / step + 1e-9)
        expected = [min(start + i * step, stop) for i in range(count + 1)]
        got = cli._parse_sweep(f"theta={start!r}:{stop!r}:{step!r}")
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_oversized_sweep_is_rejected_before_building_its_values(self, monkeypatch):
        # 100001 values would take megabytes; the count check must come first
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(cli.ConfigError, match="more than 1000 theta values"):
                cli._parse_sweep("theta=0:1:1e-5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestExitCodes:
    def test_unknown_problem_id(self, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", "9", "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 2
        assert "unknown builtin problem" in err

    def test_horizon_guard(self, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", "2", "--n", "6", "--dt", "0.1", "--t-final", "2"],
            capsys,
        )
        assert code == 2
        assert "horizon" in err

    def test_misaligned_time(self, capsys):
        code, _, err = run_cli(
            [
                "solve",
                "--problem", "1",
                "--n", "6",
                "--dt", "0.1",
                "--t-final", "0.5",
                "--times", "0.35",
            ],
            capsys,
        )
        assert code == 2
        assert "multiple" in err

    @pytest.mark.parametrize(
        "times, fragment", [("0.35", "multiple"), ("0.7", "outside")]
    )
    def test_plot_mode_checks_times_like_run(self, capsys, tmp_path, times, fragment):
        code, out, err = run_cli(
            [
                "solve",
                "--problem", "1",
                "--n", "6",
                "--dt", "0.1",
                "--t-final", "0.5",
                "--times", times,
                "--emit-plot-data", str(tmp_path / "grid.csv"),
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert fragment in err
        assert not (tmp_path / "grid.csv").exists()

    def test_plot_level_cap_is_inclusive(self, capsys, tmp_path, monkeypatch):
        # dt 0.1 up to t_final 1 is the 11 levels 0 .. 10
        args = ["solve", "--problem", "1", "--n", "6", "--dt", "0.1", "--t-final", "1"]
        args += ["--emit-plot-data", str(tmp_path / "grid.csv")]
        monkeypatch.setattr(cli, "MAX_PLOT_LEVELS", 11)
        assert run_cli(args, capsys)[0] == 0
        (tmp_path / "grid.csv").unlink()
        monkeypatch.setattr(cli, "MAX_PLOT_LEVELS", 10)
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert "gives 11 time levels, more than 10" in err
        assert not (tmp_path / "grid.csv").exists()

    def test_runaway_plot_grid_is_rejected_before_building_it(self, monkeypatch):
        # 10**12 levels would take terabytes; the count check must come first
        monkeypatch.setattr(cli, "MAX_PLOT_LEVELS", 1000)
        args = cli._build_parser().parse_args(
            ["solve", "--problem", "1", "--n", "6", "--dt", "1e-12", "--t-final", "1",
             "--emit-plot-data", "grid.csv"]
        )
        problem = telespline.builtin_problem(1)
        tracemalloc.start()
        try:
            with pytest.raises(cli.ConfigError, match="time levels, more than 1000$"):
                cli._march(problem, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "timing, fragment",
        [
            (["--dt", "0.01", "--t-final", "inf"], "t_final must be finite, got inf"),
            (["--dt", "0.01", "--t-final", "0.1", "--times", "inf"], "output time inf is not finite"),
            (["--dt", "0.01", "--t-final", "0.1", "--times", "nan"], "output time nan is not finite"),
            (["--dt", "1e-320", "--t-final", "0.1"], "t_final / dt = 0.1 / 1e-320"),
            (["--dt", "0.001", "--t-final", "0.1", "--times", "1e308"], "output time 1e+308 outside"),
        ],
    )
    def test_non_finite_times_exit_2(self, capsys, timing, fragment):
        code, out, err = run_cli(["solve", "--problem", "1", "--n", "10"] + timing, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and fragment in err

    def test_nonpositive_step(self, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", "1", "--n", "6", "--dt", "0", "--t-final", "0.5"],
            capsys,
        )
        assert code == 2
        assert "dt" in err

    def test_singular_solve_exits_3(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise SingularSystemError(0, 0.0)

        monkeypatch.setattr("telespline.solver.run", explode)
        code, _, err = run_cli(
            ["solve", "--problem", "1", "--n", "6", "--dt", "0.1", "--t-final", "0.2"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "solve" in capsys.readouterr().out

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "1", "--dt", "0.1", "--t-final", "0.2"])
        assert info.value.code == 2


class TestFailureExitCodes:
    def test_dirichlet_theta_zero_exits_3_before_any_output(self, capsys):
        code, out, err = run_cli(
            [
                "solve", "--problem", "1", "--n", "20", "--dt", "0.01",
                "--theta", "0", "--t-final", "0.05", "--times", "0,0.01",
            ],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "row 1" in err
        assert "theta = 0" in err and "proportional" in err

    def test_dirichlet_curvature_lost_beside_one_exits_3_with_its_cause(self, capsys):
        code, out, err = run_cli(
            ["solve", "--problem", "1", "--n", "10", "--dt", "1e-300", "--t-final", "1e-300"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: elimination broke down at row 1 (pivot 0.0): k^2 theta = 0 is lost "
            "beside 1 at dt = 1e-300 and theta = 0.5, so as at theta = 0 the Dirichlet "
            "boundary row and the collocation row at x0 are proportional and the step "
            "matrix is singular; use a larger dt\n"
        )

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_more_than_2_53_steps_exit_2_without_marching(self, capsys, monkeypatch, command):
        from telespline import solver

        def march(*args):
            raise AssertionError("the run must be refused before it marches")

        monkeypatch.setattr(solver, "run", march)
        code, out, err = run_cli(
            [command, "--problem", "1", "--n", "10", "--dt", "0.1", "--t-final", "1e300"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_final / dt = 1e+300 / 0.1 is too large to count the steps\n"

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_cells_wider_than_two_thirds_pi_exit_2(self, capsys, write_config, command):
        path = write_config(1, domain="0, 7.5", alpha="0", beta="0", q="0")
        code, out, err = run_cli(
            [command, "--config", path, "--n", "3", "--dt", "0.1", "--t-final", "5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cell width h = 2.5 is not below 2*pi/3 = 2.0943951023931953")

    def test_overflowing_beta_squared_exits_2(self, capsys, write_config):
        # beta^2 overflows to inf, so the step matrix is not finite
        path = write_config(1, beta="1e200")
        code, out, err = run_cli(
            ["solve", "--config", path, "--n", "20", "--dt", "0.01", "--t-final", "0.05"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: non-finite entries in sub")

    def test_infinite_alpha_in_config_exits_2(self, capsys, write_config):
        # 1e400 reads as inf; before, the run failed with "non-finite entries in sub"
        path = write_config(1, alpha="1e400")
        code, out, err = run_cli(
            ["solve", "--config", path, "--n", "20", "--dt", "0.01", "--t-final", "0.05"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: alpha and beta must be finite, got inf, 2.0\n"
        )

    def test_infinite_alpha_in_stability_exits_2(self, capsys):
        code, out, err = run_cli(
            ["stability", "--alpha", "inf", "--beta", "1", "--dt", "0.1", "--n", "20"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: alpha and beta must be finite, got inf, 1.0\n"

    def test_forcing_turning_non_finite_exits_2(self, capsys, write_config):
        # finite at t = 0, overflows to inf from the first step on
        path = write_config(1, q="t*1e300*1e300")
        code, out, err = run_cli(
            ["solve", "--config", path, "--n", "20", "--dt", "0.01", "--t-final", "0.05"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "non-finite entries in rhs" in err
        assert err.startswith("error: step 1 (t = 0.02): ")

    @pytest.mark.parametrize(
        "raised, line",
        [
            (
                MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)"),
                "error: out of memory: Unable to allocate 74.5 GiB for an array with shape "
                "(10000000001,)\n",
            ),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy-message", "no-message"],
    )
    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch, raised, line):
        # a huge --n fails in numpy's first allocation; stand in for it here
        def knots(mesh):
            raise raised

        monkeypatch.setattr(telespline.basis.UniformMesh, "knots", knots)
        code, out, err = run_cli(
            ["solve", "--problem", "1", "--n", "20", "--dt", "1e-3", "--t-final", "0.01"],
            capsys,
        )
        assert (code, out, err) == (2, "", line)


def _reference_run(argv):
    """The march the CLI makes for ``argv``, for the reference writer to format."""
    args = cli._build_parser().parse_args(argv)
    problem = cli._load_problem(args)
    return (problem, *cli._march(problem, args))


def _without_last_column(text, sep):
    return [line.rsplit(sep, 1)[0] for line in text.splitlines()]


class TestWriterMatchesReference:
    """Every output equals the per-cell writer in ``oracle``, byte for byte."""

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "1", "--n", "20", "--dt", "0.05", "--t-final", "0.5", "--times", "0.25,0.5"],
            ["--problem", "2", "--n", "30", "--dt", "0.01", "--t-final", "0.5", "--times", "0,0.5"],
            ["--problem", "5", "--n", "12", "--dt", "0.05", "--t-final", "0.45", "--theta", "0.7"],
            ["--problem", "3", "--n", "8", "--dt", "0.1", "--t-final", "0.37"],
        ],
    )
    @pytest.mark.parametrize("plot", [False, True])
    def test_solve(self, capsys, tmp_path, argv, fmt, sep, plot):
        argv = ["solve"] + argv + ["--format", fmt]
        if plot:
            argv += ["--emit-plot-data", str(tmp_path / "grid.out")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        problem, mesh, history, times, positions = _reference_run(argv)
        assert out == oracle.solve_text(problem, mesh, history, times, positions, sep)
        if plot:
            assert (tmp_path / "grid.out").read_text() == oracle.plot_text(mesh, history, sep)

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    def test_solve_without_exact_solution(self, capsys, tmp_path, write_config, fmt, sep):
        argv = [
            "solve", "--config", write_config(4, exact=None), "--n", "9", "--dt", "0.1",
            "--t-final", "0.3", "--times", "0,0.1,0.3", "--format", fmt,
            "--emit-plot-data", str(tmp_path / "grid.out"),
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        problem, mesh, history, times, positions = _reference_run(argv)
        assert out == oracle.solve_text(problem, mesh, history, times, positions, sep)
        assert all(line.endswith(sep * 2) for line in out.splitlines()[1:])
        assert (tmp_path / "grid.out").read_text() == oracle.plot_text(mesh, history, sep)

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    def test_bench_up_to_timing(self, capsys, fmt, sep):
        argv = [
            "bench", "--problem", "1", "--n", "40", "--dt", "0.02", "--t-final", "1",
            "--times", "0,0.5,1", "--format", fmt,
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        problem, mesh, history, times, positions = _reference_run(argv)
        expected = oracle.bench_text(problem, mesh, history, times, positions, sep)
        assert _without_last_column(out, sep) == _without_last_column(expected, sep)

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    def test_stability_sweep_with_both_verdicts(self, capsys, fmt, sep):
        code, out, _ = run_cli(
            [
                "stability", "--alpha", "0", "--beta", "0", "--dt", "1", "--n", "40",
                "--sweep", "theta=0:1:0.05", "--format", fmt,
            ],
            capsys,
        )
        assert code == 0
        thetas = cli._parse_sweep("theta=0:1:0.05")
        sweep = stability_sweep(0.0, 0.0, thetas, 1.0, cli.UniformMesh(0.0, math.pi, 40))
        assert set(sweep.stable) == {True, False}
        assert out == oracle.stability_text(thetas, sweep, sep)

    def test_benchmark_sweep_output_is_unchanged(self, capsys):
        # sha256 of this sweep as written by the vectorised numpy kernel that
        # the scalar loop replaced
        code, out, _ = run_cli(
            ["stability", "--alpha", "1.3", "--beta", "1.7", "--dt", "1e-3", "--n", "1000",
             "--sweep", "theta=0:1:0.0002"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e8250d5027b633769d87041a706c1851b1dab797793b0939cf4d80872e23fcda"
        )

    def test_special_values_through_the_frame_template(self):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1]
        knots = np.array(specials)
        times = [-0.0, math.nan, 5e-324]
        values = np.array([[specials, specials[::-1], specials[1:] + specials[:1]]] * 3)
        values = values.transpose(0, 2, 1)  # one row per time, knot-major triples
        sep = ","
        text = "".join(cli._frame_blocks(knots, sep, sep.join(["%.17g"] * 3), times, values))
        rows = [
            [oracle.format_cell(x), oracle.format_cell(t)] + [oracle.format_cell(v) for v in cells]
            for t, frame in zip(times, values)
            for x, cells in zip(specials, frame.tolist())
        ]
        assert "x\n" + text == oracle.write_rows(["x"], rows, sep)
        assert "-0" in text and "nan" in text and "-inf" in text and "4.9406564584124654e-324" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "5", "--n", "12", "--dt", "0.05", "--t-final", "0.5",
             "--times", "0,0.15,0.45", "--format", "tsv"],
            ["stability", "--alpha", "1", "--beta", "1", "--dt", "1e80", "--n", "40",
             "--sweep", "theta=0:1:0.1"],
        ],
    )
    def test_stdout_matches_output_file(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        target = tmp_path / "result.out"
        code, to_file, _ = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 0 and to_file == ""
        assert target.read_bytes() == out.encode()


def test_cli_import_loads_no_scipy():
    # importing scipy.linalg would add about 0.4 s and 28 MiB to every CLI process
    source = Path(telespline.__file__).resolve().parents[1]
    probe = "import sys, telespline.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=source,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


# runs ``python -m telespline ARGS`` and prints the telespline modules it
# loaded, and those of the names in ``shown`` that it loaded
_UNPREFIXED = ("numpy", "dataclasses")
_MODULE_PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith("telespline.") or m in {shown})))
runpy.run_module("telespline", run_name="__main__", alter_sys=True)
"""
_STABILITY_ARGV = ["stability", "--alpha", "1", "--beta", "1", "--dt", "1e-3", "--n", "100", "--theta", "0.5"]


def probe_modules(argv, shown, *flags):
    """The modules the probe reports for ``python FLAGS -m telespline ARGV``,
    run from the source tree so that ``telespline`` imports from it."""
    source = Path(telespline.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, *flags, "-c", _MODULE_PROBE.format(shown=shown), *argv],
        capture_output=True,
        text=True,
        check=True,
        cwd=source,
        timeout=60,
    )
    assert result.stderr == ""
    return result.stdout.split()


# problem keeps two dataclasses, TelegraphProblem and BoundarySpec
_SOLVE_MODULES = {"_record", "basis", "cli", "linalg", "problem", "solver", "numpy", "dataclasses"}
_SHORT_RUN = ["--n", "10", "--dt", "0.01", "--t-final", "0.01"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (_STABILITY_ARGV, {"_record", "basis", "cli", "stability"}),
        (["solve", "--problem", "1"] + _SHORT_RUN, _SOLVE_MODULES),
        (["solve", "--config", "{config}"] + _SHORT_RUN, _SOLVE_MODULES | {"expr"}),
        (["bench", "--problem", "1"] + _SHORT_RUN, _SOLVE_MODULES | {"metrics"}),
    ],
    ids=["stability", "solve-problem", "solve-config", "bench-problem"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, write_config, argv, modules):
    config = write_config(1)
    argv = [arg.format(config=config) for arg in argv] + ["--output", str(tmp_path / "out.csv")]
    expected = (name if name in _UNPREFIXED else f"telespline.{name}" for name in modules)
    assert probe_modules(argv, _UNPREFIXED) == sorted(expected)


def test_stability_loads_no_pathlib_when_site_preloads_nothing(tmp_path):
    # under python -S, site imports nothing before telespline, so every
    # module listed is one that stability loaded; it reads no file
    argv = _STABILITY_ARGV + ["--output", str(tmp_path / "out.csv")]
    loaded = probe_modules(argv, _UNPREFIXED + ("pathlib",), "-S")
    assert loaded == ["telespline._record", "telespline.basis", "telespline.cli", "telespline.stability"]
