"""Benchmark arithmetic and the command-line front end."""

import json

import numpy as np
import pytest

from pintsens import speedup, efficiency, run_bench, Qoi, builtin_circuit
from pintsens import cli
from pintsens.cli import (main, parse_qoi_expr, load_netlist,
                          write_bench_table, BenchRecord)
from pintsens.netlist import _half_wave_rectifier_text


class TestSpeedupEfficiency:
    def test_reference_values(self):
        s = speedup(51.08, 2.16)
        assert s == pytest.approx(23.648, abs=1e-3)
        assert efficiency(s, 48) == pytest.approx(0.4927, abs=1e-4)

    def test_identity(self):
        for n in (1, 2, 48):
            s = speedup(10.0, 3.0)
            assert efficiency(s, n) * n == s

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            efficiency(2.0, 0)


class TestQoiExpr:
    def test_single_node(self):
        assert parse_qoi_expr("v(out)") == {"v(out)": 1.0}

    def test_difference(self):
        assert parse_qoi_expr("v(a)-v(b)") == {"v(a)": 1.0, "v(b)": -1.0}

    def test_branch_current_and_spaces(self):
        assert parse_qoi_expr(" i(V1) + v(x) ") == {"i(V1)": 1.0, "v(x)": 1.0}

    def test_garbage_rejected(self):
        for bad in ("", "v(out)*2", "1.5", "v()"):
            with pytest.raises(ValueError):
                parse_qoi_expr(bad)


class TestLoadNetlist:
    def test_builtin_scheme(self):
        nl = load_netlist("builtin:half_wave_rectifier")
        assert nl.directives.qoi_node == "out"

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_netlist("/nonexistent/foo.cir")

    def test_path(self, tmp_path):
        p = tmp_path / "r.cir"
        p.write_text(_half_wave_rectifier_text())
        assert load_netlist(str(p)).directives.qoi_node == "out"


@pytest.fixture()
def rect_file(tmp_path):
    p = tmp_path / "rectifier.cir"
    p.write_text(_half_wave_rectifier_text())
    return p


class TestSimulateCommand:
    def test_row_count_contract(self, rect_file, tmp_path, capsys):
        """--tend 0.1 --dt 1e-6 yields exactly 100001 CSV rows."""
        rc = main(["simulate", str(rect_file), "--tend", "0.1",
                   "--dt", "1e-6", "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 100001 + 1          # header + rows
        assert "100001 rows" in capsys.readouterr().out

    def test_deterministic_bytes(self, rect_file, tmp_path):
        for d in ("a", "b"):
            main(["simulate", str(rect_file), "--tend", "0.01",
                  "--dt", "1e-5", "--out", str(tmp_path / d)])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
               (tmp_path / "b" / "trajectory.csv").read_bytes()


class TestSensCommand:
    def test_one_column_per_parameter(self, rect_file, tmp_path, capsys):
        rc = main(["sens", str(rect_file), "--window", "0.08:0.1",
                   "--qoi", "v(out)", "--every", "1000",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = [l for l in (tmp_path / "sensitivities.csv").read_text()
                .splitlines() if not l.startswith("#")]
        assert data[0] == "t_m,Cload,Rload"
        n_instants = len(data) - 1
        assert n_instants >= 1
        assert f"adjoint solves: {n_instants}" in capsys.readouterr().out

    def test_parareal_dispatch_matches_serial(self, rect_file, tmp_path):
        base = ["sens", str(rect_file), "--qoi", "v(out)",
                "--window", "0.09:0.1", "--every", "500"]
        main(base + ["--out", str(tmp_path / "serial")])
        main(base + ["--N", "4", "--tol", "1e-10",
                     "--out", str(tmp_path / "par")])

        def read(d):
            rows = [l for l in (tmp_path / d / "sensitivities.csv")
                    .read_text().splitlines() if not l.startswith("#")][1:]
            return np.array([[float(x) for x in r.split(",")] for r in rows])

        a, b = read("serial"), read("par")
        np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-12)


class TestSpectrumCommand:
    def test_outputs(self, rect_file, tmp_path):
        rc = main(["spectrum", str(rect_file), "--qoi", "v(out)",
                   "--window", "0.08:0.1", "--every", "10",
                   "--segment", "64", "--top", "2", "--out", str(tmp_path)])
        assert rc == 0
        psd = (tmp_path / "psd.csv").read_text().splitlines()
        assert psd[0].startswith("f_hz,")
        ranking = json.loads((tmp_path / "ranking.json").read_text())
        assert {d["param"] for d in ranking} == {"Cload", "Rload"}
        assert ranking[0]["score"] >= ranking[1]["score"]


class TestBenchCommand:
    def test_records_and_files(self, tmp_path, capsys):
        nl = builtin_circuit("half_wave_rectifier", dt=1e-4, periods=2.0)
        records, reports = run_bench(nl, 0.04, Qoi("out"), [2, 4],
                                     repetitions=2, tol=1e-6)
        assert [r.n_subintervals for r in records] == [2, 4]
        for r in records:
            assert r.efficiency * r.n_subintervals == pytest.approx(r.speedup)
            assert r.total_wall_s > 0 and r.sequential_wall_s > 0
        write_bench_table(records, tmp_path)
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert [row["n_subintervals"] for row in rows] == [2, 4]
        csv = (tmp_path / "bench.csv").read_text().splitlines()
        assert csv[0].split(",")[0] == "n_subintervals"
        assert len(csv) == 3

    def test_cli_end_to_end(self, rect_file, tmp_path, capsys):
        rc = main(["bench", str(rect_file), "--dt", "1e-4",
                   "--tend", "0.04", "--tm", "0.04", "--N", "2,4",
                   "--tol", "1e-6", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "eff" in out
        assert (tmp_path / "bench.json").exists()


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["simulate", "/no/such/file.cir"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_netlist_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cir"
        p.write_text("* broken\nQ1 a b 1\n.end\n")
        assert main(["simulate", str(p)]) == 1

    def test_bad_qoi_is_input_error(self, rect_file, capsys):
        assert main(["sens", str(rect_file), "--qoi", "***"]) == 1
        assert main(["sens", str(rect_file), "--qoi", "v(nosuch)"]) == 1
        assert "unknown DoF 'v(nosuch)'" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("sens", "--every"), ("spectrum", "--every"), ("sens", "--workers"),
        ("spectrum", "--stride"), ("bench", "--workers"), ("bench", "--stride"),
        ("bench", "--repetitions"), ("spectrum", "--segment"),
        ("spectrum", "--top"),
    ])
    @pytest.mark.parametrize("value", ["0", "-50", "x"])
    def test_non_positive_integer_rejected_at_parse_time(self, monkeypatch,
                                                         capsys, command,
                                                         flag, value):
        monkeypatch.setitem(cli._COMMANDS, command, None)   # never dispatched
        extra = ["--tm", "0.01", "--N", "2"] if command == "bench" else []
        argv = [command, "builtin:half_wave_rectifier", *extra, flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err

    @pytest.mark.parametrize("command", ["sens", "spectrum", "bench"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "x"])
    def test_bad_tolerance_rejected_at_parse_time(self, monkeypatch, capsys,
                                                  command, value):
        monkeypatch.setitem(cli._COMMANDS, command, None)   # never dispatched
        extra = ["--tm", "0.01", "--N", "2"] if command == "bench" else []
        argv = [command, "builtin:half_wave_rectifier", *extra, "--tol", value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --tol: must be a finite number >= 0" in err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--dt"), ("simulate", "--tend"), ("sens", "--dt"),
        ("spectrum", "--tend"), ("bench", "--dt"), ("bench", "--tend"),
        ("bench", "--tm"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_time_rejected_at_parse_time(self, monkeypatch, capsys,
                                                    command, flag, value):
        monkeypatch.setitem(cli._COMMANDS, command, None)   # never dispatched
        extra = ["--tm", "0.01", "--N", "2"] if command == "bench" else []
        argv = [command, "builtin:half_wave_rectifier", *extra, flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--dt", "--tend"])
    @pytest.mark.parametrize("value", ["0", "-0.001"])
    def test_non_positive_time_rejected_at_parse_time(self, monkeypatch, capsys,
                                                      flag, value):
        monkeypatch.setitem(cli._COMMANDS, "simulate", None)
        assert main(["simulate", "builtin:half_wave_rectifier", flag, value]) == 1
        assert f"argument {flag}: must be a finite number > 0" \
            in capsys.readouterr().err

    def test_zero_tolerance_accepted(self):
        args = cli.build_parser().parse_args(
            ["sens", "builtin:half_wave_rectifier", "--tol", "0"])
        assert args.tol == 0.0

    def test_solver_failure_maps_to_two(self, monkeypatch, capsys):
        from pintsens import cli
        from pintsens.transient import SolverError

        def boom(args):
            raise SolverError("newton diverged", step=3)

        monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
        assert main(["simulate", "builtin:half_wave_rectifier"]) == 2
        assert "solver failure" in capsys.readouterr().err
