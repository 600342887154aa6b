"""CLI exit codes and output files."""

import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homsim import cli, trajectories
from homsim.bath import BathFamily, BathSpec, gamma_quadrature
from homsim.dynamics import SourceConfig


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestUsageErrors:
    def test_negative_coupling(self, tmp_path, capsys):
        code = cli.main(["visibility", "--A", "-1", "--out",
                         str(tmp_path / "x.csv")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_rate(self, tmp_path):
        assert cli.main(["simulate", "--g", "0", "--n", "5", "--seed", "1",
                         "--out", str(tmp_path / "x.jsonl")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["fig1", "--A", "-1"],
        ["fig1", "--A", "nan"],
        ["fig2", "--theta", "inf"],
    ], ids=["fig1-negative-A", "fig1-nan-A", "fig2-infinite-theta"])
    def test_figure_bad_bath(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fig2", "--delta-min", "0"],
        ["fig2", "--points", "1"],
        ["fig1", "--tau-max", "inf"],
        ["simulate", "--seed", "-1", "--n", "5"],
        ["simulate", "--workers", "0", "--n", "5", "--seed", "1"],
        ["simulate", "--g", "inf", "--n", "5", "--seed", "1"],
        ["visibility", "--bath", "powerlaw", "--exponent", "0.5"],
    ])
    def test_bad_grid_or_run(self, tmp_path, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == cli.EXIT_USAGE

    # sizes numpy refuses before it touches memory; a size the machine
    # could allocate must never be tried here
    @pytest.mark.parametrize("argv", [
        ["fig1", "--points", "1000000000000000"],
        ["windowed", "--points", "1000000000000000"],
        ["gamma", "--points", "1000000000000000"],
        ["fig1", "--points", "100000000000000000000"],
        ["analyze", "--delta", "1", "--bins", "1000000000000000"],
    ], ids=["fig1", "windowed", "gamma", "fig1-beyond-intp", "analyze-bins"])
    def test_grid_too_large(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        if argv[0] == "analyze":
            rec = tmp_path / "r.jsonl"
            rec.write_text('{"t1": 0.1, "d1": "+", "tau": 0.5, "d2": "+"}\n')
            argv = argv + ["--records", str(rec), "--bins-out", str(out)]
        else:
            argv = argv + ["--out", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "points is too large" in errors[0]
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["visibility", "windowed", "fig2"])
    def test_curves_take_no_rate(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--g", "0.1", "--out", str(tmp_path / "x")])
        assert exc.value.code == cli.EXIT_USAGE

    def test_powerlaw_needs_exponent(self, tmp_path):
        assert cli.main(["gamma", "--bath", "powerlaw", "--out",
                         str(tmp_path / "x.csv")]) == cli.EXIT_USAGE

    def test_markovian_gamma_table_rejected(self, tmp_path):
        assert cli.main(["gamma", "--bath", "markovian", "--out",
                         str(tmp_path / "x.csv")]) == cli.EXIT_USAGE

    def test_analyze_bad_delta(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        rec.write_text("")
        assert cli.main(["analyze", "--records", str(rec),
                         "--delta", "-1"]) == cli.EXIT_USAGE

    def test_analyze_negative_bins(self, tmp_path, capsys):
        rec, out = tmp_path / "r.jsonl", tmp_path / "b.csv"
        rec.write_text('{"t1": 0.1, "d1": "+", "tau": 0.5, "d2": "+"}\n')
        assert cli.main(["analyze", "--records", str(rec), "--delta", "1",
                         "--bins", "-1", "--bins-out", str(out)]) \
            == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: --bins must be >= 0, got -1\n")

    # a ValueError the library raises is a refused parameter, as is the CLI's
    @pytest.mark.parametrize("argv", [
        ["visibility", "--bath", "ohmic", "--exponent", "3"],
        ["simulate", "--bath", "markovian", "--exponent", "2", "--n", "5",
         "--seed", "1"],
        ["gamma", "--bath", "markovian"],
    ], ids=["visibility-ohmic-exponent", "simulate-markovian-exponent",
            "gamma-markovian"])
    def test_library_refusal(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_analyze_bad_t1_max(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        rec.write_text("")
        for bad in ("inf", "nan", "0"):
            assert cli.main(["analyze", "--records", str(rec), "--delta", "1",
                             "--t1-max", bad]) == cli.EXIT_USAGE


# every flag and default of the seven subcommands, written out, so that a
# change to how the parser is built cannot change what it parses
_BATH_DEFAULTS = {"bath": "ohmic", "A": 0.5, "theta": 10.0, "exponent": None}
_TAU_GRID = {"tau_max": 10.0}
_DELTA_GRID = {"delta_min": 1e-3, "delta_max": 10.0}
_PARSED_DEFAULTS = {
    "gamma": (["--out", "o"], {**_BATH_DEFAULTS, **_TAU_GRID, "points": 200,
                               "out": "o"}),
    "fig1": ([], {"A": 0.5, "theta": 10.0, **_TAU_GRID, "points": 200,
                  "out": "fig1.csv"}),
    "fig2": ([], {"A": 0.5, "theta": 10.0, **_DELTA_GRID, "points": 200,
                  "out": "fig2.csv"}),
    "visibility": (["--out", "o"], {**_BATH_DEFAULTS, **_TAU_GRID,
                                    "points": 200, "out": "o"}),
    "windowed": (["--out", "o"], {**_BATH_DEFAULTS, **_DELTA_GRID,
                                  "points": 100, "out": "o"}),
    "simulate": (["--n", "5", "--seed", "1", "--out", "o"],
                 {**_BATH_DEFAULTS, "g": 0.01, "n": 5, "seed": 1,
                  "workers": 1, "out": "o"}),
    "analyze": (["--records", "r", "--delta", "1"],
                {"records": "r", "delta": 1.0, "t1_max": None, "bins": 0,
                 "bins_out": "bins.csv"}),
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(_PARSED_DEFAULTS))
    def test_defaults(self, command):
        required, expected = _PARSED_DEFAULTS[command]
        parsed = vars(cli.build_parser().parse_args([command, *required]))
        assert parsed.pop("func") is {
            "simulate": cli.cmd_simulate,
            "analyze": cli.cmd_analyze}.get(command, cli.cmd_table)
        assert parsed == {"command": command, **expected}

    @pytest.mark.parametrize("command", sorted(_PARSED_DEFAULTS))
    def test_required_flags(self, command, capsys):
        required = _PARSED_DEFAULTS[command][0]
        for i in range(0, len(required), 2):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(
                    [command, *required[:i], *required[i + 2:]])
            assert exc.value.code == cli.EXIT_USAGE
            assert f"required: {required[i]}" in capsys.readouterr().err


class TestGamma:
    def test_table_diff_small(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert cli.main(["gamma", "--bath", "ohmic", "--tau-max", "5",
                         "--points", "20", "--out", str(out)]) == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == ["tau", "gamma_closed", "gamma_quadrature"]
        assert len(rows) == 20
        assert all(abs(float(r[1]) - float(r[2])) <= 1e-6 for r in rows)

    def test_powerlaw_table(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert cli.main(["gamma", "--bath", "powerlaw", "--exponent", "2",
                         "--points", "5", "--out", str(out)]) == cli.EXIT_OK
        _, rows = read_csv(out)
        assert all(abs(float(r[1]) - float(r[2])) <= 1e-12 for r in rows)
        assert float(rows[-1][1]) > 0.0

    def test_hot_powerlaw_table(self, tmp_path):
        # Gamma runs into the thousands; the oracle's error bound is relative
        out = tmp_path / "gamma.csv"
        assert cli.main(["gamma", "--bath", "powerlaw", "--exponent", "1.05",
                         "--theta", "0.1", "--tau-max", "1000", "--points",
                         "5", "--out", str(out)]) == cli.EXIT_OK
        _, rows = read_csv(out)
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 0.1, n=1.05)
        assert float(rows[-1][1]) > 1e3
        for tau, closed, quad in ([float(v) for v in r] for r in rows):
            bound = gamma_quadrature(bath, tau).est_abs_error + 1e-12 * closed
            assert abs(closed - quad) <= bound

    @pytest.mark.parametrize("bath", [
        ["--bath", "ohmic"], ["--bath", "powerlaw", "--exponent", "1.5"],
        ["--bath", "superohmic"], ["--bath", "powerlaw", "--exponent", "2"]])
    def test_oracle_node_at_zero_is_numerical_failure(self, tmp_path, capsys,
                                                      bath):
        out = tmp_path / "gamma.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["gamma", *bath, "--tau-max", "1e18", "--points",
                             "2", "--out", str(out)]) == cli.EXIT_NUMERIC
        # a warning would print before the one line, with its source line
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and err.count("\n") == 1
        assert "w = 0" in err
        assert not out.exists()


class TestFigures:
    def test_fig1_starts_at_unity(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--points", "30", "--out",
                         str(out)]) == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == ["tau", "nu_ohmic", "nu_superohmic", "nu_markovian"]
        first = [float(v) for v in rows[0]]
        assert first == [0.0, 1.0, 1.0, 1.0]
        # superohmic saturates while the other two keep decaying
        last = [float(v) for v in rows[-1]]
        assert last[1] < last[2] and last[3] < last[2]

    def test_fig2_monotone(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--points", "25", "--out",
                         str(out)]) == cli.EXIT_OK
        _, rows = read_csv(out)
        for col in (1, 2, 3):
            vals = [float(r[col]) for r in rows]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
            assert vals[0] > 0.999

    def test_squared_overflow_decays_to_zero(self, tmp_path, capsys):
        # tau^2 overflows on this grid; Gamma stays finite, so nu is 0
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--tau-max", "1e200", "--points", "3",
                         "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert [(float(r[1]), float(r[3])) for r in rows[1:]] == [(0.0, 0.0)] * 2

    def test_rate_law_finite_past_product_overflow(self, tmp_path, capsys):
        # A pi tau overflows at the last tau, Gamma = A pi tau / theta does not
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--tau-max", "1.7976931348623157e308",
                         "--points", "3", "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert [float(r[3]) for r in rows] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("argv", [
        ["fig1", "--A", "1e308", "--points", "3"],
        ["fig2", "--theta", "1e300", "--points", "3"],
    ])
    def test_non_finite_curve_is_numerical_failure(self, tmp_path, capsys,
                                                  argv):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateAnalyze:
    def test_simulate_repeatable(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["simulate", "--bath", "markovian", "--n", "500",
                "--seed", "7"]
        assert cli.main(args + ["--out", str(a)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(b)]) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_workers_identical_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["simulate", "--bath", "markovian", "--n", "9000",
                "--seed", "3"]
        assert cli.main(args + ["--workers", "1", "--out",
                                str(a)]) == cli.EXIT_OK
        assert cli.main(args + ["--workers", "4", "--out",
                                str(b)]) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_coupling_never_anticorrelates(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", "--A", "0", "--n", "300", "--seed", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            assert obj["d1"] == obj["d2"]

    def test_analyze_report(self, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        cli.main(["simulate", "--bath", "markovian", "--n", "2000",
                  "--seed", "11", "--out", str(rec)])
        code = cli.main(["analyze", "--records", str(rec), "--delta", "inf"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "records:     2000" in out
        assert "nu_hat:" in out
        assert "efficiency:  1.000000" in out

    def test_analyze_bins_csv(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        bins = tmp_path / "bins.csv"
        cli.main(["simulate", "--bath", "markovian", "--n", "5000",
                  "--seed", "13", "--out", str(rec)])
        code = cli.main(["analyze", "--records", str(rec), "--delta", "50",
                         "--bins", "10", "--bins-out", str(bins)])
        assert code == cli.EXIT_OK
        header, rows = read_csv(bins)
        assert header == ["tau_mid", "n", "nu_hat", "ci_low", "ci_high"]
        assert len(rows) == 10
        assert sum(int(r[1]) for r in rows) > 0
        # plain numbers, every bin filled
        for row in rows:
            for cell in row:
                float(cell)

    def test_analyze_bins_keep_last_edge(self, tmp_path):
        # with --delta inf the last bin edge is the largest tau
        rec = tmp_path / "r.jsonl"
        bins = tmp_path / "bins.csv"
        cli.main(["simulate", "--bath", "markovian", "--n", "1000",
                  "--seed", "7", "--out", str(rec)])
        assert cli.main(["analyze", "--records", str(rec), "--delta", "inf",
                         "--bins", "20", "--bins-out",
                         str(bins)]) == cli.EXIT_OK
        _, rows = read_csv(bins)
        assert sum(int(r[1]) for r in rows) == 1000

    def test_analyze_infinite_window_bins_span_retained(self, tmp_path,
                                                        capsys):
        # with --t1-max, the bins end at the largest tau that was kept
        rec = tmp_path / "r.jsonl"
        bins = tmp_path / "bins.csv"
        cli.main(["simulate", "--bath", "markovian", "--n", "2000",
                  "--seed", "5", "--out", str(rec)])
        capsys.readouterr()
        assert cli.main(["analyze", "--records", str(rec), "--delta", "inf",
                         "--t1-max", "20", "--bins", "7", "--bins-out",
                         str(bins)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        retained = int(out.split("retained:")[1].split()[0])
        records = map(json.loads, rec.read_text().splitlines())
        taus = [obj["tau"] for obj in records if obj["t1"] <= 20]
        assert retained == len(taus)
        _, rows = read_csv(bins)
        # edges are linspace(0, hi, 7 + 1), so the outer midpoints add to hi
        assert float(rows[0][0]) + float(rows[-1][0]) == pytest.approx(
            max(taus), rel=1e-12)
        assert sum(int(r[1]) for r in rows) == retained

    @pytest.mark.parametrize("delta", ["inf", "5e-324"])
    def test_analyze_unsplittable_bin_range(self, tmp_path, capsys, delta):
        # every retained tau is 0, or the window itself is one subnormal wide
        rec = tmp_path / "r.jsonl"
        rec.write_text('{"t1": 0.1, "d1": "+", "tau": 0.0, "d2": "+"}\n')
        assert cli.main(["analyze", "--records", str(rec), "--delta", delta,
                         "--bins", "3", "--bins-out",
                         str(tmp_path / "bins.csv")]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot split" in err and "Traceback" not in err
        assert not (tmp_path / "bins.csv").exists()

    @pytest.mark.parametrize("line", [
        "not json", '{"t1": 0.1, "d1": "+", "tau": 1.0}',
        '{"t1": 0.1, "d1": "x", "tau": 1.0, "d2": "+"}', "[1, 2]",
        '{"t1": -1.0, "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": 0.1, "d1": "+", "tau": NaN, "d2": "+"}',
        '{"t1": Infinity, "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": 1%s, "d1": "+", "tau": 1.0, "d2": "+"}' % ("0" * 400),
        '{"t1": null, "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": [0.1], "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": {}, "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": "0.1", "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": true, "d1": "+", "tau": 1.0, "d2": "+"}',
        '{"t1": 0.1, "d1": "+", "tau": "1.0", "d2": "+"}',
        '{"t1": 0.1, "d1": "+", "tau": false, "d2": "+"}',
        pytest.param("[" * 10_000 + "]" * 10_000, id="nested-10000")])
    def test_analyze_malformed_file(self, tmp_path, capsys, line):
        rec = tmp_path / "r.jsonl"
        rec.write_text(line + "\n")
        assert cli.main(["analyze", "--records", str(rec),
                         "--delta", "1"]) == cli.EXIT_IO
        assert "malformed record file" in capsys.readouterr().err

    @pytest.mark.parametrize("line, problem", [
        ('{"t1": 0.1, "d1": 1, "tau": 1.0, "d2": "+"}',
         'detector must be "+" or "-", got 1'),
        ('{"t1": 0.1, "d1": "+", "tau": 1.0, "d2": "x"}',
         'detector must be "+" or "-", got "x"'),
        ("[1, 2]", "a record must be a JSON object, got [1, 2]"),
        ("5", "a record must be a JSON object, got 5"),
        ("null", "a record must be a JSON object, got null")])
    def test_analyze_names_the_problem(self, tmp_path, capsys, line, problem):
        rec = tmp_path / "r.jsonl"
        rec.write_text(line + "\n")
        assert cli.main(["analyze", "--records", str(rec),
                         "--delta", "1"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "malformed record file" in err and problem in err

    def test_analyze_empty_selection(self, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        rec.write_text('{"t1": 0.1, "d1": "+", "tau": 9.0, "d2": "+"}\n')
        code = cli.main(["analyze", "--records", str(rec), "--delta", "1"])
        assert code == cli.EXIT_EMPTY
        assert "empty post-selection" in capsys.readouterr().err

    def test_analyze_missing_file(self, tmp_path):
        assert cli.main(["analyze", "--records",
                         str(tmp_path / "nope.jsonl"),
                         "--delta", "1"]) == cli.EXIT_IO

    def test_simulate_unwritable_path(self, tmp_path):
        # the output file is opened before the first record is drawn
        with mock.patch.object(trajectories, "_draw",
                               side_effect=trajectories._draw) as draw:
            assert cli.main(["simulate", "--n", "5", "--seed", "1", "--out",
                             str(tmp_path / "no" / "dir.jsonl")]) == cli.EXIT_IO
        assert draw.call_count == 0

    def test_simulate_overflowing_times(self, tmp_path):
        # 1/g overflows, so the drawn click times are infinite
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", "--g", "5e-324", "--n", "5", "--seed",
                         "1", "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()

    @pytest.mark.parametrize("bath", [
        ["--bath", "ohmic"], ["--bath", "powerlaw", "--exponent", "2"]])
    def test_simulate_squared_overflow(self, tmp_path, bath):
        # 1/g = 1e160, so tau^2 overflows; Gamma does not
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", *bath, "--g", "1e-160", "--n", "100",
                         "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == 100

    def test_simulate_overflowing_gamma(self, tmp_path):
        # Gamma is NaN here, so every record would come out "different"
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", "--bath", "superohmic", "--A", "0.5",
                         "--theta", "1e300", "--n", "2000", "--seed", "1",
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()


def _run(argv):
    """(exit code, stdout) of the CLI run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _library_analyze(path, delta, t1_max, bins, bins_out):
    """analyze's stdout, with its bins CSV written to bins_out, from the
    whole file read into one batch and the library estimators."""
    with open(path) as fh:
        records = trajectories.read_records(fh)
    window = trajectories.Window(delta, t1_max)
    est = trajectories.estimate_visibility(records, window)
    kept = records.select(window.keep(records))
    hi = delta if math.isfinite(delta) else float(kept.tau.max())
    binned = trajectories.binned_visibility(kept, np.linspace(0.0, hi, bins + 1))
    with open(bins_out, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [["tau_mid", "n", "nu_hat", "ci_low", "ci_high"]]
            + [[repr(float(mid)), n] + [v if v is None else repr(v)
                                        for v in cells]
               for mid, n, *cells in zip(binned.midpoints, binned.counts.tolist(),
                                         binned.nu_hat, binned.ci_low,
                                         binned.ci_high)])
    return (f"records:     {len(records)}\n"
            f"retained:    {est.n_same + est.n_diff} "
            f"(same={est.n_same}, different={est.n_diff})\n"
            f"nu_hat:      {est.nu_hat:.6f}\n"
            f"95% CI:      [{est.ci_low:.6f}, {est.ci_high:.6f}]\n"
            f"efficiency:  {est.efficiency:.6f}\n")


_MARKOV_ARGS = ["--bath", "markovian", "--A", "0.5", "--theta", "10",
                "--g", "0.01"]
_SRC_M = SourceConfig.identical_sources(
    0.01, BathSpec(BathFamily.MARKOVIAN, 0.5, 10.0))


class TestStreaming:
    """simulate writes a chunk at a time and analyze reads a block at a time;
    their outputs equal those of the whole-batch library calls."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_record_file_matches_library(self, tmp_path, n):
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", *_MARKOV_ARGS, "--n", str(n), "--seed",
                         "8", "--out", str(out)]) == cli.EXIT_OK
        buf = io.StringIO()
        trajectories.write_records(buf, trajectories.simulate_ensemble(8, n, _SRC_M))
        assert out.read_bytes() == buf.getvalue().encode()
        assert os.listdir(tmp_path) == ["r.jsonl"]

    # at --t1-max 2.5, 227 of the 228 blocks of 4000 characters keep no
    # record at --delta 0.5 and 15 keep none at --delta inf
    @pytest.mark.parametrize("block", [4000, trajectories._BLOCK])
    @pytest.mark.parametrize("t1_max", [None, "30", "2.5"])
    @pytest.mark.parametrize("delta", ["0.5", "inf"])
    def test_analyze_matches_library(self, tmp_path, delta, t1_max, block):
        rec = tmp_path / "r.jsonl"
        assert cli.main(["simulate", *_MARKOV_ARGS, "--n", str(3 * 4096 + 5),
                         "--seed", "2", "--out", str(rec)]) == cli.EXIT_OK
        flags = [] if t1_max is None else ["--t1-max", t1_max]
        with mock.patch.object(trajectories, "_BLOCK", block):
            code, stdout = _run(["analyze", "--records", str(rec), "--delta",
                                 delta, *flags, "--bins", "9", "--bins-out",
                                 str(tmp_path / "bins.csv")])
        assert code == cli.EXIT_OK
        expected = _library_analyze(
            rec, float(delta), None if t1_max is None else float(t1_max), 9,
            tmp_path / "expected.csv")
        assert stdout == expected
        assert (tmp_path / "bins.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    def test_bad_line_in_last_block(self, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        assert cli.main(["simulate", *_MARKOV_ARGS, "--n", "2000", "--seed",
                         "4", "--out", str(rec)]) == cli.EXIT_OK
        with open(rec, "a") as fh:
            fh.write('{"t1": 0.1, "d1": "+", "tau": -1.0, "d2": "+"}\n')
        capsys.readouterr()
        with mock.patch.object(trajectories, "_BLOCK", 4000):
            assert cli.main(["analyze", "--records", str(rec), "--delta", "1",
                             "--bins", "5", "--bins-out",
                             str(tmp_path / "bins.csv")]) == cli.EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert "malformed record file" in err
        assert not (tmp_path / "bins.csv").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_second_chunk(self, tmp_path, existing):
        out = tmp_path / "r.jsonl"
        if existing:
            out.write_text("an earlier file\n")
        draws, real_draw = [], trajectories._draw

        def draw(*args):
            draws.append(args)
            if len(draws) == 2:
                raise FloatingPointError("failed in chunk 2")
            return real_draw(*args)

        with mock.patch.object(trajectories, "_draw", side_effect=draw):
            assert cli.main(["simulate", *_MARKOV_ARGS, "--n", "10000",
                             "--seed", "1", "--out", str(out)]) == cli.EXIT_NUMERIC
        assert len(draws) == 2
        assert os.listdir(tmp_path) == (["r.jsonl"] if existing else [])
        if existing:
            assert out.read_text() == "an earlier file\n"

    def test_devnull_written_in_place(self):
        assert cli.main(["simulate", *_MARKOV_ARGS, "--n", "5000", "--seed",
                         "1", "--out", os.devnull]) == cli.EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_pipe_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a reader is open, so opening the writing end does not block; 100
        # records fit in the pipe's buffer
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["simulate", *_MARKOV_ARGS, "--n", "100", "--seed",
                             "1", "--out", str(fifo)]) == cli.EXIT_OK
            data = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        buf = io.StringIO()
        trajectories.write_records(buf, trajectories.simulate_ensemble(1, 100, _SRC_M))
        assert data == buf.getvalue().encode()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_replaced_file_and_link_keep_mode(self, tmp_path):
        out, link = tmp_path / "r.jsonl", tmp_path / "link.jsonl"
        out.write_text("an earlier file\n")
        out.chmod(0o600)
        link.symlink_to(out)
        assert cli.main(["simulate", *_MARKOV_ARGS, "--n", "10", "--seed", "1",
                         "--out", str(link)]) == cli.EXIT_OK
        assert link.is_symlink()
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        buf = io.StringIO()
        trajectories.write_records(buf, trajectories.simulate_ensemble(1, 10, _SRC_M))
        assert out.read_text() == buf.getvalue()
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "r.jsonl"]

    def test_memory_stays_flat(self, tmp_path):
        # the simulate and analyze --delta 1 peaks are set by one chunk or
        # block, not by the number of records
        def peak(argv):
            tracemalloc.start()
            try:
                code, _ = _run(argv)
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = []
        for n in (50_000, 400_000):
            rec = str(tmp_path / f"r{n}.jsonl")
            sim = peak(["simulate", *_MARKOV_ARGS, "--n", str(n), "--seed",
                        "6", "--out", rec])
            ana = peak(["analyze", "--records", rec, "--delta", "1",
                        "--bins", "20", "--bins-out", str(tmp_path / "b.csv")])
            assert sim[0] == ana[0] == cli.EXIT_OK
            peaks.append((sim[1], ana[1]))
        (sim_small, ana_small), (sim_large, ana_large) = peaks
        assert abs(sim_large - sim_small) <= 2 << 20
        assert abs(ana_large - ana_small) <= 2 << 20


# Run in a fresh interpreter, so that no earlier import in the test session
# counts: prints the scipy submodules loaded after each step.
_COLD_START = """
import json, sys
import homsim
from homsim import cli

def loaded():
    return [m for m in ("scipy.special", "scipy.integrate") if m in sys.modules]

steps = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


class TestColdStart:
    def test_scipy_loaded_only_when_a_kernel_needs_it(self, tmp_path):
        records = str(tmp_path / "r.jsonl")
        steps = [
            ("simulate", ["simulate", *_MARKOV_ARGS, "--n", "5000", "--seed",
                          "1", "--out", records]),
            ("analyze", ["analyze", "--records", records, "--delta", "1",
                         "--bins", "4", "--bins-out", str(tmp_path / "b.csv")]),
            ("fig1", ["fig1", "--points", "5", "--out", str(tmp_path / "f.csv")]),
            ("gamma", ["gamma", "--points", "3", "--out",
                       str(tmp_path / "g.csv")]),
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _COLD_START,
                               json.dumps(steps)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["import"] == []
        assert loaded["simulate"] == loaded["analyze"] == []
        assert loaded["fig1"] == ["scipy.special"]
        # gamma's quadrature column shows that the check sees a load
        assert loaded["gamma"] == ["scipy.special", "scipy.integrate"]


# Run one command as the child of a small, fresh interpreter: prints its
# exit code and peak RSS in bytes (getrusage gives KiB on Linux, bytes on
# macOS).  A process's ru_maxrss starts at that of the process it was forked
# from, which the pytest process would set.
_PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "homsim.cli",
                                      *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status),
      usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024))
"""


class TestPeakMemory:
    def test_peak_rss_bounded_by_block(self, tmp_path):
        # simulate holds a chunk; analyze holds a block, plus 9 bytes per
        # retained record only when --bins needs them
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)

        def peak(*argv):
            proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                                  env=env, cwd=tmp_path, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            code, rss = proc.stdout.splitlines()[-1].split()
            assert int(code) == cli.EXIT_OK
            return int(rss)

        sizes = (100_000, 400_000)
        peaks = {}
        for n in sizes:
            rec = str(tmp_path / f"r{n}.jsonl")
            peaks["simulate", n] = peak("simulate", *_MARKOV_ARGS, "--n", str(n),
                                        "--seed", "6", "--out", rec)
            for delta in ("1", "inf"):
                peaks[delta, n] = peak("analyze", "--records", rec, "--delta",
                                       delta)
            peaks["bins", n] = peak("analyze", "--records", rec, "--delta",
                                    "inf", "--bins", "20", "--bins-out",
                                    str(tmp_path / "b.csv"))
        small, large = sizes
        growth = {key: peaks[key, large] - peaks[key, small]
                  for key in ("simulate", "1", "inf", "bins")}
        assert max(growth["simulate"], growth["1"], growth["inf"]) <= 2e6, growth
        assert growth["bins"] <= 9 * (large - small) + 2e6, growth


_ANY_FLOAT = st.one_of(st.floats(), st.floats(-1.0, 100.0), st.sampled_from(
    [math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 2.5, 1e-300, 1e300]))
_GRID_FLAGS = {"fig1": ("--tau-max",), "visibility": ("--tau-max",),
               "fig2": ("--delta-min", "--delta-max"),
               "windowed": ("--delta-min", "--delta-max")}


@st.composite
def _curve_argv(draw):
    command = draw(st.sampled_from(sorted(_GRID_FLAGS)))
    argv = [command]
    if command in ("visibility", "windowed"):
        family = draw(st.sampled_from([f.value for f in BathFamily]))
        argv += ["--bath", family]
        if family == "powerlaw":
            argv += ["--exponent", repr(draw(_ANY_FLOAT))]
    for flag in ("--A", "--theta") + _GRID_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, repr(draw(_ANY_FLOAT))]
    points = draw(st.one_of(st.integers(-3, 40).map(str),
                            st.sampled_from(["nan", "inf", "-1", "2.5"])))
    return argv + ["--points", points]


def _exit_code(argv):
    """Run the CLI in-process; the exit code must be documented and stderr
    must hold no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC,
                    cli.EXIT_IO, cli.EXIT_EMPTY}
    assert "Traceback" not in err.getvalue()
    return code


# The derandomized draws change whenever the library does, so the known edge
# cases are @example rows that every run re-checks; the plain tests above pin
# their exit codes.
class TestCurveExitCodes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=_curve_argv())
    @example(argv=["fig1", "--A", "1e308", "--points", "3"])
    @example(argv=["fig2", "--theta", "1e300", "--points", "3"])
    @example(argv=["visibility", "--bath", "powerlaw", "--exponent", "0.5"])
    # np.linspace overflows in its own arithmetic on this finite grid
    @example(argv=["visibility", "--bath", "markovian", "--tau-max",
                   "1.7976931348623157e308", "--points", "7"])
    def test_documented_code_without_traceback(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "curve.csv")
            if _exit_code(argv + ["--out", out]) == cli.EXIT_OK:
                _, rows = read_csv(out)
                assert all(math.isfinite(float(v)) for r in rows for v in r)


# half of the draws are sensible values, so that most examples get as far
# as analyze
_MC_FLOAT = st.one_of(st.floats(1e-3, 1e3), st.just(math.inf), _ANY_FLOAT)


@st.composite
def _simulate_argv(draw):
    family = draw(st.sampled_from([f.value for f in BathFamily]))
    argv = ["simulate", "--bath", family]
    if family == "powerlaw":
        argv += ["--exponent", repr(draw(st.floats(1.0, 4.0)))]
    if draw(st.booleans()):
        argv += ["--g", repr(draw(_MC_FLOAT))]
    return argv + [
        "--n", draw(st.one_of(st.integers(-2, 2000).map(str),
                              st.sampled_from(["0", "nan", "1e3"]))),
        "--seed", str(draw(st.integers(-2, 2**40))),
        "--workers", str(draw(st.sampled_from([-1, 0, 1, 2, 8])))]


@st.composite
def _analyze_argv(draw):
    argv = ["--delta", repr(draw(_MC_FLOAT))]
    if draw(st.booleans()):
        argv += ["--t1-max", repr(draw(_MC_FLOAT))]
    if draw(st.booleans()):
        argv += ["--bins", draw(st.one_of(st.integers(-3, 50).map(str),
                                          st.sampled_from(["nan", "2.5"])))]
    return argv


class TestMonteCarloExitCodes:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(simulate=_simulate_argv(), analyze=_analyze_argv())
    @example(simulate=["simulate", "--g", "5e-324", "--n", "5", "--seed", "1"],
             analyze=["--delta", "1"])
    # no simulated tau is 0, so a subnormal window keeps nothing (exit 5);
    # test_analyze_unsplittable_bin_range pins the tau = 0 file (exit 2)
    @example(simulate=["simulate", "--bath", "markovian", "--n", "50",
                       "--seed", "1"],
             analyze=["--delta", "5e-324", "--bins", "3"])
    def test_documented_code_without_traceback(self, simulate, analyze):
        with tempfile.TemporaryDirectory() as tmp:
            records = os.path.join(tmp, "records.jsonl")
            if _exit_code(simulate + ["--out", records]) != cli.EXIT_OK:
                assert not os.path.exists(records)
                return
            _exit_code(["analyze", "--records", records, *analyze,
                        "--bins-out", os.path.join(tmp, "bins.csv")])
