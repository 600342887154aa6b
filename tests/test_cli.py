"""CLI exit codes and output files."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homsim import cli
from homsim.bath import BathFamily, BathSpec, gamma_quadrature


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
                  "out": "fig1.csv", "figure": True, "windowed": False}),
    "fig2": ([], {"A": 0.5, "theta": 10.0, **_DELTA_GRID, "points": 200,
                  "out": "fig2.csv", "figure": True, "windowed": True}),
    "visibility": (["--out", "o"], {**_BATH_DEFAULTS, **_TAU_GRID,
                                    "points": 200, "out": "o",
                                    "figure": False, "windowed": False}),
    "windowed": (["--out", "o"], {**_BATH_DEFAULTS, **_DELTA_GRID,
                                  "points": 100, "out": "o", "figure": False,
                                  "windowed": True}),
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
            "gamma": cli.cmd_gamma, "simulate": cli.cmd_simulate,
            "analyze": cli.cmd_analyze}.get(command, cli.cmd_curve)
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
        '{"t1": 0.1, "d1": "+", "tau": false, "d2": "+"}'])
    def test_analyze_malformed_file(self, tmp_path, capsys, line):
        rec = tmp_path / "r.jsonl"
        rec.write_text(line + "\n")
        assert cli.main(["analyze", "--records", str(rec),
                         "--delta", "1"]) == cli.EXIT_IO
        assert "malformed record file" in capsys.readouterr().err

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
        assert cli.main(["simulate", "--n", "5", "--seed", "1", "--out",
                         str(tmp_path / "no" / "dir.jsonl")]) == cli.EXIT_IO

    def test_simulate_overflowing_times(self, tmp_path):
        # 1/g overflows, so the drawn click times are infinite
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", "--g", "5e-324", "--n", "5", "--seed",
                         "1", "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()

    def test_simulate_overflowing_gamma(self, tmp_path):
        # Gamma is NaN here, so every record would come out "different"
        out = tmp_path / "r.jsonl"
        assert cli.main(["simulate", "--bath", "superohmic", "--A", "0.5",
                         "--theta", "1e300", "--n", "2000", "--seed", "1",
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()


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
