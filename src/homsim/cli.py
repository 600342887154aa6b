"""Command-line front end.

All flags are dimensionless, in units of the bath cutoff frequency omega_c
(times are omega_c*t, rates are gamma/omega_c, theta = omega_c*beta).

Exit codes: 0 success, 2 bad usage, 3 numerical failure, 4 I/O failure,
5 empty post-selection.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import trajectories
from .bath import (BathFamily, BathSpec, QuadratureError, gamma_closed_array,
                   gamma_quadrature)
from .dynamics import SourceConfig
from .interference import visibility, windowed_visibility
from .trajectories import EmptySelectionError, Window

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_EMPTY = 5

# defaults throughout: A = 0.5, theta = 10, g = 0.01
DEFAULT_A = 0.5
DEFAULT_THETA = 10.0
DEFAULT_G = 0.01


class UsageError(Exception):
    pass


def _bath_args(parser):
    parser.add_argument("--bath", default="ohmic",
                        choices=[f.value for f in BathFamily],
                        help="spectral family")
    parser.add_argument("--A", type=float, default=DEFAULT_A,
                        help="coupling strength (>= 0)")
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA,
                        help="dimensionless inverse temperature omega_c*beta")
    parser.add_argument("--exponent", type=float, default=None,
                        help="spectral exponent (powerlaw only)")


def _bath(family, A, theta, n=None) -> BathSpec:
    try:
        bath = BathSpec(family=BathFamily(family), A=A, theta=theta, n=n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if bath.n is not None and bath.n < 1:
        raise UsageError(f"Gamma diverges for --exponent {bath.n} < 1")
    return bath


def _make_bath(args) -> BathSpec:
    return _bath(args.bath, args.A, args.theta, args.exponent)


def _curve_source(bath: BathSpec) -> SourceConfig:
    # nu and nu' do not depend on the decay rate, so any g will do
    return SourceConfig.identical_sources(DEFAULT_G, bath)


def _tau_grid(args) -> np.ndarray:
    if not 0 < args.tau_max < math.inf or args.points < 2:
        raise UsageError("need finite --tau-max > 0 and --points >= 2")
    return np.linspace(0.0, args.tau_max, args.points)


def _delta_grid(args) -> np.ndarray:
    if not 0 < args.delta_min < args.delta_max < math.inf or args.points < 2:
        raise UsageError("need 0 < --delta-min < --delta-max < inf "
                         "and --points >= 2")
    return np.geomspace(args.delta_min, args.delta_max, args.points)


def _write_csv(path, header, rows):
    """Write rows of plain numbers; a NaN or inf is a numerical failure."""
    rows = [[repr(float(v)) if isinstance(v, float) else v for v in row]
            for row in rows]
    if any(v in ("nan", "inf", "-inf") for row in rows for v in row):
        raise FloatingPointError(f"NaN or inf in the {', '.join(header)} table")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def cmd_gamma(args) -> int:
    bath = _make_bath(args)
    if bath.family is BathFamily.MARKOVIAN:
        raise UsageError("gamma table needs a bath with a spectral density")
    taus = _tau_grid(args)
    rows = zip(taus, gamma_closed_array(bath, taus),
               [gamma_quadrature(bath, float(t)).gamma_big for t in taus])
    _write_csv(args.out, ["tau", "gamma_closed", "gamma_quadrature"], rows)
    return EXIT_OK


_FIGURE_BATHS = ("ohmic", "superohmic", "markovian")


def cmd_curve(args) -> int:
    """fig1, fig2, visibility and windowed: one array call per column.

    The figures hold one column per reference bath, the single curves one
    for the bath of --bath; the grid is tau for nu and Delta for nu'.
    """
    if args.figure:
        baths = [_bath(f, args.A, args.theta) for f in _FIGURE_BATHS]
        names = [f"nu_{f}" for f in _FIGURE_BATHS]
    else:
        baths, names = [_make_bath(args)], ["nu"]
    if args.windowed:
        grid, kernel, axis = _delta_grid(args), windowed_visibility, "delta"
    else:
        grid, kernel, axis = _tau_grid(args), visibility, "tau"
    columns = [kernel(_curve_source(bath), grid) for bath in baths]
    _write_csv(args.out, [axis, *names], zip(grid, *columns))
    return EXIT_OK


def cmd_simulate(args) -> int:
    bath = _make_bath(args)
    try:
        src = SourceConfig.identical_sources(args.g, bath)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.n < 1 or args.seed < 0 or args.workers < 1:
        raise UsageError("need --n >= 1, --seed >= 0 and --workers >= 1")
    try:
        records = trajectories.simulate_ensemble(args.seed, args.n, src,
                                                 workers=args.workers)
    except ValueError as exc:  # click times overflow when 1/g is huge
        raise FloatingPointError(f"click times overflow: {exc}") from exc
    try:
        with open(args.out, "w") as fh:
            trajectories.write_records(fh, records)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        window = Window(delta=args.delta, t1_max=args.t1_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.bins < 0:
        raise UsageError(f"--bins must be >= 0, got {args.bins}")
    try:
        with open(args.records) as fh:
            records = trajectories.read_records(fh)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise _IOFailure(f"malformed record file: {exc!r}") from exc

    est = trajectories.estimate_visibility(records, window)
    if args.bins:
        keep = window.keep(records)
        kept = records if keep.all() else records.select(keep)
        hi = args.delta if math.isfinite(args.delta) else float(kept.tau.max())
        try:
            binned = trajectories.binned_visibility(
                kept, np.linspace(0.0, hi, args.bins + 1))
        except ValueError as exc:
            raise UsageError(f"--bins {args.bins} cannot split the range "
                             f"[0, {hi!r}]") from exc
    print(f"records:     {len(records)}")
    print(f"retained:    {est.n_same + est.n_diff} "
          f"(same={est.n_same}, different={est.n_diff})")
    print(f"nu_hat:      {est.nu_hat:.6f}")
    print(f"95% CI:      [{est.ci_low:.6f}, {est.ci_high:.6f}]")
    print(f"efficiency:  {est.efficiency:.6f}")
    if args.bins:
        _write_csv(args.bins_out, ["tau_mid", "n", "nu_hat", "ci_low",
                                   "ci_high"],
                   zip(binned.midpoints, binned.counts.tolist(),
                       binned.nu_hat, binned.ci_low, binned.ci_high))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Time-resolved two-photon interference with dephasing "
                    "sources. All quantities are dimensionless in units of "
                    "the bath cutoff frequency.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="decoherence function table (closed "
                                     "form vs quadrature)")
    _bath_args(p)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("fig1", help="time-resolved visibility of the three "
                                    "reference baths")
    p.add_argument("--A", type=float, default=DEFAULT_A)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default="fig1.csv")
    p.set_defaults(func=cmd_curve, figure=True, windowed=False)

    p = sub.add_parser("fig2", help="windowed visibility of the three "
                                    "reference baths")
    p.add_argument("--A", type=float, default=DEFAULT_A)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--delta-min", type=float, default=1e-3)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default="fig2.csv")
    p.set_defaults(func=cmd_curve, figure=True, windowed=True)

    p = sub.add_parser("visibility", help="time-resolved visibility curve")
    _bath_args(p)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve, figure=False, windowed=False)

    p = sub.add_parser("windowed", help="windowed visibility curve")
    _bath_args(p)
    p.add_argument("--delta-min", type=float, default=1e-3)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve, figure=False, windowed=True)

    p = sub.add_parser("simulate", help="draw Monte Carlo click records")
    _bath_args(p)
    p.add_argument("--g", type=float, default=DEFAULT_G,
                   help="decay rate gamma/omega_c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="must be >= 1; sampling is serial, so it has no effect")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="post-select records and estimate "
                                       "visibility")
    p.add_argument("--records", required=True)
    p.add_argument("--delta", type=float, required=True,
                   help="window width (inf allowed)")
    p.add_argument("--t1-max", type=float, default=None)
    p.add_argument("--bins", type=int, default=0,
                   help="also write a binned visibility CSV")
    p.add_argument("--bins-out", default="bins.csv")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a NaN or inf result exits 3 below, so numpy's warnings are noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _IOFailure as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except EmptySelectionError as exc:
        print(f"empty post-selection: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
