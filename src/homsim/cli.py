"""Command-line front end.

All flags are dimensionless, in units of the bath cutoff frequency omega_c
(times are omega_c*t, rates are gamma/omega_c, theta = omega_c*beta).

Exit codes: 0 success, 2 bad usage, 3 numerical failure, 4 I/O failure,
5 empty post-selection.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import secrets
import stat
import sys
import warnings

import numpy as np
import scipy

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


def _bath(args, family=None) -> BathSpec:
    """The bath of --bath, or of ``family`` at the same --A and --theta."""
    try:
        bath = BathSpec(family=BathFamily(family or args.bath), A=args.A,
                        theta=args.theta, n=None if family else args.exponent)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if bath.n is not None and bath.n < 1:
        raise UsageError(f"Gamma diverges for --exponent {bath.n} < 1")
    return bath


def _grid(space, start, stop, num) -> np.ndarray:
    """space(start, stop, num); a grid numpy refuses to allocate is bad usage."""
    try:
        return space(start, stop, num)
    except (MemoryError, ValueError) as exc:
        raise UsageError(f"a grid of {num} points is too large: {exc}") from exc


def _tau_grid(args) -> np.ndarray:
    if not 0 < args.tau_max < math.inf or args.points < 2:
        raise UsageError("need finite --tau-max > 0 and --points >= 2")
    return _grid(np.linspace, 0.0, args.tau_max, args.points)


def _delta_grid(args) -> np.ndarray:
    if not 0 < args.delta_min < args.delta_max < math.inf or args.points < 2:
        raise UsageError("need 0 < --delta-min < --delta-max < inf "
                         "and --points >= 2")
    return _grid(np.geomspace, args.delta_min, args.delta_max, args.points)


def _write_csv(path, header, rows):
    """Write rows of plain numbers; a NaN or inf is a numerical failure."""
    rows = [[repr(float(v)) if isinstance(v, float) else v for v in row]
            for row in rows]
    if any(v in ("nan", "inf", "-inf") for row in rows for v in row):
        raise FloatingPointError(f"NaN or inf in the {', '.join(header)} table")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


class _IOFailure(Exception):
    """A record file that cannot be parsed; an OSError exits the same way."""


def cmd_gamma(args) -> int:
    bath = _bath(args)
    if bath.family is BathFamily.MARKOVIAN:
        raise UsageError("gamma table needs a bath with a spectral density")
    taus = _tau_grid(args)
    closed = gamma_closed_array(bath, taus)
    with warnings.catch_warnings():
        # gamma_quadrature checks its own error bound and a failure exits 3
        # with one line, so QUADPACK's warning would only repeat it
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        quad = [gamma_quadrature(bath, float(t)).gamma_big for t in taus]
    rows = zip(taus, closed, quad)
    _write_csv(args.out, ["tau", "gamma_closed", "gamma_quadrature"], rows)
    return EXIT_OK


_FIGURE_BATHS = ("ohmic", "superohmic", "markovian")


def cmd_curve(args) -> int:
    """fig1, fig2, visibility and windowed: one array call per column.

    The figures hold one column per reference bath, the single curves one
    for the bath of --bath; the grid is tau for nu and Delta for nu'.
    """
    if args.figure:
        baths = [_bath(args, f) for f in _FIGURE_BATHS]
        names = [f"nu_{f}" for f in _FIGURE_BATHS]
    else:
        baths, names = [_bath(args)], ["nu"]
    if args.windowed:
        grid, kernel, axis = _delta_grid(args), windowed_visibility, "delta"
    else:
        grid, kernel, axis = _tau_grid(args), visibility, "tau"
    # nu and nu' do not depend on the decay rate, so any g will do
    columns = [kernel(SourceConfig.identical_sources(DEFAULT_G, bath), grid)
               for bath in baths]
    _write_csv(args.out, [axis, *names], zip(grid, *columns))
    return EXIT_OK


@contextlib.contextmanager
def _replace_on_success(path):
    """A text handle for writing ``path``.

    A regular file, or one that does not exist yet, is written as a new file
    next to it, which replaces it, with its permission bits, when the block
    succeeds and is removed when it fails: a failed run leaves no partial
    file, and a file already at ``path`` untouched.  A symbolic link is
    followed: the file it points to is replaced.  Anything else, such as
    /dev/null or a pipe, is opened and written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x")  # outside the try: a file this call did not make stays
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def cmd_simulate(args) -> int:
    bath = _bath(args)
    try:
        src = SourceConfig.identical_sources(args.g, bath)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.n < 1 or args.seed < 0 or args.workers < 1:
        raise UsageError("need --n >= 1, --seed >= 0 and --workers >= 1")
    # each chunk is written as soon as it is drawn
    with _replace_on_success(args.out) as fh:
        try:
            for chunk in trajectories.simulate_chunks(args.seed, args.n, src):
                trajectories.write_records(fh, chunk)
        except ValueError as exc:  # click times overflow when 1/g is huge
            raise FloatingPointError(f"click times overflow: {exc}") from exc
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        window = Window(delta=args.delta, t1_max=args.t1_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.bins < 0:
        raise UsageError(f"--bins must be >= 0, got {args.bins}")
    # the file is post-selected a block at a time: only the retained records'
    # counts are kept, and their tau and same-detector flag if --bins needs them
    try:
        with open(args.records) as fh:
            selection = trajectories.Selection.of(
                trajectories.read_blocks(fh), window, columns=args.bins > 0)
    except (ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        raise _IOFailure(f"malformed record file: {exc!r}") from exc

    est = selection.estimate(window)
    if args.bins:
        hi = (args.delta if math.isfinite(args.delta)
              else max(float(tau.max()) for tau in selection.tau))
        try:
            binned = selection.binned(_grid(np.linspace, 0.0, hi, args.bins + 1))
        except ValueError as exc:
            raise UsageError(f"--bins {args.bins} cannot split the range "
                             f"[0, {hi!r}]") from exc
    print(f"records:     {selection.seen}")
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


# the commands that write one curve table: name, function, whether the
# columns are the three reference baths (else the bath of --bath), the grid
# (tau, or window widths Delta), the default --points, and the help
_GRID_COMMANDS = (
    ("gamma", cmd_gamma, False, "tau", 200,
     "decoherence function table (closed form vs quadrature)"),
    ("fig1", cmd_curve, True, "tau", 200,
     "time-resolved visibility of the three reference baths"),
    ("fig2", cmd_curve, True, "delta", 200,
     "windowed visibility of the three reference baths"),
    ("visibility", cmd_curve, False, "tau", 200, "time-resolved visibility curve"),
    ("windowed", cmd_curve, False, "delta", 100, "windowed visibility curve"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Time-resolved two-photon interference with dephasing "
                    "sources. All quantities are dimensionless in units of "
                    "the bath cutoff frequency.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, figure, grid, points, help_ in _GRID_COMMANDS:
        p = sub.add_parser(name, help=help_)
        if figure:
            p.add_argument("--A", type=float, default=DEFAULT_A)
            p.add_argument("--theta", type=float, default=DEFAULT_THETA)
        else:
            _bath_args(p)
        if grid == "tau":
            p.add_argument("--tau-max", type=float, default=10.0)
        else:
            p.add_argument("--delta-min", type=float, default=1e-3)
            p.add_argument("--delta-max", type=float, default=10.0)
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--out", **({"default": f"{name}.csv"} if figure
                                   else {"required": True}))
        p.set_defaults(func=func)
        if func is cmd_curve:
            p.set_defaults(figure=figure, windowed=grid == "delta")

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
    except (_IOFailure, OSError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except EmptySelectionError as exc:
        print(f"empty post-selection: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
