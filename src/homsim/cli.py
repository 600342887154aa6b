"""Command-line front end.

All flags are dimensionless, in units of the bath cutoff frequency omega_c
(times are omega_c*t, rates are gamma/omega_c, theta = omega_c*beta).

Exit codes, all decided in main from the exception alone, since the library
raises without a numpy or scipy warning first: 0 success, 2 bad usage (any
ValueError), 3 numerical failure, 4 I/O failure, 5 empty post-selection.
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
    bath = BathSpec(family=BathFamily(family or args.bath), A=args.A,
                    theta=args.theta, n=None if family else args.exponent)
    if bath.n is not None and bath.n < 1:
        raise ValueError(f"--exponent must be >= 1, got {bath.n}")
    return bath


def _grid(space, start, stop, num) -> np.ndarray:
    """space(start, stop, num); a grid numpy refuses to allocate is bad usage."""
    try:
        # np.linspace's own arithmetic can overflow where no point does
        with np.errstate(over="ignore"):
            return space(start, stop, num)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"a grid of {num} points is too large: {exc}") from exc


def _tau_grid(args) -> np.ndarray:
    if not 0 < args.tau_max < math.inf or args.points < 2:
        raise ValueError("need finite --tau-max > 0 and --points >= 2")
    return _grid(np.linspace, 0.0, args.tau_max, args.points)


def _delta_grid(args) -> np.ndarray:
    if not 0 < args.delta_min < args.delta_max < math.inf or args.points < 2:
        raise ValueError("need 0 < --delta-min < --delta-max < inf "
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


_FIGURE_BATHS = ("ohmic", "superohmic", "markovian")

# the commands that write one curve table, by name: whether the columns
# repeat over the three reference baths (else the bath of --bath), the grid
# (tau, or window widths Delta), the default --points, the help, and each
# column's kernel(src, grid)
_GRID_COMMANDS = {
    "gamma": (False, "tau", 200,
              "decoherence function table (closed form vs quadrature)",
              {"gamma_closed":
                   lambda src, taus: gamma_closed_array(src.bath1, taus),
               "gamma_quadrature": lambda src, taus: [
                   gamma_quadrature(src.bath1, t).gamma_big for t in taus]}),
    "fig1": (True, "tau", 200,
             "time-resolved visibility of the three reference baths",
             {"nu": visibility}),
    "fig2": (True, "delta", 200,
             "windowed visibility of the three reference baths",
             {"nu": windowed_visibility}),
    "visibility": (False, "tau", 200, "time-resolved visibility curve",
                   {"nu": visibility}),
    "windowed": (False, "delta", 100, "windowed visibility curve",
                 {"nu": windowed_visibility}),
}


def cmd_table(args) -> int:
    """Every command of _GRID_COMMANDS: one array call per column and bath.

    A figure names its columns by bath, nu_ohmic, nu_superohmic and so on.
    """
    figure, axis, _, _, kernels = _GRID_COMMANDS[args.command]
    baths = ([(f"_{f}", _bath(args, f)) for f in _FIGURE_BATHS] if figure
             else [("", _bath(args))])
    grid = _tau_grid(args) if axis == "tau" else _delta_grid(args)
    header, columns = [axis], []
    for name, kernel in kernels.items():
        for suffix, bath in baths:
            # Gamma, nu and nu' do not depend on the decay rate: any g will do
            src = SourceConfig.identical_sources(DEFAULT_G, bath)
            header.append(name + suffix)
            columns.append(kernel(src, grid))
    _write_csv(args.out, header, zip(grid, *columns))
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
    src = SourceConfig.identical_sources(args.g, _bath(args))
    if args.n < 1 or args.seed < 0 or args.workers < 1:
        raise ValueError("need --n >= 1, --seed >= 0 and --workers >= 1")
    # each chunk is written as soon as it is drawn
    with _replace_on_success(args.out) as fh:
        for chunk in trajectories.simulate_chunks(args.seed, args.n, src):
            trajectories.write_records(fh, chunk)
    return EXIT_OK


def cmd_analyze(args) -> int:
    window = Window(delta=args.delta, t1_max=args.t1_max)
    if args.bins < 0:
        raise ValueError(f"--bins must be >= 0, got {args.bins}")
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
        edges = _grid(np.linspace, 0.0, hi, args.bins + 1)
        try:
            binned = selection.binned(edges)
        except ValueError as exc:
            raise ValueError(f"--bins {args.bins} cannot split the range "
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Time-resolved two-photon interference with dephasing "
                    "sources. All quantities are dimensionless in units of "
                    "the bath cutoff frequency.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (figure, grid, points, help_, _) in _GRID_COMMANDS.items():
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
        p.set_defaults(func=cmd_table)

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
        return args.func(args)
    except ValueError as exc:  # a parameter the CLI or the library refused
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
