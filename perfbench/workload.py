"""One round of a benchmark workload, in this fresh process.

Started by run.py, once per round, with PYTHONPATH pointing at the
checkout's src/, so that every round pays what a command-line user pays:
a cold `import homsim` (timed first thing) and no cache left by an earlier
round.  The round's operations are timed one by one; their outputs are then
checked, outside the timed region, against reference.py (first round) or
against the first round (later rounds).  The last line of output is the
round's JSON record.  With --probes it instead runs the traced run's layer
probes (probes.py).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import homsim  # noqa: E402  (timed: this is the set-up every command pays)
_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from homsim import cli  # noqa: E402
from homsim.bath import BathFamily, BathSpec  # noqa: E402
from homsim.dynamics import SourceConfig  # noqa: E402
from homsim.interference import (postselected_visibility,  # noqa: E402
                                 visibility, visibility_nonidentical)

A, THETA, G = 0.5, 10.0, 0.01
SWEEP_THETAS = (1.0, 10.0, 100.0)
# A statistical check passes when the estimate lies within Z standard errors
# (plus Z counts of discreteness slack) of its reference.
Z = 6.0
# Deterministic outputs must match the independent references this closely.
TOL = 1e-8
CI_SLACK = 1e-6  # analyze prints nu_hat and its interval to six decimals
# Machine-speed calibration (see Round): a loop of CAL_LOOP iterations is
# timed every CAL_EVERY_S of operation time; CAL_NOMINAL_S is its time on
# the 2-core sandbox the bounds were set on.
CAL_LOOP = 250_000
CAL_EVERY_S = 0.5
CAL_NOMINAL_S = 0.02
CAL_MAX_SAMPLES = 5
TICK_S = 0.2
TICK_LOOP = 25_000

WORKLOADS = ("mc_markovian", "mc_nonmarkovian", "sweep_curves")
CLI_COMMANDS = ("gamma", "fig1", "fig2", "windowed", "simulate", "analyze")


def derive_seed(seed: int, tag: str) -> int:
    """A non-negative 31-bit seed for one input stream of the workload."""
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0x7FFFFFFF


def _spin(iterations: int) -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop."""
    t = time.perf_counter()
    s = 0
    for i in range(iterations):
        s += i * i
    return time.perf_counter() - t


def calibrate(samples: int) -> float:
    """Seconds per iteration of the calibration loop (median of `samples`)."""
    return statistics.median(_spin(CAL_LOOP) for _ in range(samples)) / CAL_LOOP


class Round:
    """One pass over a workload's operations, each timed on its own.

    The speed of Python code on a shared machine drifts by tens of percent
    over seconds to minutes, and Python code is most of this program's time.
    So the round keeps a speedometer: a fixed loop timed between operations
    and, through SIGALRM, every TICK_S inside them.  `wall` adds up the
    operation time (the ticks' own time taken out); `scaled` adds it up
    converted to the loop's nominal speed, CAL_NOMINAL_S per CAL_LOOP
    iterations, stretch by stretch (at least CAL_EVERY_S of operation time),
    using the mean of the speed samples over each stretch.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.times: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.wall = self.scaled = 0.0
        self._pending = 0.0
        self._stolen = 0.0
        self._speed = [calibrate(CAL_MAX_SAMPLES)]
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        dt = _spin(TICK_LOOP)
        self._speed.append(dt / TICK_LOOP)
        self._stolen += dt

    def _op(self, name: str, fn, *args):
        """Time fn(*args) as one operation; returns (value, exception)."""
        self.attempted += 1
        self._stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t = time.perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # the benchmark counts it and goes on
            value, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t - self._stolen
        self.times.append((name, dt))
        self.wall += dt
        self._pending += dt
        if self._pending >= CAL_EVERY_S:
            self._settle()
        return value, error

    def _settle(self):
        """Add the operation time since the last settle to `scaled`."""
        # a long stretch of work gets a steadier speed estimate at its end
        self._speed.append(calibrate(min(CAL_MAX_SAMPLES, 1 + int(self._pending / 2.0))))
        nominal = CAL_NOMINAL_S / CAL_LOOP
        self.scaled += self._pending * nominal / statistics.fmean(self._speed)
        self._speed, self._pending = self._speed[-1:], 0.0

    def finish(self):
        if self._pending:
            self._settle()

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def cli(self, *argv) -> str | None:
        """homsim.cli.main(argv) in-process; returns its stdout, None on failure."""
        argv = [str(a) for a in argv]
        buf = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        rc, error = self._op("cli." + argv[0], run)
        if error is None and rc == 0:
            return buf.getvalue()
        self.failed += 1
        print(f"operation failed ({error or rc}): homsim {' '.join(argv)}", file=sys.stderr)
        return None

    def call(self, name: str, fn, *args):
        """A public library call; returns its value, None on failure."""
        value, error = self._op(name, fn, *args)
        if error is not None:
            self.failed += 1
            print(f"operation failed: {name}{args!r}: {error!r}", file=sys.stderr)
        return value


class Checker:
    """Collects failed correctness checks."""

    def __init__(self):
        self.errors: list[str] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)

    def close(self, got, want, what, tol=TOL):
        self.require(got is not None and abs(got - want) <= tol * max(1.0, abs(want)),
                     f"{what}: got {got!r}, reference {want!r}")

    def unit_interval(self, values, what):
        self.require(all(-TOL <= v <= 1.0 + TOL for v in values),
                     f"{what}: value outside [0, 1]")


# --------------------------------------------------------------------------
# Monte Carlo workloads
# --------------------------------------------------------------------------

def _parse_analyze(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    retained = int(fields["retained"].split()[0])
    lo, hi = fields["95% CI"].strip("[]").split(",")
    return {"records": int(fields["records"]), "retained": retained,
            "nu_hat": float(fields["nu_hat"]), "ci": (float(lo), float(hi))}


def _cell(text: str) -> float | None:
    """A bins-CSV number.  analyze writes numpy scalars through repr(), so
    with numpy >= 2 a cell reads "np.float64(0.87)"; the value inside is
    what gets checked."""
    if not text:
        return None
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_bins(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"mid": _cell(r["tau_mid"]), "n": int(r["n"]), "nu": _cell(r["nu_hat"]),
             "lo": _cell(r["ci_low"]), "hi": _cell(r["ci_high"])} for r in rows]


def _check_visibility_estimate(chk, what, nu_hat, lo, hi, n, nu_ref):
    chk.require(-CI_SLACK <= lo and lo - CI_SLACK <= nu_hat <= hi + CI_SLACK
                and hi <= 1.0 + CI_SLACK,
                f"{what}: interval [{lo}, {hi}] does not hold nu_hat {nu_hat}")
    se = math.sqrt(max(1.0 - nu_ref * nu_ref, 0.0) / n)
    chk.require(abs(nu_hat - nu_ref) <= Z * se + Z / n + CI_SLACK,
                f"{what}: nu_hat {nu_hat} vs reference {nu_ref:.6f} "
                f"({n} records, SE {se:.2e})")


def _check_count(chk, what, got, n, p):
    expect = n * p
    chk.require(abs(got - expect) <= Z * math.sqrt(expect * (1.0 - p)) + Z,
                f"{what}: {got} vs expected {expect:.1f}")


def check_analysis(chk, what, stdout, bins_path, n, g, delta, ref_bin):
    """Check one analyze run; ref_bin(a, b) is the reference visibility of a < tau < b."""
    est = _parse_analyze(stdout)
    chk.require(est["records"] == n, f"{what}: {est['records']} records, wrote {n}")
    if math.isinf(delta):
        chk.require(est["retained"] == n, f"{what}: window inf kept {est['retained']} of {n}")
    else:
        _check_count(chk, f"{what}: retained", est["retained"], n, -math.expm1(-g * delta))
    _check_visibility_estimate(chk, what, est["nu_hat"], *est["ci"], est["retained"],
                               ref_bin(0.0, delta))
    bins = _read_bins(bins_path)
    if not math.isinf(delta):
        # with delta = inf the last edge is the largest tau, and that record
        # is lost (see MonteCarlo.EDGE_CASE)
        chk.require(sum(b["n"] for b in bins) == est["retained"],
                    f"{what}: bin counts do not add up to the retained count")
    width = bins[1]["mid"] - bins[0]["mid"]
    for i, b in enumerate(bins):
        a = bins[0]["mid"] - 0.5 * width + i * width
        lo_edge, hi_edge = max(a, 0.0), a + width
        p = math.exp(-g * lo_edge) * -math.expm1(-g * (hi_edge - lo_edge))
        _check_count(chk, f"{what}: bin {i} count", b["n"], n, p)
        if b["n"]:
            _check_visibility_estimate(chk, f"{what}: bin {i}", b["nu"], b["lo"], b["hi"],
                                       b["n"], ref_bin(lo_edge, hi_edge))


class MonteCarlo:
    """simulate, then analyze the record file at each window, for each bath."""

    # A fixed input, the same for every seed, on which `analyze --delta inf
    # --bins` drops the record with the largest tau from its bins: that
    # record sits on the last bin edge.  It is counted as one failed
    # operation per round until the program keeps it.
    EDGE_CASE = ("--bath", "markovian", "--A", A, "--theta", THETA, "--g", G,
                 "--n", 1000, "--seed", 7)
    EDGE_CASE_BINS = "edge_case_bins.csv"

    def __init__(self, pipelines, seed, edge_case=False):
        self.pipelines = pipelines
        self.seed = seed
        self.edge_case = edge_case

    def run(self, rnd: Round):
        """Returns one (tag, n, delta, stdout or None, bins path) per analysis."""
        if self.edge_case:
            rec = rnd.path("edge_case_records")
            if rnd.cli("simulate", *self.EDGE_CASE, "--out", rec) is not None:
                rnd.cli("analyze", "--records", rec, "--delta", "inf", "--bins", 20,
                        "--bins-out", rnd.path(self.EDGE_CASE_BINS))
        outputs = []
        for tag, flags, _bath, n, workers, windows in self.pipelines:
            rec = rnd.path(f"records_{tag}")  # no extension: the default format
            ok = rnd.cli("simulate", *flags, "--g", G, "--n", n, "--workers", workers,
                         "--seed", derive_seed(self.seed, tag), "--out", rec)
            for delta in windows:
                bins = rnd.path(f"bins_{tag}_{delta}.csv")
                out = rnd.cli("analyze", "--records", rec, "--delta", delta,
                              "--bins", 20, "--bins-out", bins) if ok is not None else None
                outputs.append((tag, n, delta, out, bins))
        return outputs

    def failures(self, outputs, out_dir) -> int:
        """Operations whose output is wrong on the fixed edge case."""
        bins = os.path.join(out_dir, self.EDGE_CASE_BINS)
        if not self.edge_case or not os.path.exists(bins):
            return 0
        kept = sum(b["n"] for b in _read_bins(bins))
        if kept == 1000:
            return 0
        print(f"operation failed: analyze --delta inf --bins 20 binned {kept} "
              "of 1000 records", file=sys.stderr)
        return 1

    def snapshot(self, outputs):
        return [[tag, delta, out] for tag, _n, delta, out, _b in outputs]

    def layer(self, outputs, out_dir) -> dict:
        """Record-file bytes and window counts, for the traced run."""
        ests = [_parse_analyze(out) for *_x, out, _b in outputs if out]
        return {"records": sum(n for _t, _f, _b, n, *_ in self.pipelines),
                "record_bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                                    for f in os.listdir(out_dir) if f.startswith("records_")),
                "analyzed": sum(e["records"] for e in ests),
                "retained": sum(e["retained"] for e in ests)}

    def check(self, chk: Checker, outputs):
        refs = {tag: bath for tag, _f, bath, *_ in self.pipelines}
        for tag, n, delta, out, bins in outputs:
            if out is None:
                continue
            bath = refs[tag]
            if bath is None:
                def ref_bin(a, b):
                    return ref.markov_postselected_bin(A, THETA, G, a, b)
            else:
                def ref_bin(a, b, bath=bath):
                    return ref.postselected_bin(bath, G, a, b)
            check_analysis(chk, f"{tag} delta={delta}", out, bins, n, G, float(delta), ref_bin)


# (tag, simulate flags, reference bath (A, n, theta) or None for Markovian,
#  records, workers, windows analyzed)
MC_MARKOVIAN = [
    ("markovian", ("--bath", "markovian", "--A", A, "--theta", THETA), None,
     1_000_000, 1, ("1", "inf")),
]
MC_NONMARKOVIAN = [
    ("superohmic", ("--bath", "superohmic", "--A", A, "--theta", THETA), (A, 3.0, THETA),
     100_000, 1, ("10", "inf")),
    ("powerlaw", ("--bath", "powerlaw", "--exponent", 2.5, "--A", A, "--theta", THETA),
     (A, 2.5, THETA), 5_000, 2, ("100",)),
]


# --------------------------------------------------------------------------
# Temperature sweep of theory curves
# --------------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _stratified(rng, lo, hi, k):
    """k log-uniform draws, one in each of k equal log-strata of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), k + 1)
    return np.exp(edges[:-1] + rng.random(k) * np.diff(edges))


class Sweep:
    """CLI curves and library calls at theta = 1, 10 and 100, A = 0.5."""

    GAMMA_POINTS, FIG1_POINTS, FIG2_POINTS, WINDOWED_POINTS = 100, 200, 40, 10
    POSTSELECTED_DELTAS, NONIDENTICAL_POINTS = 8, 24

    def __init__(self, seed):
        rng = np.random.default_rng(derive_seed(seed, "sweep"))
        self.deltas = {th: _stratified(rng, 0.1, 10.0, self.POSTSELECTED_DELTAS)
                       for th in SWEEP_THETAS}
        self.pairs = {th: list(zip(rng.uniform(0.0, 50.0, self.NONIDENTICAL_POINTS),
                                   _stratified(rng, 0.01, 20.0, self.NONIDENTICAL_POINTS)))
                      for th in SWEEP_THETAS}
        # which rows of each output are checked against the (slow) quadrature
        self.rng_rows = np.random.default_rng(derive_seed(seed, "rows"))

    @staticmethod
    def sources(theta):
        def bath(family, n=None):
            return BathSpec(BathFamily(family), A, theta, n)
        identical = {f: SourceConfig.identical_sources(G, bath(f))
                     for f in ("markovian", "ohmic", "superohmic")}
        pairs = {"ohmic_superohmic": SourceConfig(G, bath("ohmic"), bath("superohmic"), False),
                 "powerlaw_2.5_3.5": SourceConfig(G, bath("powerlaw", 2.5),
                                                  bath("powerlaw", 3.5), False)}
        return identical, pairs

    def run(self, rnd: Round):
        out = {}
        for th in SWEEP_THETAS:
            th_s = f"{th:g}"
            common = ("--A", A, "--theta", th_s)
            for fam, extra in (("superohmic", ()), ("powerlaw", ("--exponent", 2.5))):
                p = rnd.path(f"gamma_{fam}_{th_s}.csv")
                if rnd.cli("gamma", "--bath", fam, *extra, *common, "--tau-max", 10,
                           "--points", self.GAMMA_POINTS, "--out", p) is not None:
                    out[("gamma", fam, th)] = p
            p = rnd.path(f"fig1_{th_s}.csv")
            if rnd.cli("fig1", *common, "--tau-max", 10, "--points", self.FIG1_POINTS,
                       "--out", p) is not None:
                out[("fig1", th)] = p
            p = rnd.path(f"fig2_{th_s}.csv")
            if rnd.cli("fig2", *common, "--delta-min", 0.01, "--delta-max", 10,
                       "--points", self.FIG2_POINTS, "--out", p) is not None:
                out[("fig2", th)] = p
            p = rnd.path(f"windowed_powerlaw_{th_s}.csv")
            if rnd.cli("windowed", "--bath", "powerlaw", "--exponent", 2.5, *common,
                       "--delta-min", 0.01, "--delta-max", 10,
                       "--points", self.WINDOWED_POINTS, "--out", p) is not None:
                out[("windowed", th)] = p
            identical, pairs = self.sources(th)
            for fam, src in identical.items():
                out[("postselected", fam, th)] = [
                    rnd.call("interference.postselected_visibility",
                             postselected_visibility, src, float(d))
                    for d in self.deltas[th]]
            for name, src in pairs.items():
                out[("nonidentical", name, th)] = [
                    rnd.call("interference.visibility_nonidentical",
                             visibility_nonidentical, src, float(t1), float(tau))
                    for t1, tau in self.pairs[th]]
        return out

    def _rows(self, k, size):
        return sorted(self.rng_rows.choice(size, size=min(k, size), replace=False))

    def failures(self, out, out_dir) -> int:
        return 0

    def snapshot(self, out):
        return {"|".join(map(str, key)): value for key, value in out.items()
                if isinstance(value, list)}

    def layer(self, out, out_dir) -> dict:
        return {}

    def check(self, chk: Checker, out):
        for th in SWEEP_THETAS:
            k = ref.markov_rate(A, th)
            for fam, n in (("superohmic", 3.0), ("powerlaw", 2.5)):
                path = out.get(("gamma", fam, th))
                if path is None:
                    continue
                _h, rows = _read_csv(path)
                chk.require(np.allclose(rows[:, 0], np.linspace(0, 10, self.GAMMA_POINTS))
                            and np.all(rows[:, 1:3] >= 0),
                            f"gamma {fam} theta={th}: bad grid or negative Gamma")
                for i in self._rows(6, len(rows)):
                    want = ref.gamma(A, n, th, float(rows[i, 0]))
                    chk.close(rows[i, 1], want, f"gamma {fam} theta={th} closed tau={rows[i, 0]}")
                    chk.close(rows[i, 2], want, f"gamma {fam} theta={th} quad tau={rows[i, 0]}")
            path = out.get(("fig1", th))
            if path is not None:
                _h, rows = _read_csv(path)
                chk.unit_interval(rows[:, 1:].ravel(), f"fig1 theta={th}")
                chk.require(np.allclose(rows[:, 3], np.exp(-k * rows[:, 0]), rtol=1e-12,
                                        atol=0), f"fig1 theta={th}: Markovian e^(-k tau)")
                for i in self._rows(6, len(rows)):
                    tau = float(rows[i, 0])
                    chk.close(rows[i, 1], ref.visibility((A, 1.0, th), tau),
                              f"fig1 ohmic theta={th} tau={tau}")
                    chk.close(rows[i, 2], ref.visibility((A, 3.0, th), tau),
                              f"fig1 superohmic theta={th} tau={tau}")
            path = out.get(("fig2", th))
            if path is not None:
                _h, rows = _read_csv(path)
                chk.unit_interval(rows[:, 1:].ravel(), f"fig2 theta={th}")
                want = [ref.markov_windowed(A, th, d) for d in rows[:, 0]]
                chk.require(np.allclose(rows[:, 3], want, rtol=1e-9, atol=0),
                            f"fig2 theta={th}: Markovian (1 - e^(-k D))/(k D)")
                (i,) = self._rows(1, len(rows))
                for col, n in ((1, 1.0), (2, 3.0)):
                    chk.close(rows[i, col], ref.windowed((A, n, th), float(rows[i, 0])),
                              f"fig2 n={n} theta={th} delta={rows[i, 0]}")
            path = out.get(("windowed", th))
            if path is not None:
                _h, rows = _read_csv(path)
                chk.unit_interval(rows[:, 1], f"windowed powerlaw theta={th}")
                (i,) = self._rows(1, len(rows))
                chk.close(rows[i, 1], ref.windowed((A, 2.5, th), float(rows[i, 0])),
                          f"windowed powerlaw theta={th} delta={rows[i, 0]}")
            deltas = self.deltas[th]
            for fam, n in (("markovian", None), ("ohmic", 1.0), ("superohmic", 3.0)):
                got = out[("postselected", fam, th)]
                chk.unit_interval([v for v in got if v is not None],
                                  f"postselected {fam} theta={th}")
                if n is None:
                    for d, v in zip(deltas, got):
                        chk.close(v, ref.markov_postselected_bin(A, th, G, 0.0, float(d)),
                                  f"postselected markovian theta={th} delta={d}")
                else:
                    (i,) = self._rows(1, len(deltas))
                    chk.close(got[i], ref.postselected_bin((A, n, th), G, 0.0,
                                                           float(deltas[i])),
                              f"postselected {fam} theta={th} delta={deltas[i]}")
            for name, b1, b2 in (("ohmic_superohmic", (A, 1.0, th), (A, 3.0, th)),
                                 ("powerlaw_2.5_3.5", (A, 2.5, th), (A, 3.5, th))):
                got = out[("nonidentical", name, th)]
                chk.unit_interval([v for v in got if v is not None],
                                  f"nonidentical {name} theta={th}")
                for i in self._rows(2, len(got)):
                    t1, tau = self.pairs[th][i]
                    chk.close(got[i], ref.visibility_nonidentical(b1, b2, t1, tau),
                              f"nonidentical {name} theta={th} t1={t1} tau={tau}", tol=1e-7)
            floor = ref.superohmic_floor(A, th)
            src = SourceConfig.identical_sources(G, BathSpec(BathFamily.SUPEROHMIC, A, th))
            chk.close(visibility(src, 2000.0), floor,
                      f"superohmic nu(2000) vs floor theta={th}", tol=2e-6)
            asymptote = getattr(homsim.interference, "superohmic_asymptote", None)
            if asymptote is not None:
                chk.close(asymptote(src.bath1), floor, f"superohmic floor theta={th}",
                          tol=1e-12)


def make_workload(name: str, seed: int):
    if name == "mc_markovian":
        return MonteCarlo(MC_MARKOVIAN, seed, edge_case=True)
    if name == "mc_nonmarkovian":
        return MonteCarlo(MC_NONMARKOVIAN, seed)
    return Sweep(seed)


# --------------------------------------------------------------------------

def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def scaled_import_s() -> float:
    """The cold import this process began with, at nominal machine speed."""
    return _IMPORT_S * CAL_NOMINAL_S / (CAL_LOOP * calibrate(3))


def _same_file(a: str, b: str) -> bool:
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def run_round(workload, k: int, scratch: str) -> dict:
    """Run round k in this process and check it; returns the round's record."""
    rnd = Round(os.path.join(scratch, f"round{k}"))
    os.makedirs(rnd.out_dir)
    outputs = workload.run(rnd)
    rnd.finish()
    # before any check runs, so that the references' memory does not count
    peak_rss_mb = _peak_rss_mb()
    result = {"wall_s": rnd.scaled, "import_s": scaled_import_s(), "peak_rss_mb": peak_rss_mb,
              "output_bytes": _dir_bytes(rnd.out_dir), "attempted": rnd.attempted,
              "failed": rnd.failed + workload.failures(outputs, rnd.out_dir),
              "times": rnd.times, "layer": workload.layer(outputs, rnd.out_dir)}

    chk = Checker()
    snapshot = json.loads(json.dumps(workload.snapshot(outputs)))
    first, first_json = os.path.join(scratch, "round0"), os.path.join(scratch, "round0.json")
    if k == 0:
        workload.check(chk, outputs)
        with open(first_json, "w") as fh:
            json.dump(snapshot, fh)
    else:
        # Output is a pure function of the inputs, so a later round must
        # reproduce the checked first round exactly.
        with open(first_json) as fh:
            chk.require(json.load(fh) == snapshot,
                        f"round {k}: printed or returned values differ from round 0")
        for name in sorted(set(os.listdir(first)) | set(os.listdir(rnd.out_dir))):
            chk.require(_same_file(os.path.join(first, name), rnd.path(name)),
                        f"round {k}: {name} differs from round 0")
        shutil.rmtree(rnd.out_dir)
    for err in chk.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result["correct"] = not chk.errors
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scratch", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--round", type=int, help="run this round of the workload")
    mode.add_argument("--probes", metavar="ROUNDS_JSON",
                      help="time the layers, given the rounds' results")
    mode.add_argument("--import-only", action="store_true",
                      help="only report the cold import")
    args = ap.parse_args(argv)

    src_dir = os.path.realpath(os.path.join("src", "homsim"))
    if os.path.dirname(os.path.realpath(homsim.__file__)) != src_dir:
        print(f"homsim was imported from {homsim.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    if args.import_only:
        print(json.dumps(scaled_import_s()))
    elif args.probes:
        import probes
        with open(args.probes) as fh:
            rounds = json.load(fh)
        t = time.perf_counter()
        metrics = probes.layer_metrics(args.seed, args.scratch,
                                       [r["times"] for r in rounds], rounds[-1]["layer"])
        # the rounds carry only per-operation timers: the probes are all the
        # traced run adds to the work that wall_s measures
        metrics["trace.overhead_s"] = {"value": time.perf_counter() - t, "unit": "s"}
        print(json.dumps({"metrics": metrics}))
    else:
        print(json.dumps(run_round(make_workload(args.workload, args.seed), args.round,
                                   args.scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
