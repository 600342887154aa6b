"""Per-layer metrics of the traced run.

The benchmark calls each module's public functions itself, on inputs drawn
from the seed as in the workloads, and times the calls.  The probes are the
same for every workload, so each traced run reports every layer; the CLI
times come from the workload's own rounds, and a command the workload does
not run is timed on one small invocation instead.  A probe whose function
no longer exists, or no longer takes these arguments, is reported as
missing rather than failing the run.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from homsim import bath, dynamics, interference, trajectories
from homsim.bath import BathFamily, BathSpec
from homsim.dynamics import SourceConfig
from workload import (A, CLI_COMMANDS, G, SWEEP_THETAS, THETA, Round, _parse_analyze,
                      _stratified, derive_seed)

# records each Monte Carlo bath is simulated with in the workloads
WORKLOAD_N = {"markovian": 1_000_000, "superohmic": 100_000, "powerlaw": 5_000}
TRAJECTORY_N = 100_000
PROBE_CLI_RECORDS = 20_000
PROBE_CLI_FILE = "probe_cli_records"


# What a call raises when the public function it names is gone or has a new
# signature; its probe is then reported as missing.
MISSING = (AttributeError, TypeError)


def _timed(fn, *args):
    t = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t, value


def _per_call(fn, calls):
    """Mean seconds per call of fn over the argument tuples in calls."""
    total = 0.0
    for args in calls:
        total += _timed(fn, *args)[0]
    return total / len(calls)


def _bath(family, theta, n=None):
    return BathSpec(BathFamily(family), A, theta, n)


def _mc_bath(family):
    return _bath(family, THETA, 2.5 if family == "powerlaw" else None)


def _accepts(fn, *args):
    try:
        fn(*args)
    except (ValueError, *MISSING):
        return False
    return True


def gamma_array_ns(rng, family):
    """Fastest public Gamma entry point that takes this family, ns per tau."""
    b = _mc_bath(family)
    taus = rng.exponential(1.0 / G, size=WORKLOAD_N[family])
    best = []
    closed = getattr(bath, "gamma_closed_array", None)
    if closed is not None and _accepts(closed, b, taus[:4]):
        sample = taus if family == "markovian" else taus[:1024]
        best.append(min(_timed(closed, b, sample)[0] for _ in range(3)) / len(sample))
    table = getattr(bath, "GammaTable", None)
    if table is not None and _accepts(table, b, 1.0, 17):
        t = time.perf_counter()
        table(b, 60.0 / G)(taus)
        best.append((time.perf_counter() - t) / len(taus))
    sample = taus[:64]
    best.append(_per_call(bath.gamma_value, [(b, float(t)) for t in sample]))
    return min(best) * 1e9


def layer_probes(seed, scratch):
    """{metric name: (value, unit)} for the bath, dynamics, interference and
    trajectories layers; a value is None when its probe is missing."""
    rng = np.random.default_rng(derive_seed(seed, "probes"))
    taus = _stratified(rng, 0.01, 10.0, 24)
    out = {}

    def probe(name, unit, fn, *args):
        try:
            out[name] = (fn(*args), unit)
        except MISSING as exc:
            out[name] = (None, unit, repr(exc))

    for fam in ("markovian", "superohmic", "powerlaw"):
        probe(f"bath.gamma_array_ns_per_tau.{fam}", "ns", gamma_array_ns, rng, fam)
    for fam in ("ohmic", "superohmic", "powerlaw"):
        n = 2.5 if fam == "powerlaw" else None
        probe(f"bath.gamma_scalar_us_per_call.{fam}", "us", lambda f=fam, n=n: 1e6 * _per_call(
            bath.gamma_value, [(_bath(f, th, n), float(t))
                               for th in SWEEP_THETAS for t in taus]))
    grid = np.linspace(0.0, 10.0, 100)[1::10]
    probe("bath.gamma_quadrature_us_per_tau", "us", lambda: 1e6 * _per_call(
        bath.gamma_quadrature, [(_bath(f, th, n), float(t)) for th in SWEEP_THETAS
                                for f, n in (("superohmic", None), ("powerlaw", 2.5))
                                for t in grid]))
    t1s = rng.uniform(0.0, 50.0, 8)
    probe("bath.lambda_us_per_pair", "us", lambda: 1e6 * _per_call(
        bath.lambda_phase, [(_bath(f, THETA, n), float(a), float(a + t))
                            for f, n in (("ohmic", None), ("superohmic", None),
                                         ("powerlaw", 2.5), ("powerlaw", 3.5))
                            for a, t in zip(t1s, taus[::3])]))

    identical = [SourceConfig.identical_sources(G, _bath(f, th))
                 for th in SWEEP_THETAS for f in ("markovian", "ohmic", "superohmic")]
    probe("dynamics.second_click_us_per_call", "us", lambda: 1e6 * _per_call(
        dynamics.second_click_density, [(s, 0.0, float(t), same) for s in identical
                                        for t in taus[::2] for same in (True, False)]))
    probe("interference.visibility_us_per_point", "us", lambda: 1e6 * _per_call(
        interference.visibility, [(s, float(t)) for s in identical for t in taus]))
    deltas = _stratified(rng, 0.01, 10.0, 2)
    powerlaw = [SourceConfig.identical_sources(G, _bath("powerlaw", th, 2.5))
                for th in SWEEP_THETAS]
    probe("interference.windowed_ms_per_point", "ms", lambda: 1e3 * _per_call(
        interference.windowed_visibility,
        [(s, float(d)) for s in identical + powerlaw for d in deltas]))
    probe("interference.postselected_ms_per_point", "ms", lambda: 1e3 * _per_call(
        interference.postselected_visibility,
        [(s, float(d)) for s in identical for d in _stratified(rng, 0.1, 10.0, 2)]))
    pairs = [SourceConfig(G, _bath("ohmic", th), _bath("superohmic", th), False)
             for th in SWEEP_THETAS] + \
            [SourceConfig(G, _bath("powerlaw", th, 2.5), _bath("powerlaw", th, 3.5), False)
             for th in SWEEP_THETAS]
    probe("interference.nonidentical_us_per_point", "us", lambda: 1e6 * _per_call(
        interference.visibility_nonidentical,
        [(s, float(a), float(t)) for s in pairs for a, t in zip(t1s[:4], taus[::6])]))

    out.update(trajectory_probes(seed, scratch))
    return out


def trajectory_probes(seed, scratch):
    """Per-record cost of each step of the Markovian Monte Carlo pipeline."""
    names = [f"trajectories.{s}_ns_per_record"
             for s in ("simulate", "write", "read", "estimate", "binned")]
    src = SourceConfig.identical_sources(G, _mc_bath("markovian"))
    path = os.path.join(scratch, "probe_records")
    n = TRAJECTORY_N
    try:
        t_sim, records = _timed(trajectories.simulate_ensemble,
                                derive_seed(seed, "probe_records"), n, src)
        with open(path, "w") as fh:
            t_write, _ = _timed(trajectories.write_records, fh, records)
        with open(path) as fh:
            t_read, back = _timed(trajectories.read_records, fh)
        t_est, _ = _timed(trajectories.estimate_visibility, back, trajectories.Window(1.0))
        t_bin, _ = _timed(trajectories.binned_visibility, back, np.linspace(0.0, 1.0, 21))
    except MISSING as exc:
        return {name: (None, "ns", repr(exc)) for name in names}
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {name: (t * 1e9 / n, "ns")
            for name, t in zip(names, (t_sim, t_write, t_read, t_est, t_bin))}


def _cli_probe(scratch, command):
    """One small invocation of a command the workload does not run:
    (seconds, stdout)."""
    rnd = Round(scratch)
    common = ("--A", A, "--theta", THETA)
    argv = {
        "gamma": ("gamma", "--bath", "superohmic", *common, "--points", 20,
                  "--out", rnd.path("probe_gamma.csv")),
        "fig1": ("fig1", *common, "--points", 50, "--out", rnd.path("probe_fig1.csv")),
        "fig2": ("fig2", *common, "--delta-min", 0.01, "--delta-max", 10, "--points", 10,
                 "--out", rnd.path("probe_fig2.csv")),
        "windowed": ("windowed", "--bath", "powerlaw", "--exponent", 2.5, *common,
                     "--delta-min", 0.01, "--delta-max", 10, "--points", 3,
                     "--out", rnd.path("probe_windowed.csv")),
        "simulate": ("simulate", "--bath", "markovian", *common, "--g", G,
                     "--n", PROBE_CLI_RECORDS, "--seed", 1,
                     "--out", rnd.path(PROBE_CLI_FILE)),
        "analyze": ("analyze", "--records", rnd.path(PROBE_CLI_FILE), "--delta", 1,
                    "--bins", 20, "--bins-out", rnd.path("probe_bins.csv")),
    }
    stdout = rnd.cli(*argv[command])
    if stdout is None:
        raise RuntimeError(f"the {command} probe failed")
    return rnd.times[-1][1], stdout


def layer_metrics(seed, scratch, rounds, layer):
    """Every per-layer metric, as the "metrics" object of the result line."""
    values = layer_probes(seed, scratch)
    cli = {c: statistics.median(sum(t for name, t in times if name == "cli." + c)
                                for times in rounds)
           for c in CLI_COMMANDS if any(name == "cli." + c for name, _ in rounds[0])}
    if "simulate" not in cli or "analyze" not in cli:
        # the sweep writes no records: take the record layer's ratios from
        # the small simulate/analyze probe
        cli["simulate"], _ = _cli_probe(scratch, "simulate")
        cli["analyze"], stdout = _cli_probe(scratch, "analyze")
        est = _parse_analyze(stdout)
        layer = {"records": PROBE_CLI_RECORDS, "analyzed": est["records"],
                 "retained": est["retained"],
                 "record_bytes": os.path.getsize(os.path.join(scratch, PROBE_CLI_FILE))}
    for c in CLI_COMMANDS:
        if c not in cli:
            cli[c] = _cli_probe(scratch, c)[0]
        values[f"cli.{c}_s"] = (cli[c], "s")
    values["trajectories.bytes_per_record"] = (layer["record_bytes"] / layer["records"],
                                              "bytes")
    values["trajectories.retained_fraction"] = (layer["retained"] / layer["analyzed"],
                                                "fraction")
    metrics = {}
    for name, (value, unit, *why) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        if why:
            metrics[name]["missing"] = why[0]
    return metrics
