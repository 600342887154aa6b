"""Monte Carlo click records, post-selection and visibility estimation.

Sampling is exact (inverse transform + Bernoulli, no time stepping): the
first click time is exponential with rate 2g, its detector is a fair coin,
the separation tau is exponential with rate g, and the second detector
repeats the first with probability (1 + kappa)/2 where kappa is the
coherence factor at that separation.

Records are generated in fixed-size chunks, each from its own counter-based
substream spawned off the ensemble seed, so the output is a pure function of
(seed, n, source) for any number of workers.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import Detector, SourceConfig, coherence_factor

__all__ = [
    "BinnedVisibility",
    "ClickRecord",
    "EmptySelectionError",
    "VisibilityEstimate",
    "Window",
    "binned_visibility",
    "estimate_visibility",
    "read_records",
    "sample_record",
    "simulate_ensemble",
    "write_records",
]

CHUNK_SIZE = 4096
_Z95 = 1.959963984540054


class EmptySelectionError(RuntimeError):
    """No record survived the post-selection window."""


@dataclass(frozen=True, slots=True)
class ClickRecord:
    t1: float
    d1: Detector
    tau: float
    d2: Detector

    def __post_init__(self):
        if self.t1 < 0 or self.tau < 0:
            raise ValueError("t1 and tau must be >= 0")


@dataclass(frozen=True)
class Window:
    """Post-selection window: keep tau <= delta (and t1 <= t1_max if set)."""

    delta: float
    t1_max: float | None = None

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"window width must be > 0, got {self.delta}")
        if self.t1_max is not None and not 0 < self.t1_max < math.inf:
            raise ValueError(f"t1_max must be finite and > 0, got {self.t1_max}")


@dataclass(frozen=True)
class VisibilityEstimate:
    n_same: int
    n_diff: int
    nu_hat: float
    ci_low: float
    ci_high: float
    efficiency: float


def _draw(rng: np.random.Generator, src: SourceConfig, m: int):
    """m records from the exact densities, as arrays (t1, d1, tau, d2)."""
    g = src.g
    t1 = rng.exponential(1.0 / (2.0 * g), size=m)
    d1 = rng.integers(0, 2, size=m)
    tau = rng.exponential(1.0 / g, size=m)
    u = rng.random(size=m)
    same = u < 0.5 * (1.0 + coherence_factor(src, t1, tau))
    d2 = np.where(same, d1, 1 - d1)
    return t1, d1, tau, d2


_DETECTORS = (Detector.PLUS, Detector.MINUS)


def _records(t1, d1, tau, d2) -> list[ClickRecord]:
    return [ClickRecord(t1=a, d1=_DETECTORS[b], tau=c, d2=_DETECTORS[d])
            for a, b, c, d in zip(t1.tolist(), d1.tolist(),
                                  tau.tolist(), d2.tolist())]


def sample_record(rng: np.random.Generator, src: SourceConfig) -> ClickRecord:
    """Draw one two-photon click record from the exact densities."""
    return _records(*_draw(rng, src, 1))[0]


def _sample_chunk(src: SourceConfig, seed: int, chunk: int, m: int):
    ss = np.random.SeedSequence(seed, spawn_key=(chunk,))
    return _draw(np.random.Generator(np.random.Philox(ss)), src, m)


def simulate_ensemble(seed: int, n: int, src: SourceConfig,
                      workers: int = 1) -> list[ClickRecord]:
    """Generate n records; a pure function of (seed, n, src) for any workers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    jobs = [(src, seed, c, min(CHUNK_SIZE, n - c * CHUNK_SIZE))
            for c in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE)]
    if workers <= 1:
        parts = [_sample_chunk(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_chunk, *zip(*jobs), chunksize=8))
    records = []
    for part in parts:
        records.extend(_records(*part))
    return records


def _wilson(k: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        raise ValueError("no trials")
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def _fold_to_visibility(p_low: float, p_high: float) -> tuple[float, float]:
    """Map a p_same interval through nu = |2p - 1|, folding across 1/2."""
    lo, hi = abs(2 * p_low - 1), abs(2 * p_high - 1)
    if p_low <= 0.5 <= p_high:
        return 0.0, max(lo, hi)
    return min(lo, hi), max(lo, hi)


def _in_window(rec: ClickRecord, window: Window) -> bool:
    if rec.tau > window.delta:
        return False
    return window.t1_max is None or rec.t1 <= window.t1_max


def estimate_visibility(records, window: Window) -> VisibilityEstimate:
    """Post-selected visibility with a 95% score interval.

    Raises EmptySelectionError when nothing survives the window, which is a
    different outcome from an estimate of zero.
    """
    records = list(records)
    total = len(records)
    n_same = n_diff = 0
    for rec in records:
        if _in_window(rec, window):
            if rec.d1 == rec.d2:
                n_same += 1
            else:
                n_diff += 1
    kept = n_same + n_diff
    if kept == 0:
        raise EmptySelectionError(
            f"no records inside window {window} (out of {total})")
    nu_hat = abs(n_same - n_diff) / kept
    ci_low, ci_high = _fold_to_visibility(*_wilson(n_same, kept))
    return VisibilityEstimate(
        n_same=n_same, n_diff=n_diff, nu_hat=nu_hat,
        ci_low=ci_low, ci_high=ci_high,
        efficiency=kept / total if total else 0.0)


@dataclass(frozen=True)
class BinnedVisibility:
    """Per-bin empirical visibility; empty bins carry nu_hat = None."""

    edges: np.ndarray
    counts: np.ndarray
    nu_hat: tuple
    ci_low: tuple
    ci_high: tuple

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def binned_visibility(records, bin_edges) -> BinnedVisibility:
    """Empirical visibility of records grouped by tau into the given bins."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
    records = list(records)
    taus = np.array([r.tau for r in records], dtype=float)
    same = np.array([r.d1 == r.d2 for r in records], dtype=bool)
    idx = np.searchsorted(edges, taus, side="right") - 1
    # right edge of the last bin is inclusive
    idx = np.where(taus == edges[-1], edges.size - 2, idx)
    inside = (idx >= 0) & (idx < edges.size - 1)

    nbins = edges.size - 1
    counts = np.zeros(nbins, dtype=int)
    nu, lo, hi = [], [], []
    for b in range(nbins):
        mask = inside & (idx == b)
        counts[b] = int(mask.sum())
        if counts[b] == 0:
            nu.append(None)
            lo.append(None)
            hi.append(None)
            continue
        k = int(same[mask].sum())
        nu.append(abs(2 * k - counts[b]) / counts[b])
        wl, wh = _fold_to_visibility(*_wilson(k, counts[b]))
        lo.append(wl)
        hi.append(wh)
    return BinnedVisibility(edges=edges, counts=counts, nu_hat=tuple(nu),
                            ci_low=tuple(lo), ci_high=tuple(hi))


def write_records(fh, records) -> None:
    """Serialize records as one JSON object per line."""
    for rec in records:
        fh.write(json.dumps({"t1": rec.t1, "d1": rec.d1.value,
                             "tau": rec.tau, "d2": rec.d2.value}))
        fh.write("\n")


def read_records(fh) -> list[ClickRecord]:
    records = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(ClickRecord(t1=float(obj["t1"]), d1=Detector(obj["d1"]),
                                   tau=float(obj["tau"]), d2=Detector(obj["d2"])))
    return records


def ks_statistic_tau(records, g: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of tau against Exp(rate=g)."""
    from scipy import stats

    taus = [r.tau for r in records]
    result = stats.kstest(taus, stats.expon(scale=1.0 / g).cdf)
    return result.statistic, result.pvalue
