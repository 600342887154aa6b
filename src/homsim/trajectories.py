"""Monte Carlo click records, post-selection and visibility estimation.

Sampling is exact (inverse transform + Bernoulli, no time stepping): the
first click time is exponential with rate 2g, its detector is a fair coin,
the separation tau is exponential with rate g, and the second detector
repeats the first with probability (1 + kappa)/2 where kappa is the
coherence factor at that separation.

Records are generated in fixed-size chunks, each from its own counter-based
substream spawned off the ensemble seed, so the output is a pure function of
(seed, n, source).  Records are held as columns, in a ClickBatch.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .bath import _times
from .dynamics import Detector, SourceConfig, coherence_factor

__all__ = [
    "BinnedVisibility",
    "ClickBatch",
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
        # the rule of bath._times in plain Python: a numpy call per record is slow
        if not (0 <= self.t1 < math.inf and 0 <= self.tau < math.inf):
            raise ValueError("t1 and tau must be finite and >= 0")


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

    def keep(self, batch: "ClickBatch") -> np.ndarray:
        """Mask of the records of ``batch`` that the window post-selects."""
        t1_max = math.inf if self.t1_max is None else self.t1_max
        return (batch.tau <= self.delta) & (batch.t1 <= t1_max)


@dataclass(frozen=True)
class VisibilityEstimate:
    n_same: int
    n_diff: int
    nu_hat: float
    ci_low: float
    ci_high: float
    efficiency: float


@dataclass(frozen=True, eq=False)
class ClickBatch:
    """Click records as columns: t1, tau float64 and d1, d2 int8 (0 = +, 1 = -).

    Raises ValueError unless every t1 and tau is finite and >= 0.  Iterating
    yields ClickRecord objects; every other use reads the columns.
    """

    t1: np.ndarray
    d1: np.ndarray
    tau: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        for col, (dtype, _) in _RECORD.fields.items():
            object.__setattr__(self, col, np.asarray(getattr(self, col), dtype))
        _times(self.t1, self.tau)

    @classmethod
    def of(cls, records) -> "ClickBatch":
        """A batch as it is, or the records of any iterable of ClickRecord."""
        if isinstance(records, ClickBatch):
            return records
        rows = [(r.t1, _SIGNS.index(r.d1), r.tau, _SIGNS.index(r.d2))
                for r in records]
        return cls(*zip(*rows)) if rows else cls([], [], [], [])

    def select(self, keep) -> "ClickBatch":
        """The records where the boolean mask ``keep`` is true."""
        return ClickBatch(*(getattr(self, col)[keep] for col in _COLUMNS))

    def __len__(self) -> int:
        return self.t1.size

    def __iter__(self):
        for a, b, c, d in zip(*(getattr(self, col).tolist() for col in _COLUMNS)):
            yield ClickRecord(t1=a, d1=_DETECTORS[b], tau=c, d2=_DETECTORS[d])

    def __eq__(self, other):
        return isinstance(other, ClickBatch) and all(
            np.array_equal(getattr(self, col), getattr(other, col))
            for col in _COLUMNS)


# one record's layout; its field names are the columns of a ClickBatch
_RECORD = np.dtype([("t1", "<f8"), ("d1", "i1"), ("tau", "<f8"), ("d2", "i1")])
_COLUMNS = _RECORD.names
_DETECTORS = (Detector.PLUS, Detector.MINUS)
_SIGNS = tuple(d.value for d in _DETECTORS)


def _draw(rng: np.random.Generator, src: SourceConfig, m: int) -> ClickBatch:
    """m records from the exact densities."""
    t1 = rng.exponential(1.0 / (2.0 * src.g), size=m)
    d1 = rng.integers(0, 2, size=m)
    tau = rng.exponential(1.0 / src.g, size=m)
    same = rng.random(size=m) < 0.5 * (1.0 + coherence_factor(src, t1, tau))
    return ClickBatch(t1, d1, tau, np.where(same, d1, 1 - d1))


def sample_record(rng: np.random.Generator, src: SourceConfig) -> ClickRecord:
    """Draw one two-photon click record from the exact densities."""
    return next(iter(_draw(rng, src, 1)))


def simulate_ensemble(seed: int, n: int, src: SourceConfig,
                      workers: int = 1) -> ClickBatch:
    """Generate n records, a pure function of (seed, n, src).

    Sampling is serial: ``workers`` must be >= 1 but changes nothing.
    """
    if n < 1 or workers < 1:
        raise ValueError("need n >= 1 and workers >= 1")
    parts = [_draw(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(c,)))), src,
        min(CHUNK_SIZE, n - start))
        for c, start in enumerate(range(0, n, CHUNK_SIZE))]
    return ClickBatch(*(np.concatenate([getattr(p, col) for p in parts])
                        for col in _COLUMNS))


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


def estimate_visibility(records, window: Window) -> VisibilityEstimate:
    """Post-selected visibility with a 95% score interval.

    Raises EmptySelectionError when nothing survives the window, which is a
    different outcome from an estimate of zero.
    """
    batch = ClickBatch.of(records)
    keep = window.keep(batch)
    kept = int(np.count_nonzero(keep))
    n_same = int(np.count_nonzero(keep & (batch.d1 == batch.d2)))
    if kept == 0:
        raise EmptySelectionError(
            f"no records inside window {window} (out of {len(batch)})")
    ci_low, ci_high = _fold_to_visibility(*_wilson(n_same, kept))
    return VisibilityEstimate(
        n_same=n_same, n_diff=kept - n_same, nu_hat=abs(2 * n_same - kept) / kept,
        ci_low=ci_low, ci_high=ci_high, efficiency=kept / len(batch))


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
    batch = ClickBatch.of(records)
    # bins are half-open [a, b), the last one closed [a, b]
    counts = np.histogram(batch.tau, edges)[0]
    same = np.histogram(batch.tau[batch.d1 == batch.d2], edges)[0]
    pairs = list(zip(same.tolist(), counts.tolist()))
    cis = [_fold_to_visibility(*_wilson(k, n)) if n else (None, None)
           for k, n in pairs]
    return BinnedVisibility(
        edges=edges, counts=counts,
        nu_hat=tuple(abs(2 * k - n) / n if n else None for k, n in pairs),
        ci_low=tuple(lo for lo, _ in cis), ci_high=tuple(hi for _, hi in cis))


def write_records(fh, records) -> None:
    """Serialize records as one JSON object per line, in json.dumps layout."""
    batch = ClickBatch.of(records)
    for start in range(0, len(batch), CHUNK_SIZE):
        cols = (getattr(batch, col)[start:start + CHUNK_SIZE].tolist()
                for col in _COLUMNS)
        fh.write("".join(f'{{"t1": {a!r}, "d1": "{_SIGNS[b]}", "tau": {c!r}, '
                         f'"d2": "{_SIGNS[d]}"}}\n' for a, b, c, d in zip(*cols)))


def _json_number(x) -> float:
    # float() would also take a numeric string or a bool
    if type(x) is float or type(x) is int:
        return float(x)
    raise TypeError(f"a record time must be a JSON number, got {x!r}")


def _line_rows(lines) -> np.ndarray:
    """Records of JSONL lines, one json.loads per line; blank lines skipped."""
    objs = (json.loads(line) for line in lines if line.strip())
    return np.fromiter(((_json_number(o["t1"]), _SIGNS.index(o["d1"]),
                         _json_number(o["tau"]), _SIGNS.index(o["d2"]))
                        for o in objs), _RECORD)


# characters read at a time, then completed to a whole line
_BLOCK = 1 << 20
# lines exactly as write_records lays them out, each time a run of the
# characters a JSON number can hold; the times are checked by json.loads
_LAYOUT = re.compile(r'(?:\{"t1": [-+.0-9eE]+, "d1": "[+-]", '
                     r'"tau": [-+.0-9eE]+, "d2": "[+-]"\}\n)*')


def _layout_rows(block: str) -> np.ndarray:
    """Records of a block that _LAYOUT matches, with one json.loads in all.

    Each line holds three commas, which end t1, d1 and tau; the times start
    7 characters into the line and 9 past the second comma, and each sign
    sits 9 past the comma before it.  The times are cut out as "t1,tau,..."
    and parsed as one JSON array, so JSON's number grammar still applies.
    """
    buf = np.frombuffer(block.encode("ascii"), np.uint8)
    comma = np.flatnonzero(buf == ord(",")).reshape(-1, 3)
    line = np.r_[0, np.flatnonzero(buf == ord("\n"))[:-1] + 1]
    # +1 where a time starts, -1 just past the comma that ends it
    edge = np.zeros(buf.size, np.int8)
    edge[line + 7] = 1
    edge[comma[:, 1] + 9] = 1
    edge[comma[:, 0::2] + 1] = -1
    times = buf[np.cumsum(edge, dtype=np.int8) > 0][:-1].tobytes()
    times = json.loads(b"[" + times + b"]")
    rows = np.empty(len(comma), _RECORD)
    rows["t1"], rows["tau"] = times[0::2], times[1::2]
    rows["d1"] = buf[comma[:, 0] + 9] == ord("-")
    rows["d2"] = buf[comma[:, 2] + 9] == ord("-")
    return rows


def _block_rows(block: str) -> np.ndarray:
    """Records of a block of whole lines, parsed at once if in the layout."""
    if _LAYOUT.fullmatch(block):
        try:
            return _layout_rows(block)
        except (ValueError, OverflowError):
            pass  # a bad time: the loop below raises the first bad line's error
    # a text handle ends lines at "\n" only; str.splitlines() would also
    # split at "\r", "\u2028" and others, inside a line
    return _line_rows(block.split("\n"))


def read_records(fh) -> ClickBatch:
    """Parse JSONL records a block of whole lines at a time.

    Blocks in write_records' layout are parsed with one json.loads each, any
    other JSONL line by line.  A bad line raises ValueError, KeyError,
    TypeError, or OverflowError for a number too large for a float.
    """
    rows = np.empty(0, _RECORD)
    while block := fh.read(_BLOCK):
        part = _block_rows(block + fh.readline())
        n = rows.size
        rows.resize(n + part.size, refcheck=False)  # in place, as np.fromiter
        rows[n:] = part
    return ClickBatch(*(rows[col] for col in _COLUMNS))


def ks_statistic_tau(records, g: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of tau against Exp(rate=g)."""
    from scipy import stats

    result = stats.kstest(ClickBatch.of(records).tau,
                          stats.expon(scale=1.0 / g).cdf)
    return result.statistic, result.pvalue
