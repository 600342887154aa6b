"""Monte Carlo click records, post-selection and visibility estimation.

Sampling is exact (inverse transform + Bernoulli, no time stepping): the
first click time is exponential with rate 2g, its detector is a fair coin,
the separation tau is exponential with rate g, and the second detector
repeats the first with probability (1 + kappa)/2 where kappa is the
coherence factor at that separation.

Records are generated in fixed-size chunks, each from its own counter-based
substream spawned off the ensemble seed, so the output is a pure function of
(seed, n, source).  Records are held as columns, in a ClickBatch.  Both ends
of the record file stream: simulate_chunks draws a chunk at a time and
read_blocks parses a block of about 256 KiB at a time, and a Selection keeps
of each batch only what the estimators need: the counts, plus for tau bins
a part of 9 bytes per kept record.  So a pipeline built from them holds a
chunk or a block at once, plus those 9 bytes per record.  A block in the
layout write_records lays out is blanked down to its times, with one
bytes.translate and a few fixed-offset writes, and parsed by one json.loads.
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
    "Selection",
    "VisibilityEstimate",
    "Window",
    "binned_visibility",
    "estimate_visibility",
    "read_blocks",
    "read_records",
    "simulate_chunks",
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

    Raises ValueError unless the four columns are 1-D and of one length,
    every detector is 0 or 1, and every t1 and tau is finite and >= 0.
    Iterating yields ClickRecord objects; every other use reads the columns.
    """

    t1: np.ndarray
    d1: np.ndarray
    tau: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        cols = [np.asarray(getattr(self, col)) for col in _COLUMNS]
        # checked before the cast to int8, which turns a detector 256 or 0.7 into 0
        if ({c.shape for c in cols} != {(cols[0].size,)}
                or not all(((d == 0) | (d == 1)).all() for d in cols[1::2])):
            raise ValueError("need four 1-D columns of one length, "
                             "every detector 0 (+) or 1 (-)")
        for col, c, (dtype, _) in zip(_COLUMNS, cols, _RECORD.fields.values()):
            object.__setattr__(self, col, c.astype(dtype, copy=False))
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
    if not (np.isfinite(t1).all() and np.isfinite(tau).all()):
        raise FloatingPointError(
            "click times overflow: times must be finite and >= 0")
    same = rng.random(size=m) < 0.5 * (1.0 + coherence_factor(src, t1, tau))
    return ClickBatch(t1, d1, tau, np.where(same, d1, 1 - d1))


def simulate_chunks(seed: int, n: int, src: SourceConfig):
    """The n records of simulate_ensemble as ClickBatch chunks of up to
    CHUNK_SIZE records, each drawn from its own Philox substream of the seed
    only when it is asked for; overflow raises FloatingPointError."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (_draw(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(c,)))), src,
        min(CHUNK_SIZE, n - start))
        for c, start in enumerate(range(0, n, CHUNK_SIZE)))


def simulate_ensemble(seed: int, n: int, src: SourceConfig,
                      workers: int = 1) -> ClickBatch:
    """Generate n records, a pure function of (seed, n, src).

    Sampling is serial: ``workers`` must be >= 1 but changes nothing.
    """
    if workers < 1:
        raise ValueError("need workers >= 1")
    parts = list(simulate_chunks(seed, n, src))
    return ClickBatch(*(np.concatenate([getattr(p, col) for p in parts])
                        for col in _COLUMNS))


def _visibilities(k, n):
    """nu_hat = |2k - n| / n for k of n >= 1 records on one detector, and the
    Wilson 95% interval of k / n mapped through |2p - 1|, folded at p = 1/2."""
    z = _Z95
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    p_low, p_high = np.maximum(0.0, centre - half), np.minimum(1.0, centre + half)
    lo, hi = np.abs(2 * p_low - 1), np.abs(2 * p_high - 1)
    return (np.abs(2 * k - n) / n,
            np.where((p_low <= 0.5) & (0.5 <= p_high), 0.0, np.minimum(lo, hi)),
            np.maximum(lo, hi))


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


@dataclass(frozen=True, eq=False)
class Selection:
    """What the estimators need of the records a window keeps.

    ``seen`` counts every record offered to the window, ``kept`` those it
    keeps and ``n_same`` those kept whose second click repeats the first
    detector.  ``tau`` (float64) and ``same`` (bool), which binned() needs,
    hold 9 bytes per record kept, in order, as one array per batch that kept
    a record; they are None when only the counts were kept.
    """

    seen: int
    kept: int
    n_same: int
    tau: tuple | None = None
    same: tuple | None = None

    @classmethod
    def of(cls, batches, window: Window, columns: bool = True) -> "Selection":
        """Post-select an iterable of ClickBatch one batch at a time, keeping,
        if ``columns``, each batch's kept columns as one more part."""
        seen = kept = n_same = 0
        tau, same = [], []
        for batch in batches:
            keep = window.keep(batch)
            is_same = (batch.d1 == batch.d2)[keep]
            seen += len(batch)
            kept += is_same.size
            n_same += int(np.count_nonzero(is_same))
            if columns and is_same.size:
                tau.append(batch.tau[keep])
                same.append(is_same)
        return cls(seen, kept, n_same, *(map(tuple, (tau, same)) if columns else ()))

    def estimate(self, window: Window) -> VisibilityEstimate:
        """Visibility of the kept records with a 95% score interval.

        Raises EmptySelectionError, naming ``window``, the window the records
        were kept by, when none was kept, which is a different outcome from
        an estimate of zero.
        """
        if self.kept == 0:
            raise EmptySelectionError(
                f"no records inside window {window} (out of {self.seen})")
        nu_hat, ci_low, ci_high = map(float, _visibilities(self.n_same, self.kept))
        return VisibilityEstimate(
            n_same=self.n_same, n_diff=self.kept - self.n_same, nu_hat=nu_hat,
            ci_low=ci_low, ci_high=ci_high, efficiency=self.kept / self.seen)

    def binned(self, bin_edges) -> BinnedVisibility:
        """Visibility of the kept records grouped by tau into the given bins."""
        if self.tau is None:
            raise ValueError("binned() needs the kept columns; this selection "
                             "kept only counts")
        edges = np.asarray(bin_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
        # a part at a time, so that no whole column is copied; np.histogram
        # sorts what it is given, so the records outside every bin are
        # dropped first; bins are half-open [a, b), the last one closed [a, b]
        counts, n_same = np.zeros((2, edges.size - 1), np.intp)
        for tau, same in zip(self.tau, self.same):
            inside = (edges[0] <= tau) & (tau <= edges[-1])
            if not inside.all():
                tau, same = tau[inside], same[inside]
            counts += np.histogram(tau, edges)[0]
            n_same += np.histogram(tau[same], edges)[0]
        # an empty bin has no estimate; n = 1 there only keeps the arithmetic finite
        nu_hat, ci_low, ci_high = (
            tuple(np.where(counts > 0, col, None).tolist())
            for col in _visibilities(n_same, np.maximum(counts, 1)))
        return BinnedVisibility(edges, counts, nu_hat, ci_low, ci_high)


def estimate_visibility(records, window: Window) -> VisibilityEstimate:
    """Post-selected visibility with a 95% score interval.

    Raises EmptySelectionError when nothing survives the window, which is a
    different outcome from an estimate of zero.
    """
    return Selection.of([ClickBatch.of(records)], window,
                        columns=False).estimate(window)


def binned_visibility(records, bin_edges) -> BinnedVisibility:
    """Empirical visibility of records grouped by tau into the given bins."""
    batch = ClickBatch.of(records)
    same = batch.d1 == batch.d2
    return Selection(len(batch), len(batch), int(np.count_nonzero(same)),
                     (batch.tau,), (same,)).binned(bin_edges)


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


def _detector(x) -> int:
    if x in _SIGNS:
        return _SIGNS.index(x)
    raise ValueError(f'detector must be "+" or "-", got {json.dumps(x)}')


def _json_object(line) -> dict:
    obj = json.loads(line)
    # indexing any other JSON value by key is also a TypeError, a vaguer one
    if type(obj) is not dict:
        raise TypeError(f"a record must be a JSON object, got {json.dumps(obj)}")
    return obj


def _line_rows(lines) -> np.ndarray:
    """Records of JSONL lines, one json.loads per line; blank lines skipped."""
    objs = (_json_object(line) for line in lines if line.strip())
    return np.fromiter(((_json_number(o["t1"]), _detector(o["d1"]),
                         _json_number(o["tau"]), _detector(o["d2"]))
                        for o in objs), _RECORD)


# characters read at a time, then completed to a whole line
_BLOCK = 1 << 18
# lines exactly as write_records lays them out, each time a run of the
# characters a JSON number can hold; the times are checked by json.loads
_LAYOUT = re.compile(r'(?:\{"t1": [-+.0-9eE]+, "d1": "[+-]", '
                     r'"tau": [-+.0-9eE]+, "d2": "[+-]"\}\n)*')
# the layout's braces, quotes, colons, newlines and key letters, each to a
# space; no time holds any of them
_BLANK = bytes.maketrans(b'{}":tdau\n', b" " * 9)


def _layout_rows(block: str) -> np.ndarray:
    """Records of a block that _LAYOUT matches, with one json.loads in all.

    Each line holds three commas, c0, c1 = c0 + 11 and c2, which end t1,
    d1 and tau; each sign sits 9 past the comma before it.  The block is
    blanked down to its times: _BLANK turns the keys' letters, the quotes,
    braces, colons and newlines into spaces, then fixed-offset writes blank
    the key digits (3 into each line, 4 past c0 and c2), the signs and c1.
    What is left, "t1, tau, t1, ..., tau" amid whitespace, is bracketed in
    place of the first key digit and the last c2 and parsed as one JSON
    array, so JSON's number grammar still applies.
    """
    text = bytearray(block, "ascii").translate(_BLANK)
    buf = np.frombuffer(text, np.uint8)
    comma = np.flatnonzero(buf == ord(",")).reshape(-1, 3)
    c0, c2 = comma[:, 0], comma[:, 2]
    rows = np.empty(len(comma), _RECORD)
    rows["d1"] = buf[c0 + 9] == ord("-")
    rows["d2"] = buf[c2 + 9] == ord("-")
    for at in (c2[:-1] + 16, c0 + 4, c2 + 4, c0 + 9, c2 + 9, c0 + 11):
        buf[at] = ord(" ")
    buf[3], buf[c2[-1]] = ord("["), ord("]")
    times = json.loads(text)
    rows["t1"], rows["tau"] = times[0::2], times[1::2]
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


def _row_blocks(fh):
    """The records of each block of about _BLOCK characters of whole lines,
    as parsed _RECORD rows whose times are not yet checked."""
    while block := fh.read(_BLOCK):
        yield _block_rows(block + fh.readline())


def read_blocks(fh):
    """Parse JSONL records a block of about _BLOCK characters of whole lines
    at a time, yielding each block's records as one validated ClickBatch.

    Blocks in write_records' layout are parsed with one json.loads each, any
    other JSONL line by line.  A bad line raises ValueError, KeyError,
    TypeError, OverflowError for a number too large for a float, or
    RecursionError for JSON nested too deeply.
    """
    for rows in _row_blocks(fh):
        yield ClickBatch(*(rows[col] for col in _COLUMNS))


def read_records(fh) -> ClickBatch:
    """Every record of read_blocks(fh), in one batch validated once, each
    column grown in place a block at a time by ndarray.resize, which peaks
    below the twice its size of joining the blocks at the end."""
    cols = [np.empty(0, dtype) for dtype, _ in _RECORD.fields.values()]
    for rows in _row_blocks(fh):
        for col, name in zip(cols, _COLUMNS):
            n = col.size
            col.resize(n + rows.size, refcheck=False)  # nothing else views col
            col[n:] = rows[name]
    return ClickBatch(*cols)
