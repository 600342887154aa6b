"""Monte Carlo sampling, post-selection and estimation."""

import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from homsim import trajectories
from homsim.bath import BathFamily, BathSpec
from homsim.dynamics import Detector, SourceConfig
from homsim.trajectories import (CHUNK_SIZE, ClickBatch, ClickRecord,
                                 EmptySelectionError, Selection, Window,
                                 binned_visibility, estimate_visibility,
                                 read_blocks, read_records, simulate_chunks,
                                 simulate_ensemble, write_records)

MARKOV = BathSpec(BathFamily.MARKOVIAN, 0.5, 10.0)
OHMIC = BathSpec(BathFamily.OHMIC, 0.5, 10.0)
SUPER = BathSpec(BathFamily.SUPEROHMIC, 0.5, 10.0)
NO_DEPHASING = BathSpec(BathFamily.OHMIC, 0.0, 10.0)

SRC_M = SourceConfig.identical_sources(0.01, MARKOV)


def ks_statistic_tau(records, g: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of tau against Exp(rate=g)."""
    result = stats.kstest(ClickBatch.of(records).tau,
                          stats.expon(scale=1.0 / g).cdf)
    return result.statistic, result.pvalue


class TestSimulateEnsemble:
    def test_repeatable(self):
        assert simulate_ensemble(42, 10, SRC_M) == \
            simulate_ensemble(42, 10, SRC_M)

    def test_mean_separation(self):
        records = simulate_ensemble(11, 100_000, SRC_M)
        mean_tau = np.mean([r.tau for r in records])
        # exponential with mean 100, 3 sigma of the sample mean
        assert abs(mean_tau - 100.0) < 3 * 100.0 / math.sqrt(100_000)

    def test_worker_count_invariant(self):
        one = simulate_ensemble(42, 10_000, SRC_M, workers=1)
        eight = simulate_ensemble(42, 10_000, SRC_M, workers=8)
        assert one == eight

    def test_worker_count_invariant_superohmic(self):
        src = SourceConfig.identical_sources(0.01, SUPER)
        assert simulate_ensemble(3, 5000, src, workers=1) == \
            simulate_ensemble(3, 5000, src, workers=4)

    def test_first_detector_is_fair(self):
        records = simulate_ensemble(7, 100_000, SRC_M)
        plus = sum(r.d1 is Detector.PLUS for r in records)
        sigma = 0.5 * math.sqrt(100_000)
        assert abs(plus - 50_000) < 4 * sigma

    def test_tau_distribution_ks(self):
        records = simulate_ensemble(13, 100_000, SRC_M)
        stat, _ = ks_statistic_tau(records, SRC_M.g)
        # 1% critical value of the KS statistic, 1.628 / sqrt(N)
        assert stat < 1.628 / math.sqrt(100_000)

    def test_conditional_anticorrelation_fraction(self):
        # among records in a narrow tau bin, the different-detector
        # fraction follows (1 - e^{-2 Gamma(tau)})/2
        records = simulate_ensemble(29, 200_000, SRC_M)
        tau0, width = 2.0, 0.2
        inside = [r for r in records if tau0 <= r.tau < tau0 + width]
        frac = np.mean([r.d1 != r.d2 for r in inside])
        expected = (1 - math.exp(-math.pi * (tau0 + width / 2) / 10)) / 2
        sigma = math.sqrt(expected * (1 - expected) / len(inside))
        assert abs(frac - expected) < 4 * sigma

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            simulate_ensemble(1, 0, SRC_M)
        with pytest.raises(ValueError):
            simulate_ensemble(1, 10, SRC_M, workers=0)

    @pytest.mark.parametrize("g", [5e-324, 1e-308])
    def test_overflowing_click_times(self, g):
        # 1/g overflows, or the draws beyond it do: a numerical failure
        src = SourceConfig.identical_sources(g, MARKOV)
        with pytest.raises(FloatingPointError, match="click times overflow"):
            simulate_ensemble(1, 5000, src)

    def test_chunks_drawn_on_demand(self):
        n = 3 * CHUNK_SIZE + 5
        with mock.patch.object(trajectories, "_draw",
                               side_effect=trajectories._draw) as draw:
            chunks = simulate_chunks(42, n, SRC_M)
            assert draw.call_count == 0
            first = next(chunks)
            assert draw.call_count == 1
            chunks = [first, *chunks]
        assert [len(c) for c in chunks] == [CHUNK_SIZE] * 3 + [5]
        assert ClickBatch(*(np.concatenate([getattr(c, col) for c in chunks])
                            for col in ("t1", "d1", "tau", "d2"))) == \
            simulate_ensemble(42, n, SRC_M)
        with pytest.raises(ValueError):
            simulate_chunks(1, 0, SRC_M)

    def test_nonidentical_powerlaw_worker_invariant(self):
        src = SourceConfig(0.01, BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=2.5),
                           BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=3.5),
                           identical=False)
        assert simulate_ensemble(9, 5000, src, workers=1) == \
            simulate_ensemble(9, 5000, src, workers=2)


class TestWindow:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_t1_max_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError):
            Window(delta=1.0, t1_max=bad)

    def test_infinite_width_allowed(self):
        assert Window(delta=math.inf).delta == math.inf
        with pytest.raises(ValueError):
            Window(delta=math.nan)


class TestEstimateVisibility:
    def test_all_same_detector(self):
        src = SourceConfig.identical_sources(0.01, NO_DEPHASING)
        records = simulate_ensemble(2, 2000, src)
        est = estimate_visibility(records, Window(delta=math.inf))
        assert est.nu_hat == 1.0
        assert est.efficiency == 1.0
        assert est.ci_low < 1.0
        assert est.ci_high == pytest.approx(1.0, abs=1e-12)

    def test_balanced_counts_give_zero(self):
        from homsim.trajectories import ClickRecord
        records = [ClickRecord(t1=0.1, d1=Detector.PLUS, tau=0.5,
                               d2=Detector.PLUS if i < 50 else Detector.MINUS)
                   for i in range(100)]
        est = estimate_visibility(records, Window(delta=1.0))
        assert est.nu_hat == 0.0
        assert est.ci_low == 0.0

    def test_empty_selection_raises(self):
        from homsim.trajectories import ClickRecord
        records = [ClickRecord(t1=0.1, d1=Detector.PLUS, tau=5.0,
                               d2=Detector.PLUS)]
        with pytest.raises(EmptySelectionError):
            estimate_visibility(records, Window(delta=1.0))

    def test_efficiency_monotone_in_window(self):
        records = simulate_ensemble(17, 20_000, SRC_M)
        effs = [estimate_visibility(records, Window(delta=d)).efficiency
                for d in (1.0, 10.0, 100.0)]
        assert effs[0] <= effs[1] <= effs[2]

    def test_label_swap_invariant(self):
        from homsim.trajectories import ClickRecord
        records = simulate_ensemble(19, 5000, SRC_M)
        flip = {Detector.PLUS: Detector.MINUS, Detector.MINUS: Detector.PLUS}
        swapped = [ClickRecord(t1=r.t1, d1=flip[r.d1], tau=r.tau,
                               d2=flip[r.d2]) for r in records]
        window = Window(delta=10.0)
        assert estimate_visibility(records, window).nu_hat == \
            estimate_visibility(swapped, window).nu_hat

    def test_t1_window(self):
        records = simulate_ensemble(23, 5000, SRC_M)
        full = estimate_visibility(records, Window(delta=math.inf))
        cut = estimate_visibility(records,
                                  Window(delta=math.inf, t1_max=10.0))
        assert cut.efficiency < full.efficiency

    def test_visibility_recovers_with_narrow_window(self):
        records = simulate_ensemble(31, 200_000, SRC_M)
        narrow = estimate_visibility(records, Window(delta=1.0))
        wide = estimate_visibility(records, Window(delta=100.0))
        assert narrow.nu_hat > wide.nu_hat
        assert narrow.efficiency < wide.efficiency


class TestBinnedVisibility:
    def test_no_dephasing_bins_at_unity(self):
        src = SourceConfig.identical_sources(0.01, NO_DEPHASING)
        records = simulate_ensemble(5, 20_000, src)
        binned = binned_visibility(records, np.linspace(0, 200, 11))
        for count, nu in zip(binned.counts, binned.nu_hat):
            if count:
                assert nu == 1.0

    def test_empty_input_all_absent(self):
        binned = binned_visibility([], np.linspace(0, 10, 5))
        assert all(n is None for n in binned.nu_hat)
        assert binned.counts.sum() == 0

    def test_matches_analytic_curve(self):
        records = simulate_ensemble(37, 500_000, SRC_M)
        edges = np.linspace(0, 10, 21)
        binned = binned_visibility(records, edges)
        for mid, count, nu in zip(binned.midpoints, binned.counts,
                                  binned.nu_hat):
            expected = math.exp(-math.pi * mid / 10)
            p_same = (1 + expected) / 2
            sigma_nu = 2 * math.sqrt(p_same * (1 - p_same) / count)
            assert abs(nu - expected) < 4 * sigma_nu + 0.01

    def test_last_edge_inclusive(self):
        from homsim.trajectories import ClickRecord
        records = [ClickRecord(t1=0.1, d1=Detector.PLUS, tau=tau,
                               d2=Detector.PLUS)
                   for tau in (0.0, 1.0, 2.5, 4.0)]
        binned = binned_visibility(records, [0.0, 2.0, 4.0])
        assert list(binned.counts) == [2, 2]

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            binned_visibility([], [3.0, 1.0])

    def test_counts_only_selection_cannot_bin(self):
        counts = Selection.of([simulate_ensemble(3, 50, SRC_M)], Window(1.0),
                              columns=False)
        with pytest.raises(ValueError, match="kept only counts"):
            counts.binned([0.0, 1.0])


class TestSerialization:
    def test_round_trip(self):
        records = simulate_ensemble(41, 500, SRC_M)
        buf = io.StringIO()
        write_records(buf, records)
        buf.seek(0)
        assert read_records(buf) == records

    def test_line_format(self):
        records = simulate_ensemble(43, 3, SRC_M)
        buf = io.StringIO()
        write_records(buf, records)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 3
        import json
        obj = json.loads(lines[0])
        assert set(obj) == {"t1", "d1", "tau", "d2"}
        assert obj["d1"] in "+-"

    def test_read_memory_stays_flat(self, tmp_path):
        # read from a file, as a StringIO's own buffer would join the trace;
        # 1e6 records, as at fewer the fixed per-block buffers set the peak
        buf = io.StringIO()
        write_records(buf, simulate_ensemble(47, 1000, SRC_M))
        path = tmp_path / "r.jsonl"
        path.write_text(buf.getvalue() * 1000)
        tracemalloc.start()
        try:
            with open(path) as fh:
                back = read_records(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the columns hold 18 bytes per record; columns grown in place peak
        # near 1.4x that, parts joined at the end near 2x
        assert len(back) == 1_000_000
        assert peak <= 1.75 * 18 * len(back)


# finite non-negative floats, with 0, subnormals and the largest magnitudes
_TIME = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 20.0),
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1.0, 1e300, 1.7976931348623157e308]))
_DETECTOR = st.sampled_from(list(Detector))


def _batches(times=_TIME, max_size=40):
    return st.lists(st.builds(ClickRecord, t1=times, d1=_DETECTOR, tau=times,
                              d2=_DETECTOR),
                    max_size=max_size).map(ClickBatch.of)


def _json_lines(batch) -> str:
    """The record format: one json.dumps object per line."""
    return "".join(json.dumps({"t1": r.t1, "d1": r.d1.value, "tau": r.tau,
                               "d2": r.d2.value}) + "\n" for r in batch)


def _interval(k, n, z=1.959963984540054):
    """The reference 95% interval of nu, one scalar at a time: the Wilson
    score interval of p_same = k / n, mapped through nu = |2p - 1| and folded
    across p = 1/2."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    p_low, p_high = max(0.0, centre - half), min(1.0, centre + half)
    lo, hi = abs(2 * p_low - 1), abs(2 * p_high - 1)
    if p_low <= 0.5 <= p_high:
        return 0.0, max(lo, hi)
    return min(lo, hi), max(lo, hi)


class TestRecordLayerProperties:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t1", "tau"])
    def test_record_and_batch_reject_bad_times(self, field, bad):
        times = {"t1": 0.5, "tau": 0.5, field: bad}
        with pytest.raises(ValueError, match="finite and >= 0"):
            ClickRecord(d1=Detector.PLUS, d2=Detector.PLUS, **times)
        with pytest.raises(ValueError, match="finite and >= 0"):
            ClickBatch([times["t1"]], [0], [times["tau"]], [0])

    @pytest.mark.parametrize("columns", [
        ([0.1, 0.2, 0.3], [0], [1.0, 2.0], [0, 1, 1, 0]),
        ([0.1], [7], [1.0], [-3]),
        ([0.1], [-1], [1.0], [0]),
        ([0.1], [0], [1.0], [2]),
        ([0.1], np.array([256]), [1.0], [0]),
        ([0.1], [0.7], [1.0], [0]),
        ([[0.1, 0.2]] * 2, [[0, 1]] * 2, [[1.0, 2.0]] * 2, [[0, 1]] * 2),
        (0.1, 0, 1.0, 0),
    ], ids=["lengths", "codes-7-and-minus-3", "code-minus-1", "code-2",
            "code-256", "code-0.7", "two-dimensional", "scalars"])
    def test_batch_rejects_bad_columns(self, columns):
        with pytest.raises(ValueError, match="1-D columns of one length, "
                                             "every detector 0"):
            ClickBatch(*columns)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batch=_batches())
    def test_round_trip_and_format(self, batch):
        buf = io.StringIO()
        write_records(buf, batch)
        assert buf.getvalue() == _json_lines(batch)
        buf.seek(0)
        back = read_records(buf)
        assert back == batch
        assert list(back) == list(batch)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_estimators_match_per_record_reference(self, data):
        edges = sorted(data.draw(st.sets(st.floats(0.0, 20.0), min_size=2,
                                         max_size=6)))
        times = st.one_of(_TIME, st.sampled_from(edges))
        batch = data.draw(_batches(times))
        window = Window(
            delta=data.draw(st.one_of(st.sampled_from(edges[1:]),
                                      st.floats(1e-3, 30.0),
                                      st.just(math.inf))),
            t1_max=data.draw(st.one_of(st.none(), st.floats(1e-3, 30.0))))
        records = list(batch)

        kept = [r for r in records if r.tau <= window.delta and
                (window.t1_max is None or r.t1 <= window.t1_max)]
        k = sum(r.d1 == r.d2 for r in kept)
        assert list(batch.select(window.keep(batch))) == kept
        if not kept:
            with pytest.raises(EmptySelectionError):
                estimate_visibility(batch, window)
        else:
            est = estimate_visibility(batch, window)
            assert (est.n_same, est.n_diff) == (k, len(kept) - k)
            assert est.nu_hat == abs(2 * k - len(kept)) / len(kept)
            assert (est.ci_low, est.ci_high) == _interval(k, len(kept))
            assert est.efficiency == len(kept) / len(records)

        nbins = len(edges) - 1
        counts, same = [0] * nbins, [0] * nbins
        for r in records:
            for b in range(nbins):
                last = b == nbins - 1
                if edges[b] <= r.tau < edges[b + 1] or (last and
                                                       r.tau == edges[-1]):
                    counts[b] += 1
                    same[b] += r.d1 == r.d2
                    break
        binned = binned_visibility(batch, edges)
        assert binned.counts.tolist() == counts
        assert binned.nu_hat == tuple(abs(2 * s - n) / n if n else None
                                      for s, n in zip(same, counts))
        assert list(zip(binned.ci_low, binned.ci_high)) == [
            _interval(s, n) if n else (None, None)
            for s, n in zip(same, counts)]


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_selection_of_pieces_matches_whole(self, data):
        batch = data.draw(_batches())
        cuts = [0, *sorted(data.draw(st.lists(st.integers(0, len(batch)),
                                              max_size=4))), len(batch)]
        pieces = [ClickBatch(*(getattr(batch, col)[a:b]
                               for col in ("t1", "d1", "tau", "d2")))
                  for a, b in zip(cuts, cuts[1:])]
        window = Window(delta=data.draw(st.one_of(st.floats(1e-3, 30.0),
                                                  st.just(math.inf))),
                        t1_max=data.draw(st.one_of(st.none(),
                                                   st.floats(1e-3, 30.0))))
        whole, joined = Selection.of([batch], window), Selection.of(pieces, window)
        keep = window.keep(batch)
        assert joined.seen == whole.seen == len(batch)
        # the kept columns, in file order, are the parts joined; a batch that
        # keeps nothing adds no part
        for sel in (whole, joined):
            assert all(part.size for part in sel.tau + sel.same)
            assert np.concatenate((np.empty(0), *sel.tau)).tolist() == \
                batch.tau[keep].tolist()
            assert np.concatenate((np.empty(0, bool), *sel.same)).tolist() == \
                (batch.d1 == batch.d2)[keep].tolist()


def _number(x) -> float:
    if type(x) not in (float, int):
        raise TypeError(f"a record time must be a JSON number, got {x!r}")
    return float(x)


def _read_per_line(fh) -> ClickBatch:
    """The reference reader: json.loads on each "\\n"-split line, fields
    checked in file order."""
    rows = []
    for line in fh.read().split("\n"):
        if line.strip():
            obj = json.loads(line)
            rows.append((_number(obj["t1"]), ("+", "-").index(obj["d1"]),
                         _number(obj["tau"]), ("+", "-").index(obj["d2"])))
    return ClickBatch(*zip(*rows)) if rows else ClickBatch([], [], [], [])


# the characters of the layout, those _BLANK turns into spaces among them
_EDIT_TOKENS = [*'0123456789.eE+-,"{}: tdau\n\r\t\u2028', "NaN", "Infinity",
                "1" + "0" * 400]


@st.composite
def _edited_records(draw):
    """write_records text with a few characters inserted, deleted or replaced."""
    buf = io.StringIO()
    write_records(buf, draw(_batches(max_size=6)))
    text = buf.getvalue()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        head, tail = text[:i], text[i + (op != "insert"):]
        if op != "delete":
            head += draw(st.sampled_from(_EDIT_TOKENS))
        text = head + tail
    return text


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        return type(exc)


_LINE = '{"t1": 0.5, "d1": "+", "tau": 1.25, "d2": "-"}\n'


class TestReaderAgainstPerLineReference:
    # small blocks put lines on both sides of block edges, and mix blocks
    # in write_records' layout with blocks read line by line
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=_edited_records(), block=st.sampled_from([8, 40, 100]))
    @example(text=_LINE + "\n" + _LINE, block=8)
    @example(text=_LINE + _LINE.rstrip("\n"), block=40)
    @example(text='{"d1": "+", "t1": 0.5, "d2": "-", "tau": 1.25}\n' + _LINE,
             block=8)
    @example(text='{"t1": 0, "d1": "+", "tau": 3, "d2": "-"}\n' + _LINE,
             block=100)
    @example(text='{"t1": 1E-5, "d1": "-", "tau": 2e+3, "d2": "+"}\n', block=8)
    # one line, the whole file, in one block in the layout
    @example(text=_LINE, block=100)
    # the smallest subnormal, a time json.dumps writes with an exponent, and
    # the largest float
    @example(text='{"t1": 5e-324, "d1": "-", "tau": 1e-05, "d2": "+"}\n'
                  '{"t1": 1.7976931348623157e+308, "d1": "+", "tau": 5e-324, '
                  '"d2": "-"}\n', block=1000)
    @example(text=_LINE + '{"t1": 0.5, "d1": "+", "tau": 1.25, "d2": "-", '
                          '"x": "a\u2028b"}\n' + _LINE, block=8)
    # a too-large integer, then a bad number, in one block in the layout
    @example(text='{"t1": 1%s, "d1": "+", "tau": 1.0, "d2": "+"}\n'
                  '{"t1": 1e, "d1": "+", "tau": 1.0, "d2": "+"}\n' % ("0" * 400),
             block=1000)
    # a bad time in an early block, a missing field in a later one: the
    # reference parses every line before it checks a time
    @example(text=_LINE.replace("0.5", "-0.5") + _LINE * 3 + '{"t1": 0.5}\n',
             block=8)
    def test_equal_batch_or_same_error(self, text, block):
        expected = _outcome(_read_per_line, text)
        with mock.patch.object(trajectories, "_BLOCK", block):
            assert _outcome(read_records, text) == expected

    def test_records_validated_once(self):
        # read_records checks the joined rows once, not each block again
        text = _LINE * 10
        with mock.patch.object(trajectories, "_BLOCK", 100), \
                mock.patch.object(trajectories, "_times",
                                  wraps=trajectories._times) as times:
            assert len(list(read_blocks(io.StringIO(text)))) > 1
            times.reset_mock()
            assert len(read_records(io.StringIO(text))) == 10
        assert times.call_count == 1

    def test_blocks_stream(self):
        # each block is yielded before the next is read, so a bad line
        # raises only when its block is reached
        with mock.patch.object(trajectories, "_BLOCK", 100):
            blocks = read_blocks(io.StringIO(_LINE * 10 + "not json\n"))
            first = next(blocks)
            assert first == read_records(io.StringIO(_LINE * len(first)))
            assert 0 < len(first) < 10
            with pytest.raises(ValueError):
                list(blocks)
