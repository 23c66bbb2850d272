"""Unit tests for the compiled core's calendar queue.

The pure engine is a plain heap; the calendar queue lives only in the C
extension (:mod:`repro.sim._ccore`).  The equivalence suite
(``test_core_equivalence.py``) proves the *what* — identical
``(time, seq, event)`` streams vs a reference heapq.  This file pins the
*how* through the type's public surface (``push``/``pop_batch``/
``min_time``/``width``/``len``): drained-bucket reuse, the far-future
ladder spill, and width auto-tuning (window retune + emergency shrink).

The extension is loaded through :func:`tests.sim.ccore_build.load_ccore`
(in-tree build, else a standalone test build); without a C compiler the
whole module skips.
"""

import math

import pytest

from repro.common.errors import ConfigError, SimulationError
from tests.sim.ccore_build import load_ccore

_ccore = load_ccore()
pytestmark = pytest.mark.skipif(_ccore is None,
                                reason="compiled core cannot be built")
CalendarQueue = _ccore.CalendarQueue if _ccore is not None else None

# the tuning constants of _ccore.c (#define GAP_WINDOW etc.)
GAP_WINDOW = 256
SPILL_LIMIT = 512
MIN_WIDTH = 1e-3
MAX_WIDTH = 65536.0
#: 2**1023 ns: entries at or past this skip the buckets (FAR_TIME)
FAR_TIME = 8.98846567431158e307


def _ev():
    return object()  # payloads are opaque to the queue


class TestBasics:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError, match="must be positive"):
            CalendarQueue(width=0.0)
        with pytest.raises(ConfigError, match="must be positive"):
            CalendarQueue(width=-5.0)
        with pytest.raises(ConfigError, match="must be positive"):
            CalendarQueue(width=float("nan"))

    def test_len_and_min_time_track_contents(self):
        cal = CalendarQueue(width=10.0)
        assert len(cal) == 0
        assert cal.min_time() == math.inf
        cal.push(25.0, 1, _ev())
        cal.push(5.0, 2, _ev())
        assert len(cal) == 2
        assert cal.min_time() == 5.0
        t, batch = cal.pop_batch()
        assert (t, len(batch)) == (5.0, 1)
        assert cal.min_time() == 25.0
        assert len(cal) == 1

    def test_same_tick_batch_in_seq_order(self):
        cal = CalendarQueue(width=10.0)
        events = [_ev() for _ in range(5)]
        # push out of seq order at one tick; batch must come back sorted
        for seq in (3, 1, 5, 2, 4):
            cal.push(7.0, seq, events[seq - 1])
        t, batch = cal.pop_batch()
        assert t == 7.0
        assert [e[1] for e in batch] == [1, 2, 3, 4, 5]
        assert [e[2] for e in batch] == events

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty calendar"):
            CalendarQueue().pop_batch()


class TestBucketShells:
    """A bucket drained by a pop stays behind as an empty shell until it
    resurfaces at the top of the order heap; re-pushes into its range
    and pops past it must not lose or reorder entries."""

    def test_drained_bucket_left_as_shell_and_rearmed(self):
        cal = CalendarQueue(width=10.0)
        cal.push(5.0, 1, _ev())
        cal.pop_batch()
        assert len(cal) == 0
        cal.push(8.0, 2, _ev())  # same bucket range as the drained one
        assert cal.min_time() == 8.0
        assert cal.pop_batch()[0] == 8.0
        assert len(cal) == 0

    def test_stale_shell_discarded_at_heap_top(self):
        cal = CalendarQueue(width=10.0)
        cal.push(5.0, 1, _ev())
        cal.push(25.0, 2, _ev())
        cal.pop_batch()  # drains bucket 0, leaves its shell
        t, _batch = cal.pop_batch()
        assert t == 25.0
        assert len(cal) == 0
        with pytest.raises(SimulationError, match="empty calendar"):
            cal.pop_batch()

    def test_min_time_also_prunes_shells(self):
        cal = CalendarQueue(width=10.0)
        cal.push(5.0, 1, _ev())
        cal.push(25.0, 2, _ev())
        cal.pop_batch()
        assert cal.min_time() == 25.0
        assert cal.min_time() == 25.0  # idempotent after the prune
        assert cal.pop_batch()[0] == 25.0


class TestFarLadder:
    def test_far_entries_skip_buckets(self):
        cal = CalendarQueue(width=10.0)
        cal.push(FAR_TIME, 1, _ev())
        cal.push(float("inf"), 2, _ev())
        assert len(cal) == 2
        assert cal.min_time() == FAR_TIME
        assert cal.pop_batch()[0] == FAR_TIME
        assert cal.pop_batch()[0] == math.inf
        assert len(cal) == 0

    def test_far_pops_after_all_buckets(self):
        cal = CalendarQueue(width=10.0)
        far_ev = _ev()
        cal.push(1e308, 1, far_ev)
        cal.push(3.0, 2, _ev())
        assert cal.min_time() == 3.0
        assert cal.pop_batch()[0] == 3.0
        t, batch = cal.pop_batch()
        assert t == 1e308
        assert batch == [(1e308, 1, far_ev)]
        assert len(cal) == 0

    def test_far_same_time_batch_sorted_by_seq(self):
        cal = CalendarQueue(width=10.0)
        for seq in (9, 3, 6):
            cal.push(1e308, seq, _ev())
        cal.push(float("inf"), 1, _ev())
        t, batch = cal.pop_batch()
        assert t == 1e308
        assert [e[1] for e in batch] == [3, 6, 9]
        # the non-matching far entry survives for the next pop
        assert cal.pop_batch()[0] == math.inf


class TestWidthTuning:
    def test_window_retune_widens_for_sparse_schedule(self):
        cal = CalendarQueue(width=1.0)
        # ~100-apart singleton batches: avg gap 100 => target 800,
        # >2x the current width, so the first full window rebuilds
        n = GAP_WINDOW * 2 + 8
        for seq in range(n):
            cal.push(100.0 * (seq + 1), seq, _ev())
        for _ in range(n):
            cal.pop_batch()
        assert cal.width > 1.0
        assert cal.width <= MAX_WIDTH

    def test_window_retune_narrows_for_dense_schedule(self):
        cal = CalendarQueue(width=50000.0)
        n = GAP_WINDOW * 2 + 8
        for seq in range(n):
            cal.push(0.25 * (seq + 1), seq, _ev())
        for _ in range(n):
            cal.pop_batch()
        assert cal.width < 50000.0
        assert cal.width >= MIN_WIDTH

    def test_spill_shrinks_immediately(self):
        cal = CalendarQueue(width=MAX_WIDTH)
        n = SPILL_LIMIT + 2
        for seq in range(n):
            cal.push(1.0 + seq, seq, _ev())  # spread, all one bucket
        assert cal.width < MAX_WIDTH
        # stream intact after the rebuild
        times = [cal.pop_batch()[0] for _ in range(n)]
        assert times == [1.0 + seq for seq in range(n)]

    def test_same_tick_burst_does_not_thrash_width(self):
        cal = CalendarQueue(width=128.0)
        n = SPILL_LIMIT + 50
        for seq in range(n):
            cal.push(42.0, seq, _ev())  # zero span: width can't help
        assert cal.width == 128.0
        t, batch = cal.pop_batch()
        assert (t, len(batch)) == (42.0, n)
