"""Property tests for the scheduler fast path and the slotted packet.

The engine's tuple fast path (``call_later``/``call_at``) and the
cancellable ``schedule``/``schedule_at`` handles share one heap and one
tie-break counter, so any interleaving must behave exactly like a single
pure-heapq event loop.  These tests drive the :class:`Simulator` with
Hypothesis-generated interleavings of scheduling, cancellation and run
segments and compare firing order, ``events_processed``, ``now`` and
``pending()`` against a minimal reference model that knows nothing about
Events, corpses or compaction.

The slotted :class:`Packet` must stay unhashable, like the dataclass it
replaced.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Packet
from repro.netsim.engine import SimulationError, Simulator


# ---------------------------------------------------------------------------
# Reference model: pure heapq, no Event objects, no lazy deletion
# ---------------------------------------------------------------------------
class HeapqReference:
    """The semantics the engine must match, stated as plainly as possible."""

    def __init__(self) -> None:
        self.heap = []  # (time, tiebreak, event_id)
        self.counter = itertools.count()
        self.now = 0.0
        self.processed = 0
        self.fired = []
        self.cancelled = set()
        self.done = set()

    def schedule(self, delay: float, event_id: int) -> None:
        heapq.heappush(self.heap, (self.now + delay, next(self.counter),
                                   event_id))

    def cancel(self, event_id: int) -> None:
        if event_id not in self.done:
            self.cancelled.add(event_id)

    def run(self, until=None) -> None:
        limit = float("inf") if until is None else until
        while self.heap and self.heap[0][0] <= limit:
            time, _, event_id = heapq.heappop(self.heap)
            if event_id in self.cancelled:
                continue
            self.now = time
            self.fired.append(event_id)
            self.done.add(event_id)
            self.processed += 1
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        return sum(1 for _, _, eid in self.heap if eid not in self.cancelled)


# Operation alphabet.  Delays/times use a coarse float grid so that equal
# timestamps (the FIFO tie-break case) occur often.
_DELAYS = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("schedule_at"), _DELAYS),
        st.tuples(st.just("call_later"), _DELAYS),
        st.tuples(st.just("call_at"), _DELAYS),
        # Cancel the k-th cancellable handle created so far (mod count).
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), _DELAYS),
        st.tuples(st.just("run_all"), st.just(0.0)),
    ),
    min_size=1, max_size=60,
)


class TestSchedulerMatchesHeapqReference:
    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_interleavings_match_reference(self, ops):
        sim = Simulator()
        ref = HeapqReference()
        fired = []
        handles = []  # (event_id, Event) for cancellable entries
        next_id = itertools.count()

        def make_cb(event_id):
            return lambda: fired.append(event_id)

        for kind, value in ops:
            if kind == "schedule":
                event_id = next(next_id)
                handles.append((event_id,
                                sim.schedule(value, make_cb(event_id))))
                ref.schedule(value, event_id)
            elif kind == "schedule_at":
                event_id = next(next_id)
                when = sim.now + value
                handles.append((event_id,
                                sim.schedule_at(when, make_cb(event_id))))
                ref.schedule(value, event_id)
            elif kind == "call_later":
                event_id = next(next_id)
                sim.call_later(value, make_cb(event_id))
                ref.schedule(value, event_id)
            elif kind == "call_at":
                event_id = next(next_id)
                sim.call_at(sim.now + value, make_cb(event_id))
                ref.schedule(value, event_id)
            elif kind == "cancel":
                if handles:
                    event_id, event = handles[value % len(handles)]
                    event.cancel()
                    ref.cancel(event_id)
            elif kind == "run":
                sim.run(until=sim.now + value)
                ref.run(until=ref.now + value)
            else:  # run_all
                sim.run()
                ref.run()

            # The engine must agree with the reference after every step,
            # not just at the end — corpse bookkeeping and compaction
            # must never be observable.
            assert sim.now == ref.now
            assert sim.events_processed == ref.processed
            assert sim.pending() == ref.pending()
            assert fired == ref.fired

        sim.run()
        ref.run()
        assert fired == ref.fired
        assert sim.events_processed == ref.processed
        assert sim.now == ref.now
        assert sim.pending() == 0 and ref.pending() == 0

    @given(delays=st.lists(_DELAYS, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_mixed_apis_share_fifo_order_at_equal_times(self, delays):
        """schedule and call_later pushed at the same timestamp fire in
        push order, regardless of which API each push used."""
        sim = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            if i % 2 == 0:
                sim.schedule(delay, fired.append, (delay, i))
            else:
                sim.call_later(delay, fired.append, (delay, i))
        sim.run()
        assert fired == sorted(fired)  # time-major, push-order minor

    @given(value=st.floats(max_value=-1e-9, allow_nan=False,
                           allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_negative_delay_rejected_on_both_paths(self, value):
        sim = Simulator()
        for method in (sim.schedule, sim.call_later):
            try:
                method(value, lambda: None)
                raise AssertionError("negative delay accepted")
            except SimulationError:
                pass


# ---------------------------------------------------------------------------
# Slotted Packet
# ---------------------------------------------------------------------------
class TestPooledAckEquivalence:
    def test_packet_is_unhashable_like_the_dataclass_was(self):
        packet = Packet(flow_id=0, seq=1)
        try:
            hash(packet)
            raise AssertionError("Packet must be unhashable")
        except TypeError:
            pass
