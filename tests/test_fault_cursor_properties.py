"""Lockstep check of the fault injector's segment cursor against the scans.

:meth:`FaultInjector.send` caches the segment between two window edges
and the fault state that holds in it.  :class:`ScanInjector` below is the
send path it replaced, which scans every window and clock jump per
packet.  Hypothesis builds random schedules (overlapping, touching and
zero-length windows, flaps, clock jumps, reordering, duplication), picks
a direction and the byte-corruption mode, and sends packets at times
drawn from every window edge, one ulp either side of it, and points in
between, in any order.  The two injectors must make the same drops, the
same forwarding delays, the same RNG draws and the same ``FaultStats``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import _DUPLICATE_LAG, FaultInjector, _in_windows
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.netsim.packet import Packet


class ScanInjector(FaultInjector):
    """Reference: the per-packet window scans."""

    def send(self, packet):
        now = self.clock.now
        if _in_windows(now, self._outages):
            self.stats.blackout_drops += 1
            return
        if self._burst and _in_windows(now, self._burst):
            if self.rng.random() < self._active_rate(now, "burst_loss"):
                self.stats.burst_losses += 1
                return
        if (not self.byte_corruption and self._corrupt
                and _in_windows(now, self._corrupt)):
            if self.rng.random() < self._active_rate(now, "corruption"):
                self.stats.corrupted += 1
                return
        delay = self.base_delay + self._clock_extra(now)
        for start, end, jitter in self._reorder:
            if start <= now < end:
                delay += float(self.rng.uniform(0.0, jitter))
                self.stats.reorder_delays += 1
                break
        self.stats.forwarded += 1
        self._forward(packet, delay)
        if self._duplicate and _in_windows(now, self._duplicate):
            if self.rng.random() < self._active_rate(now, "duplication"):
                self.stats.duplicated += 1
                self._forward(packet, delay + _DUPLICATE_LAG)


class RecordingClock:
    """Settable time; records forwards instead of scheduling them."""

    def __init__(self):
        self.now = 0.0
        self.forwarded = []

    def call_later(self, delay, callback, packet):
        self.forwarded.append((self.now, packet.seq, delay))


def _edge_times(schedule):
    times = set()
    for event in schedule:
        times.update((event.start, event.end))
    for direction in ("down", "up"):
        for start, end in schedule.outage_windows(direction):
            times.update((start, end))
    return sorted(times)


_GRID = st.integers(0, 16).map(lambda k: k * 0.25)
# 1e-17 vanishes against any start >= 0.25: a zero-length window.
_SPAN = st.sampled_from([1e-17, 0.25, 0.5, 1.0, 1.75, 3.0])
_RATE = st.sampled_from([0.1, 0.5, 1.0])


_KINDS = ["outage", "burst_loss", "corruption", "duplication", "reorder",
          "flap", "clock_jump"]


@st.composite
def fault_events(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    start = draw(_GRID)
    if kind == "clock_jump":
        return FaultEvent.clock_jump(
            start, draw(st.sampled_from([-0.03, -0.01, 0.02, 0.05])))
    span = draw(_SPAN)
    if kind == "outage":
        return FaultEvent.outage(
            start, span, draw(st.sampled_from(["down", "up", "both"])))
    if kind == "flap":
        span = max(span, 0.5)
        return FaultEvent.link_flap(
            start, span, period=span / draw(st.sampled_from([1, 2, 3])),
            on_fraction=draw(st.sampled_from([0.25, 0.5, 0.75])),
            direction=draw(st.sampled_from(["down", "up", "both"])))
    if kind == "reorder":
        return FaultEvent.reorder_storm(
            start, span, draw(st.sampled_from([0.01, 0.03])))
    return FaultEvent(kind, start, span, rate=draw(_RATE))


@st.composite
def scenarios(draw):
    # A few kinds per schedule, so that windows of one kind overlap.
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    schedule = FaultSchedule(draw(st.lists(fault_events(kinds),
                                           max_size=8)))
    edges = _edge_times(schedule)
    near = [math.nextafter(t, side) for t in edges
            for side in (-math.inf, math.inf)]
    pool = edges + near + [k * 0.125 for k in range(40)]
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    return (schedule, times, draw(st.sampled_from(["down", "up"])),
            draw(st.booleans()), draw(st.sampled_from([0.0, 0.01])),
            draw(st.integers(0, 2**16)))


def _injector(cls, schedule, direction, byte_corruption, base_delay, seed):
    clock = RecordingClock()
    sink = []
    injector = cls(clock, schedule, rng=np.random.default_rng(seed),
                   direction=direction, base_delay=base_delay,
                   dst=lambda packet: sink.append((clock.now, packet.seq)),
                   byte_corruption=byte_corruption)
    return injector, clock, sink


class TestCursorMatchesScan:
    @given(case=scenarios())
    @settings(max_examples=300, deadline=None)
    def test_sends_match_reference(self, case):
        schedule, times, direction, byte_corruption, base_delay, seed = case
        fast, fast_clock, fast_sink = _injector(
            FaultInjector, schedule, direction, byte_corruption, base_delay,
            seed)
        ref, ref_clock, ref_sink = _injector(
            ScanInjector, schedule, direction, byte_corruption, base_delay,
            seed)
        for seq, t in enumerate(times):
            fast_clock.now = ref_clock.now = t
            fast.send(Packet(flow_id=0, seq=seq))
            ref.send(Packet(flow_id=0, seq=seq))
            # Same draws from the same stream leave the same state.
            assert (fast.rng.bit_generator.state
                    == ref.rng.bit_generator.state)
            assert fast.stats == ref.stats
            assert fast_clock.forwarded == ref_clock.forwarded
            assert fast_sink == ref_sink
            # The cached segment holds the send time, and no edge lies
            # inside it.
            assert fast._lo <= t < fast._hi
            assert not any(fast._lo < e < fast._hi for e in fast._edges)

    def test_calm_segment_skips_the_scans(self, monkeypatch):
        """Inside a calm segment a send makes no window query at all."""
        schedule = FaultSchedule([FaultEvent.burst_loss(1.0, 1.0, 0.5),
                                  FaultEvent.clock_jump(3.0, 0.02)])
        injector, clock, sink = _injector(FaultInjector, schedule, "down",
                                          False, 0.01, 0)
        clock.now = 3.5
        injector.send(Packet(flow_id=0, seq=0))
        assert (injector._lo, injector._hi) == (3.0, math.inf)

        def fail(*_args):
            raise AssertionError("window scan on a calm send")

        monkeypatch.setattr(injector, "_active_rate", fail)
        monkeypatch.setattr(injector, "_clock_extra", fail)
        for seq, t in enumerate((3.6, 10.0, 1e6), start=1):
            clock.now = t
            injector.send(Packet(flow_id=0, seq=seq))
        assert [delay for _, _, delay in clock.forwarded] == [0.01 + 0.02] * 4
        assert injector.stats.forwarded == 4
