"""Compile a :class:`~repro.faults.spec.FaultSchedule` onto a clock.

:class:`FaultInjector` is a composable link in the style of
:mod:`repro.netsim.impairments`: it exposes ``send(packet)`` and a
writable ``dst``, and only ever touches the clock through ``now`` and
``schedule`` — the :class:`~repro.netsim.flow.Clock` surface — so the
same instance runs inside the discrete-event
:class:`~repro.netsim.engine.Simulator` and on the live path's
:class:`~repro.live.clock.WallClock` without modification.

Two extra hooks exist only for the live backend, where faults can act on
*real bytes* rather than packet objects:

* :meth:`mangle` corrupts or truncates an encoded datagram (the hardened
  wire format must then reject it — that rejection shows up in the
  :class:`~repro.live.host.LiveHost` ``wire_errors`` counters, never as
  a silent drop);
* :meth:`blocked` answers "is this direction dark right now?", used by
  the emulator's ACK path to enforce one-way blackouts on datagrams it
  forwards verbatim.

In the simulator, corruption compiles to a counted drop: a corrupted
frame would fail its checksum at the receiver's NIC and never reach the
protocol, which is exactly what discarding it models.

Per-packet cost is constant.  The edges of every window and every clock
jump are sorted once, at construction; between two adjacent edges the
set of active windows and the delay cannot change, so :meth:`send`
caches the segment the clock is in (:meth:`_seek`) and, in a calm
segment (no window active), costs one comparison and forwards with one
clock call.  The window scans
(:func:`_in_windows`, :meth:`_active_rate`) remain the definition: the
segment state is computed by them, and :meth:`blocked`/:meth:`mangle`
still use them directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..netsim.packet import Packet
from .spec import FaultSchedule

Destination = Callable[[Packet], None]

#: Spacing between an original packet and its injected duplicate.
_DUPLICATE_LAG = 0.0005


@dataclass
class FaultStats:
    """What one injector did to the traffic that crossed it."""

    forwarded: int = 0
    blackout_drops: int = 0
    burst_losses: int = 0
    corrupted: int = 0
    truncated: int = 0
    duplicated: int = 0
    reorder_delays: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @property
    def dropped(self) -> int:
        return self.blackout_drops + self.burst_losses


def _in_windows(t: float, windows: List[Tuple[float, float]]) -> bool:
    return any(start <= t < end for start, end in windows)


class FaultInjector:
    """Applies a fault schedule to packets crossing one direction.

    Parameters
    ----------
    clock:
        Anything satisfying :class:`~repro.netsim.flow.Clock`.
    schedule:
        The declarative fault schedule to compile.
    rng:
        Random stream for the stochastic faults.  **Required** — every
        injector must be seeded from the scenario/flow seed so two
        injectors in one topology are never accidentally correlated.
    direction:
        ``"down"`` applies the full schedule (data-path pathologies plus
        outages); ``"up"`` applies only the outage/flap windows marked
        for the reverse path.
    base_delay:
        Fixed delay added to every forwarded packet (stands in for the
        plain delay line the injector replaces).
    byte_corruption:
        Live mode: corruption is *not* applied at the packet level;
        :meth:`mangle` applies it to encoded datagrams instead.
    """

    def __init__(self, clock, schedule: FaultSchedule,
                 rng: np.random.Generator, direction: str = "down",
                 base_delay: float = 0.0,
                 dst: Optional[Destination] = None,
                 byte_corruption: bool = False):
        if direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up'")
        if base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if rng is None:
            raise ValueError("an explicitly seeded rng is required")
        self.clock = clock
        self.schedule = schedule
        self.rng = rng
        self.direction = direction
        self.base_delay = base_delay
        self.dst = dst
        self.byte_corruption = byte_corruption
        self.stats = FaultStats()
        # Pre-expanded windows; flaps are folded into the outage list.
        self._outages = schedule.outage_windows(direction)
        if direction == "down":
            self._burst = schedule.windows("burst_loss")
            self._corrupt = schedule.windows("corruption")
            self._duplicate = schedule.windows("duplication")
            self._reorder = [(e.start, e.end, e.jitter) for e in schedule
                             if e.kind == "reorder"]
            self._jumps = schedule.clock_jumps()
        else:
            self._burst = self._corrupt = self._duplicate = []
            self._reorder = []
            self._jumps = []
        edges = {at for at, _ in self._jumps}
        for start, end in (self._outages + self._burst + self._corrupt
                           + self._duplicate):
            edges.update((start, end))
        for start, end, _ in self._reorder:
            edges.update((start, end))
        self._edges = sorted(edges)
        self._seek(0.0)

    # ------------------------------------------------------------------
    # Shared window queries
    # ------------------------------------------------------------------
    def blocked(self, now: Optional[float] = None) -> bool:
        """True while this direction is inside a blackout window."""
        t = self.clock.now if now is None else now
        return _in_windows(t, self._outages)

    def _clock_extra(self, t: float) -> float:
        extra = sum(offset for at, offset in self._jumps if at <= t)
        return max(0.0, extra)

    def _active_rate(self, t: float, kind: str) -> float:
        for event in self.schedule:
            if event.kind == kind and event.start <= t < event.end:
                return event.rate
        return 0.0

    def _seek(self, t: float) -> None:
        """Cache the segment between the two edges around ``t`` and the
        fault state that holds throughout it, computed by the scans."""
        edges = self._edges
        i = bisect_right(edges, t)
        self._lo = edges[i - 1] if i else float("-inf")
        self._hi = edges[i] if i < len(edges) else float("inf")
        self._blackout = _in_windows(t, self._outages)
        self._burst_rate = (self._active_rate(t, "burst_loss")
                            if self._burst else 0.0)
        self._corrupt_rate = (self._active_rate(t, "corruption")
                              if self._corrupt and not self.byte_corruption
                              else 0.0)
        self._jitter = next((jitter for start, end, jitter in self._reorder
                             if start <= t < end), 0.0)
        self._dup_rate = (self._active_rate(t, "duplication")
                          if self._duplicate else 0.0)
        self._delay = self.base_delay + self._clock_extra(t)
        self._calm = not (self._blackout or self._burst_rate
                          or self._corrupt_rate or self._jitter
                          or self._dup_rate)

    # ------------------------------------------------------------------
    # Packet-level path (both backends)
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError("FaultInjector has no destination attached")
        now = self.clock.now
        if not self._lo <= now < self._hi:
            self._seek(now)
        stats = self.stats
        if self._calm:
            # The common case forwards in place: one clock call, or
            # none with no delay.
            stats.forwarded += 1
            delay = self._delay
            if delay <= 0:
                self.dst(packet)
            else:
                self.clock.call_later(delay, self.dst, packet)
            return
        if self._blackout:
            stats.blackout_drops += 1
            return
        rate = self._burst_rate
        if rate and self.rng.random() < rate:
            stats.burst_losses += 1
            return
        rate = self._corrupt_rate
        if rate and self.rng.random() < rate:
            # Simulator compile target: the corrupted frame dies at the
            # receiver's checksum, i.e. a counted drop.
            stats.corrupted += 1
            return
        delay = self._delay
        jitter = self._jitter
        if jitter:
            delay += float(self.rng.uniform(0.0, jitter))
            stats.reorder_delays += 1
        # Read before forwarding: a zero-delay destination may send
        # through this injector again, and on a wall clock that nested
        # send can seek to a later segment.
        rate = self._dup_rate
        stats.forwarded += 1
        self._forward(packet, delay)
        if rate and self.rng.random() < rate:
            stats.duplicated += 1
            self._forward(packet, delay + _DUPLICATE_LAG)

    #: Links hand packets to ``dst(packet)``; behave like one.
    def __call__(self, packet: Packet) -> None:
        self.send(packet)

    def _forward(self, packet: Packet, delay: float) -> None:
        if delay <= 0:
            self.dst(packet)
        else:
            self.clock.call_later(delay, self.dst, packet)

    # ------------------------------------------------------------------
    # Byte-level path (live backend only)
    # ------------------------------------------------------------------
    def mangle(self, data: bytes) -> bytes:
        """Corrupt an encoded datagram if a corruption window is active.

        Half of the corruptions are truncations (a random tail is cut),
        the rest are bit flips.  Either way the hardened wire format
        rejects the datagram deterministically; the receiving host's
        ``truncated``/``corrupted`` counters account for every one.
        """
        now = self.clock.now
        if not self._corrupt or not _in_windows(now, self._corrupt):
            return data
        if self.rng.random() >= self._active_rate(now, "corruption"):
            return data
        if len(data) > 1 and self.rng.random() < 0.5:
            self.stats.truncated += 1
            return data[:int(self.rng.integers(1, len(data)))]
        mutated = bytearray(data)
        for _ in range(int(self.rng.integers(1, 4))):
            position = int(self.rng.integers(0, len(mutated)))
            mutated[position] ^= 1 << int(self.rng.integers(0, 8))
        self.stats.corrupted += 1
        return bytes(mutated)
