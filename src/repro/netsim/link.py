"""Link models: fixed-rate bottlenecks, pure delay lines, and variable links.

Every link is unidirectional.  A link accepts packets via :meth:`send`,
queues them, serialises them at its line rate, applies stochastic loss, and
after a propagation delay hands each packet to ``dst`` — any callable taking
a :class:`~repro.netsim.packet.Packet`.

``VariableLink`` is the reproduction of the paper's micro-evaluation setup
(§7), where Linux ``tc`` re-shapes capacity, RTT and loss every five seconds;
here a :class:`LinkSchedule` applies the same piecewise-constant changes
deterministically inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

Destination = Callable[[Packet], None]


class LinkOutput:
    """The outgoing hop of a link element: ``dst``, ``delay`` seconds on.

    Assigning either rebinds ``_out`` with :meth:`Simulator.hop`, so a
    packet is handed on by one call of the bound hop; without a
    destination ``_out`` raises.
    """

    @property
    def dst(self) -> Optional[Destination]:
        return self._dst

    @dst.setter
    def dst(self, dst: Optional[Destination]) -> None:
        self._dst = dst
        self._bind()

    @property
    def delay(self) -> float:
        return self._delay

    @delay.setter
    def delay(self, delay: float) -> None:
        self._delay = delay
        self._bind()

    def _bind(self) -> None:
        if self._dst is None:
            self._out = _unattached(f"{type(self).__name__} {self.name!r}")
        else:
            self._out = self.sim.hop(self._delay, self._dst)


def _unattached(what: str) -> Destination:
    """Output of an element with no destination: raises when used (and,
    unlike a bound method, holds no reference back to the element)."""
    def fail(packet: Packet) -> None:
        raise RuntimeError(f"{what} has no destination attached")
    return fail


class DelayLine(LinkOutput):
    """Infinite-bandwidth link with fixed propagation delay (ACK paths).

    ``send`` is the bound hop itself, so a packet crossing the line is
    one engine call.
    """

    name = "delayline"

    def __init__(self, sim: Simulator, delay: float, dst: Optional[Destination] = None):
        if delay < 0:
            raise ValueError(f"delay must be non-negative (got {delay})")
        self.sim = sim
        self._delay = delay
        self.dst = dst

    def _bind(self) -> None:
        super()._bind()
        self.send = self._out


class Link(LinkOutput):
    """Rate-limited store-and-forward link with an attached queue discipline.

    Parameters
    ----------
    rate_bps:
        Line rate in bits per second.
    delay:
        One-way propagation delay in seconds, applied after serialisation.
    queue:
        Queue discipline; defaults to an unbounded drop-tail queue.
    loss_rate:
        Independent per-packet stochastic loss probability, applied at
        dequeue (models the cellular medium's non-congestion losses).
    """

    def __init__(self, sim: Simulator, rate_bps: float, delay: float = 0.0,
                 queue: Optional[DropTailQueue] = None,
                 dst: Optional[Destination] = None,
                 loss_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "link"):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive (got {rate_bps})")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) (got {loss_rate})")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self._delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name
        self.dst = dst
        self.loss_rate = float(loss_rate)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._busy = False
        self.delivered = 0
        self.bytes_delivered = 0
        self.stochastic_losses = 0

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and not self._busy:
            self._serve(None)

    def _serve(self, done: Optional[Packet]) -> None:
        """The transmitter's one event: hand ``done`` (the packet whose
        serialisation just ended, None when the link was idle) to the
        medium, then start serialising the next queued packet."""
        if done is not None:
            if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                self.stochastic_losses += 1
            else:
                self.delivered += 1
                self.bytes_delivered += done.size
                self._out(done)
        packet = self.queue.pop(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = packet.size * 8.0 / self.rate_bps
        self.sim.call_later(tx_time, self._serve, packet)


@dataclass
class LinkPhase:
    """One segment of a piecewise-constant link schedule."""

    duration: float
    rate_bps: float
    delay: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")
        if self.rate_bps <= 0:
            raise ValueError("phase rate must be positive")


class LinkSchedule:
    """A repeating sequence of :class:`LinkPhase` entries.

    :meth:`random_walk` builds the paper's §7 "rapidly changing network":
    every ``period`` seconds capacity, RTT and loss are redrawn uniformly
    from the given ranges.
    """

    def __init__(self, phases: Sequence[LinkPhase], repeat: bool = True):
        if not phases:
            raise ValueError("schedule needs at least one phase")
        self.phases: List[LinkPhase] = list(phases)
        self.repeat = repeat

    @classmethod
    def random_walk(cls, duration: float, period: float,
                    rate_range_bps: Sequence[float],
                    delay_range: Sequence[float],
                    loss_range: Sequence[float],
                    rng: np.random.Generator) -> "LinkSchedule":
        lo_r, hi_r = rate_range_bps
        lo_d, hi_d = delay_range
        lo_l, hi_l = loss_range
        phases = []
        t = 0.0
        while t < duration:
            phases.append(LinkPhase(
                duration=min(period, duration - t),
                rate_bps=float(rng.uniform(lo_r, hi_r)),
                delay=float(rng.uniform(lo_d, hi_d)),
                loss_rate=float(rng.uniform(lo_l, hi_l)),
            ))
            t += period
        return cls(phases, repeat=False)

    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)


class VariableLink(Link):
    """A :class:`Link` whose rate/delay/loss follow a :class:`LinkSchedule`.

    Reproduces the micro-evaluation substrate the paper drives with
    ``tc``: a dumbbell bottleneck whose parameters jump every few seconds.
    Changes apply to packets serialised after the change (an in-flight
    serialisation completes at the old rate, as with token-bucket shapers).
    """

    def __init__(self, sim: Simulator, schedule: LinkSchedule,
                 queue: Optional[DropTailQueue] = None,
                 dst: Optional[Destination] = None,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "varlink"):
        first = schedule.phases[0]
        super().__init__(sim, first.rate_bps, first.delay, queue=queue,
                         dst=dst, loss_rate=first.loss_rate, rng=rng, name=name)
        self.schedule = schedule
        self._phase_index = 0
        self.condition_changes = 0
        sim.call_later(first.duration, self._advance_phase)

    def set_conditions(self, rate_bps: float, delay: float, loss_rate: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.loss_rate = float(loss_rate)
        self.condition_changes += 1

    def _advance_phase(self) -> None:
        self._phase_index += 1
        if self._phase_index >= len(self.schedule.phases):
            if not self.schedule.repeat:
                return
            self._phase_index = 0
        phase = self.schedule.phases[self._phase_index]
        self.set_conditions(phase.rate_bps, phase.delay, phase.loss_rate)
        self.sim.call_later(phase.duration, self._advance_phase)

    def current_phase(self) -> LinkPhase:
        return self.schedule.phases[self._phase_index]
