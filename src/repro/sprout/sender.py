"""Sprout sender/receiver endpoints.

The receiver owns the rate belief (deliveries are observed where they
happen) and piggybacks the cautious in-flight budget on every
acknowledgement, plus a heartbeat feedback packet each tick so the sender
keeps receiving forecasts when data stalls.  The sender keeps the number
of outstanding packets at or below the forecast budget, pacing each tick's
allowance evenly — the "sendonly" Sprout configuration the paper compares
against.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..netsim.engine import PeriodicTimer
from ..netsim.flow import ReceiverProtocol, SenderProtocol
from ..netsim.packet import ACK_BYTES, MTU_BYTES, Packet
from .forecast import SproutForecaster, TICK_SECONDS


class SproutReceiver(ReceiverProtocol):
    """Counts per-tick arrivals, runs the forecaster, feeds budgets back."""

    def __init__(self, flow_id: int,
                 forecaster: Optional[SproutForecaster] = None):
        super().__init__(flow_id)
        self.forecaster = forecaster if forecaster is not None else SproutForecaster()
        self._tick_arrivals = 0
        self._tick_min_delay: Optional[float] = None
        self._delay_floor: Optional[float] = None
        self._budget = 10.0
        self._timer: Optional[PeriodicTimer] = None
        self._ticks_since_data = 1000
        self._last_tick_saturated = False

    def attach(self, sim, tx) -> None:
        super().attach(sim, tx)
        self._timer = PeriodicTimer(sim, self.forecaster.tick, self._on_tick)
        self._timer.start()

    def detach(self) -> None:
        # The timer holds its callback, a method of this receiver.
        super().detach()
        self._timer = None

    def on_data(self, packet: Packet) -> None:
        self._record(packet)
        self._tick_arrivals += 1
        now = self.sim.now
        delay = now - packet.sent_time
        if delay > 0:
            if self._delay_floor is None or delay < self._delay_floor:
                self._delay_floor = delay
            if self._tick_min_delay is None or delay < self._tick_min_delay:
                self._tick_min_delay = delay
        ack = packet.make_ack(now)
        ack.payload = {"budget": self._budget}
        self._tx(ack)

    def _tick_was_censored(self) -> bool:
        """True when the tick showed no queueing: arrivals only bound the
        link rate from below (the sender, not the link, was the limit)."""
        if self._tick_min_delay is None or self._delay_floor is None:
            return True
        margin = 0.3 * self._delay_floor + 0.005
        return self._tick_min_delay < self._delay_floor + margin

    def _on_tick(self) -> None:
        if self._tick_arrivals > 0:
            censored = self._tick_was_censored()
            self._budget = self.forecaster.on_tick(self._tick_arrivals,
                                                   censored=censored)
            self._ticks_since_data = 0
            self._last_tick_saturated = not censored
        else:
            self._ticks_since_data += 1
            if self._ticks_since_data <= 5 and self._last_tick_saturated:
                # Dead air while the queue was known to hold a backlog:
                # genuine evidence of a degraded channel.
                self._budget = self.forecaster.on_tick(0)
            else:
                # Nothing was waiting; an empty tick says nothing about
                # the link.  Widen uncertainty without observing.
                self.forecaster.belief.evolve()
                self._budget = self.forecaster.cautious_budget()
        if self.observers:
            belief = self.forecaster.belief
            self.notify("on_belief", time=self.now, budget=self._budget,
                        arrivals=self._tick_arrivals,
                        belief_mean=belief.mean(),
                        belief_p05=belief.quantile(0.05),
                        ticks=self.forecaster.ticks_processed)
        self._tick_arrivals = 0
        self._tick_min_delay = None
        # Heartbeat feedback so the sender unfreezes after idle periods.
        heartbeat = Packet(flow_id=self.flow_id, seq=-1, size=ACK_BYTES,
                           sent_time=self.now, is_ack=True, ack_seq=-1,
                           payload={"budget": self._budget})
        self.send_ack(heartbeat)


class SproutSender(SenderProtocol):
    """Keeps in-flight data at or below the receiver's cautious budget."""

    def __init__(self, flow_id: int, packet_bytes: int = MTU_BYTES,
                 tick: float = TICK_SECONDS,
                 rate_cap_bps: Optional[float] = 18e6):
        """``rate_cap_bps`` models the bandwidth ceiling of the Sprout
        implementation the paper ran against ("the Sprout implementation
        bandwidth is capped at 18 Mbps", §7); set ``None`` to lift it."""
        super().__init__(flow_id)
        self.packet_bytes = packet_bytes
        self.tick = tick
        self.rate_cap_bps = rate_cap_bps
        self.budget = 10.0
        self._next_seq = 0
        self._sent_times: Dict[int, float] = {}
        self._timer: Optional[PeriodicTimer] = None
        self.srtt: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._timer = PeriodicTimer(self.sim, self.tick, self._on_tick)
        self._timer.start(fire_now=True)

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.stop()

    def detach(self) -> None:
        # The timer holds its callback, a method of this sender.
        super().detach()
        self._timer = None

    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        if not packet.is_ack or not self.running:
            return
        if packet.payload and "budget" in packet.payload:
            self.budget = float(packet.payload["budget"])
        sent = self._sent_times.pop(packet.ack_seq, None)
        if sent is not None:
            rtt = self.sim.now - sent
            if self.srtt is None:
                self.srtt = rtt
            else:
                self.srtt += 0.125 * (rtt - self.srtt)

    # ------------------------------------------------------------------
    def _inflight(self) -> int:
        """Outstanding packets; entries older than 4 RTTs count as lost
        (Sprout streams — it does not retransmit — so stale entries must
        age out of the in-flight estimate)."""
        if self.srtt is not None:
            horizon = self.now - 4.0 * max(self.srtt, self.tick)
            stale = [seq for seq, t in self._sent_times.items() if t < horizon]
            for seq in stale:
                del self._sent_times[seq]
        return len(self._sent_times)

    def _on_tick(self) -> None:
        if not self.running:
            return
        inflight = self._inflight()
        if self.observers:
            self.notify("on_tick", time=self.now, budget=self.budget,
                        inflight=inflight, srtt=self.srtt)
        allowance = int(round(self.budget)) - inflight
        if allowance <= 0 and inflight < max(2.0, self.budget + 1.0):
            # Probe floor: the channel can only be measured while packets
            # flow, so as long as the flight is not over budget keep one
            # packet per tick moving.
            allowance = 1
        if self.rate_cap_bps is not None:
            per_tick_cap = int(self.rate_cap_bps * self.tick
                               / (8.0 * self.packet_bytes))
            allowance = min(allowance, max(1, per_tick_cap))
        if allowance <= 0:
            return
        spacing = self.tick / allowance
        # One self-rearming pacer event per tick instead of one heap entry
        # per packet of allowance: the k-th emission still fires at
        # base + k * spacing (the same float the per-packet call_later
        # fan-out produced), but the heap holds at most one pacer tuple.
        base = self.now
        self._emit()
        if allowance > 1:
            self.sim.call_at(base + spacing, self._pace,
                             base, spacing, 1, allowance)

    def _pace(self, base: float, spacing: float, k: int,
              allowance: int) -> None:
        if not self.running:
            return
        self._emit()
        k += 1
        if k < allowance:
            self.sim.call_at(base + k * spacing, self._pace,
                             base, spacing, k, allowance)

    def _emit(self) -> None:
        if not self.running:
            return
        seq = self._next_seq
        self._next_seq += 1
        now = self.sim.now
        self._sent_times[seq] = now
        size = self.packet_bytes
        self.packets_sent += 1
        self.bytes_sent += size
        # Positional, in ``Packet.__init__`` order (see ``make_ack``).
        self._tx(Packet(self.flow_id, seq, size, now, False, -1, 0.0,
                        self.budget))
