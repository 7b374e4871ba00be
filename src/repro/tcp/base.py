"""Packet-level TCP machinery shared by the NewReno/Cubic/Vegas baselines.

Implements the loss-based congestion-control skeleton the paper compares
against: slow start, congestion avoidance (increment supplied by the
subclass), duplicate-ACK fast retransmit, fast recovery, and an RFC 6298
retransmission timeout with exponential backoff.  Sequence numbers count
packets (one MSS each), as is conventional for simulator TCP models.

Recovery runs in one of two modes:

* **SACK-emulated** (default) — every acknowledgement echoes the sequence
  of the data packet that triggered it, which is exactly the information a
  SACK block carries at packet granularity.  During recovery the sender
  keeps a scoreboard of SACKed sequences and retransmits the remaining
  holes under pipe control, repairing a multi-packet loss burst in roughly
  one round trip — matching the Linux/Windows stacks the paper benchmarks,
  which all negotiate SACK.
* **NewReno partial-ACK** (``sack=False``) — one hole repaired per partial
  acknowledgement (RFC 6582), kept for ablation.

The matching :class:`TcpReceiver` returns one cumulative acknowledgement
per data packet (no delayed ACKs — the paper's OPNET models ACK every
packet) carrying ``ack_seq`` = next expected sequence.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..netsim.engine import Event
from ..netsim.flow import ReceiverProtocol, SenderProtocol
from ..netsim.packet import MTU_BYTES, Packet

INITIAL_WINDOW = 2.0
DUPACK_THRESHOLD = 3


class TcpReceiver(ReceiverProtocol):
    """Cumulative-ACK receiver with out-of-order buffering."""

    def __init__(self, flow_id: int):
        super().__init__(flow_id)
        self.next_expected = 0
        self._out_of_order: Set[int] = set()

    def on_data(self, packet: Packet) -> None:
        if packet.seq >= self.next_expected and packet.seq not in self._out_of_order:
            self._record(packet)
        if packet.seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self._out_of_order:
                self._out_of_order.discard(self.next_expected)
                self.next_expected += 1
        elif packet.seq > self.next_expected:
            self._out_of_order.add(packet.seq)
        self.send_ack(packet.make_ack(self.now, ack_seq=self.next_expected,
                                      pool=self.ack_pool))


class TcpSender(SenderProtocol):
    """Base loss-based TCP sender (full-buffer source).

    Subclasses override:

    * :meth:`ca_increment` — congestion-avoidance growth per new ACK;
    * :meth:`ssthresh_on_loss` — multiplicative-decrease target;
    * optionally :meth:`on_rtt_sample`, :meth:`on_loss_event` for extra
      state (Cubic's epoch, Vegas's baseRTT).
    """

    #: Human-readable variant name, overridden by subclasses.
    name = "tcp"

    def __init__(self, flow_id: int, mss: int = MTU_BYTES,
                 initial_ssthresh: float = 1e9, sack: bool = True,
                 transfer_bytes: Optional[int] = None):
        super().__init__(flow_id)
        self.mss = mss
        self.sack = sack
        if transfer_bytes is not None and transfer_bytes <= 0:
            raise ValueError("transfer_bytes must be positive")
        self.transfer_packets: Optional[int] = None
        if transfer_bytes is not None:
            self.transfer_packets = max(1, -(-transfer_bytes // mss))
        self.completion_time: Optional[float] = None
        self.cwnd: float = INITIAL_WINDOW
        self.ssthresh: float = initial_ssthresh
        self.snd_una = 0          # lowest unacknowledged sequence
        self.snd_nxt = 0          # next sequence to transmit
        self._dupacks = 0
        self._in_fast_recovery = False
        self._recover = 0         # highest seq sent when the loss hit
        self._sacked: Set[int] = set()
        self._rexmit_done: Set[int] = set()
        # Incremental RFC 6675 scoreboard (see _pipe): the highest SACKed
        # sequence (exact whenever max(_sacked) >= snd_una; otherwise
        # some value below snd_una, which bounds the lost-hole range
        # just the same), the count of lost holes, and the next-hole
        # cursor of _sack_retransmit.
        self._sack_hi = -1
        self._lost_holes = 0
        self._hole_cursor = 0
        self._sent_times: Dict[int, float] = {}
        self._retransmitted: Set[int] = set()
        # RFC 6298 state
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        self.min_rto = 0.2
        self._rto_event: Optional[Event] = None
        self._backoff = 1.0
        # statistics
        self.fast_retransmits = 0
        self.timeouts = 0
        self.retransmissions = 0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def ca_increment(self, newly_acked: int) -> None:
        """Congestion-avoidance growth; default is Reno's 1/cwnd per ACK."""
        self.cwnd += newly_acked / max(self.cwnd, 1.0)

    def ssthresh_on_loss(self) -> float:
        """Multiplicative decrease target; default is Reno's half.

        Halves the *usable* window ``min(FlightSize, cwnd)`` rather than
        RFC 5681's plain FlightSize: after a burst loss or blackout the
        stale in-network backlog can dwarf an already-collapsed cwnd,
        and FlightSize/2 would then *raise* the window on a loss event.
        """
        return max(2.0, min(self.flight(), self.cwnd) / 2.0)

    def on_rtt_sample(self, rtt: float) -> None:
        """Extra per-RTT-sample processing for subclasses."""

    def on_loss_event(self) -> None:
        """Called once per loss event (fast retransmit or timeout)."""

    def slow_start_increment(self, newly_acked: int) -> None:
        """Slow-start growth; default doubles per RTT."""
        self.cwnd += newly_acked

    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._fill_window()
        self._arm_rto()

    def stop(self) -> None:
        super().stop()
        if self._rto_event is not None:
            self._rto_event.cancel()

    def flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh and not self._in_fast_recovery

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _data_limit(self) -> float:
        if self.transfer_packets is None:
            return float("inf")
        return self.transfer_packets

    def _fill_window(self) -> None:
        limit = min(self.snd_una + int(self.cwnd), self._data_limit())
        while self.running and self.snd_nxt < limit:
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1
            limit = min(self.snd_una + int(self.cwnd), self._data_limit())

    def _transmit(self, seq: int, retransmission: bool) -> None:
        if retransmission:
            self.retransmissions += 1
            self._retransmitted.add(seq)
        else:
            self._sent_times[seq] = self.now
        packet = Packet(flow_id=self.flow_id, seq=seq, size=self.mss,
                        sent_time=self.now, window_at_send=self.cwnd,
                        retransmission=retransmission)
        self.send(packet)

    # ------------------------------------------------------------------
    # Acknowledgement processing
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        if not packet.is_ack or not self.running:
            return
        ack = packet.ack_seq
        if self.sack and packet.seq >= ack and packet.seq not in self._sacked:
            # The echoed trigger sequence above the cumulative point is the
            # packet-granularity equivalent of a SACK block.
            self._on_sack(packet.seq)
        if ack > self.snd_una:
            self._handle_new_ack(ack, packet)
        elif ack == self.snd_una and self.flight() > 0:
            self._handle_dupack()
        if self._in_fast_recovery and self.sack:
            self._sack_retransmit()
        if not self._in_fast_recovery or self.sack:
            self._fill_window_recovery_aware()
        # An ACK that emptied the flight disarms the timer above, but the
        # window refill just put new segments in the air.  Without a
        # timer those segments have no loss backstop: if the whole burst
        # dies (a blackout, a corruption storm) no ACK ever returns and
        # the sender deadlocks silently.
        if self._rto_event is None and self.flight() > 0:
            self._arm_rto()
        if self.observers:
            self.notify("on_window", time=self.now, window=self.cwnd,
                        ssthresh=self.ssthresh, flight=self.flight())

    def _handle_new_ack(self, ack: int, packet: Packet) -> None:
        newly_acked = ack - self.snd_una
        # RTT sampling (Karn: never from retransmitted segments).
        trigger = ack - 1
        sent = self._sent_times.get(trigger)
        if sent is not None and trigger not in self._retransmitted:
            self._rtt_sample(self.now - sent)
        # Every acknowledged sequence is >= snd_una, so it lies in the
        # lost-hole range exactly when it is below hi - threshold + 1.
        lost_below = self._sack_hi - DUPACK_THRESHOLD + 1
        sacked = self._sacked
        rexmit_done = self._rexmit_done
        for seq in range(self.snd_una, ack):
            self._sent_times.pop(seq, None)
            self._retransmitted.discard(seq)
            if seq in sacked:
                sacked.discard(seq)
                rexmit_done.discard(seq)
            elif seq in rexmit_done:
                rexmit_done.discard(seq)
            elif seq < lost_below:
                self._lost_holes -= 1
        self.snd_una = ack
        self._backoff = 1.0
        self._arm_rto()
        if (self.transfer_packets is not None
                and self.completion_time is None
                and self.snd_una >= self.transfer_packets):
            self.completion_time = self.now
            self.stop()
            return

        if self._in_fast_recovery:
            if ack > self._recover:
                # Full acknowledgement: leave recovery, deflate.
                self._in_fast_recovery = False
                self._dupacks = 0
                self.cwnd = self.ssthresh
                self._clear_scoreboard()
            elif not self.sack:
                # Partial acknowledgement (RFC 6582): retransmit next hole,
                # deflate by the amount acknowledged.
                self._transmit(self.snd_una, retransmission=True)
                self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + 1)
            return

        self._dupacks = 0
        if self.in_slow_start:
            self.slow_start_increment(newly_acked)
        else:
            self.ca_increment(newly_acked)

    def _handle_dupack(self) -> None:
        self._dupacks += 1
        if self._in_fast_recovery:
            if not self.sack:
                self.cwnd += 1.0  # NewReno window inflation per dupack
            return
        if self._dupacks >= DUPACK_THRESHOLD:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self.fast_retransmits += 1
        w_before = self.cwnd
        self.on_loss_event()
        self.ssthresh = self.ssthresh_on_loss()
        if self.observers:
            self.notify("on_loss", time=self.now, w_loss=w_before,
                        w_after=self.ssthresh, kind="fast_retransmit")
        self._recover = self.snd_nxt - 1
        self._in_fast_recovery = True
        self._rexmit_done.clear()
        self._hole_cursor = self.snd_una
        if self.sack:
            self.cwnd = self.ssthresh
            self._sack_retransmit()
        else:
            self.cwnd = self.ssthresh + DUPACK_THRESHOLD
            self._transmit(self.snd_una, retransmission=True)
        self._arm_rto()

    # ------------------------------------------------------------------
    # SACK-emulated recovery (pipe control)
    # ------------------------------------------------------------------
    def _on_sack(self, seq: int) -> None:
        """Scoreboard update for a newly SACKed sequence."""
        una = self.snd_una
        if seq > self._sack_hi:
            # The lost-hole range grows to the new highest SACK: count
            # the sequences it newly covers.
            sacked = self._sacked
            rexmit_done = self._rexmit_done
            start = max(una, self._sack_hi - DUPACK_THRESHOLD + 1)
            self._sack_hi = seq
            for hole in range(start, max(una, seq - DUPACK_THRESHOLD + 1)):
                if hole not in sacked and hole not in rexmit_done:
                    self._lost_holes += 1
        elif (una <= seq < self._sack_hi - DUPACK_THRESHOLD + 1
              and seq not in self._rexmit_done):
            self._lost_holes -= 1
        self._sacked.add(seq)

    def _clear_scoreboard(self) -> None:
        self._sacked.clear()
        self._rexmit_done.clear()
        self._sack_hi = -1
        self._lost_holes = 0

    def _pipe(self) -> int:
        """Packets still in the network during recovery (RFC 6675 style).

        A hole with roughly a dupack-threshold's worth of SACKed packets
        above it is deemed lost and leaves the pipe; holes we have already
        retransmitted are back in the pipe until (S)ACKed.  The lost holes
        are the sequences in ``[snd_una, hi - DUPACK_THRESHOLD + 1)``,
        ``hi`` the highest SACK, that are neither SACKed nor
        retransmitted; ``_lost_holes`` counts them incrementally (on
        SACK, cumulative ACK and retransmission; reset on recovery exit
        and RTO), so each sequence enters and leaves the count O(1)
        times instead of being rescanned on every call.
        """
        if not self._sacked:
            return self.flight()
        return max(0, self.flight() - len(self._sacked) - self._lost_holes)

    def _sack_retransmit(self) -> None:
        """Retransmit known holes up to the congestion window.

        Every sequence in ``[snd_una, _hole_cursor)`` is SACKed or
        already retransmitted in this recovery, so the hole search
        resumes at the cursor instead of at ``snd_una``.
        """
        budget = int(self.cwnd) - self._pipe()
        seq = max(self.snd_una, self._hole_cursor)
        sacked = self._sacked
        rexmit_done = self._rexmit_done
        lost_below = self._sack_hi - DUPACK_THRESHOLD + 1
        while budget > 0 and seq <= self._recover:
            if seq not in sacked and seq not in rexmit_done:
                self._transmit(seq, retransmission=True)
                rexmit_done.add(seq)
                if seq < lost_below:
                    self._lost_holes -= 1
                budget -= 1
            seq += 1
        self._hole_cursor = seq

    def _fill_window_recovery_aware(self) -> None:
        if not self._in_fast_recovery:
            self._fill_window()
            return
        # During SACK recovery, new data is pipe-limited.
        while (self.running and self._pipe() < int(self.cwnd)
               and self.snd_nxt < self._data_limit()):
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1

    # ------------------------------------------------------------------
    # RTT estimation & retransmission timeout (RFC 6298)
    # ------------------------------------------------------------------
    def _rtt_sample(self, rtt: float) -> None:
        if rtt <= 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = max(self.min_rto, self.srtt + 4.0 * self.rttvar)
        self.on_rtt_sample(rtt)

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self.flight() <= 0:
            self._rto_event = None
            return
        self._rto_event = self.sim.schedule(self.rto * self._backoff,
                                            self._on_rto)

    def _on_rto(self) -> None:
        if not self.running or self.flight() <= 0:
            return
        self.timeouts += 1
        w_before = self.cwnd
        self.on_loss_event()
        self.ssthresh = self.ssthresh_on_loss()
        self.cwnd = 1.0
        if self.observers:
            self.notify("on_loss", time=self.now, w_loss=w_before,
                        w_after=self.cwnd, kind="rto")
        self._dupacks = 0
        self._in_fast_recovery = False
        self._clear_scoreboard()
        self._backoff = min(self._backoff * 2.0, 64.0)
        self._transmit(self.snd_una, retransmission=True)
        # Go-back-N: everything past the retransmitted segment is treated
        # as lost and will be resent as the window regrows.  Without the
        # rewind, flight() stays inflated by the lost tail and the sender
        # trickles one segment per RTO forever after a blackout.
        self.snd_nxt = self.snd_una + 1
        self._arm_rto()
