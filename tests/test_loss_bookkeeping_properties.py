"""Differential property tests for the arm-once loss bookkeeping.

Verus arms §5.2 reordering timers from an unarmed frontier (a cursor
plus a set of disarmed, requeued retransmissions) and TCP keeps an
incremental RFC 6675 scoreboard with a next-hole cursor.  Both replace
per-ACK scans.  These tests drive each sender with Hypothesis-generated
interleavings of sends, reordered ACKs, losses, timer expiries and RTOs,
in lockstep with a twin that runs the plain scans embedded below, and
compare the two after every step.  Results must not depend on which
bookkeeping computed them.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VerusSender
from repro.netsim import Packet, Simulator
from repro.netsim.flow import SenderProtocol
from repro.tcp import TcpReceiver, TcpSender
from repro.tcp.base import DUPACK_THRESHOLD


# ---------------------------------------------------------------------------
# Reference scans: the bookkeeping stated as plainly as possible
# ---------------------------------------------------------------------------
class ScanVerusSender(VerusSender):
    """Re-scans ``[next_expected, min(acked, next_expected + 4096))`` on
    every out-of-order ACK and arms whatever is unarmed."""

    def _arm_gap_timers(self, acked_seq: int) -> None:
        if acked_seq <= self._next_expected:
            return
        timeout = self.config.loss_timeout_factor * self.delay_estimator.rtt()
        deadline = self.now + timeout
        upper = min(acked_seq, self._next_expected + 4096)
        for seq in range(self._next_expected, upper):
            record = self._inflight.get(seq)
            if record is not None and record.miss_deadline is None:
                record.miss_deadline = deadline
                heapq.heappush(self._miss_heap, (deadline, seq))


def scan_pipe(sender: TcpSender) -> int:
    """RFC 6675 pipe by scanning ``[snd_una, max SACKed)``."""
    if not sender._sacked:
        return sender.flight()
    hi = max(sender._sacked)
    lost = 0
    for seq in range(sender.snd_una,
                     max(sender.snd_una, hi - DUPACK_THRESHOLD + 1)):
        if seq not in sender._sacked and seq not in sender._rexmit_done:
            lost += 1
    return max(0, sender.flight() - len(sender._sacked) - lost)


class ScanTcpSender(TcpSender):
    """Computes the pipe by scanning and searches holes from snd_una."""

    def _pipe(self) -> int:
        return scan_pipe(self)

    def _sack_retransmit(self) -> None:
        budget = int(self.cwnd) - scan_pipe(self)
        seq = self.snd_una
        while budget > 0 and seq <= self._recover:
            if seq not in self._sacked and seq not in self._rexmit_done:
                self._transmit(seq, retransmission=True)
                self._rexmit_done.add(seq)
                budget -= 1
            seq += 1


# ---------------------------------------------------------------------------
# Verus: unarmed frontier vs the scan
# ---------------------------------------------------------------------------
class VerusWorld:
    """One Verus sender on a bare clock; packets go to a log, ACKs are
    handed in by the test.  No timers run: the test calls the epoch
    work (timer expiry, RTO, paced sends) itself."""

    def __init__(self, cls):
        self.sim = Simulator()
        self.sent = []
        self.sender = cls(0)
        self.sender.attach(self.sim, self._tx)
        SenderProtocol.start(self.sender)

    def _tx(self, packet: Packet) -> None:
        self.sent.append((packet.seq, packet.retransmission))

    def apply(self, op, arg: int) -> None:
        sender = self.sender
        inflight = sorted(sender._inflight)
        if op == "send":
            for _ in range(1 + arg % 40):
                sender._transmit_new()
        elif op == "send_wide":
            # Opens a hole wider than the 4096-sequence arming cap.
            for _ in range(4097 + arg % 300):
                sender._transmit_new()
        elif op == "send_next":
            sender._send_next()
        elif op in ("ack", "ack_top") and inflight:
            seq = inflight[-1 - arg % min(len(inflight), 3)] \
                if op == "ack_top" else inflight[arg % len(inflight)]
            sender.on_ack(Packet(flow_id=0, seq=seq, is_ack=True,
                                 ack_seq=seq, sent_time=self.sim.now))
        elif op == "ack_run" and inflight:
            # An in-order run closes the front of the hole.
            for seq in inflight[:1 + arg % 30]:
                sender.on_ack(Packet(flow_id=0, seq=seq, is_ack=True,
                                     ack_seq=seq, sent_time=self.sim.now))
        elif op == "tick":
            self.sim.run(until=self.sim.now + (1 + arg % 12) * 0.05)
            sender._check_missing()
        elif op == "rto":
            sender._last_progress = self.sim.now - 1e3
            sender._check_rto()

    def state(self):
        sender = self.sender
        return (sorted(sender._miss_heap),
                {seq: record.miss_deadline
                 for seq, record in sender._inflight.items()},
                sorted(sender._pending_rtx), sender.losses_detected,
                sender.timeouts, sender.abandoned, sender.mode,
                sender.window, self.sent)


_VERUS_OP_NAMES = (["send"] * 3 + ["ack"] * 3 + ["ack_top"] * 2
                   + ["ack_run"] * 2 + ["tick"] * 2 + ["send_next"] * 2
                   + ["send_wide", "rto"])
_VERUS_OPS = st.lists(
    st.tuples(st.sampled_from(_VERUS_OP_NAMES), st.integers(0, 10_000)),
    min_size=10, max_size=40,
)


class TestVerusFrontierMatchesScan:
    @given(ops=_VERUS_OPS)
    @settings(max_examples=60, deadline=None)
    def test_interleavings_match_reference(self, ops):
        fast = VerusWorld(VerusSender)
        ref = VerusWorld(ScanVerusSender)
        for op, arg in ops:
            fast.apply(op, arg)
            ref.apply(op, arg)
            # Same timers (the miss-heap multiset and every record's
            # deadline), hence the same losses, retransmissions and sends.
            assert fast.state() == ref.state()
            # _check_rto's oldest outstanding sequence.
            inflight = fast.sender._inflight
            if inflight:
                assert fast.sender._next_expected == min(inflight)
            # Frontier invariant: below the cursor, only requeued
            # retransmissions may be unarmed.
            sender = fast.sender
            for seq, record in inflight.items():
                if seq < sender._arm_from and record.miss_deadline is None:
                    assert seq in sender._disarmed


# ---------------------------------------------------------------------------
# TCP: incremental scoreboard vs the scan
# ---------------------------------------------------------------------------
class TcpWorld:
    """One SACK TCP sender and receiver; the test moves every data packet
    and every ACK, so it controls loss, reordering and duplication.  The
    clock stays at zero and RTOs are fired by hand."""

    def __init__(self, cls):
        self.sim = Simulator()
        self.sender = cls(0)
        self.receiver = TcpReceiver(0)
        self.data = []
        self.acks = []
        self.sent = []
        self.sender.attach(self.sim, self._tx_data)
        self.receiver.attach(self.sim, self.acks.append)
        self.sender.start()

    def _tx_data(self, packet: Packet) -> None:
        self.sent.append((packet.seq, packet.retransmission))
        self.data.append(packet)

    def apply(self, op, arg: int) -> None:
        run = 1 + arg % 40
        if op == "deliver" and self.data:
            self.receiver.on_data(self.data.pop(arg % len(self.data)))
        elif op == "deliver_run":
            for _ in range(min(run, len(self.data))):
                self.receiver.on_data(self.data.pop(0))
        elif op == "hold" and self.data:
            # Reordering: the packet arrives after everything now queued.
            self.data.append(self.data.pop(arg % len(self.data)))
        elif op == "drop" and self.data:
            self.data.pop(arg % len(self.data))
        elif op == "ack" and self.acks:
            self.sender.on_ack(self.acks.pop(arg % len(self.acks)))
        elif op == "ack_run":
            for _ in range(min(run, len(self.acks))):
                self.sender.on_ack(self.acks.pop(0))
        elif op == "ack_dup" and self.acks:
            self.sender.on_ack(self.acks[arg % len(self.acks)])
        elif op == "rto":
            self.sender._on_rto()

    def state(self):
        sender = self.sender
        return (sender.snd_una, sender.snd_nxt, sender.cwnd,
                sender._in_fast_recovery, sorted(sender._sacked),
                sorted(sender._rexmit_done), self.sent)


# In-order delivery and ACK runs are weighted up so that windows grow
# and several holes are open at once; reordering then fills holes the
# scoreboard has already counted as lost.
_TCP_OP_NAMES = (["deliver_run"] * 4 + ["ack_run"] * 4 + ["hold"] * 2
                 + ["deliver", "drop", "ack", "ack_dup", "rto"])
_TCP_OPS = st.lists(
    st.tuples(st.sampled_from(_TCP_OP_NAMES), st.integers(0, 1000)),
    min_size=40, max_size=120,
)


class TestTcpScoreboardMatchesScan:
    @given(ops=_TCP_OPS)
    @settings(max_examples=150, deadline=None)
    def test_interleavings_match_reference(self, ops):
        fast = TcpWorld(TcpSender)
        ref = TcpWorld(ScanTcpSender)
        for op, arg in ops:
            fast.apply(op, arg)
            ref.apply(op, arg)
            # The same retransmitted (and new) sequences in the same order.
            assert fast.state() == ref.state()
            assert fast.sender._pipe() == scan_pipe(fast.sender)
            assert fast.sender._pipe() == ref.sender._pipe()
