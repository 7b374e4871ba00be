"""Lockstep check of TCP's lazy retransmission timer against the eager one.

:class:`~repro.tcp.base.TcpSender` moves only a deadline on each ACK and
keeps at most one clock timer, which re-arms itself at the deadline when
it fires early.  :class:`EagerRtoSender` below is the timer it replaced:
cancel and reschedule on every ``_arm_rto``.  Hypothesis drives both with
the same random script of sends, deliveries, losses, ACKs, clock
advances (short steps and long stalls, including to exactly the pending
deadline and one ulp before it) and forced timeouts; after every step the
two must agree on every RTO firing time, the timeout count, the window,
and on when the timer is armed.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.flow import SenderProtocol
from repro.netsim.packet import Packet
from repro.tcp.base import TcpReceiver
from repro.tcp.cubic import CubicSender


class _LoggedRto:
    """Logs the clock time of every expiry (fired or forced)."""

    def _on_rto(self):
        self.rto_log.append((self.sim.now, self.running, self.flight()))
        super()._on_rto()


class LazyRtoSender(_LoggedRto, CubicSender):
    def __init__(self, flow_id, **kwargs):
        super().__init__(flow_id, **kwargs)
        self.rto_log = []

    @property
    def armed(self):
        return self._rto_deadline is not None


class EagerRtoSender(_LoggedRto, CubicSender):
    """Reference: one clock event per arming, cancelled on the next."""

    def __init__(self, flow_id, **kwargs):
        super().__init__(flow_id, **kwargs)
        self.rto_log = []
        self._rto_event = None

    @property
    def armed(self):
        return self._rto_event is not None

    def stop(self):
        SenderProtocol.stop(self)
        if self._rto_event is not None:
            self._rto_event.cancel()

    def _arm_rto(self):
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self.flight() <= 0:
            self._rto_event = None
            self._rto_deadline = None   # read by on_ack's refill check
            return
        self._rto_event = self.sim.schedule(self.rto * self._backoff,
                                            self._on_rto)
        self._rto_deadline = self._rto_event.time


class RtoWorld:
    """One sender and receiver on a bare clock.  The script moves every
    data packet and every ACK by hand; the only clock events are the
    sender's retransmission timers."""

    def __init__(self, cls, transfer_bytes):
        self.sim = Simulator()
        self.sender = cls(0, transfer_bytes=transfer_bytes)
        self.receiver = TcpReceiver(0)
        self.data = []
        self.acks = []
        self.sent = []
        self.sender.attach(self.sim, self._tx_data)
        self.receiver.attach(self.sim, self.acks.append)
        self.sender.start()

    def _tx_data(self, packet: Packet) -> None:
        self.sent.append((self.sim.now, packet.seq, packet.retransmission))
        self.data.append(packet)

    def advance(self, until: float) -> None:
        self.sim.run(until=max(until, self.sim.now))

    def apply(self, op, arg, deadline):
        run = 1 + arg % 30
        if op == "deliver_run":
            for _ in range(min(run, len(self.data))):
                self.receiver.on_data(self.data.pop(0))
        elif op == "drop" and self.data:
            self.data.pop(arg % len(self.data))
        elif op == "drop_all":
            self.data.clear()
        elif op == "ack_run":
            for _ in range(min(run, len(self.acks))):
                self.sender.on_ack(self.acks.pop(0))
        elif op == "ack" and self.acks:
            self.sender.on_ack(self.acks.pop(arg % len(self.acks)))
        elif op == "step":
            self.advance(self.sim.now + (1 + arg % 50) * 1e-3)
        elif op == "stall":
            self.advance(self.sim.now + (1 + arg % 60) * 0.5)
        elif op == "to_deadline" and deadline is not None:
            self.advance(deadline)
        elif op == "before_deadline" and deadline is not None:
            self.advance(math.nextafter(deadline, -math.inf))
        elif op == "rto":
            self.sender._on_rto()

    def state(self):
        s = self.sender
        return (s.rto_log, s.timeouts, s.cwnd, s.ssthresh, s.armed,
                s._backoff, s.rto, s.snd_una, s.snd_nxt, s.running,
                self.sent)


_OP_NAMES = (["deliver_run"] * 4 + ["ack_run"] * 4 + ["step"] * 4
             + ["drop", "drop_all", "ack", "stall", "to_deadline",
                "before_deadline", "rto"])
_OPS = st.lists(st.tuples(st.sampled_from(_OP_NAMES), st.integers(0, 1000)),
                min_size=20, max_size=120)


class TestLazyRtoMatchesEager:
    @given(ops=_OPS, transfer=st.sampled_from([None, 30_000, 150_000]))
    @settings(max_examples=200, deadline=None)
    def test_scripts_match_reference(self, ops, transfer):
        lazy = RtoWorld(LazyRtoSender, transfer)
        eager = RtoWorld(EagerRtoSender, transfer)
        for op, arg in ops:
            deadline = (eager.sender._rto_event.time
                        if eager.sender.armed else None)
            lazy.apply(op, arg, deadline)
            eager.apply(op, arg, deadline)
            assert lazy.state() == eager.state()
            sender = lazy.sender
            if not sender.running:
                continue
            # Armed exactly while data is in flight; then one timer is
            # pending, due no later than the eager timer's deadline.
            assert sender.armed == (sender.flight() > 0)
            if sender.armed:
                assert sender._rto_deadline == eager.sender._rto_event.time
                assert sender._rto_timer is not None
                assert sender._rto_timer.active
                assert sender._rto_timer_at <= sender._rto_deadline
            assert lazy.sim.pending() == (1 if sender.armed else 0)

    def test_early_timer_rearms_at_exact_deadline(self):
        """ACKs move the deadline past the pending timer: the timer wakes
        up early, re-arms at the deadline and expires exactly there.  The
        times are picked so that re-arming by a relative delay,
        ``timer + (deadline - timer)``, would fire an ulp late."""
        world = RtoWorld(LazyRtoSender, None)
        sender = world.sender
        for now, min_rto in ((0.05, 0.3), (0.05 + 0.01, 1.3)):
            sender.min_rto = min_rto
            world.advance(now)
            world.apply("deliver_run", 0, None)
            world.apply("ack_run", 0, None)
        timer_at = sender._rto_timer_at
        deadline = sender._rto_deadline
        assert timer_at == 0.05 + 0.3
        assert deadline == 0.05 + 0.01 + 1.3
        assert timer_at + (deadline - timer_at) > deadline
        world.apply("drop_all", 0, None)
        world.advance(timer_at)
        assert sender.timeouts == 0
        assert sender._rto_timer_at == deadline
        world.advance(deadline + 0.01)
        assert [t for t, _, _ in sender.rto_log] == [deadline]
        assert sender.timeouts == 1
