"""The Verus sender: slow start, epoch loop, loss recovery (§4–§5).

The sender composes the four protocol elements of §4:

* :class:`~repro.core.delay_estimator.DelayEstimator` (eq. 2–3),
* :class:`~repro.core.delay_profiler.DelayProfiler` (Fig 5/7),
* :class:`~repro.core.window_estimator.WindowEstimator` (eq. 4–5),
* :class:`~repro.core.loss_handler.LossHandler` (eq. 6),

around a three-state machine::

    SLOW_START --(loss | delay > N·D_min)--> NORMAL <--> RECOVERY

In SLOW_START the window grows by one packet per acknowledgement while
(window, delay) tuples seed the delay profile.  In NORMAL an ε-epoch timer
runs eq. 4 → profile inverse lookup → eq. 5 and paces the resulting packet
budget across the epoch.  Loss detection follows §5.2: a gap in the
acknowledgement stream arms a ``3 × delay`` reordering timer per missing
sequence; expiry declares the packet lost, multiplies the window down
(eq. 6) and retransmits.  A TCP-like retransmission timeout backstops the
case where the entire window (including acknowledgements) is lost.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netsim.engine import PeriodicTimer
from ..netsim.flow import ReceiverProtocol, SenderProtocol
from ..netsim.packet import Packet
from .config import VerusConfig
from .delay_estimator import DelayEstimator
from .delay_profiler import DelayProfiler
from .loss_handler import LossHandler
from .window_estimator import WindowEstimator

SLOW_START = "slow_start"
NORMAL = "normal"
RECOVERY = "recovery"


@dataclass(slots=True)
class SentRecord:
    """Sender-side state for one outstanding packet.

    Slotted: one record exists per in-flight packet, created on every
    transmission and touched on every acknowledgement."""

    seq: int
    sent_time: float
    window_at_send: float
    retransmission: bool = False
    miss_deadline: Optional[float] = None
    #: Number of retransmission attempts so far.
    attempts: int = 0


@dataclass
class EpochDiagnostics:
    """One row of the optional per-epoch diagnostic trace."""

    time: float
    window: float
    d_est: float
    d_max: float
    inflight: int
    mode: str


class VerusSender(SenderProtocol):
    """Verus congestion-controlled sender.

    By default the sender is a full-buffer source.  Passing
    ``transfer_bytes`` makes it a finite transfer (the §7 "short flows"
    case): the sender stops once every packet of the transfer has been
    acknowledged (or abandoned) and records ``completion_time``.
    """

    def __init__(self, flow_id: int, config: Optional[VerusConfig] = None,
                 transfer_bytes: Optional[int] = None):
        super().__init__(flow_id)
        self.config = config if config is not None else VerusConfig()
        if transfer_bytes is not None and transfer_bytes <= 0:
            raise ValueError("transfer_bytes must be positive")
        self.transfer_packets: Optional[int] = None
        if transfer_bytes is not None:
            self.transfer_packets = max(
                1, -(-transfer_bytes // self.config.packet_bytes))
        self.completion_time: Optional[float] = None
        cfg = self.config
        self.delay_estimator = DelayEstimator(alpha=cfg.alpha,
                                              min_window=cfg.dmin_window)
        self.profiler = DelayProfiler(ewma=cfg.profile_ewma,
                                      max_points=cfg.profile_max_points,
                                      max_age=cfg.profile_max_age)
        self.window_estimator = WindowEstimator(cfg.r, cfg.delta1,
                                                cfg.delta2, cfg.epoch)
        self.loss_handler = LossHandler(cfg.multiplicative_decrease,
                                        cfg.min_window)
        self.mode = SLOW_START
        self.window: float = 1.0
        self._next_seq = 0
        self._next_expected = 0
        self._inflight: Dict[int, SentRecord] = {}
        self._miss_heap: List[Tuple[float, int]] = []
        # Unarmed frontier (§5.2 arm-once bookkeeping): every in-flight
        # sequence below ``_arm_from`` has been given a reordering timer,
        # except the requeued retransmissions held in ``_disarmed``.
        self._arm_from = 0
        self._disarmed: set = set()
        # Declared-lost sequences waiting for a retransmission slot.
        # Retransmissions consume the regular send budget (they occupy
        # window space, as in TCP) instead of being blasted out at once.
        self._rtx_queue: deque = deque()
        self._pending_rtx: set = set()
        self._send_credit = 0.0
        self._last_progress = 0.0
        self._rto_backoff = 1.0
        self._floor_pin_epochs = 0
        self._epoch_timer: Optional[PeriodicTimer] = None
        self._profile_timer: Optional[PeriodicTimer] = None
        # Statistics / diagnostics
        self.losses_detected = 0
        self.timeouts = 0
        self.retransmissions = 0
        self.abandoned = 0
        self.slow_start_exits: Optional[str] = None
        self.diagnostics: List[EpochDiagnostics] = []
        self.profile_snapshots: List[Tuple[float, Dict[int, float]]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self.mode = SLOW_START
        self._last_progress = self.now
        self._epoch_timer = PeriodicTimer(self.sim, self.config.epoch,
                                          self._on_epoch)
        self._epoch_timer.start()
        if self.config.profile_update_interval is not None:
            self._profile_timer = PeriodicTimer(
                self.sim, self.config.profile_update_interval,
                self._on_profile_update)
            self._profile_timer.start()
        self._transmit_new()

    def stop(self) -> None:
        super().stop()
        if self._epoch_timer is not None:
            self._epoch_timer.stop()
        if self._profile_timer is not None:
            self._profile_timer.stop()

    def detach(self) -> None:
        # A timer holds its callback, a method of this sender.
        super().detach()
        self._epoch_timer = self._profile_timer = None

    # ------------------------------------------------------------------
    # Transmission helpers
    # ------------------------------------------------------------------
    def _transmit_new(self) -> bool:
        """Emit one new packet stamped with the current window.

        Returns False when a finite transfer has no data left to send.
        """
        if (self.transfer_packets is not None
                and self._next_seq >= self.transfer_packets):
            return False
        seq = self._next_seq
        self._next_seq += 1
        now = self.sim.now
        window = self.window
        size = self.config.packet_bytes
        self._inflight[seq] = SentRecord(seq, now, window)
        self.packets_sent += 1
        self.bytes_sent += size
        # Positional, in ``Packet.__init__`` order (see ``make_ack``).
        self._tx(Packet(self.flow_id, seq, size, now, False, -1, 0.0, window))
        return True

    def _retransmit(self, seq: int) -> None:
        record = self._inflight.get(seq)
        if record is None:
            return
        now = self.sim.now
        record.sent_time = now
        record.retransmission = True
        record.window_at_send = self.window
        record.attempts += 1
        self.retransmissions += 1
        self._disarmed.discard(seq)
        # Re-arm the reordering timer so a lost retransmission is detected
        # too; without this, twice-lost packets would linger in the
        # in-flight set forever and freeze eq. 5's W_i term.
        timeout = self.config.loss_timeout_factor * self.delay_estimator.rtt()
        record.miss_deadline = now + timeout
        heapq.heappush(self._miss_heap, (record.miss_deadline, seq))
        size = self.config.packet_bytes
        self.packets_sent += 1
        self.bytes_sent += size
        self._tx(Packet(self.flow_id, seq, size, now, False, -1, 0.0,
                        self.window, True))

    def _effective_inflight(self) -> int:
        """Packets believed to be in the network: outstanding records minus
        those declared lost and still waiting for a retransmission slot."""
        return len(self._inflight) - len(self._pending_rtx)

    def _send_next(self) -> bool:
        """Send one packet: queued retransmissions first, then new data.

        Returns False when there was nothing to send.
        """
        while self._rtx_queue:
            seq = self._rtx_queue.popleft()
            self._pending_rtx.discard(seq)
            if seq in self._inflight:
                self._retransmit(seq)
                return True
        return self._transmit_new()

    def _fill_window(self) -> None:
        """ACK-clocked sending used in slow start and recovery."""
        inflight, pending = self._inflight, self._pending_rtx
        # _effective_inflight(), inline.
        while self.running and len(inflight) - len(pending) < int(self.window):
            if not self._send_next():
                break

    # ------------------------------------------------------------------
    # Acknowledgement path
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        if not packet.is_ack or not self.running:
            return
        # An aggregated acknowledgement (ACK-compressing receiver) carries
        # the batch of acknowledged sequences in its payload; a plain
        # per-packet ACK acknowledges just ``ack_seq``.
        batch = None
        if packet.payload is not None:
            batch = packet.payload.get("acked")
        if batch is None:
            self._handle_ack_seq(int(packet.ack_seq))
        else:
            for seq in batch:
                self._handle_ack_seq(int(seq))

    def _handle_ack_seq(self, seq: int) -> None:
        record = self._inflight.pop(seq, None)
        if record is None:
            return  # duplicate or stale acknowledgement
        self._pending_rtx.discard(seq)
        self._disarmed.discard(seq)
        now = self.sim.now
        self._last_progress = now
        self._rto_backoff = 1.0
        if self.transfer_packets is not None:
            self._check_transfer_complete()

        delay = now - record.sent_time
        if delay > 0:
            # Delay estimator takes retransmission samples too (without
            # them a heavy loss episode freezes D_max/srtt and deadlocks
            # eq. 4) — but a retransmission's ACK is ambiguous (Karn): it
            # may acknowledge the original copy, yielding an impossibly
            # small delay that would poison the windowed D_min.  Samples
            # faster than the fastest genuine round trip ever seen are
            # therefore discarded.
            plausible = True
            if record.retransmission:
                floor = self.delay_estimator.lifetime_min
                plausible = floor is None or delay >= 0.999 * floor
            if plausible:
                self.delay_estimator.add_sample(delay, now=now)
            if not record.retransmission:
                # The profile only learns from first transmissions, whose
                # (window, delay) pairing is unambiguous.
                self.profiler.add_sample(record.window_at_send, delay,
                                         now=now)

        # _advance_expected(), inline on the per-ACK path.
        expected = self._next_expected
        inflight = self._inflight
        while expected < self._next_seq and expected not in inflight:
            expected += 1
        self._next_expected = expected
        self._arm_gap_timers(seq)

        if self.mode == SLOW_START:
            self._slow_start_ack(record, delay)
        elif self.mode == RECOVERY:
            self._recovery_ack(record)
        # NORMAL mode sending is epoch-driven, nothing else to do here.

    def _advance_expected(self) -> None:
        while (self._next_expected < self._next_seq
               and self._next_expected not in self._inflight):
            self._next_expected += 1

    def _arm_gap_timers(self, acked_seq: int) -> None:
        """§5.2: every missing sequence gets a 3×delay reordering timer.

        A gap ACK covers the missing sequences ``[next_expected, upper)``
        with ``upper = min(acked_seq, next_expected + 4096)``.  Each
        sequence is armed once: only the part of that range at or above
        the ``_arm_from`` cursor is new, and below it the only unarmed
        sequences are the requeued retransmissions in ``_disarmed``.  A
        requeued sequence still waiting for a send slot is therefore
        re-armed by the next gap ACK that covers it; if that timer
        expires before the retransmission goes out, it fires and counts
        in ``losses_detected`` again.  That double count is pinned by a
        test: removing it would change results.
        """
        start = self._next_expected
        if acked_seq <= start:
            return
        timeout = self.config.loss_timeout_factor * self.delay_estimator.rtt()
        deadline = self.sim.now + timeout
        upper = min(acked_seq, start + 4096)
        inflight = self._inflight
        heap = self._miss_heap
        disarmed = self._disarmed
        if disarmed:
            rearm = [seq for seq in disarmed if seq < upper]
            for seq in rearm:
                inflight[seq].miss_deadline = deadline
                heapq.heappush(heap, (deadline, seq))
            disarmed.difference_update(rearm)
        if self._arm_from > start:
            start = self._arm_from
        for seq in range(start, upper):
            record = inflight.get(seq)
            if record is not None and record.miss_deadline is None:
                record.miss_deadline = deadline
                heapq.heappush(heap, (deadline, seq))
        if upper > self._arm_from:
            self._arm_from = upper

    def _compact_miss_heap(self) -> None:
        """Drop stale miss-heap entries (acknowledged or re-armed seqs).

        Entries are lazily deleted — every re-arm pushes a fresh (deadline,
        seq) pair and the old one becomes a corpse that ``_check_missing``
        would skip on pop.  Under heavy reordering the corpses can dwarf
        the live set, so the epoch sweep rebuilds the heap from the live
        entries once they are outnumbered 4:1.
        """
        inflight = self._inflight
        live = [entry for entry in self._miss_heap
                if (record := inflight.get(entry[1])) is not None
                and record.miss_deadline == entry[0]]
        heapq.heapify(live)
        self._miss_heap = live

    def _check_missing(self) -> None:
        """Fire expired reordering timers (called from the epoch tick)."""
        heap = self._miss_heap
        if len(heap) > 64 and len(heap) > 4 * len(self._inflight):
            self._compact_miss_heap()
        while self._miss_heap and self._miss_heap[0][0] <= self.now:
            deadline, seq = heapq.heappop(self._miss_heap)
            record = self._inflight.get(seq)
            if record is None or record.miss_deadline != deadline:
                continue  # acknowledged meanwhile, or timer re-armed
            if record.attempts >= self.config.max_retransmits:
                # Give up on this sequence: remove it from the in-flight
                # set so the window arithmetic reflects reality.  The loss
                # episode already collapsed the window when first detected.
                del self._inflight[seq]
                self._pending_rtx.discard(seq)
                self._disarmed.discard(seq)
                self.abandoned += 1
                self._advance_expected()
                self._check_transfer_complete()
                continue
            self._declare_loss(record)

    def _queue_retransmission(self, seq: int) -> None:
        """Queue ``seq`` for a send slot and disarm its reordering timer.

        The disarmed sequence joins ``_disarmed``, so the next gap ACK
        covering it re-arms it while it waits (see
        :meth:`_arm_gap_timers`); the retransmission itself arms a fresh
        timer.
        """
        if seq not in self._pending_rtx and seq in self._inflight:
            self._pending_rtx.add(seq)
            self._rtx_queue.append(seq)
            self._inflight[seq].miss_deadline = None
            self._disarmed.add(seq)

    def _declare_loss(self, record: SentRecord) -> None:
        self.losses_detected += 1
        if self.mode == SLOW_START:
            self._exit_slow_start("loss")
        if not self.loss_handler.in_recovery:
            w_loss = record.window_at_send
            self.window = self.loss_handler.on_loss(w_loss)
            self.mode = RECOVERY
            self.profiler.freeze_updates()
            if self.observers:
                self.notify("on_loss", time=self.now, w_loss=w_loss,
                            w_after=self.window, kind="gap")
        self._queue_retransmission(record.seq)

    # ------------------------------------------------------------------
    # Slow start
    # ------------------------------------------------------------------
    def _slow_start_ack(self, record: SentRecord, delay: float) -> None:
        est = self.delay_estimator
        # §5.1 exit condition 1: "encountering a packet loss: this can be
        # deduced from acknowledgement sequence numbers" — a gap in the
        # acknowledged sequence ends slow start immediately, well before
        # the 3×delay reordering timer confirms the loss.  A gap of a
        # couple of positions is tolerated (mild reordering, e.g. path
        # jitter, must not abort slow start spuriously).
        if record.seq > self._next_expected + 2:
            self._exit_slow_start("loss")
            w_loss = self.window
            self.window = self.loss_handler.on_loss(w_loss)
            self.mode = RECOVERY
            self.profiler.freeze_updates()
            if self.observers:
                self.notify("on_loss", time=self.now, w_loss=w_loss,
                            w_after=self.window, kind="slow_start_gap")
            return
        self.window += 1.0
        if (est.d_min is not None and delay > 0
                and delay > self.config.ss_exit_ratio * est.d_min
                and est.samples_seen >= 4):
            self._exit_slow_start("delay")
        else:
            self._fill_window()

    def _exit_slow_start(self, reason: str) -> None:
        """Hand over from slow start to the epoch-driven controller."""
        if self.mode != SLOW_START:
            return
        self.slow_start_exits = reason
        est = self.delay_estimator
        # Close the running epoch so D_max reflects slow-start samples.
        est.end_epoch()
        d_min = est.d_min if est.d_min is not None else 0.05
        built = self.profiler.interpolate(d_min)
        if not built:
            # Pathological exit before two distinct windows were observed;
            # seed a flat two-point profile so lookups are defined.
            self.profiler.add_sample(1, d_min * 1.01)
            self.profiler.add_sample(2, d_min * 1.02)
            self.profiler.interpolate(d_min)
        d_max = est.d_max if est.d_max is not None else d_min
        d_est0 = max(d_min, min(d_max, self.config.r * d_min))
        self.window_estimator.initialise(d_est0)
        self.mode = NORMAL

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recovery_ack(self, record: SentRecord) -> None:
        self.window = self.loss_handler.on_ack_in_recovery(record.window_at_send)
        if not self.loss_handler.in_recovery:
            self.profiler.unfreeze_updates()
            self.mode = NORMAL
        else:
            self._fill_window()

    # ------------------------------------------------------------------
    # Epoch loop
    # ------------------------------------------------------------------
    def _on_epoch(self) -> None:
        if not self.running:
            return
        self._check_missing()
        self._check_rto()
        if self.mode == NORMAL:
            self._normal_epoch()
        elif self.mode == RECOVERY:
            # Delay samples keep aggregating so D_max stays current, but
            # eq. 4/5 are suspended while the loss episode drains.
            self.delay_estimator.end_epoch()
            self._fill_window()
        if self.config.record_diagnostics:
            est = self.window_estimator
            self.diagnostics.append(EpochDiagnostics(
                time=self.now, window=self.window,
                d_est=est.d_est if est.d_est is not None else 0.0,
                d_max=self.delay_estimator.d_max or 0.0,
                inflight=len(self._inflight), mode=self.mode))
        if self.observers:
            est = self.window_estimator
            self.notify("on_epoch", time=self.now, window=self.window,
                        d_est=est.d_est, mode=self.mode,
                        inflight=len(self._inflight),
                        pending_rtx=len(self._pending_rtx))

    def _normal_epoch(self) -> None:
        cfg = self.config
        est = self.delay_estimator
        delta_d = est.end_epoch()
        if not est.have_estimate or not self.profiler.ready:
            return
        d_min_used = est.d_min
        d_est = self.window_estimator.update_set_point(
            delta_d, est.d_max, d_min_used)
        # Keep the set-point tethered to reality: a target far above every
        # observed delay carries no information (it can arise when delay
        # is dominated by jitter unrelated to the window) and would let
        # D_est run away.  The cap never binds when queueing drives delay,
        # because D_max then tracks D_est within an RTT.
        ceiling = max(cfg.r * est.d_min, 3.0 * est.d_max)
        if d_est > ceiling:
            d_est = ceiling
            self.window_estimator.d_est = ceiling
        # Probing beyond the explored profile is exploration of *spare*
        # capacity: permit it only while delay is not rising AND sits near
        # its floor (an empty queue).  A flow whose delay already carries
        # queueing has no spare capacity to probe for — un-gated probing
        # would let the most delay-tolerant flow in a shared queue starve
        # its peers.
        near_floor = est.d_max < 1.3 * est.d_min
        w_next = self.profiler.window_for_delay(
            d_est, allow_probe=(delta_d <= 0 and near_floor))
        w_next = min(max(w_next, cfg.min_window), cfg.max_window)
        # Starvation escape: a flow held at its minimum window by the
        # ratio branch for seconds is chasing a floor the path can no
        # longer deliver (e.g. competing flows hold a standing queue).
        # Re-measure the floor from current reality so the eq. 4 ratio
        # test re-engages; without this the pinned state is absorbing.
        if (cfg.floor_rebase_after is not None
                and cfg.dmin_window is not None
                and self.window_estimator.last_branch == "ratio"
                and w_next <= cfg.min_window + 1.0):
            self._floor_pin_epochs += 1
            if self._floor_pin_epochs * cfg.epoch >= cfg.floor_rebase_after:
                # Bound the re-based floor: several Verus flows re-basing
                # against each other's queues would otherwise ratchet the
                # collective delay up geometrically (each re-base grants
                # R× the ambient delay as new tolerance).
                lifetime = est.lifetime_min or est.d_max
                cap = max(5.0 * lifetime, lifetime + 0.1)
                est.rebase_floor(min(est.d_max, cap), now=self.now)
                self._floor_pin_epochs = 0
        else:
            self._floor_pin_epochs = 0
        budget = self.window_estimator.send_budget(
            w_next, self._effective_inflight(), est.rtt())
        self.window = w_next
        if self.observers:
            # d_min is the value eq. 4 actually used this epoch (a floor
            # re-base above may already have moved the live estimate).
            self.notify("on_setpoint", time=self.now,
                        d_est=self.window_estimator.d_est,
                        d_min=d_min_used, d_max=est.d_max, window=w_next,
                        delta_d=delta_d)
        self._send_credit += budget
        count = int(self._send_credit)
        self._send_credit -= count
        if count == 0 and (self._rtx_queue
                           or self._effective_inflight() < cfg.min_window):
            # Keep the pipe minimally alive: queued retransmissions must
            # drain even when eq. 5 yields no budget, and an empty pipe
            # sends one probe so acknowledgements (and therefore delay
            # feedback) keep flowing.
            count = 1
        if count <= 0:
            return
        # Pace the epoch's budget evenly across the epoch.
        spacing = cfg.epoch / count
        for k in range(count):
            if k == 0:
                self._paced_send()
            else:
                self.sim.call_later(k * spacing, self._paced_send)

    def _paced_send(self) -> None:
        if self.running and self.mode != RECOVERY:
            self._send_next()

    # ------------------------------------------------------------------
    # Retransmission timeout (backstop)
    # ------------------------------------------------------------------
    def _rto(self) -> float:
        rtt = self.delay_estimator.rtt()
        return max(self.config.min_rto, 3.0 * rtt) * self._rto_backoff

    def _check_rto(self) -> None:
        if not self._inflight:
            # Idle with an empty pipe (e.g. window collapsed to zero sends):
            # restart the ACK clock with one probe packet.
            if self.mode != NORMAL:
                self._fill_window()
            return
        if self.now - self._last_progress < self._rto():
            return
        self.timeouts += 1
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._last_progress = self.now
        # Collapse and probe, TCP-style.  The oldest outstanding
        # sequence is ``_next_expected``: it only ever advances past
        # sequences that have left the in-flight set.
        oldest = self._next_expected
        w_loss = self.window
        if not self.loss_handler.in_recovery:
            self.window = self.loss_handler.on_loss(w_loss)
            self.profiler.freeze_updates()
            if self.observers:
                self.notify("on_loss", time=self.now, w_loss=w_loss,
                            w_after=self.window, kind="rto")
        if self.mode == SLOW_START:
            self._exit_slow_start("loss")
        self.mode = RECOVERY
        self._queue_retransmission(oldest)
        self._send_next()

    # ------------------------------------------------------------------
    # Housekeeping timers
    # ------------------------------------------------------------------
    def _on_profile_update(self) -> None:
        if not self.running or self.mode == SLOW_START:
            return
        d_min = self.delay_estimator.d_min
        if self.profiler.interpolate(d_min, now=self.now):
            if self.config.record_diagnostics:
                self.profile_snapshots.append(
                    (self.now, self.profiler.snapshot()))
            if self.observers:
                self.notify("on_profile_refit", time=self.now,
                            points=len(self.profiler),
                            interpolations=self.profiler.interpolations)

    def _check_transfer_complete(self) -> None:
        if (self.transfer_packets is None or self.completion_time is not None
                or not self.running):
            return
        if (self._next_seq >= self.transfer_packets and not self._inflight):
            self.completion_time = self.now
            self.stop()

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return len(self._inflight)


class VerusReceiver(ReceiverProtocol):
    """Verus receiver.

    Default behaviour matches the paper: one acknowledgement per data
    packet, echoing the window metadata the sender needs for its delay
    profile (§5.1).  ``ack_every > 1`` enables ACK aggregation — common
    on cellular uplinks, where the reverse direction compresses ACK
    streams: up to ``ack_every`` sequences are batched into a single
    acknowledgement, flushed early after ``ack_delay`` seconds so the
    last packets of a burst are not held hostage.  The ablation bench
    measures what this costs Verus's feedback loop.
    """

    def __init__(self, flow_id: int, ack_every: int = 1,
                 ack_delay: float = 0.004):
        super().__init__(flow_id)
        if ack_every < 1:
            raise ValueError("ack_every must be at least 1")
        if ack_delay <= 0:
            raise ValueError("ack_delay must be positive")
        self.ack_every = ack_every
        self.ack_delay = ack_delay
        self._pending: List[int] = []
        self._carrier: Optional[Packet] = None
        self._flush_event = None

    def on_data(self, packet: Packet) -> None:
        self._record(packet)
        if self.ack_every == 1:
            self._tx(packet.make_ack(self.sim.now))
            return
        self._pending.append(packet.seq)
        self._carrier = packet
        if len(self._pending) >= self.ack_every:
            self._flush()
        elif self._flush_event is None or not self._flush_event.active:
            self._flush_event = self.sim.schedule(self.ack_delay,
                                                  self._flush)

    def _flush(self) -> None:
        if not self._pending or self._carrier is None:
            return
        ack = self._carrier.make_ack(self.now)
        ack.payload = {"acked": list(self._pending)}
        self._pending.clear()
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self.send_ack(ack)
