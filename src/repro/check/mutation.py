"""Mutation smoke: seeded defects that the oracles must catch.

Each mutant monkeypatches one well-defined piece of the implementation —
disable Verus's eq. 6 loss decrease, break the profile inversion, skip the
eq. 4 set-point floor, leak packets out of the link's delivery accounting,
disable Cubic's multiplicative decrease — runs the protocol's audited
check scenario, and records which oracles (invariant monitors, the golden
trace, the conservation ledger) noticed.  A mutant nobody catches means
the conformance net has a hole, and :func:`run_mutation_smoke` reports it
as a failure.

Patches are applied with try/finally restoration so a crashing mutant can
never leave the live classes defaced for subsequent code.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .golden import compare_golden, default_golden_dir, golden_path, load_golden
from .scenarios import build_scenario, run_audited


@contextmanager
def _patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass(frozen=True)
class Mutant:
    """One seeded defect."""

    name: str
    protocol: str
    description: str
    #: Zero-argument callable returning the active patch context manager.
    apply: Callable = field(compare=False)
    #: Optional self-contained detector for defects the audited check
    #: scenarios cannot see (e.g. cache-coherence bugs off the golden
    #: protocols' paths).  Called as ``probe(apply)``: it computes any
    #: clean-code reference first, enters ``apply()`` itself, and
    #: returns the list of oracle labels that noticed the defect.
    probe: Optional[Callable] = field(default=None, compare=False)


def _no_loss_decrease():
    """Eq. 6 disabled: a loss keeps the window that caused it."""
    from ..core.loss_handler import LossHandler

    def on_loss(self, w_loss):
        if self.in_recovery:
            return self._recovery_window
        self.losses += 1
        self.in_recovery = True
        self._recovery_window = max(self.min_window, w_loss)
        return self._recovery_window

    return _patched(LossHandler, "on_loss", on_loss)


def _broken_inversion():
    """Fig 5 inverse lookup ignores the target and pins at the domain max."""
    from ..interp.inverse import InverseLookup

    def largest_below(self, target):
        return float(self.f.domain[1])

    return _patched(InverseLookup, "largest_below", largest_below)


def _dest_floor_skip():
    """Eq. 4 without its D_min floors: the set-point may sink below the
    propagation floor (and keep sinking)."""
    from ..core.window_estimator import WindowEstimator

    def update_set_point(self, delta_d, d_max, d_min):
        if self.d_est is None:
            raise RuntimeError("set-point not initialised")
        if d_min <= 0:
            raise ValueError("d_min must be positive")
        if d_max / d_min > self.r:
            self.d_est -= self.delta2
            self.last_branch = "ratio"
        elif delta_d > 0:
            self.d_est -= self.delta1
            self.last_branch = "backoff"
        else:
            self.d_est += self.delta2
            self.last_branch = "increase"
        return self.d_est

    return _patched(WindowEstimator, "update_set_point", update_set_point)


def _conservation_leak():
    """The link silently discards every 23rd delivery without counting it
    anywhere — exactly the accounting bug the conservation ledger exists
    to catch."""
    from ..netsim.link import Link

    original = Link._serve
    state = {"n": 0}

    def _serve(self, done):
        if done is not None:
            state["n"] += 1
            if state["n"] % 23 == 0:
                done = None
        original(self, done)

    return _patched(Link, "_serve", _serve)


def _stale_interpolation_cache():
    """Perf defect: profile updates stop invalidating the interpolation
    cache.  The revision-keyed cache in DelayProfiler.interpolate() then
    keeps serving the old curve while fresh (window, delay) samples pile
    into the point set unseen — the window lookup steers on stale data
    until an unrelated key component (the d_min anchor) happens to move."""
    from ..core.delay_profiler import DelayProfiler

    def add_sample(self, window, delay, now=0.0):
        if self.updates_frozen:
            return
        if delay <= 0:
            raise ValueError(f"delay must be positive (got {delay})")
        key = max(0, int(round(window)))
        # Seeded defect: the revision bump is missing here.
        self._touch_counter += 1
        self._touched[key] = self._touch_counter
        self._touched_time[key] = now
        current = self._points.get(key)
        if current is None:
            self._points[key] = delay
        else:
            self._points[key] = (1 - self.ewma) * current + self.ewma * delay
        if len(self._points) > self.max_points:
            self._evict()

    return _patched(DelayProfiler, "add_sample", add_sample)


def _tracelink_wrap_off_by_one():
    """Perf defect: the wraparound branch advances the replay cycle
    counter twice — exactly what happens if two copies of the wraparound
    step each bump ``_cycle``.
    Every loop then skips one full trace period of opportunities, so the
    link goes silent for a period after each seam."""
    from ..netsim.trace_link import TraceLink

    def _opportunity(self):
        self._index += 1
        budget = self.bytes_per_opportunity
        queue = self.queue
        now = self.sim.now
        served_any = False
        while budget > 0:
            head = queue.peek()
            if head is None or head.size > budget:
                break
            packet = queue.pop(now)
            budget -= packet.size
            served_any = True
            if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                self.stochastic_losses += 1
                continue
            self.delivered += 1
            self.bytes_delivered += packet.size
            self._out(packet)
        if not served_any:
            self.wasted_opportunities += 1
        i = self._index
        if i >= self._n:
            if not self.loop:
                return
            self._index = i = 0
            # Seeded defect: the cycle counter is bumped twice at the seam.
            self._cycle += 2
            self._cycle_base = self._origin + self._cycle * self._period
        when = self._cycle_base + self._times_list[i]
        if when < now:
            when = now
        self.sim.call_at(when, self._opportunity)

    return _patched(TraceLink, "_opportunity", _opportunity)


def _stale_likelihood_cache():
    """Perf defect: the Sprout likelihood cache's hit path ignores the
    packet-count key and serves whichever row was inserted last.  The
    first tick (cold cache) is correct, so the bug only appears once a
    row exists — every later observation then updates the belief with
    some other tick's likelihood."""
    from ..sprout import forecast as forecast_mod

    original = forecast_mod.RateBelief.observe

    def observe(self, packets, censored=False):
        if not censored and packets >= 0 and self._lik_cache:
            # Seeded defect: cache hit keyed on "most recent" instead of
            # the packet count.
            stale_key = next(reversed(self._lik_cache))
            return original(self, stale_key, censored=False)
        return original(self, packets, censored=censored)

    return _patched(forecast_mod.RateBelief, "observe", observe)


def _probe_stale_likelihood_cache(apply):
    """Oracle: per-tick budgets on a fixed arrival stream must match the
    clean implementation exactly — any cache-coherence defect in the
    forecaster shows up as a budget divergence."""
    from ..sprout.forecast import SproutForecaster

    counts = [5, 9, 5, 2, 9, 14, 2, 7, 9, 3]

    def budgets():
        forecaster = SproutForecaster(rate_cap_bps=18e6)
        return [forecaster.on_tick(count) for count in counts]

    reference = budgets()
    with apply():
        mutated = budgets()
    if mutated != reference:
        return ["probe:forecast-budget-divergence"]
    return []


def _stale_worker_trace_memo():
    """Perf defect: the worker's trace memo skips the stat-signature
    check, so a memo hit survives mid-sweep corpus mutation — cells keep
    simulating a trace that no longer exists on disk, silently."""
    from ..campaign import spec as campaign_spec

    original = campaign_spec._load_task_trace

    def load(task):
        entry = campaign_spec._TRACE_MEMO.get(
            (task.trace_file, task.trace_sha256))
        if entry is not None:
            # Seeded defect: the file's stat signature is never checked.
            return entry[1].copy()
        return original(task)

    return _patched(campaign_spec, "_load_task_trace", load)


def _probe_stale_trace_memo(apply):
    """Oracle: after the corpus file changes on disk, a load pinned to
    the *old* content hash must refuse (the clean memo re-verifies and
    raises); serving bytes that differ from the on-disk trace means the
    memo handed out stale content."""
    import os
    import tempfile
    from types import SimpleNamespace

    import numpy as np

    from ..campaign import spec as campaign_spec
    from ..traces.corpus import trace_sha256
    from ..traces.formats import read_trace_ms

    def write_trace(path, step):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(t) for t in range(0, 1000, step)) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.trace")
        write_trace(path, 10)
        pin = trace_sha256(read_trace_ms(path, fmt="mahimahi"))
        task = SimpleNamespace(trace_file=path, trace_sha256=pin)
        campaign_spec._TRACE_MEMO.clear()
        try:
            campaign_spec._load_task_trace(task)  # clean load seeds memo
            write_trace(path, 25)                 # corpus mutates mid-sweep
            with apply():
                try:
                    served = campaign_spec._load_task_trace(task)
                except ValueError:
                    return []   # refused like clean code: defect inert
            disk = read_trace_ms(path, fmt="mahimahi").astype(float) / 1000.0
            if served.shape != disk.shape \
                    or not np.array_equal(served, disk):
                return ["probe:memo-served-stale-trace"]
            return []
        finally:
            campaign_spec._TRACE_MEMO.clear()


def _cubic_no_decrease():
    """Cubic's loss response disabled: ssthresh is set to the pre-loss
    window, so a congestion signal no longer reduces the rate."""
    from ..tcp.cubic import CubicSender

    def ssthresh_on_loss(self):
        return self.cwnd

    return _patched(CubicSender, "ssthresh_on_loss", ssthresh_on_loss)


def _frontier_drops_requeued_rtx():
    """Perf defect: the unarmed frontier forgets requeued retransmissions.
    ``_queue_retransmission`` disarms the sequence's reordering timer but
    never records it as disarmed, so gap ACKs never re-arm it: a requeued
    sequence below the cursor waits for its send slot with no timer."""
    from ..core.sender import VerusSender

    original = VerusSender._queue_retransmission

    def _queue_retransmission(self, seq):
        original(self, seq)
        # Seeded defect: the disarmed sequence is dropped from the frontier.
        self._disarmed.discard(seq)

    return _patched(VerusSender, "_queue_retransmission",
                    _queue_retransmission)


def _probe_requeued_rtx(apply):
    """Oracle: a scripted loss episode — a gap ACK arms reordering
    timers, they expire and requeue their sequences, and a second gap ACK
    arrives while the retransmissions still wait for a send slot, then
    the re-armed timers expire.  Timer deadlines and loss counts must
    match the clean implementation exactly."""
    from ..core.sender import VerusSender
    from ..netsim.engine import Simulator
    from ..netsim.flow import SenderProtocol
    from ..netsim.packet import Packet

    def episode():
        sim = Simulator()
        sender = VerusSender(0)
        sender.attach(sim, lambda packet: None)
        # Base start only: the script drives the epoch work itself.
        SenderProtocol.start(sender)
        for _ in range(12):
            sender._transmit_new()

        def ack(seq):
            sender.on_ack(Packet(flow_id=0, seq=seq, is_ack=True,
                                 ack_seq=seq, sent_time=sim.now))

        ack(4)
        sim.run(until=1.0)
        sender._check_missing()
        ack(8)
        deadlines = sorted((seq, record.miss_deadline)
                           for seq, record in sender._inflight.items())
        sim.run(until=10.0)
        sender._check_missing()
        return deadlines, sender.losses_detected

    reference = episode()
    with apply():
        mutated = episode()
    if mutated != reference:
        return ["probe:requeued-rtx-timer-divergence"]
    return []


def _tcp_stale_scoreboard():
    """Perf defect: the SACK scoreboard's lost-hole count is not adjusted
    on a cumulative ACK.  Holes the ACK fills stay counted as lost, so the
    pipe estimate sinks below the truth and recovery over-sends."""
    from ..tcp.base import TcpSender

    original = TcpSender._handle_new_ack

    def _handle_new_ack(self, ack, packet):
        lost = self._lost_holes
        was_in_recovery = self._in_fast_recovery
        original(self, ack, packet)
        if not (was_in_recovery and not self._in_fast_recovery):
            # Seeded defect: the ACK's hole adjustment is discarded (a
            # recovery exit still resets the scoreboard).
            self._lost_holes = lost

    return _patched(TcpSender, "_handle_new_ack", _handle_new_ack)


def _probe_reordered_sack_path(apply):
    """Oracle: one Cubic flow through a lossy link that holds back every
    4th packet past its successors, so cumulative ACKs keep filling holes
    the SACK scoreboard has counted as lost.  Sender and receiver
    counters must match the clean implementation exactly."""
    import numpy as np

    from ..netsim.engine import Simulator
    from ..netsim.impairments import ReorderingLink
    from ..netsim.link import Link
    from ..netsim.queues import DropTailQueue
    from ..netsim.topology import Dumbbell
    from ..tcp.base import TcpReceiver
    from ..tcp.cubic import CubicSender

    def counters():
        sim = Simulator()
        sender, receiver = CubicSender(0), TcpReceiver(0)
        link = Link(sim, rate_bps=8e6,
                    queue=DropTailQueue(capacity_bytes=120_000),
                    loss_rate=0.005, rng=np.random.default_rng(3))
        reorder = ReorderingLink(sim, delay=0.0, every_n=4, hold_time=0.01)
        Dumbbell(sim, link, default_rtt=0.04,
                 down=reorder).add_flow(sender, receiver)
        sim.run(until=3.0)
        return (sender.packets_sent, sender.retransmissions,
                sender.timeouts, receiver.packets_received)

    reference = counters()
    with apply():
        mutated = counters()
    if mutated != reference:
        return ["probe:reordered-sack-divergence"]
    return []


def _tcp_lazy_rto_stale():
    """Perf defect: the lazy retransmission timer's callback leaves the
    fired timer recorded as pending.  Re-arming after a timeout then sees
    a timer due no later than the new deadline and schedules none, so
    the first RTO is also the last: a retransmission lost after it is
    never timed out."""
    from ..tcp.base import TcpSender

    def _rto_timer_fired(self):
        deadline = self._rto_deadline
        if self.sim.now < deadline:
            self._rto_timer = self.sim.schedule_at(deadline,
                                                   self._rto_timer_fired)
            self._rto_timer_at = deadline
            return
        # Seeded defect: self._rto_timer still names the fired timer.
        self._on_rto()

    return _patched(TcpSender, "_rto_timer_fired", _rto_timer_fired)


def _probe_blackout_rto_path(apply):
    """Oracle: one Cubic flow whose link is dark for 3 s, long enough
    for a run of backed-off timeouts, then heals.  Sender and receiver
    counters must match the clean implementation exactly."""
    from ..netsim.engine import Simulator
    from ..netsim.link import Link
    from ..netsim.queues import DropTailQueue
    from ..netsim.topology import Dumbbell
    from ..tcp.base import TcpReceiver
    from ..tcp.cubic import CubicSender

    def counters():
        sim = Simulator()
        sender, receiver = CubicSender(0), TcpReceiver(0)
        link = Link(sim, rate_bps=8e6, queue=DropTailQueue())
        bell = Dumbbell(sim, link, default_rtt=0.04)
        bell.add_flow(sender, receiver)
        sim.call_at(1.0, setattr, link, "dst", lambda packet: None)
        sim.call_at(4.0, setattr, link, "dst", bell.demux)
        sim.run(until=8.0)
        return (sender.packets_sent, sender.retransmissions,
                sender.timeouts, receiver.packets_received)

    reference = counters()
    with apply():
        mutated = counters()
    if mutated != reference:
        return ["probe:blackout-rto-divergence"]
    return []


def _fault_uplink_bypassed():
    """Wiring defect: the dumbbell routes every flow's ACKs straight to
    its sender, past the shared ``up`` stage.  Plain runs have no such
    stage and cannot tell; an uplink fault silently stops acting."""
    from ..netsim.topology import Dumbbell

    def _ack_sink(self, sender):
        # Seeded defect: the up stage is never put on the reverse path.
        return sender.on_ack

    return _patched(Dumbbell, "_ack_sink", _ack_sink)


def _probe_uplink_outage(apply):
    """Oracle: two Cubic flows on a cellular trace through
    :func:`~repro.faults.sim.run_faulted_contention` with an uplink-only
    outage.  The uplink injector's accounting and every flow's counters
    must match the clean implementation exactly."""
    from ..cellular import generate_scenario_trace
    from ..experiments.runner import repeat_flows
    from ..faults.sim import run_faulted_contention
    from ..faults.spec import make_schedule

    trace = generate_scenario_trace("campus_pedestrian", duration=4.0,
                                    technology="lte", seed=3)

    def counters():
        result = run_faulted_contention(
            trace, repeat_flows("cubic", 2),
            make_schedule("uplink_blackout", 4.0), duration=4.0,
            warmup=0.5, seed=3)
        return (result.fault_stats["up"],
                [(s.packets_sent, s.retransmissions, s.timeouts)
                 for s in result.senders],
                [r.packets_received for r in result.receivers])

    reference = counters()
    with apply():
        mutated = counters()
    if mutated != reference:
        return ["probe:uplink-outage-divergence"]
    return []


MUTANTS: List[Mutant] = [
    Mutant(name="verus-no-loss-decrease", protocol="verus",
           description="eq. 6 disabled (loss keeps the window)",
           apply=_no_loss_decrease),
    Mutant(name="verus-broken-inversion", protocol="verus",
           description="profile inverse pinned at the domain maximum",
           apply=_broken_inversion),
    Mutant(name="verus-dest-floor-skip", protocol="verus",
           description="eq. 4 set-point floor removed",
           apply=_dest_floor_skip),
    Mutant(name="link-conservation-leak", protocol="verus",
           description="link drops every 23rd delivery uncounted",
           apply=_conservation_leak),
    Mutant(name="cubic-no-decrease", protocol="cubic",
           description="Cubic multiplicative decrease disabled",
           apply=_cubic_no_decrease),
    Mutant(name="stale-interpolation-cache", protocol="verus",
           description="profile updates stop invalidating the curve cache",
           apply=_stale_interpolation_cache),
    Mutant(name="tracelink-wrap-off-by-one", protocol="verus-trace",
           description="trace replay skips each cycle's first opportunity",
           apply=_tracelink_wrap_off_by_one),
    Mutant(name="stale-likelihood-cache", protocol="sprout",
           description="forecaster cache serves the wrong packet-count row",
           apply=_stale_likelihood_cache,
           probe=_probe_stale_likelihood_cache),
    Mutant(name="stale-worker-trace-memo", protocol="campaign",
           description="trace memo ignores mid-sweep corpus mutation",
           apply=_stale_worker_trace_memo,
           probe=_probe_stale_trace_memo),
    Mutant(name="verus-frontier-drops-requeued-rtx", protocol="verus",
           description="requeued retransmission never re-armed",
           apply=_frontier_drops_requeued_rtx,
           probe=_probe_requeued_rtx),
    Mutant(name="tcp-stale-scoreboard", protocol="cubic",
           description="lost-hole count kept on cumulative ACK",
           apply=_tcp_stale_scoreboard,
           probe=_probe_reordered_sack_path),
    Mutant(name="tcp-lazy-rto-stale", protocol="cubic",
           description="fired RTO timer still taken as pending",
           apply=_tcp_lazy_rto_stale,
           probe=_probe_blackout_rto_path),
    Mutant(name="fault-uplink-bypassed", protocol="faults",
           description="dumbbell routes ACKs past its up stage",
           apply=_fault_uplink_bypassed,
           probe=_probe_uplink_outage),
]


@dataclass
class MutantResult:
    """Which oracles caught one mutant."""

    name: str
    protocol: str
    description: str
    caught_by: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def caught(self) -> bool:
        return bool(self.caught_by)

    def to_dict(self) -> dict:
        return {"name": self.name, "protocol": self.protocol,
                "description": self.description,
                "caught_by": list(self.caught_by), "error": self.error}


def run_mutation_smoke(mutants: List[Mutant] = None,
                       golden_dir=None) -> List[MutantResult]:
    """Run every mutant through its audited scenario; report the catches."""
    if mutants is None:
        mutants = MUTANTS
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    results: List[MutantResult] = []
    for mutant in mutants:
        outcome = MutantResult(name=mutant.name, protocol=mutant.protocol,
                               description=mutant.description)
        if mutant.probe is not None:
            # Self-contained detector: the probe computes its clean-code
            # reference, applies the patch itself, and reports catches.
            try:
                outcome.caught_by.extend(mutant.probe(mutant.apply))
            except Exception as exc:
                outcome.caught_by.append("exception")
                outcome.error = repr(exc)
            results.append(outcome)
            continue
        scenario = build_scenario(mutant.protocol)
        try:
            with mutant.apply():
                run = run_audited(scenario)
        except Exception as exc:   # a crash is a (crude) detection too
            outcome.caught_by.append("exception")
            outcome.error = repr(exc)
            results.append(outcome)
            continue
        for monitor in run.report.monitors_violated():
            outcome.caught_by.append(f"invariant:{monitor}")
        blessed = load_golden(golden_path(golden_dir, mutant.protocol))
        if blessed is not None and compare_golden(blessed, scenario, run.rows):
            outcome.caught_by.append("golden")
        results.append(outcome)
    return results
