"""The benchmark's three workloads.

Each workload builds its inputs from a seed (:meth:`Workload.setup`),
then runs one fixed, closed-loop unit of work per call to
:meth:`Workload.rep` and returns a :class:`Rep` with its timings, its
simulated-work ledger and a digest of every simulated statistic.  Every
operation (a leg, a sweep cell, an output check) is counted in a
:class:`Tally`, so a leg that raised, a cell that is not ok, or a
violated check shows up as a failure and is never skipped.

``verus_highrate``
    One Verus flow through ``run_fixed_dumbbell`` (50 ms RTT, 0.5 %
    random loss, DropTail) as two legs on the same case seeds: ``lo`` at
    10 Mbps, ``hi`` at 100 Mbps (the Fig 11a regime).
``cell_tcp``
    Three Cubic flows on synthesized LTE ``campus_pedestrian`` traces
    behind the paper's RED queue (section 6.2), as two legs on the same
    traces: ``plain`` (``run_trace_contention``) and ``faulted``
    (``run_faulted_contention`` under the ``burst_loss`` preset).
``sweep``
    A cache-cold ``run_campaign`` grid (two cell rates x three 3G
    scenarios x {verus, cubic, sprout} x seeds) at ``jobs=2`` into a
    fresh ``ResultStore``, then a warm pass of the same grid against it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from spans import SpanRecorder

#: Sizes of the fixed work.  ``tiny`` exists for the benchmark's own
#: self-tests; measurements use ``full``.
#:
#: Single Verus and Cubic runs are chaotic: one seed's flow ramps to the
#: link rate while the next one's stalls after an early loss, so the cost
#: of one run swings several-fold between seeds.  Each leg is therefore
#: an ensemble of short cases on sub-seeds of ``--seed``: ``verus_highrate``
#: runs cases until a fixed number of packets has been delivered (a
#: closed loop on delivered work), ``cell_tcp`` runs a fixed number of
#: traces that each hold a fixed number of delivery opportunities.  In
#: cases this short the RED queue's average stays below its minimum
#: threshold, so the plain leg drops nothing; the faulted leg's burst
#: window is what drives TCP into SACK recovery.
SCALES = {
    "full": {
        "verus_case_s": {"lo": 2.0, "hi": 1.0}, "verus_warmup": 0.2,
        "verus_budget_pkts": {"lo": 30_000, "hi": 90_000},
        "tcp_cases": 40, "lte_opportunities": 3_000, "tcp_flows": 3,
        "tcp_warmup": 1.0,
        "sweep_seeds": 6, "sweep_duration": 6.0,
    },
    "tiny": {
        "verus_case_s": {"lo": 1.0, "hi": 0.5}, "verus_warmup": 0.2,
        "verus_budget_pkts": {"lo": 1_000, "hi": 1_500},
        "tcp_cases": 2, "lte_opportunities": 1_500, "tcp_flows": 2,
        "tcp_warmup": 0.5,
        "sweep_seeds": 1, "sweep_duration": 1.5,
    },
}

SWEEP_SCENARIOS = ("campus_stationary", "city_driving", "highway_driving")
SWEEP_PROTOCOLS = ("verus", "cubic", "sprout")
#: Control and subject cell rates of the sweep grid (3G mean downlink).
SWEEP_RATES_BPS = {"lo": 2e6, "hi": 8e6}
SWEEP_JOBS = 2

#: Where runs keep their stores and ledgers: ``.perfbench`` at the root
#: of the checkout.
WORK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench")


# ----------------------------------------------------------------------
# Accounting helpers
# ----------------------------------------------------------------------

class Tally:
    """Operations attempted and failed; a failure carries its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every child process has exited and been reaped, so
    its CPU and peak RSS reach ``RUSAGE_CHILDREN``."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("child processes did not exit")
        time.sleep(0.005)


@dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    packets: int = 0
    #: Per-packet CPU of the subject leg over the control leg.
    leg_ratio: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    #: Exact simulated-work counts (the work ledger).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Per-layer figures only the workload itself can compute.
    layer: Dict[str, float] = field(default_factory=dict)


def flow_checks(tally: Tally, leg: str, result) -> None:
    """Per-flow output checks shared by the simulated legs."""
    for snd, rcv, stat in zip(result.senders, result.receivers,
                              result.all_stats()):
        tally.record(rcv.packets_received <= snd.packets_sent,
                     f"{leg} flow {snd.flow_id}: received "
                     f"{rcv.packets_received} > sent {snd.packets_sent}")
        tally.record(stat.packets_received > 0,
                     f"{leg} flow {snd.flow_id}: nothing delivered after "
                     f"warm-up")


def leg_record(result) -> dict:
    """Every simulated statistic of one leg: the JSON summary plus the
    public sender, receiver and engine counters."""
    flows = []
    for snd, rcv in zip(result.senders, result.receivers):
        flows.append({
            "packets_sent": snd.packets_sent,
            "bytes_sent": snd.bytes_sent,
            "retransmissions": getattr(snd, "retransmissions", None),
            "timeouts": getattr(snd, "timeouts", None),
            "abandoned": getattr(snd, "abandoned", None),
            "packets_received": rcv.packets_received,
            "bytes_received": rcv.bytes_received,
        })
    return {
        "summary": result.summary(),
        "flows": flows,
        "events": result.senders[0].sim.events_processed,
        "faults": getattr(result, "fault_stats", None),
    }


def add_leg_counts(counts: Dict[str, int], leg: str, record: dict) -> None:
    """Add one case's exact counts to the leg's totals."""
    flows = record["flows"]
    found = {
        "cases": 1,
        "events": record["events"],
        "packets_sent": sum(f["packets_sent"] for f in flows),
        "packets_received": sum(f["packets_received"] for f in flows),
        "retransmissions": sum(f["retransmissions"] or 0 for f in flows),
        "timeouts": sum(f["timeouts"] or 0 for f in flows),
    }
    if record["faults"] is not None:
        found["burst_losses"] = sum(
            side["burst_losses"] for side in record["faults"].values())
    for name, value in found.items():
        key = f"{leg}.{name}"
        counts[key] = counts.get(key, 0) + value


# ----------------------------------------------------------------------
# Tracing: which public functions and methods become spans
# ----------------------------------------------------------------------

def install_sim_spans(rec: SpanRecorder) -> None:
    """Wrap the simulation layers' public entry points.  Instances of
    the engine, queues, senders and injectors are collected so their
    public counters can be read after the run."""
    from repro import cellular, sprout
    from repro.campaign import spec as campaign_spec
    from repro.core import delay_profiler, sender as core_sender
    from repro.experiments import runner
    from repro.faults import injector, sim as faults_sim
    from repro.interp import inverse, spline
    from repro.netsim import engine, flow, link, queues, trace_link
    from repro.tcp import base as tcp_base

    rec.patch(engine.Simulator, "run", "netsim.run")
    rec.patch(link.Link, "send", "netsim.link.send")
    rec.patch(trace_link.TraceLink, "send", "netsim.link.send")
    rec.patch(queues.DropTailQueue, "push", "netsim.queue.push")
    rec.patch(queues.REDQueue, "push", "netsim.queue.push")
    rec.patch(core_sender.VerusSender, "on_ack", "core.on_ack")
    rec.patch(core_sender.VerusReceiver, "on_data", "core.on_data")
    rec.patch(delay_profiler.DelayProfiler, "add_sample",
              "core.profiler.add_sample")
    rec.patch(delay_profiler.DelayProfiler, "interpolate",
              "core.profiler.interpolate")
    rec.patch(spline.PchipInterpolator, "__init__", "interp.build")
    rec.patch(inverse.InverseLookup, "__init__", "interp.build")
    rec.patch(tcp_base.TcpSender, "on_ack", "tcp.on_ack")
    rec.patch(tcp_base.TcpReceiver, "on_data", "tcp.on_data")
    rec.patch(sprout.SproutForecaster, "on_tick", "sprout.on_tick")
    rec.patch(sprout.SproutSender, "on_ack", "sprout.on_ack")
    rec.patch(sprout.SproutReceiver, "on_data", "sprout.on_data")
    rec.patch(injector.FaultInjector, "send", "faults.injector.send")
    rec.patch(cellular, "generate_scenario_trace", "cellular.generate")
    rec.patch(runner.ExperimentResult, "summary", "experiments.summary")
    rec.patch(runner, "run_fixed_dumbbell", "experiments.run_fixed_dumbbell")
    rec.patch(runner, "run_trace_contention",
              "experiments.run_trace_contention")
    rec.patch(faults_sim, "run_faulted_contention",
              "faults.run_faulted_contention")
    rec.patch(campaign_spec, "run_simulation_task",
              "campaign.run_simulation_task")
    for cls in (engine.Simulator, queues.DropTailQueue,
                flow.SenderProtocol, injector.FaultInjector):
        rec.collect(cls)


def install_store_spans(rec: SpanRecorder) -> None:
    """Wrap the campaign calls the parent process makes during a sweep
    (workers never call these, so forked workers run untraced code)."""
    from repro.campaign import spec as campaign_spec, store

    rec.patch(store.ResultStore, "get", "campaign.store.get")
    rec.patch(store.ResultStore, "put", "campaign.store.put")
    rec.patch(campaign_spec.TaskSpec, "key", "campaign.key")


def collected_counts(rec: SpanRecorder) -> Dict[str, int]:
    """Exact per-layer counts read from the collected instances."""
    from repro.core import VerusSender
    from repro.tcp import TcpSender

    senders = rec.instances.get("SenderProtocol", [])
    queues = rec.instances.get("DropTailQueue", [])
    red = sum(getattr(q, "early_drops", 0) for q in queues)
    return {
        "netsim.events": sum(s.events_processed
                             for s in rec.instances.get("Simulator", [])),
        "netsim.queue.enqueued": sum(q.stats.enqueued for q in queues),
        "netsim.queue.red_drops": red,
        "netsim.queue.tail_drops": sum(q.stats.dropped for q in queues) - red,
        "core.retransmissions": sum(s.retransmissions for s in senders
                                    if isinstance(s, VerusSender)),
        "core.timeouts": sum(s.timeouts for s in senders
                             if isinstance(s, VerusSender)),
        "core.abandoned": sum(s.abandoned for s in senders
                              if isinstance(s, VerusSender)),
        "tcp.retransmissions": sum(s.retransmissions for s in senders
                                   if isinstance(s, TcpSender)),
        "tcp.timeouts": sum(s.timeouts for s in senders
                            if isinstance(s, TcpSender)),
        "faults.burst_losses": sum(
            i.stats.burst_losses
            for i in rec.instances.get("FaultInjector", [])),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    name = ""
    uses_pool = False

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = SCALES[scale]

    def setup(self) -> None:
        """Generate the inputs from the seed."""

    def rep(self, tally: Tally,
            rec: Optional[SpanRecorder] = None) -> Rep:
        raise NotImplementedError

    def replay(self, tally: Tally, rec: Optional[SpanRecorder] = None
               ) -> float:
        """Extra in-process work of the traced run; returns its wall
        seconds."""
        return 0.0

    def final_checks(self, tally: Tally) -> None:
        """Checks made once per run, outside the timed work."""

    def cleanup(self) -> None:
        """Remove whatever the workload left on disk."""


def case_seed(seed: int, case: int) -> int:
    """Sub-seed of one case; both legs of a case share it."""
    return int(np.random.SeedSequence([seed, case]).generate_state(1)[0])


class LegWorkload(Workload):
    """A control and a subject leg, each an ensemble of cases.  The two
    legs' cases are interleaved in step with their progress, so a slow
    drift in machine speed weighs on both legs alike."""

    legs = ("control", "subject")

    def run_case(self, leg: str, case: int):
        raise NotImplementedError

    def progress(self, leg: str, cases: int, packets: int) -> float:
        """Share of the leg's fixed work done; the leg ends at 1."""
        raise NotImplementedError

    def case_checks(self, tally: Tally, leg: str, case: int, result) -> None:
        flow_checks(tally, f"{leg} case {case}", result)

    def rep(self, tally, rec=None):
        out = Rep()
        state = {leg: {"records": [], "cpu": 0.0, "packets": 0, "done": False}
                 for leg in self.legs}

        def progress(leg):
            st = state[leg]
            return 1.0 if st["done"] else self.progress(
                leg, len(st["records"]), st["packets"])

        while True:
            leg = min(self.legs, key=progress)
            if progress(leg) >= 1.0:
                break
            st = state[leg]
            case = len(st["records"])
            if rec is not None:
                install_sim_spans(rec)
            c0, w0 = cpu_seconds(), time.perf_counter()
            try:
                result = self.run_case(leg, case)
            except Exception as exc:  # a case that raised is a failure
                tally.record(False, f"{leg} case {case} raised {exc!r}")
                st["done"] = True
                continue
            finally:
                if rec is not None:
                    rec.restore()
            st["cpu"] += cpu_seconds() - c0
            out.wall_s += time.perf_counter() - w0
            tally.record(True, f"{leg} case {case}")
            record = leg_record(result)
            st["packets"] += sum(f["packets_received"]
                                 for f in record["flows"])
            st["records"].append(record)
            add_leg_counts(out.counts, leg, record)
            self.case_checks(tally, leg, case, result)

        cost = {}
        for leg, st in state.items():
            out.cpu_s += st["cpu"]
            out.packets += st["packets"]
            out.digests[leg] = digest(st["records"])
            cost[leg] = (st["cpu"] / st["packets"] if st["packets"]
                         else float("inf"))
        control, subject = self.legs
        out.leg_ratio = cost[subject] / cost[control]
        return out


class VerusHighRate(LegWorkload):
    name = "verus_highrate"
    legs = ("lo", "hi")
    rates_bps = {"lo": 10e6, "hi": 100e6}
    rtt = 0.05
    loss_rate = 0.005

    def setup(self):
        from repro.experiments import FlowSpec
        self.specs = [FlowSpec("verus", options={"r": 2.0})]
        self.seeds = {}

    def progress(self, leg, cases, packets):
        return packets / self.size["verus_budget_pkts"][leg]

    def run_case(self, leg, case):
        from repro.experiments import runner
        seed = self.seeds.get(case)
        if seed is None:
            seed = self.seeds[case] = case_seed(self.seed, case)
        return runner.run_fixed_dumbbell(
            self.rates_bps[leg], self.specs,
            duration=self.size["verus_case_s"][leg], rtt=self.rtt,
            loss_rate=self.loss_rate, warmup=self.size["verus_warmup"],
            seed=seed)

    def case_checks(self, tally, leg, case, result):
        super().case_checks(tally, leg, case, result)
        delivered_bits = 8 * sum(r.bytes_received for r in result.receivers)
        capacity_bits = (self.rates_bps[leg]
                         * self.size["verus_case_s"][leg])
        tally.record(delivered_bits <= capacity_bits,
                     f"{leg} case {case}: delivered {delivered_bits} bits > "
                     f"capacity {capacity_bits:.0f}")


class CellTcp(LegWorkload):
    name = "cell_tcp"
    legs = ("plain", "faulted")

    def setup(self):
        from repro.cellular import generate_scenario_trace
        from repro.experiments import repeat_flows
        from repro.faults import make_schedule
        # Each case's trace holds a fixed number of delivery
        # opportunities, so the amount of simulated work does not swing
        # with the seed's slow fading; the case lasts as long as its
        # trace does.
        wanted = self.size["lte_opportunities"]
        self.cases = []
        for case in range(self.size["tcp_cases"]):
            seed = case_seed(self.seed, case)
            seconds = wanted / 800.0
            while True:
                trace = generate_scenario_trace(
                    "campus_pedestrian", duration=seconds,
                    technology="lte", seed=seed)
                if len(trace) >= wanted:
                    break
                seconds *= 1.5
            trace = trace[:wanted]
            duration = float(trace[-1])
            self.cases.append((seed, trace, duration,
                               make_schedule("burst_loss", duration)))
        self.specs = repeat_flows("cubic", self.size["tcp_flows"])

    def progress(self, leg, cases, packets):
        return cases / len(self.cases)

    def run_case(self, leg, case):
        seed, trace, duration, schedule = self.cases[case]
        warmup = self.size["tcp_warmup"]
        if leg == "plain":
            from repro.experiments import runner
            return runner.run_trace_contention(
                trace, self.specs, duration=duration, warmup=warmup,
                seed=seed)
        from repro.faults import sim as faults_sim
        return faults_sim.run_faulted_contention(
            trace, self.specs, schedule, duration=duration, warmup=warmup,
            seed=seed)


def p50_p90(samples: List[float]):
    """Median and 90th percentile (the sample itself when alone)."""
    if len(samples) < 2:
        return (samples[0], samples[0]) if samples else (0.0, 0.0)
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _without_timings(summary):
    if summary is None or "timings" not in summary:
        return summary
    return {k: v for k, v in summary.items() if k != "timings"}


def _cell_packets(summary) -> int:
    return sum(f["stats"]["packets_received"] for f in summary["flows"])


class Sweep(Workload):
    name = "sweep"
    uses_pool = True

    def setup(self):
        from repro.campaign import CampaignSpec
        self.tasks = []
        self.rate_of = []
        for rate_name, rate in SWEEP_RATES_BPS.items():
            grid = CampaignSpec(
                scenarios=SWEEP_SCENARIOS, protocols=SWEEP_PROTOCOLS,
                flow_counts=(1,), seeds=self.size["sweep_seeds"],
                duration=self.size["sweep_duration"], cell_rate_bps=rate,
                base_seed=self.seed)
            cells = grid.expand()
            self.tasks.extend(cells)
            self.rate_of.extend([rate_name] * len(cells))
        self.cleanup()
        self.store = self._new_store()
        self.cold_results: Optional[List[dict]] = None

    def _new_store(self):
        from repro.campaign import ResultStore
        os.makedirs(WORK_DIR, exist_ok=True)
        self.store_root = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        return ResultStore(self.store_root)

    def cleanup(self):
        root = getattr(self, "store_root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
            self.store_root = None

    def rep(self, tally, rec=None):
        from repro.campaign import ResultStore, run_campaign

        out = Rep()
        # Every repetition starts from an empty store; the set-up made
        # the first one.
        store = self.store if self.store is not None else self._new_store()
        self.store = None
        if rec is not None:
            install_store_spans(rec)
        try:
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            cold = run_campaign(self.tasks, jobs=SWEEP_JOBS, store=store,
                                collect_timings=rec is not None)
            cold_wall = time.perf_counter() - wall0
            # The workers' CPU counts once they have been reaped.
            reap_children()
            warm0 = time.perf_counter()
            warm = run_campaign(self.tasks, jobs=SWEEP_JOBS,
                                store=ResultStore(self.store_root))
            warm_wall = time.perf_counter() - warm0
        finally:
            if rec is not None:
                rec.restore()
        out.cpu_s = cpu_seconds() - cpu0
        out.wall_s = cold_wall + warm_wall
        self.cleanup()

        cold_results = [o.result if o.ok else None for o in cold.outcomes]
        for task, outcome in zip(self.tasks, cold.outcomes):
            tally.record(outcome.status == "ok",
                         f"cold cell {task.scenario}/{task.protocol}/"
                         f"{task.seed_index}: {outcome.status} "
                         f"{outcome.error or ''}".rstrip())
        for task, outcome in zip(self.tasks, warm.outcomes):
            tally.record(outcome.status == "cached",
                         f"warm cell {task.scenario}/{task.protocol}/"
                         f"{task.seed_index}: {outcome.status}")
        tally.record(
            canonical([o.result for o in warm.outcomes])
            == canonical(cold_results),
            "warm-pass results differ from cold-pass results")
        for summary in cold_results:
            for flow_entry in (summary or {}).get("flows", ()):
                tally.record(flow_entry["stats"]["packets_received"] > 0,
                             "a sweep flow delivered nothing after warm-up")

        ok_cells = [(rate, o) for rate, o in zip(self.rate_of, cold.outcomes)
                    if o.ok]
        out.packets = sum(_cell_packets(o.result) for _, o in ok_cells)
        cost = {}
        for rate_name in SWEEP_RATES_BPS:
            seconds = sum(o.seconds for r, o in ok_cells if r == rate_name)
            packets = sum(_cell_packets(o.result)
                          for r, o in ok_cells if r == rate_name)
            cost[rate_name] = seconds / packets if packets else float("inf")
        out.leg_ratio = cost["hi"] / cost["lo"]
        stripped = [_without_timings(s) for s in cold_results]
        out.digests["cold"] = digest(stripped)
        out.counts = {"sweep.cells_ok": len(ok_cells),
                      "sweep.packets_received": out.packets}
        self.cold_results = stripped

        seconds = [o.seconds for _, o in ok_cells]
        p50, p90 = p50_p90(seconds)
        stats = [cold.stats, warm.stats]
        out.layer = {
            "campaign.cells_per_s": len(cold.outcomes) / cold_wall,
            "campaign.cell_p50_s": p50,
            "campaign.cell_p90_s": p90,
            "campaign.cell_samples": len(seconds),
            "campaign.warm_cells_per_s": len(warm.outcomes) / warm_wall,
            "campaign.executed": sum(s.executed for s in stats),
            "campaign.cached": sum(s.cached for s in stats),
            "campaign.failed": sum(s.failed + s.timeouts for s in stats),
            "campaign.retried": sum(s.retries for s in stats),
            "campaign.busy_frac": sum(seconds) / (cold_wall * SWEEP_JOBS),
        }
        if rec is not None:
            timings = [o.result["timings"] for _, o in ok_cells]
            out.layer.update({
                "campaign.queue_wait_p50_s": statistics.median(
                    [t["queue_wait_s"] for t in timings] or [0.0]),
                "campaign.trace_gen_s": sum(t["trace_gen_s"]
                                            for t in timings),
                "campaign.sim_run_s": sum(t["sim_run_s"] for t in timings),
            })
        return out

    def rerun(self, tally: Tally, indices: List[int],
              rec: Optional[SpanRecorder] = None) -> float:
        """Run cells in this process through ``run_simulation_task`` and
        check each equals its pooled result from the last repetition.
        Returns the wall seconds taken."""
        from repro.campaign import spec as campaign_spec
        if rec is not None:
            install_sim_spans(rec)
        started = time.perf_counter()
        try:
            for index in indices:
                task = self.tasks[index]
                summary = campaign_spec.run_simulation_task(task.to_dict())
                tally.record(
                    self.cold_results is not None
                    and canonical(summary)
                    == canonical(self.cold_results[index]),
                    f"in-process cell {index} ({task.scenario}/"
                    f"{task.protocol}) differs from its jobs={SWEEP_JOBS} "
                    f"result")
        finally:
            if rec is not None:
                rec.restore()
        return time.perf_counter() - started

    def replay(self, tally: Tally, rec: Optional[SpanRecorder] = None
               ) -> float:
        """The traced run's in-process replay: one cell per (rate,
        scenario, protocol)."""
        return self.rerun(tally, [i for i, task in enumerate(self.tasks)
                                  if task.seed_index == 0], rec)

    def final_checks(self, tally):
        """Rerun one cell, chosen by the seed, in-process."""
        self.rerun(tally, [self.seed % len(self.tasks)])


WORKLOADS = {cls.name: cls for cls in (VerusHighRate, CellTcp, Sweep)}
