"""Compile a fault schedule into the discrete-event simulator.

:func:`run_faulted_contention` is the fault-injected sibling of
:func:`repro.experiments.runner.run_trace_contention`: the same §6.2
trace-behind-RED dumbbell, but with a downlink
:class:`~repro.faults.injector.FaultInjector` between the bottleneck and
the data demux and an uplink injector on the shared acknowledgement
path.  The injectors replace the access-delay lines they sit on (their
``base_delay`` carries the propagation delay), so under the empty
schedule every packet takes the same path at the same times as in the
plain runner.

Seeding: one :class:`numpy.random.SeedSequence` spawns independent
streams for the RED queue, the trace link, and the two injectors, so no
pair of stochastic components shares a stream (the correlated-jitter bug
fixed in :mod:`repro.netsim.impairments` is structurally impossible
here).  The plain runner instead shares one stream between RED and the
trace link.  A run under the empty schedule is therefore identical to
the plain runner, byte for byte, only when neither draws: with
``use_red=False`` and ``loss_rate=0``.  With RED on, its early drops
come from different streams and the per-flow split differs: 3 Cubic
flows for 60 s on a 3G ``campus_pedestrian`` trace, seed 5, get
1.92/0.50/1.41 Mbps here and 2.77/0.70/0.68 Mbps on the plain runner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..experiments.runner import (
    ExperimentResult,
    FlowSpec,
    close_run,
    make_endpoints,
)
from ..netsim import REDQueue, Simulator, TraceLink
from ..netsim.flow import Demux
from ..netsim.link import DelayLine
from .injector import FaultInjector
from .spec import FaultSchedule


def run_faulted_contention(trace: np.ndarray, specs: Sequence[FlowSpec],
                           schedule: FaultSchedule, duration: float,
                           rtt: float = 0.01, access_delay: float = 0.005,
                           use_red: bool = True, loss_rate: float = 0.0,
                           warmup: float = 5.0,
                           seed: int = 0) -> ExperimentResult:
    """Run the §6.2 contention setup with a fault schedule applied.

    The returned :class:`ExperimentResult` carries the two injectors'
    accounting as ``result.fault_stats`` (``{"down": ..., "up": ...}``)
    and is flagged ``degraded`` when the downlink never carried a packet
    after the final blackout — the sim-side analogue of a live peer that
    died and had to be torn down.
    """
    sim = Simulator()
    seeds = np.random.SeedSequence(seed).spawn(4)
    queue_rng, link_rng, down_rng, up_rng = (
        np.random.default_rng(s) for s in seeds)

    queue = REDQueue.paper_config(rng=queue_rng) if use_red else None
    bottleneck = TraceLink(sim, trace, queue=queue, delay=access_delay,
                           loop=True, loss_rate=loss_rate, rng=link_rng)

    # Downlink: sender → rtt/2 → bottleneck → injector → data demux.
    data_demux = Demux()
    down = FaultInjector(sim, schedule, rng=down_rng, direction="down",
                         dst=data_demux)
    bottleneck.dst = down

    # Uplink: receiver → rtt/2 → injector → ack demux → sender.on_ack.
    ack_demux = Demux()
    up = FaultInjector(sim, schedule, rng=up_rng, direction="up",
                       dst=ack_demux)

    senders, receivers = [], []
    for flow_id, spec in enumerate(specs):
        sender, receiver = make_endpoints(spec, flow_id)
        flow_rtt = rtt if spec.rtt is None else spec.rtt
        forward = DelayLine(sim, flow_rtt / 2.0, dst=bottleneck.send)
        reverse = DelayLine(sim, flow_rtt / 2.0, dst=up.send)
        sender.attach(sim, forward.send)
        receiver.attach(sim, reverse.send)
        data_demux.register(flow_id, receiver.on_data)
        ack_demux.register(flow_id, sender.on_ack)
        sim.call_at(max(spec.start_at, sim.now), sender.start)
        senders.append(sender)
        receivers.append(receiver)

    # Telemetry seam, as in the plain runner: an active session (e.g. the
    # soak harness's armed flight recorder) observes every flow.
    from ..obs.timeline import current_session
    session = current_session()
    if session is not None:
        session.attach(sim, senders, specs=specs, receivers=receivers)
    sim.run(until=duration)
    if session is not None:
        session.finalize(sim)
    close_run(sim, senders, receivers)

    result = ExperimentResult(list(specs), senders, receivers,
                              duration, warmup)
    result.fault_stats = {"down": down.stats.as_dict(),
                          "up": up.stats.as_dict()}
    dark_until = schedule.last_outage_end("down")
    if dark_until is not None and dark_until < duration:
        healed = any(any(d[0] >= dark_until for d in r.deliveries)
                     for r in receivers)
        if not healed:
            result.degraded = True
            result.degraded_code = "degraded"
            result.degraded_reason = ("no downlink delivery after the "
                                      f"blackout ended at t={dark_until:g}s")
    return result
