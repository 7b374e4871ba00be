"""Compile a fault schedule into the discrete-event simulator.

:func:`run_faulted_contention` is the fault-injected sibling of
:func:`repro.experiments.runner.run_trace_contention`: the same §6.2
trace-behind-RED dumbbell, with a downlink
:class:`~repro.faults.injector.FaultInjector` as the dumbbell's ``down``
stage (between the bottleneck and the data demux) and an uplink injector
as its ``up`` stage (on the shared acknowledgement path).

Seeding follows :func:`~repro.experiments.runner.path_rngs`, the one
scheme every path uses: the RED queue and the trace link share
``default_rng(seed)``, and each injector draws from its own child of
that generator.  An injector under the empty schedule neither draws nor
delays, so a run under it is identical to the plain runner, byte for
byte, with RED on or off and at any ``loss_rate``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..experiments.runner import (
    ExperimentResult,
    FlowSpec,
    _run_dumbbell,
    _trace_bottleneck,
    path_rngs,
)
from ..netsim import Simulator
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
    rng, down_rng, up_rng = path_rngs(seed)
    down = FaultInjector(sim, schedule, rng=down_rng, direction="down")
    up = FaultInjector(sim, schedule, rng=up_rng, direction="up")
    bottleneck = _trace_bottleneck(sim, trace, rng, access_delay, use_red,
                                   loss_rate)
    result = _run_dumbbell(sim, bottleneck, specs, duration, rtt, warmup,
                           down=down, up=up)

    result.fault_stats = {"down": down.stats.as_dict(),
                          "up": up.stats.as_dict()}
    dark_until = schedule.last_outage_end("down")
    if dark_until is not None and dark_until < duration:
        healed = any(any(d[0] >= dark_until for d in r.deliveries)
                     for r in result.receivers)
        if not healed:
            result.degraded = True
            result.degraded_code = "degraded"
            result.degraded_reason = ("no downlink delivery after the "
                                      f"blackout ended at t={dark_until:g}s")
    return result
