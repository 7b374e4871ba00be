"""Finished runs free themselves by reference counting.

Every runner wires a cycle (sender → forward path → receiver → reverse
path → sender) and the engine's heap holds callbacks into all of it.
The runners tear that down once the run is over, so a run's packets,
delivery logs and scoreboards go as soon as its result is dropped, not
at the next full garbage-collection pass.  With the collector off, a
weak reference to the run's :class:`Simulator` must die with the result.
"""

import gc
import weakref

import pytest

from repro.cellular import generate_scenario_trace
from repro.experiments.runner import (
    repeat_flows,
    run_fixed_dumbbell,
    run_trace_contention,
    run_variable_dumbbell,
)
from repro.faults import make_schedule, run_faulted_contention
from repro.netsim import LinkPhase, LinkSchedule

_TRACE = generate_scenario_trace("campus_pedestrian", duration=3.0,
                                 technology="lte", seed=1)

RUNNERS = {
    "trace": lambda specs: run_trace_contention(
        _TRACE, specs, duration=2.0, warmup=0.5, seed=2),
    "fixed": lambda specs: run_fixed_dumbbell(
        10e6, specs, duration=2.0, warmup=0.5, loss_rate=0.01, seed=2),
    "variable": lambda specs: run_variable_dumbbell(
        LinkSchedule([LinkPhase(0.5, 8e6, 0.01), LinkPhase(0.5, 2e6, 0.01)]),
        specs, duration=2.0, warmup=0.5, seed=2),
    "faulted": lambda specs: run_faulted_contention(
        _TRACE, specs, make_schedule("chaos", 2.0), duration=2.0,
        warmup=0.5, seed=2),
}


@pytest.mark.parametrize("protocol", ["verus", "cubic", "sprout"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_dropped_result_frees_its_run(runner, protocol):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = RUNNERS[runner](repeat_flows(protocol, 2))
        sim = weakref.ref(result.senders[0].sim)
        # Everything a caller reads after the run still works.
        assert len(result.summary()["flows"]) == 2
        assert result.senders[0].sim.events_processed > 0
        assert result.senders[0].sim.pending() == 0
        del result
        assert sim() is None
    finally:
        if was_enabled:
            gc.enable()


def test_dropped_audited_run_frees_its_run():
    from repro.check import build_scenario, run_audited

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run = run_audited(build_scenario("cubic", duration=1.0, drain=0.5))
        sim = weakref.ref(run.sender.sim)
        assert run.counts["events"] > 0
        assert run.sender.sim.pending() == 0
        del run
        assert sim() is None
    finally:
        if was_enabled:
            gc.enable()
