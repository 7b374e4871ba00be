"""Hop-cost gate: Python calls per delivered packet on seeded runs.

Every hop of a simulated packet should cost one engine scheduling call
plus the receiving element's handler (docs/ARCHITECTURE.md §13).  A
pass-through frame on the per-packet path (a ``now`` property, a
``send`` wrapper, a ``super()`` chain, a keyword-built packet's helper)
costs one call per packet or more, so each run below counts the Python
calls it makes (``sys.setprofile`` ``call`` and ``c_call`` events) per
packet delivered to a receiver.  For a seed the count is exact, and the
ceilings sit about half a call above the measured counts: a wrapper put
back on the path shows up as a failing count, not as a timing.

Measured with CPython 3.11: 46.4 (Cubic on a trace), 59.0 (Verus at
20 Mbps) and 48.2 (Sprout) calls per packet.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.cellular import generate_scenario_trace
from repro.experiments import (
    FlowSpec,
    repeat_flows,
    run_fixed_dumbbell,
    run_trace_contention,
)


# Each case builds its inputs (the trace synthesis is not per-packet
# work) and returns the run to count.

def _cubic_on_trace():
    trace = generate_scenario_trace("campus_pedestrian", duration=4.0,
                                    technology="lte", seed=5)
    return lambda: run_trace_contention(trace, repeat_flows("cubic", 3),
                                        duration=4.0, warmup=1.0, seed=5)


def _verus_fixed_rate():
    return lambda: run_fixed_dumbbell(
        20e6, [FlowSpec("verus", options={"r": 2.0})], duration=2.0,
        rtt=0.05, loss_rate=0.005, warmup=0.5, seed=5)


def _sprout_on_3g():
    trace = generate_scenario_trace("city_driving", duration=4.0,
                                    technology="3g", seed=5)
    return lambda: run_trace_contention(trace, [FlowSpec("sprout")],
                                        duration=4.0, warmup=1.0, seed=5)


#: name -> (case, ceiling in calls per delivered packet)
RUNS = {
    "cubic-x3-trace": (_cubic_on_trace, 46.9),
    "verus-fixed-20mbps": (_verus_fixed_rate, 59.5),
    "sprout-3g-trace": (_sprout_on_3g, 48.65),
}


def calls_per_packet(run) -> float:
    """Python calls (``call`` + ``c_call`` profile events) made by
    ``run()`` per packet its receivers got.  The collector is off while
    counting, so no finalizer of an earlier test's garbage is counted."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    packets = sum(r.packets_received for r in result.receivers)
    assert packets > 0
    return count / packets


@pytest.mark.parametrize("name", sorted(RUNS))
def test_calls_per_delivered_packet_under_ceiling(name):
    case, ceiling = RUNS[name]
    run = case()
    run()  # first call: imports and caches, not per-packet work
    measured = calls_per_packet(run)
    assert measured <= ceiling, (
        f"{name}: {measured:.2f} Python calls per delivered packet, "
        f"ceiling {ceiling}: a pass-through frame is back on the "
        "per-packet path (see docs/ARCHITECTURE.md §13)")


def test_count_is_exact_for_a_seed():
    """The gate can pin a ceiling this tight only because the count does
    not vary between runs of one seed."""
    run = RUNS["verus-fixed-20mbps"][0]()
    run()
    assert calls_per_packet(run) == calls_per_packet(run)
