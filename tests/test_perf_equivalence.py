"""Byte-identical equivalence pins for the hot-path performance work.

The performance PR's contract is that every optimisation is
*behaviourally invisible*: same RNG draws, same float arithmetic, same
event ordering, therefore byte-identical results.  This module pins that
contract two ways:

1. A seed-pinned experiment matrix — {verus, sprout, cubic} senders over
   three synthetic cellular traces, each with and without an injected
   fault schedule — whose canonical-JSON ``ExperimentResult.summary()``
   payloads are committed under ``tests/golden/perf_equivalence/`` and
   compared **byte for byte** on every run.  Any change to the scheduler,
   path wiring, trace-link replay schedule, interpolation caches or
   ACK hot path that perturbs behaviour shows up as a snapshot diff.
   A second matrix pins the fixed-rate ``Link`` path the same way
   ({verus, cubic, sprout} at 20 and 100 Mbps with 0.5% random loss,
   plus one schedule-driven ``VariableLink`` cell); its snapshots also
   carry the engine's event count and each sender's transmissions, so
   a change that adds or drops an event shows up even when the
   statistics do not move.

2. The ``repro check`` oracle — the audited scenarios' committed golden
   traces (window/set-point/delay timelines at zero tolerance-violation
   budget) must still compare clean, proving the optimised code produces
   the same control-law trajectories the goldens were blessed from.

Re-blessing (only after an *intentional* behaviour change)::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_perf_equivalence.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cellular import generate_scenario_trace
from repro.check import (
    CHECK_PROTOCOLS,
    build_scenario,
    compare_golden,
    default_golden_dir,
    golden_path,
    load_golden,
    run_audited,
)
from repro.experiments import (
    FlowSpec,
    run_fixed_dumbbell,
    run_trace_contention,
    run_variable_dumbbell,
)
from repro.experiments.micro import rapid_change_schedule
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.sim import run_faulted_contention

GOLDEN_DIR = Path(__file__).parent / "golden" / "perf_equivalence"
BLESS = os.environ.get("REPRO_BLESS") == "1"

PROTOCOLS = ("verus", "sprout", "cubic")
TRACES = ("city_stationary", "campus_pedestrian", "city_driving")
DURATION = 6.0
WARMUP = 1.0

#: Deterministic fault schedule for the faulted half of the matrix: a
#: short downlink blackout followed by a lossy burst, both well inside
#: the run so recovery is part of the pinned trajectory.
FAULTS = FaultSchedule([
    FaultEvent.outage(2.0, 0.4, direction="down"),
    FaultEvent.burst_loss(3.5, 0.6, rate=0.25),
])

MATRIX = [(protocol, trace, faulted)
          for protocol in PROTOCOLS
          for trace in TRACES
          for faulted in (False, True)]


#: The fixed-rate half: ``Link`` bottleneck (DropTail), 50 ms RTT, 0.5%
#: random loss; the Fig 11a high-rate regime and the §7 testbed.
FIXED_PROTOCOLS = ("verus", "cubic", "sprout")
FIXED_RATES_BPS = (20e6, 100e6)
FIXED_DURATION = 3.0
FIXED_WARMUP = 0.5
FIXED_MATRIX = [(protocol, rate)
                for protocol in FIXED_PROTOCOLS
                for rate in FIXED_RATES_BPS]


def _case_id(protocol: str, trace: str, faulted: bool) -> str:
    return f"{protocol}-{trace}-{'faults' if faulted else 'clean'}"


def _run_case(protocol: str, trace_name: str, faulted: bool) -> dict:
    # Seeds are pinned per cell so every run of the matrix replays the
    # exact same trace, queue RNG and fault draws.
    seed = 100 + 7 * PROTOCOLS.index(protocol) + TRACES.index(trace_name)
    trace = generate_scenario_trace(trace_name, duration=DURATION,
                                    technology="3g", seed=seed)
    options = {"r": 2.0} if protocol == "verus" else {}
    specs = [FlowSpec(protocol=protocol, options=options)]
    if faulted:
        result = run_faulted_contention(trace, specs, FAULTS,
                                        duration=DURATION, warmup=WARMUP,
                                        seed=seed)
    else:
        result = run_trace_contention(trace, specs, duration=DURATION,
                                      warmup=WARMUP, seed=seed)
    return result.summary()


def _with_counters(result) -> dict:
    """``summary()`` plus the exact work counters of the run."""
    return {
        "summary": result.summary(),
        "events": result.senders[0].sim.events_processed,
        "packets_sent": [s.packets_sent for s in result.senders],
        "retransmissions": [getattr(s, "retransmissions", None)
                            for s in result.senders],
    }


def _run_fixed_case(protocol: str, rate_bps: float) -> dict:
    seed = (300 + 7 * FIXED_PROTOCOLS.index(protocol)
            + FIXED_RATES_BPS.index(rate_bps))
    options = {"r": 2.0} if protocol == "verus" else {}
    result = run_fixed_dumbbell(rate_bps, [FlowSpec(protocol, options=options)],
                                duration=FIXED_DURATION, rtt=0.05,
                                loss_rate=0.005, warmup=FIXED_WARMUP,
                                seed=seed)
    return _with_counters(result)


def _run_variable_case() -> dict:
    """§7 rapidly changing network: capacity, RTT and loss redrawn every
    second; Verus against Cubic on one ``VariableLink``."""
    schedule = rapid_change_schedule(6.0, 2e6, 20e6, seed=11, period=1.0)
    specs = [FlowSpec("verus", options={"r": 2.0}), FlowSpec("cubic")]
    result = run_variable_dumbbell(schedule, specs, duration=6.0,
                                   warmup=1.0, seed=11)
    return _with_counters(result)


def _canonical(payload: dict) -> bytes:
    """Canonical JSON: sorted keys, no whitespace, trailing newline.
    Byte-stable because summary() emits only plain floats/ints/strings
    and Python's float repr is exact shortest round-trip."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("ascii")


def _check_snapshot(payload: bytes, name: str) -> None:
    snapshot = GOLDEN_DIR / f"{name}.json"
    if BLESS:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        snapshot.write_bytes(payload)
        return
    assert snapshot.exists(), (
        f"missing snapshot {snapshot.name}; bless with REPRO_BLESS=1")
    committed = snapshot.read_bytes()
    assert payload == committed, (
        f"{snapshot.name}: summary() drifted from the committed snapshot "
        "— a supposedly behaviour-preserving change altered results. "
        "Diff the JSON, find the divergence, and only re-bless if the "
        "change is intentional.")


@pytest.mark.parametrize(
    "protocol,trace,faulted", MATRIX,
    ids=[_case_id(*case) for case in MATRIX])
def test_summary_matches_committed_snapshot(protocol, trace, faulted):
    _check_snapshot(_canonical(_run_case(protocol, trace, faulted)),
                    _case_id(protocol, trace, faulted))


@pytest.mark.parametrize(
    "protocol,rate_bps", FIXED_MATRIX,
    ids=[f"{p}-{int(r / 1e6)}mbps" for p, r in FIXED_MATRIX])
def test_fixed_rate_matches_committed_snapshot(protocol, rate_bps):
    _check_snapshot(_canonical(_run_fixed_case(protocol, rate_bps)),
                    f"fixed-{protocol}-{int(rate_bps / 1e6)}mbps")


def test_variable_rate_matches_committed_snapshot():
    _check_snapshot(_canonical(_run_variable_case()), "variable-verus-cubic")


def test_matrix_is_deterministic_within_process():
    """Two back-to-back runs of the same cell are byte-identical — the
    snapshot comparison above is meaningful only if the harness itself
    is deterministic."""
    first = _canonical(_run_case("verus", "city_stationary", True))
    second = _canonical(_run_case("verus", "city_stationary", True))
    assert first == second


@pytest.mark.parametrize("protocol", CHECK_PROTOCOLS)
def test_check_goldens_still_compare_clean(protocol):
    """The repro-check oracle: audited scenario timelines must match the
    committed golden traces with zero violations beyond the blessed
    tolerance bands (MAX_BAD_FRACTION is 0.0)."""
    scenario = build_scenario(protocol)
    run = run_audited(scenario)
    golden = load_golden(golden_path(default_golden_dir(), protocol))
    assert golden is not None
    assert compare_golden(golden, scenario, run.rows) == []
    assert run.report.monitors_violated() == []
