"""Performance microbenchmarks of the simulation substrate.

These now drive the named benchmark suite in :mod:`repro.obs.bench` —
the same definitions ``repro bench`` runs — so workloads, seeds, and
parameters live in exactly one place.  pytest-benchmark provides the
multi-round timing and statistics here; ``repro bench`` provides the
schema-versioned JSON artefacts and the compare gate.  A workload
change shows up in both as a changed content hash.

The ``full`` parameter set matches what this file used to hardcode
(100k engine events, 10k queue packets, 10 simulated Verus seconds...).
"""

import pytest

from repro.obs.bench import BENCHMARKS

MODE = "full"

#: Sanity floor per benchmark: the checksum ``run`` returns must clear
#: it, mirroring the asserts of the pre-suite version of this file.
CHECKSUM_FLOORS = {
    "engine.events": 100_000,        # every scheduled event dispatched
    "queue.droptail": 10_000,        # every packet drained
    "queue.red": 1,                  # some packets accepted
    "profile.update": 10,            # one rebuild per 1k samples
    "channel.generate": 1_000,       # trace has real resolution
    "tracelink.replay": 1_000,       # replay delivered packets
    "sim.verus_direct": 1_000,       # the flow actually moved data
    "verus.highrate": 1_000,         # the 100 Mbps leg moved data
    "sim.contention": 1_000,
    "tcp.faulted": 1_000,            # recovery kept the flows moving
    "sim.contention_telemetry": 1_000,
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_perf(name, benchmark):
    bench = BENCHMARKS[name]
    workload, workload_hash = bench.setup(bench.params[MODE])
    assert len(workload_hash) == 64      # content-addressed workload

    result = benchmark.pedantic(bench.run, args=(workload,),
                                rounds=bench.repeats[MODE], iterations=1,
                                warmup_rounds=0)
    assert result is not None
    floor = CHECKSUM_FLOORS.get(name)
    if floor is not None:
        assert result >= floor, (
            f"{name}: checksum {result!r} below sanity floor {floor}")
