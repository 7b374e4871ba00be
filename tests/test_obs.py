"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.netsim.flow import SenderProtocol
from repro.obs import (
    BENCHMARKS,
    Counter,
    Gauge,
    Histogram,
    MeterRegistry,
    RingBuffer,
    Spans,
    TelemetrySession,
    TimelineRecorder,
    compare,
    current_session,
    export_timeline_csv,
    export_timeline_jsonl,
    merge_snapshots,
    regressions,
    run_bench,
    telemetry,
    write_session,
)


# ----------------------------------------------------------------------
# Meters
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty_percentile_is_none(self):
        hist = Histogram()
        assert hist.percentile(50) is None
        assert hist.mean is None

    def test_single_value_percentiles_exact(self):
        hist = Histogram()
        hist.record(0.125)
        for q in (0, 25, 50, 99, 100):
            assert hist.percentile(q) == pytest.approx(0.125)

    def test_single_bucket_stays_in_envelope(self):
        hist = Histogram(base=2.0)   # coarse buckets, one bucket holds both
        hist.record(1.1)
        hist.record(1.3)
        for q in (0, 50, 100):
            assert 1.1 <= hist.percentile(q) <= 1.3

    def test_percentile_bounds_and_accuracy(self):
        hist = Histogram()
        values = [0.001 * i for i in range(1, 1001)]
        hist.record_many(values)
        assert hist.percentile(0) == pytest.approx(0.001)
        assert hist.percentile(100) == pytest.approx(1.0)
        # Log-bucketing at base 2**0.25 keeps percentiles within ~9%.
        assert hist.percentile(50) == pytest.approx(0.5, rel=0.1)
        assert hist.percentile(90) == pytest.approx(0.9, rel=0.1)

    def test_zeros_bucket(self):
        hist = Histogram()
        hist.record_many([0.0, -1.0, 5.0])
        assert hist.zeros == 2
        assert hist.count == 3
        assert hist.percentile(0) == -1.0

    def test_merge_matches_combined_stream(self):
        left, right, both = Histogram(), Histogram(), Histogram()
        a = [0.01 * i for i in range(1, 50)]
        b = [0.3 * i for i in range(1, 30)]
        left.record_many(a)
        right.record_many(b)
        both.record_many(a + b)
        left.merge(right)
        assert left.count == both.count
        assert left.total == pytest.approx(both.total)
        assert left.counts == both.counts
        assert left.percentile(75) == pytest.approx(both.percentile(75))

    def test_merge_empty_and_base_mismatch(self):
        hist = Histogram()
        hist.record(2.0)
        hist.merge(Histogram())          # merging empty is a no-op
        assert hist.count == 1
        with pytest.raises(ValueError):
            hist.merge(Histogram(base=3.0))

    def test_roundtrip(self):
        hist = Histogram()
        hist.record_many([0.1, 0.5, 2.5, 0.0])
        clone = Histogram.from_dict(
            json.loads(json.dumps(hist.to_dict())))
        assert clone.counts == hist.counts
        assert clone.percentile(50) == hist.percentile(50)


class TestRegistry:
    def test_snapshot_merge_roundtrip(self):
        a, b = MeterRegistry(), MeterRegistry()
        a.counter("events").inc(3)
        b.counter("events").inc(4)
        a.gauge("window").set(10.0)
        b.gauge("window").set(20.0)
        a.histogram("delay").record(0.05)
        b.histogram("delay").record(0.10)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"]["events"]["value"] == 7
        assert merged["gauges"]["window"]["value"] == 20.0   # right-biased
        assert merged["gauges"]["window"]["min"] == 10.0
        assert merged["histograms"]["delay"]["count"] == 2

    def test_name_type_collision_rejected(self):
        reg = MeterRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_scoped_prefixes(self):
        reg = MeterRegistry()
        reg.scoped("verus").scoped("epoch").counter("count").inc()
        assert reg.names() == ["verus.epoch.count"]


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_no_wrap(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.append(i)
        assert ring.items() == [0, 1, 2]
        assert ring.dropped == 0

    def test_wraparound_keeps_most_recent(self):
        ring = RingBuffer(3)
        for i in range(7):
            ring.append(i)
        assert ring.items() == [4, 5, 6]
        assert ring.dropped == 4
        assert ring.appended == 7
        assert len(ring) == 3


class _Endpoint:
    flow_id = 9


class TestTimelineRecorder:
    def test_record_event_fast_path(self):
        rec = TimelineRecorder(capacity=8, source="f0")
        rec.record_event(_Endpoint(), "on_epoch", {"time": 1.5, "window": 4.0})
        [row] = rec.rows()
        assert row == {"time": 1.5, "window": 4.0, "event": "epoch",
                       "source": "f0", "flow": 9}

    def test_named_handlers_match_fast_path(self):
        rec = TimelineRecorder(capacity=8)
        rec.on_loss(_Endpoint(), time=2.0, kind="rto")
        [row] = rec.rows()
        assert row["event"] == "loss"
        assert row["kind"] == "rto"

    def test_missing_time_filled_with_none(self):
        rec = TimelineRecorder(capacity=8)
        rec.record_event(_Endpoint(), "on_window", {"cwnd": 10})
        assert rec.rows()[0]["time"] is None

    def test_sender_notify_reaches_recorder(self):
        sender = SenderProtocol(flow_id=3)
        rec = TimelineRecorder(capacity=8, source="s")
        sender.observers.append(rec)
        sender.notify("on_epoch", time=0.5, window=2.0)
        assert rec.rows()[0]["flow"] == 3

    def test_plain_handler_observer_still_works(self):
        seen = []

        class Monitor:
            def on_epoch(self, sender, *, time, window, **extra):
                seen.append((time, window))

        sender = SenderProtocol(flow_id=0)
        sender.observers.append(Monitor())
        sender.notify("on_epoch", time=0.5, window=2.0)
        assert seen == [(0.5, 2.0)]


class TestTelemetrySession:
    def test_nesting_rejected(self):
        with telemetry():
            with pytest.raises(RuntimeError):
                with telemetry():
                    pass
        assert current_session() is None

    def test_end_to_end_capture(self, tmp_path):
        from repro.cellular import generate_scenario_trace
        from repro.experiments import repeat_flows, run_trace_contention

        trace = generate_scenario_trace("campus_stationary", duration=2.0,
                                        technology="3g", seed=1)
        with telemetry(TelemetrySession()) as session:
            run_trace_contention(trace, repeat_flows("verus", 1, r=2.0),
                                 duration=2.0, seed=1)
        rows = session.rows()
        assert rows, "telemetry captured nothing"
        events = {row["event"] for row in rows}
        assert "epoch" in events
        assert session.registry.counter("engine.events").value > 0
        times = [row["time"] for row in rows if row["time"] is not None]
        assert times == sorted(times)

        from pathlib import Path
        paths = write_session(session, tmp_path, csv_too=True)
        for path in paths:
            assert Path(path).exists()
        summary = json.loads((tmp_path / "telemetry_summary.json").read_text())
        assert summary["timeline_rows"] == len(rows)

    def test_notify_never_called_without_observers(self, monkeypatch):
        """Telemetry off must cost only the falsy guard: no emit site may
        call notify when the observers list is empty."""
        from repro.cellular import generate_scenario_trace
        from repro.experiments import repeat_flows, run_trace_contention

        def boom(self, event, **fields):
            raise AssertionError(f"notify({event!r}) despite no observers")

        monkeypatch.setattr(SenderProtocol, "notify", boom)
        trace = generate_scenario_trace("campus_stationary", duration=1.0,
                                        technology="3g", seed=1)
        run_trace_contention(trace, repeat_flows("verus", 1, r=2.0),
                             duration=1.0, seed=1)


# ----------------------------------------------------------------------
# Spans + export
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_accumulates_and_merges(self):
        spans = Spans()
        with spans.span("fit"):
            pass
        spans.add("fit", 0.5)
        other = Spans()
        other.add("fit", 0.25)
        other.add("run", 1.0)
        spans.merge(other)
        snap = spans.snapshot()
        assert snap["spans"]["fit"]["calls"] == 3
        assert snap["spans"]["fit"]["seconds"] >= 0.75
        assert "run" in snap["spans"]


class TestExport:
    ROWS = [
        {"time": 0.5, "event": "epoch", "source": "f0", "flow": 0, "window": 2.0},
        {"time": 1.0, "event": "loss", "source": "f0", "flow": 0, "kind": "rto"},
    ]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert export_timeline_jsonl(self.ROWS, path) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "epoch"

    def test_csv_union_header(self, tmp_path):
        path = tmp_path / "t.csv"
        export_timeline_csv(self.ROWS, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["time", "event", "source", "flow"]
        assert set(header[4:]) == {"kind", "window"}


# ----------------------------------------------------------------------
# Bench
# ----------------------------------------------------------------------
FAST_BENCHES = ["queue.droptail", "interp.pchip"]


class TestBench:
    def test_workload_hashes_deterministic_across_jobs(self):
        serial = run_bench(FAST_BENCHES, mode="quick", jobs=1)
        pooled = run_bench(FAST_BENCHES, mode="quick", jobs=2)
        assert not serial["failures"] and not pooled["failures"]
        for name in FAST_BENCHES:
            assert (serial["benchmarks"][name]["workload_hash"]
                    == pooled["benchmarks"][name]["workload_hash"])
            assert (serial["benchmarks"][name]["checksum"]
                    == pooled["benchmarks"][name]["checksum"])

    def test_setup_hashes_are_pure(self):
        bench = BENCHMARKS["interp.inverse"]
        _, first = bench.setup(bench.params["quick"])
        _, second = bench.setup(bench.params["quick"])
        assert first == second
        _, full = bench.setup(bench.params["full"])
        assert full != first          # different params, different workload

    def test_per_packet_pairing_reports_ratio(self, monkeypatch):
        """A per-packet pair runs two different workloads: the checksum
        is the pair of packet counts and the row carries the CPU-per-
        packet ratio instead of an overhead ratio."""
        from repro.obs import bench as bench_mod

        def work(packets):
            return lambda workload: sum(range(200_000)) and packets

        pair = bench_mod.BenchmarkDef(
            name="test.pair", kind="micro", summary="per-packet pair",
            setup=lambda params: (params, "0" * 64), run=work(200),
            baseline_run=work(100), pairing="per_packet",
            params={"quick": {}}, repeats={"quick": 3})
        monkeypatch.setitem(bench_mod.BENCHMARKS, "test.pair", pair)
        row = bench_mod._bench_task({"name": "test.pair", "mode": "quick"})
        assert row["checksum"] == [100, 200]
        assert "overhead_ratio" not in row
        # Same CPU per run, twice the packets: about half the cost each.
        assert 0.2 < row["per_packet_ratio"] < 1.0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_bench(["nope"], mode="quick")
        with pytest.raises(ValueError, match="mode"):
            run_bench(FAST_BENCHES, mode="banana")

    def test_compare_statuses(self):
        base_doc = {
            "benchmarks": {
                "a": {"seconds": 1.0, "workload_hash": "x", "tolerance": 0.2},
                "b": {"seconds": 1.0, "workload_hash": "x", "tolerance": 0.2},
                "c": {"seconds": 1.0, "workload_hash": "x", "tolerance": 0.2},
                "d": {"seconds": 1.0, "workload_hash": "old", "tolerance": 0.2},
                "gone": {"seconds": 1.0, "workload_hash": "x",
                         "tolerance": 0.2},
            },
        }
        cur_doc = {
            "benchmarks": {
                "a": {"seconds": 1.1, "workload_hash": "x"},   # within band
                "b": {"seconds": 1.5, "workload_hash": "x"},   # regression
                "c": {"seconds": 0.5, "workload_hash": "x"},   # improved
                "d": {"seconds": 1.0, "workload_hash": "new"},
                "fresh": {"seconds": 1.0, "workload_hash": "x"},
            },
        }
        rows = {r["name"]: r["status"] for r in compare(base_doc, cur_doc)}
        assert rows == {"a": "ok", "b": "regression", "c": "improved",
                        "d": "workload-changed", "gone": "missing",
                        "fresh": "new"}
        bad = regressions(compare(base_doc, cur_doc))
        assert [r["name"] for r in bad] == ["b"]

    def test_max_regression_caps_the_band(self):
        """The CI ratchet: --max-regression tightens every regression
        band without widening any, and leaves 'improved' on the
        per-benchmark band so noise isn't reported as a speedup."""
        base_doc = {
            "benchmarks": {
                "lax": {"seconds": 1.0, "workload_hash": "x",
                        "tolerance": 0.5},
                "tight": {"seconds": 1.0, "workload_hash": "x",
                          "tolerance": 0.05},
            },
        }
        cur_doc = {
            "benchmarks": {
                "lax": {"seconds": 1.2, "workload_hash": "x"},
                "tight": {"seconds": 1.08, "workload_hash": "x"},
            },
        }
        plain = {r["name"]: r["status"] for r in compare(base_doc, cur_doc)}
        assert plain == {"lax": "ok", "tight": "regression"}
        capped = {r["name"]: r["status"]
                  for r in compare(base_doc, cur_doc, max_regression=0.10)}
        assert capped == {"lax": "regression", "tight": "regression"}
        faster = {"benchmarks": {
            "lax": {"seconds": 0.4, "workload_hash": "x"},
            "tight": {"seconds": 0.97, "workload_hash": "x"},
        }}
        improved = {r["name"]: r["status"]
                    for r in compare(base_doc, faster, max_regression=0.10)}
        assert improved == {"lax": "improved", "tight": "ok"}


# ----------------------------------------------------------------------
# Campaign timings rollup
# ----------------------------------------------------------------------
class TestTimingsRollup:
    def test_aggregate_timings(self):
        from repro.campaign import aggregate_timings
        from repro.campaign.executor import TaskOutcome

        outcomes = [
            TaskOutcome(index=0, key="k0", status="ok",
                        result={"timings": {"sim_run_s": 1.0,
                                            "total_s": 1.5}}),
            TaskOutcome(index=1, key="k1", status="cached",
                        result={}),                      # cached, no timings
            TaskOutcome(index=2, key="k2", status="ok",
                        result={"timings": {"sim_run_s": 3.0,
                                            "total_s": 3.5}}),
        ]
        rollup = aggregate_timings(outcomes)
        assert rollup["tasks"] == 3
        assert rollup["tasks_with_timings"] == 2
        assert rollup["mean"]["sim_run_s"] == pytest.approx(2.0)
        assert rollup["total"]["total_s"] == pytest.approx(5.0)
        assert rollup["max"]["sim_run_s"] == pytest.approx(3.0)

    def test_aggregate_timings_none_when_absent(self):
        from repro.campaign import aggregate_timings
        from repro.campaign.executor import TaskOutcome

        outcomes = [TaskOutcome(index=0, key="k", status="ok", result={})]
        assert aggregate_timings(outcomes) is None
