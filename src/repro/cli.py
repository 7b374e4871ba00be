"""Command-line interface: run paper experiments from a shell.

Usage::

    python -m repro list                      # available experiments
    python -m repro run fig3                  # regenerate Fig 3's rows
    python -m repro run table1 --duration 30  # faster, lower fidelity
    python -m repro quickstart                # Verus vs Cubic in one line
    python -m repro trace --scenario city_driving --out trace.txt
    python -m repro live --protocol verus --protocol cubic --duration 10
    python -m repro sweep --scenario city_driving --protocol verus \
        --protocol cubic --seeds 3 --jobs 4   # cached parallel campaign
    python -m repro corpus build --preset default   # trace corpus
    python -m repro corpus stats --json
    python -m repro sweep --corpus .repro-corpus --protocol verus
    python -m repro chaos --protocol verus --fault blackout \
        --fault chaos --backend both          # fault-injection matrix
    python -m repro check                     # conformance suite
    python -m repro check --bless             # re-bless golden traces

Every experiment honours ``--seed`` so invocations are reproducible
from the shell; without it each experiment keeps its paper-default
seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from .experiments import format_table
from .experiments.report import format_series


def _seed_kwargs(args) -> dict:
    """``{'seed': n}`` when ``--seed`` was given, else {} (paper default)."""
    seed = getattr(args, "seed", None)
    return {} if seed is None else {"seed": seed}


def _run_fig1(args) -> None:
    from .experiments.channel_study import fig1_burst_arrivals
    result = fig1_burst_arrivals(duration=args.duration, **_seed_kwargs(args))
    print(format_series("fig1 burst arrivals", result.times,
                        result.delays * 1e3, "t(s)", "delay(ms)"))
    print(format_table([result.stats.summary()], title="burst statistics"))


def _run_fig2(args) -> None:
    from .experiments.channel_study import fig2_burst_pdfs
    result = fig2_burst_pdfs(duration=args.duration, **_seed_kwargs(args))
    print(format_table(result.summary_rows(), title="Fig 2: burst statistics"))


def _run_fig3(args) -> None:
    from .experiments.channel_study import fig3_competing_traffic
    result = fig3_competing_traffic(duration=args.duration,
                                    **_seed_kwargs(args))
    print(format_table(result.rows, title="Fig 3: competing traffic delay"))


def _run_fig4(args) -> None:
    from .experiments.channel_study import fig4_throughput_windows
    from .viz import line_chart
    result = fig4_throughput_windows(duration=args.duration,
                                     **_seed_kwargs(args))
    t100, s100 = result.window_100ms
    t20, s20 = result.window_20ms
    n = min(600, t100.size)
    print(line_chart(t100[:n], s100[:n] / 1e6,
                     title="Fig 4a: 100 ms windows", x_label="t (s)",
                     y_label="Mbps"))
    n = min(600, t20.size)
    print(line_chart(t20[:n], s20[:n] / 1e6,
                     title="Fig 4b: 20 ms windows", x_label="t (s)",
                     y_label="Mbps"))
    print(f"CV @100ms: {result.variability(result.window_100ms[1]):.2f}   "
          f"CV @20ms: {result.variability(result.window_20ms[1]):.2f}")
    print(format_table(result.predictor_rows, title="§3 predictor study"))


def _run_fig5(args) -> None:
    from .experiments.profile_study import fig5_example_profile
    from .viz import line_chart
    snap = fig5_example_profile(duration=args.duration, **_seed_kwargs(args))
    print(line_chart(snap.windows, snap.delays_ms,
                     title="Fig 5: Verus delay profile",
                     x_label="sending window W (packets)",
                     y_label="delay D (ms)"))


def _run_fig7(args) -> None:
    from .experiments.profile_study import fig7_profile_evolution, profile_tracks_channel
    result = fig7_profile_evolution(duration=args.duration,
                                    **_seed_kwargs(args))
    print(f"snapshots: {len(result.snapshots)}  "
          f"interpolations: {result.interpolations}  "
          f"profile_tracks_channel: {profile_tracks_channel(result)}")


def _run_fig8(args) -> None:
    from .experiments.macro import fig8_realworld
    points = fig8_realworld(duration=args.duration, repetitions=args.reps,
                            **_seed_kwargs(args))
    print(format_table([p.as_dict() for p in points],
                       title="Fig 8: real-world macro comparison"))


def _run_fig9(args) -> None:
    from .experiments.macro import fig9_r_tradeoff
    points = fig9_r_tradeoff(duration=args.duration, repetitions=args.reps,
                             **_seed_kwargs(args))
    print(format_table([p.as_dict() for p in points],
                       title="Fig 9: Verus R trade-off"))


def _run_fig10(args) -> None:
    from .experiments.tracedriven import fig10_mobility, summarize_fig10
    from .viz import scatter_plot
    points = fig10_mobility(duration=args.duration, **_seed_kwargs(args))
    print(format_table(summarize_fig10(points),
                       title="Fig 10: mobility scatter (summarised)"))
    for scenario in sorted({p.scenario for p in points}):
        groups = {}
        for p in points:
            if p.scenario == scenario and p.mean_delay_ms > 0:
                groups.setdefault(p.protocol, []).append(
                    (p.mean_delay_ms / 1e3, p.throughput_mbps))
        print(scatter_plot(groups, title=f"Fig 10: {scenario}",
                           x_label="delay (s)", y_label="Mbps", log_x=True))


def _run_table1(args) -> None:
    from .experiments.tracedriven import table1_fairness
    rows = table1_fairness(duration=args.duration, **_seed_kwargs(args))
    print(format_table(rows, title="Table 1: Jain's fairness index"))


def _run_fig11(args) -> None:
    from .experiments.micro import fig11_rapid_change
    from .viz import multi_line_chart
    for scenario in ("I", "II"):
        result = fig11_rapid_change(scenario, duration=args.duration,
                                    **_seed_kwargs(args))
        rows = [{"protocol": name,
                 "throughput_mbps": stats["throughput_bps"] / 1e6,
                 "mean_delay_ms": stats["mean_delay_ms"],
                 "utilization": result.utilization(name)}
                for name, stats in result.stats.items()]
        print(format_table(rows, title=f"Fig 11 scenario {scenario}"))
        series = {name: (t, tput / 1e6)
                  for name, (t, tput) in result.series.items()}
        print(multi_line_chart(series,
                               title=f"Fig 11 {scenario}: throughput",
                               x_label="t (s)", y_label="Mbps"))


def _run_fig12(args) -> None:
    from .experiments.micro import fig12_new_flows
    result = fig12_new_flows(**_seed_kwargs(args))
    print(f"Fig 12: final Jain index {result.final_jain:.3f}, first flow "
          f"alone used {result.first_flow_initial_share:.0%} of the link")


def _run_fig13(args) -> None:
    from .experiments.micro import fig13_rtt_fairness
    result = fig13_rtt_fairness(duration=args.duration, **_seed_kwargs(args))
    print(format_table([s.as_dict() for s in result["stats"]],
                       title="Fig 13: RTT fairness"))
    print(f"Jain index: {result['jain']:.3f}   "
          f"max/min throughput: {result['max_over_min']:.2f}")


def _run_fig14(args) -> None:
    from .experiments.micro import fig14_vs_cubic
    result = fig14_vs_cubic(**_seed_kwargs(args))
    print(f"Fig 14: Verus/Cubic aggregate share ratio "
          f"{result['verus_to_cubic_ratio']:.2f} "
          f"(Jain over all six flows: {result['jain_all']:.3f})")


def _run_fig15(args) -> None:
    from .experiments.tracedriven import (
        fig15_delay_ratio,
        fig15_gain,
        fig15_static_profile,
    )
    rows = fig15_static_profile(duration=args.duration, **_seed_kwargs(args))
    print(format_table(rows, title="Fig 15: static vs updating profile"))
    print(f"updating/static throughput ratio: {fig15_gain(rows):.2f}")
    print(f"updating/static delay ratio:      {fig15_delay_ratio(rows):.2f}")


def _run_shortflows(args) -> None:
    from .experiments.short_flows import fct_sweep, verus_competitive_ratio
    rows = fct_sweep(repetitions=2, duration=min(args.duration * 2, 120.0),
                     **_seed_kwargs(args))
    print(format_table(rows, title="§7 short flows: completion times (s)"))
    print(f"geometric-mean Verus/Cubic FCT ratio: "
          f"{verus_competitive_ratio(rows):.2f}")


def _run_uplink(args) -> None:
    from .experiments.uplink import observations_carry_over, uplink_comparison
    rows = uplink_comparison(duration=args.duration, **_seed_kwargs(args))
    print(format_table(rows, title="§6.2 uplink comparison"))
    print("checks:", observations_carry_over(rows))


def _run_landscape(args) -> None:
    import importlib.util
    import pathlib
    bench = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
             / "test_extended_baselines.py")
    if bench.exists():
        spec = importlib.util.spec_from_file_location("landscape", bench)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        rows = module.run_landscape(duration=args.duration,
                                    **_seed_kwargs(args))
    else:   # installed without the benchmarks tree: inline fallback
        from .cellular import generate_scenario_trace
        from .experiments import repeat_flows, run_trace_contention
        from .metrics import aggregate_stats
        trace = generate_scenario_trace("city_stationary",
                                        duration=args.duration,
                                        technology="3g",
                                        mean_rate_bps=10e6, seed=21)
        rows = []
        for protocol in ("verus", "cubic", "vegas", "sprout", "pcc"):
            options = {"r": 2.0} if protocol == "verus" else {}
            result = run_trace_contention(
                trace, repeat_flows(protocol, 3, **options),
                duration=args.duration, seed=21)
            agg = aggregate_stats(result.all_stats())
            rows.append({"protocol": protocol,
                         "throughput_mbps": agg["mean_throughput_mbps"],
                         "mean_delay_ms": agg["mean_delay_ms"]})
    print(format_table(rows, title="Protocol landscape on one 3G cell"))
    from .viz import scatter_plot
    groups = {r["protocol"]: [(max(r["mean_delay_ms"], 0.1) / 1e3,
                               r["throughput_mbps"])] for r in rows}
    print(scatter_plot(groups, title="throughput vs delay",
                       x_label="delay (s)", y_label="Mbps", log_x=True))


def _run_sensitivity(args) -> None:
    from .experiments import sensitivity
    for name, fn in (("epoch", sensitivity.sweep_epoch),
                     ("update interval", sensitivity.sweep_update_interval),
                     ("deltas", sensitivity.sweep_deltas)):
        print(format_table(fn(duration=args.duration, **_seed_kwargs(args)),
                           title=f"§5.3 sweep: {name}"))


def _run_live(args) -> None:
    """``repro live``: a real UDP session through the link emulator."""
    from .cellular import generate_scenario_trace
    from .experiments.runner import FlowSpec, run_trace_contention
    from .live import LiveSessionError, run_live_session

    protocols = args.protocol if args.protocol else ["verus"]
    try:
        specs = [FlowSpec(protocol=p,
                          options={"r": 2.0} if p == "verus" else {})
                 for p in protocols]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    seed = args.seed if args.seed is not None else 1
    if args.trace:
        from .traces.formats import read_trace_seconds
        try:
            # Any corpus format works here: mahimahi, seconds or CSV,
            # auto-detected by extension/content.
            trace = read_trace_seconds(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace file: {exc}", file=sys.stderr)
            raise SystemExit(2)
    else:
        trace = generate_scenario_trace(args.scenario,
                                        duration=max(args.duration, 1.0),
                                        technology=args.technology,
                                        seed=seed)
    try:
        result = run_live_session(specs, trace=trace,
                                  duration=args.duration,
                                  warmup=min(1.0, args.duration / 5.0),
                                  seed=seed)
    except LiveSessionError as exc:
        print(f"live session unavailable: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except KeyboardInterrupt:
        print("live session interrupted", file=sys.stderr)
        raise SystemExit(130)
    rows = [s.as_dict() for s in result.all_stats()]
    print(format_table(rows, title=f"live UDP session ({args.scenario}, "
                                   f"{args.duration:g}s wall clock)"))
    stats = result.emulator_stats
    print(f"emulator: {stats.delivered} delivered, "
          f"{stats.wasted_opportunities} wasted opportunities, "
          f"{stats.stochastic_losses} losses, "
          f"{stats.acks_forwarded} acks forwarded")
    if args.compare_sim:
        sim_result = run_trace_contention(trace, specs,
                                          duration=args.duration,
                                          warmup=min(1.0, args.duration / 5.0),
                                          seed=seed)
        sim_rows = [s.as_dict() for s in sim_result.all_stats()]
        print(format_table(sim_rows,
                           title="equivalent simulated run (same trace)"))


def _run_sweep(args) -> int:
    """``repro sweep``: expand a campaign grid, run it through the
    engine, print the aggregated table plus cache accounting.

    With ``--corpus``, the scenario axis comes from a trace corpus
    instead of the synthetic channel: every (selected) trace becomes a
    grid entry whose cells replay that trace, pinned by content hash.
    """
    from .campaign import (
        CampaignSpec,
        ResultStore,
        aggregate_campaign,
        aggregate_timings,
        rows_as_json,
        run_campaign,
    )

    try:
        if args.corpus:
            from .traces import CorpusError, expand_corpus, load_corpus
            try:
                corpus = load_corpus(args.corpus)
                tasks = expand_corpus(
                    corpus,
                    protocols=args.protocol or ["verus", "cubic"],
                    flow_counts=args.flows or [3],
                    seeds=args.seeds,
                    duration=args.duration,
                    base_seed=args.base_seed,
                    names=args.scenario or None,
                )
            except CorpusError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            spec = CampaignSpec(
                scenarios=args.scenario or ["campus_pedestrian",
                                            "city_driving"],
                protocols=args.protocol or ["verus", "cubic"],
                flow_counts=args.flows or [3],
                seeds=args.seeds,
                duration=(args.duration if args.duration is not None
                          else 30.0),
                technology=args.technology,
                base_seed=args.base_seed,
            )
            tasks = spec.expand()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        rows = [{"task": i, "scenario": t.scenario, "protocol": t.protocol,
                 "label": t.label, "flows": t.flows,
                 "seed_index": t.seed_index, "seed": t.seed,
                 "key": t.key()[:12]} for i, t in enumerate(tasks)]
        print(format_table(rows, title=f"campaign grid ({len(tasks)} tasks, "
                                       f"dry run)"))
        return 0

    store = None if args.no_cache else ResultStore(args.cache_dir)

    def progress(outcome, done, total) -> None:
        note = outcome.status
        if outcome.error:
            note += f": {outcome.error}"
        print(f"[{done}/{total}] task {outcome.index} {note} "
              f"({outcome.seconds:.1f}s)", file=sys.stderr)

    result = run_campaign(tasks, jobs=args.jobs, store=store,
                          resume=args.resume, timeout=args.timeout,
                          retries=args.retries, progress=progress,
                          collect_timings=args.telemetry,
                          chunk=args.chunk)
    rows = aggregate_campaign(result.tasks, result.outcomes)
    print(format_table(rows, title="campaign summary (mean over seeds, "
                                   "95% CI)"))
    stats = result.stats
    print(f"tasks: {stats.total}  executed: {stats.executed}  "
          f"cached: {stats.cached}  failed: "
          f"{stats.failed + stats.timeouts}  retries: {stats.retries}")
    if args.telemetry:
        rollup = aggregate_timings(result.outcomes)
        if rollup is None:
            print("telemetry: no task carried timings (all results were "
                  "cached; use --fresh to re-measure)")
        else:
            print(f"telemetry: {rollup['tasks_with_timings']}/"
                  f"{rollup['tasks']} tasks timed  "
                  f"cache lookups: {stats.cache_lookup_seconds * 1e3:.1f}ms")
            timing_rows = [
                {"span": key, "mean_s": rollup["mean"][key],
                 "total_s": rollup["total"][key],
                 "max_s": rollup["max"][key]}
                for key in rollup["mean"]
            ]
            print(format_table(timing_rows, title="per-task span timings"))
    if store is not None:
        print(f"cache '{args.cache_dir}': {store.hits} hits, "
              f"{store.misses} misses, {store.writes} writes")
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(rows_as_json(rows))
        print(f"wrote aggregated rows to {args.out}")
    return 0 if result.all_ok else 1


def _run_bench(args) -> int:
    """``repro bench``: run the named benchmark suite, write a
    schema-versioned ``BENCH_<label>.json``, optionally diff against a
    baseline file.  With ``--compare BASELINE --against CURRENT`` no
    benchmarks run — the two files are diffed directly.  ``--profile``
    skips timing entirely and prints cProfile tables for the named hot
    paths."""
    from .obs import (
        compare,
        format_compare,
        format_trajectory,
        load_bench,
        regressions,
        run_bench,
        trajectory,
        write_bench,
    )

    if args.profile:
        from .obs.profiler import profile_hotpaths
        try:
            profiles = profile_hotpaths(args.profile)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for name, rows in profiles.items():
            print(format_table(rows, title=f"cProfile: {name} hot path"))
        return 0

    mode = "full" if args.full else "quick"

    if args.trajectory is not None:
        # Named files are shown as given; by default every committed
        # snapshot of the selected mode, oldest first.
        import pathlib
        paths = args.trajectory or sorted(
            (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
             ).glob("BENCH_*.json"))
        try:
            docs = [load_bench(path) for path in paths]
            if not args.trajectory:
                docs = sorted((doc for doc in docs if doc["mode"] == mode),
                              key=lambda doc: doc["written_at"])
            if not docs:
                raise ValueError(f"no {mode}-mode BENCH files to show")
            rows = trajectory(docs)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"bench trajectory ({docs[0]['mode']} mode, median ms)")
        print(format_trajectory([doc["label"] for doc in docs], rows))
        return 0

    if args.compare and args.against:
        try:
            rows = compare(load_bench(args.compare), load_bench(args.against),
                           max_regression=args.max_regression)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_compare(rows))
        regs = regressions(rows)
        if regs:
            print(f"{len(regs)} regression(s) beyond tolerance",
                  file=sys.stderr)
            return 0 if args.warn_only else 1
        return 0

    def progress(result: dict) -> None:
        print(f"  {result['name']:<28s} {result['seconds'] * 1e3:9.2f}ms "
              f"(best of {result['repeats']})", file=sys.stderr)

    try:
        doc = run_bench(names=args.name or None, mode=mode, jobs=args.jobs,
                        label=args.label, progress=progress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_bench(doc, path=args.out)
    print(f"wrote {path} ({len(doc['benchmarks'])} benchmarks, mode={mode})")
    for key, value in sorted(doc["derived"].items()):
        print(f"  {key}: {value}")
    rc = 0
    if doc["failures"]:
        for name, error in sorted(doc["failures"].items()):
            print(f"benchmark {name} failed: {error}", file=sys.stderr)
        rc = 1
    if args.compare:
        try:
            rows = compare(load_bench(args.compare), doc,
                           max_regression=args.max_regression)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_compare(rows))
        regs = regressions(rows)
        if regs:
            print(f"{len(regs)} regression(s) beyond tolerance",
                  file=sys.stderr)
            if not args.warn_only:
                rc = 1
    return rc


def _run_chaos(args) -> int:
    """``repro chaos``: expand a (protocol × fault × seed) acceptance
    matrix, run it through the campaign engine, and fail unless every
    cell recovered post-disruption."""
    from .campaign import ResultStore
    from .faults import FAULT_PRESETS, expand_chaos, run_chaos_matrix

    backends = ["sim", "live"] if args.backend == "both" else [args.backend]
    try:
        if args.corpus:
            from .traces import CorpusError, expand_corpus_chaos, load_corpus
            try:
                corpus = load_corpus(args.corpus)
                tasks = expand_corpus_chaos(
                    corpus,
                    protocols=args.protocol or ["verus", "cubic"],
                    faults=args.fault or ["blackout", "chaos"],
                    seeds=args.seeds,
                    duration=args.duration,
                    backends=backends,
                    flows=args.flows,
                    deadline=args.deadline,
                    base_seed=args.base_seed,
                    names=args.trace or None,
                )
            except CorpusError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            tasks = expand_chaos(
                protocols=args.protocol or ["verus", "cubic"],
                faults=args.fault or ["blackout", "chaos"],
                seeds=args.seeds,
                duration=(args.duration if args.duration is not None
                          else 20.0),
                backends=backends,
                scenario=args.scenario,
                flows=args.flows,
                deadline=args.deadline,
                base_seed=args.base_seed,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        rows = [{"task": i, "protocol": t.protocol, "fault": t.fault,
                 "backend": t.backend, "seed_index": t.seed_index,
                 "seed": t.seed, "key": t.key()[:12]}
                for i, t in enumerate(tasks)]
        print(format_table(rows, title=f"chaos matrix ({len(tasks)} cells, "
                                       f"dry run)"))
        return 0

    store = None if args.no_cache else ResultStore(args.cache_dir)

    def progress(outcome, done, total) -> None:
        note = outcome.status
        if outcome.ok and isinstance(outcome.result, dict):
            note += (" recovered" if outcome.result.get("recovered")
                     else " NOT-RECOVERED")
            if outcome.result.get("degraded"):
                note += " degraded"
        if outcome.error:
            note += f": {outcome.error}"
        print(f"[{done}/{total}] cell {outcome.index} {note} "
              f"({outcome.seconds:.1f}s)", file=sys.stderr)

    result = run_chaos_matrix(tasks, jobs=args.jobs, store=store,
                              resume=args.resume, timeout=args.timeout,
                              retries=args.retries, progress=progress)
    rows = result.rows()
    print(format_table(rows, title="chaos acceptance matrix "
                                   "(recovered / cells per group)"))
    stats = result.stats
    print(f"cells: {stats.total}  executed: {stats.executed}  "
          f"cached: {stats.cached}  failed: "
          f"{stats.failed + stats.timeouts}  retries: {stats.retries}")
    if store is not None:
        print(f"cache '{args.cache_dir}': {store.hits} hits, "
              f"{store.misses} misses, {store.writes} writes")
    if args.out:
        import json
        from pathlib import Path
        Path(args.out).write_text(json.dumps(rows, indent=2))
        print(f"wrote matrix rows to {args.out}")
    if not result.all_ok:
        print("FAIL: some cells did not execute", file=sys.stderr)
        return 1
    if not result.all_recovered:
        print("FAIL: some flows did not recover post-disruption",
              file=sys.stderr)
        return 1
    print("all flows recovered")
    return 0


def _run_check(args) -> int:
    """``repro check``: run the conformance pipeline — invariant-audited
    scenarios, golden-trace diffs (or ``--bless``), the sim<->live
    differential harness, and the mutation smoke."""
    from .check import run_conformance

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    result = run_conformance(
        protocols=args.protocol or None,
        golden_dir=args.golden_dir,
        jobs=args.jobs,
        bless=args.bless,
        with_differential=not args.no_live,
        with_mutation=not args.no_mutation,
        differential_duration=args.live_duration,
        log=log,
    )

    print(format_table([row.to_dict() for row in result.rows],
                       title="invariant audit + golden traces"))
    for row in result.rows:
        for message in row.messages:
            print(f"  {row.protocol}: {message}", file=sys.stderr)
    if result.blessed_paths:
        for path in result.blessed_paths:
            print(f"blessed {path}")
    if result.differential:
        print(format_table(
            [d.to_dict() for d in result.differential],
            title="differential sim<->live (calibrated envelopes)"))
        for d in result.differential:
            for message in d.messages:
                print(f"  {d.protocol}: {message}", file=sys.stderr)
    if result.mutants:
        print(format_table(
            [{"mutant": m.name, "protocol": m.protocol,
              "caught_by": ", ".join(m.caught_by) or "NOT CAUGHT"}
             for m in result.mutants],
            title="mutation smoke (every mutant must be caught)"))
    if result.ok:
        print("conformance: OK")
        return 0
    print("conformance: FAIL", file=sys.stderr)
    return 1


def _run_corpus(args) -> int:
    """``repro corpus``: manage content-addressed trace corpora — build
    preset families, verify integrity, characterize, import, convert."""
    from .traces import (
        CorpusError,
        build_corpus,
        convert,
        import_trace,
        load_corpus,
    )

    try:
        if args.action == "build":
            def progress(name: str, status: str) -> None:
                print(f"  {name}: {status}", file=sys.stderr)
            report = build_corpus(root=args.dir, preset=args.preset,
                                  jobs=args.jobs, force=args.force,
                                  progress=progress)
            print(f"corpus '{report.corpus.name}' at {args.dir}: "
                  f"built: {len(report.built)}  "
                  f"unchanged: {len(report.unchanged)}")
            return 0
        if args.action == "convert":
            count = convert(args.src, args.dst, from_fmt=args.from_fmt,
                            to_fmt=args.to_fmt)
            print(f"wrote {count} delivery opportunities to {args.dst}")
            return 0

        corpus = load_corpus(args.dir)
        if args.action == "verify":
            report = corpus.verify()
            rows = [{"trace": name, "status": status}
                    for name, status in sorted(report.items())]
            print(format_table(rows, title=f"corpus verify ({args.dir})"))
            mismatched = sum(1 for s in report.values()
                             if s.startswith("mismatch"))
            missing = sum(1 for s in report.values() if s == "missing")
            print(f"ok: {len(report) - mismatched - missing}  "
                  f"missing: {missing}  mismatched: {mismatched}")
            return 1 if mismatched else 0
        if args.action == "list":
            rows = [{"trace": name,
                     "kind": corpus.entries[name].source.get("kind"),
                     "opportunities": corpus.entries[name].opportunities,
                     "duration_s": corpus.entries[name].stats.get(
                         "duration_s"),
                     "sha256": corpus.entries[name].sha256[:12]}
                    for name in corpus.names()]
            print(format_table(rows, title=f"corpus '{corpus.name}' "
                                           f"({len(rows)} traces)"))
            return 0
        if args.action == "stats":
            names = args.trace or corpus.names()
            payload = {name: corpus.entry(name).stats for name in names}
            if args.json:
                import json
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                rows = [{"trace": name, **stats}
                        for name, stats in sorted(payload.items())]
                print(format_table(rows, title="corpus trace statistics"))
            return 0
        if args.action == "import":
            entry = import_trace(corpus, args.file, name=args.name,
                                 fmt=args.format, overwrite=args.overwrite)
            print(f"imported {entry.name!r}: {entry.opportunities} "
                  f"opportunities, sha256 {entry.sha256[:12]}")
            return 0
    except (CorpusError, ValueError, OSError) as exc:
        # TraceFormatError is a ValueError, so malformed files land here
        # too, not as tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: unknown corpus action {args.action!r}", file=sys.stderr)
    return 2


def _run_soak(args) -> int:
    """``repro soak``: budgeted endurance runs over randomized (but
    seed-reproducible) protocol × fault × channel cells, supervised by
    worker watchdogs, with crash bundles, quarantine and triage."""
    from .resilience import SoakReport, SoakSpec, load_ledger
    from .resilience.soak import replay_cell, run_soak

    inject = {}
    for item in args.inject or []:
        try:
            mode, _, draw = item.partition("@")
            inject[int(draw)] = {"mode": mode}
        except ValueError:
            print(f"error: --inject wants MODE@DRAW, got {item!r}",
                  file=sys.stderr)
            return 2
    try:
        spec = SoakSpec(
            seed=args.seed,
            budget_cells=args.budget_cells,
            budget_seconds=args.budget_seconds,
            protocols=args.protocol or SoakSpec.protocols,
            faults=args.fault or SoakSpec.faults,
            scenarios=args.scenario or SoakSpec.scenarios,
            corpus=args.corpus,
            duration=args.duration,
            flows=args.flows,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            stall_after=args.stall_after,
            rss_limit_mb=args.rss_mb,
            state_dir=args.state_dir,
            inject=inject,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.report:
        records = load_ledger(spec.state_dir)
        if not records:
            print(f"no soak ledger under {spec.state_dir}", file=sys.stderr)
            return 2
        report = SoakReport(records)
        print(report.render())
        return 0 if report.ok else 1

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    if args.replay:
        try:
            record = replay_cell(spec, args.replay)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"replay {args.replay}: {record.kind} "
              f"(status {record.status}, attempts {record.attempts})")
        if record.error:
            print(f"  error: {record.error}")
        if record.bundle:
            print(f"  bundle: {record.bundle}")
        return 0 if record.kind in ("ok", "flaky") else 1

    def progress(outcome, done, total) -> None:
        note = outcome.status
        if outcome.error:
            note += f": {outcome.error}"
        print(f"  [{done}/{total}] cell {outcome.index} {note} "
              f"({outcome.seconds:.1f}s)", file=sys.stderr)

    result = run_soak(spec, fresh=args.fresh,
                      progress=progress if args.verbose else None, log=log)
    report = result.report
    print(report.render())
    print(f"draws: {result.draws}  quarantined-skips: {result.skipped}  "
          f"executed: {result.stats['executed']}  "
          f"cached: {result.stats['cached']}  "
          f"retries: {result.stats['retries']}  "
          f"pool-restarts: {result.stats['pool_restarts']}")
    print(f"scenario draw {result.digest}")
    if report.ok:
        print("soak: OK (nothing worse than flakiness)")
        return 0
    print("soak: FAIL — non-flaky failure signatures present",
          file=sys.stderr)
    return 1


EXPERIMENTS: Dict[str, Callable] = {
    "fig1": _run_fig1, "fig2": _run_fig2, "fig3": _run_fig3,
    "fig4": _run_fig4, "fig5": _run_fig5, "fig7": _run_fig7,
    "fig8": _run_fig8, "fig9": _run_fig9, "fig10": _run_fig10,
    "table1": _run_table1, "fig11": _run_fig11, "fig12": _run_fig12,
    "fig13": _run_fig13, "fig14": _run_fig14, "fig15": _run_fig15,
    "sensitivity": _run_sensitivity, "shortflows": _run_shortflows,
    "uplink": _run_uplink, "landscape": _run_landscape,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verus-repro",
        description="Reproduce experiments from the Verus paper (SIGCOMM'15)")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--duration", type=float, default=60.0,
                     help="simulated seconds per run (default 60)")
    run.add_argument("--reps", type=int, default=2,
                     help="repetitions for averaged experiments")
    run.add_argument("--telemetry", action="store_true",
                     help="attach a telemetry session and write "
                          "timeline/meter artifacts after the run")
    run.add_argument("--telemetry-out", default=".", metavar="DIR",
                     help="directory for --telemetry artifacts (default .)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the experiment's paper-default seed")

    quick = sub.add_parser("quickstart", help="Verus vs Cubic on one trace")
    quick.add_argument("--duration", type=float, default=30.0)
    quick.add_argument("--seed", type=int, default=None,
                       help="channel/queue seed (default 1)")

    live = sub.add_parser(
        "live", help="run protocols over real UDP through the link emulator")
    live.add_argument("--protocol", action="append", default=None,
                      help="flow protocol; repeat for several concurrent "
                           "flows (default: verus)")
    live.add_argument("--scenario", default="city_driving")
    live.add_argument("--technology", default="3g", choices=["3g", "lte"])
    live.add_argument("--duration", type=float, default=10.0,
                      help="wall-clock seconds (default 10)")
    live.add_argument("--seed", type=int, default=None,
                      help="channel/queue seed (default 1)")
    live.add_argument("--trace", default=None,
                      help="replay a Mahimahi-style trace file instead of "
                           "generating the scenario")
    live.add_argument("--compare-sim", action="store_true",
                      help="also run the equivalent simulated session and "
                           "print both result tables")

    report = sub.add_parser(
        "report", help="run the full reproduction and write a markdown report")
    report.add_argument("--duration", type=float, default=45.0)
    report.add_argument("--items", nargs="*", default=None,
                        help="subset of report items (default: all)")
    report.add_argument("--jobs", type=int, default=1,
                        help="run report items on N worker processes "
                             "(default 1: serial, in-process)")
    report.add_argument("--out", default=None,
                        help="write to a file instead of stdout")

    sweep = sub.add_parser(
        "sweep", help="run a scenario×protocol×seeds campaign grid with "
                      "process-level parallelism and a durable result cache")
    sweep.add_argument("--scenario", action="append", default=None,
                       help="scenario name (or, with --corpus, a trace "
                            "name); repeat for several "
                            "(default: campus_pedestrian, city_driving / "
                            "every corpus trace)")
    sweep.add_argument("--corpus", default=None, metavar="DIR",
                       help="draw the scenario axis from a trace corpus: "
                            "every trace (or the --scenario subset) becomes "
                            "a replayed grid entry pinned by content hash")
    sweep.add_argument("--protocol", action="append", default=None,
                       help="protocol name; repeat for several "
                            "(default: verus, cubic)")
    sweep.add_argument("--flows", action="append", type=int, default=None,
                       help="concurrent flows per cell; repeat for several "
                            "(default: 3)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seed repetitions per cell (default 1)")
    sweep.add_argument("--duration", type=float, default=None,
                       help="simulated seconds per cell (default 30; with "
                            "--corpus, each trace's own recorded length)")
    sweep.add_argument("--technology", default="3g", choices=["3g", "lte"])
    sweep.add_argument("--base-seed", type=int, default=0,
                       help="campaign seed; per-task seeds are derived "
                            "deterministically from it (default 0)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: serial)")
    sweep.add_argument("--chunk", type=int, default=None,
                       help="payloads dispatched per pooled future "
                            "(default: auto; batches only large grids)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task timeout in seconds (pooled runs only)")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retries per failing task (default 1)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="result store location (default .repro-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="run without reading or writing the store")
    sweep.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="skip tasks already in the store (default)")
    sweep.add_argument("--fresh", dest="resume", action="store_false",
                       help="re-execute every task, ignoring stored results")
    sweep.add_argument("--telemetry", action="store_true",
                       help="collect per-task span timings (queue wait, "
                            "trace generation, simulation run) and print "
                            "the rollup")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the expanded grid and exit")
    sweep.add_argument("--out", default=None,
                       help="also write aggregated rows as JSON")

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection acceptance matrix: every "
                      "protocol must recover after every fault schedule")
    chaos.add_argument("--protocol", action="append", default=None,
                       help="protocol name; repeat for several "
                            "(default: verus, cubic)")
    chaos.add_argument("--fault", action="append", default=None,
                       help="fault preset; repeat for several "
                            "(default: blackout, chaos)")
    chaos.add_argument("--backend", default="sim",
                       choices=["sim", "live", "both"],
                       help="where cells run: the simulator, the live UDP "
                            "loopback emulator, or both (default sim)")
    chaos.add_argument("--scenario", default="campus_stationary")
    chaos.add_argument("--corpus", default=None, metavar="DIR",
                       help="run cells over the traces of a corpus instead "
                            "of the synthesized --scenario channel")
    chaos.add_argument("--trace", action="append", default=None,
                       help="with --corpus: restrict to these trace names; "
                            "repeat for several (default: every trace)")
    chaos.add_argument("--flows", type=int, default=1,
                       help="concurrent flows per cell (default 1)")
    chaos.add_argument("--seeds", type=int, default=1,
                       help="seed repetitions per cell (default 1)")
    chaos.add_argument("--duration", type=float, default=None,
                       help="seconds per cell — wall-clock on the live "
                            "backend (default 20; with --corpus, each "
                            "trace's own recorded length)")
    chaos.add_argument("--deadline", type=float, default=3.0,
                       help="post-disruption recovery deadline in seconds "
                            "(default 3)")
    chaos.add_argument("--base-seed", type=int, default=0)
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: serial)")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-cell timeout in seconds (pooled runs only)")
    chaos.add_argument("--retries", type=int, default=1)
    chaos.add_argument("--cache-dir", default=".repro-cache",
                       help="result store location (default .repro-cache)")
    chaos.add_argument("--no-cache", action="store_true")
    chaos.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="skip cells already in the store (default)")
    chaos.add_argument("--fresh", dest="resume", action="store_false",
                       help="re-execute every cell, ignoring stored results")
    chaos.add_argument("--dry-run", action="store_true",
                       help="print the expanded matrix and exit")
    chaos.add_argument("--out", default=None,
                       help="also write matrix rows as JSON")

    check = sub.add_parser(
        "check", help="run the conformance suite: invariant monitors, "
                      "golden-trace diffs, sim<->live differential, and "
                      "mutation smoke")
    check.add_argument("--protocol", action="append", default=None,
                       help="protocol to audit; repeat for several "
                            "(default: verus, cubic, vegas)")
    check.add_argument("--bless", action="store_true",
                       help="regenerate the golden traces instead of "
                            "diffing against them")
    check.add_argument("--golden-dir", default=None,
                       help="golden trace directory "
                            "(default: tests/golden in the repo)")
    check.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the audited scenarios "
                            "(default 1: serial; results are bit-identical "
                            "either way)")
    check.add_argument("--no-live", action="store_true",
                       help="skip the sim<->live differential harness")
    check.add_argument("--no-mutation", action="store_true",
                       help="skip the mutation smoke")
    check.add_argument("--live-duration", type=float, default=3.0,
                       help="wall-clock seconds per differential run "
                            "(default 3)")

    corpus = sub.add_parser(
        "corpus", help="manage content-addressed trace corpora: build "
                       "seeded presets, verify integrity, characterize, "
                       "import and convert trace files")
    corpus_sub = corpus.add_subparsers(dest="action", required=True)

    def _corpus_dir(p) -> None:
        p.add_argument("--dir", default=".repro-corpus",
                       help="corpus directory (default .repro-corpus)")

    cb = corpus_sub.add_parser(
        "build", help="synthesize a preset trace family; re-running is a "
                      "content-addressed no-op")
    _corpus_dir(cb)
    cb.add_argument("--preset", default="default",
                    help="corpus preset name: default or mini")
    cb.add_argument("--jobs", type=int, default=1,
                    help="synthesis worker processes (default 1; output is "
                         "bit-identical at any value)")
    cb.add_argument("--force", action="store_true",
                    help="re-synthesize even if files are already current")

    cv = corpus_sub.add_parser(
        "verify", help="re-hash every trace file against the manifest")
    _corpus_dir(cv)

    cs = corpus_sub.add_parser(
        "stats", help="per-trace characterization (rates, outages, "
                      "burstiness)")
    _corpus_dir(cs)
    cs.add_argument("--trace", action="append", default=None,
                    help="trace name; repeat for several (default: all)")
    cs.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of a table")

    cl = corpus_sub.add_parser("list", help="list the corpus manifest")
    _corpus_dir(cl)

    ci = corpus_sub.add_parser(
        "import", help="import an external trace file (any supported "
                       "format) with provenance")
    _corpus_dir(ci)
    ci.add_argument("file", help="trace file to import")
    ci.add_argument("--name", default=None,
                    help="corpus trace name (default: the file's stem)")
    ci.add_argument("--format", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="source format (default: auto-detect)")
    ci.add_argument("--overwrite", action="store_true",
                    help="replace an existing trace of the same name")

    cc = corpus_sub.add_parser(
        "convert", help="convert a trace file between formats (lossless)")
    cc.add_argument("src", help="input trace file")
    cc.add_argument("dst", help="output trace file")
    cc.add_argument("--from", dest="from_fmt", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="input format (default: auto-detect)")
    cc.add_argument("--to", dest="to_fmt", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="output format (default: by extension, mahimahi)")

    bench = sub.add_parser(
        "bench", help="performance benchmark suite (obs subsystem)")
    bench_mode = bench.add_mutually_exclusive_group()
    bench_mode.add_argument("--quick", action="store_true",
                            help="small pinned workloads (default)")
    bench_mode.add_argument("--full", action="store_true",
                            help="full workloads with more repeats")
    bench.add_argument("--name", action="append", default=None,
                       metavar="BENCH",
                       help="run only the named benchmark (repeatable; "
                            "default all)")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (timings then share cores)")
    bench.add_argument("--label", default="local",
                       help="label embedded in the BENCH_<label>.json name")
    bench.add_argument("--out", default=None,
                       help="output path (default BENCH_<label>.json in cwd)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff results against this BENCH file")
    bench.add_argument("--against", default=None, metavar="CURRENT",
                       help="with --compare: diff BASELINE against this "
                            "file instead of running benchmarks")
    bench.add_argument("--warn-only", action="store_true",
                       help="report regressions without failing the exit "
                            "code")
    bench.add_argument("--max-regression", type=float, default=None,
                       metavar="FRAC",
                       help="cap every benchmark's regression band at this "
                            "fraction of the baseline (the CI ratchet uses "
                            "0.10: fail anything >10%% slower)")
    bench.add_argument("--trajectory", nargs="*", default=None,
                       metavar="BENCH",
                       help="print the median of every benchmark across "
                            "BENCH files, one column each (default: the "
                            "committed benchmarks/BENCH_*.json of the "
                            "--quick/--full mode); mixed modes are refused")
    bench.add_argument("--profile", action="append", default=None,
                       metavar="HOTPATH",
                       help="cProfile a named hot path (engine, interp, "
                            "channel, red_queue, contention) instead of "
                            "benchmarking")

    soak = sub.add_parser(
        "soak", help="budgeted endurance harness: randomized (seed-"
                     "reproducible) cells under worker watchdogs, with "
                     "crash bundles, quarantine and failure triage")
    soak.add_argument("--budget-cells", type=int, default=50,
                      help="stop after drawing this many cells (default 50)")
    soak.add_argument("--budget-seconds", type=float, default=None,
                      help="stop after this much wall-clock time")
    soak.add_argument("--seed", type=int, default=0,
                      help="base seed; draw i is a pure function of "
                           "(seed, i) (default 0)")
    soak.add_argument("--protocol", action="append", default=None,
                      help="protocol axis entry; repeat for several "
                           "(default: verus, sprout, cubic, newreno)")
    soak.add_argument("--fault", action="append", default=None,
                      help="fault-preset axis entry; repeat for several "
                           "(default: every preset)")
    soak.add_argument("--scenario", action="append", default=None,
                      help="synth scenario axis entry; repeat for several "
                           "(default: all seven paper scenarios)")
    soak.add_argument("--corpus", default=None, metavar="DIR",
                      help="draw the channel axis from a trace corpus "
                           "instead of synth scenarios")
    soak.add_argument("--duration", type=float, default=4.0,
                      help="simulated seconds per cell (default 4)")
    soak.add_argument("--flows", type=int, default=1)
    soak.add_argument("--jobs", type=int, default=2,
                      help="worker processes (default 2; the watchdog "
                           "needs a pool to preempt)")
    soak.add_argument("--timeout", type=float, default=60.0,
                      help="hard per-cell wall deadline (default 60)")
    soak.add_argument("--retries", type=int, default=1)
    soak.add_argument("--stall-after", type=float, default=2.0,
                      help="kill a worker whose heartbeat goes stale for "
                           "this long (default 2)")
    soak.add_argument("--rss-mb", type=int, default=1024,
                      help="kill a worker whose RSS exceeds this budget "
                           "(default 1024; 0 disables)")
    soak.add_argument("--state-dir", default=".repro-soak",
                      help="ledger/quarantine/bundle directory "
                           "(default .repro-soak)")
    soak.add_argument("--fresh", action="store_true",
                      help="clear the ledger and the quarantine poison "
                           "list before running")
    soak.add_argument("--inject", action="append", default=None,
                      metavar="MODE@DRAW",
                      help="inject a failure (crash|hang|oom) at a draw "
                           "index, e.g. --inject hang@0 (test hook; "
                           "repeatable)")
    soak.add_argument("--report", action="store_true",
                      help="render the triage report from the ledger and "
                           "exit (non-zero on any non-flaky signature)")
    soak.add_argument("--replay", default=None, metavar="KEY",
                      help="re-run one recorded cell by key prefix under "
                           "full supervision")
    soak.add_argument("--verbose", action="store_true",
                      help="per-cell progress on stderr")

    trace = sub.add_parser("trace", help="generate a channel trace file")
    trace.add_argument("--scenario", default="city_driving")
    trace.add_argument("--technology", default="3g", choices=["3g", "lte"])
    trace.add_argument("--duration", type=float, default=60.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "run":
        if args.telemetry:
            from .obs import TelemetrySession, telemetry, write_session
            session = TelemetrySession()
            with telemetry(session):
                EXPERIMENTS[args.experiment](args)
            for path in write_session(session, args.telemetry_out,
                                      prefix=f"telemetry_{args.experiment}"):
                print(f"wrote {path}")
        else:
            EXPERIMENTS[args.experiment](args)
        return 0
    if args.command == "quickstart":
        from . import quick_comparison
        print(format_table(quick_comparison(duration=args.duration,
                                            **_seed_kwargs(args)),
                           title="Verus vs TCP Cubic (shared 3G trace)"))
        return 0
    if args.command == "live":
        _run_live(args)
        return 0
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "check":
        return _run_check(args)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "soak":
        if args.rss_mb is not None and args.rss_mb <= 0:
            args.rss_mb = None
        return _run_soak(args)
    if args.command == "report":
        from .experiments.full_report import generate_report
        text = generate_report(duration=args.duration, items=args.items,
                               jobs=args.jobs)
        if args.out:
            from pathlib import Path
            Path(args.out).write_text(text)
            print(f"wrote report to {args.out}")
        else:
            print(text)
        return 0
    if args.command == "trace":
        from .cellular import generate_scenario_trace, save_trace
        trace_arr = generate_scenario_trace(args.scenario,
                                            duration=args.duration,
                                            technology=args.technology,
                                            seed=args.seed)
        save_trace(args.out, trace_arr)
        print(f"wrote {trace_arr.size} delivery opportunities to {args.out}")
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
