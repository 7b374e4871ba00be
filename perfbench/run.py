"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verus_highrate --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work once untraced and once with spans
recorded around the program's public functions and methods, and reports
the per-layer metrics.  Either way the simulated outputs are checked,
the work ledger (exact counts and digests) is written to
``.perfbench/ledger-<workload>-seed<seed>-trace<t>.json``, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Held out while the benchmark was written: a later performance claim
#: is confirmed on this seed too.
HELD_OUT_SEED = 7919
#: Times the imports and the input generation are repeated; ``setup_s``
#: adds their medians.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import repro.experiments, repro.faults, repro.campaign; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time to import the program's entry points, each import in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb(uses_pool: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's when the
    workload runs a worker pool."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if uses_pool:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(reps, setup_s: float, rss_mb: float) -> dict:
    med = statistics.median
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(r.wall_s for r in reps), "s"),
        "cpu_us_per_pkt": (med(r.cpu_s / r.packets * 1e6 for r in reps),
                           "us"),
        "rate_scaling": (med(r.leg_ratio for r in reps), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


#: Metrics that improve upwards; every other metric improves downwards.
HIGHER_IS_BETTER = {"campaign.cells_per_s", "campaign.warm_cells_per_s",
                    "campaign.cell_samples", "campaign.cached",
                    "campaign.busy_frac"}

#: The sweep's cell figures.  They exist on ``sweep`` only, so they are
#: per-layer metrics of ``campaign``; the untraced run prints them too.
SWEEP_CELL_METRICS = {"campaign.cells_per_s": "1/s",
                      "campaign.cell_p50_s": "s",
                      "campaign.cell_p90_s": "s",
                      "campaign.cell_samples": "count",
                      "campaign.warm_cells_per_s": "1/s"}

#: Layers whose self-time share the traced run reports.
LAYERS = ("netsim", "core", "interp", "tcp", "sprout", "faults",
          "cellular", "experiments", "campaign")


def per_layer(rec, counts: dict, layer: dict, overhead: float) -> dict:
    events = counts["netsim.events"]
    metrics = {
        "netsim.events": (events, "count"),
        "netsim.self_us_per_event": (
            rec.self_s("netsim.run") / events * 1e6 if events else 0.0,
            "us"),
        "netsim.queue.push_us": (rec.per_call_us("netsim.queue.push"), "us"),
        "netsim.link.send_us": (rec.per_call_us("netsim.link.send"), "us"),
        "core.on_ack.calls": (rec.count("core.on_ack"), "count"),
        "core.on_ack.self_us": (rec.per_call_us("core.on_ack", True), "us"),
        "core.profiler.add_sample_us": (
            rec.per_call_us("core.profiler.add_sample"), "us"),
        "core.profiler.interpolate_s": (
            rec.total_s("core.profiler.interpolate"), "s"),
        "interp.build_s": (rec.total_s("interp.build"), "s"),
        "tcp.on_ack.calls": (rec.count("tcp.on_ack"), "count"),
        "tcp.on_ack.self_us": (rec.per_call_us("tcp.on_ack", True), "us"),
        "faults.injector.send_us": (
            rec.per_call_us("faults.injector.send"), "us"),
        "sprout.on_tick.calls": (rec.count("sprout.on_tick"), "count"),
        "sprout.on_tick_us": (rec.per_call_us("sprout.on_tick"), "us"),
        "cellular.generate_s": (rec.total_s("cellular.generate"), "s"),
        "experiments.summary_s": (rec.total_s("experiments.summary"), "s"),
        "campaign.store.put_us": (
            rec.per_call_us("campaign.store.put"), "us"),
        "campaign.store.get_us": (
            rec.per_call_us("campaign.store.get"), "us"),
        "campaign.key_us": (rec.per_call_us("campaign.key"), "us"),
        "trace_overhead": (overhead, "ratio"),
    }
    for name in ("netsim.queue.enqueued", "netsim.queue.tail_drops",
                 "netsim.queue.red_drops", "core.retransmissions",
                 "core.timeouts", "core.abandoned", "tcp.retransmissions",
                 "tcp.timeouts", "faults.burst_losses"):
        metrics[name] = (counts[name], "count")
    for name in ("campaign.executed", "campaign.cached", "campaign.failed",
                 "campaign.retried"):
        metrics[name] = (int(layer.get(name, 0)), "count")
    for name, unit in dict(SWEEP_CELL_METRICS, **{
            "campaign.busy_frac": "ratio",
            "campaign.queue_wait_p50_s": "s",
            "campaign.trace_gen_s": "s",
            "campaign.sim_run_s": "s"}).items():
        metrics[name] = (layer.get(name, 0), unit)
    shares = rec.layer_self_s()
    total = sum(shares.values())
    for name in LAYERS:
        metrics[f"{name}.self_frac"] = (
            shares.get(name, 0.0) / total if total else 0.0, "ratio")
    return metrics


def measure(wl, tally, seconds: float):
    """Repeat the fixed work until ``seconds`` would be exceeded (at
    least twice) and check that every repetition simulated the same."""
    reps, spent = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        reps.append(wl.rep(tally))
        spent.append(time.perf_counter() - begun)
        if len(reps) >= 2 and (time.perf_counter() - started
                               + statistics.median(spent) > seconds):
            break
    for rep in reps[1:]:
        tally.record(rep.digests == reps[0].digests
                     and rep.counts == reps[0].counts,
                     "simulated work changed between repetitions")
    return reps


def traced(wl, tally):
    """One untraced and one traced pass of the same work."""
    from spans import SpanRecorder
    from workloads import install_sim_spans, collected_counts

    plain = wl.rep(tally)
    plain_wall = plain.wall_s + wl.replay(tally)
    # The set-up's trace synthesis is recorded apart, so that the
    # self-time shares cover the timed work only.
    setup_rec = SpanRecorder()
    install_sim_spans(setup_rec)
    try:
        wl.setup()
    finally:
        setup_rec.restore()
    rec = SpanRecorder()
    rep = wl.rep(tally, rec)
    traced_wall = rep.wall_s + wl.replay(tally, rec)
    tally.record(rep.digests == plain.digests and rep.counts == plain.counts,
                 "tracing changed the simulated work")
    metrics = per_layer(rec, collected_counts(rec), rep.layer,
                        traced_wall / plain_wall)
    metrics["cellular.generate_s"] = (
        metrics["cellular.generate_s"][0]
        + setup_rec.total_s("cellular.generate"), "s")
    return rep, metrics, rec


def write_ledger(args, reps, metrics, tally, rec) -> str:
    from workloads import WORK_DIR
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"ledger-{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    rep = reps[-1]
    ledger = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "digests": rep.digests, "counts": rep.counts,
        "repetitions": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                         "packets": r.packets} for r in reps],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "spans": rec.as_dict() if rec is not None else {},
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
    }
    if args.trace:
        # Exact per-layer counts join the ledger beside the digests.
        ledger["counts"] = dict(ledger["counts"], **{
            name: value for name, (value, unit) in metrics.items()
            if unit == "count"})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verus_highrate", "cell_tcp", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; seed "
                             f"{HELD_OUT_SEED} is held out for confirming "
                             f"performance claims)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="size of the fixed work (tiny: self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Tally, reap_children

    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed, args.scale)
    rec = None
    try:
        imports = import_seconds()
        generation = []
        for _ in range(SETUP_REPEATS):
            begun = time.perf_counter()
            wl.setup()
            generation.append(time.perf_counter() - begun)
        setup_s = imports + statistics.median(generation)
        if args.trace:
            rep, metrics, rec = traced(wl, tally)
            reps = [rep]
        else:
            reps = measure(wl, tally, args.seconds)
            rep = reps[-1]
            wl.final_checks(tally)
            reap_children()
            metrics = end_to_end(reps, setup_s, peak_rss_mb(wl.uses_pool))
    finally:
        wl.cleanup()
        reap_children()

    ledger = write_ledger(args, reps, metrics, tally, rec)
    shown = dict(metrics)
    if not args.trace and rep.layer:
        shown.update({name: (statistics.median(r.layer[name] for r in reps),
                             unit)
                      for name, unit in SWEEP_CELL_METRICS.items()})
    for name, (value, unit) in shown.items():
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        print(f"{args.workload:>15} {name:<28} {value:>14.6g} {unit:<6} "
              f"({better} is better)")
    print(f"{args.workload:>15} failed_frac {tally.failed}/{tally.attempted}"
          f"; ledger {os.path.relpath(ledger, ROOT)}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
