"""End-to-end request benchmark of the explanation system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --capacity --seed 1 --seconds 20

One run sets a workload up several times (``setup_s`` is the median),
measures it for ``--seconds``, then checks every distinct request's report
against the per-pair oracle.  With ``--trace 0`` it prints the end-to-end
metrics, its timings scaled to a reference host speed by the probes of
``hostspeed.py`` (the raw timings are printed too); with ``--trace 1`` it
measures half the time untraced and half with layer spans on, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process.

Per-layer self times are means per read request of the traced phase
(``service.delta.self_s`` and ``engine.verdicts.write_self_s`` per write
on ``service_stream``); counts are means per operation, reads and writes;
ratios are over the traced phase.  See ``perfbench/README.md`` for the
layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import REFERENCE_S

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
#: Host-speed probes right before and right after each set-up.
PROBES_AROUND_SETUP = 5

#: Which end-to-end metric each layer should move, on which workload.
MOVES = {
    "core.candidates": "latency_p50_s on service_stream and explain_cold; none on gateway_pool",
    "obdm.rewriting": "latency_p50_s on explain_cold (small on loans)",
    "engine.verdicts": "latency_tail_s on gateway_pool; write latency on service_stream",
    "core.best_describe": "latency_p50_s on gateway_pool",
    "core.border": "under 5% everywhere: watch for regressions",
    "obdm.certain_answers": "under 5% everywhere: watch for regressions",
    "core.report": "under 5% everywhere: watch for regressions",
    "obdm.backend.lookup": "latency_tail_s on gateway_pool",
    "service.explain": "latency_p50_s on service_stream (session resolution)",
    "service.delta": "write latency and peak_rss_mb on service_stream",
    "request": "(time outside every span)",
}
LAYERS = tuple(MOVES)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(workload, phase, failed: int) -> None:
    samples = len(phase.latencies)
    beyond = samples - math.ceil(workload.TAIL * samples)
    print(f"workload {workload.name}: {phase.attempted} operations attempted, "
          f"{phase.completed} completed, {failed} failed "
          f"(failed_ratio {ratio(failed, phase.attempted):.4f})")
    print(f"  read latency samples {samples}; tail percentile p{workload.TAIL * 100:g}, "
          f"{beyond} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than ten: a thin tail estimate)"))


# -- one workload ---------------------------------------------------------------

def throughput(workload, phase, clock) -> float:
    """Operations completed per second.

    A closed loop's client is busy for the summed scaled duration of its
    operations; an open loop's wall time is set by its arrival schedule,
    not by the host's speed, so it is not scaled.
    """
    if workload.OPEN_LOOP:
        return ratio(phase.completed, phase.wall)
    return ratio(phase.completed, sum(clock.scale(phase.reads + phase.writes)))


def run_end_to_end(workload, seconds: float):
    clock = workload.clock
    setups = []
    for _ in range(SETUP_REPEATS):
        # Every set-up starts from a collected heap, as the first one does
        # in a fresh process, not amid the garbage of the one before.
        gc.collect()
        clock.probe(PROBES_AROUND_SETUP)
        began = time.perf_counter()
        workload.setup()
        setups.append((began, time.perf_counter()))
        clock.probe(PROBES_AROUND_SETUP)
    phase = workload.measure(seconds)
    rss = peak_rss_mb()
    mismatches = workload.check()
    failed = phase.errors + mismatches
    describe(workload, phase, failed)
    reads = clock.scale(phase.reads)
    metrics = {
        "latency_p50_s": metric(percentile(reads, 0.5), "s"),
        "latency_tail_s": metric(percentile(reads, workload.TAIL), "s"),
        "throughput_rps": metric(throughput(workload, phase, clock), "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(clock.scale(setups)), "s"),
    }
    raw = {
        "latency_p50_s": percentile(phase.latencies, 0.5),
        "latency_tail_s": percentile(phase.latencies, workload.TAIL),
        "throughput_rps": ratio(phase.completed, phase.wall),
        "setup_s": statistics.median(end - start for start, end in setups),
    }
    print(f"  host speed: {len(clock.durations)} probes, median "
          f"{statistics.median(clock.durations) * 1e3:.3f} ms (reference "
          f"{REFERENCE_S * 1e3:g} ms)")
    if phase.writes:
        print(f"  writes {len(phase.writes)}: p50 "
              f"{percentile(clock.scale(phase.writes), 0.5):.4f} s scaled, "
              f"{percentile(phase.write_latencies, 0.5):.4f} s raw")
    print(f"  {'metric':<16} {'scaled':>12} {'raw':>12}")
    for name, entry in metrics.items():
        shown = f"{raw[name]:>12.4f}" if name in raw else f"{'':>12}"
        print(f"  {name:<16} {entry['value']:>12.4f} {shown} {entry['unit']}")
    return phase.attempted, failed, mismatches, metrics


def run_traced(workload, seconds: float, seed: int):
    from spans import (ROOT, WRITE, Installed, Tracer, by_root, self_times,
                       served_durations, write_spans)

    workload.setup()
    untraced = workload.measure(seconds / 2)
    tracer = Tracer()
    before = workload.layer_counts()
    installed = Installed(tracer)
    try:
        traced = workload.measure(seconds / 2, tracer)
    finally:
        installed.restore()
    after = workload.layer_counts()
    counts = {name: value - before.get(name, 0) for name, value in after.items()}
    counts.update(tracer.counts)
    attempted = untraced.attempted + traced.attempted
    mismatches = workload.check()
    failed = untraced.errors + traced.errors + mismatches
    describe(workload, traced, failed)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl")
    write_spans(tracer.spans, spans_path)
    grouped = by_root(tracer.spans)
    self_s, total = self_times(grouped[ROOT])
    write_self, write_total = self_times(grouped[WRITE])
    roots = [span for span in grouped[ROOT] if span[2] is None]
    reads = max(1, len(roots))
    writes = max(1, len(traced.write_latencies))
    ops = max(1, traced.attempted)
    served = served_durations(tracer.spans)
    overheads = [(end - start) / 1e9 - served[span]
                 for _, span, _, _, start, end in roots if span in served]

    def per_op(name):
        return counts.get(name, 0) / ops

    def hit_ratio(prefix):
        hits, misses = counts.get(f"cache.{prefix}_hits", 0), counts.get(f"cache.{prefix}_misses", 0)
        return ratio(hits, hits + misses)

    m = {}
    for layer in LAYERS:
        if layer not in (ROOT, "service.delta"):
            m[f"{layer}.self_s"] = metric(self_s.get(layer, 0.0) / reads, "s")
    m.update({
        "core.candidates.calls": metric(per_op("core.candidates.calls"), "count"),
        "core.candidates.generated": metric(per_op("core.candidates.generated"), "count"),
        "core.candidates.kept_ratio": metric(
            ratio(counts.get("core.candidates.kept", 0), counts.get("core.candidates.generated", 0)),
            "ratio"),
        "core.candidates.truncated": metric(per_op("core.candidates.truncated"), "count"),
        "obdm.rewriting.calls": metric(per_op("obdm.rewriting.calls"), "count"),
        "obdm.rewriting.hit_ratio": metric(hit_ratio("rewriting"), "ratio"),
        "engine.verdicts.rows_computed": metric(per_op("cache.verdict_row_misses"), "count"),
        "engine.verdicts.row_hit_ratio": metric(hit_ratio("verdict_row"), "ratio"),
        "engine.verdicts.subquery_hit_ratio": metric(hit_ratio("subquery"), "ratio"),
        "engine.verdicts.batch_dispatches": metric(per_op("cache.batch_dispatches"), "count"),
        "core.best_describe.calls": metric(per_op("core.best_describe.calls"), "count"),
        "service.warm_ratio": metric(
            ratio(counts.get("service.warm_hits", 0), counts.get("service.requests", 0)), "ratio"),
        "service.drift_updates": metric(per_op("service.drift_updates"), "count"),
        "service.cold_builds": metric(per_op("service.cold_builds"), "count"),
        "engine.cache.evictions": metric(per_op("cache.evictions"), "count"),
        "gateway.overhead_p90_s": metric(percentile(overheads, 0.9), "s"),
        "gateway.coalesced_ratio": metric(
            ratio(counts.get("gateway.coalesced_hits", 0), counts.get("gateway.requests", 0)),
            "ratio"),
        "gateway.queue_depth_max": metric(after.get("gateway.queue_depth_high_water", 0), "count"),
        "gateway.loop_lag_p90_s": metric(percentile(traced.lags, 0.9), "s"),
        "gateway.shed": metric(per_op("gateway.shed_requests"), "count"),
        "gateway.timeouts": metric(per_op("gateway.timeouts"), "count"),
        "obdm.backend.lookup.calls": metric(per_op("obdm.backend.lookup.calls"), "count"),
        "obdm.backend.pushdown_hits": metric(per_op("cache.pushdown_hits"), "count"),
        "obdm.backend.pushdown_fallbacks": metric(per_op("cache.pushdown_fallbacks"), "count"),
        "request.other_s": metric(self_s.get(ROOT, 0.0) / reads, "s"),
        "request.total_s": metric(total / reads, "s"),
        "trace.overhead_ratio": metric(
            ratio(percentile(workload.clock.scale(traced.reads), 0.5),
                  percentile(workload.clock.scale(untraced.reads), 0.5)), "ratio"),
    })
    # Only service_stream writes; the write metrics read 0 on the other workloads.
    m.update({
        "service.delta.self_s": metric(write_self.get("service.delta", 0.0) / writes, "s"),
        "engine.verdicts.write_self_s": metric(
            write_self.get("engine.verdicts", 0.0) / writes, "s"),
        "service.delta.sessions_updated": metric(
            per_op("service.delta.sessions_updated"), "count"),
        "service.delta.borders_touched": metric(
            per_op("service.delta.borders_touched"), "count"),
        "service.write_p50_s": metric(
            percentile(workload.clock.scale(untraced.writes), 0.5), "s"),
        "engine.cache.delta_invalidations": metric(
            per_op("cache.delta_invalidations"), "count"),
    })

    print(f"  traced reads {len(roots)}, writes {len(traced.write_latencies)}; "
          f"spans {len(tracer.spans)} -> {spans_path}")
    print(f"  {'layer':<22} {'self s/read':>11} {'share':>7}  moves")
    for layer in LAYERS:
        own = self_s.get(layer, 0.0) / reads
        label = "request.other_s" if layer == ROOT else layer
        print(f"  {label:<22} {own:>11.5f} {ratio(own, total / reads):>7.1%}  {MOVES[layer]}")
    print(f"  {'sum of self times':<22} {sum(self_s.values()) / reads:>11.5f}  "
          f"request total {total / reads:.5f} s/read")
    if traced.write_latencies:
        print(f"  {'write layer':<22} {'self s/write':>12} {'share':>7}")
        for layer, own in sorted(write_self.items(), key=lambda item: -item[1]):
            print(f"  {layer:<22} {own / writes:>12.5f} {ratio(own, write_total):>7.1%}")
    for name, entry in m.items():
        if not name.endswith(".self_s"):
            print(f"  {name:<36} {entry['value']:>12.5f} {entry['unit']}")
    return attempted, failed, mismatches, m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from scenarios import WORKLOADS

    workload = WORKLOADS[name](seed)
    try:
        if trace:
            attempted, failed, mismatches, metrics = run_traced(workload, seconds, seed)
        else:
            attempted, failed, mismatches, metrics = run_end_to_end(workload, seconds)
    finally:
        workload.close()
    # ``correct`` is about outputs: every served report equals the oracle's.
    # ``failed`` also counts requests that raised, were shed or timed out.
    return {"correct": mismatches == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    from scenarios import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = entry
    return combined


def self_test() -> int:
    """A perturbed report must be counted as failed by the oracle check."""
    from dataclasses import replace

    from scenarios import ExplainCold

    workload = ExplainCold(seed=0)
    workload.setup()
    _, report = workload._request(workload.inputs[0])
    workload.served.add(0, report)
    clean = workload.check()
    # Swap the last two ranked explanations: same queries, wrong order.
    ranked = list(report.explanations)
    ranked[-1], ranked[-2] = ranked[-2], ranked[-1]
    workload.served.add(0, replace(report, explanations=type(report.explanations)(ranked)))
    perturbed = workload.check()
    print(f"self-test: mismatches {clean} on the served report, {perturbed} after adding "
          "a perturbed copy (expected 0 and 1)")
    return 0 if (clean, perturbed) == (0, 1) else 1


def capacity(seed: int, seconds: float) -> int:
    """Print ``gateway_pool``'s closed-loop capacity next to its offered rate."""
    from scenarios import GatewayPool

    workload = GatewayPool(seed)
    try:
        workload.setup()
        arrivals = workload.capacity(seconds)
    finally:
        workload.close()
    print(f"gateway_pool capacity {arrivals:.2f} arrivals/s; offered rate "
          f"{GatewayPool.RATE:g} arrivals/s = {ratio(GatewayPool.RATE, arrivals):.2f} of capacity")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("explain_cold", "service_stream", "gateway_pool", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--capacity", action="store_true",
                        help="measure gateway_pool's capacity with the arrivals of --seconds")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the library from {source}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    # Keep every temporary file (the SQLite tenant's database) inside the checkout.
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    try:
        if args.self_test:
            return self_test()
        if args.capacity:
            return capacity(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
