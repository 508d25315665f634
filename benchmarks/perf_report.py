"""Before/after perf harness: ``python -m benchmarks.perf_report``.

Runs the engine microbenchmarks (:mod:`benchmarks.bench_engine`) and
writes a JSON report -- ``BENCH_PR10.json`` by default -- containing the
median wall-clock time and rate (events/ops/queries per second) of
each workload, alongside "before" numbers so every PR from PR 1 onward
has a perf trajectory to regress against. The ``--check`` gate keeps
comparing against the committed ``BENCH_PR1.json`` rates, so new
reports regress against the PR 1 trajectory.

PR 3 additions: a dense-clique scenario showcasing batched delivery
scheduling (``fanout_clique96_dense``) and a one-shot
``spill_probe`` section recording the on-disk sink's peak Python-heap
footprint during a run + invariant replay (the bounded-memory claim,
in numbers; a ``ColumnarSink`` run).

PR 5 addition: ``e13_churn``, the dynamic-topology workload -- an echo
flood under per-epoch edge churn, measuring the cost of topology-epoch
application on top of the delivery path (no seed counterpart; gated
against its own trajectory from this report onward).

Columnar workloads: ``columnar_clique24`` (an echo flood writing its
full-level trace to binary columnar chunks), ``columnar_replay24`` /
``spill_replay24`` (disk replay of that trace, vectorized vs the
record-iterator reference audit), and a ``columnar`` report section
recording the on-disk bytes per record and the replay speedup, with
its gates evaluated inline: columnar bytes at most 1/4 of the
1,101,202 bytes the same 24,000-record trace took as chunked JSONL,
and vectorized replay >= 3x the reference audit. ``--attach-
smoke`` embeds a :mod:`benchmarks.spill_smoke` JSON summary (the
gated 10^8-event run) under ``columnar_smoke``.

Telemetry workloads: ``wpaxos_clique32_tel`` /
``columnar_clique24_tel`` -- the identical workloads with a live
:class:`~repro.macsim.telemetry.Telemetry` attached -- and a
``telemetry`` report section pricing the observability layer: the
gate fails when telemetry-on throughput drops more than
:data:`TELEMETRY_OVERHEAD_MAX` below telemetry-off on either
workload.

PR 9 additions: ``serve_groups8`` -- the consensus-as-a-service stack
end to end (closed-loop clients, frontend batching, slot derivation,
multiplexed engines), in committed requests/second -- and a
``service`` report section with the p50/p99-latency-vs-offered-load
curve over a (groups, shards) x clients grid and the PR's acceptance
gates: 1-group slot-0 byte-identity, zero failed slots, and an
end-to-end wall request-throughput floor on every cell.

PR 10 additions: ``serve_groups8_traced`` -- the serve workload with
request tracing (span trees + scheduler profile) and the windowed
metrics registry attached -- and a ``tracing`` report section pricing
request-level observability with the telemetry-gate protocol
(interleaved off/on repeats, min-of-N, overhead <= 5%) and recording
the measured cross-group scheduling overhead fraction of
``GroupRuntime.advance``.

"Before" numbers come from, in order of preference:

1. ``--seed-tree PATH`` -- a checkout of the seed commit (e.g. a
   ``git worktree``). The same workloads are re-measured in a
   subprocess with ``PYTHONPATH`` pointing at that tree, giving a
   same-machine, same-session comparison.
2. ``--baseline FILE`` (default ``benchmarks/seed_baseline.json``) --
   numbers recorded when this harness was introduced.

Usage::

    python -m benchmarks.perf_report                 # full run
    python -m benchmarks.perf_report --smoke         # quick CI signal
    python -m benchmarks.perf_report --seed-tree /tmp/seedtree
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from benchmarks import bench_engine

#: Workload registry: name -> (callable() -> work_units, unit label).
#: Workload sizes must stay in sync with benchmarks/seed_baseline.json
#: so rate comparisons are apples-to-apples.
def _workloads() -> Dict[str, Tuple[Callable[[], int], str]]:
    query_trace = bench_engine.build_query_trace(50_000)
    workloads: Dict[str, Tuple[Callable[[], int], str]] = {
        "wpaxos_clique32": (
            lambda: bench_engine.run_wpaxos_clique(32), "events"),
        "event_queue_100k": (
            lambda: bench_engine.run_event_queue(100_000), "ops"),
        "fanout_clique48": (
            lambda: bench_engine.run_broadcast_fanout(48, 5), "events"),
        "trace_queries_50k": (
            lambda: bench_engine.run_trace_queries(query_trace, 100),
            "queries"),
    }
    workloads["sweep_wpaxos_seq"] = (
        lambda: bench_engine.run_sweep_sequential(), "points")
    if bench_engine.TraceLevel is not None:
        level = bench_engine.TraceLevel.DECISIONS
        workloads["wpaxos_clique32_fast"] = (
            lambda: bench_engine.run_wpaxos_clique(32, level), "events")
    if bench_engine.parallel_sweep is not None:
        workloads["sweep_wpaxos_par"] = (
            lambda: bench_engine.run_sweep_parallel(), "points")
    # Dense-clique batched-scheduling scenario: runs on every engine
    # (PR 3 batches the per-broadcast fan-out into one heap entry).
    workloads["fanout_clique96_dense"] = (
        lambda: bench_engine.run_dense_fanout(96, 3), "events")
    if bench_engine.Telemetry is not None:
        workloads["wpaxos_clique32_tel"] = (
            lambda: bench_engine.run_wpaxos_clique_tel(32), "events")
        if bench_engine.ColumnarSink is not None:
            workloads["columnar_clique24_tel"] = (
                lambda: bench_engine.run_columnar_clique_tel(24, 40),
                "events")
    if bench_engine.EdgeChurn is not None:
        workloads["e13_churn"] = (
            lambda: bench_engine.run_churn_clique(24, 40, 0.1),
            "events")
    if bench_engine.HAVE_SWEEP_EXECUTORS:
        workloads["sweep_uneven_steal"] = (
            lambda: bench_engine.run_sweep_uneven("steal"), "points")
        workloads["sweep_uneven_pool"] = (
            lambda: bench_engine.run_sweep_uneven("pool"), "points")
    if bench_engine.HAVE_SERVICE:
        workloads["serve_groups8"] = (
            lambda: bench_engine.run_serve_multigroup(), "requests")
    if getattr(bench_engine, "HAVE_TRACING", False):
        workloads["serve_groups8_traced"] = (
            lambda: bench_engine.run_serve_traced(), "requests")
    if bench_engine.ColumnarSink is not None:
        workloads["columnar_clique24"] = (
            lambda: bench_engine.run_columnar_clique(24, 40), "events")
        # Replay corpora are built once, outside the timed region
        # (like query_trace above): the replay workloads measure the
        # read side only. The sink objects must stay referenced --
        # the closures below keep them (and their temp dirs) alive.
        col_graph, col_sink = bench_engine.build_replay_corpus(24, 40)
        workloads["columnar_replay24"] = (
            lambda: bench_engine.run_columnar_replay(
                col_graph, col_sink.directory), "records")
        workloads["spill_replay24"] = (
            lambda: bench_engine.run_reference_replay(
                col_graph, col_sink), "records")
    return workloads


def measure(repeats: int) -> Dict[str, dict]:
    """Measure every workload ``repeats`` times.

    Rates are computed from the *best* timing: on a shared/noisy box
    the minimum is the least-biased estimator of the true cost (any
    interference only ever adds time). The median is reported too so
    the spread stays visible.
    """
    results: Dict[str, dict] = {}
    for name, (fn, unit) in _workloads().items():
        fn()  # warm-up (imports, allocator, caches)
        times = []
        units = 0
        for _ in range(repeats):
            start = time.perf_counter()
            units = fn()
            times.append(time.perf_counter() - start)
        best = min(times)
        results[name] = {
            unit: units,
            "seconds": round(best, 6),
            "seconds_median": round(statistics.median(times), 6),
            f"{unit}_per_sec": round(units / best, 1),
        }
    return results


def _rate(entry: dict) -> Optional[float]:
    for key, value in entry.items():
        if key.endswith("_per_sec"):
            return value
    return None


#: Chunked-JSONL spill bytes of the columnar_clique24 trace (24,000
#: records), the reference the bytes gate was set against; the JSONL
#: spill format is gone, so the figure is pinned here.
JSONL_REFERENCE_BYTES = 1_101_202
#: Gates on the columnar section: at most 1/4 of the JSONL reference
#: bytes, and vectorized replay >= 3x the per-record reference audit.
COLUMNAR_BYTES_MAX = 0.25 * JSONL_REFERENCE_BYTES
COLUMNAR_REPLAY_SPEEDUP_MIN = 3.0

#: The PR 7 acceptance gate: telemetry-on may cost at most this
#: fraction of telemetry-off throughput on each gated workload pair.
TELEMETRY_OVERHEAD_MAX = 0.05

#: (off, on) workload pairs the telemetry gate compares.
TELEMETRY_PAIRS = (
    ("wpaxos_clique32", "wpaxos_clique32_tel"),
    ("columnar_clique24", "columnar_clique24_tel"),
)


def telemetry_report(repeats: int) -> Optional[dict]:
    """The telemetry-overhead section: for each (off, on) workload
    pair, freshly measured rates and the fractional overhead
    ``rate_off / rate_on - 1``, with the <= 5% gate evaluated inline.

    The pairs are re-measured here with *interleaved* repeats (off,
    on, off, on, ...) rather than read from the global results:
    workloads in the main sweep run minutes apart, and allocator/GC
    drift from the heavyweight spill workloads in between dwarfs the
    few-percent effect this gate prices. Interleaving exposes both
    sides of each pair to the same environment; min-of-N then cancels
    the remaining noise. ``None`` when the engine predates telemetry.
    """
    if bench_engine.Telemetry is None:
        return None
    workloads = _workloads()
    # The pairs are cheap (~0.3 s per interleaved repeat), so floor
    # the repeat count: smoke mode's 3 repeats are too noisy for a
    # 5% gate; the paired median needs a deep sample on shared
    # runners. The columnar pair runs ~60 ms a side, where one
    # pair's ratio scatters by several percent, hence 31.
    repeats = max(repeats, 31)
    pairs = {}
    ok = True
    for off_name, on_name in TELEMETRY_PAIRS:
        if off_name not in workloads or on_name not in workloads:
            continue
        off_fn, _ = workloads[off_name]
        on_fn, _ = workloads[on_name]
        off_fn()
        on_fn()  # warm-up both sides
        off_times: list = []
        on_times: list = []
        units = 0
        # gc.collect before each timed side + paired ratio
        # estimators: see tracing_report -- same protocol, same
        # reasons (generational-GC alignment and noisy-neighbor
        # bursts read as phantom overhead through min-of-N rates).
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            units = off_fn()
            off_times.append(time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            on_fn()
            on_times.append(time.perf_counter() - start)
        rate_off = round(units / min(off_times), 1)
        rate_on = round(units / min(on_times), 1)
        ratios = sorted(on / off
                        for off, on in zip(off_times, on_times))
        median_ratio = ratios[len(ratios) // 2]
        sum_ratio = sum(on_times) / sum(off_times)
        overhead = min(median_ratio, sum_ratio) - 1.0
        pairs[on_name] = {
            "baseline": off_name,
            "rate_off": rate_off,
            "rate_on": rate_on,
            "overhead": round(overhead, 4),
        }
        ok = ok and overhead <= TELEMETRY_OVERHEAD_MAX
    if not pairs:
        return None
    return {
        "pairs": pairs,
        "gates": {"overhead_max": TELEMETRY_OVERHEAD_MAX, "ok": ok},
    }


#: The PR 10 acceptance gate: request tracing + the metrics registry
#: may cost at most this fraction of untraced serve throughput.
TRACING_OVERHEAD_MAX = 0.05


def tracing_report(repeats: int) -> Optional[dict]:
    """The request-tracing overhead section: the serve workload with
    tracing + metrics off vs on, interleaved repeats (the
    :func:`telemetry_report` protocol -- min-of-N over off/on/off/on
    so allocator drift cannot masquerade as tracing cost), with the
    <= 5% gate evaluated inline. Also runs one traced session to
    read the scheduler profile -- the measured fraction of
    ``GroupRuntime.advance`` wall time spent *between* engine slices
    (cross-group scheduling overhead, the ROADMAP number).
    ``None`` when the service predates request tracing.
    """
    if not getattr(bench_engine, "HAVE_TRACING", False):
        return None
    repeats = max(repeats, 15)
    bench_engine.run_serve_multigroup()
    bench_engine.run_serve_traced()  # warm-up both sides
    off_times: list = []
    on_times: list = []
    units = 0
    # Collect before every timed run: the traced side allocates more
    # (span records, metric windows), so with the collector free-
    # running, generational collections align against whichever side
    # crosses the threshold -- measured as a phantom 5-10% "overhead"
    # that a fixed pre-run collection point eliminates.
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        units = bench_engine.run_serve_multigroup()
        off_times.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        bench_engine.run_serve_traced()
        on_times.append(time.perf_counter() - start)
    rate_off = round(units / min(off_times), 1)
    rate_on = round(units / min(on_times), 1)
    # Paired estimators: the serve runs are short (~0.15 s), so a
    # noisy-neighbor burst during one side's min repeat can fake a
    # double-digit "overhead" out of min-of-N rates. Each repeat
    # times off and on back to back, so per-repeat ratios cancel
    # sustained drift; the median discards burst repeats, and the
    # ratio of total times averages them out. The gate takes the
    # smaller of the two: a one-sided burst only inflates one
    # estimator, while a genuine >= 5% regression moves both.
    ratios = sorted(on / off for off, on in zip(off_times, on_times))
    median_ratio = ratios[len(ratios) // 2]
    sum_ratio = sum(on_times) / sum(off_times)
    overhead = min(median_ratio, sum_ratio) - 1.0
    traced = bench_engine.serve_traced_report()
    totals = ((traced.tracing or {}).get("scheduler") or {}).get(
        "totals") or {}
    scheduler = {key: totals.get(key)
                 for key in ("advance_calls", "advance_seconds",
                             "engine_seconds", "overhead_seconds",
                             "overhead_fraction")}
    return {
        "baseline": "serve_groups8",
        "traced": "serve_groups8_traced",
        "rate_off": rate_off,
        "rate_on": rate_on,
        "overhead": round(overhead, 4),
        "scheduler": scheduler,
        "gates": {"overhead_max": TRACING_OVERHEAD_MAX,
                  "ok": overhead <= TRACING_OVERHEAD_MAX},
    }


#: The PR 8 acceptance gate: on the uneven grid, the work-stealing
#: executor must beat the one-task-per-point pool by this factor...
SWEEP_FABRIC_SPEEDUP_MIN = 1.5
#: ...but only on machines with enough cores for scheduling to matter.
#: Below this, both executors serialize and the ratio measures noise.
SWEEP_FABRIC_MIN_CORES = 4


def _cache_roundtrip() -> dict:
    """The result-cache subgate: one small scenario grid run twice
    against the same fresh cache directory. The second pass must be
    100% cache hits and reproduce byte-identical points."""
    import shutil
    import tempfile
    from dataclasses import asdict

    from repro.analysis.cache import ResultCache
    from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                                TopologySpec)

    base = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("clique", n=4),
        scheduler=SchedulerSpec("synchronous", f_ack=1.0))
    grid = base.grid({"topology.n": [4, 6, 8]})
    tmp = tempfile.mkdtemp(prefix="macsim-bench-cache-")
    try:
        first = grid.run(name="bench-cache", cache=ResultCache(tmp),
                         parallel=False)
        second_cache = ResultCache(tmp)
        second = grid.run(name="bench-cache", cache=second_cache,
                          parallel=False)
        identical = (
            json.dumps([asdict(p) for p in first.points])
            == json.dumps([asdict(p) for p in second.points]))
        return {
            "points": len(first.points),
            "second_pass_hits": second_cache.hits,
            "second_pass_misses": second_cache.misses,
            "second_pass_hit_ratio": round(second_cache.hit_ratio, 4),
            "identical": identical,
            "ok": (second_cache.misses == 0
                   and second_cache.hits == len(first.points)
                   and identical),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def sweep_fabric_report(repeats: int) -> Optional[dict]:
    """The PR 8 sweep-fabric section: work-stealing vs pool executor
    on the uneven grid, plus the cache round-trip subgate.

    The two executors are re-measured here with *interleaved* repeats
    (pool, steal, pool, steal, ...) for the same reason the telemetry
    gate does it: the comparison is a ratio of two multi-second sweeps
    and must see the same machine state on both sides; min-of-N then
    cancels the remaining noise.

    The speedup gate needs real parallelism to be meaningful: with
    fewer than :data:`SWEEP_FABRIC_MIN_CORES` available cores both
    executors degenerate to (near-)serial execution and the uneven
    grid's straggler cells block everyone equally. On such machines
    the gate records the core count and passes as skipped; CI runners
    enforce it. ``None`` when the tree predates the executors.
    """
    if not bench_engine.HAVE_SWEEP_EXECUTORS:
        return None
    cores = bench_engine.saturating_workers()
    repeats = max(min(repeats, 5), 3)
    bench_engine.run_sweep_uneven("pool")
    bench_engine.run_sweep_uneven("steal")  # warm-up both sides
    pool_times: list = []
    steal_times: list = []
    points = 0
    for _ in range(repeats):
        start = time.perf_counter()
        points = bench_engine.run_sweep_uneven("pool")
        pool_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        bench_engine.run_sweep_uneven("steal")
        steal_times.append(time.perf_counter() - start)
    speedup = round(min(pool_times) / min(steal_times), 2)
    cache = _cache_roundtrip()
    gates: dict = {
        "speedup_min": SWEEP_FABRIC_SPEEDUP_MIN,
        "min_cores": SWEEP_FABRIC_MIN_CORES,
    }
    if cores < SWEEP_FABRIC_MIN_CORES:
        gates["speedup_skipped"] = (
            f"only {cores} core(s) available; the straggler gate "
            f"needs >= {SWEEP_FABRIC_MIN_CORES}")
        ok = True
    else:
        ok = speedup >= SWEEP_FABRIC_SPEEDUP_MIN
    ok = ok and cache["ok"]
    gates["ok"] = ok
    return {
        "workload": f"uneven grid: {bench_engine.UNEVEN_POINTS} echo "
                    f"cells on clique({bench_engine.UNEVEN_N}), every "
                    f"4th cell {bench_engine.UNEVEN_SLOW_FACTOR}x "
                    f"rounds",
        "points": points,
        "cores": cores,
        "pool_seconds": round(min(pool_times), 4),
        "steal_seconds": round(min(steal_times), 4),
        "speedup_steal_vs_pool": speedup,
        "cache_roundtrip": cache,
        "gates": gates,
    }


#: The PR 9 acceptance gates on the service section: the serve loop
#: must commit every request (no failed slots), the 1-group service's
#: first slot must stay byte-identical to the base scenario's own run,
#: and every grid cell must sustain at least this end-to-end wall-clock
#: request throughput (conservative: a single core does ~1000 req/s).
SERVICE_MIN_WALL_RPS = 50.0

#: (groups, shards) x clients grid the latency curve sweeps.
SERVICE_GRID = ((1, 1), (4, 1), (8, 2))
SERVICE_LOADS = (32, 96)


def service_report() -> Optional[dict]:
    """The PR 9 consensus-as-a-service section: p50/p99 latency and
    throughput vs offered load over a (groups, shards) x clients grid,
    with the byte-identity and request-throughput gates inline.

    Latencies are in virtual time (multiples of F_ack) and exactly
    reproducible; ``wall_req_per_sec`` is the end-to-end wall-clock
    rate of the whole serve loop (workload draws, batching, slot
    derivation, multiplexed engines) that the throughput gate floors.
    ``None`` when the tree predates the service runtime.
    """
    if not bench_engine.HAVE_SERVICE:
        return None
    from repro.analysis.export import trace_to_json
    from repro.macsim.service import ConsensusService, WorkloadGenerator

    base = bench_engine._serve_base()
    workload = WorkloadGenerator(groups=1, clients=8, seed=0,
                                 requests_per_client=2)
    probe = ConsensusService(base, workload, capture_first_slot=True)
    probe.run()
    identical = (trace_to_json(probe.first_slot_trace)
                 == trace_to_json(base.simulate().trace))

    curve = []
    failed = 0
    for groups, shards in SERVICE_GRID:
        for clients in SERVICE_LOADS:
            start = time.perf_counter()
            rep = bench_engine.run_service(
                base, groups=groups, clients=clients, shards=shards,
                requests_per_client=2)
            wall = time.perf_counter() - start
            failed += rep.failed
            latency = rep.latency
            curve.append({
                "groups": groups,
                "shards": shards,
                "clients": clients,
                "requests": rep.requests,
                "slots": rep.slots,
                "p50": round(latency.get("p50", 0.0), 2),
                "p99": round(latency.get("p99", 0.0), 2),
                "virtual_req_per_time": round(rep.throughput, 4),
                "wall_req_per_sec": round(rep.requests / wall, 1),
            })
    min_rps = min(row["wall_req_per_sec"] for row in curve)
    gates = {
        "byte_identity": identical,
        "failed_slots": failed,
        "wall_rps_min": SERVICE_MIN_WALL_RPS,
        "wall_rps_measured_min": min_rps,
        "ok": (identical and failed == 0
               and min_rps >= SERVICE_MIN_WALL_RPS),
    }
    return {
        "workload": "closed-loop Zipf/lognormal clients over wpaxos "
                    "clique(5) slots, (groups, shards) x clients grid",
        "curve": curve,
        "gates": gates,
    }


def columnar_report(results: Dict[str, dict]) -> Optional[dict]:
    """The columnar-format section: on-disk bytes per record of the
    columnar_clique24 trace against the pinned JSONL reference, plus
    the replay speedup taken from the measured ``columnar_replay24`` /
    ``spill_replay24`` rates, with the gates evaluated inline."""
    if bench_engine.ColumnarSink is None:
        return None
    _, col_sink = bench_engine.build_replay_corpus(24, 40)
    try:
        records = len(col_sink)
        col_bytes = col_sink.spilled_bytes()
        section = {
            "workload": "columnar_clique24 (echo flood, clique n=24, "
                        "40 rounds, full-level trace)",
            "records": records,
            "jsonl_reference_bytes": JSONL_REFERENCE_BYTES,
            "columnar_bytes": col_bytes,
            "columnar_bytes_per_record": round(col_bytes / records, 2),
            "bytes_ratio_columnar_vs_jsonl": round(
                col_bytes / JSONL_REFERENCE_BYTES, 4),
            "numpy": bench_engine.have_numpy(),
        }
        vec = results.get("columnar_replay24")
        ref = results.get("spill_replay24")
        if vec and ref:
            section["replay_speedup_vectorized_vs_iterator"] = round(
                _rate(vec) / _rate(ref), 2)
        gates = {
            "columnar_bytes_max": COLUMNAR_BYTES_MAX,
            "replay_speedup_min": COLUMNAR_REPLAY_SPEEDUP_MIN,
        }
        ok = col_bytes <= COLUMNAR_BYTES_MAX
        speedup = section.get("replay_speedup_vectorized_vs_iterator")
        if bench_engine.have_numpy():
            ok = ok and (speedup is not None
                         and speedup >= COLUMNAR_REPLAY_SPEEDUP_MIN)
        else:
            gates["replay_speedup_skipped"] = "numpy unavailable"
        gates["ok"] = ok
        section["gates"] = gates
        return section
    finally:
        col_sink.cleanup()


def _measure_seed_tree(seed_tree: str, repeats: int) -> dict:
    """Re-measure the workloads against a seed checkout, in-session."""
    src = os.path.join(seed_tree, "src")
    if not os.path.isdir(src):
        raise SystemExit(
            f"--seed-tree: no src/ under {seed_tree!r} (expected a "
            f"checkout of the seed commit, e.g. `git worktree add`)")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    output = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf_report",
         "--emit-raw", "--repeats", str(repeats)],
        env=env, capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if output.returncode != 0:
        raise SystemExit(
            "--seed-tree measurement failed:\n" + output.stderr[-2000:])
    return json.loads(output.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf_report",
        description="Engine microbenchmark report (before/after).")
    parser.add_argument("--out", default="BENCH_PR10.json",
                        help="output path (default: BENCH_PR10.json)")
    parser.add_argument("--attach-smoke", default=None, metavar="JSON",
                        help="embed a benchmarks.spill_smoke --json-out "
                             "summary (the gated 10^8-event columnar "
                             "run) under the report's 'columnar_smoke' "
                             "key")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timings per workload (default 7; 3 smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: fewer repeats, same workloads")
    parser.add_argument("--baseline",
                        default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "seed_baseline.json"),
                        help="recorded 'before' numbers (JSON)")
    parser.add_argument("--seed-tree", default=None,
                        help="seed checkout to re-measure 'before' "
                             "numbers against (overrides --baseline)")
    parser.add_argument("--emit-raw", action="store_true",
                        help="measure and print raw results JSON to "
                             "stdout (internal; used for --seed-tree)")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: fail if any workload's "
                             "rate drops more than --check-threshold "
                             "below the committed report "
                             "(--check-against). Absolute rates are "
                             "machine-specific -- use this gate on "
                             "the machine that produced the report; "
                             "CI uses --check-speedup instead")
    parser.add_argument("--check-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="same-machine regression gate: fail if "
                             "any workload's speedup vs the 'before' "
                             "numbers (ideally --seed-tree, measured "
                             "in-session) falls below FLOOR")
    parser.add_argument("--check-against",
                        default=os.path.join(
                            os.path.dirname(os.path.dirname(
                                os.path.abspath(__file__))),
                            "BENCH_PR1.json"),
                        help="committed perf report to gate against "
                             "(its 'after' numbers)")
    parser.add_argument("--check-threshold", type=float, default=0.20,
                        help="allowed fractional rate regression "
                             "(default 0.20)")
    args = parser.parse_args(argv)
    bench_engine.exit_on_sigterm()

    repeats = args.repeats or (3 if args.smoke else 7)
    results = measure(repeats)

    if args.emit_raw:
        json.dump(results, sys.stdout, indent=2)
        return 0

    before: Optional[dict] = None
    before_source = None
    if args.seed_tree:
        before = _measure_seed_tree(args.seed_tree, repeats)
        before_source = f"seed-tree:{args.seed_tree}"
    elif os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as handle:
            before = json.load(handle).get("results")
        before_source = args.baseline

    speedups = {}
    if before:
        for name, entry in results.items():
            # New fast-path workloads compare against what the seed
            # engine offered for the same job: the full-trace run for
            # the decisions-level run, the sequential sweep for the
            # parallel one. (columnar_clique24 has no seed counterpart:
            # the seed could not produce a disk-backed full trace.)
            fallback = {"wpaxos_clique32_fast": "wpaxos_clique32",
                        "sweep_wpaxos_par": "sweep_wpaxos_seq"}
            base = before.get(name) or before.get(
                fallback.get(name, ""))
            if not base:
                continue
            after_rate, before_rate = _rate(entry), _rate(base)
            if after_rate and before_rate:
                speedups[name] = round(after_rate / before_rate, 2)

    spill_probe = None
    if bench_engine.ColumnarSink is not None:
        probe_rounds = 40 if args.smoke else 120
        spill_probe = bench_engine.run_spill_probe(24, probe_rounds)

    columnar = columnar_report(results)
    telemetry = telemetry_report(repeats)
    tracing = tracing_report(repeats)
    sweep_fabric = sweep_fabric_report(repeats)
    service = service_report()
    columnar_smoke = None
    if args.attach_smoke:
        with open(args.attach_smoke, encoding="utf-8") as handle:
            columnar_smoke = json.load(handle)

    report = {
        "pr": 10,
        "notes": {
            "wpaxos_clique32": "full-trace engine vs full-trace seed "
                               "(like-for-like; trace byte-identical)",
            "wpaxos_clique32_fast": "TraceLevel.DECISIONS engine vs "
                                    "full-trace seed: what a sweep/"
                                    "benchmark run pays now vs what it "
                                    "had to pay on the seed (same "
                                    "events, decisions and counters; "
                                    "MAC-level records not "
                                    "materialized)",
            "sweep_wpaxos_par": "parallel_sweep + DECISIONS level vs "
                                "the seed's sequential full-trace "
                                "sweep (same comparison basis)",
            "fanout_clique96_dense": "dense-clique echo flood under "
                                     "the synchronous scheduler: the "
                                     "batched delivery-scheduling "
                                     "showcase (one bdeliver heap "
                                     "entry per broadcast on PR 3+, "
                                     "one per neighbor before)",
            "spill_probe": "one-shot RSS/throughput probe: ColumnarSink "
                           "run + invariant replay under "
                           "tracemalloc; py_heap_peak_mb is the "
                           "bounded-memory claim in numbers",
            "e13_churn": "the dense echo flood under per-epoch edge "
                         "churn (spanning-tree floor): epoch "
                         "application cost -- graph rebuild, neighbor "
                         "recompute, plan-pool invalidation, topo "
                         "records -- on top of the delivery path (no "
                         "seed counterpart)",
            "columnar_clique24": "the engine writing its complete "
                                 "full-level trace to binary "
                                 "struct-packed column chunks via "
                                 "ColumnarSink (disk-backed replayable "
                                 "trace; no seed counterpart)",
            "columnar_replay24": "disk replay of the columnar corpus: "
                                 "ColumnarSink.load (vectorized index "
                                 "rebuild = the metrics path) + the "
                                 "whole-chunk numpy invariant audit",
            "spill_replay24": "the same audit driven record by record "
                              "off the same columnar corpus -- the "
                              "per-record reference replay cost; "
                              "columnar_replay24 / spill_replay24 is "
                              "the replay speedup gate",
            "columnar": "on-disk bytes per record of the columnar "
                        "trace, with its gates (columnar bytes <= 1/4 "
                        "of the pinned 1,101,202-byte JSONL reference, "
                        "vectorized replay >= 3x) evaluated inline",
            "wpaxos_clique32_tel": "the wpaxos_clique32 workload with "
                                   "a live Telemetry attached (engine "
                                   "counters, F_ack/F_prog span "
                                   "tracking, phase profiler); "
                                   "compare against wpaxos_clique32 "
                                   "for the observability overhead",
            "columnar_clique24_tel": "columnar_clique24 with telemetry "
                                     "on (disk-backed sink + span "
                                     "tracking -- the worst-case "
                                     "counter surface)",
            "telemetry": "telemetry-on vs telemetry-off overhead per "
                         "gated pair, re-measured with interleaved "
                         "repeats so allocator/GC drift between the "
                         "main sweep's workloads cannot masquerade "
                         "as observability cost; the PR 7 acceptance "
                         "gate (overhead <= 5%) evaluated inline",
            "sweep_uneven_steal": "the uneven grid (24 echo cells, "
                                  "every 4th cell 4x rounds) through "
                                  "the PR 8 work-stealing executor: "
                                  "persistent forked workers pulling "
                                  "guided-size chunks off a shared "
                                  "counter",
            "sweep_uneven_pool": "the identical uneven grid through "
                                 "the PR 7 one-task-per-point "
                                 "multiprocessing.Pool baseline",
            "sweep_fabric": "steal vs pool on the uneven grid with "
                            "interleaved repeats, plus the result-"
                            "cache round-trip subgate (second pass "
                            "100% hits, byte-identical points); the "
                            "PR 8 acceptance gate (steal >= 1.5x "
                            "pool) evaluated inline, skipped below "
                            "4 cores where both executors serialize",
            "serve_groups8": "the whole consensus-as-a-service stack "
                             "end to end: 8 multiplexed groups, 96 "
                             "closed-loop Zipf/lognormal clients, 3 "
                             "requests each, batched into wpaxos "
                             "clique(5) slots on one engine shard; "
                             "the unit is committed client requests",
            "serve_groups8_traced": "the serve_groups8 workload with "
                                    "request tracing (span trees, "
                                    "scheduler profile) and the "
                                    "windowed metrics registry "
                                    "attached; compare against "
                                    "serve_groups8 for the request-"
                                    "observability overhead",
            "tracing": "tracing-on vs tracing-off serve throughput "
                       "re-measured with interleaved repeats (the "
                       "telemetry-gate protocol), the PR 10 "
                       "acceptance gate (overhead <= 5%) evaluated "
                       "inline, plus the measured cross-group "
                       "scheduling overhead: the fraction of "
                       "GroupRuntime.advance wall time spent between "
                       "engine slices (heap pops, wakeups, batching) "
                       "rather than inside them",
            "service": "p50/p99 request latency (virtual time) and "
                       "throughput vs offered load over a (groups, "
                       "shards) x clients grid, with the PR 9 "
                       "acceptance gates evaluated inline: 1-group "
                       "slot-0 trace byte-identical to the base "
                       "scenario's own run, zero failed slots, and "
                       "every cell above the end-to-end wall request-"
                       "throughput floor",
        },
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "python": sys.version.split()[0],
        "before_source": before_source,
        "before": before,
        "after": results,
        "speedup": speedups,
        "spill_probe": spill_probe,
        "columnar": columnar,
        "telemetry": telemetry,
        "tracing": tracing,
        "sweep_fabric": sweep_fabric,
        "service": service,
        "columnar_smoke": columnar_smoke,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.out}")
    for name, entry in results.items():
        rate = _rate(entry)
        note = f"  ({speedups[name]}x vs seed)" if name in speedups else ""
        print(f"  {name:24s} {rate:>12,.0f}/s{note}")
    if spill_probe is not None:
        print(f"  {'spill_probe':24s} "
              f"{spill_probe['records']:,} records -> "
              f"{spill_probe['chunks']} chunks "
              f"({spill_probe['spilled_mb']} MB), "
              f"py heap peak {spill_probe['py_heap_peak_mb']} MB, "
              f"replay {spill_probe['replay_records_per_sec']:,.0f} "
              f"rec/s")
    if columnar is not None:
        ratio = columnar["bytes_ratio_columnar_vs_jsonl"]
        speedup = columnar.get("replay_speedup_vectorized_vs_iterator")
        print(f"  {'columnar':24s} "
              f"{columnar['columnar_bytes']:,} bytes "
              f"({columnar['columnar_bytes_per_record']} B/rec, "
              f"ratio {ratio} vs the JSONL reference), replay speedup "
              f"{speedup if speedup is not None else 'n/a'}x, "
              f"gates {'ok' if columnar['gates']['ok'] else 'FAILED'}")
        if not columnar["gates"]["ok"]:
            print(f"COLUMNAR GATES FAILED: {columnar['gates']}")
            if args.check or args.check_speedup is not None:
                return 2
    if telemetry is not None:
        worst = max(entry["overhead"]
                    for entry in telemetry["pairs"].values())
        print(f"  {'telemetry':24s} overhead "
              + ", ".join(
                  f"{entry['overhead']:+.1%} ({name})"
                  for name, entry in telemetry["pairs"].items())
              + f", gate {'ok' if telemetry['gates']['ok'] else 'FAILED'}"
              f" (max {worst:+.1%} <= {TELEMETRY_OVERHEAD_MAX:.0%})")
        if not telemetry["gates"]["ok"]:
            print(f"TELEMETRY OVERHEAD GATE FAILED: {telemetry}")
            if args.check or args.check_speedup is not None:
                return 2
    if tracing is not None:
        sched = tracing["scheduler"]
        frac = sched.get("overhead_fraction")
        print(f"  {'tracing':24s} overhead {tracing['overhead']:+.1%} "
              f"(serve {tracing['rate_off']:,.0f} off vs "
              f"{tracing['rate_on']:,.0f} on req/s), scheduler "
              f"overhead "
              f"{frac:.1%} of advance"
              f", gate {'ok' if tracing['gates']['ok'] else 'FAILED'}"
              f" (<= {TRACING_OVERHEAD_MAX:.0%})")
        if not tracing["gates"]["ok"]:
            print(f"TRACING OVERHEAD GATE FAILED: {tracing}")
            if args.check or args.check_speedup is not None:
                return 2
    if sweep_fabric is not None:
        cache = sweep_fabric["cache_roundtrip"]
        skipped = "speedup_skipped" in sweep_fabric["gates"]
        print(f"  {'sweep_fabric':24s} steal "
              f"{sweep_fabric['steal_seconds']}s vs pool "
              f"{sweep_fabric['pool_seconds']}s "
              f"({sweep_fabric['speedup_steal_vs_pool']}x"
              f"{', gate skipped: ' + str(sweep_fabric['cores']) + ' core(s)' if skipped else ''}), "
              f"cache 2nd pass {cache['second_pass_hits']}/"
              f"{cache['points']} hits, gates "
              f"{'ok' if sweep_fabric['gates']['ok'] else 'FAILED'}")
        if not sweep_fabric["gates"]["ok"]:
            print(f"SWEEP FABRIC GATES FAILED: {sweep_fabric['gates']}")
            if args.check or args.check_speedup is not None:
                return 2

    if service is not None:
        worst = min(row["wall_req_per_sec"] for row in service["curve"])
        hot = max(service["curve"], key=lambda row: row["p99"])
        print(f"  {'service':24s} "
              f"{len(service['curve'])} cells, slowest "
              f"{worst:,.0f} req/s wall (floor "
              f"{SERVICE_MIN_WALL_RPS:,.0f}), hottest cell p99 "
              f"{hot['p99']} vt ({hot['groups']}g x {hot['shards']}s "
              f"@ {hot['clients']} clients), byte-identity "
              f"{'ok' if service['gates']['byte_identity'] else 'FAILED'}, "
              f"gates {'ok' if service['gates']['ok'] else 'FAILED'}")
        if not service["gates"]["ok"]:
            print(f"SERVICE GATES FAILED: {service['gates']}")
            if args.check or args.check_speedup is not None:
                return 2

    if args.check_speedup is not None:
        slow = {name: ratio for name, ratio in speedups.items()
                if ratio < args.check_speedup}
        if not speedups:
            print("--check-speedup: no 'before' numbers available; "
                  "skipping gate")
        elif slow:
            print(f"PERF REGRESSION (speedup < {args.check_speedup} "
                  f"vs {before_source}): {slow}")
            return 2
        else:
            print(f"perf speedup check ok (all >= "
                  f"{args.check_speedup}x vs {before_source})")
    if args.check:
        return check_regressions(results, args.check_against,
                                 args.check_threshold)
    return 0


def check_regressions(results: Dict[str, dict], reference_path: str,
                      threshold: float) -> int:
    """Gate fresh measurements against a committed report's rates.

    Compares each shared workload's rate with the reference report's
    ``after`` numbers and fails (exit 2) on any fractional drop beyond
    ``threshold``. Cross-machine comparisons are inherently noisy --
    the threshold should stay generous (CI uses the default 20%).
    """
    if not os.path.exists(reference_path):
        print(f"--check: no reference report at {reference_path}; "
              f"skipping gate")
        return 0
    with open(reference_path, encoding="utf-8") as handle:
        reference = json.load(handle).get("after", {})
    regressions = []
    for name, entry in results.items():
        base = reference.get(name)
        if not base:
            continue
        after_rate, base_rate = _rate(entry), _rate(base)
        if not (after_rate and base_rate):
            continue
        drop = 1.0 - after_rate / base_rate
        if drop > threshold:
            regressions.append((name, base_rate, after_rate, drop))
    if regressions:
        print(f"PERF REGRESSION (> {threshold:.0%} vs "
              f"{reference_path}):")
        for name, base_rate, after_rate, drop in regressions:
            print(f"  {name:24s} {base_rate:>12,.0f}/s -> "
                  f"{after_rate:>12,.0f}/s  ({drop:.1%} slower)")
        return 2
    print(f"perf check ok (no workload regressed > {threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
