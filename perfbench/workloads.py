"""The benchmark's workloads: inputs from a seed, timed repetitions,
outside-in correctness checks, and the metrics they reduce to.

Every repetition runs on its own seed, ``seed * 1000 + index``, and the
number of repetitions is a function of ``--seconds`` alone, so the
virtual-time metrics, every count and the failure count repeat exactly
for a given seed and run length. Host-time metrics are medians over
the repetitions, each phase scaled to the reference machine speed
measured around it (``probe.py``). See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.analysis.cache import CacheVerificationError, ResultCache
from repro.macsim.columnar import ColumnarSink
from repro.macsim.invariants import check_consensus, check_model_invariants
from repro.macsim.service import sharded as sharded_mod
from repro.macsim.service.runtime import GroupRuntime
from repro.macsim.service.sharded import ShardedService
from repro.macsim.service.tracing import latency_summary
from repro.macsim.service.workload import WorkloadGenerator
from repro.registry import VALUES
from repro.scenario import (AlgorithmSpec, FaultSpec, Scenario, ScenarioGrid,
                            SchedulerSpec, TopologySpec)

from .layers import CALL_ROWS, SELF_ROWS, LayerTracer, instrument, \
    read_shard_tables
from .probe import SpeedProbe

#: Message delay bound: one virtual time unit.
F_ACK = 1.0

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "ops_per_s": "ops/s",
    "latency_p50_vt": "F_ack",
    "latency_p99_vt": "F_ack",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics (``--trace 1``).
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_ROWS.values()},
    **{metric: "count" for metric in CALL_ROWS.values()},
    "simulator.events": "events",
    "columnar.records": "records",
    "columnar.bytes_per_record": "bytes/record",
    "service.frontend.batch_mean": "req/slot",
    "service.queue_wait_p50_vt": "F_ack",
    "service.queue_wait_p99_vt": "F_ack",
    "service.slots_failed": "count",
    "sharded.fork_merge_s": "s",
    "sharded.imbalance": "ratio",
    "sweeps.busy_frac": "fraction",
    "cache.hit_ratio": "fraction",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}


@dataclass
class Rep:
    """One timed repetition of a workload."""

    #: Wall seconds of the timed phases.
    wall_s: float
    #: Engine events and the seconds they took (``events_per_s``).
    events: int
    events_s: float
    #: The workload's unit of output and its seconds (``ops_per_s``).
    #: Both phase times are scaled to the reference machine speed when
    #: a probe is given (see probe.py).
    ops: int
    ops_s: float
    #: Virtual-time commit latencies in F_ack units, one list per group
    #: of like operations (the sweep has one per grid cell).
    latencies: List[List[float]]
    attempted: int
    failed: int
    #: Broken output invariants (not counted per operation).
    problems: List[str] = field(default_factory=list)


@contextlib.contextmanager
def _traced(tracer: Optional[LayerTracer], scratch: str):
    if tracer is None:
        yield
        return
    shard_dir = os.path.join(scratch, "shard-tables")
    os.makedirs(shard_dir)
    try:
        with instrument(tracer, shard_dir=shard_dir):
            yield
        read_shard_tables(tracer, shard_dir)
    finally:
        os.rmdir(shard_dir)


def _slowdowns(probe: Optional[SpeedProbe],
               every_cpu: bool = False) -> Callable[[], float]:
    """Probe readings for a phase; ``every_cpu`` for phases that keep
    every CPU busy."""
    if probe is None:
        return lambda: 1.0
    return lambda: probe.slowdown(every_cpu)


def _call(tracer: Optional[LayerTracer], name: str, fn: Callable,
          *args, **kwargs):
    """Call ``fn``, as a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn)(*args, **kwargs)


# ---------------------------------------------------------------------------
# audit: one big wPAXOS run traced to disk, then reopened and audited
# ---------------------------------------------------------------------------

def audit_scenario(seed: int) -> Scenario:
    return Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("geometric", n=128, radius=0.18),
        scheduler=SchedulerSpec("random", f_ack=F_ACK),
        seed=seed)


def audit_rep(seed: int, scratch: str,
              tracer: Optional[LayerTracer] = None,
              probe: Optional[SpeedProbe] = None) -> Rep:
    scenario = audit_scenario(seed)
    directory = os.path.join(scratch, "audit-trace")
    sink_class = (ColumnarSink if tracer is None
                  else tracer.columnar_sink_class())
    slowdown = _slowdowns(probe)
    with _traced(tracer, scratch):
        s0 = slowdown()
        t0 = perf_counter()
        resolved = scenario.resolve()
        sink = sink_class(directory)
        result = resolved.simulate(trace_sink=sink)
        t1 = perf_counter()
        s1 = slowdown()
        t2 = perf_counter()
        reopened = _call(tracer, "columnar.load", ColumnarSink.load,
                         directory)
        model = _call(tracer, "invariants.model", check_model_invariants,
                      resolved.graph, reopened, f_ack=F_ACK)
        # Reopened payloads are repr strings (columnar.py), so validity
        # is judged against the repr of each input.
        inputs = {node: repr(value)
                  for node, value in resolved.initial_values.items()}
        consensus = _call(tracer, "invariants.consensus", check_consensus,
                          reopened, inputs)
        t3 = perf_counter()
    s2 = slowdown()
    if tracer is not None:
        tracer.counts["columnar.bytes"] += sink.spilled_bytes()
    problems = []
    if len(reopened) != len(sink):
        problems.append(f"audit: reopened {len(reopened)} records, "
                        f"wrote {len(sink)}")
    live = {node: repr(value) for node, value in result.decisions.items()}
    if reopened.decisions() != live:
        problems.append("audit: reopened decisions differ from the run's")
    shutil.rmtree(directory)
    return Rep(wall_s=(t1 - t0) + (t3 - t2),
               events=result.events_processed,
               events_s=(t1 - t0) * 2 / (s0 + s1),
               ops=len(reopened), ops_s=(t3 - t2) * 2 / (s1 + s2),
               latencies=[list(result.decision_times.values())],
               attempted=1, failed=0 if model.ok and consensus.ok else 1,
               problems=problems)


# ---------------------------------------------------------------------------
# serve / serve_sharded: a closed-loop consensus service session
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 400
SERVE_REQUESTS_PER_CLIENT = 5


def serve_session(seed: int, shards: int) -> ShardedService:
    base = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("clique", n=5),
        scheduler=SchedulerSpec("synchronous", f_ack=F_ACK),
        seed=seed, trace_level="decisions")
    workload = WorkloadGenerator(
        groups=16, clients=SERVE_CLIENTS, seed=seed, zipf_s=1.1,
        think_mu=3.0, think_sigma=1.0,
        requests_per_client=SERVE_REQUESTS_PER_CLIENT)
    return ShardedService(base, workload, shards=shards, batch_size=8,
                          progress=False)


def _audit_slots(runs) -> Dict[str, int]:
    """Agreement and validity of every committed slot, from outside.

    ``bad_requests`` counts requests riding bad slots that did decide;
    slots without any decision are already counted failed by the
    service itself."""
    inputs_by_shape: Dict[tuple, set] = {}
    verdict = {"slots": len(runs), "bad_slots": 0, "bad_requests": 0}
    for run in runs:
        scenario = run.scenario
        shape = (scenario.topology, scenario.values)
        inputs = inputs_by_shape.get(shape)
        if inputs is None:
            graph = scenario.topology.build()
            inputs = set(VALUES.get(scenario.values)(graph).values())
            inputs_by_shape[shape] = inputs
        decided = set(run.result.decisions.values())
        if len(decided) == 1 and decided <= inputs:
            continue
        verdict["bad_slots"] += 1
        if decided:
            verdict["bad_requests"] += len(run.context[0])
    return verdict


@contextlib.contextmanager
def _slot_audit(scratch: str):
    """Keep every ``GroupRun`` that ``GroupRuntime.advance`` returns and
    audit them once the block ends; the yielded dict then holds the
    verdict. A forked shard audits its own slots after it has sent its
    report and leaves the verdict in a file for this process."""
    runs: list = []
    verdict: Dict[str, int] = {}
    audit_dir = os.path.join(scratch, "slot-audits")
    os.makedirs(audit_dir)
    original_advance = GroupRuntime.__dict__["advance"]
    original_worker = sharded_mod._shard_worker

    def advance(self, *args, **kwargs):
        finished = original_advance(self, *args, **kwargs)
        runs.extend(finished)
        return finished

    def shard_worker(conn, shard, *args):
        try:
            original_worker(conn, shard, *args)
        finally:
            path = os.path.join(audit_dir, f"shard-{shard}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(_audit_slots(runs), handle)

    GroupRuntime.advance = advance
    sharded_mod._shard_worker = shard_worker
    try:
        try:
            yield verdict
        finally:
            GroupRuntime.advance = original_advance
            sharded_mod._shard_worker = original_worker
        parts = [_audit_slots(runs)]
        for name in sorted(os.listdir(audit_dir)):
            with open(os.path.join(audit_dir, name),
                      encoding="utf-8") as handle:
                parts.append(json.load(handle))
        for key in parts[0]:
            verdict[key] = sum(part[key] for part in parts)
    finally:
        shutil.rmtree(audit_dir)


def _serve_rep(seed: int, scratch: str, tracer: Optional[LayerTracer],
               probe: Optional[SpeedProbe], shards: int) -> Rep:
    service = serve_session(seed, shards)
    slowdown = _slowdowns(probe, every_cpu=shards > 1)
    with _slot_audit(scratch) as verdict, _traced(tracer, scratch):
        s0 = slowdown()
        t0 = perf_counter()
        report = service.run()
        t1 = perf_counter()
    scaled = (t1 - t0) * 2 / (s0 + slowdown())
    problems = []
    total = SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT
    if report.requests + report.failed != total:
        problems.append(f"serve: {report.requests} committed + "
                        f"{report.failed} failed != {total} requests")
    if verdict["slots"] != report.slots:
        problems.append(f"serve: audited {verdict['slots']} of "
                        f"{report.slots} slots")
    if tracer is not None:
        counts = tracer.counts
        counts["service.requests"] += report.requests + report.failed
        counts["service.slots"] += report.slots
        counts["service.slots_failed"] += verdict["bad_slots"]
        walls = [row["wall_seconds"] for row in report.shards]
        counts["sharded.imbalance"] += max(walls) / statistics.mean(walls)
        counts["sharded.fork_merge_s"] += (t1 - t0) - max(walls)
    return Rep(wall_s=t1 - t0, events=report.events, events_s=scaled,
               ops=report.requests - verdict["bad_requests"], ops_s=scaled,
               latencies=[list(report.latencies)], attempted=total,
               failed=report.failed + verdict["bad_requests"],
               problems=problems)


def serve_rep(seed, scratch, tracer=None, probe=None) -> Rep:
    return _serve_rep(seed, scratch, tracer, probe, shards=1)


def serve_sharded_rep(seed, scratch, tracer=None, probe=None) -> Rep:
    return _serve_rep(seed, scratch, tracer, probe, shards=2)


# ---------------------------------------------------------------------------
# sweep: a scenario grid through the steal executor and the result cache
# ---------------------------------------------------------------------------

SWEEP_WORKERS = 2
SWEEP_SEEDS = 8


def sweep_grid(seed: int) -> ScenarioGrid:
    """Four cells, each on ``SWEEP_SEEDS`` seeds: Two-Phase on a
    clique, wPAXOS on a geometric graph and on a grid, and Ben-Or on a
    clique with one crash (f=1, a crash minority, so termination is
    promised)."""
    cells = [
        (AlgorithmSpec("two-phase"), TopologySpec("clique", n=32), None),
        (AlgorithmSpec("wpaxos"),
         TopologySpec("geometric", n=48, radius=0.3), None),
        (AlgorithmSpec("wpaxos"), TopologySpec("grid", rows=8, cols=8),
         None),
        (AlgorithmSpec("ben-or", f=1), TopologySpec("clique", n=16),
         FaultSpec("crash", node=15, time=1.0)),
    ]
    base = Scenario(algorithm=cells[0][0], topology=cells[0][1],
                    scheduler=SchedulerSpec("random", f_ack=F_ACK),
                    trace_level="decisions")
    return ScenarioGrid(
        base,
        {"seed": [seed * SWEEP_SEEDS + k for k in range(SWEEP_SEEDS)]},
        zipped={"algorithm": [cell[0] for cell in cells],
                "topology": [cell[1] for cell in cells],
                "fault": [cell[2] for cell in cells]})


def _cells(points) -> List[list]:
    """Group grid points by cell (cells vary fastest in key order)."""
    cells = len(points) // SWEEP_SEEDS
    return [points[cell::cells] for cell in range(cells)]


def sweep_rep(seed: int, scratch: str,
              tracer: Optional[LayerTracer] = None,
              probe: Optional[SpeedProbe] = None) -> Rep:
    grid = sweep_grid(seed)
    directory = os.path.join(scratch, "sweep-cache")
    cold = ResultCache(directory)
    warm = ResultCache(directory, verify="replay")
    problems = []
    # The cold pass keeps both CPUs busy; the warm pass serves hits and
    # replays them in this process.
    cold_slowdown = _slowdowns(probe, every_cpu=True)
    slowdown = _slowdowns(probe)
    with _traced(tracer, scratch):
        s0 = cold_slowdown()
        t0 = perf_counter()
        first = grid.run(cache=cold, workers=SWEEP_WORKERS,
                         executor="steal", progress=False)
        t1 = perf_counter()
        s1 = cold_slowdown()
        s1_warm = slowdown()
        t2 = perf_counter()
        try:
            second = grid.run(cache=warm, workers=SWEEP_WORKERS,
                              executor="steal", progress=False)
        except CacheVerificationError as exc:
            problems.append(f"sweep: {exc}")
            second = None
        t3 = perf_counter()
    s2 = slowdown()
    points = first.points
    if second is None:
        failed = len(points)
    else:
        failed = sum(1 for a, b in zip(points, second.points)
                     if not a.metrics.correct or a.metrics != b.metrics)
    if cold.hits or cold.stores != len(points):
        problems.append(f"sweep: cold pass {cold.describe()}, "
                        f"{cold.stores} stores")
    if warm.misses or warm.hits != len(points):
        problems.append(f"sweep: warm pass {warm.describe()}")
    if tracer is not None:
        counts = tracer.counts
        workers = first.executor_stats["per_worker"]
        counts["sweeps.busy_s"] += sum(w["busy_seconds"] for w in workers)
        counts["sweeps.capacity_s"] += (t1 - t0) * len(workers)
        counts["cache.warm_hits"] += warm.hits
        counts["cache.warm_lookups"] += warm.hits + warm.misses
    shutil.rmtree(directory)
    events = sum(p.metrics.events for p in points)
    return Rep(wall_s=(t1 - t0) + (t3 - t2), events=events,
               events_s=(t3 - t2) * 2 / (s1_warm + s2),
               ops=len(points), ops_s=(t1 - t0) * 2 / (s0 + s1),
               latencies=[[p.metrics.last_decision for p in cell]
                          for cell in _cells(points)],
               attempted=len(points), failed=failed, problems=problems)


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    rep: Callable[..., Rep]
    #: Seconds one untraced repetition takes on the reference machine
    #: (2 cores); the repetition count is ``--seconds`` over this.
    nominal_s: float


#: Seconds of one serve session on 1 shard.
SERVE_NOMINAL_S = 1.8

WORKLOADS = {
    "audit": Workload(audit_rep, 1.5),
    "serve": Workload(serve_rep, SERVE_NOMINAL_S),
    # Same session count as serve, so the pooled latencies match; a
    # 2-shard session takes about half as long.
    "serve_sharded": Workload(serve_sharded_rep, SERVE_NOMINAL_S),
    "sweep": Workload(sweep_rep, 3.2),
}


def rep_seeds(name: str, seed: int, seconds: float) -> List[int]:
    reps = max(1, round(seconds / WORKLOADS[name].nominal_s))
    return [seed * 1000 + index for index in range(reps)]


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]


def _timed_rep(name, seed, scratch, tracer=None,
               probe: Optional[SpeedProbe] = None) -> Rep:
    gc.collect()
    return WORKLOADS[name].rep(seed, scratch, tracer, probe)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: str, probe: Optional[SpeedProbe] = None
                 ) -> Outcome:
    """Run ``name`` and reduce it to end-to-end metrics, or to the
    per-layer table when ``trace`` is set. With a ``probe``, host-time
    metrics are scaled to the reference machine speed. Setup time and
    peak RSS are measured by the caller."""
    seeds = rep_seeds(name, seed, seconds)
    plain: List[Rep] = []
    traced: List[Rep] = []
    tracer = LayerTracer() if trace else None
    for rep_seed in seeds:
        plain.append(_timed_rep(name, rep_seed, scratch, probe=probe))
        if trace:
            traced.append(_timed_rep(name, rep_seed, scratch, tracer))
    reps = plain + traced
    problems = [p for rep in reps for p in rep.problems]
    failed = sum(rep.failed for rep in reps)
    if trace:
        metrics = layer_table(tracer, plain, traced)
    else:
        latency = _latency(plain)
        metrics = {
            "events_per_s": statistics.median(
                rep.events / rep.events_s for rep in plain),
            "ops_per_s": statistics.median(
                rep.ops / rep.ops_s for rep in plain),
            "latency_p50_vt": latency["p50"],
            "latency_p99_vt": latency["p99"],
        }
    return Outcome(correct=not problems and failed == 0,
                   attempted=sum(rep.attempted for rep in reps),
                   failed=failed, metrics=metrics, problems=problems)


def _latency(reps: List[Rep]) -> Dict[str, float]:
    """p50 and p99 of each latency group, pooled over the repetitions,
    then averaged over the groups: every sweep cell weighs the same,
    and no percentile falls on the seam between two cells."""
    groups = zip(*(rep.latencies for rep in reps))
    summaries = [latency_summary([x for part in group for x in part])
                 for group in groups]
    return {q: statistics.mean(summary[q] for summary in summaries)
            for q in ("p50", "p99")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tracer: LayerTracer, plain: List[Rep],
                traced: List[Rep]) -> Dict[str, float]:
    """Per-repetition means of the traced run's layer metrics.

    The time rows (every ``SELF_ROWS`` metric, ``sharded.fork_merge_s``
    and ``unattributed_s``) add up to ``traced_wall_s``."""
    reps = len(traced)
    counts = tracer.counts
    calls = tracer.calls
    traced_wall = sum(rep.wall_s for rep in traced)
    attributed = sum(tracer.self_s.values()) + counts["sharded.fork_merge_s"]
    waits = latency_summary(tracer.samples["service.queue_wait_vt"])
    table = {metric: tracer.self_s[span] / reps
             for span, metric in SELF_ROWS.items()}
    table.update({metric: calls[span] / reps
                  for span, metric in CALL_ROWS.items()})
    table.update({
        "simulator.events": counts["simulator.events"] / reps,
        "columnar.records": calls["columnar.record"] / reps,
        "columnar.bytes_per_record": _ratio(counts["columnar.bytes"],
                                            calls["columnar.record"]),
        "service.frontend.batch_mean": _ratio(counts["service.requests"],
                                              counts["service.slots"]),
        "service.queue_wait_p50_vt": waits.get("p50", 0.0),
        "service.queue_wait_p99_vt": waits.get("p99", 0.0),
        "service.slots_failed": counts["service.slots_failed"] / reps,
        "sharded.fork_merge_s": counts["sharded.fork_merge_s"] / reps,
        "sharded.imbalance": counts["sharded.imbalance"] / reps,
        "sweeps.busy_frac": _ratio(counts["sweeps.busy_s"],
                                   counts["sweeps.capacity_s"]),
        "cache.hit_ratio": _ratio(counts["cache.warm_hits"],
                                  counts["cache.warm_lookups"]),
        "unattributed_s": (traced_wall - attributed) / reps,
        "traced_wall_s": traced_wall / reps,
        "trace_overhead": traced_wall / sum(rep.wall_s for rep in plain),
    })
    return table
