"""Bounded-memory smoke for the spill pipeline:
``python -m benchmarks.spill_smoke``.

Sets a *hard* address-space ceiling (``resource.setrlimit``) at the
process's current footprint plus ``--headroom-mb``, then drives a
full-level run of at least ``--events`` events spilling to binary
columnar chunks (:class:`~repro.macsim.columnar.ColumnarSink`),
streams the trace back through ``check_model_invariants``, collects
metrics, and exports the trace with the streaming (schema v6) writer.
If any stage's memory grew with the trace instead of the chunk size,
the allocation fails and the smoke exits non-zero -- the ceiling is
enforced by the kernel, not by sampling.

The smoke reports the trace-bytes-per-event ratio, and
``--disk-budget-mb`` bounds the spill footprint *loudly*: past the
budget the sink raises
:class:`~repro.macsim.trace.SpillBudgetError` and the smoke FAILS,
instead of silently truncating the trace. The run additionally
reopens the spill directory (``ColumnarSink.load``) and re-derives
the metrics from the columns -- the vectorized disk-replay path.

CI runs it at 10^7 events; the acceptance-scale 10^8-event run is the
same invocation with ``--events 100000000 --headroom-mb 1024`` (the
vectorized invariant audit keeps O(broadcasts) numpy state, ~75 B per
broadcast). SIGTERM exits through ``SystemExit(143)``, so the spill
directory is removed on the way out.

Long runs heartbeat progress every ``--heartbeat-events`` (events/s,
VmSize, spilled bytes) by slicing the run into resumable
``sim.run(max_events=...)`` calls -- event-for-event identical to one
uninterrupted run. ``--telemetry-out PATH`` attaches a
:class:`~repro.macsim.telemetry.Telemetry` and writes its snapshot;
on ``SpillBudgetError`` a partial snapshot (marked ``aborted``) is
still flushed, which is the post-mortem artifact CI uploads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

from repro.analysis import collect_metrics, save_trace
from repro.macsim import (ColumnarSink, Process, SpillBudgetError,
                          Telemetry, build_simulation,
                          check_model_invariants)
# Imported at module level so numpy (pulled in by the columnar fast
# paths) is resident *before* the VmSize baseline is measured.
from repro.macsim.columnar import exit_on_sigterm, have_numpy
from repro.macsim.schedulers import SynchronousScheduler
from repro.topology import clique


class _FloodProcess(Process):
    """Broadcasts ``rounds`` messages back-to-back, then decides."""

    def __init__(self, uid, rounds: int):
        super().__init__(uid=uid, initial_value=uid % 2)
        self.rounds = rounds
        self.sent = 0

    def on_start(self):
        self._next()

    def on_ack(self):
        self._next()

    def _next(self):
        if self.sent < self.rounds:
            self.sent += 1
            self.broadcast(("m", self.uid, self.sent))
        elif not self.decided:
            # Not a real consensus protocol -- every node "decides" 0
            # so the smoke can assert agreement/termination checking
            # works over the spilled trace.
            self.decide(0)


def _vm_size_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmSize not found")  # pragma: no cover


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spill_smoke",
        description="Spill-sink bounded-memory smoke (hard RSS "
                    "ceiling, loud disk budget).")
    parser.add_argument("--events", type=int, default=1_000_000,
                        help="minimum events to process (default 1M)")
    parser.add_argument("--nodes", type=int, default=24,
                        help="clique size (default 24)")
    parser.add_argument("--headroom-mb", type=int, default=256,
                        help="address-space ceiling above the current "
                             "footprint (default 256 MB); an in-RAM "
                             "full trace of the same run needs far "
                             "more. 10^8-event runs need ~1024 "
                             "(O(broadcasts) audit state)")
    parser.add_argument("--disk-budget-mb", type=int, default=None,
                        help="hard spill-bytes budget; exceeding it "
                             "mid-run FAILS the smoke loudly "
                             "(SpillBudgetError) instead of silently "
                             "truncating the trace")
    parser.add_argument("--chunk-records", type=int, default=50_000)
    parser.add_argument("--heartbeat-events", type=int,
                        default=1_000_000, metavar="N",
                        help="print a progress heartbeat (events/s, "
                             "VmSize, spilled bytes) every N events "
                             "(default 1M; 0 disables). The run is "
                             "sliced into resumable sim.run() calls, "
                             "which is event-for-event identical to "
                             "one uninterrupted run")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="attach a Telemetry to the run and write "
                             "its snapshot to PATH; on SpillBudgetError "
                             "a *partial* snapshot (marked aborted) is "
                             "still flushed for the post-mortem")
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write the summary JSON to PATH "
                             "(perf_report --attach-smoke embeds it)")
    parser.add_argument("--skip-rlimit", action="store_true",
                        help="measure without enforcing the ceiling "
                             "(non-Linux debugging)")
    args = parser.parse_args(argv)
    exit_on_sigterm()

    n = args.nodes
    # Per full round: n broadcasts x (n-1 deliveries + 1 ack) events.
    per_round = n * n
    rounds = args.events // per_round + 1
    max_bytes = (None if args.disk_budget_mb is None
                 else args.disk_budget_mb * 1_000_000)

    baseline_mb = _vm_size_mb()
    if not args.skip_rlimit:
        limit = int((baseline_mb + args.headroom_mb) * 1024 * 1024)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        print(f"address-space ceiling: {limit / 1e6:,.0f} MB "
              f"(baseline {baseline_mb:,.0f} MB "
              f"+ {args.headroom_mb} MB headroom)")
    print(f"numpy fast paths: {'on' if have_numpy() else 'off'}")

    graph = clique(n)
    values = {v: v % 2 for v in graph.nodes}
    summary = None
    with tempfile.TemporaryDirectory(prefix="spill-smoke-") as spill_dir:
        chunk_dir = os.path.join(spill_dir, "chunks")
        sink = ColumnarSink(chunk_dir, chunk_records=args.chunk_records,
                            max_bytes=max_bytes)
        telemetry = None
        if args.telemetry_out:
            # out_path makes record_abort() flush a partial snapshot
            # to disk even when the budget blows mid-run.
            telemetry = Telemetry(
                label=f"spill-smoke-columnar-clique{n}",
                out_path=args.telemetry_out)
        sim = build_simulation(
            graph, lambda v: _FloodProcess(v, rounds),
            SynchronousScheduler(1.0), trace_sink=sink,
            # Validated plans let the engine free each broadcast's
            # book-keeping at its ack (O(n) records in RAM).
            validate_plans=True, telemetry=telemetry)
        # Each flood round completes in one f_ack (= 1.0); leave slack
        # for the final decision wave rather than inheriting the
        # engine's default time ceiling.
        event_budget = args.events * 2
        deadline = float(rounds) + 10.0
        heartbeat = max(0, args.heartbeat_events)
        run_start = time.perf_counter()
        events_total = 0
        try:
            # The engine resumes exactly where a max_events stop left
            # off, so slicing the run for heartbeats is pure
            # observation: the event sequence (and the spilled trace)
            # is identical to one uninterrupted run.
            while True:
                step = (event_budget - events_total if not heartbeat
                        else min(heartbeat, event_budget - events_total))
                result = sim.run(max_events=step, max_time=deadline)
                events_total += result.events_processed
                if (result.stop_reason != "max_events"
                        or events_total >= event_budget):
                    break
                elapsed = time.perf_counter() - run_start
                print(f"heartbeat: {events_total:,} events, "
                      f"{events_total / elapsed:,.0f} ev/s, "
                      f"vmsize {_vm_size_mb():,.0f} MB, "
                      f"spilled {sink.spilled_bytes() / 1e6:,.1f} MB "
                      f"({len(sink.chunk_paths())} chunks)",
                      flush=True)
            sink.close()
        except SpillBudgetError as exc:
            if telemetry is not None:
                # sim.run's abort path already flushed if the error
                # surfaced mid-loop; re-recording is idempotent and
                # also covers a budget blown at sink.close().
                telemetry.record_abort(sim, exc)
                print(f"telemetry (partial, aborted): "
                      f"{args.telemetry_out}")
            print(f"FAIL: disk budget exceeded mid-run -- {exc}")
            print("(the trace was NOT silently truncated; raise "
                  "--disk-budget-mb or lower --events)")
            return 1
        run_seconds = time.perf_counter() - run_start
        spilled_bytes = sink.spilled_bytes()
        bytes_per_event = spilled_bytes / max(events_total, 1)
        bytes_per_record = spilled_bytes / max(len(sink), 1)
        print(f"run: {events_total:,} events, "
              f"{len(sink):,} records, "
              f"{len(sink.chunk_paths())} chunks, "
              f"stop={result.stop_reason}, "
              f"{events_total / run_seconds:,.0f} ev/s")
        print(f"spill: {spilled_bytes / 1e6:,.1f} MB on disk -> "
              f"{bytes_per_event:.1f} B/event, "
              f"{bytes_per_record:.1f} B/record")
        if events_total < args.events:
            print(f"FAIL: processed fewer than {args.events:,} events")
            return 1
        if telemetry is not None:
            telemetry.write(args.telemetry_out)
            spans = telemetry.counters["broadcasts_acked"]
            print(f"telemetry: {args.telemetry_out} "
                  f"({spans:,} spans closed, "
                  f"{telemetry.events_processed:,} events counted)")

        replay_start = time.perf_counter()
        report = check_model_invariants(graph, sink, 1.0)
        replay_seconds = time.perf_counter() - replay_start
        if not report.ok:
            print(f"FAIL: invariants violated: {report.violations[:3]}")
            return 1
        print(f"invariants: ok "
              f"({'vectorized' if have_numpy() else 'streamed'}"
              f" replay, {len(sink) / replay_seconds:,.0f} rec/s)")

        metrics = collect_metrics(
            algorithm="flood", topology=f"clique({n})", graph=graph,
            scheduler=sim.scheduler, result=result,
            initial_values=values, diameter=1)
        print(f"metrics: broadcasts={metrics.broadcasts:,} "
              f"deliveries={metrics.deliveries:,} "
              f"termination={metrics.termination}")
        if not (metrics.agreement and metrics.termination):
            print("FAIL: consensus checks failed on the smoke workload")
            return 1

        # Disk-replay verification: reopen the spill directory and
        # re-derive every counter and the metrics from the columns
        # (the vectorized ColumnarSink.load path).
        reopened = ColumnarSink.load(chunk_dir)
        if (len(reopened) != len(sink)
                or reopened.broadcast_count() != sink.broadcast_count()
                or reopened.delivery_count() != sink.delivery_count()
                or reopened.decision_times() != sink.decision_times()):
            print("FAIL: reopened columnar sink disagrees with the "
                  "live one")
            return 1
        replay_metrics = collect_metrics(
            algorithm="flood", topology=f"clique({n})", graph=graph,
            scheduler=sim.scheduler, trace=reopened,
            initial_values=values, diameter=1)
        if not (replay_metrics.agreement
                and replay_metrics.termination
                and replay_metrics.broadcasts == metrics.broadcasts):
            print("FAIL: replay metrics diverged from the live run")
            return 1
        print(f"reopen: ColumnarSink.load verified "
              f"({len(reopened):,} records, metrics match)")

        export_path = os.path.join(spill_dir, "export.trace")
        save_trace(sink, export_path,
                   metadata={"smoke": True, "events": args.events})
        export_mb = os.path.getsize(export_path) / 1e6
        print(f"export: {export_mb:,.1f} MB (streamed, schema v6, "
              f"columnar chunks)")

        peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024)
        summary = {
            "numpy": have_numpy(),
            "nodes": n,
            "events": events_total,
            "records": len(sink),
            "chunks": len(sink.chunk_paths()),
            "spilled_bytes": spilled_bytes,
            "bytes_per_event": round(bytes_per_event, 2),
            "bytes_per_record": round(bytes_per_record, 2),
            "export_mb": round(export_mb, 1),
            "run_seconds": round(run_seconds, 2),
            "events_per_sec": round(events_total / run_seconds, 1),
            "replay_seconds": round(replay_seconds, 2),
            "replay_records_per_sec": round(
                len(sink) / replay_seconds, 1),
            "headroom_mb": args.headroom_mb,
            "rlimit_enforced": not args.skip_rlimit,
            "ru_maxrss_mb": round(peak_mb, 1),
            "baseline_vmsize_mb": round(baseline_mb, 1),
            "disk_budget_mb": args.disk_budget_mb,
            "telemetry_out": args.telemetry_out,
            "telemetry_spans": (None if telemetry is None
                                else len(telemetry.f_ack)),
        }

    print(json.dumps(summary))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"summary written: {args.json_out}")
    print("spill smoke ok: full-level trace replayed, checked and "
          "exported under the memory ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
