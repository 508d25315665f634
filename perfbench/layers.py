"""Outside-in layer attribution for the traced benchmark run.

Nothing here edits ``src/``: every span is a wrapper around a public
function or method of one layer, installed from this file and removed
again when the traced section ends. Three kinds of wrapper are used:

* per-instance wrappers on each process's ``on_start`` /
  ``on_receive`` / ``on_ack`` and on each scheduler's ``plan``,
  installed by wrapping the factory and scheduler that
  ``Scenario.resolve`` returns;
* a timing subclass of ``ColumnarSink`` (``record`` and ``flush``);
* class-level wrappers (``Simulator.run``, ``ServiceFrontend``,
  ``GroupRuntime``, ``ResultCache``, ...) applied by :func:`instrument`
  only for the duration of a traced repetition.

A span's *self time* is its duration minus the time of the spans
nested inside it, so the self times of all spans of a repetition plus
the time spent outside any span (``unattributed_s``) add up to the
repetition's wall time exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from time import perf_counter

from repro.analysis import cache as cache_mod
from repro.analysis import sweeps as sweeps_mod
from repro.macsim.columnar import ColumnarSink
from repro.macsim.service import sharded as sharded_mod
from repro.macsim.service.frontend import ServiceFrontend
from repro.macsim.service.loop import ConsensusService
from repro.macsim.service.runtime import GroupRuntime
from repro.macsim.simulator import Simulator
from repro.scenario import ResolvedScenario, Scenario

#: Span names whose self times form the layer table, with the
#: per-layer metric each is reported under.
SELF_ROWS = {
    "scenario.setup": "scenario.setup.self_s",
    "simulator.run": "simulator.run.self_s",
    "core.handlers": "core.handlers.self_s",
    "schedulers.plan": "schedulers.plan.self_s",
    "columnar.record": "columnar.record.self_s",
    "columnar.flush": "columnar.flush.self_s",
    "columnar.load": "columnar.load_s",
    "invariants.model": "invariants.model_s",
    "invariants.consensus": "invariants.consensus_s",
    "service.frontend": "service.frontend.self_s",
    "service.runtime.advance": "service.runtime.advance.self_s",
    "service.runtime.add_group": "service.runtime.add_group.self_s",
    "service.loop": "service.loop.self_s",
    "sweeps.executor": "sweeps.executor.self_s",
    "cache.put": "cache.put.self_s",
    "cache.get": "cache.get.self_s",
    "cache.verify": "cache.verify.self_s",
}

#: Span names whose call counts are reported.
CALL_ROWS = {
    "scenario.setup": "scenario.setup.calls",
    "simulator.run": "simulator.run.calls",
    "core.handlers": "core.handlers.calls",
    "schedulers.plan": "schedulers.plan.calls",
    "cache.put": "cache.put.calls",
    "cache.get": "cache.get.calls",
}


class LayerTracer:
    """Accumulates span self times, call counts and counters.

    ``_stack`` holds one ``[name, child_seconds]`` frame per open span
    (plus a root frame), so a closing span can charge its duration to
    its parent's child time.
    """

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = [["root", 0.0]]
        self._pending_batch = None

    def reset(self) -> None:
        """Empty every table in place (the span closures keep
        references to these containers)."""
        for table in (self.self_s, self.total_s, self.calls, self.counts,
                      self.samples):
            table.clear()
        self._stack[:] = [["root", 0.0]]
        self._pending_batch = None

    @property
    def current(self) -> str:
        return self._stack[-1][0]

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call is a span named ``name``."""
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[1]
                total_s[name] += elapsed
                calls[name] += 1
                stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return timed

    # -- per-instance wrappers -------------------------------------------
    def wrap_resolved(self, resolved):
        """Time the handlers of every process the factory builds and
        the scheduler's delivery planning."""
        factory = resolved.factory

        def make(label, value):
            process = factory(label, value)
            for handler in ("on_start", "on_receive", "on_ack"):
                setattr(process, handler,
                        self.span("core.handlers",
                                  getattr(process, handler)))
            return process

        resolved.factory = make
        scheduler = resolved.scheduler
        scheduler.plan = self.span("schedulers.plan", scheduler.plan)
        return resolved

    def columnar_sink_class(self):
        """A ``ColumnarSink`` subclass that times encode and flush."""
        tracer = self

        class TimedColumnarSink(ColumnarSink):
            record = tracer.span("columnar.record", ColumnarSink.record)
            flush = tracer.span("columnar.flush", ColumnarSink.flush)

        return TimedColumnarSink

    # -- outputs -----------------------------------------------------------
    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def absorb(self, snap: dict, *, times: bool) -> None:
        """Add another tracer's snapshot: its counts and samples always,
        its self times only when ``times`` (the critical-path shard)."""
        if times:
            for name, value in snap["self_s"].items():
                self.self_s[name] += value
        for name, value in snap["calls"].items():
            self.calls[name] += value
        for name, value in snap["counts"].items():
            self.counts[name] += value
        for name, values in snap["samples"].items():
            self.samples[name].extend(values)


def _patch(patches, owner, attr, replacement):
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: LayerTracer, shard_dir: str):
    """Install the class-level wrappers for one traced repetition.

    ``shard_dir`` is where forked service shards drop their own span
    tables (see :func:`read_shard_tables`)."""
    patches = []
    span = tracer.span
    counts = tracer.counts
    samples = tracer.samples

    def resolved_hook(resolved, args, kwargs):
        tracer.wrap_resolved(resolved)

    def run_hook(result, args, kwargs):
        counts["simulator.events"] += result.events_processed

    def batch_hook(batch, args, kwargs):
        tracer._pending_batch = batch or None

    def add_group_hook(result, args, kwargs):
        batch = tracer._pending_batch
        if batch is not None:
            start = kwargs.get("start_time", 0.0)
            samples["service.queue_wait_vt"].extend(
                start - request.arrival for request in batch)
            tracer._pending_batch = None

    original_run = Scenario.__dict__["run"]
    timed_run = span("cache.verify", original_run)

    def scenario_run(self, *args, **kwargs):
        # Only the replay verification inside ResultCache.get is a
        # span; any other Scenario.run stays with its caller.
        if tracer.current == "cache.get":
            return timed_run(self, *args, **kwargs)
        return original_run(self, *args, **kwargs)

    original_worker = sharded_mod._shard_worker

    def shard_worker(conn, shard, *args):
        # Runs in the forked child: start a fresh table, serve, then
        # leave the table where the parent can read it.
        tracer.reset()
        try:
            original_worker(conn, shard, *args)
        finally:
            snap = tracer.snapshot()
            path = os.path.join(shard_dir, f"shard-{shard}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(snap, handle)

    _patch(patches, Scenario, "resolve",
           span("scenario.setup", Scenario.resolve,
                on_result=resolved_hook))
    _patch(patches, Scenario, "override",
           span("scenario.setup", Scenario.override))
    _patch(patches, Scenario, "run", scenario_run)
    _patch(patches, ResolvedScenario, "build",
           span("scenario.setup", ResolvedScenario.build))
    _patch(patches, Simulator, "run",
           span("simulator.run", Simulator.run, on_result=run_hook))
    _patch(patches, ServiceFrontend, "submit",
           span("service.frontend", ServiceFrontend.submit))
    _patch(patches, ServiceFrontend, "next_batch",
           span("service.frontend", ServiceFrontend.next_batch,
                on_result=batch_hook))
    _patch(patches, GroupRuntime, "advance",
           span("service.runtime.advance", GroupRuntime.advance))
    _patch(patches, GroupRuntime, "add_group",
           span("service.runtime.add_group", GroupRuntime.add_group,
                on_result=add_group_hook))
    _patch(patches, ConsensusService, "run",
           span("service.loop", ConsensusService.run))
    _patch(patches, cache_mod.ResultCache, "get",
           span("cache.get", cache_mod.ResultCache.get))
    _patch(patches, cache_mod.ResultCache, "put",
           span("cache.put", cache_mod.ResultCache.put))
    _patch(patches, sweeps_mod, "parallel_sweep",
           span("sweeps.executor", sweeps_mod.parallel_sweep))
    _patch(patches, sharded_mod, "_shard_worker", shard_worker)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def read_shard_tables(tracer: LayerTracer, shard_dir: str) -> None:
    """Fold the forked shards' tables into ``tracer``.

    Counts and samples are summed over every shard; self times come
    from the slowest shard only, the one the parent waited for, so
    the table still sums to the parent's wall time.
    """
    tables = []
    for name in sorted(os.listdir(shard_dir)):
        path = os.path.join(shard_dir, name)
        with open(path, encoding="utf-8") as handle:
            tables.append(json.load(handle))
        os.unlink(path)
    if not tables:
        return
    slowest = max(tables, key=lambda snap: snap["total_s"]["service.loop"])
    for snap in tables:
        tracer.absorb(snap, times=snap is slowest)
