"""PR 6 columnar trace engine tests: chunk codec round-trips (numpy
and pure-python), ColumnarSink behaviour + reopen (``load``), loud
disk budgets (``SpillBudgetError``), the columnar<->FULL equivalence
property under the export convention (invariant verdicts, RunMetrics
and decision sequences across static / crash-fault / churn traces),
vectorized-vs-reference invariant verdicts on crafted malformed
traces, schema-v6 export round-trips and CLI replay."""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.analysis import collect_metrics, run_consensus
from repro.analysis.export import (iter_saved_records, load_metadata,
                                   load_scenario, load_trace, save_trace)
from repro.cli import main as cli_main
from repro.core import (BenOrConsensus, TwoPhaseConsensus, WPaxosConfig,
                        WPaxosNode)
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, EdgeChurn, EquivocateStrategy,
                          IndexedMemorySink, SpillBudgetError,
                          TraceLevel, build_simulation, check_consensus,
                          check_model_invariants, crash_plan, make_sink)
from repro.macsim import columnar as columnar_mod
from repro.macsim.columnar import (ColumnarChunk, _pack_label,
                                   _unpack_label, decode_chunk,
                                   encode_chunk, have_numpy,
                                   try_vectorized_invariants)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.macsim.trace import TRACE_KINDS, TraceRecord
from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                            TopologySpec)
from repro.topology import Graph, clique, line, random_geometric

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Bytes the JSONL spill format took for the two fixed-size traces the
#: size tests pin (chunked spill files of the clique(8) two-phase run;
#: the schema-v6 JSONL export of the clique(4) one). The columnar
#: format must stay within a quarter of each.
JSONL_SPILL_BYTES_CLIQUE8 = 9_494
JSONL_EXPORT_BYTES_CLIQUE4 = 5_306


def _fill(sink, records):
    for time, kind, node, bid, peer, payload in records:
        sink.record(time, kind, node, broadcast_id=bid, peer=peer,
                    payload=payload)


def _sample_records():
    return [
        (0.0, "broadcast", 0, 0, None, ("m", 0)),
        (0.25, "deliver", 1, 0, 0, ("m", 0)),
        (0.5, "deliver", (2, "x"), 0, 0, ("m", 0)),
        (1.0, "ack", 0, 0, None, None),
        (1.5, "decide", 1, None, None, 7),
        (2.0, "crash", (2, "x"), None, None, None),
    ]


def _tuples(records):
    return [(r.time, r.kind, r.node, r.broadcast_id, r.peer, r.payload)
            for r in records]


def _exported(records):
    """FULL-trace records under the export convention a disk sink
    replays: labels round-trip through the packed JSON label table,
    payloads become their ``repr`` strings."""
    def label(value):
        return _unpack_label(json.loads(json.dumps(_pack_label(value))))
    return [(r.time, r.kind, label(r.node), r.broadcast_id,
             label(r.peer), None if r.payload is None else repr(r.payload))
            for r in records]


# ----------------------------------------------------------------------
# Chunk codec
# ----------------------------------------------------------------------
class TestChunkCodec:
    def _encode_sample(self, bid_offset=0):
        labels = [0, 1, (2, "x")]
        payloads = [repr(("m", 0))]
        times = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        kinds = bytearray(
            TRACE_KINDS.index(k) for k in
            ("broadcast", "deliver", "deliver", "ack", "decide",
             "crash"))
        bid = bid_offset
        bids = [bid, bid, bid, bid, -1, -1]
        nodes = [0, 1, 2, 0, 1, 2]
        peers = [-1, 0, 0, -1, -1, -1]
        payload_idx = [0, 0, 0, -1, -1, -1]
        blob = encode_chunk(times, kinds, nodes, bids, peers,
                            payload_idx,
                            [_pack_label(v) for v in labels], payloads)
        return blob, times

    def test_round_trip(self):
        blob, times = self._encode_sample()
        chunk = decode_chunk(blob)
        assert chunk.n == 6
        records = list(chunk.records())
        assert [r.time for r in records] == times
        assert records[0].payload == repr(("m", 0))
        assert records[2].node == (2, "x")
        assert records[3].broadcast_id == 0
        assert records[3].payload is None
        assert records[4].broadcast_id is None

    def test_wide_broadcast_ids(self):
        wide = 2 ** 40 + 3
        blob, _ = self._encode_sample(bid_offset=wide)
        narrow, _ = self._encode_sample()
        assert len(blob) >= len(narrow)  # i8 column, flagged
        records = list(decode_chunk(blob).records())
        assert records[0].broadcast_id == wide
        assert records[3].broadcast_id == wide

    def test_pure_python_decode_matches_numpy(self, monkeypatch):
        blob, _ = self._encode_sample()
        with_np = _tuples(decode_chunk(blob).records())
        monkeypatch.setattr(columnar_mod, "np", None)
        assert not have_numpy()
        assert _tuples(decode_chunk(blob).records()) == with_np

    def test_corrupt_magic_rejected(self):
        blob, _ = self._encode_sample()
        with pytest.raises(ValueError):
            decode_chunk(b"XXXX" + blob[4:])


# ----------------------------------------------------------------------
# ColumnarSink
# ----------------------------------------------------------------------
class TestColumnarSink:
    def test_chunking_len_and_replay(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=10)
        for i in range(35):
            sink.record(float(i), "deliver", i % 4, broadcast_id=i,
                        peer=(i + 1) % 4, payload=("m", i))
        assert len(sink.chunk_paths()) == 3
        assert len(sink) == 35
        sink.close()
        assert len(sink.chunk_paths()) == 4
        records = list(sink)
        assert [r.broadcast_id for r in records] == list(range(35))
        assert records[0].payload == repr(("m", 0))
        assert os.path.exists(str(tmp_path / "c" / "manifest.json"))

    def test_tuple_labels_round_trip(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        sink.record(0.0, "deliver", (1, 2), broadcast_id=0,
                    peer=(0, (0, "x")), payload="x")
        sink.close()
        (rec,) = sink
        assert rec.node == (1, 2)
        assert rec.peer == (0, (0, "x"))
        assert sink.for_node((1, 2)) == [rec]
        assert list(ColumnarSink.load(str(tmp_path / "c"))) == [rec]

    def test_essential_kinds_keep_original_payloads(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        value = ("decision", 1)
        sink.record(1.0, "decide", 0, payload=value)
        sink.record(2.0, "crash", 1)
        assert sink.decisions() == {0: value}
        assert sink.decisions()[0] is value
        assert sink.of_kind("decide")[0].payload is value
        assert sink.decision_times() == {0: 1.0}
        assert sink.crashed_nodes() == {1}
        # ... while the replay stream carries the repr.
        assert [r.payload for r in sink if r.kind == "decide"] \
            == [repr(value)]

    def test_unknown_kind_rejected(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        with pytest.raises(ValueError):
            sink.record(0.0, "nope", 0)

    def test_owned_tempdir_cleanup(self):
        sink = ColumnarSink(chunk_records=2)
        for i in range(5):
            sink.record(float(i), "ack", 0, broadcast_id=i)
        sink.close()
        directory = sink.directory
        assert os.path.isdir(directory)
        sink.cleanup()
        assert not os.path.isdir(directory)

    @staticmethod
    def _sigterm_child(tmp_path, body):
        """Start ``body`` in a fresh interpreter with a private TMPDIR;
        it installs the SIGTERM helper first and reports on stdout."""
        script = ("from repro.macsim.columnar import ColumnarSink, "
                  "exit_on_sigterm\nexit_on_sigterm()\n"
                  + textwrap.dedent(body))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
        return subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)

    def test_owned_tempdir_removed_on_sigterm(self, tmp_path):
        child = self._sigterm_child(tmp_path, """
            import time
            sink = ColumnarSink(chunk_records=4)
            for i in range(10):
                sink.record(float(i), "ack", 0, broadcast_id=i)
            print(sink.directory, flush=True)
            time.sleep(60)
        """)
        try:
            directory = child.stdout.readline().strip()
            assert os.path.dirname(directory) == str(tmp_path)
            assert len(os.listdir(directory)) == 2  # two flushed chunks
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 143
        finally:
            child.kill()
            child.stdout.close()
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith("macsim-columnar-")]

    def test_forked_process_keeps_default_sigterm(self, tmp_path):
        child = self._sigterm_child(tmp_path, """
            import os, signal, time
            pid = os.fork()
            if pid == 0:
                time.sleep(60)
                os._exit(0)
            # Sent at once, possibly before the child has run at all.
            os.kill(pid, signal.SIGTERM)
            _, status = os.waitpid(pid, 0)
            print(os.WIFSIGNALED(status) and os.WTERMSIG(status))
        """)
        try:
            assert child.stdout.readline().strip() == str(
                int(signal.SIGTERM))
            assert child.wait(timeout=60) == 0
        finally:
            child.kill()
            child.stdout.close()

    def test_make_sink_and_trace_level(self, tmp_path):
        sink = make_sink("columnar", directory=str(tmp_path / "c"))
        assert isinstance(sink, ColumnarSink)
        assert sink.level is TraceLevel.COLUMNAR
        assert sink.replayable and sink.columnar
        sink.close()

    def test_run_consensus_checks_invariants_on_columnar(self, tmp_path):
        graph = clique(6)
        metrics = run_consensus(
            algorithm="two-phase", topology="clique(6)", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: TwoPhaseConsensus(v + 1, val),
            trace_sink=ColumnarSink(str(tmp_path / "c"),
                                    chunk_records=64))
        assert metrics.correct
        assert metrics.broadcasts > 0

    def test_scenario_trace_level_columnar(self):
        metrics = Scenario(
            algorithm=AlgorithmSpec("two-phase"),
            topology=TopologySpec("clique", n=5),
            scheduler=SchedulerSpec("synchronous"),
            seed=3, trace_level="columnar").run()
        assert metrics.correct

    def _closed_run_sink(self, tmp_path, chunk_records=64):
        graph = clique(5)
        sink = ColumnarSink(str(tmp_path / "c"),
                            chunk_records=chunk_records)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run(max_events=100_000, max_time=100.0)
        sink.close()
        return graph, sink

    def test_load_reopens_everything(self, tmp_path):
        graph, sink = self._closed_run_sink(tmp_path)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert reopened.spilled_bytes() == sink.spilled_bytes()
        assert reopened.decision_times() == sink.decision_times()
        assert reopened.broadcasts_per_node() \
            == sink.broadcasts_per_node()
        for kind in TRACE_KINDS:
            assert reopened.count_of_kind(kind) \
                == sink.count_of_kind(kind), kind
        assert _tuples(reopened) == _tuples(sink)
        # Reopened decisions follow the export convention: payloads
        # come back as repr strings.
        assert reopened.decisions() == {
            node: repr(value) for node, value in
            sink.decisions().items()}
        assert check_model_invariants(graph, reopened, 1.0).ok

    def test_load_without_manifest_uses_glob(self, tmp_path):
        _, sink = self._closed_run_sink(tmp_path)
        os.remove(str(tmp_path / "c" / "manifest.json"))
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert _tuples(reopened) == _tuples(sink)

    def test_load_index_rebuild_pure_python(self, tmp_path, monkeypatch):
        _, sink = self._closed_run_sink(tmp_path)
        monkeypatch.setattr(columnar_mod, "np", None)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert reopened.decision_times() == sink.decision_times()
        assert reopened.broadcasts_per_node() \
            == sink.broadcasts_per_node()
        for kind in TRACE_KINDS:
            assert reopened.count_of_kind(kind) \
                == sink.count_of_kind(kind), kind

    def test_payload_serialized_once_per_object_per_chunk(self,
                                                          tmp_path):
        class Counted:
            calls = 0

            def __init__(self, tag):
                self.tag = tag

            def __repr__(self):
                Counted.calls += 1
                return f"Counted({self.tag!r})"

        shared, twin, other = Counted("m"), Counted("m"), Counted("x")
        records = [
            (0.0, "broadcast", 0, 0, None, shared),
            (0.1, "deliver", 1, 0, 0, shared),
            (0.2, "deliver", 2, 0, 0, shared),  # chunk 0 flushes here
            (0.3, "deliver", 3, 0, 0, shared),
            (0.4, "deliver", 4, 0, 0, twin),
            (0.5, "deliver", 5, 0, 0, other),  # chunk 1 flushes here
            (0.6, "deliver", 6, 0, 0, shared),
            (1.0, "ack", 0, 0, None, None),
        ]
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=3)
        _fill(sink, records)
        sink.close()
        # shared: once in each of the three chunks it appears in; twin
        # and other are distinct objects, each serialized on its own.
        assert Counted.calls == 5
        tables = []
        for path in sink.chunk_paths():
            with open(path, "rb") as handle:
                tables.append(decode_chunk(handle.read()).payloads)
        assert tables == [["Counted('m')"],
                          ["Counted('m')", "Counted('x')"],
                          ["Counted('m')"]]
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert [r.payload for r in reopened] == [
            None if payload is None else repr(payload)
            for *_, payload in records]

    def test_check_consensus_on_reopened_wpaxos(self, tmp_path):
        resolved = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("geometric", n=64, radius=0.25),
            scheduler=SchedulerSpec("random"), seed=4).resolve()
        sink = ColumnarSink(str(tmp_path / "run"))
        resolved.simulate(trace_sink=sink)
        sink.close()
        reopened = ColumnarSink.load(str(tmp_path / "run"))
        raw = resolved.initial_values
        as_repr = {node: repr(value) for node, value in raw.items()}
        for inputs in (raw, as_repr):
            assert check_consensus(reopened, inputs).ok
        # Plant one decision value that no node proposed, everywhere,
        # so agreement holds and only validity can catch it.
        foreign = repr(max(raw.values()) + 1)
        planted = ColumnarSink(str(tmp_path / "planted"))
        for record in reopened:
            if record.kind == "decide":
                record = TraceRecord(record.time, "decide", record.node,
                                     payload=foreign)
            planted.append_serialized(record)
        planted.close()
        planted = ColumnarSink.load(str(tmp_path / "planted"))
        for inputs in (raw, as_repr):
            report = check_consensus(planted, inputs)
            assert report.agreement and report.termination
            assert not report.validity

    def test_columnar_at_most_quarter_of_jsonl(self, tmp_path):
        # The acceptance bytes gate, pinned at test scale too: this
        # 152-record trace took 9,494 bytes as chunked JSONL spill.
        graph = clique(8)
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=256)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run(max_events=100_000, max_time=100.0)
        sink.close()
        assert len(sink) == 152
        assert sink.spilled_bytes() * 4 <= JSONL_SPILL_BYTES_CLIQUE8


# ----------------------------------------------------------------------
# Loud disk budgets (satellite: no silent truncation)
# ----------------------------------------------------------------------
#: The two ways to build a budgeted disk sink; ``make_sink`` must
#: forward ``max_bytes`` to it.
_BUDGETED_SINKS = {
    "columnar": lambda directory, **kw: ColumnarSink(directory, **kw),
    "make_sink": lambda directory, **kw: make_sink(
        "columnar", directory=directory, **kw),
}


@pytest.mark.parametrize("build", list(_BUDGETED_SINKS.values()),
                         ids=list(_BUDGETED_SINKS))
class TestSpillBudget:
    def test_budget_exceeded_raises_loudly(self, tmp_path, build):
        sink = build(str(tmp_path / "s"), chunk_records=50,
                     max_bytes=200)
        with pytest.raises(SpillBudgetError) as err:
            for i in range(10_000):
                sink.record(float(i), "deliver", i % 4,
                            broadcast_id=i, peer=(i + 1) % 4,
                            payload=("padding-payload", i))
        assert "budget" in str(err.value)
        # The spilled prefix stays on disk for post-mortems.
        assert sink.chunk_paths()
        assert all(os.path.exists(p) for p in sink.chunk_paths())

    def test_budget_not_hit_when_under(self, tmp_path, build):
        sink = build(str(tmp_path / "s"), chunk_records=8,
                     max_bytes=10_000_000)
        for i in range(100):
            sink.record(float(i), "ack", 0, broadcast_id=i)
        sink.close()
        assert 0 < sink.spilled_bytes() <= 10_000_000


# ----------------------------------------------------------------------
# Columnar <-> JSONL equivalence property (satellite: hypothesis)
# ----------------------------------------------------------------------
class TestColumnarJsonlEquivalence:
    """The same execution recorded by the FULL in-memory sink and
    spilled through ColumnarSink must agree on everything observable:
    the replayed record stream (FULL mapped through the JSONL export
    convention), decision sequences, RunMetrics, and the invariant
    verdict -- the reference loop on FULL, the vectorized checker on
    the columnar static/crash traces."""

    def _run_both(self, tmp, graph, sched_factory, *, crashes=(),
                  dynamics_factory=None,
                  factory=lambda v: TwoPhaseConsensus(v + 1, v % 2),
                  fault_model_factory=None, chunk_records=128):
        out = []
        for sink in (IndexedMemorySink(),
                     ColumnarSink(str(tmp / "col"),
                                  chunk_records=chunk_records)):
            sim = build_simulation(
                graph, factory, sched_factory(), crashes=list(crashes),
                dynamics=(dynamics_factory() if dynamics_factory
                          else None),
                fault_model=(fault_model_factory()
                             if fault_model_factory else None),
                trace_sink=sink)
            result = sim.run(max_events=150_000, max_time=40.0)
            sink.close()
            out.append((result, sink))
        return out

    def _assert_equivalent(self, graph, runs, *, algorithm="two-phase",
                           values=None, faulty=frozenset()):
        (res_f, full), (res_c, col) = runs
        assert _exported(full) == _tuples(col)
        assert res_f.decisions == res_c.decisions
        assert res_f.decision_times == res_c.decision_times
        assert [(r.time, r.node) for r in full.of_kind("decide")] \
            == [(r.time, r.node) for r in col.of_kind("decide")]
        if values is None:
            values = {v: v % 2 for v in graph.nodes}
        metrics = [collect_metrics(
            algorithm=algorithm, topology="t", graph=graph,
            scheduler=SynchronousScheduler(1.0), result=res,
            initial_values=values, faulty=faulty) for res, _ in runs]
        assert metrics[0] == metrics[1]
        report_f = check_model_invariants(graph, full, 1.0,
                                          faulty=faulty)
        report_c = check_model_invariants(graph, col, 1.0, faulty=faulty)
        assert report_f.ok == report_c.ok
        assert report_f.ok

    @staticmethod
    def _straddling_broadcasts(sink):
        """Broadcast ids whose ``deliver`` records span a flush."""
        chunks_of = {}
        for index, path in enumerate(sink.chunk_paths()):
            with open(path, "rb") as handle:
                chunk = decode_chunk(handle.read())
            for record in chunk.records():
                if record.kind == "deliver":
                    chunks_of.setdefault(record.broadcast_id,
                                         set()).add(index)
        return {bid for bid, seen in chunks_of.items() if len(seen) > 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wpaxos_traces_straddling_flushes(self, tmp_path, seed):
        # wPAXOS payloads are nested frozen dataclasses (WMessage), and
        # chunk_records=7 puts most broadcasts' deliveries across a
        # flush, so the columnar payload memo must restart per chunk.
        graph = random_geometric(16, 0.45, seed=seed)
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        runs = self._run_both(
            tmp_path, graph, lambda: RandomDelayScheduler(1.0, seed=seed),
            factory=lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                         WPaxosConfig()),
            chunk_records=7)
        assert self._straddling_broadcasts(runs[1][1])
        self._assert_equivalent(
            graph, runs, algorithm="wpaxos",
            values={v: uid[v] % 2 for v in graph.nodes})

    def test_byzantine_equivocation_traces(self, tmp_path):
        # Equivocation forges a distinct payload per receiver under one
        # broadcast id: each forged object is serialized on its own.
        graph = clique(7)
        runs = self._run_both(
            tmp_path, graph, lambda: RandomDelayScheduler(1.0, seed=5),
            factory=lambda v: BenOrConsensus(v + 1, v % 2, 7, 1, seed=v),
            fault_model_factory=lambda: ByzantineFaultModel([
                ByzantinePlan(node=6, strategy=EquivocateStrategy(),
                              seed=1)]),
            chunk_records=5)
        forged = {}
        for record in runs[1][1]:
            if record.kind == "deliver" and record.peer == 6:
                forged.setdefault(record.broadcast_id,
                                  set()).add(record.payload)
        assert any(len(payloads) > 1 for payloads in forged.values())
        assert self._straddling_broadcasts(runs[1][1])
        self._assert_equivalent(graph, runs, algorithm="ben-or",
                                faulty=frozenset({6}))

    @given(n=st.integers(3, 7), seed=st.integers(0, 10 ** 6),
           synchronous=st.booleans())
    @settings(**SETTINGS)
    def test_static_traces(self, tmp_path_factory, n, seed,
                           synchronous):
        graph = clique(n)
        tmp = tmp_path_factory.mktemp("col-eq")
        sched = (lambda: SynchronousScheduler(1.0)) if synchronous \
            else (lambda: RandomDelayScheduler(1.0, seed=seed))
        self._assert_equivalent(
            graph, self._run_both(tmp, graph, sched))

    @given(n=st.integers(4, 7), seed=st.integers(0, 10 ** 6),
           crash_count=st.integers(1, 2))
    @settings(**SETTINGS)
    def test_crash_fault_traces(self, tmp_path_factory, n, seed,
                                crash_count):
        rng = random.Random(seed)
        graph = clique(n)
        plans = []
        for victim in rng.sample(list(graph.nodes),
                                 min(crash_count, n - 2)):
            others = [v for v in graph.nodes if v != victim]
            survivors = rng.sample(others, rng.randint(0, len(others)))
            plans.append(crash_plan(victim, rng.uniform(0.0, 4.0),
                                    still_delivered=survivors))
        tmp = tmp_path_factory.mktemp("col-eq-crash")
        self._assert_equivalent(
            graph, self._run_both(
                tmp, graph, lambda: SynchronousScheduler(1.0),
                crashes=plans))

    @given(n=st.integers(4, 6), seed=st.integers(0, 10 ** 6),
           rate=st.floats(0.05, 0.3))
    @settings(**SETTINGS)
    def test_churn_traces(self, tmp_path_factory, n, seed, rate):
        # Dynamic topologies make the vectorized path decline (topo
        # records); both sinks must still agree via the reference loop.
        graph = clique(n)
        tmp = tmp_path_factory.mktemp("col-eq-churn")
        runs = self._run_both(
            tmp, graph, lambda: RandomDelayScheduler(1.0, seed=seed),
            dynamics_factory=lambda: EdgeChurn(rate=rate, seed=seed))
        (res_f, full), (res_c, col) = runs
        assert _exported(full) == _tuples(col)
        assert res_f.decisions == res_c.decisions
        assert res_f.decision_times == res_c.decision_times
        report_f = check_model_invariants(graph, full, 1.0)
        report_c = check_model_invariants(graph, col, 1.0)
        assert report_f.ok == report_c.ok


# ----------------------------------------------------------------------
# Vectorized vs reference verdicts on crafted traces
# ----------------------------------------------------------------------
def _fan_out(n, skip=(), extra=(), crash=None):
    """Node 0 broadcasts id 0 to nodes 1..n-1 except ``skip``, then
    re-delivers to ``extra`` and acks at t=1.0; ``crash`` is an
    optional ``(node, time)``."""
    records = [(0.0, "broadcast", 0, 0, None, "m")]
    records += [(0.5, "deliver", r, 0, 0, "m")
                for r in range(1, n) if r not in skip]
    records += [(0.6, "deliver", r, 0, 0, "m") for r in extra]
    records.append((1.0, "ack", 0, 0, None, None))
    if crash is not None:
        records.append((crash[1], "crash", crash[0], None, None, None))
    return records


def _clique_without(n, bit):
    """clique(n) minus the edge between node 0 and node ``bit``."""
    return Graph([(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) != (0, bit)], nodes=range(n))


def _other_word(n, bit):
    """A second receiver, on another bitmask word where one exists."""
    return next(p for p in (bit ^ 64, bit ^ 1, 1) if 0 < p < n)


#: (graph size, receiver index) pairs on either side of each uint64
#: word boundary, including the last node of a 65- and 129-node graph.
#: On 64 nodes only the unknown-label sentinel (index n) needs word 1.
_WORD_BOUNDARY = [(64, 63), (65, 63), (65, 64), (129, 63), (129, 64),
                  (129, 127), (129, 128)]

#: case -> (n, bit) -> (graph, records, expected ok, message needle).
_BOUNDARY_CASES = {
    "clean": lambda n, bit: (clique(n), _fan_out(n), True, None),
    "duplicate": lambda n, bit: (
        clique(n), _fan_out(n, extra=[bit]), False, "duplicate"),
    "non-neighbor": lambda n, bit: (
        _clique_without(n, bit), _fan_out(n), False, "non-neighbor"),
    "unknown-label": lambda n, bit: (
        clique(n), _fan_out(n, extra=["ghost"]), False, "non-neighbor"),
    "missed": lambda n, bit: (
        clique(n), _fan_out(n, skip=[bit]), False, "received"),
    "crash-excused": lambda n, bit: (
        clique(n), _fan_out(n, skip=[bit], crash=(bit, 0.3)), True,
        None),
    "crash-after-ack": lambda n, bit: (
        clique(n), _fan_out(n, skip=[bit], crash=(bit, 2.0)), False,
        "received"),
    "crash-excuses-only-its-bit": lambda n, bit: (
        clique(n), _fan_out(n, skip=[bit, _other_word(n, bit)],
                            crash=(bit, 0.3)), False, "received"),
}


class _NumpyWithoutBitwiseCount:
    """numpy as the columnar module sees it under numpy < 2.0."""

    def __init__(self, numpy):
        self._numpy = numpy

    def __getattr__(self, name):
        if name == "bitwise_count":
            raise AttributeError(name)
        return getattr(self._numpy, name)


def _violation_total(report):
    """How many violations a (possibly capped) fast report stands for."""
    total = len(report.violations)
    if total and report.violations[-1].startswith("... and "):
        total += int(report.violations[-1].split()[2]) - 1
    return total


@pytest.mark.skipif(not have_numpy(),
                    reason="vectorized checker needs numpy")
class TestVectorizedVsReference:
    def _verdicts(self, graph, records, f_ack=1.0, chunk_records=3):
        sink = ColumnarSink(chunk_records=chunk_records)
        try:
            _fill(sink, records)
            sink.close()
            fast = try_vectorized_invariants(graph, sink, f_ack)
            assert fast is not None, "fast path unexpectedly declined"
            reference = check_model_invariants(
                graph, iter(list(sink)), f_ack)
            return fast, reference
        finally:
            sink.cleanup()

    def _clean(self):
        return [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.4, "deliver", 1, 0, 0, "m"),
            (0.5, "deliver", 2, 0, 0, "m"),
            (1.0, "ack", 0, 0, None, None),
        ]

    def test_clean_trace_ok_both(self):
        fast, ref = self._verdicts(clique(3), self._clean())
        assert fast.ok and ref.ok

    def test_duplicate_delivery_flagged_both(self):
        records = self._clean()
        records.insert(3, (0.6, "deliver", 1, 0, 0, "m"))
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("duplicate" in v for v in fast.violations)

    def test_non_neighbor_delivery_flagged_both(self):
        # line(3): node 2 is not a neighbor of node 0.
        fast, ref = self._verdicts(line(3), self._clean())
        assert not fast.ok and not ref.ok
        assert any("non-neighbor" in v for v in fast.violations)

    def test_mutated_payload_flagged_both(self):
        records = self._clean()
        records[2] = (0.5, "deliver", 2, 0, 0, "FORGED")
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("mutated" in v for v in fast.violations)

    def test_ack_before_last_delivery_flagged_both(self):
        records = [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.4, "deliver", 1, 0, 0, "m"),
            (0.9, "deliver", 2, 0, 0, "m"),
            (0.5, "ack", 0, 0, None, None),
        ]
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok

    def test_missing_coverage_flagged_both(self):
        records = self._clean()
        del records[2]  # node 2 never receives before the ack
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("before" in v and "received" in v
                   for v in fast.violations)

    def test_crash_excuses_missing_coverage_both(self):
        records = [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.3, "crash", 2, None, None, None),
            (0.4, "deliver", 1, 0, 0, "m"),
            (1.0, "ack", 0, 0, None, None),
        ]
        fast, ref = self._verdicts(clique(3), records)
        assert fast.ok and ref.ok

    def test_slow_ack_flagged_both(self):
        records = self._clean()
        records[3] = (5.0, "ack", 0, 0, None, None)
        fast, ref = self._verdicts(clique(3), records, f_ack=1.0)
        assert not fast.ok and not ref.ok
        assert any("F_ack" in v for v in fast.violations)

    def test_violation_messages_capped_but_counted(self):
        # 30 broadcasts on line(3), each delivered to non-neighbor
        # node 2 as well: 30 per-row violations. Messages are capped
        # but the tail is accounted for, not dropped silently.
        records = []
        for i in range(30):
            t = float(i)
            records += [
                (t, "broadcast", 0, i, None, "m"),
                (t + 0.4, "deliver", 1, i, 0, "m"),
                (t + 0.5, "deliver", 2, i, 0, "m"),
                (t + 1.0, "ack", 0, i, None, None),
            ]
        fast, ref = self._verdicts(line(3), records,
                                   chunk_records=500)
        assert not fast.ok and not ref.ok
        assert len(ref.violations) == 30
        assert len(fast.violations) <= 25
        assert any("further violations" in v for v in fast.violations)

    def test_message_cap_holds_per_report_not_per_chunk(self):
        # F_ack = 0.5 against a scheduler that honours 1.0: late acks
        # in every chunk. The report's message count must not grow
        # with the number of chunks the trace is cut into.
        reports = []
        for chunk_records in (512, 50_000):
            resolved = Scenario(
                algorithm=AlgorithmSpec("wpaxos"),
                topology=TopologySpec("geometric", n=32, radius=0.3),
                scheduler=SchedulerSpec("random", f_ack=1.0),
                seed=1, max_events=20_000).resolve()
            sink = ColumnarSink(chunk_records=chunk_records)
            try:
                resolved.simulate(trace_sink=sink)
                fast = try_vectorized_invariants(resolved.graph, sink,
                                                 0.5)
                ref = check_model_invariants(resolved.graph,
                                             iter(list(sink)), 0.5)
            finally:
                sink.cleanup()
            assert fast is not None and not fast.ok and not ref.ok
            assert _violation_total(fast) == len(ref.violations)
            reports.append(fast)
        chunked, whole = reports
        assert len(chunked.violations) == len(whole.violations)
        # At most the cap per category (12 of them) plus the tail line.
        assert len(chunked.violations) <= columnar_mod._MESSAGE_CAP * 12 + 1
        assert _violation_total(chunked) == _violation_total(whole)

    def test_accepts_large_n_with_reference_verdict(self):
        # Nodes 3..69 of clique(70) never receive broadcast 0: the
        # multi-word bitmask must see them, exactly as the reference.
        fast, ref = self._verdicts(clique(70), self._clean())
        assert not fast.ok and not ref.ok
        assert any("received" in v for v in fast.violations)

    @pytest.mark.parametrize("n,bit", _WORD_BOUNDARY)
    @pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES))
    def test_word_boundary_verdicts(self, case, n, bit, monkeypatch):
        graph, records, expect_ok, needle = _BOUNDARY_CASES[case](n, bit)
        sink = ColumnarSink(chunk_records=3)
        try:
            _fill(sink, records)
            sink.close()
            fast = try_vectorized_invariants(graph, sink, 1.0)
            ref = check_model_invariants(graph, iter(list(sink)), 1.0)
            # numpy < 2.0 has no bitwise_count; the fallback sums
            # Python bit_count over each row of words.
            monkeypatch.setattr(columnar_mod, "np",
                                _NumpyWithoutBitwiseCount(columnar_mod.np))
            legacy = try_vectorized_invariants(graph, sink, 1.0)
        finally:
            sink.cleanup()
        assert fast is not None and legacy is not None
        assert fast.ok == ref.ok == expect_ok
        if needle is not None:
            assert any(needle in v for v in fast.violations)
        assert (legacy.ok, legacy.violations) == \
            (fast.ok, fast.violations)

    def test_dispatch_takes_fast_path_on_geometric_128(self, tmp_path,
                                                       monkeypatch):
        resolved = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("geometric", n=128, radius=0.18),
            scheduler=SchedulerSpec("random", f_ack=1.0),
            seed=1).resolve()
        sink = ColumnarSink(str(tmp_path / "run"))
        resolved.simulate(trace_sink=sink)
        sink.close()
        reopened = ColumnarSink.load(str(tmp_path / "run"))
        returned = []

        def spy(*args):
            returned.append(try_vectorized_invariants(*args))
            return returned[-1]

        monkeypatch.setattr(columnar_mod, "try_vectorized_invariants",
                            spy)
        report = check_model_invariants(resolved.graph, reopened, 1.0)
        assert len(returned) == 1 and returned[0] is not None
        assert report is returned[0] and report.ok

    @pytest.mark.parametrize("n", [62, 63, 64, 65, 127, 128, 130])
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=1, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_wpaxos_geometric_verdicts(self, n, seed):
        # The first 20k events (about a third of a run) keep tier-1
        # fast; broadcasts still in flight at the cut gate nothing.
        resolved = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("geometric", n=n, radius=0.18),
            scheduler=SchedulerSpec("random", f_ack=1.0),
            seed=seed, max_events=20_000).resolve()
        sink = ColumnarSink(chunk_records=4096)
        try:
            resolved.simulate(trace_sink=sink)
            records = list(sink)
            # F_ack = 1.0 is what the scheduler honours; 0.5 breaks
            # the contract with one violation per late ack in both.
            for f_ack in (1.0, 0.5):
                fast = try_vectorized_invariants(resolved.graph, sink,
                                                 f_ack)
                ref = check_model_invariants(resolved.graph,
                                             iter(records), f_ack)
                assert fast is not None
                assert fast.ok == ref.ok == (f_ack == 1.0)
                assert _violation_total(fast) == len(ref.violations)
        finally:
            sink.cleanup()

    def test_declines_without_numpy(self, tmp_path, monkeypatch):
        sink = ColumnarSink(str(tmp_path / "c"))
        _fill(sink, self._clean())
        sink.close()
        monkeypatch.setattr(columnar_mod, "np", None)
        assert try_vectorized_invariants(clique(3), sink, 1.0) is None
        # The dispatcher then runs the reference loop and still
        # returns the right verdict.
        assert check_model_invariants(clique(3), sink, 1.0).ok

    def test_declines_on_topology_records(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        _fill(sink, self._clean())
        sink.record(1.5, "topo", 0, broadcast_id=0, peer=1)
        sink.close()
        assert try_vectorized_invariants(clique(3), sink, 1.0) is None


# ----------------------------------------------------------------------
# Schema v6 export + CLI replay
# ----------------------------------------------------------------------
class TestColumnarExport:
    def _sample(self, tmp_path, sink=None):
        graph = clique(4)
        if sink is None:
            sink = ColumnarSink(str(tmp_path / "sink"), chunk_records=32)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run()
        sink.close()
        return sink

    def test_v6_columnar_roundtrip(self, tmp_path):
        sink = self._sample(tmp_path)
        path = str(tmp_path / "t.trace")
        save_trace(sink, path, metadata={"seed": 9})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == 6
        assert header["format"] == "columnar-chunks"
        reloaded = load_trace(path)
        assert len(reloaded) == len(sink)
        assert reloaded.decision_times() == sink.decision_times()
        assert reloaded.broadcast_count() == sink.broadcast_count()
        assert load_metadata(path) == {"seed": 9}
        assert _tuples(iter_saved_records(path)) == _tuples(sink)

    def test_columnar_export_much_smaller_than_jsonl(self, tmp_path):
        col = self._sample(tmp_path)
        full = self._sample(tmp_path, sink=IndexedMemorySink())
        col_path = str(tmp_path / "c.trace")
        jsonl_path = str(tmp_path / "j.trace")
        save_trace(col, col_path)
        save_trace(full, jsonl_path)
        assert os.path.getsize(jsonl_path) == JSONL_EXPORT_BYTES_CLIQUE4
        assert os.path.getsize(col_path) * 4 \
            <= JSONL_EXPORT_BYTES_CLIQUE4
        # ...and the two exports replay the same record stream.
        assert _tuples(iter_saved_records(col_path)) \
            == _tuples(iter_saved_records(jsonl_path))

    def test_reexport_of_reloaded_trace_roundtrips(self, tmp_path):
        # Like the JSONL reload regression: reloading into a
        # preserialized sink must not double-repr payloads, and the
        # re-export carries the identical record stream.
        sink = self._sample(tmp_path)
        first = str(tmp_path / "first.trace")
        save_trace(sink, first)
        reloaded = load_trace(
            first, sink=ColumnarSink(str(tmp_path / "re"),
                                     chunk_records=32))
        reloaded.close()
        second = str(tmp_path / "second.trace")
        save_trace(reloaded, second)
        assert _tuples(iter_saved_records(first)) \
            == _tuples(iter_saved_records(second))

    def test_truncated_columnar_export_fails_loudly(self, tmp_path):
        sink = self._sample(tmp_path)
        path = str(tmp_path / "t.trace")
        save_trace(sink, path)
        with open(path, "rb") as fh:
            data = fh.read()
        clipped = str(tmp_path / "clipped.trace")
        with open(clipped, "wb") as fh:
            fh.write(data[:len(data) - len(data) // 3])
        with pytest.raises(ValueError):
            list(iter_saved_records(clipped))

    def test_v5_jsonl_exports_still_load(self, tmp_path):
        # A v5 export is byte-wise a schema-5 jsonl-chunks file;
        # synthesize one from a FULL-trace export and check it loads.
        full = self._sample(tmp_path, sink=IndexedMemorySink())
        path = str(tmp_path / "new.trace")
        save_trace(full, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        header = json.loads(lines[0])
        assert header["schema"] == 6
        assert header["format"] == "jsonl-chunks"
        header["schema"] = 5
        legacy = str(tmp_path / "legacy.trace")
        with open(legacy, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(lines[1:])
        reloaded = load_trace(legacy)
        assert len(reloaded) == len(full)
        assert _tuples(iter_saved_records(legacy)) == _exported(full)

    def test_cli_run_and_replay_columnar(self, tmp_path, capsys):
        path = str(tmp_path / "cli.trace")
        assert cli_main(["run", "--algorithm", "two-phase",
                         "--topology", "clique:5", "--scheduler",
                         "synchronous", "--trace-level", "columnar",
                         "--trace-out", path]) == 0
        capsys.readouterr()
        assert load_scenario(path) is not None
        assert cli_main(["replay", path]) == 0
        assert "replay matched" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Metrics replay from disk
# ----------------------------------------------------------------------
class TestMetricsReplay:
    def test_collect_metrics_from_reopened_sink(self, tmp_path):
        graph = clique(5)
        values = {v: v % 2 for v in graph.nodes}
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=64)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        result = sim.run()
        sink.close()
        live = collect_metrics(
            algorithm="two-phase", topology="clique(5)", graph=graph,
            scheduler=sim.scheduler, result=result,
            initial_values=values)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        replay = collect_metrics(
            algorithm="two-phase", topology="clique(5)", graph=graph,
            scheduler=sim.scheduler, trace=reopened,
            initial_values=values)
        assert replay.stop_reason == "replay"
        assert (replay.broadcasts, replay.deliveries,
                replay.first_decision, replay.last_decision,
                replay.agreement, replay.validity,
                replay.termination) == (
            live.broadcasts, live.deliveries, live.first_decision,
            live.last_decision, live.agreement, live.validity,
            live.termination)

    def test_collect_metrics_requires_result_or_trace(self):
        graph = clique(3)
        with pytest.raises(TypeError):
            collect_metrics(algorithm="x", topology="t", graph=graph,
                            scheduler=SynchronousScheduler(1.0),
                            initial_values={v: 0 for v in graph.nodes})
