"""Post-hoc model and consensus invariant checking.

These functions replay a trace sink and verify that an execution
respected the abstract MAC layer contract (Section 2) and, where
applicable, the three consensus properties (agreement, validity,
termination). The test-suite runs them over every simulation it
performs; the hypothesis property tests run them over thousands of
randomized schedules.

Bounded-memory replay
---------------------
:func:`check_model_invariants` consumes the trace as a single forward
stream (plus the O(crashes) crash index), and *evicts* a broadcast's
audit state -- payload, delivered set, last-delivery time -- as soon as
its ack has been checked: after the ack no further event may
legitimately reference the broadcast, and at most one broadcast per
node is in flight. Peak memory is therefore O(n + crashes), not
O(trace), which is what lets a
:class:`~repro.macsim.trace.SpillSink` replay a 10^7+-event run
without materializing it. (On a malformed trace, an event arriving
after its broadcast's ack is reported as referencing an unknown
broadcast -- still a violation, just attributed differently.)

Correct-node scoping
--------------------
Under the fault-model subsystem (:mod:`repro.macsim.faults`) both
checkers accept a ``faulty`` node set. Faulty nodes are exempt from
the obligations the model only imposes on correct ones -- a Byzantine
sender's broadcast need not reach every neighbor before its ack, its
delivered payloads may differ from what it "sent", and its decisions
are ignored -- while *new* checks hold the adversary to its license:
a ``drop`` record between two correct endpoints, or a payload
mutation on a correct sender's broadcast, is still a model violation.
Agreement and validity are judged among correct nodes only, the form
in which they are provable at all under Byzantine faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional

from .errors import ModelViolationError
from .trace import TOPO_EDGE_DOWN, TOPO_EDGE_UP, TraceSink


@dataclass
class InvariantReport:
    """Result of a model-invariant check."""

    ok: bool
    violations: list = field(default_factory=list)

    def add(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ModelViolationError("; ".join(self.violations[:10]))


def check_model_invariants(graph, trace: TraceSink,
                           f_ack: Optional[float] = None,
                           unreliable_graph=None,
                           faulty: FrozenSet[Any] = frozenset()
                           ) -> InvariantReport:
    """Verify the MAC-layer contract over a completed trace.

    Checks, per broadcast:

    * deliveries only to graph neighbors of the sender (or unreliable
      neighbors, in dual-graph runs);
    * at most one delivery per (broadcast, receiver);
    * the ack (if present) follows every delivery of that broadcast;
    * the ack arrives within ``f_ack`` of the broadcast (if given);
    * every non-crashed *reliable* neighbor received the message
      before the ack (unreliable neighbors never gate the ack);
    * no activity by a node after its crash;
    * with a ``faulty`` set (fault-model runs): delivered payloads
      match the broadcast payload unless the sender is faulty, and
      ``drop`` records only ever involve a faulty endpoint. The ack
      coverage rule is not enforced for faulty senders or faulty
      neighbors (their deliveries may be legitimately dropped).

    Dynamic-topology runs (:mod:`repro.macsim.dynamics`) are audited
    against the graph **as of each broadcast**: ``topo`` records in
    the stream update a live adjacency, each broadcast snapshots its
    sender's neighbor set at that moment, and the delivery-target and
    ack-coverage checks use the snapshot -- a delivery scheduled over
    an edge that later churned away is legitimate; one over an edge
    absent at broadcast time is a violation. Traces without ``topo``
    records take the original static-graph path untouched.

    ``trace`` is any replayable :class:`~repro.macsim.trace.TraceSink`
    (or a plain iterable of records); the replay runs in O(n + crashes)
    memory -- see the module docstring (per-broadcast neighbor
    snapshots add O(deg) per in-flight broadcast on dynamic runs,
    evicted at ack like the rest).

    Columnar traces (:class:`~repro.macsim.columnar.ColumnarSink`)
    take a vectorized fast path when numpy is available: the same
    audit expressed as whole-column passes, ~an order of magnitude
    faster, with O(broadcasts x n / 64) memory. The fast path covers
    the static-topology non-Byzantine shapes at any n and silently
    falls back to this reference loop on anything else; verdict
    equivalence between the two is pinned by the test-suite.
    """
    if getattr(trace, "columnar", False) and not faulty \
            and unreliable_graph is None:
        from .columnar import try_vectorized_invariants
        fast_report = try_vectorized_invariants(graph, trace, f_ack)
        if fast_report is not None:
            return fast_report
    report = InvariantReport(ok=True)
    starts: dict[int, tuple[float, Any]] = {}
    payloads: dict[int, Any] = {}
    delivered: dict[int, set] = {}
    delivery_last: dict[int, float] = {}
    crash_time: dict[Any, float] = {}
    # Dynamic-topology state: a live adjacency built lazily at the
    # first topo record, plus the per-broadcast snapshot of the
    # sender's neighbors as of the broadcast (None => initial graph).
    adjacency: Optional[dict] = None
    neighbors_at_start: dict[int, frozenset] = {}

    # Crash times come from the sink's essential-kind index when it
    # has one (every sink does). A plain iterable is materialized
    # once so the pre-scan does not exhaust a generator before the
    # main replay pass.
    of_kind = getattr(trace, "of_kind", None)
    if of_kind is not None:
        crash_records = of_kind("crash")
    else:
        trace = list(trace)
        crash_records = [r for r in trace if r.kind == "crash"]
    for rec in crash_records:
        crash_time.setdefault(rec.node, rec.time)

    for rec in trace:
        if rec.kind == "topo":
            if rec.broadcast_id not in (TOPO_EDGE_UP, TOPO_EDGE_DOWN):
                continue  # node leave/join markers carry no edges
            if adjacency is None:
                adjacency = {v: set(graph.neighbors(v))
                             for v in graph.nodes}
            us = adjacency.setdefault(rec.node, set())
            vs = adjacency.setdefault(rec.peer, set())
            if rec.broadcast_id == TOPO_EDGE_UP:
                us.add(rec.peer)
                vs.add(rec.node)
            else:
                us.discard(rec.peer)
                vs.discard(rec.node)
        elif rec.kind == "broadcast":
            starts[rec.broadcast_id] = (rec.time, rec.node)
            payloads[rec.broadcast_id] = rec.payload
            delivered[rec.broadcast_id] = set()
            if adjacency is not None:
                neighbors_at_start[rec.broadcast_id] = frozenset(
                    adjacency.get(rec.node, ()))
            if rec.node in crash_time and rec.time > crash_time[rec.node]:
                report.add(f"crashed node {rec.node!r} broadcast at "
                           f"{rec.time}")
        elif rec.kind == "drop":
            bid = rec.broadcast_id
            if bid not in starts:
                report.add(f"drop for unknown or closed broadcast {bid}")
                continue
            _, sender = starts[bid]
            if sender not in faulty and rec.node not in faulty:
                report.add(
                    f"broadcast {bid} dropped between correct nodes "
                    f"{sender!r} -> {rec.node!r}")
            delivered[bid].add(rec.node)
        elif rec.kind == "deliver":
            bid = rec.broadcast_id
            if bid not in starts:
                report.add(f"delivery for unknown or closed (already acked) broadcast {bid}")
                continue
            start_time, sender = starts[bid]
            snapshot = neighbors_at_start.get(bid)
            if snapshot is not None:
                reachable = rec.node in snapshot
            else:
                reachable = graph.has_edge(sender, rec.node)
            reachable = reachable or (
                unreliable_graph is not None
                and unreliable_graph.has_edge(sender, rec.node))
            if not reachable:
                suffix = (" (as of the broadcast)"
                          if snapshot is not None else "")
                report.add(f"broadcast {bid} delivered to non-neighbor "
                           f"{rec.node!r} of {sender!r}{suffix}")
            if rec.node in delivered[bid]:
                report.add(f"duplicate delivery of broadcast {bid} to "
                           f"{rec.node!r}")
            if rec.time < start_time:
                report.add(f"delivery of broadcast {bid} precedes its "
                           f"start")
            if rec.node in crash_time and rec.time > crash_time[rec.node]:
                report.add(f"delivery to crashed node {rec.node!r}")
            if sender not in faulty and rec.payload != payloads.get(bid):
                report.add(
                    f"broadcast {bid} of correct node {sender!r} "
                    f"delivered mutated payload to {rec.node!r}")
            delivered[bid].add(rec.node)
            delivery_last[bid] = max(delivery_last.get(bid, rec.time),
                                     rec.time)
        elif rec.kind == "ack":
            bid = rec.broadcast_id
            if bid not in starts:
                report.add(f"ack for unknown or closed broadcast {bid}")
                continue
            start_time, sender = starts[bid]
            if rec.node != sender:
                report.add(f"ack for broadcast {bid} went to {rec.node!r} "
                           f"instead of sender {sender!r}")
            if bid in delivery_last and rec.time < delivery_last[bid] - 1e-9:
                report.add(f"ack for broadcast {bid} precedes its last "
                           f"delivery")
            if f_ack is not None and rec.time - start_time > f_ack + 1e-6:
                report.add(f"ack for broadcast {bid} took "
                           f"{rec.time - start_time} > F_ack={f_ack}")
            if sender not in faulty:
                # (A faulty sender's broadcast may be partially or
                # wholly suppressed; its ack gates nothing.) The
                # coverage obligation is the sender's neighbor set as
                # of the broadcast, not as of the ack.
                snapshot = neighbors_at_start.get(bid)
                obligated = (snapshot if snapshot is not None
                             else graph.neighbors(sender))
                for neighbor in obligated:
                    neighbor_crashed = (
                        neighbor in crash_time
                        and crash_time[neighbor] <= rec.time)
                    if (neighbor not in delivered[bid]
                            and not neighbor_crashed
                            and neighbor not in faulty):
                        report.add(
                            f"ack for broadcast {bid} of {sender!r} "
                            f"before non-faulty neighbor {neighbor!r} "
                            f"received")
            # The ack closes the broadcast: evict its audit state so
            # replay memory stays O(in-flight), not O(trace).
            del starts[bid]
            del delivered[bid]
            payloads.pop(bid, None)
            delivery_last.pop(bid, None)
            neighbors_at_start.pop(bid, None)
    return report


@dataclass
class ConsensusReport:
    """Result of checking the three consensus properties."""

    agreement: bool
    validity: bool
    termination: bool
    decisions: dict
    undecided: list

    @property
    def ok(self) -> bool:
        return self.agreement and self.validity and self.termination


def check_consensus(trace: TraceSink, initial_values: dict,
                    alive_nodes: Optional[list] = None,
                    faulty: FrozenSet[Any] = frozenset(),
                    untrusted: Optional[FrozenSet[Any]] = None
                    ) -> ConsensusReport:
    """Check agreement/validity/termination against a trace.

    ``initial_values`` maps node label -> consensus input. Termination
    is judged over ``alive_nodes`` (defaults to every node that did not
    crash in the trace and is not ``faulty``).

    With a non-empty ``faulty`` set, agreement and termination are
    scoped to *correct* nodes: faulty decisions are ignored.
    ``untrusted`` additionally names the nodes whose *inputs* do not
    validate a decision; it defaults to ``faulty`` (the Byzantine
    reading). Crash/omission callers pass
    ``untrusted=fault_model.lying_nodes()`` (empty for those models),
    because a crashed node executes its program correctly and its
    input remains a legitimate decision value.

    On a sink with ``payloads_preserialized`` (a reopened spill, whose
    decisions are ``repr`` strings), a decision is also valid when it
    equals the ``repr`` of a trusted input, so callers may pass raw
    inputs or their ``repr`` strings.
    """
    if untrusted is None:
        untrusted = faulty
    decisions = trace.decisions()
    crashed = trace.crashed_nodes()
    if faulty:
        decisions = {node: value for node, value in decisions.items()
                     if node not in faulty}
    if alive_nodes is None:
        alive_nodes = [v for v in initial_values
                       if v not in crashed and v not in faulty]

    values = set(decisions.values())
    agreement = len(values) <= 1
    trusted_inputs = {value for node, value in initial_values.items()
                      if node not in untrusted}
    if getattr(trace, "payloads_preserialized", False):
        trusted_inputs |= {repr(value) for value in trusted_inputs}
    validity = all(v in trusted_inputs for v in values)
    undecided = [v for v in alive_nodes if v not in decisions]
    termination = not undecided
    return ConsensusReport(
        agreement=agreement,
        validity=validity,
        termination=termination,
        decisions=decisions,
        undecided=undecided,
    )
