"""The process (node) programming API.

Algorithms in the abstract MAC layer model are written as subclasses of
:class:`Process`. The model exposes exactly the interface from Section 2
of the paper:

* ``broadcast(message)`` -- reliable local broadcast. If a broadcast is
  already in flight (no ack received yet), the new message is *discarded*
  and ``False`` is returned, mirroring the paper's "extra messages are
  discarded" rule. Algorithms that must not lose messages keep their own
  outbox queue (exactly what wPAXOS's broadcast service does).
* ``on_receive(message)`` -- called when a neighbor's broadcast is
  delivered to this node. The model does **not** reveal the sender;
  algorithms that need sender identity embed it in the payload. This
  matters for the anonymity lower bound (Section 3.2), where algorithms
  must not have access to any identifier.
* ``on_ack()`` -- called when the MAC layer acknowledges the current
  broadcast, i.e. after every non-faulty neighbor has received it.
* ``decide(value)`` -- irrevocable consensus decision.
* ``now()`` -- read the global clock. Processes may read real time (the
  wPAXOS change service calls ``time stamp()``), but nothing in the model
  lets them infer message delays from it, since ``F_ack`` is unknown.

Local computation takes zero simulated time: handlers run atomically at
the timestamp of the event that triggered them.
"""

from __future__ import annotations

from typing import Any, Optional

from .errors import ProcessError


class Process:
    """Base class for algorithm processes.

    Parameters
    ----------
    uid:
        The node's unique id, or ``None`` for anonymous algorithms.
        Anonymous processes must not branch on ``uid``; the anonymity
        experiments additionally verify this behaviourally via trace
        equality across covering networks.
    initial_value:
        The consensus input (``0`` or ``1`` for binary consensus).
    """

    def __init__(self, uid: Optional[int] = None,
                 initial_value: Any = None) -> None:
        self.uid = uid
        self.initial_value = initial_value
        self.decision: Any = None
        self.decided = False
        self.crashed = False
        self._runtime = None  # bound by the simulator
        self._label = None  # graph label, cached at bind time
        # Mirror of the simulator's in-flight state for this process;
        # maintained by the engine so ack_pending is one attribute read.
        self._mac_pending = False

    # ------------------------------------------------------------------
    # Handlers to override
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once at time zero, before any message events."""

    def on_receive(self, message: Any) -> None:
        """Called for each message delivered to this node."""

    def on_ack(self) -> None:
        """Called when the current broadcast completes (is acked)."""

    def on_decided(self) -> None:
        """Hook called right after this process decides."""

    # ------------------------------------------------------------------
    # Model API available to subclasses
    # ------------------------------------------------------------------
    def broadcast(self, message: Any) -> bool:
        """Broadcast ``message`` to all graph neighbors.

        Returns ``True`` if the MAC layer accepted the message and
        ``False`` if it was discarded because a broadcast is already in
        flight.

        Every receiver, and a FULL trace, gets this same object, so
        ``message`` must not be mutated once it is handed to the MAC.
        """
        self._require_runtime()
        if self.crashed:
            raise ProcessError(f"crashed process {self.label!r} broadcast")
        return self._runtime.mac_broadcast(self, message)

    def decide(self, value: Any) -> None:
        """Perform the irrevocable decide action."""
        self._require_runtime()
        if self.decided:
            if value != self.decision:
                raise ProcessError(
                    f"process {self.label!r} decided twice with different "
                    f"values: {self.decision!r} then {value!r}")
            return
        self.decided = True
        self.decision = value
        self._runtime.note_decision(self, value)
        self.on_decided()

    def now(self) -> float:
        """Current global simulation time."""
        self._require_runtime()
        return self._runtime.now

    @property
    def label(self) -> Any:
        """The graph node this process is bound to (None before binding)."""
        if self._runtime is None:
            return self.uid
        if self._label is not None:
            return self._label
        return self._runtime.label_of(self)

    @property
    def ack_pending(self) -> bool:
        """Whether this process has a broadcast in flight."""
        if self._runtime is None:
            self._require_runtime()
        return self._mac_pending

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    def state_fingerprint(self) -> Any:
        """A hashable snapshot of algorithm-visible state.

        Used by the indistinguishability experiments to compare node
        states across executions in different networks. Subclasses that
        participate in those experiments override this; the default is
        the (decided, decision) pair.
        """
        return (self.decided, self.decision)

    # ------------------------------------------------------------------
    def _require_runtime(self) -> None:
        if self._runtime is None:
            raise ProcessError(
                "process is not bound to a simulator; construct a "
                "Simulator with this process before using the model API")

    def _bind(self, runtime, label: Any = None) -> None:
        if self._runtime is not None and self._runtime is not runtime:
            raise ProcessError("process is already bound to a simulator")
        self._runtime = runtime
        self._label = label
