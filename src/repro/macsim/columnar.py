"""Binary columnar trace format: struct-packed chunks, vectorized replay.

This is the on-disk trace sink. Full-level records are packed into
typed *columns* (fixed-width little-endian arrays for time/kind/ids,
per-chunk interned string tables for node labels and payload ``repr``
strings), compressed per chunk with zlib, and read back as
whole-column views -- numpy arrays when numpy is installed (the
``[fast]`` extra), ``array.array`` otherwise. JSONL survives only as
an export rendering (:func:`repro.analysis.export.save_trace` of an
in-memory trace).

Three layers live here:

* the chunk codec (:func:`encode_chunk` / :func:`decode_chunk` and
  :class:`ColumnarChunk`) -- self-contained blobs, JSON-lossless on
  round-trip with the export convention (labels losslessly via
  :func:`_pack_label`, payloads as ``repr`` strings);
* :class:`ColumnarSink` (``TraceLevel.COLUMNAR``) -- the streaming
  sink: chunked ``.colb`` files plus an in-RAM decision/counter
  index, a ``manifest.json``, and :meth:`ColumnarSink.load` which
  reopens a spill directory and rebuilds decisions/counters from the
  columns (numpy ``bincount`` over whole chunks -- the vectorized
  *metrics replay*);
* the vectorized model-invariant checker
  (:func:`try_vectorized_invariants`) -- the MAC-contract audit of
  :func:`repro.macsim.invariants.check_model_invariants` re-expressed
  as whole-column numpy passes with O(broadcasts) state instead of a
  per-record Python loop. It covers the static-topology fault-free and
  crash-fault cases (the shapes that actually reach 10^8 events) and
  *declines* -- returns ``None`` so the caller falls back to the
  record-iterator reference implementation -- on anything exotic
  (dynamic topologies, fault-model runs with drops, malformed id
  columns). Any n is covered: delivered sets and adjacency are rows of
  ``(n + 64) // 64`` uint64 words. Verdict equality between the two
  paths is pinned by the test-suite's property tests.

Chunk blob layout (all little-endian)::

    magic   b"MCC1"
    u32     n_records
    u32     flags          (bit 0: broadcast-id column is i8, not i4)
    u32     raw_body_len
    u32     compressed_len
    zlib(body, level=1) where body =
        u32 len | label table   (JSON array of packed labels)
        u32 len | payload table (JSON array of payload repr strings)
        times    f8 * n
        kinds    u1 * n        (index into TRACE_KINDS)
        nodes    i4 * n        (index into the label table)
        bids     i4|i8 * n     (-1 encodes None)
        peers    i4 * n        (-1 encodes None)
        payloads i4 * n        (-1 encodes None)

Everything numpy-flavoured is gated at call time on the module global
``np`` (``None`` when numpy is unavailable or ``MACSIM_NO_NUMPY`` is
set), so the pure-python fallback is a first-class, tested path.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import struct
import sys
import tempfile
import weakref
import zlib
from array import array
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional

from .trace import (TRACE_KINDS, SpillBudgetError, TraceLevel, TraceRecord,
                    TraceSink, _ESSENTIAL_KINDS, _TRACE_KIND_SET)

if os.environ.get("MACSIM_NO_NUMPY"):  # pragma: no cover - CI fallback leg
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised on bare installs
        np = None


def have_numpy() -> bool:
    """Whether the vectorized fast paths are available right now."""
    return np is not None


#: Kind string -> u1 column code (the TRACE_KINDS index).
KIND_CODES: Dict[str, int] = {k: i for i, k in enumerate(TRACE_KINDS)}
_KIND_BROADCAST = KIND_CODES["broadcast"]
_KIND_DELIVER = KIND_CODES["deliver"]
_KIND_ACK = KIND_CODES["ack"]
_KIND_DECIDE = KIND_CODES["decide"]
_KIND_CRASH = KIND_CODES["crash"]

_MAGIC = b"MCC1"
#: Pre-compiled structs for the hot pack/unpack path (satellite: no
#: per-chunk struct recompilation).
_HEADER_STRUCT = struct.Struct("<4sIIII")
_U32 = struct.Struct("<I")

_FLAG_WIDE_BIDS = 1

#: ``array`` typecodes guaranteed 4/8 bytes on this interpreter.
_I4 = next(c for c in "ilq" if array(c).itemsize == 4)
_I8 = next(c for c in "qlI" if array(c).itemsize == 8)
_BIG_ENDIAN = sys.byteorder == "big"

_I4_MIN, _I4_MAX = -(2 ** 31), 2 ** 31 - 1

#: Records per chunk file; bounds replay memory and buffer size.
DEFAULT_CHUNK_RECORDS = 50_000

_TUPLE_TAG = "__t__"


def _pack_label(value: Any) -> Any:
    """JSON-lossless packing for node/peer labels (ints, strings,
    floats, None, and tuples thereof); anything else falls back to
    ``repr``."""
    if value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, tuple):
        return [_TUPLE_TAG] + [_pack_label(v) for v in value]
    return repr(value)


def _unpack_label(value: Any) -> Any:
    if isinstance(value, list):
        if value and value[0] == _TUPLE_TAG:
            return tuple(_unpack_label(v) for v in value[1:])
        return [_unpack_label(v) for v in value]
    return value


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit(143)`` in the calling process.

    The default SIGTERM action ends the interpreter without unwinding,
    so ``finally`` blocks and the ``weakref.finalize`` hooks that
    remove a sink's owned temp directory never run. With this handler
    they do. A process forked afterwards keeps the default action:
    SIGTERM stays blocked across the fork and the child restores the
    default before unblocking it, so a SIGTERM sent the moment the
    child exists still ends it. Call it from the main thread.
    """
    if signal.getsignal(signal.SIGTERM) is _exit_on_signal:
        return
    signal.signal(signal.SIGTERM, _exit_on_signal)
    masks = []

    def restore(child=False):
        if child and signal.getsignal(signal.SIGTERM) is _exit_on_signal:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, masks.pop())

    os.register_at_fork(
        before=lambda: masks.append(signal.pthread_sigmask(
            signal.SIG_BLOCK, (signal.SIGTERM,))),
        after_in_parent=restore, after_in_child=lambda: restore(True))


def _column_bytes(typecode: str, values) -> bytes:
    arr = array(typecode, values)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian on-disk format
        arr.byteswap()
    return arr.tobytes()


def _column_from(typecode: str, data: bytes):
    arr = array(typecode)
    arr.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover
        arr.byteswap()
    return arr


class ColumnarChunk:
    """One decoded chunk: whole-column views plus the intern tables.

    ``times``/``kinds``/``nodes``/``bids``/``peers``/``payload_idx``
    are numpy arrays when numpy is available (zero-copy views over the
    decompressed body where alignment allows) and ``array.array``
    otherwise. ``labels`` holds the *unpacked* node labels the
    ``nodes``/``peers`` columns index into; ``payloads`` the payload
    ``repr`` strings (``-1`` indexes encode ``None``).
    """

    __slots__ = ("n", "times", "kinds", "nodes", "bids", "peers",
                 "payload_idx", "labels", "payloads")

    def __init__(self, n, times, kinds, nodes, bids, peers, payload_idx,
                 labels, payloads):
        self.n = n
        self.times = times
        self.kinds = kinds
        self.nodes = nodes
        self.bids = bids
        self.peers = peers
        self.payload_idx = payload_idx
        self.labels = labels
        self.payloads = payloads

    def records(self) -> Iterator[TraceRecord]:
        """Materialize the rows as :class:`TraceRecord` objects, in
        order (the reference / compatibility path; the fast paths use
        the columns directly)."""
        # tolist() converts numpy scalars to plain Python objects in
        # one C pass; array.array supports it identically. Pending
        # (not yet flushed) chunks carry plain builder lists.
        def as_list(column):
            return (column.tolist() if hasattr(column, "tolist")
                    else list(column))
        times = as_list(self.times)
        kinds = as_list(self.kinds)
        nodes = as_list(self.nodes)
        bids = as_list(self.bids)
        peers = as_list(self.peers)
        payload_idx = as_list(self.payload_idx)
        labels = self.labels
        payloads = self.payloads
        kind_names = TRACE_KINDS
        for i in range(self.n):
            bid = bids[i]
            pi = payload_idx[i]
            peer = peers[i]
            yield TraceRecord(
                times[i], kind_names[kinds[i]], labels[nodes[i]],
                broadcast_id=None if bid < 0 else bid,
                peer=None if peer < 0 else labels[peer],
                payload=None if pi < 0 else payloads[pi])


def encode_chunk(times, kinds, nodes, bids, peers, payload_idx,
                 packed_labels: List[Any],
                 payload_table: List[str]) -> bytes:
    """Pack one chunk's columns into a compressed binary blob.

    ``kinds`` is a ``bytearray`` of kind codes; the id columns are
    plain int sequences with ``-1`` for ``None``; ``packed_labels``
    are already :func:`_pack_label`-packed.
    """
    n = len(times)
    flags = 0
    bid_code = _I4
    if bids and not (_I4_MIN <= min(bids) and max(bids) <= _I4_MAX):
        flags |= _FLAG_WIDE_BIDS
        bid_code = _I8
    label_blob = json.dumps(packed_labels,
                            separators=(",", ":")).encode("utf-8")
    payload_blob = json.dumps(payload_table,
                              separators=(",", ":")).encode("utf-8")
    body = b"".join((
        _U32.pack(len(label_blob)), label_blob,
        _U32.pack(len(payload_blob)), payload_blob,
        _column_bytes("d", times),
        bytes(kinds),
        _column_bytes(_I4, nodes),
        _column_bytes(bid_code, bids),
        _column_bytes(_I4, peers),
        _column_bytes(_I4, payload_idx),
    ))
    comp = zlib.compress(body, 1)
    return _HEADER_STRUCT.pack(_MAGIC, n, flags, len(body),
                               len(comp)) + comp


def decode_chunk(blob: bytes) -> ColumnarChunk:
    """Decode a chunk blob back into whole-column views."""
    magic, n, flags, raw_len, comp_len = _HEADER_STRUCT.unpack_from(
        blob, 0)
    if magic != _MAGIC:
        raise ValueError("not a columnar trace chunk (bad magic)")
    body = zlib.decompress(
        blob[_HEADER_STRUCT.size:_HEADER_STRUCT.size + comp_len])
    if len(body) != raw_len:
        raise ValueError("columnar chunk is corrupt (length mismatch)")
    off = 0
    (llen,) = _U32.unpack_from(body, off)
    off += 4
    packed_labels = json.loads(body[off:off + llen].decode("utf-8"))
    off += llen
    (plen,) = _U32.unpack_from(body, off)
    off += 4
    payloads = json.loads(body[off:off + plen].decode("utf-8"))
    off += plen
    labels = [_unpack_label(v) for v in packed_labels]
    bid_wide = bool(flags & _FLAG_WIDE_BIDS)
    bid_size = 8 if bid_wide else 4
    if np is not None:
        times = np.frombuffer(body, "<f8", n, off)
        kinds = np.frombuffer(body, np.uint8, n, off + 8 * n)
        nodes = np.frombuffer(body, "<i4", n, off + 9 * n)
        bids = np.frombuffer(body, "<i8" if bid_wide else "<i4", n,
                             off + 13 * n)
        peers = np.frombuffer(body, "<i4", n, off + 13 * n + bid_size * n)
        payload_idx = np.frombuffer(body, "<i4", n,
                                    off + 17 * n + bid_size * n)
    else:
        times = _column_from("d", body[off:off + 8 * n])
        kinds = body[off + 8 * n:off + 9 * n]
        nodes = _column_from(_I4, body[off + 9 * n:off + 13 * n])
        bids = _column_from(_I8 if bid_wide else _I4,
                            body[off + 13 * n:
                                 off + 13 * n + bid_size * n])
        rest = off + 13 * n + bid_size * n
        peers = _column_from(_I4, body[rest:rest + 4 * n])
        payload_idx = _column_from(_I4, body[rest + 4 * n:rest + 8 * n])
    return ColumnarChunk(n, times, kinds, nodes, bids, peers,
                         payload_idx, labels, payloads)


class ColumnarSink(TraceSink):
    """Full-level trace packed into binary columnar chunks on disk.

    Every occurrence lands in the current chunk, chunks flush to
    ``chunk-NNNNN.colb`` every ``chunk_records`` records,
    decisions/crashes/counters stay in an exact in-RAM index (the
    decision index keeps the *original* payload objects), and
    iterating replays the records in order with O(chunk) memory,
    decoded as whole columns by the codec above. ``close()``
    additionally writes a ``manifest.json`` chunk manifest next to the
    chunks. The sink owns its directory when none is supplied (a fresh
    temp dir, removed on :meth:`cleanup` or garbage collection).

    A payload is serialized once per object per chunk: a broadcast's
    message object is ``repr``-ed for its ``broadcast`` record and its
    ``deliver`` records reuse that payload-table index. This relies on
    the :meth:`~repro.macsim.trace.TraceSink.record` contract that a
    payload is not mutated once it is handed to the MAC. An equal but
    distinct object is ``repr``-ed again and lands on the same index.

    :meth:`load` reopens a previously written spill directory without
    re-running the simulation: the decision/counter index is rebuilt
    from the columns (vectorized with numpy when available), so
    consensus checking and metrics replay at column speed. Payloads in
    a reopened sink are ``repr`` strings throughout (the export
    convention), exactly like a reloaded trace export.

    ``max_bytes`` optionally bounds the on-disk footprint; exceeding
    it raises :class:`~repro.macsim.trace.SpillBudgetError` at flush
    time rather than truncating the trace silently.
    """

    __slots__ = ("directory", "chunk_records", "max_bytes",
                 "_chunk_paths", "_chunk_counts", "_spilled_bytes",
                 "_spilled", "_by_kind_essential", "_decisions",
                 "_decision_times", "_kind_counts", "_broadcasts_by_node",
                 "_finalizer", "_c_times", "_c_kinds",
                 "_c_nodes", "_c_bids", "_c_peers", "_c_payloads",
                 "_label_index", "_labels_packed", "_labels",
                 "_payload_index", "_payload_table", "_payload_memo",
                 "__weakref__")

    level = TraceLevel.COLUMNAR
    replayable = True
    materializes_mac = True
    payloads_preserialized = True
    columnar = True

    def __init__(self, directory: Optional[str] = None, *,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 max_bytes: Optional[int] = None) -> None:
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        # Only a temp dir of its own is removed by cleanup() or on
        # garbage collection; a given directory is never owned.
        self._finalizer = None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="macsim-columnar-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, directory, True)
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.chunk_records = chunk_records
        self.max_bytes = max_bytes
        self._chunk_paths: List[str] = []
        self._chunk_counts: List[int] = []
        self._spilled_bytes = 0
        self._spilled = 0
        self._by_kind_essential: Dict[str, List[TraceRecord]] = {}
        self._decisions: Dict[Any, Any] = {}
        self._decision_times: Dict[Any, float] = {}
        self._kind_counts: Dict[str, int] = {k: 0 for k in TRACE_KINDS}
        self._broadcasts_by_node: Dict[Any, int] = {}
        self._reset_builders()

    def _reset_builders(self) -> None:
        self._c_times: List[float] = []
        self._c_kinds = bytearray()
        self._c_nodes: List[int] = []
        self._c_bids: List[int] = []
        self._c_peers: List[int] = []
        self._c_payloads: List[int] = []
        self._label_index: Dict[Any, int] = {}
        self._labels_packed: List[Any] = []
        self._labels: List[Any] = []
        self._payload_index: Dict[str, int] = {}
        self._payload_table: List[str] = []
        # id(payload) -> (payload, table index) for this chunk. Holding
        # the object keeps its id from being reused while it is open.
        self._payload_memo: Dict[int, tuple] = {}

    # -- ingestion -----------------------------------------------------
    def _label_id(self, label: Any) -> int:
        idx = self._label_index.get(label)
        if idx is None:
            idx = self._label_index[label] = len(self._labels_packed)
            self._labels_packed.append(_pack_label(label))
            self._labels.append(label)
        return idx

    def _payload_id(self, text: str) -> int:
        idx = self._payload_index.get(text)
        if idx is None:
            idx = self._payload_index[text] = len(self._payload_table)
            self._payload_table.append(text)
        return idx

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown trace kind: {kind!r}")
        self._c_times.append(time)
        self._c_kinds.append(code)
        self._c_nodes.append(self._label_id(node))
        self._c_bids.append(-1 if broadcast_id is None else broadcast_id)
        self._c_peers.append(-1 if peer is None
                             else self._label_id(peer))
        if payload is None:
            self._c_payloads.append(-1)
        else:
            hit = self._payload_memo.get(id(payload))
            if hit is None:
                hit = self._payload_memo[id(payload)] = (
                    payload, self._payload_id(repr(payload)))
            self._c_payloads.append(hit[1])
        if len(self._c_times) >= self.chunk_records:
            self.flush()
        self._kind_counts[kind] += 1
        if kind == "decide":
            if node not in self._decisions:
                self._decisions[node] = payload
                self._decision_times[node] = time
        elif kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)
        if kind in _ESSENTIAL_KINDS:
            self._by_kind_essential.setdefault(kind, []).append(
                TraceRecord(time, kind, node, broadcast_id=broadcast_id,
                            peer=peer, payload=payload))

    def append(self, record: TraceRecord) -> None:
        """Protocol parity with :class:`~repro.macsim.trace.Trace`."""
        self.record(record.time, record.kind, record.node,
                    broadcast_id=record.broadcast_id, peer=record.peer,
                    payload=record.payload)

    def append_serialized(self, record: TraceRecord) -> None:
        """Append a record whose payload is *already* a ``repr``
        string (reloading an export or another sink's replay stream);
        skips the second ``repr`` so round-trips stay byte-identical."""
        kind = record.kind
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown trace kind: {kind!r}")
        payload = record.payload
        self._c_times.append(record.time)
        self._c_kinds.append(code)
        self._c_nodes.append(self._label_id(record.node))
        self._c_bids.append(-1 if record.broadcast_id is None
                            else record.broadcast_id)
        self._c_peers.append(-1 if record.peer is None
                             else self._label_id(record.peer))
        self._c_payloads.append(
            -1 if payload is None else self._payload_id(payload))
        if len(self._c_times) >= self.chunk_records:
            self.flush()
        self._kind_counts[kind] += 1
        node = record.node
        if kind == "decide":
            if node not in self._decisions:
                self._decisions[node] = payload
                self._decision_times[node] = record.time
        elif kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)
        if kind in _ESSENTIAL_KINDS:
            self._by_kind_essential.setdefault(kind, []).append(record)

    def bump(self, kind: str, node: Any = None) -> None:
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)

    def flush(self) -> None:
        """Encode and write the buffered tail as a new chunk file."""
        count = len(self._c_times)
        if not count:
            return
        blob = encode_chunk(self._c_times, self._c_kinds, self._c_nodes,
                            self._c_bids, self._c_peers,
                            self._c_payloads, self._labels_packed,
                            self._payload_table)
        path = os.path.join(self.directory,
                            f"chunk-{len(self._chunk_paths):05d}.colb")
        with open(path, "wb") as handle:
            handle.write(blob)
        self._chunk_paths.append(path)
        self._chunk_counts.append(count)
        self._spilled += count
        self._spilled_bytes += len(blob)
        self._reset_builders()
        if (self.max_bytes is not None
                and self._spilled_bytes > self.max_bytes):
            raise SpillBudgetError(
                f"columnar spill exceeded its disk budget: "
                f"{self._spilled_bytes:,} bytes > {self.max_bytes:,} "
                f"({self._spilled:,} records in {self.directory})")

    def close(self) -> None:
        self.flush()
        self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "format": "macsim-columnar/v1",
            "records": self._spilled,
            "chunk_records": self.chunk_records,
            "chunks": [
                {"file": os.path.basename(p), "records": c,
                 "bytes": os.path.getsize(p)}
                for p, c in zip(self._chunk_paths, self._chunk_counts)],
        }
        path = os.path.join(self.directory, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
            handle.write("\n")

    def cleanup(self) -> None:
        """Remove the spill directory (only if this sink created it)."""
        if self._finalizer is not None:
            self._finalizer()

    def spilled_bytes(self) -> int:
        """Total bytes written to chunk files so far."""
        return self._spilled_bytes

    # -- reopening -----------------------------------------------------
    @classmethod
    def load(cls, directory: str) -> "ColumnarSink":
        """Reopen a written columnar spill directory for replay.

        Chunk files are discovered through ``manifest.json`` (or a
        sorted glob when the manifest is missing) and the
        decision/counter index is rebuilt from the columns --
        vectorized with numpy when available -- so every query,
        consensus check and metrics computation works as on the
        original sink, with payloads as ``repr`` strings.
        """
        sink = cls(directory)
        manifest_path = os.path.join(directory, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            names = [entry["file"] for entry in manifest["chunks"]]
        else:
            names = sorted(name for name in os.listdir(directory)
                           if name.endswith(".colb"))
        sink._chunk_paths = [os.path.join(directory, n) for n in names]
        for path in sink._chunk_paths:
            sink._spilled_bytes += os.path.getsize(path)
        sink._rebuild_index()
        return sink

    def _rebuild_index(self) -> None:
        """Recompute counters/decisions/essential records from the
        columns (the vectorized metrics-replay path)."""
        counts = [0] * len(TRACE_KINDS)
        per_node: Dict[Any, int] = self._broadcasts_by_node
        chunk_counts: List[int] = []
        for chunk in self._iter_file_chunks():
            chunk_counts.append(chunk.n)
            if np is not None:
                kinds = np.asarray(chunk.kinds)
                hist = np.bincount(kinds, minlength=len(TRACE_KINDS))
                for code, c in enumerate(hist.tolist()):
                    counts[code] += c
                bmask = kinds == _KIND_BROADCAST
                if bmask.any():
                    nodes = np.asarray(chunk.nodes)[bmask]
                    for li, c in enumerate(np.bincount(
                            nodes, minlength=len(chunk.labels)).tolist()):
                        if c:
                            label = chunk.labels[li]
                            per_node[label] = per_node.get(label, 0) + c
                essential = np.flatnonzero(
                    (kinds == _KIND_DECIDE) | (kinds == _KIND_CRASH)
                    | (kinds == KIND_CODES["topo"])).tolist()
            else:
                essential = []
                ess_codes = {KIND_CODES[k] for k in _ESSENTIAL_KINDS}
                nodes = chunk.nodes
                for i, code in enumerate(chunk.kinds):
                    counts[code] += 1
                    if code == _KIND_BROADCAST:
                        label = chunk.labels[nodes[i]]
                        per_node[label] = per_node.get(label, 0) + 1
                    elif code in ess_codes:
                        essential.append(i)
            for i in essential:
                rec = self._row_record(chunk, i)
                bucket = self._by_kind_essential.setdefault(rec.kind, [])
                bucket.append(rec)
                if rec.kind == "decide" and rec.node not in self._decisions:
                    self._decisions[rec.node] = rec.payload
                    self._decision_times[rec.node] = rec.time
        self._chunk_counts = chunk_counts
        self._spilled = sum(chunk_counts)
        for kind, code in KIND_CODES.items():
            self._kind_counts[kind] = counts[code]

    @staticmethod
    def _row_record(chunk: ColumnarChunk, i: int) -> TraceRecord:
        bid = int(chunk.bids[i])
        peer = int(chunk.peers[i])
        pi = int(chunk.payload_idx[i])
        return TraceRecord(
            float(chunk.times[i]), TRACE_KINDS[chunk.kinds[i]],
            chunk.labels[int(chunk.nodes[i])],
            broadcast_id=None if bid < 0 else bid,
            peer=None if peer < 0 else chunk.labels[peer],
            payload=None if pi < 0 else chunk.payloads[pi])

    # -- replay --------------------------------------------------------
    def __len__(self) -> int:
        return self._spilled + len(self._c_times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()

    def _pending_chunk(self) -> Optional[ColumnarChunk]:
        if not self._c_times:
            return None
        return ColumnarChunk(
            len(self._c_times), list(self._c_times),
            bytes(self._c_kinds), list(self._c_nodes),
            list(self._c_bids), list(self._c_peers),
            list(self._c_payloads), list(self._labels),
            list(self._payload_table))

    def _iter_file_chunks(self) -> Iterator[ColumnarChunk]:
        for path in self._chunk_paths:
            with open(path, "rb") as handle:
                yield decode_chunk(handle.read())

    def iter_chunks(self) -> Iterator[ColumnarChunk]:
        """Decode every chunk in order (flushed files, then the
        pending tail buffer) as whole-column views."""
        yield from self._iter_file_chunks()
        pending = self._pending_chunk()
        if pending is not None:
            yield pending

    def iter_records(self) -> Iterator[TraceRecord]:
        """Replay every record in order, one chunk at a time."""
        for chunk in self.iter_chunks():
            yield from chunk.records()

    def iter_chunk_blobs(self) -> Iterator[bytes]:
        """The raw encoded chunk blobs, in order (the export path
        copies these verbatim -- no re-encode)."""
        for path in self._chunk_paths:
            with open(path, "rb") as handle:
                yield handle.read()
        pending = self._pending_chunk()
        if pending is not None:
            yield encode_chunk(
                pending.times, bytearray(pending.kinds), pending.nodes,
                pending.bids, pending.peers, pending.payload_idx,
                [_pack_label(v) for v in pending.labels],
                pending.payloads)

    def chunk_paths(self) -> List[str]:
        """Paths of the flushed chunks, in record order."""
        return list(self._chunk_paths)

    # -- queries -------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        if kind in _ESSENTIAL_KINDS:
            return list(self._by_kind_essential.get(kind, ()))
        if kind not in _TRACE_KIND_SET:
            return []
        return [r for r in self.iter_records() if r.kind == kind]

    def for_node(self, node: Any) -> List[TraceRecord]:
        return [r for r in self.iter_records() if r.node == node]

    def decisions(self) -> Dict[Any, Any]:
        return dict(self._decisions)

    def decision_times(self) -> Dict[Any, float]:
        return dict(self._decision_times)

    def broadcast_count(self, node: Any = None) -> int:
        if node is None:
            return self._kind_counts.get("broadcast", 0)
        return self._broadcasts_by_node.get(node, 0)

    def broadcasts_per_node(self) -> Dict[Any, int]:
        return dict(self._broadcasts_by_node)

    def count_of_kind(self, kind: str) -> int:
        return self._kind_counts.get(kind, 0)

    def crashed_nodes(self) -> set:
        return {r.node for r in self._by_kind_essential.get("crash", ())}


# ----------------------------------------------------------------------
# Vectorized model-invariant replay
# ----------------------------------------------------------------------
#: Cap on per-category violation messages (the report also records the
#: total, so verdicts and counts stay exact while memory stays O(1)).
_MESSAGE_CAP = 20


class _BidState:
    """Grow-on-demand per-broadcast audit columns (numpy only)."""

    __slots__ = ("cap", "start", "sender", "bpos", "payload_hash",
                 "ack_time", "ack_pos", "deliver_mask", "deliver_count",
                 "deliver_last")

    def __init__(self, words: int, cap: int = 1024):
        self.cap = cap
        self.start = np.full(cap, np.nan)
        self.sender = np.full(cap, -1, np.int64)
        self.bpos = np.full(cap, -1, np.int64)
        self.payload_hash = np.zeros(cap, np.int64)
        self.ack_time = np.full(cap, np.nan)
        self.ack_pos = np.full(cap, -1, np.int64)
        self.deliver_mask = np.zeros((cap, words), np.uint64)
        self.deliver_count = np.zeros(cap, np.int64)
        self.deliver_last = np.full(cap, -np.inf)

    def ensure(self, max_bid: int) -> None:
        if max_bid < self.cap:
            return
        new_cap = max(self.cap * 2, max_bid + 1)
        for name, fill in (("start", np.nan), ("sender", -1),
                           ("bpos", -1), ("payload_hash", 0),
                           ("ack_time", np.nan), ("ack_pos", -1),
                           ("deliver_mask", 0), ("deliver_count", 0),
                           ("deliver_last", -np.inf)):
            old = getattr(self, name)
            grown = np.full((new_cap,) + old.shape[1:], fill,
                            dtype=old.dtype)
            grown[:self.cap] = old
            setattr(self, name, grown)
        self.cap = new_cap


class _FastPathDeclined(Exception):
    """Internal: the trace has a shape the vectorized checker does not
    model; the caller falls back to the reference implementation."""


def try_vectorized_invariants(graph, trace, f_ack=None):
    """Run the vectorized MAC-contract audit, or return ``None``.

    ``None`` means the fast path does not apply (no numpy, the sink is
    not columnar, the run used dynamic topology / fault-model drops,
    or the id columns have a shape the vectorized checker does not
    model) and the caller must use the record-iterator reference
    implementation. Any graph size is accepted: memory is
    O(broadcasts x ceil((n + 1) / 64)) uint64 words for the delivered
    sets plus O(n^2 / 64) for the adjacency bitmask. The ``ok``
    verdict equals the reference checker's on every trace the fast
    path accepts; violation *messages* are summarized per category.
    """
    if np is None or not getattr(trace, "columnar", False):
        return None
    if not hasattr(trace, "iter_chunks"):
        return None
    if trace.count_of_kind("topo") or trace.count_of_kind("drop"):
        return None
    try:
        return _vectorized_check(graph, trace, f_ack)
    except _FastPathDeclined:
        return None


class _Reporter:
    """Capped message collection with exact violation accounting:
    at most ``_MESSAGE_CAP`` messages per category per report, however
    many chunks the trace spans."""

    def __init__(self, report):
        self.report = report
        self.extra = 0
        self.room: Dict[str, int] = {}

    def flag(self, category: str, count: int, messages) -> None:
        if not count:
            return
        self.report.ok = False
        room = self.room.get(category, _MESSAGE_CAP)
        shown = list(islice(messages, room))
        self.report.violations.extend(shown)
        self.room[category] = room - len(shown)
        self.extra += count - len(shown)

    def finish(self) -> None:
        if self.extra:
            self.report.add(f"... and {self.extra} further violations "
                            f"(messages capped)")


def _vectorized_check(graph, trace, f_ack):
    from .invariants import InvariantReport

    report = InvariantReport(ok=True)
    out = _Reporter(report)
    nodes = list(graph.nodes)
    n = len(nodes)
    gidx = {v: i for i, v in enumerate(nodes)}
    # Bitmask rows: node j is bit ``j & 63`` of word ``j >> 6``. Index
    # n is the "unknown label" sentinel: never adjacent, never crashed,
    # bit n unused by any neighbor mask.
    words = (n + 64) // 64
    neigh_mask = np.zeros((n + 1, words), dtype=np.uint64)
    edges = np.array([(gidx[v], gidx[u]) for v in nodes
                      for u in graph.neighbors(v)],
                     dtype=np.int64).reshape(-1, 2)
    np.bitwise_or.at(neigh_mask, (edges[:, 0], edges[:, 1] >> 6),
                     np.uint64(1) << (edges[:, 1] & 63).astype(np.uint64))
    crash_t = np.full(n + 1, np.inf)
    crashed_idx = []
    for rec in trace.of_kind("crash"):
        i = gidx.get(rec.node, n)
        if rec.time < crash_t[i]:
            crash_t[i] = rec.time
        if i < n:
            crashed_idx.append(i)

    state = _BidState(words)
    base = 0
    none_hash = hash(None)
    for chunk in trace.iter_chunks():
        m = chunk.n
        times = np.asarray(chunk.times, dtype=np.float64)
        kinds = np.asarray(chunk.kinds, dtype=np.uint8)
        node_col = np.asarray(chunk.nodes, dtype=np.int64)
        bids = np.asarray(chunk.bids, dtype=np.int64)
        payload_col = np.asarray(chunk.payload_idx, dtype=np.int64)
        # Per-chunk gather tables: chunk label -> global node index,
        # chunk payload -> stable payload hash (index -1 selects the
        # appended sentinel).
        g_of_label = np.fromiter(
            (gidx.get(label, n) for label in chunk.labels),
            dtype=np.int64, count=len(chunk.labels))
        g_of_label = np.append(g_of_label, n)
        payload_hash = np.fromiter(
            (hash(s) for s in chunk.payloads),
            dtype=np.int64, count=len(chunk.payloads))
        payload_hash = np.append(payload_hash, none_hash)
        gn = g_of_label[node_col]
        ph = payload_hash[payload_col]
        pos = base + np.arange(m, dtype=np.int64)
        base += m

        is_b = kinds == _KIND_BROADCAST
        is_d = kinds == _KIND_DELIVER
        is_a = kinds == _KIND_ACK
        if ((is_b | is_d | is_a) & (bids < 0)).any():
            raise _FastPathDeclined  # None ids on MAC kinds
        max_bid = int(bids.max(initial=-1))
        state.ensure(max_bid)

        # --- broadcasts: register state, check crashed senders -------
        if is_b.any():
            b_bid = bids[is_b]
            if len(np.unique(b_bid)) != len(b_bid):
                raise _FastPathDeclined  # reused broadcast id in chunk
            if not np.isnan(state.start[b_bid]).all():
                raise _FastPathDeclined  # reused id across chunks
            b_time = times[is_b]
            b_sender = gn[is_b]
            state.start[b_bid] = b_time
            state.sender[b_bid] = b_sender
            state.bpos[b_bid] = pos[is_b]
            state.payload_hash[b_bid] = ph[is_b]
            bad = b_time > crash_t[b_sender]
            out.flag("crashed-sender", int(bad.sum()),
                     (f"crashed node {nodes[int(s)]!r} broadcast at "
                      f"{t}" for s, t in
                      zip(b_sender[bad], b_time[bad].tolist())))

        # --- acks: register position/time first (stream-position
        # comparisons make intra-chunk ordering exact), checks after --
        if is_a.any():
            a_bid = bids[is_a]
            if len(np.unique(a_bid)) != len(a_bid):
                raise _FastPathDeclined  # duplicate acks in one chunk
            a_time = times[is_a]
            a_pos = pos[is_a]
            a_node = gn[is_a]
            unknown = (np.isnan(state.start[a_bid])
                       | (state.bpos[a_bid] > a_pos))
            closed = (~unknown) & (state.ack_pos[a_bid] >= 0)
            out.flag("ack-unknown", int((unknown | closed).sum()),
                     (f"ack for unknown or closed broadcast {b}"
                      for b in a_bid[unknown | closed].tolist()))
            ok_rows = ~(unknown | closed)
            if ok_rows.any():
                v_bid = a_bid[ok_rows]
                v_time = a_time[ok_rows]
                wrong = a_node[ok_rows] != state.sender[v_bid]
                out.flag("ack-wrong-node", int(wrong.sum()),
                         (f"ack for broadcast {b} went to the wrong "
                          f"node" for b in v_bid[wrong].tolist()))
                if f_ack is not None:
                    late = (v_time - state.start[v_bid]) > f_ack + 1e-6
                    out.flag("ack-late", int(late.sum()),
                             (f"ack for broadcast {b} took "
                              f"{d} > F_ack={f_ack}"
                              for b, d in zip(
                                  v_bid[late].tolist(),
                                  (v_time - state.start[v_bid])
                                  [late].tolist())))
                state.ack_time[v_bid] = v_time
                state.ack_pos[v_bid] = a_pos[ok_rows]

        # --- deliveries ----------------------------------------------
        if is_d.any():
            d_bid = bids[is_d]
            d_time = times[is_d]
            d_pos = pos[is_d]
            d_recv = gn[is_d]
            d_hash = ph[is_d]
            unknown = (np.isnan(state.start[d_bid])
                       | (state.bpos[d_bid] > d_pos)
                       | ((state.ack_pos[d_bid] >= 0)
                          & (state.ack_pos[d_bid] < d_pos)))
            out.flag("deliver-unknown", int(unknown.sum()),
                     (f"delivery for unknown or closed (already "
                      f"acked) broadcast {b}"
                      for b in d_bid[unknown].tolist()))
            live = ~unknown
            if live.any():
                v_bid = d_bid[live]
                v_time = d_time[live]
                v_recv = d_recv[live]
                v_word = v_recv >> 6
                v_bit = np.uint64(1) << (v_recv & 63).astype(np.uint64)
                nonneigh = (neigh_mask[state.sender[v_bid], v_word]
                            & v_bit) == 0
                out.flag("non-neighbor", int(nonneigh.sum()),
                         (f"broadcast {b} delivered to non-neighbor "
                          f"of its sender"
                          for b in v_bid[nonneigh].tolist()))
                early = v_time < state.start[v_bid]
                out.flag("early", int(early.sum()),
                         (f"delivery of broadcast {b} precedes its "
                          f"start" for b in v_bid[early].tolist()))
                dead = v_time > crash_t[v_recv]
                out.flag("dead-receiver", int(dead.sum()),
                         (f"delivery to crashed node "
                          f"{nodes[int(r)]!r}"
                          for r in v_recv[dead][v_recv[dead] < n]))
                mutated = d_hash[live] != state.payload_hash[v_bid]
                out.flag("mutated", int(mutated.sum()),
                         (f"broadcast {b} delivered mutated payload"
                          for b in v_bid[mutated].tolist()))
                np.add.at(state.deliver_count, v_bid, 1)
                np.bitwise_or.at(state.deliver_mask, (v_bid, v_word),
                                 v_bit)
                np.maximum.at(state.deliver_last, v_bid, v_time)

    # --- end-of-stream checks over the per-broadcast columns ----------
    known = ~np.isnan(state.start)
    acked = known & (state.ack_pos >= 0)
    all_bids = np.arange(state.cap, dtype=np.int64)

    if hasattr(np, "bitwise_count"):
        popcount = np.bitwise_count(state.deliver_mask).sum(1, np.int64)
    else:  # numpy < 2.0
        popcount = np.fromiter(
            (sum(w.bit_count() for w in row)
             for row in state.deliver_mask.tolist()),
            dtype=np.int64, count=state.cap)
    dup = known & (popcount != state.deliver_count)
    out.flag("duplicate", int(dup.sum()),
             (f"duplicate delivery of broadcast {b}"
              for b in all_bids[dup].tolist()))

    late_ack = acked & (state.ack_time < state.deliver_last - 1e-9)
    out.flag("ack-early", int(late_ack.sum()),
             (f"ack for broadcast {b} precedes its last delivery"
              for b in all_bids[late_ack].tolist()))

    if acked.any():
        missing = neigh_mask[state.sender] & ~state.deliver_mask
        # A neighbor that crashed at or before the ack is excused --
        # exactly the reference checker's exemption.
        for c in set(crashed_idx):
            excused = acked & (state.ack_time >= crash_t[c])
            missing[excused, c >> 6] &= ~np.uint64(1 << (c & 63))
        uncovered = acked & (missing != 0).any(axis=1)
        out.flag("uncovered", int(uncovered.sum()),
                 (f"ack for broadcast {b} of "
                  f"{nodes[int(state.sender[b])]!r} before some "
                  f"non-faulty neighbor received"
                  for b in all_bids[uncovered].tolist()))

    out.finish()
    return report
