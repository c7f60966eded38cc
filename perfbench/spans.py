"""Span tracing for the traced benchmark run, installed from outside ``src/``.

The benchmark attributes time to the program's layers (the ``repro.*``
modules) by wrapping their functions at run time: nothing in ``src/``
changes, and the untraced runs that produce the end-to-end metrics load
no wrapper at all.

A span records its name, start, end and parent.  The parent is carried
in a :mod:`contextvars` variable, so requests interleaved on one asyncio
loop (each connection is its own task with its own context) never nest
inside each other.  Self time is a span's duration minus the part of it
that its children cover; children that overlap in time (the sub-counts
of one ``count_batch`` run as concurrent tasks) are merged before
subtracting, so self time never goes negative.

Spans stay in memory.  Every span feeds exact per-name totals (calls,
inclusive seconds, self seconds, work units); the first
``MAX_KEPT_SPANS`` (and every span named in ``ALWAYS_KEPT``) are also
kept whole and written out with the totals when the process drains.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import json
import sys
import time

MAX_KEPT_SPANS = 20_000

#: Spans kept whole beyond the cap: the per-request spans that the
#: queue-wait join matches across processes, and the blocking storage
#: barriers it tests them against.
ALWAYS_KEPT = frozenset({
    "service.server.answer", "service.client.request",
    "storage.txfile.sync", "storage.diskbbs.flush",
})

_now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

# Work measures turn (args, kwargs, result) into work units summed per
# span name: words for the kernels, tuples for a probe, bytes for a frame.
def _words(args, kwargs, result):
    return int(getattr(args[0], "size", 0))


def _probe_tuples(args, kwargs, result):
    positions = args[2] if len(args) > 2 else kwargs.get("candidate_positions", ())
    return len(positions)


def _probe_hits(args, kwargs, result):
    return int(result)


def _encoded_bytes(args, kwargs, result):
    return len(result)


def _decoded_bytes(args, kwargs, result):
    return len(args[0])


def _n_candidates(args, kwargs, result):
    return len(args[0])


def _certified(args, kwargs, result):
    return int(result[0] >= 1)  # Certainty.EXACT or BOUNDED


#: (module, qualified attribute, span name, work measure).  A span
#: name minus its last dotted part names the layer.
TARGETS = [
    # core.kernels -- the bitvec AND/popcount entry points
    ("repro.core.bitvec", "popcount", "core.kernels.popcount", _words),
    ("repro.core.bitvec", "row_popcount", "core.kernels.row_popcount", _words),
    ("repro.core.bitvec", "and_reduce", "core.kernels.and_reduce", _words),
    ("repro.core.bitvec", "indices_of_set_bits", "core.kernels.indices_of_set_bits", _words),
    # core.hashing -- signature positions
    ("repro.core.hashing", "HashFamily.positions", "core.hashing.positions", None),
    ("repro.core.hashing", "HashFamily.itemset_positions", "core.hashing.itemset_positions", None),
    # core.bbs
    ("repro.core.bbs", "BBS.from_database", "core.bbs.build", None),
    ("repro.core.bbs", "BBS.insert", "core.bbs.insert", None),
    ("repro.core.bbs", "BBS.count_itemset", "core.bbs.count", None),
    ("repro.core.bbs", "BBS.candidate_positions", "core.bbs.count", None),
    ("repro.core.bbs", "BBS.and_positions_into", "core.bbs.count", None),
    # core.filters / core.checkcount
    ("repro.core.filters", "FilterEngine.run", "core.filters.run", None),
    ("repro.core.filters", "FilterEngine.prepare", "core.filters.prepare", None),
    ("repro.core.filters", "FilterEngine.run_roots", "core.filters.run_roots", None),
    ("repro.core.checkcount", "check_count", "core.checkcount.check_count", _certified),
    # core.refine
    ("repro.core.refine", "probe", "core.refine.probe", None),
    ("repro.core.refine", "sequential_scan", "core.refine.sequential_scan", None),
    # core.mining -- the entry point and the probing visitors it defines
    ("repro.core.mining", "mine", "core.mining.mine", None),
    ("repro.core.mining", "_ProbingDualFilter.visit", "core.mining.visit", None),
    ("repro.core.mining", "_ProbingSingleFilter.visit", "core.mining.visit", None),
    # storage.diskbbs
    ("repro.storage.diskbbs", "DiskBBS.flush", "storage.diskbbs.flush", None),
    ("repro.storage.diskbbs", "DiskBBS.insert", "storage.diskbbs.insert", None),
    ("repro.storage.diskbbs", "DiskBBS.count_itemset", "storage.diskbbs.count", None),
    ("repro.storage.diskbbs", "DiskBBS.candidate_positions", "storage.diskbbs.count", None),
    ("repro.storage.diskbbs", "DiskBBS.verify_segment", "storage.diskbbs.verify_segment", None),
    # storage.txfile (the journal behind service.replication.ReplicationLog)
    ("repro.storage.txfile", "TransactionFileWriter.append", "storage.txfile.append", None),
    ("repro.storage.txfile", "TransactionFileWriter.sync", "storage.txfile.sync", None),
    # service.protocol -- the CPU side of framing
    ("repro.service.protocol", "encode_frame", "service.protocol.encode", _encoded_bytes),
    ("repro.service.protocol", "decode_payload", "service.protocol.decode", _decoded_bytes),
    ("repro.service.protocol", "parse_request", "service.protocol.parse", None),
    # service.server
    ("repro.service.server", "PatternServer._answer", "service.server.answer", None),
    ("repro.service.server", "AdmissionController.acquire", "service.server.admission_wait", None),
    ("repro.service.server", "PatternServer._write_response", "service.server.write", None),
    # service.handlers (PatternService.handle is named per op, see install)
    ("repro.service.handlers", "PatternService._run_job", "service.handlers.mine_job", None),
    # service.cache
    ("repro.service.cache", "CountCache.get", "service.cache.get", None),
    ("repro.service.cache", "CountCache.put", "service.cache.put", None),
    ("repro.service.cache", "MicroBatcher._count_batch", "service.cache.count_batch", None),
    # service.resilience / service.client (the load generator's side)
    ("repro.service.resilience", "RetryingClient.request", "service.resilience.request", None),
    ("repro.service.client", "ServiceClient.request", "service.client.request", None),
    ("repro.service.protocol", "read_frame_sock", "wire.client_wait", None),
    # service.shard.router
    ("repro.service.shard.router", "ShardRouter._fanout", "service.shard.router.fanout", None),
    ("repro.service.shard.router", "ShardLink.request", "service.shard.router.shard_rtt", None),
    # service.shard.merge
    ("repro.service.shard.merge", "merge_count_payloads", "service.shard.merge.counts", None),
    ("repro.service.shard.merge", "candidate_itemsets", "service.shard.merge.candidates", None),
    ("repro.service.shard.merge", "sum_exact_counts", "service.shard.merge.recount", _n_candidates),
    ("repro.service.shard.merge", "merged_mine_payload", "service.shard.merge.mine_payload", None),
]

#: Extra per-name work measures kept alongside the first one.
SECOND_MEASURES = {
    "core.refine.probe": (_probe_tuples, _probe_hits),
}

#: Handler ops that get their own span name ``service.handlers.<op>``.
HANDLER_OPS = ("count", "count_batch", "append", "mine", "job", "status", "metrics", "health")


class _Span:
    __slots__ = ("sid", "parent", "name", "start", "children", "attrs")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.children = None
        self.attrs = None


def _covered(children, start, end) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    if len(children) == 1:
        c0, c1 = children[0]
        return max(0.0, min(c1, end) - max(c0, start))
    total = 0.0
    cur0 = cur1 = None
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, start), min(c1, end)
        if c1 <= c0:
            continue
        if cur1 is None or c0 > cur1:
            if cur1 is not None:
                total += cur1 - cur0
            cur0, cur1 = c0, c1
        elif c1 > cur1:
            cur1 = c1
    if cur1 is not None:
        total += cur1 - cur0
    return total


class Tracer:
    """Collects spans for one process; see the module docstring."""

    def __init__(self):
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self.totals: dict[str, list] = {}  # name -> [calls, incl_s, self_s, units, units2]
        self.kept: list[tuple] = []
        self.dropped = 0
        self._next_sid = 1
        self.installed: list[str] = []
        #: Copies of ``totals`` taken by :meth:`mark` (phase boundaries).
        self.marks: list[dict] = []

    def mark(self) -> None:
        """Record the totals so far; the benchmark diffs consecutive marks.

        Safe to call from a signal handler: it only copies small lists.
        """
        self.marks.append(self._totals_dict())

    # -- span lifecycle ------------------------------------------------------

    def open(self, name: str) -> tuple:
        parent = self.current.get()
        span = _Span(self._next_sid, parent, name, _now())
        self._next_sid += 1
        return span, self.current.set(span)

    def close(self, span: _Span, token, units=0, units2=0) -> None:
        end = _now()
        self.current.reset(token)
        duration = end - span.start
        own = duration
        if span.children:
            own -= _covered(span.children, span.start, end)
        parent = span.parent
        if parent is not None:
            if parent.children is None:
                parent.children = [(span.start, end)]
            else:
                parent.children.append((span.start, end))
        row = self.totals.get(span.name)
        if row is None:
            row = self.totals[span.name] = [0, 0.0, 0.0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += own
        row[3] += units
        row[4] += units2
        if span.name in ALWAYS_KEPT or len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append((
                span.sid, parent.sid if parent is not None else 0,
                span.name, span.start, end, span.attrs,
            ))
        else:
            self.dropped += 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, measure=None, measure2=None, namer=None, tagger=None):
        """A wrapper recording one span per call of ``fn``."""
        tracer = self

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = tracer.open(namer(args) if namer else name)
                if tagger is not None:
                    span.attrs = tagger(args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(span, token)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer.open(namer(args) if namer else name)
            if tagger is not None:
                span.attrs = tagger(args)
            units = units2 = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    units = measure(args, kwargs, result)
                if measure2 is not None:
                    units2 = measure2(args, kwargs, result)
                return result
            finally:
                tracer.close(span, token, units, units2)
        return traced

    def install(self) -> None:
        """Import every target module and wrap its targets in place."""
        resolved = []
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            measure2 = None
            if name in SECOND_MEASURES:
                measure, measure2 = SECOND_MEASURES[name]
            resolved.append((module, attr, name, measure, measure2))
        handlers = importlib.import_module("repro.service.handlers")
        router = importlib.import_module("repro.service.shard.router")
        for module, attr, name, measure, measure2 in resolved:
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[fname]
                tagger = None
                if attr == "PatternServer._answer":
                    tagger = _answer_tags
                elif attr == "ServiceClient.request":
                    tagger = _client_tags
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, name, measure, measure2))
                else:
                    wrapped = self.wrap(raw, name, measure, measure2, tagger=tagger)
                setattr(cls, fname, wrapped)
            else:
                original = getattr(module, fname)
                wrapped = self.wrap(original, name, measure, measure2)
                _replace_everywhere(original, wrapped)
            self.installed.append(f"{module.__name__}.{attr}")
        for cls in (handlers.PatternService, router.ShardRouter):
            raw = cls.__dict__["handle"]
            setattr(cls, "handle", self.wrap(raw, "", namer=_handler_name))
            self.installed.append(f"{cls.__module__}.{cls.__name__}.handle")

    # -- output --------------------------------------------------------------

    def _totals_dict(self) -> dict:
        return {name: list(row) for name, row in list(self.totals.items())}

    def snapshot(self) -> dict:
        return {
            "totals": self._totals_dict(),
            "marks": self.marks,
            "spans": self.kept,
            "dropped": self.dropped,
            "installed": self.installed,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _handler_name(args) -> str:
    service, op = args[0], args[1]
    layer = "service.shard.router" if type(service).__name__ == "ShardRouter" else "service.handlers"
    return f"{layer}.{op if op in HANDLER_OPS else 'other'}"


def _answer_tags(args):
    """``PatternServer._answer(self, writer, payload)``: peer port + request id."""
    writer, payload = args[1], args[2]
    peer = writer.get_extra_info("peername")
    return [peer[1] if peer else 0, payload.get("id"), payload.get("op")]


def _client_tags(args):
    """``ServiceClient.request(self, op, ...)``: local port + request id."""
    client = args[0]
    sock = getattr(client, "_sock", None)
    port = sock.getsockname()[1] if sock is not None else 0
    return [port, client._next_id, args[1]]


def _replace_everywhere(original, wrapped) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper.

    Catches ``from module import name`` copies as well as the defining
    module itself.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapped)
