"""Layer spans recorded from outside the program under test.

:func:`install` wraps the public callables at each layer boundary of the
server — transport frame, pipeline entry, codec, core lookups and votes,
WAL append and fsync, checkpoint, push publish, recovery and score
bootstrap — so that every call records a span ``(name, start, end,
parent, request_id)`` into a :class:`SpanRecorder`.  Nothing in ``src/``
is edited: the wrappers replace class attributes before the server is
built, in the benchmark's own server process.  Spans stay in memory and
are written out when the server stops; :func:`layer_metrics` derives
the per-layer numbers from them.

The request id of a span is the frame's correlation id, taken by the
outermost (``net.respond``) span and inherited by every span opened on
the same thread while it is open.
"""

from __future__ import annotations

import functools
import json
import statistics
import struct
import threading
import time

_CORRELATION = struct.Struct(">I")

#: Every per-layer metric :func:`layer_metrics` derives, with its unit.
LAYER_UNITS = {
    "net.self_us": "us",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.encodes_per_op": "count",
    "protocol.bytes_per_op": "bytes",
    "server.handle_us": "us",
    "server.self_us": "us",
    "server.cache.hit_ratio": "ratio",
    "server.cache.evictions_per_op": "count",
    "core.lookup_us": "us",
    "core.vote_us": "us",
    "storage.wal.append_us": "us",
    "storage.wal.sync_us": "us",
    "storage.wal.syncs_per_vote": "count",
    "storage.wal.bytes_per_vote": "bytes",
    "storage.checkpoints": "count",
    "server.subscriptions.publish_us": "us",
    "server.subscriptions.events_per_vote": "count",
    "server.subscriptions.dropped": "count",
    "storage.recover_s": "s",
    "core.bootstrap_s": "s",
}


class SpanRecorder:
    """In-memory span store; one per server process."""

    def __init__(self):
        self.enabled = True
        self.spans: list = []  # [name, start, end, parent, request_id, extra]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, owner, attribute: str, name: str, request_id=None, extra=None,
        measure=None,
    ):
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *request_id(args)* names the request for a root span; *extra(args,
        result)* attaches one number (bytes encoded, events matched), or
        *measure(args)* is read before and after the call and the growth
        attached.  Returns False when the attribute does not exist.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            return False
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                rid = recorder.spans[parent][4]
            else:
                rid = request_id(args) if request_id is not None else None
            record = [name, time.perf_counter(), 0.0, parent, rid, None]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(record)
            stack.append(index)
            before = measure(args) if measure is not None else 0
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                record[5] = extra(args, result)
            elif measure is not None:
                record[5] = measure(args) - before
            return result

        setattr(owner, attribute, traced)
        return True

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _frame_request_id(args) -> int:
    """Correlation id of an extended frame (``respond(self, payload)``)."""
    payload = args[1]
    if len(payload) >= 4:
        return _CORRELATION.unpack_from(payload)[0]
    return 0


def install(recorder: SpanRecorder) -> list:
    """Wrap every layer boundary; returns the names that were not found.

    Must run before the server is constructed: bound methods taken at
    construction (the score listener, the pipeline's codec functions)
    then resolve to the wrappers.
    """
    from repro.core.reputation import ReputationEngine
    from repro.net import framing
    from repro.server import app, pipeline, subscriptions
    from repro.server.app import ReputationServer
    from repro.storage import Database, WriteAheadLog

    def encoded_size(args, result):
        return len(result)

    def matched(args, result):
        return result

    def wal_size(args):
        return args[0].size_bytes()

    targets = [
        (framing.ConnectionProtocol, "respond", "net.respond",
         {"request_id": _frame_request_id}),
        (ReputationServer, "handle_bytes", "server.handle", {}),
        (pipeline, "decode_with", "protocol.decode", {}),
        (pipeline, "encode_with", "protocol.encode", {"extra": encoded_size}),
        (app, "encode_with", "protocol.encode", {"extra": encoded_size}),
        (subscriptions, "encode_with", "protocol.encode_push", {"extra": encoded_size}),
        (ReputationEngine, "software_reputation", "core.lookup", {}),
        (ReputationEngine, "vendor_reputation", "core.lookup", {}),
        (ReputationEngine, "ranked_comments", "core.lookup", {}),
        (ReputationEngine, "cast_vote", "core.vote", {}),
        (ReputationEngine, "bootstrap_scores", "core.bootstrap", {}),
        (WriteAheadLog, "append_commit_unit", "storage.wal.append", {"measure": wal_size}),
        (WriteAheadLog, "sync", "storage.wal.sync", {}),
        (Database, "checkpoint", "storage.checkpoint", {}),
        (Database, "recover", "storage.recover", {}),
        (subscriptions.SubscriptionRegistry, "publish",
         "server.subscriptions.publish", {"extra": matched}),
    ]
    missing = []
    for owner, attribute, name, options in targets:
        if not recorder.wrap(owner, attribute, name, **options):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
    return missing


# ---------------------------------------------------------------------------
# Derivation (runs in run.py, not in the server process)
# ---------------------------------------------------------------------------


def child_times(spans: list) -> tuple:
    """Per span, the time its direct children cover: ``(all, storage)``."""
    children = [0.0] * len(spans)
    storage = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent is not None and span[2] > 0.0:
            children[parent] += span[2] - span[1]
            if span[0].startswith("storage."):
                storage[parent] += span[2] - span[1]
    return children, storage


def layer_metrics(spans: list, requests: dict, counts: dict, windows: list) -> dict:
    """Per-layer numbers for one traced phase.

    *requests* maps each request id sent in the phase to ``(kind,
    client_latency_s)`` with kind ``"lookup"`` or ``"vote"``; *counts*
    carries the server's own counter deltas (cache, subscriptions,
    WAL bytes).  Time metrics are mean microseconds per call of the
    named boundary (``*_us``); per-op ratios divide by the phase's
    completed operations.  Background checkpoints count when they start
    inside one of *windows*, the traced phases' ``(start, end)`` on
    ``perf_counter``.
    """
    children, storage_children = child_times(spans)
    ops = max(1, len(requests))
    lookups = sum(1 for kind, _ in requests.values() if kind == "lookup")
    votes = sum(1 for kind, _ in requests.values() if kind == "vote")
    per_name: dict = {}
    handle_by_request: dict = {}
    lookup_core = 0.0
    vote_core = 0.0
    server_self = []
    encodes = 0
    encoded_bytes = 0
    events = 0
    wal_bytes = 0
    for index, span in enumerate(spans):
        name, start, end, parent, rid, extra = span
        if end <= 0.0:
            continue
        duration = end - start
        if name in ("storage.recover", "core.bootstrap"):
            # Start-up work: no request owns it.
            per_name.setdefault(name, []).append(duration)
            continue
        if name == "storage.checkpoint":
            if any(low <= start <= high for low, high in windows):
                per_name.setdefault(name, []).append(duration)
            continue
        if rid not in requests:
            continue
        if name == "server.handle":
            handle_by_request[rid] = duration
            server_self.append(duration - children[index])
        elif name == "protocol.encode":
            encodes += 1
            encoded_bytes += extra or 0
        elif name == "core.lookup":
            lookup_core += duration
        elif name == "core.vote":
            vote_core += duration - storage_children[index]
        elif name == "server.subscriptions.publish":
            events += extra or 0
        elif name == "storage.wal.append":
            # The inline group-commit fsync nests inside the append;
            # it is reported as its own span.
            wal_bytes += max(0, extra or 0)
            duration -= children[index]
        per_name.setdefault(name, []).append(duration)

    def mean_us(name: str) -> float:
        values = per_name.get(name)
        return statistics.fmean(values) * 1e6 if values else 0.0

    net_self = [
        latency - handle_by_request[rid]
        for rid, (_, latency) in requests.items()
        if rid in handle_by_request
    ]
    lookups_seen = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    return {
        "net.self_us": statistics.median(net_self) * 1e6 if net_self else 0.0,
        "protocol.decode_us": mean_us("protocol.decode"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "protocol.encodes_per_op": encodes / ops,
        "protocol.bytes_per_op": encoded_bytes / ops,
        "server.handle_us": mean_us("server.handle"),
        "server.self_us": statistics.fmean(server_self) * 1e6 if server_self else 0.0,
        "server.cache.hit_ratio": (
            counts.get("cache_hits", 0) / lookups_seen if lookups_seen else 0.0
        ),
        "server.cache.evictions_per_op": counts.get("cache_evictions", 0) / ops,
        "core.lookup_us": lookup_core / lookups * 1e6 if lookups else 0.0,
        "core.vote_us": vote_core / votes * 1e6 if votes else 0.0,
        "storage.wal.append_us": mean_us("storage.wal.append"),
        "storage.wal.sync_us": mean_us("storage.wal.sync"),
        "storage.wal.syncs_per_vote": (
            len(per_name.get("storage.wal.sync", ())) / votes if votes else 0.0
        ),
        "storage.wal.bytes_per_vote": (
            wal_bytes / votes if votes else 0.0
        ),
        "storage.checkpoints": float(len(per_name.get("storage.checkpoint", ()))),
        "server.subscriptions.publish_us": mean_us("server.subscriptions.publish"),
        "server.subscriptions.events_per_vote": events / votes if votes else 0.0,
        "server.subscriptions.dropped": float(counts.get("push_dropped", 0)),
        "storage.recover_s": sum(per_name.get("storage.recover", ())),
        "core.bootstrap_s": sum(per_name.get("core.bootstrap", ())),
    }

