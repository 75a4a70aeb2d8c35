"""In-memory span tracer that wraps the program's layer entry points.

The benchmark never edits the program: a traced run replaces a fixed
set of public functions and methods with thin wrappers that record a
span (layer, start, end, self time) around each call, and restores the
originals afterwards.  A span's *self time* is its duration minus the
part covered by spans opened inside it on the same thread, so the self
times of all layers on a path add up to the time spent inside the
outermost wrapped call.

Spans are kept in memory.  When ``by_request`` is on (the daemon),
spans are held per thread until the thread hands them a request id —
``parse_request`` on a connection's handler thread, ``encode_result``
on the worker — so all spans of one request share that id.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layers whose individual call durations are kept (they are reported
#: per call, not per operation).
PER_CALL_LAYERS = ("store.checkpoint", "store.recover")

#: Raw spans kept for the trace file when spans are not held per
#: request; layer totals are exact regardless.
SPAN_CAP = 200_000


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, by_request: bool = False) -> None:
        self.by_request = by_request
        #: layer -> [self seconds, calls]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self.per_call: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        #: (layer, start, end, self) tuples, capped at SPAN_CAP.
        self.spans: List[tuple] = []
        #: request id -> its spans, when ``by_request`` is on.
        self.requests: Dict[object, List[tuple]] = defaultdict(list)
        self._local = threading.local()
        # The daemon records from its handler and worker threads at once.
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _frames(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.pending = []
        return stack

    def _record(self, layer: str, start: float, end: float,
                self_time: float) -> None:
        with self._lock:
            total = self.totals[layer]
            total[0] += self_time
            total[1] += 1
        if layer in PER_CALL_LAYERS:
            self.per_call[layer].append(end - start)
        span = (layer, start, end, self_time)
        if self.by_request:
            self._local.pending.append(span)
        elif len(self.spans) < SPAN_CAP:
            self.spans.append(span)

    def tag(self, request_id) -> None:
        """Give this thread's held spans to ``request_id``."""
        local = self._local
        pending = getattr(local, "pending", None)
        if pending:
            self.requests[request_id].extend(pending)
            local.pending = []

    def wrap(self, fn: Callable, layer: str,
             tag_of: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records one ``layer`` span per call.

        A generator function gets one span per resumption, so the time
        its consumer spends between items is not charged to it.
        ``tag_of(args, result)`` names the request the call's thread
        has been working for.
        """
        clock = time.perf_counter
        frames = self._frames
        record = self._record

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack = frames()
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        child = stack.pop()
                        if stack:
                            stack[-1] += end - start
                        record(layer, start, end, end - start - child)
                    yield item
            return generator_wrapper

        def wrapper(*args, **kwargs):
            stack = frames()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                record(layer, start, end, end - start - child)
            if tag_of is not None:
                self.tag(tag_of(args, result))
            return result
        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner, name: str, layer: str,
              tag_of: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, tag_of))

    def patch_function(self, modules, name: str, layer: str) -> None:
        """Wrap a module-level function in every module bound to it."""
        original = getattr(modules[0], name)
        wrapper = self.wrap(original, layer)
        for module in modules:
            if getattr(module, name, None) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapper)

    def count_wal_bytes(self, record_cls) -> None:
        """Count the bytes of every WAL line as it is encoded."""
        original = record_cls.to_json
        counters = self.counters

        def to_json(record):
            line = original(record)
            with self._lock:
                counters["store.wal_bytes"] += len(line) + 1
            return line
        self._patches.append((record_cls, "to_json", original))
        record_cls.to_json = to_json

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def layer_seconds(self, layer: str) -> float:
        return self.totals[layer][0] if layer in self.totals else 0.0

    def layer_calls(self, layer: str) -> int:
        return self.totals[layer][1] if layer in self.totals else 0

    def dump(self, path: str) -> None:
        """Write totals and spans as JSON (atomically)."""
        payload = {
            "totals": dict(self.totals),
            "per_call": dict(self.per_call),
            "counters": dict(self.counters),
            "spans": self.spans,
            "requests": {str(k): v for k, v in self.requests.items()},
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Layer names are the ones the per-layer metrics use.  Module-level
    functions are wrapped in each module that bound them by name.
    """
    import repro.algorithms.base as base
    import repro.algorithms.naive as naive
    import repro.core.cubefit as cubefit
    from repro.algorithms import OnlinePlacementAlgorithm, ServerIndex
    from repro.core.arrays import ArrayCore
    from repro.core.placement import PlacementState
    from repro.fleet import PlacementRouter, ShardController
    from repro.serve import server as serve_server
    from repro.store import DurableStore, WalRecord, WriteAheadLog

    for name in ("place", "place_batch", "remove", "update_load",
                 "consolidate"):
        tracer.patch(OnlinePlacementAlgorithm, name, "algorithms.decide")
    for name in ("select", "candidates", "candidates_by_id"):
        tracer.patch(ServerIndex, name, "core.index")
    tracer.patch_function([base, naive, cubefit], "robust_after_placement",
                          "core.screen")
    tracer.patch_function([base], "batch_robust_after_placement",
                          "core.screen")
    tracer.patch(ArrayCore, "batch_screen", "core.screen")
    tracer.patch_function([base], "worst_shared_sum", "core.exact")
    tracer.patch(ArrayCore, "resolve_worst", "core.exact")
    tracer.patch(ArrayCore, "sync", "core.sync")
    tracer.patch(ServerIndex, "sync", "core.sync")
    for name in ("place", "unplace", "open_server"):
        tracer.patch(PlacementState, name, "core.placement.mutate")

    for name in ("log_place", "log_remove", "log_update_load",
                 "log_open_through"):
        tracer.patch(DurableStore, name, "store.wal_append")
    tracer.patch(WriteAheadLog, "append", "store.wal_append")
    tracer.patch(os, "fsync", "store.fsync")
    tracer.patch(DurableStore, "checkpoint_and_compact", "store.checkpoint")
    tracer.patch(DurableStore, "recover", "store.recover")
    tracer.count_wal_bytes(WalRecord)

    tracer.patch(PlacementRouter, "stream", "fleet.route")
    tracer.patch(ShardController, "place_batch", "fleet.shard_admit")
    tracer.patch(ShardController, "place", "fleet.shard_admit")

    # The three protocol steps get their own span names: a handler's
    # read_frame blocks until the client sends, so the serve workload
    # clips it to the client's send time before charging it.
    tracer.patch(serve_server, "read_frame", "serve.protocol.read")
    tracer.patch(serve_server, "parse_request", "serve.protocol.parse",
                 tag_of=lambda args, request: request.id)
    tracer.patch(serve_server, "encode_result", "serve.protocol.encode",
                 tag_of=lambda args, frame: args[0])
    tracer.patch(serve_server, "encode_error", "serve.protocol.encode",
                 tag_of=lambda args, frame: args[0])
