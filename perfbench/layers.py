"""The per-layer metrics every traced run reports, and how they add up.

Every workload reports the same list.  A layer that is not on a
workload's path reads 0 there (``admit`` has no protocol, store or
fleet layer; ``serve`` routes nothing).  Times are self times per
operation — a tenant admitted (``admit``, ``fleet``) or a request
answered (``serve``) — so that

    sum(TIME_LAYERS) + unaccounted == trace.e2e    (all in us/op)

holds on every workload: ``unaccounted`` is what the wrapped calls do
not cover (transport, the benchmark's own loop, unwrapped program code).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from common import metric

#: Span names (as recorded by ``tracing.install``) per reported layer.
TIME_LAYERS: Dict[str, List[str]] = {
    "serve.protocol": ["serve.protocol.read", "serve.protocol.parse",
                       "serve.protocol.encode"],
    "serve.queue_wait": ["serve.queue_wait"],
    "algorithms.decide": ["algorithms.decide"],
    "core.index": ["core.index"],
    "core.screen": ["core.screen"],
    "core.exact": ["core.exact"],
    "core.sync": ["core.sync"],
    "core.placement.mutate": ["core.placement.mutate"],
    "store.wal_append": ["store.wal_append"],
    "store.fsync": ["store.fsync"],
    "store.checkpoint": ["store.checkpoint"],
    "store.recover": ["store.recover"],
    "fleet.route": ["fleet.route"],
    "fleet.shard_admit": ["fleet.shard_admit"],
}

#: Every per-layer metric name with its unit and better direction, in
#: the order BENCHMARK.json lists them.
PER_LAYER: List[tuple] = (
    [(f"{layer}.us_per_op", "us/op", "lower") for layer in TIME_LAYERS]
    + [
        ("unaccounted.us_per_op", "us/op", "lower"),
        ("trace.e2e.us_per_op", "us/op", "lower"),
        ("trace.overhead.us_per_op", "us/op", "lower"),
        ("core.exact.calls_per_op", "calls/op", "lower"),
        ("feasibility.screened_per_op", "probes/op", "higher"),
        ("feasibility.exact_per_op", "probes/op", "lower"),
        ("store.fsyncs_per_op", "fsyncs/op", "lower"),
        ("store.wal_bytes_per_op", "B/op", "lower"),
        ("store.checkpoint.s", "s", "lower"),
        ("store.recover.s", "s", "lower"),
        ("fleet.shard_skew", "ratio", "lower"),
    ])


def report(self_seconds: Mapping[str, float], ops: int,
           e2e_seconds: float, untraced_e2e_seconds_per_op: float,
           counts: Mapping[str, float],
           extra: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Build the full per-layer metric set.

    ``self_seconds`` maps span names to summed self time over ``ops``
    operations whose end-to-end time was ``e2e_seconds``; ``counts``
    holds ``core.exact.calls``, ``feasibility.screened``,
    ``feasibility.exact``, ``store.fsyncs`` and ``store.wal_bytes``
    totals over the same operations; ``extra`` the per-call and ratio
    metrics.  Missing entries read 0.
    """
    per_op = 1e6 / ops
    out: Dict[str, Dict[str, object]] = {}
    covered = 0.0
    for layer, names in TIME_LAYERS.items():
        seconds = sum(self_seconds.get(name, 0.0) for name in names)
        covered += seconds
        out[f"{layer}.us_per_op"] = metric(seconds * per_op, "us/op")
    out["unaccounted.us_per_op"] = metric(
        (e2e_seconds - covered) * per_op, "us/op")
    out["trace.e2e.us_per_op"] = metric(e2e_seconds * per_op, "us/op")
    out["trace.overhead.us_per_op"] = metric(
        e2e_seconds * per_op - untraced_e2e_seconds_per_op * 1e6, "us/op")
    for key, name, unit in (
            ("core.exact.calls", "core.exact.calls_per_op", "calls/op"),
            ("feasibility.screened", "feasibility.screened_per_op",
             "probes/op"),
            ("feasibility.exact", "feasibility.exact_per_op", "probes/op"),
            ("store.fsyncs", "store.fsyncs_per_op", "fsyncs/op"),
            ("store.wal_bytes", "store.wal_bytes_per_op", "B/op")):
        out[name] = metric(counts.get(key, 0) / ops, unit)
    for name, unit in (("store.checkpoint.s", "s"),
                       ("store.recover.s", "s"),
                       ("fleet.shard_skew", "ratio")):
        out[name] = metric(extra.get(name, 0.0), unit)
    return out


def covered_fraction(metrics: Mapping[str, Mapping[str, object]]) -> float:
    """Share of the traced end-to-end time the layer spans cover."""
    covered = sum(metrics[f"{layer}.us_per_op"]["value"]
                  for layer in TIME_LAYERS)
    return covered / metrics["trace.e2e.us_per_op"]["value"]
