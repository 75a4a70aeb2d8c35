"""``fleet``: bulk durable ingestion through the sharded fleet.

``run_streaming_soak`` with 8 shards, hash routing, gamma 2, WAL
``fsync=rotate`` and its crash drill on (shard 0 is abandoned mid-stream
and recovered from its own WAL and checkpoint).  Time goes to routing,
batched ``place_batch`` admission on 8 placements, WAL encoding,
checkpoints and one shard recovery; no record is flushed on its own,
so WAL group commit is bypassed here while WAL format and admission
engine changes show.

The soak draws its own stream from the seed it is given; the benchmark
re-draws the same loads with its own code, and the checker verifies
that every recovered tenant carries exactly the load the benchmark
expects.
"""

from __future__ import annotations

import gc
import shutil
import time
from typing import Dict, List

import layers
from checker import check_packing
from common import (MAX_LOAD, cold_start_seconds, median, metric,
                    self_peak_rss_mib)
from tracing import Tracer, install

SHARDS = 8
GAMMA = 2
FAILURES = GAMMA - 1
TENANTS = 10_000
SETUP_REPEATS = 5


def expected_loads(seed: int) -> Dict[int, float]:
    """The soak's arrival stream, re-drawn independently: Uniform on
    (MIN_LOAD, MAX_LOAD] with ``MIN_LOAD = 1e-6``, mirrored from numpy's
    half-open draw, ids from 0."""
    import numpy as np
    min_load = 1e-6
    draws = np.random.default_rng(seed).uniform(min_load, MAX_LOAD, TENANTS)
    return {i: MAX_LOAD + min_load - x for i, x in enumerate(draws.tolist())}


def run(seed: int, seconds: float, trace: bool, workdir) -> Dict:
    from repro.fleet import (FleetSoakConfig, run_streaming_soak,
                             shard_directory)
    from repro.obs import MetricsRegistry
    from repro.store import recover

    expected = expected_loads(seed)
    config = FleetSoakConfig(shards=SHARDS, tenants=TENANTS, policy="hash",
                             gamma=GAMMA, seed=seed, crash_shard=0)
    setup_s = cold_start_seconds(["fleet", str(GAMMA), str(SHARDS)],
                                 workdir, SETUP_REPEATS)

    problems: List[str] = []
    attempted = failed = 0
    server_counts = set()
    round_no = 0

    def one_round(registry=None):
        nonlocal attempted, round_no
        root = workdir / f"fleet-{round_no}"
        round_no += 1
        gc.collect()
        start = time.perf_counter()
        result = run_streaming_soak(root, config, obs=registry,
                                    fsync="rotate")
        wall = time.perf_counter() - start
        attempted += TENANTS
        return wall, root, result

    def check(root, result) -> None:
        # Outside any traced span: the recoveries here are the
        # benchmark's, not the workload's.
        nonlocal failed
        violations = check_round(root, result)
        failed += len(violations)
        problems.extend(violations)
        server_counts.add(result.servers)
        shutil.rmtree(root, ignore_errors=True)

    def check_round(root, result) -> List[str]:
        found = []
        if not result.ok:
            found.append(f"soak conformance failed: audits_ok="
                         f"{result.audits_ok}, crash divergences "
                         f"{result.crash_divergences}, placed "
                         f"{result.placed}+{result.spill_placed} of "
                         f"{TENANTS}")
        seen: Dict[int, int] = {}
        servers = 0
        for shard_id in range(SHARDS):
            state = recover(shard_directory(root, shard_id))
            placement = state.placement
            servers += placement.num_servers
            assignment, loads = {}, {}
            for tenant_id in placement.tenant_ids:
                if tenant_id in seen:
                    found.append(f"tenant {tenant_id} on shards "
                                 f"{seen[tenant_id]} and {shard_id}")
                seen[tenant_id] = shard_id
                by_index = placement.tenant_servers(tenant_id)
                assignment[tenant_id] = [by_index[i]
                                         for i in sorted(by_index)]
                want = expected.get(tenant_id)
                got = placement.tenant_load(tenant_id)
                if want is None or abs(got - want) > 1e-9:
                    found.append(f"tenant {tenant_id} recovered with load "
                                 f"{got}, the stream gave {want}")
                else:
                    loads[tenant_id] = want
            found.extend(f"shard {shard_id}: {v}" for v in check_packing(
                loads, assignment, placement.num_servers, GAMMA, FAILURES))
        if len(seen) != TENANTS:
            found.append(f"{len(seen)} tenants recovered, {TENANTS} sent")
        if servers != result.servers:
            found.append(f"soak reports {result.servers} servers, shards "
                         f"recover {servers}")
        return found

    walls: List[float] = []
    begin = time.perf_counter()
    untraced_until = begin + (seconds / 2 if trace else seconds)
    while not walls or time.perf_counter() < untraced_until:
        wall, root, result = one_round()
        check(root, result)
        walls.append(wall)
        servers = result.servers
    if trace:
        tracer = Tracer()
        install(tracer)
        traced: List[float] = []
        skews: List[float] = []
        done = []
        try:
            while not traced or time.perf_counter() < begin + seconds:
                wall, root, result = one_round()
                traced.append(wall)
                done.append((root, result))
                elapsed = [o.elapsed for o in result.outcomes]
                skews.append(max(elapsed) * len(elapsed) / sum(elapsed))
        finally:
            tracer.uninstall()
        for root, result in done:
            check(root, result)
        registry = MetricsRegistry()
        check(*one_round(registry)[1:])
        snapshot = registry.snapshot()
    if len(server_counts) != 1:
        problems.append(f"rounds disagree on servers: {server_counts}")

    result = {"attempted": attempted, "failed": failed,
              "problems": problems}
    if not trace:
        result["metrics"] = {
            "tenants_per_s": metric(median([TENANTS / w for w in walls]),
                                    "tenants/s"),
            "servers": metric(servers, "count"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mib": metric(self_peak_rss_mib(), "MiB"),
        }
        return result

    tracer.dump(str(workdir.parent / "trace-fleet.json"))
    rounds = len(traced)

    def counter(name):
        return rounds * snapshot.get(name, {}).get("value", 0)

    counts = {
        "core.exact.calls": tracer.layer_calls("core.exact"),
        "feasibility.screened": counter("feasibility.screened"),
        "feasibility.exact": counter("feasibility.exact"),
        "store.fsyncs": tracer.layer_calls("store.fsync"),
        "store.wal_bytes": tracer.counters["store.wal_bytes"],
    }
    extra = {
        "store.checkpoint.s": median(tracer.per_call["store.checkpoint"]),
        "store.recover.s": median(tracer.per_call["store.recover"]),
        "fleet.shard_skew": median(skews),
    }
    self_seconds = {layer: tracer.layer_seconds(layer)
                    for layer in tracer.totals}
    result["metrics"] = layers.report(
        self_seconds, rounds * TENANTS, sum(traced),
        sum(walls) / (len(walls) * TENANTS), counts, extra)
    return result
