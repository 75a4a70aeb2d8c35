"""``admit``: the admission core alone.

In-process ``CubeFit(gamma=3)`` placing a seeded Uniform(0, 0.6] tenant
stream through one ``consolidate()`` call, with no store and no metrics
registry attached.  No I/O runs, so every
microsecond is candidate index, bound screen, exact top-2 shared-load
sums, cube slots and placement bookkeeping.  It is the only path that
runs the paper's own algorithm, at failure budget 2.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import layers
from checker import check_packing
from common import (cold_start_seconds, median, metric, self_peak_rss_mib,
                    uniform_loads)
from tracing import Tracer, install

GAMMA = 3
FAILURES = GAMMA - 1
TENANTS = 10_000
SETUP_REPEATS = 5


def run(seed: int, seconds: float, trace: bool, workdir) -> Dict:
    import numpy as np
    from repro.core import CubeFit, Tenant
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry

    loads = uniform_loads(np.random.default_rng(seed), TENANTS)
    tenants = [Tenant(tenant_id, load) for tenant_id, load
               in enumerate(loads)]
    expected = dict(enumerate(loads))
    setup_s = cold_start_seconds(["admit", str(GAMMA)], workdir,
                                 SETUP_REPEATS)

    problems: List[str] = []
    attempted = failed = 0
    server_counts = set()

    def one_round(registry=None):
        nonlocal attempted, failed
        algo = CubeFit(gamma=GAMMA)
        if registry is not None:
            algo.attach_obs(registry)
        gc.collect()
        begin = time.perf_counter()
        try:
            algo.consolidate(tenants)
        except ReproError as err:
            failed += TENANTS
            problems.append(f"consolidate raised {err!r}")
        wall = time.perf_counter() - begin
        attempted += TENANTS
        placement = algo.placement
        assignment = {}
        for tenant_id in placement.tenant_ids:
            by_index = placement.tenant_servers(tenant_id)
            assignment[tenant_id] = [by_index[i] for i in sorted(by_index)]
        violations = check_packing(expected, assignment,
                                   placement.num_servers, GAMMA, FAILURES)
        failed += len(violations)
        problems.extend(violations)
        server_counts.add(placement.num_servers)
        return wall, placement.num_servers

    walls: List[float] = []
    begin = time.perf_counter()
    untraced_until = begin + (seconds / 2 if trace else seconds)
    while not walls or time.perf_counter() < untraced_until:
        wall, servers = one_round()
        walls.append(wall)
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

    # Traced half: the untraced rounds above ran first because the
    # array core caches the exact-sum function on first use.
    tracer = Tracer()
    install(tracer)
    traced: List[float] = []
    try:
        while not traced or time.perf_counter() < begin + seconds:
            traced.append(one_round()[0])
    finally:
        tracer.uninstall()
    tracer.dump(str(workdir.parent / "trace-admit.json"))
    # Feasibility counters come from the program's own registry, read
    # in one more, untimed round (decisions do not depend on timing).
    registry = MetricsRegistry()
    one_round(registry)
    snapshot = registry.snapshot()
    rounds = len(traced)
    counts = {
        "core.exact.calls": tracer.layer_calls("core.exact"),
        "feasibility.screened": rounds * snapshot.get(
            "feasibility.screened", {}).get("value", 0),
        "feasibility.exact": rounds * snapshot.get(
            "feasibility.exact", {}).get("value", 0),
    }
    self_seconds = {layer: tracer.layer_seconds(layer)
                    for layer in tracer.totals}
    result["metrics"] = layers.report(
        self_seconds, rounds * TENANTS, sum(traced),
        sum(walls) / (len(walls) * TENANTS), counts, {})
    return result
