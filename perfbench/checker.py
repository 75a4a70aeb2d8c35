"""Output checker for the benchmark, independent of the program's code.

It takes what the benchmark itself generated (tenant loads) and what the
program produced (a ``tenant -> servers`` assignment in replica order
plus the number of servers it opened) and checks three rules:

1. every live tenant has exactly ``gamma`` replicas, on distinct servers;
2. every server ``s`` satisfies ``load(s) + top-f shared(s) <= 1 + 1e-9``
   at the workload's failure budget ``f``, where a replica carries
   ``load / gamma`` and ``shared(s, t)`` is the load of the replicas on
   ``s`` whose tenant also has a replica on ``t``;
3. ``servers >= ceil(sum of tenant loads)``.

Nothing here imports the program: the sums are recomputed from scratch
so that a fault in the program's own bookkeeping cannot hide itself.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Dict, List, Mapping, Sequence

#: Slack the capacity rule allows for float summation order.
EPS = 1e-9


def check_packing(loads: Mapping[int, float],
                  assignment: Mapping[int, Sequence[int]],
                  servers: int, gamma: int, failures: int,
                  capacity: float = 1.0) -> List[str]:
    """Return every violation found (empty list: the packing is valid).

    ``loads`` holds the live tenants and their loads as the benchmark
    generated them; ``assignment`` the program's placement of each
    tenant, one server id per replica; ``servers`` the count of servers
    the program reports as opened.
    """
    problems: List[str] = []
    missing = sorted(set(loads) - set(assignment))
    extra = sorted(set(assignment) - set(loads))
    if missing:
        problems.append(f"{len(missing)} live tenants not placed, "
                        f"e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} placed tenants are not live, "
                        f"e.g. {extra[:3]}")

    level: Dict[int, float] = defaultdict(float)
    shared: Dict[int, Dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    for tenant, hosts in assignment.items():
        hosts = list(hosts)
        if len(hosts) != gamma:
            problems.append(f"tenant {tenant} has {len(hosts)} replicas, "
                            f"expected {gamma}")
        if len(set(hosts)) != len(hosts):
            problems.append(f"tenant {tenant} has two replicas on one "
                            f"server: {hosts}")
        if tenant not in loads:
            continue
        share = loads[tenant] / gamma
        for s in set(hosts):
            level[s] += share
            for t in set(hosts):
                if t != s:
                    shared[s][t] += share

    for s in sorted(level):
        partners = shared[s].values()
        worst = sum(heapq.nlargest(failures, partners)) if failures else 0.0
        if level[s] + worst > capacity + EPS:
            problems.append(
                f"server {s}: load {level[s]:.9f} + top-{failures} shared "
                f"{worst:.9f} exceeds capacity {capacity}")

    total = math.fsum(loads.values())
    floor = math.ceil(total / capacity - EPS)
    if servers < floor:
        problems.append(f"{servers} servers cannot hold total load "
                        f"{total:.6f} (needs at least {floor})")
    if servers < len(level):
        problems.append(f"{servers} servers reported but {len(level)} "
                        f"distinct servers hold replicas")
    return problems
