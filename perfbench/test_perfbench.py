"""Tests of the benchmark's own checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The packing checker must reject hand-built packings that break each of
its rules, the durability check must reject every way a recovered
daemon can differ from what it acknowledged, and the per-layer report
must add up to the end-to-end time it splits.
"""

import time

from checker import check_packing
from layers import TIME_LAYERS, covered_fraction, report
from serve import check_durability
from tracing import Tracer

# Four tenants of load 0.4, two replicas (0.2) each, on four servers:
# every server holds 0.4 and shares 0.2 with each of two partners, so
# one failure costs at most 0.2: 0.4 + 0.2 <= 1.
LOADS = {1: 0.4, 2: 0.4, 3: 0.4, 4: 0.4}
VALID = {1: [0, 1], 2: [1, 2], 3: [2, 3], 4: [3, 0]}


def test_valid_packing_passes():
    assert check_packing(LOADS, VALID, 4, gamma=2, failures=1) == []


def test_rejects_wrong_replica_count():
    packing = {**VALID, 1: [0, 1, 2]}
    problems = check_packing(LOADS, packing, 4, gamma=2, failures=1)
    assert any("has 3 replicas" in p for p in problems)


def test_rejects_two_replicas_on_one_server():
    packing = {**VALID, 1: [0, 0]}
    problems = check_packing(LOADS, packing, 4, gamma=2, failures=1)
    assert any("two replicas on one server" in p for p in problems)


def test_rejects_overload_under_failure():
    # Server 0 holds 0.9 and shares 0.45 with server 1: fine with no
    # failure, over capacity once server 1 fails.
    loads = {1: 0.9, 2: 0.9}
    packing = {1: [0, 1], 2: [0, 1]}
    assert check_packing(loads, packing, 2, gamma=2, failures=0) == []
    problems = check_packing(loads, packing, 2, gamma=2, failures=1)
    assert any("exceeds capacity" in p for p in problems)


def test_rejects_plain_overload():
    loads = {1: 1.2, 2: 1.2}
    packing = {1: [0, 1], 2: [0, 1]}
    problems = check_packing(loads, packing, 2, gamma=2, failures=0)
    assert any("exceeds capacity" in p for p in problems)


def test_rejects_too_few_servers():
    problems = check_packing(LOADS, VALID, 1, gamma=2, failures=1)
    assert any("cannot hold total load" in p for p in problems)


def test_rejects_missing_and_unknown_tenants():
    packing = {t: s for t, s in VALID.items() if t != 4}
    packing[9] = [1, 3]
    problems = check_packing(LOADS, packing, 4, gamma=2, failures=1)
    assert any("not placed" in p for p in problems)
    assert any("not live" in p for p in problems)


def test_top_f_uses_largest_partners():
    # Server 0 shares 0.3 with server 1 and 0.1 with server 2; with
    # f=1 only the 0.3 counts: 0.4 + 0.3 <= 1, but 0.8 + 0.3 is not.
    loads = {1: 0.6, 2: 0.2}
    packing = {1: [0, 1], 2: [0, 2]}
    assert check_packing(loads, packing, 3, gamma=2, failures=1) == []
    loads[2] = 1.0
    problems = check_packing(loads, packing, 3, gamma=2, failures=1)
    assert any("server 0" in p for p in problems)


ACKED = [{10: (0.3, [0, 1]), 11: (0.2, [1, 2])}, {20: (0.5, [2, 3])}]


def test_durability_exact_recovery_passes():
    recovered = {t: v for state in ACKED for t, v in state.items()}
    problems, loads, committed = check_durability(recovered, ACKED,
                                                  [None, None])
    assert problems == [] and committed == 0
    assert loads == {10: 0.3, 11: 0.2, 20: 0.5}


def test_durability_rejects_lost_or_moved_acked_tenant():
    recovered = {10: (0.3, [0, 1]), 20: (0.5, [2, 3])}
    problems, _, _ = check_durability(recovered, ACKED, [None, None])
    assert any("tenant 11" in p for p in problems)
    recovered[11] = (0.2, [1, 3])
    problems, _, _ = check_durability(recovered, ACKED, [None, None])
    assert any("tenant 11" in p for p in problems)
    recovered[11] = (0.25, [1, 2])
    problems, _, _ = check_durability(recovered, ACKED, [None, None])
    assert any("tenant 11" in p for p in problems)


def test_durability_rejects_unacked_tenant():
    recovered = {t: v for state in ACKED for t, v in state.items()}
    recovered[12] = (0.1, [0, 3])
    problems, _, _ = check_durability(recovered, ACKED, [None, None])
    assert any("no acknowledged request" in p for p in problems)


def test_durability_in_flight_may_commit_or_not():
    base = {t: v for state in ACKED for t, v in state.items()}
    in_flight = [("place", 12, 0.1), ("remove", 20, None)]
    for recovered, want in (
            (dict(base), 0),
            ({**base, 12: (0.1, [0, 3])}, 1),
            ({t: v for t, v in base.items() if t != 20}, 1),
            ({t: v for t, v in {**base, 12: (0.1, [0, 3])}.items()
              if t != 20}, 2)):
        problems, _, committed = check_durability(recovered, ACKED,
                                                  in_flight)
        assert problems == [] and committed == want


def test_durability_rejects_in_flight_with_wrong_load():
    recovered = {t: v for state in ACKED for t, v in state.items()}
    recovered[11] = (0.9, [1, 2])
    problems, _, _ = check_durability(
        recovered, ACKED, [("update_load", 11, 0.35), None])
    assert any("in-flight update_load" in p for p in problems)
    recovered[11] = (0.35, [2, 3])
    problems, loads, committed = check_durability(
        recovered, ACKED, [("update_load", 11, 0.35), None])
    assert problems == [] and committed == 1 and loads[11] == 0.35


def test_layer_report_adds_up():
    names = [n for group in TIME_LAYERS.values() for n in group]
    self_seconds = {name: 0.001 * (i + 1) for i, name in enumerate(names)}
    e2e = sum(self_seconds.values()) * 1.25
    metrics = report(self_seconds, 10, e2e, e2e / 10 * 0.8, {}, {})
    parts = sum(metrics[f"{layer}.us_per_op"]["value"]
                for layer in TIME_LAYERS)
    total = parts + metrics["unaccounted.us_per_op"]["value"]
    assert abs(total - metrics["trace.e2e.us_per_op"]["value"]) < 1e-6
    assert abs(covered_fraction(metrics) - 0.8) < 1e-9
    assert metrics["trace.overhead.us_per_op"]["value"] > 0


def test_tracer_self_times_partition_the_outer_call():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    wrapped_outer = tracer.wrap(outer, "outer")
    start = time.perf_counter()
    wrapped_outer()
    elapsed = time.perf_counter() - start
    inner_s = tracer.layer_seconds("inner")
    outer_s = tracer.layer_seconds("outer")
    assert tracer.layer_calls("inner") == 2
    assert inner_s >= 0.02 and outer_s >= 0.01
    assert inner_s + outer_s <= elapsed


def test_tracer_tags_spans_with_request_id():
    tracer = Tracer(by_request=True)
    work = tracer.wrap(lambda: None, "work")
    finish = tracer.wrap(lambda request_id: None, "finish",
                         tag_of=lambda args, result: args[0])
    work()
    finish(7)
    work()
    finish(8)
    assert [span[0] for span in tracer.requests[7]] == ["work", "finish"]
    assert len(tracer.requests[8]) == 2


def test_generator_spans_exclude_consumer_time():
    tracer = Tracer()

    def produce():
        for i in range(3):
            time.sleep(0.005)
            yield i

    items = []
    for item in tracer.wrap(produce, "gen")():
        time.sleep(0.02)
        items.append(item)
    assert items == [0, 1, 2]
    assert tracer.layer_calls("gen") == 4
    assert 0.015 <= tracer.layer_seconds("gen") < 0.05
