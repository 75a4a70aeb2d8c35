"""``serve``: the placement daemon, round trip by round trip.

Each round starts a cold ``python -m repro serve`` (RobustBestFit,
gamma 2, ``fsync=always``, no checkpoint timer) on a fresh store and
drives it from this process over two closed-loop connections, each
sending its next request only after the previous answer.  The mix is
70% ``place``, 20% ``update_load`` and 10% ``remove``; connection 0
also asks for a ``checkpoint`` after its 333rd and 666th request.
Every connection then sends one last request and the daemon is killed
with SIGKILL while those are in flight.  A restarted daemon on the same
store must answer ``ping`` (recovery time), and the store it recovered
must hold every acknowledged mutation.

A round is a fixed number of requests, not a fixed duration, and its
checkpoints come at fixed request counts, so a faster daemon leaves the
same WAL tail for recovery to replay.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
from checker import check_packing
from common import (MAX_LOAD, ROOT, median, metric, pid_peak_rss_mib,
                    pin_child, program_env, quantile)

GAMMA = 2
FAILURES = GAMMA - 1
CONNECTIONS = 2
PER_CONNECTION = 1000
CHECKPOINTS_AFTER = (333, 666)
QUEUE_SIZE = 64
#: Cumulative shares of the mix: place below 0.7, update below 0.9.
PLACE_SHARE, UPDATE_SHARE = 0.7, 0.9
#: Tenant ids of connection ``c`` start at ``(c + 1) * ID_SPACE``, and
#: so do its request ids: no two connections share either.
ID_SPACE = 10_000_000
BACKPRESSURE_RETRIES = 50
TIMEOUT = 60.0

#: (verb, tenant, load) — load is None for ``remove``.
Op = Tuple[str, int, Optional[float]]
#: tenant -> (load, servers in replica order)
State = Dict[int, Tuple[float, List[int]]]


def plan(seed: int, connection: int) -> List[Op]:
    """The seeded request sequence of one connection.

    The mix is exact (a seeded shuffle of fixed verb counts) and loads
    are stratified — one Uniform draw in each of ``PER_CONNECTION``
    equal slices of (0, MAX_LOAD], in seeded order — so the total load
    a round offers, and with it the server count, barely depends on
    the seed.
    """
    import numpy as np
    rng = np.random.default_rng([seed, connection])
    places = round(PER_CONNECTION * PLACE_SHARE)
    updates = round(PER_CONNECTION * (UPDATE_SHARE - PLACE_SHARE))
    verbs = (["place"] * places + ["update_load"] * updates
             + ["remove"] * (PER_CONNECTION - places - updates))
    verbs = [verbs[i] for i in rng.permutation(PER_CONNECTION)]
    strata = (rng.permutation(PER_CONNECTION)
              + rng.random(PER_CONNECTION)) / PER_CONNECTION
    loads = [MAX_LOAD * (1.0 - x) for x in strata.tolist()]
    picks = rng.random(PER_CONNECTION).tolist()
    live: List[int] = []
    next_id = (connection + 1) * ID_SPACE
    ops: List[Op] = []
    for verb, load, pick in zip(verbs, loads, picks):
        if verb == "place" or not live:
            ops.append(("place", next_id, load))
            live.append(next_id)
            next_id += 1
        elif verb == "update_load":
            ops.append(("update_load", live[int(pick * len(live))], load))
        else:
            index = int(pick * len(live))
            live[index], live[-1] = live[-1], live[index]
            ops.append(("remove", live.pop(), None))
    return ops


def params_of(op: Op) -> Dict[str, object]:
    _, tenant, load = op
    return {"tenant": tenant} if load is None else {"tenant": tenant,
                                                    "load": load}


def apply(state: State, op: Op, servers: Optional[List[int]]) -> None:
    """Record an acknowledged mutation in the benchmark's own map."""
    verb, tenant, load = op
    if verb == "remove":
        state.pop(tenant, None)
    else:
        state[tenant] = (load, list(servers))


def check_durability(recovered: State, acked: List[State],
                     in_flight: List[Optional[Op]]
                     ) -> Tuple[List[str], Dict[int, float], int]:
    """Compare a recovered placement with what the daemon acknowledged.

    ``acked[c]`` is connection ``c``'s acknowledged state; ``in_flight[c]``
    its one request that was sent but never answered (``None`` if it
    was answered).  Every acked mutation must be present exactly; each
    in-flight request may have committed or not, nothing else may
    differ.  Returns the problems, the load of every recovered tenant
    as the benchmark sent it (for the packing checker), and how many
    in-flight requests committed.
    """
    problems: List[str] = []
    loads: Dict[int, float] = {}
    committed = 0
    pending = {op[1]: (c, op) for c, op in enumerate(in_flight)
               if op is not None}
    expected: State = {}
    for state in acked:
        expected.update(state)

    def same(got, want) -> bool:
        return (got is not None and want is not None
                and abs(got[0] - want[0]) <= 1e-9 and got[1] == want[1])

    for tenant in sorted(set(expected) | set(recovered) | set(pending)):
        got = recovered.get(tenant)
        want = expected.get(tenant)
        if tenant in pending:
            connection, (verb, _, load) = pending[tenant]
            unchanged = got is None if want is None else same(got, want)
            if unchanged:
                if got is not None:
                    loads[tenant] = want[0]
                continue
            if verb == "remove" and got is None:
                committed += 1
                continue
            if verb != "remove" and got is not None \
                    and abs(got[0] - load) <= 1e-9:
                committed += 1
                loads[tenant] = load
                continue
            problems.append(f"tenant {tenant}: in-flight {verb} from "
                            f"connection {connection} left {got}, acked "
                            f"state was {want}")
        elif want is None:
            problems.append(f"tenant {tenant} recovered as {got} but no "
                            f"acknowledged request put it there")
        elif not same(got, want):
            problems.append(f"tenant {tenant}: acked {want}, recovered "
                            f"{got}")
        else:
            loads[tenant] = want[0]
    return problems, loads, committed


class Connection:
    """One closed-loop client connection speaking the daemon's frames."""

    def __init__(self, index: int, socket_path: str) -> None:
        from repro.serve.protocol import (MAX_FRAME_BYTES, encode_request,
                                          parse_response, raise_error,
                                          read_frame)
        self._encode, self._read = encode_request, read_frame
        self._parse, self._raise = parse_response, raise_error
        self._max = MAX_FRAME_BYTES
        self.index = index
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT)
        self.sock.connect(socket_path)
        self.reader = self.sock.makefile("rb")
        self.next_id = (index + 1) * ID_SPACE
        #: request id -> (send time, answer time) of answered requests.
        self.log: Dict[int, Tuple[float, float]] = {}

    def send(self, verb: str, **params) -> int:
        self.next_id += 1
        self.sock.sendall(self._encode(self.next_id, verb, **params))
        return self.next_id

    def receive(self, request_id: int, sent: float) -> dict:
        """The answer to ``request_id``; raises the typed error it
        carries, or OSError if the daemon went away."""
        line = self._read(self.reader, self._max)
        answered = time.perf_counter()
        if line is None:
            raise ConnectionResetError("daemon closed the connection")
        got_id, body = self._parse(line)
        if got_id != request_id:
            raise RuntimeError(f"answer {got_id} to request {request_id}")
        self.log[request_id] = (sent, answered)
        if not body.get("ok"):
            self._raise(body)
        return body.get("result", {})

    def call(self, verb: str, **params) -> Tuple[dict, float]:
        from repro.errors import BackpressureError
        for attempt in range(BACKPRESSURE_RETRIES):
            sent = time.perf_counter()
            request_id = self.send(verb, **params)
            try:
                result = self.receive(request_id, sent)
            except BackpressureError as err:
                if attempt == BACKPRESSURE_RETRIES - 1:
                    raise
                time.sleep(max(err.retry_after, 0.001))
                continue
            return result, self.log[request_id][1] - sent
        raise AssertionError("unreachable")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """One daemon process: the real CLI, or the traced launcher."""

    def __init__(self, store: Path, socket_path: str,
                 spans: Optional[Path], log: Path) -> None:
        common = ["--store", str(store), "--socket", socket_path,
                  "--gamma", str(GAMMA), "--queue-size", str(QUEUE_SIZE)]
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *common,
                       "--checkpoint-interval", "0"]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            command = [sys.executable, str(launcher), *common,
                       "--spans", str(spans)]
        self.socket_path = socket_path
        self.spans = spans
        self._log = open(log, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=program_env(), cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=self._log)
        pin_child(self.process.pid)

    def wait_ready(self) -> float:
        """Seconds from spawn until the daemon answers ``ping``."""
        from repro.errors import ConfigurationError, ProtocolError
        from repro.serve import ServeClient
        deadline = self.started + TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with "
                                   f"{self.process.returncode}")
            try:
                with ServeClient(self.socket_path, timeout=TIMEOUT) as probe:
                    probe.ping()
                return time.perf_counter() - self.started
            except (ConfigurationError, ProtocolError, OSError):
                time.sleep(0.001)
        raise RuntimeError("daemon not ready")

    def dump_spans(self) -> dict:
        """Ask the traced launcher for its spans so far."""
        self.spans.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + TIMEOUT
        while not self.spans.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced daemon wrote no spans")
            time.sleep(0.005)
        return json.loads(self.spans.read_text())

    def stop(self, sig: int) -> int:
        if self.process.poll() is None:
            self.process.send_signal(sig)
        try:
            return self.process.wait(timeout=TIMEOUT)
        finally:
            self._log.close()

    def ensure_dead(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=TIMEOUT)
        if not self._log.closed:
            self._log.close()


class RoundResult:
    def __init__(self) -> None:
        self.ops = 0
        self.load_seconds = 0.0
        self.latencies: List[float] = []
        self.request_log: Dict[int, Tuple[float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup = self.recovery = self.rss = 0.0
        self.servers = 0
        self.spans: Optional[dict] = None
        self.restart_spans: Optional[dict] = None
        self.stats: Optional[dict] = None


def drive(connection: Connection, ops: List[Op], state: State,
          result: RoundResult, lock: threading.Lock,
          start: threading.Barrier, loaded: threading.Barrier,
          go_final: threading.Event, final_sent: threading.Event,
          in_flight: List[Optional[Op]], ends: List[float]) -> None:
    """One connection's closed loop; see the module docstring."""
    from repro.errors import ReproError
    latencies: List[float] = []
    failures: List[str] = []
    answered = 0
    start.wait()
    for count, op in enumerate(ops[:-1], start=1):
        try:
            body, latency = connection.call(op[0], **params_of(op))
        except ReproError as err:
            failures.append(f"{op[0]} {op[1]}: {err!r}")
            answered += 1
            continue
        answered += 1
        latencies.append(latency)
        apply(state, op, body.get("servers"))
        if connection.index == 0 and count in CHECKPOINTS_AFTER:
            try:
                connection.call("checkpoint")
            except ReproError as err:
                failures.append(f"checkpoint: {err!r}")
            answered += 1
    ends[connection.index] = time.perf_counter()
    loaded.wait()
    go_final.wait()
    op = ops[-1]
    in_flight[connection.index] = op
    sent = time.perf_counter()
    request_id = connection.send(op[0], **params_of(op))
    final_sent.set()
    try:
        body = connection.receive(request_id, sent)
    except (OSError, ReproError, ValueError):
        pass  # killed in flight: it may or may not have committed
    else:
        apply(state, op, body.get("servers"))
        in_flight[connection.index] = None
        answered += 1
    with lock:
        result.latencies.extend(latencies)
        result.ops += len(latencies)
        result.attempted += answered
        result.failed += len(failures)
        result.problems.extend(failures)


def one_round(number: int, plans: List[List[Op]], traced: bool,
              read_stats: bool, workdir: Path) -> RoundResult:
    from repro.serve import ServeClient
    from repro.store import recover

    result = RoundResult()
    store = workdir / f"store-{number}"
    socket_path = os.path.relpath(workdir / f"s{number}.sock", ROOT)
    log = workdir / "daemon.log"
    spans = workdir / f"spans-{number}.json" if traced else None
    restart_spans = workdir / f"spans-{number}-restart.json" \
        if traced else None

    gc.collect()
    daemon = Daemon(store, socket_path, spans, log)
    restarted = None
    connections: List[Connection] = []
    threads: List[threading.Thread] = []
    try:
        result.setup = daemon.wait_ready()
        states: List[State] = [{} for _ in plans]
        in_flight: List[Optional[Op]] = [None] * len(plans)
        ends = [0.0] * len(plans)
        lock = threading.Lock()
        start = threading.Barrier(len(plans) + 1, timeout=TIMEOUT)
        loaded = threading.Barrier(len(plans) + 1, timeout=TIMEOUT)
        go_final = threading.Event()
        sent = [threading.Event() for _ in plans]
        connections = [Connection(c, socket_path) for c in range(len(plans))]
        threads = [threading.Thread(
            target=drive, args=(connections[c], plans[c], states[c], result,
                                lock, start, loaded, go_final, sent[c],
                                in_flight, ends), daemon=True)
            for c in range(len(plans))]
        for thread in threads:
            thread.start()
        start.wait()
        began = time.perf_counter()
        loaded.wait()
        result.load_seconds = max(ends) - began
        result.rss = pid_peak_rss_mib(daemon.process.pid)
        if read_stats:
            with ServeClient(socket_path, timeout=TIMEOUT) as client:
                result.stats = client.stats()
        if traced:
            result.spans = daemon.dump_spans()
        go_final.set()
        for event in sent:
            event.wait(TIMEOUT)
        killed = time.perf_counter()
        if daemon.stop(signal.SIGKILL) != -signal.SIGKILL:
            result.problems.append("daemon did not die of SIGKILL")
        for thread in threads:
            thread.join(TIMEOUT)
        for connection in connections:
            result.request_log.update(connection.log)
        restarted = Daemon(store, socket_path, restart_spans, log)
        restarted.started = killed
        result.recovery = restarted.wait_ready()
        if traced:
            result.restart_spans = restarted.dump_spans()
        # Killed again rather than stopped with SIGTERM: the restarted
        # daemon has changed nothing, and a SIGTERM that lands right
        # after start-up can hang its shutdown (see CHANGES.md).
        restarted.stop(signal.SIGKILL)
    finally:
        for connection in connections:
            connection.close()
        daemon.ensure_dead()
        if restarted is not None:
            restarted.ensure_dead()
    if any(thread.is_alive() for thread in threads):
        result.problems.append("a client connection did not finish")

    state = recover(store)
    placement = state.placement
    recovered: State = {}
    for tenant in placement.tenant_ids:
        by_index = placement.tenant_servers(tenant)
        recovered[tenant] = (placement.tenant_load(tenant),
                             [by_index[i] for i in sorted(by_index)])
    problems, loads, _ = check_durability(recovered, states, in_flight)
    assignment = {tenant: servers for tenant, (_, servers)
                  in recovered.items()}
    problems += check_packing(loads, assignment, placement.num_servers,
                              GAMMA, FAILURES)
    result.failed += len(problems)
    result.problems += problems
    result.servers = placement.num_servers
    shutil.rmtree(store, ignore_errors=True)
    return result


def request_split(result: RoundResult, sums: Dict[str, float]) -> Tuple[
        float, int]:
    """Add one traced round's per-request self times to ``sums``.

    Returns the summed client-side latency and the number of requests
    joined.  A handler's ``read_frame`` span also covers the wait for
    the client to send, so it is clipped to start at the send time;
    queue wait runs from the end of ``parse_request`` to the worker's
    first span for the request.
    """
    spans_by_request = result.spans["requests"]
    e2e = 0.0
    joined = 0
    for request_id, (sent, answered) in result.request_log.items():
        spans = spans_by_request.get(str(request_id))
        if not spans:
            continue  # answered after the span dump (the final ones)
        parse_end = None
        worker_start = None
        for layer, begin, end, self_time in spans:
            if layer == "serve.protocol.read":
                self_time = max(0.0, end - max(begin, sent))
            elif layer == "serve.protocol.parse":
                parse_end = end
            elif worker_start is None or begin < worker_start:
                worker_start = begin
            sums[layer] = sums.get(layer, 0.0) + self_time
        if parse_end is not None and worker_start is not None:
            sums["serve.queue_wait"] = sums.get("serve.queue_wait", 0.0) \
                + max(0.0, worker_start - parse_end)
        e2e += answered - sent
        joined += 1
    return e2e, joined


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    plans = [plan(seed, c) for c in range(CONNECTIONS)]
    rounds: List[RoundResult] = []
    traced_rounds: List[RoundResult] = []
    deadline = time.perf_counter() + seconds
    number = 0
    # A traced run alternates untraced and traced rounds, so that the
    # tracing overhead is measured under the same conditions.
    while True:
        traced = trace and number % 2 == 1
        result = one_round(number, plans, traced, trace, workdir)
        (traced_rounds if traced else rounds).append(result)
        number += 1
        if time.perf_counter() >= deadline and (
                not trace or traced_rounds):
            break

    everything = rounds + traced_rounds
    problems = [p for r in everything for p in r.problems]
    outcome = {"attempted": sum(r.attempted for r in everything),
               "failed": sum(r.failed for r in everything),
               "problems": problems}
    if not trace:
        outcome["metrics"] = {
            "requests_per_s": metric(median([r.ops / r.load_seconds
                                             for r in rounds]), "req/s"),
            "latency_p50_us": metric(median([
                quantile(r.latencies, 0.5) for r in rounds]) * 1e6, "us"),
            "latency_p99_us": metric(median([
                quantile(r.latencies, 0.99) for r in rounds]) * 1e6, "us"),
            "latency_samples": metric(
                sum(len(r.latencies) for r in rounds), "count"),
            "servers": metric(median([r.servers for r in rounds]), "count"),
            "recovery_s": metric(median([r.recovery for r in rounds]), "s"),
            "setup_s": metric(median([r.setup for r in rounds]), "s"),
            "peak_rss_mib": metric(median([r.rss for r in rounds]), "MiB"),
        }
        return outcome

    untraced_e2e = untraced_n = 0
    for r in rounds:
        untraced_e2e += sum(b - a for a, b in r.request_log.values())
        untraced_n += len(r.request_log)
    sums: Dict[str, float] = {}
    e2e = 0.0
    requests = 0
    counts: Dict[str, float] = {}
    for r in traced_rounds:
        round_e2e, joined = request_split(r, sums)
        e2e += round_e2e
        requests += joined
        totals = r.spans["totals"]
        metrics = r.stats.get("metrics", {})
        for key, value in (
                ("core.exact.calls", totals.get("core.exact", [0, 0])[1]),
                ("store.fsyncs", totals.get("store.fsync", [0, 0])[1]),
                ("store.wal_bytes",
                 r.spans["counters"].get("store.wal_bytes", 0)),
                ("feasibility.screened", metrics.get(
                    "feasibility.screened", {}).get("value", 0)),
                ("feasibility.exact", metrics.get(
                    "feasibility.exact", {}).get("value", 0))):
            counts[key] = counts.get(key, 0) + value
    extra = {
        "store.checkpoint.s": median([
            x for r in traced_rounds
            for x in r.spans["per_call"].get("store.checkpoint", [])]),
        "store.recover.s": median([
            x for r in traced_rounds
            for x in r.restart_spans["per_call"].get("store.recover", [])]),
    }
    outcome["metrics"] = layers.report(
        sums, requests, e2e, untraced_e2e / untraced_n, counts, extra)
    return outcome
