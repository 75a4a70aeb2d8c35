"""Helpers shared by the workloads: paths, seeded loads, statistics."""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of its own
#: directory); the program is imported from ``src`` below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, sockets and trace files; ignored by git.
WORK = ROOT / ".perfbench_work"

#: Tenant loads are Uniform(0, MAX_LOAD], as in the paper's Figure 6.
MAX_LOAD = 0.6


def _cpu_split():
    """(benchmark CPUs, child CPUs), or None on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


#: Taken before ``pin_self`` narrows this process's own affinity.
CPU_SPLIT = _cpu_split()


def pin_self() -> None:
    """Keep this process (and threads it starts later) on one CPU and
    its child processes on the others, so that the load generator and
    the program it drives do not take turns on the same CPU."""
    if CPU_SPLIT is not None:
        os.sched_setaffinity(0, CPU_SPLIT[0])


def pin_child(pid: int) -> None:
    if CPU_SPLIT is not None:
        os.sched_setaffinity(pid, CPU_SPLIT[1])


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTS", None)
    return env


def uniform_loads(rng, n: int) -> List[float]:
    """``n`` loads in (0, MAX_LOAD] from a numpy Generator."""
    return [MAX_LOAD - x for x in rng.uniform(0.0, MAX_LOAD, n).tolist()]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def self_peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cold_start_seconds(args: Sequence[str], workdir: Path,
                       repeats: int) -> float:
    """Median time from spawning a fresh interpreter until the program
    reports it can take its first operation (see ``coldstart.py``)."""
    script = Path(__file__).resolve().parent / "coldstart.py"
    samples = []
    for attempt in range(repeats):
        target = workdir / f"coldstart-{attempt}"
        gc.collect()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(script), *args, str(target)],
            stdout=subprocess.PIPE, env=program_env(), cwd=str(ROOT))
        pin_child(child.pid)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"cold start of {args[0]} failed "
                               f"(exit {code}, said {line!r})")
        shutil.rmtree(target, ignore_errors=True)
    return median(samples)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
