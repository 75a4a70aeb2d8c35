"""End-to-end benchmark of the placement system.

Usage::

    python3 perfbench/run.py --workload {admit,serve,fleet} --seed N \\
        --seconds S --trace {0,1}

Runs whole rounds of one workload for about ``S`` seconds on inputs
drawn from ``--seed``, checks every round's output, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics untraced (``--trace 0``), the
per-layer metrics of a traced run (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, SRC, WORK, pin_self

WORKLOADS = ("admit", "serve", "fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stores and sockets live under the checkout; socket paths are kept
    # relative to it because AF_UNIX paths are limited to 107 bytes.
    os.chdir(ROOT)
    pin_self()

    import admit
    import fleet
    import serve
    from layers import covered_fraction
    runner = {"admit": admit, "serve": serve, "fleet": fleet}[args.workload]

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = runner.run(args.seed, args.seconds, bool(args.trace),
                             workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and covered_fraction(outcome["metrics"]) > 1.01:
        outcome["problems"].append(
            "layer self times exceed the traced end-to-end time")
    for problem in outcome["problems"][:20]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
