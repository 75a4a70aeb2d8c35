"""Cold-start probe: import the program, build what a workload needs
before its first operation, print ``ready``.

Usage: ``python3 perfbench/coldstart.py admit GAMMA`` or
``python3 perfbench/coldstart.py fleet GAMMA SHARDS SCRATCH_DIR``.
The benchmark times a fresh process from spawn to the ``ready`` line.
The ``serve`` workload times the real daemon instead (spawn to first
``ping``).
"""

import sys


def main(argv) -> int:
    kind, gamma = argv[0], int(argv[1])
    if kind == "admit":
        from repro.core import CubeFit
        CubeFit(gamma=gamma)
        print("ready", flush=True)
        return 0
    if kind == "fleet":
        from repro.fleet import (PlacementRouter, ShardController,
                                 shard_directory)
        shards, scratch = int(argv[2]), argv[3]
        PlacementRouter(shards, policy="hash")
        controllers = [ShardController(sid, shard_directory(scratch, sid),
                                       gamma=gamma, fsync="rotate")
                       for sid in range(shards)]
        print("ready", flush=True)
        for controller in controllers:
            controller.close()
        return 0
    print(f"unknown kind {kind!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
