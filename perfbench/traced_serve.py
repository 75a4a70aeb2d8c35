"""Traced launcher for the ``serve`` workload.

Runs :class:`repro.serve.PlacementServer` with the configuration
``python -m repro serve`` builds (metrics registry on, crash mode
``exit``, no checkpoint timer), after installing the benchmark's span
wrappers in this process — the real daemon subprocess cannot carry
them.  Spans are held per request and written as JSON to ``--spans``
on ``SIGUSR1``.

Usage::

    python3 perfbench/traced_serve.py --store DIR --socket PATH \\
        --gamma 2 --queue-size 64 --spans FILE
"""

import argparse
import signal
import sys

from tracing import Tracer, install


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--gamma", type=int, required=True)
    parser.add_argument("--queue-size", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.obs import MetricsRegistry, set_enabled
    from repro.serve import PlacementServer, ServeConfig

    tracer = Tracer(by_request=True)
    install(tracer)
    set_enabled(True)
    config = ServeConfig(gamma=args.gamma, queue_size=args.queue_size,
                         checkpoint_interval=0.0, crash_mode="exit")
    server = PlacementServer(args.store, args.socket, config,
                             obs=MetricsRegistry())
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _sig, _frm: server.request_shutdown())
    signal.signal(signal.SIGUSR1, lambda _sig, _frm: tracer.dump(args.spans))
    server.start()
    server.run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
