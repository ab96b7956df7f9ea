"""Launch the asyncio solver service as the benchmark's system under test.

Builds the same ``ServiceConfig`` as ``repro serve`` with its defaults,
except for three: a pool of one worker (:data:`WORKERS`), and the on-disk
store and the pool's seed root, which the benchmark passes in.  With
``--trace-out`` the layer wrappers of :mod:`tracing` are installed before
the worker pool forks, and the spans are written to that file when the
server exits.

Prints one JSON line (``port``, ``pid``, ``kernel_mode``) once it serves,
then serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

#: One pool worker, so the second core serves the front-end and the load.
WORKERS = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed-root", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install_service(tracer)

    from repro.core import _ckernels
    from repro.service.api import ServiceConfig
    from repro.service.http_async import AsyncServiceHTTPServer

    # Load the kernels before the pool forks, as `repro serve` does.
    kernel_mode = _ckernels.mode()
    config = ServiceConfig(
        store_path=args.store,
        n_workers=WORKERS,
        seed_root=args.seed_root,
        default_max_time=300.0,
        drain_timeout=10.0,
    )
    server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config, verbose=False)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    print(
        json.dumps({"port": server.port, "pid": os.getpid(), "kernel_mode": kernel_mode}),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop(drain=True)
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
