"""Run the paper's multi-walk solves as the benchmark's system under test.

Imports the library and loads its kernels, answers one small probe solve
(the set-up's "first correct answer"), then solves Costas order
:data:`ORDER` with :data:`WORKERS` walks once per ``--seeds`` root with
``parallel_solve_costas``, closed loop.  Every answer is printed as one JSON
line for the harness to validate.  Before each solve and after the last, no
walk runs, so a host-speed sample is taken; the samples, stamped with the
same monotonic clock as the solves, are printed after the last answer.  The last line reports peak resident memory.  With ``--trace-out`` the layer
wrappers of :mod:`tracing` are installed first and the spans are written to
that file at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402

#: The paper's experiment: Costas order 16, two independent walks per solve
#: (one per core of the benchmark machine), first to finish wins.
ORDER = 16
WORKERS = 2
#: Order of the probe solve: small enough to answer in milliseconds.
PROBE_ORDER = 10


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe-seed", type=int, required=True)
    parser.add_argument("--seeds", default="", help="comma-separated seed roots")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install_paper(tracer)

    from repro import parallel_solve_costas
    from repro.core import _ckernels

    _ckernels.load()
    probe = parallel_solve_costas(
        PROBE_ORDER, n_workers=WORKERS, seed_root=args.probe_seed
    )
    emit({"probe": [int(v) for v in probe.best.configuration], "solved": probe.solved})

    seeds = [int(s) for s in args.seeds.split(",") if s]
    speed = harness.HostSpeed()
    for seed in seeds:
        speed.sample()
        start = time.perf_counter()
        result = parallel_solve_costas(ORDER, n_workers=WORKERS, seed_root=seed)
        ttt = time.perf_counter() - start
        emit(
            {
                "seed": seed,
                "start": start,
                "ttt": ttt,
                "solved": result.solved,
                "solution": [int(v) for v in result.best.configuration],
                "iterations": int(result.best.iterations),
                "walk_time": float(result.best.wall_time),
                "walks": [[int(r.iterations), float(r.wall_time)] for r in result.results],
            }
        )
    if seeds:
        speed.sample()
        emit({"speed": speed.samples})

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in KiB on Linux; each walk runs in its own child process.
    emit({"rss_mb": (own + WORKERS * largest_child) / 1024.0})
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
