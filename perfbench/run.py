"""Benchmark of the Costas multi-walk solver and the solver service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the workload untraced and then again with spans recorded around every
layer, and reports the per-layer metrics (a layer that does no work in the
workload reads 0).  Times and rates are scaled to a reference host speed
(``harness.HostSpeed``).  Human-readable lines come first; the last line of
stdout is the JSON result.  Every run also writes its full record, with the
environment it ran in, to ``.perfbench/results/``.

Exit codes: 0 on a valid run, 1 when any returned solution was invalid, 2
when no valid result could be produced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import BenchError  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        env = harness.prepare()
        import workloads

        run = workloads.WORKLOADS.get(args.workload)
        if run is None:
            raise BenchError(f"unknown workload {args.workload!r}")
        base = run(args.seed, args.seconds, None)
        traced = None
        if args.trace:
            trace_out = harness.fresh_dir("trace") / f"{args.workload}.json"
            traced = run(args.seed, args.seconds, trace_out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    passes = [base] if traced is None else [base, traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    invalid = sum(p.invalid for p in passes)
    if traced is None:
        declared = spec["end_to_end"]
        values = base.e2e
    else:
        declared = spec["per_layer"]
        # Layer times are scaled to the reference host by the traced pass's
        # factor, as the end-to-end times are by their own (harness.HostSpeed).
        scale = {"ms": traced.host_factor, "us": traced.host_factor, "1/s": 1 / traced.host_factor}
        values = {
            m["name"]: traced.layers.get(m["name"], 0.0) * scale.get(m["unit"], 1.0)
            for m in declared
        }
        # The difference of two passes includes their run-to-run spread, so
        # it is printed for reference; trace.overhead_ms is measured in the
        # traced pass itself.
        base.notes.append(
            f"p50 traced - untraced (two passes, run-to-run noise included): "
            f"{traced.e2e['p50_ms'] - base.e2e['p50_ms']:.4f} ms"
        )
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in base.notes:
        print("  " + note)
    for name, (value, unit) in base.named.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "named": {k: v[0] for k, v in base.named.items()},
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "invalid": invalid,
    }
    results = harness.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": invalid == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if invalid == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
