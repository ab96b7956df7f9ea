"""Chaos benchmark: availability and tail latency under worker crashes.

For each worker-crash rate in the sweep, a real ``repro`` HTTP server runs
in a **separate process** with deterministic fault injection active
(``worker.crash=<rate>``), and a small client pool fires search-tier
requests at it (``use_store=false``, ``use_constructions=false``, so every
request must survive the worker pool rather than being answered from the
warm tiers).  Each request records its HTTP status and wall latency.

Reported per rate:

* **availability** — fraction of requests answered ``200`` with a solved
  placement.  The acceptance target is ≥99% availability at a 10% crash
  rate: the pool's requeue-with-backoff and respawn machinery must absorb
  worker deaths without surfacing them to clients.
* **p50 / p99 latency** — crashes cost retries and respawns, so the tail
  shows the price of degradation even while availability holds.
* **malformed** — requests that did not terminate in a well-formed HTTP
  response (connection error / client timeout).  Must be zero at every
  rate: a crashing worker may slow an answer, never wedge one.

Results go to ``BENCH_chaos.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke --out smoke.json
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Tuple

#: Body of the server subprocess: one HTTP front-end with fault injection
#: configured from argv, ephemeral port printed on stdout.
_SERVER_MAIN = """
import sys
from repro.service.api import ServiceConfig
from repro.service.faults import FaultPlan
from repro.service.http_async import AsyncServiceHTTPServer

spec, db = sys.argv[1], sys.argv[2]
plan = FaultPlan.parse(spec) if spec != "-" else None
config = ServiceConfig(
    store_path=db,
    n_workers=2,
    default_max_time=30.0,
    fault_plan=plan,
    max_walk_retries=4,
    liveness_grace=0.4,
    hang_grace=1.0,
)
server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config, verbose=False)
print(server.port, flush=True)
server.serve_forever()
"""

#: Orders cycled through the request mix — all quick search-tier solves,
#: several distinct (kind, n) keys so one unlucky key cannot trip the
#: circuit breaker into dominating the availability number.
_ORDERS = [8, 9, 10, 11, 12]

_FULL_RATES = [0.0, 0.1, 0.3]
_SMOKE_RATES = [0.0, 0.1]


class ChaosServer:
    """One faulty server subprocess plus cleanup."""

    def __init__(self, crash_rate: float, seed: int) -> None:
        self.crash_rate = crash_rate
        spec = f"worker.crash={crash_rate},seed={seed}" if crash_rate else "-"
        self._db = tempfile.mktemp(prefix="bench-chaos-", suffix=".db")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("REPRO_FAULTS", None)
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SERVER_MAIN, spec, self._db],
            stdout=subprocess.PIPE,
            env=env,
        )
        assert self._proc.stdout is not None
        self.port = int(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self._proc.kill()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self._db + suffix)
            except OSError:
                pass


def _one_request(port: int, order: int, timeout: float) -> Tuple[int, bool, float]:
    """POST one search-tier solve; (status, solved?, latency).  status 0
    means the request did not terminate in a well-formed HTTP response."""
    body = json.dumps(
        {
            "order": order,
            "wait": True,
            "use_store": False,
            "use_constructions": False,
            "max_time": 15.0,
        }
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/solve",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            payload = json.loads(resp.read())
            status, solved = resp.status, bool(payload.get("solved"))
    except urllib.error.HTTPError as exc:
        exc.read()
        status, solved = exc.code, False
    except Exception:
        status, solved = 0, False
    return status, solved, time.perf_counter() - start


def _percentile(sorted_values: List[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_rate(
    crash_rate: float,
    *,
    seed: int,
    requests: int,
    concurrency: int,
    timeout: float,
) -> Dict[str, object]:
    server = ChaosServer(crash_rate, seed)
    try:
        orders = [_ORDERS[i % len(_ORDERS)] for i in range(requests)]
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(concurrency) as pool:
            results = list(
                pool.map(lambda o: _one_request(server.port, o, timeout), orders)
            )
        wall = time.perf_counter() - start
    finally:
        server.close()
    ok = sum(1 for status, solved, _ in results if status == 200 and solved)
    malformed = sum(1 for status, _, _ in results if status == 0)
    statuses: Dict[str, int] = {}
    for status, _, _ in results:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
    latencies = sorted(latency for _, _, latency in results)
    row = {
        "crash_rate": crash_rate,
        "requests": requests,
        "ok": ok,
        "availability": round(ok / requests, 4),
        "malformed": malformed,
        "statuses": statuses,
        "p50_ms": round(1000 * _percentile(latencies, 0.50), 2),
        "p99_ms": round(1000 * _percentile(latencies, 0.99), 2),
        "max_ms": round(1000 * latencies[-1], 2),
        "wall_s": round(wall, 2),
    }
    print(
        f"  crash={crash_rate:4.0%}  ok {ok}/{requests} "
        f"({row['availability']:7.2%})  p50 {row['p50_ms']:7.1f} ms  "
        f"p99 {row['p99_ms']:7.1f} ms  malformed {malformed}",
        flush=True,
    )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--out", default="BENCH_chaos.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=2012, help="fault-plan seed")
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-request client timeout (s)"
    )
    args = parser.parse_args()

    rates = _SMOKE_RATES if args.smoke else _FULL_RATES
    requests = 25 if args.smoke else 200
    concurrency = 4 if args.smoke else 8

    print("availability under worker-crash sweep:", flush=True)
    rows = [
        run_rate(
            rate,
            seed=args.seed,
            requests=requests,
            concurrency=concurrency,
            timeout=args.timeout,
        )
        for rate in rates
    ]

    by_rate = {row["crash_rate"]: row for row in rows}
    at_10 = by_rate.get(0.1)
    well_formed = all(row["malformed"] == 0 for row in rows)
    payload = {
        "benchmark": "chaos",
        "mode": "smoke" if args.smoke else "full",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "request": {
            "orders": _ORDERS,
            "use_store": False,
            "use_constructions": False,
            "concurrency": concurrency,
        },
        "server": {"n_workers": 2, "max_walk_retries": 4, "liveness_grace": 0.4},
        "sweep": rows,
        "availability_at_10pct": at_10["availability"] if at_10 else None,
        "all_requests_well_formed": well_formed,
        "targets": {"availability_at_10pct_min": 0.99, "malformed_max": 0},
    }
    if args.smoke:
        # Smoke is a machinery canary: with 25 requests per rate, one
        # unlucky request is 4% of the sample, so the bar is "nothing
        # wedged and most answers arrived", not the full 99% target.
        payload["pass"] = bool(
            well_formed
            and all(row["availability"] >= 0.9 for row in rows)
        )
    else:
        payload["pass"] = bool(
            well_formed
            and by_rate[0.0]["availability"] == 1.0
            and at_10 is not None
            and at_10["availability"] >= 0.99
        )
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    summary = ", ".join(
        f"{row['crash_rate']:.0%}->{row['availability']:.2%}" for row in rows
    )
    print(
        f"availability [{summary}], well-formed={well_formed} -> "
        f"{'PASS' if payload['pass'] else 'FAIL'} (written to {args.out})"
    )
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
