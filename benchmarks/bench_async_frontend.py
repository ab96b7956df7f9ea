"""Concurrency benchmark for the asyncio HTTP front-end.

Two measurements, both against a real server running in a **separate
process** (so the client's event loop never shares a GIL with the server
under test):

* **Concurrency ladder** — C clients connect *simultaneously* and each holds
  a ``wait=true`` ``POST /solve`` open until the (store-warm) answer
  arrives.  A level is *sustained* when every client gets a correct answer
  within the deadline.  The acceptance target is 1000 sustained clients:
  ten times the ceiling of a thread-per-connection server, whose ladder the
  committed ``BENCH_async.json`` keeps for comparison.
* **Batch amortisation** — 32 store-warm instances submitted as 32
  sequential ``POST /solve`` calls on one keep-alive connection (the
  *strongest* sequential rival — no reconnect cost) versus one
  ``POST /solve-batch`` body.  Target: the batch completes in ≤1/5 the
  sequential wall time.

Results go to ``BENCH_async.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_async_frontend.py
    PYTHONPATH=src python benchmarks/bench_async_frontend.py --smoke --out smoke.json
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Body of the server subprocess: start the front-end on an ephemeral port,
#: print the port, serve until killed.
_SERVER_MAIN = """
import sys
from repro.service.api import ServiceConfig
from repro.service.http_async import AsyncServiceHTTPServer

config = ServiceConfig(store_path=sys.argv[1], n_workers=1, default_max_time=120.0)
server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config, verbose=False)
print(server.port, flush=True)
server.serve_forever()
"""

#: The store-warm instance every ladder client requests.
_LADDER_ORDER = 14

#: Simultaneous clients the full ladder must sustain.
_TARGET_CLIENTS = 1000

_FULL_LEVELS = [25, 50, 100, 200, 400, 800, _TARGET_CLIENTS, 1600]
_SMOKE_LEVELS = [10, 20, 40, 80, 160]

#: Orders cycled through the 32 batch items (all constructible or store-warm
#: after the warmup pass, so both sides measure pure serving overhead).
_BATCH_ORDERS = [12, 13, 14, 16, 17, 18, 27, 29]


class FrontendUnderTest:
    """One server subprocess plus the client plumbing to talk to it."""

    def __init__(self) -> None:
        self._db = tempfile.mktemp(prefix="bench-async-", suffix=".db")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SERVER_MAIN, self._db],
            stdout=subprocess.PIPE,
            env=env,
        )
        assert self._proc.stdout is not None
        self.port = int(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self._proc.kill()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self._db + suffix)
            except OSError:
                pass

    # ------------------------------------------------------------ sync client
    def post(self, path: str, body: dict, timeout: float = 60.0) -> Tuple[int, dict]:
        data = json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=data,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())

    def warm(self, orders: List[int]) -> None:
        for order in orders:
            status, payload = self.post("/solve", {"order": order, "wait": True})
            assert status == 200 and payload["solved"], (order, payload)


# --------------------------------------------------------------- ladder phase
async def _one_client(port: int, payload: bytes, deadline: float) -> Tuple[float, bool]:
    """Connect, POST, read the full response; (latency, correct?)."""
    start = time.perf_counter()
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), deadline
        )
        writer.write(payload)
        await asyncio.wait_for(writer.drain(), deadline)
        data = await asyncio.wait_for(reader.read(), deadline)
        writer.close()
        ok = b" 200 " in data.split(b"\r\n", 1)[0] and b'"solved": true' in data
        return time.perf_counter() - start, ok
    except Exception:
        return time.perf_counter() - start, False


async def _run_level(port: int, clients: int, deadline: float) -> Dict[str, object]:
    body = json.dumps({"order": _LADDER_ORDER, "wait": True}).encode()
    payload = (
        f"POST /solve HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + body
    results = await asyncio.gather(
        *[_one_client(port, payload, deadline) for _ in range(clients)]
    )
    latencies = sorted(latency for latency, _ in results)
    ok = sum(1 for _, correct in results if correct)
    return {
        "clients": clients,
        "ok": ok,
        "errors": clients - ok,
        "p50_ms": round(1000 * latencies[len(latencies) // 2], 2),
        "p95_ms": round(1000 * latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))], 2),
        "p99_ms": round(1000 * latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))], 2),
        "max_ms": round(1000 * latencies[-1], 2),
        "sustained": ok == clients,
    }


def run_ladder(
    frontend: FrontendUnderTest, levels: List[int], deadline: float
) -> Dict[str, object]:
    """Climb the concurrency ladder until the first unsustained level."""
    frontend.warm([_LADDER_ORDER])
    rows: List[Dict[str, object]] = []
    max_sustained = 0
    p50_at_max: Optional[float] = None
    p99_at_max: Optional[float] = None
    for clients in levels:
        row = asyncio.run(_run_level(frontend.port, clients, deadline))
        rows.append(row)
        print(
            f"  C={clients:5d}  ok {row['ok']}/{clients}  "
            f"p50 {row['p50_ms']:8.1f} ms  p99 {row['p99_ms']:8.1f} ms",
            flush=True,
        )
        if row["sustained"]:
            max_sustained = clients
            p50_at_max = row["p50_ms"]
            p99_at_max = row["p99_ms"]
        else:
            break
    return {
        "levels": rows,
        "max_sustained_clients": max_sustained,
        "p50_at_max_ms": p50_at_max,
        "p99_at_max_ms": p99_at_max,
    }


# ---------------------------------------------------------------- batch phase
def run_batch(
    frontend: FrontendUnderTest, n_items: int, rounds: int
) -> Dict[str, object]:
    """Sequential keep-alive /solve calls vs one /solve-batch, best of rounds."""
    items = [
        {"order": _BATCH_ORDERS[i % len(_BATCH_ORDERS)]} for i in range(n_items)
    ]
    frontend.warm([item["order"] for item in items])
    conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=60)

    def post(path: str, body: dict) -> Tuple[int, dict]:
        conn.request("POST", path, json.dumps(body), {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    sequential: List[float] = []
    batched: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for item in items:
            status, payload = post("/solve", {**item, "wait": True})
            assert status == 200 and payload["solved"], payload
        sequential.append(time.perf_counter() - start)

        start = time.perf_counter()
        status, payload = post("/solve-batch", {"items": items, "wait": True})
        batched.append(time.perf_counter() - start)
        assert status == 200, payload
        assert all(r["status"] == "done" and r["solved"] for r in payload["results"])
    conn.close()
    t_seq = statistics.median(sequential)
    t_batch = statistics.median(batched)
    print(
        f"  batch     N={n_items}  sequential {t_seq * 1000:7.1f} ms  "
        f"batch {t_batch * 1000:7.1f} ms  amortisation {t_seq / t_batch:4.1f}x",
        flush=True,
    )
    return {
        "items": n_items,
        "rounds": rounds,
        "sequential_ms": round(1000 * t_seq, 2),
        "batch_ms": round(1000 * t_batch, 2),
        "amortisation": round(t_seq / t_batch, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--out", default="BENCH_async.json", help="output JSON path")
    parser.add_argument(
        "--deadline", type=float, default=10.0, help="per-client deadline (s)"
    )
    args = parser.parse_args()

    levels = _SMOKE_LEVELS if args.smoke else _FULL_LEVELS
    n_items = 16 if args.smoke else 32
    rounds = 3 if args.smoke else 5

    print("concurrency ladder:", flush=True)
    frontend = FrontendUnderTest()
    try:
        ladder = run_ladder(frontend, levels, args.deadline)
    finally:
        frontend.close()

    print("batch amortisation:", flush=True)
    frontend = FrontendUnderTest()
    try:
        batch = run_batch(frontend, n_items, rounds)
    finally:
        frontend.close()

    payload = {
        "benchmark": "async_frontend",
        "mode": "smoke" if args.smoke else "full",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "ladder": {
            "request": {"order": _LADDER_ORDER, "wait": True},
            "deadline_s": args.deadline,
            "async": ladder,
        },
        "batch": batch,
        "targets": {
            "sustained_clients_min": _TARGET_CLIENTS,
            "batch_amortisation_min": 5.0,
        },
    }
    if args.smoke:
        # Smoke is a machinery canary, not the acceptance measurement: the
        # small ladder must be clean and the batch path must amortise at all.
        payload["pass"] = bool(
            all(row["sustained"] for row in ladder["levels"])
            and batch["amortisation"] >= 2.0
        )
    else:
        payload["pass"] = bool(
            ladder["max_sustained_clients"] >= _TARGET_CLIENTS
            and batch["amortisation"] >= 5.0
        )
    out_path = Path(args.out)
    # Merge-preserve: keep top-level keys a different tool (or an earlier
    # fuller run) left in the file and we do not produce ourselves, so
    # repeated smoke runs never clobber unrelated results.
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            for key, value in existing.items():
                if key not in payload:
                    payload[key] = value
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"sustained {ladder['max_sustained_clients']} clients "
        f"(p50 {ladder['p50_at_max_ms']} ms, p99 {ladder['p99_at_max_ms']} ms), "
        f"batch amortisation {batch['amortisation']}x -> "
        f"{'PASS' if payload['pass'] else 'FAIL'} (written to {args.out})"
    )
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
