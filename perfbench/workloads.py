"""The benchmark's workloads: the paper's multi-walk solves and two traffic
mixes against the asyncio solver service.

Each ``run_*`` function drives one workload for about ``seconds`` and returns
an :class:`Outcome`.  Inputs come from the workload seed; the system under
test runs in its own processes (``sut_paper.py``, ``sut_server.py``) and only
receives the generated inputs.  See ``README.md`` for why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import harness
import tracing
from harness import BenchError, Child, mean, median, pct

HERE = Path(__file__).resolve().parent

#: How many times one run launches the system under test to time set-up.
SETUP_LAUNCHES = 5
#: Longest a single answer may take before the run is declared broken.
ANSWER_TIMEOUT_S = 120.0
#: Least time between two host-speed samples while serve-hot runs (each
#: sample pauses both connections).
PROBE_EVERY_S = 1.0
#: The same for serve-search, which samples only while no request is open,
#: so it can sample often enough that most requests have a sample right
#: before and right after them.
SEARCH_PROBE_EVERY_S = 0.2
#: The open loop samples only in a gap at least this long before its next
#: send, so the sample ends before the send is due.
PROBE_CLEAR_S = 0.08
#: How often a waiting open-loop sender looks for such a gap.
PROBE_POLL_S = 0.01

# paper-multiwalk: the paper's experiment, Costas 16 over a fixed list of
# walk seed roots.  Across seed lists the time-to-solution statistics differ
# by sampling luck, so the list is fixed and the workload seed only orders it.
# The order and the walks per solve are fixed in sut_paper.py.
PAPER_SLO_S = 10.0
#: Length of the seed list per second of run time.  The roots 0..11 take
#: 2.8 s on average (median 2 s), so a run of the list takes about
#: 1.1 x its nominal length.
PAPER_SOLVES_PER_S = 0.4

# serve-hot / serve-search: the service as `repro serve` runs it, with one
# pool worker (fixed in sut_server.py) and two client connections (the
# machine has two cores).
CONNECTIONS = 2
#: Single-request latency limit of a store or construction answer.
HOT_SLO_S = 0.010
#: The store's LRU capacity (ServiceConfig.store_cache) is 256 entries; the
#: hot key set is twice that, so the cache and SQLite reads both run.
HOT_KEYS = 512
HOT_ZIPF_S = 1.0
#: Every BATCH_EVERY-th request of a connection is a POST /solve-batch.
HOT_BATCH_EVERY = 10
HOT_BATCH_ITEMS = 8
#: Share of single requests sent with use_store=false, so the construction
#: tier answers them.  Their key is drawn uniformly from the constructible
#: keys, not from the seed's Zipf ranking: a Costas construction takes 0.1 to
#: 6 ms depending on the order, and these requests make up the p99, so a
#: seed that made a large Costas order hot would move the p99 by half.
HOT_CONSTRUCT_SHARE = 0.2

SEARCH_RATE = 6.0
#: Each send is due at its slot of the constant rate, moved by up to this
#: share of the gap either way.  Poisson arrivals made every latency
#: statistic depend on how many requests the seed put behind the longest
#: walks: across seeds the p50 moved by a fifth and the p90 by a third.
SEARCH_JITTER = 0.1
SEARCH_SLO_S = 1.0
#: Walk seeds of the pool are fixed for the same reason as the paper's list.
#: The root also decides how much the arrival seed matters: a long walk
#: queues the requests behind it, and how many arrive meanwhile depends on
#: the seed.  The root was chosen by replaying candidate roots' 180 walks
#: through one FIFO worker and two connections under 40 arrival seeds.  For
#: this root the quartile spread was 0.04 (p50), 0.07 (mean) and 0.07 (p90)
#: of the median.  Root 4 gave 0.09, 0.12 and 0.19.
SEARCH_SEED_ROOT = 28
#: The request list repeats SEARCH_MIX.  Costas 13 fills the latency
#: distribution from about its 40th to its 95th percentile, so the median
#: and p90 fall inside one instance's spread, not in a gap between
#: instances.  Queens 24 and Costas 11 and 12 make up the fast part.  The
#: heavy-tailed Costas 14 and all-interval 12 are one request in forty each.
#: The walks average about 28 ms per request, so at SEARCH_RATE they keep
#: the single pool worker about 17 % busy.
_C11, _C12, _C13, _C14 = (("costas", n) for n in (11, 12, 13, 14))
_Q24, _AI12 = ("queens", 24), ("all-interval", 12)
_CYCLE = (
    _C13, _C12, _C13, _C11, _C13, _Q24, _C13, _C12, _C13, _C13,
    _C12, _C13, _C11, _C13, _Q24, _C13, _C12, _C13, _C13,
)
SEARCH_MIX = _CYCLE + (_C14,) + _CYCLE + (_AI12,)
#: Least time between two consecutive sends of the open loop.
SEND_GAP_S = 0.002
#: A run whose open-loop sender fired later than this (p99) is invalid.
LAG_BOUND_MS = 20.0


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    attempted: int
    failed: int
    invalid: int
    #: End-to-end metrics under their BENCHMARK.json names.
    e2e: Dict[str, float]
    #: The same measurements under the workload's own names, with units.
    named: Dict[str, Tuple[float, str]]
    #: Reference seconds per measured second over the whole pass (see
    #: harness.HostSpeed); the end-to-end times are already scaled by it.
    host_factor: float
    #: Per-layer metrics (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable detail lines.
    notes: List[str] = field(default_factory=list)


# ==================================================================== paper
def run_paper(seed: int, seconds: int, trace_out: Optional[Path]) -> Outcome:
    work = harness.fresh_dir("paper")
    roots = list(range(max(2, round(seconds * PAPER_SOLVES_PER_S))))
    random.Random(seed).shuffle(roots)
    launches = 1 if trace_out else SETUP_LAUNCHES
    speed = harness.HostSpeed()
    launched: List[Tuple[float, float]] = []
    records: List[Dict[str, Any]] = []
    rss = 0.0
    for launch in range(launches):
        last = launch == launches - 1
        args = [
            str(HERE / "sut_paper.py"),
            "--probe-seed", str(seed),
            "--seeds", ",".join(map(str, roots)) if last else "",
        ]
        if trace_out and last:
            args += ["--trace-out", str(trace_out)]
        speed.sample()
        start = time.perf_counter()
        child = Child(args, work / "sut.log")
        try:
            probe = child.record(ANSWER_TIMEOUT_S)
            if harness.count_invalid([("costas", probe["probe"])]):
                raise BenchError("set-up probe returned an invalid Costas array")
            launched.append((start, time.perf_counter()))
            while last:
                record = child.record(ANSWER_TIMEOUT_S)
                if "speed" in record:
                    speed.samples.extend(record["speed"])
                elif "rss_mb" in record:
                    rss = record["rss_mb"]
                    break
                else:
                    records.append(record)
            child.proc.wait(timeout=ANSWER_TIMEOUT_S)
        finally:
            child.stop()
    factor = speed.factor()
    setups = [factor * (end - start) for start, end in launched]
    measured = [r["ttt"] for r in records]
    # Each solve is scaled by the samples taken around it (HostSpeed.MARGIN_S):
    # over ten minutes of solves this steadied the p50 and the p90 more than
    # the run's factor did (0.04 and 0.09 against 0.10 and 0.13).
    ttts = [r["ttt"] * speed.factor(r["start"], r["start"] + r["ttt"]) for r in records]
    invalid = harness.count_invalid([("costas", r["solution"]) for r in records])
    failed = invalid + sum(not r["solved"] for r in records)
    in_slo = sum(r["solved"] and t <= PAPER_SLO_S for r, t in zip(records, ttts)) - invalid
    e2e = {
        "setup_s": median(setups),
        "rss_mb": rss,
        "ok_ratio": (len(records) - failed) / len(records),
        "p50_ms": 1e3 * pct(ttts, 50),
        "mean_ms": 1e3 * mean(ttts),
        "tail_ms": 1e3 * pct(ttts, 90),
        "items_per_s": len(records) / sum(ttts),
        "slo_ratio": max(0, in_slo) / len(records),
    }
    named = {
        "ttt_p50_s": (pct(ttts, 50), "s"),
        "ttt_mean_s": (mean(ttts), "s"),
        "ttt_p90_s": (pct(ttts, 90), "s"),
        "measured_ttt_p50_s": (pct(measured, 50), "s"),
        "measured_ttt_mean_s": (mean(measured), "s"),
        "host_factor": (factor, "ratio"),
        "solves": (len(records), "count"),
        "fail_ratio": (failed / len(records), "ratio"),
        "setup_s": (e2e["setup_s"], "s"),
        "rss_mb": (rss, "MB"),
    }
    outcome = Outcome(len(records), failed, invalid, e2e, named, factor)
    outcome.notes = [
        f"solve seed_root={r['seed']} ttt={r['ttt']:.4f}s reference_ttt={t:.4f}s "
        f"winner_iterations={r['iterations']} winner_walk={r['walk_time']:.4f}s"
        for r, t in zip(records, ttts)
    ]
    if trace_out:
        data = tracing.load(str(trace_out))
        spans = data["spans"]
        # Solve spans come in call order: the probe first, then the list.
        listed = [i for i, s in enumerate(spans) if s[tracing.NAME] == "multiwalk.solve"][1:]
        walks = [w for w in data["walks"] if w["job"] in listed]
        winners: Dict[int, Dict[str, Any]] = {}
        for walk in walks:
            best = winners.get(walk["job"])
            if walk["solved"] and (best is None or walk["wall_time"] < best["wall_time"]):
                winners[walk["job"]] = walk
        overhead = [
            spans[i][tracing.END] - spans[i][tracing.START] - winners[i]["wall_time"]
            for i in listed
            if i in winners
        ]
        uncovered = []
        for record, i in zip(records, listed):
            intervals = [(spans[i][tracing.START], spans[i][tracing.END])]
            intervals += [tuple(w["run_spec"]) for w in walks if w["job"] == i]
            end = record["start"] + record["ttt"]
            uncovered.append(record["ttt"] - tracing.covered(intervals, record["start"], end))
        traced_spans = sum(
            i in listed or span[tracing.JOB] in listed for i, span in enumerate(spans)
        )
        outcome.layers = walk_layers(walks, list(winners.values()), measured)
        outcome.layers.update(
            {
                "multiwalk.overhead_ms": 1e3 * median(overhead),
                "trace.overhead_ms": 1e3 * data["span_cost"] * traced_spans / len(records),
                "trace.uncovered_p50_ms": 1e3 * median(uncovered),
            }
        )
    return outcome


def walk_layers(
    walks: List[Dict[str, Any]], winners: List[Dict[str, Any]], latencies: List[float]
) -> Dict[str, float]:
    """Metrics of the walk kernel and ``run_spec`` from traced walks."""
    wall = sum(w["wall_time"] for w in walks)
    return {
        "walk.iters_per_s": sum(w["iterations"] for w in walks) / wall if wall else 0.0,
        "walk.iterations_p50": median([w["iterations"] for w in winners]),
        "walk.share": sum(w["wall_time"] for w in winners) / sum(latencies)
        if latencies
        else 0.0,
        "run_spec.overhead_ms": 1e3
        * median([w["run_spec"][1] - w["run_spec"][0] - w["wall_time"] for w in walks]),
    }


# ================================================================== service
class Server:
    """One ``sut_server.py`` process and a way to talk to it."""

    def __init__(self, store: Path, seed_root: int, log: Path, trace_out: Optional[Path]):
        args = [
            str(HERE / "sut_server.py"),
            "--store", str(store),
            "--seed-root", str(seed_root),
        ]
        if trace_out:
            args += ["--trace-out", str(trace_out)]
        self.child = Child(args, log)
        try:
            hello = self.child.record(ANSWER_TIMEOUT_S)
        except BenchError:
            self.child.stop()
            raise
        self.port = hello["port"]
        self.pid = hello["pid"]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=ANSWER_TIMEOUT_S)

    def stop(self) -> None:
        self.child.stop()


def call(
    conn: http.client.HTTPConnection, method: str, path: str, body: Any = None
) -> Tuple[int, bytes]:
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


#: The set-up probe: a small fresh search, so the first correct answer has
#: crossed the HTTP front-end, the service, the pool and a walk.
PROBE = {"kind": "queens", "order": 8, "use_store": False, "use_constructions": False}


def launch(
    store: Path, seed_root: int, work: Path, trace_out: Optional[Path]
) -> Tuple[Server, Tuple[float, float], str]:
    """Start a server and time it from launch to its first correct answer.

    Returns the server, the set-up interval and the probe's request id.
    """
    start = time.perf_counter()
    server = Server(store, seed_root, work / "sut.log", trace_out)
    try:
        conn = server.connect()
        status, raw = call(conn, "POST", "/solve", {**PROBE, "wait": True})
        conn.close()
        answer = json.loads(raw)
        if status != 200 or harness.count_invalid([("queens", answer.get("solution"))]):
            raise BenchError(f"set-up probe failed: HTTP {status} {raw[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, (start, time.perf_counter()), answer["request_id"]


@dataclass
class ServedRun:
    """One driven server: the drive's result and what the harness measured."""

    result: Dict[str, Any]
    setup_s: float
    rss_mb: float
    stats: Dict[str, Any]
    probe_rid: str
    speed: harness.HostSpeed


def serve(
    seed_root: int,
    trace_out: Optional[Path],
    make_store: Callable[[Path], Path],
    drive: Callable[[Server, harness.HostSpeed], Dict[str, Any]],
) -> ServedRun:
    """Launch (several times when timing set-up), drive the last server,
    collect its counters and memory, and stop it.

    The host speed is sampled before every launch; *drive* samples it while
    it drives, at moments the server is idle.
    """
    work = harness.fresh_dir("service")
    launches = 1 if trace_out else SETUP_LAUNCHES
    speed = harness.HostSpeed()
    launched = []
    for index in range(launches):
        store = make_store(work / f"store{index}.db")
        speed.sample()
        server, span, probe_rid = launch(store, seed_root, work, trace_out)
        launched.append(span)
        if index < launches - 1:
            server.stop()
    try:
        result = drive(server, speed)
        conn = server.connect()
        status, raw = call(conn, "GET", "/stats")
        conn.close()
        if status != 200:
            raise BenchError(f"GET /stats answered {status}")
        rss = harness.peak_rss_mb(server.pid)
    finally:
        server.stop()
    setups = [speed.factor() * (end - start) for start, end in launched]
    return ServedRun(result, median(setups), rss, json.loads(raw), probe_rid, speed)


def answer_ok(status: int, payload: Optional[Dict[str, Any]]) -> bool:
    return (
        status == 200
        and payload is not None
        and payload.get("status") == "done"
        and bool(payload.get("solved"))
    )


def run_clients(count: int, body: Callable[[int], None]) -> None:
    """Run *body(index)* on *count* threads and re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            body(index)
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def service_layers(
    data: Dict[str, Any],
    served: ServedRun,
    singles: List[Dict[str, Any]],
    latencies: List[float],
    answers: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced service pass over *answers* answers.

    Spans and walks that served only the set-up probe are left out, so a
    layer the workload itself does not use reads 0.
    """
    probe = [served.probe_rid]
    spans = data["spans"]
    keep = [rids != probe for rids in data["rids"]]
    selfs = tracing.self_times(spans)
    probe_jobs = {job for job, rids in data["job_rids"].items() if rids == probe}

    def durations(name: str) -> List[float]:
        return [
            s[tracing.END] - s[tracing.START]
            for s, kept in zip(spans, keep)
            if kept and s[tracing.NAME] == name
        ]

    by_job: Dict[Any, Dict[str, Any]] = {}
    for span in spans:
        if span[tracing.NAME] in ("pool.submit", "pool.on_done"):
            by_job.setdefault(span[tracing.JOB], {})[span[tracing.NAME]] = span[tracing.START]
    walks = [w for w in data["walks"] if str(w["job"]) not in probe_jobs]
    winners = [w for w in walks if w["solved"]]
    claim, roundtrip = [], []
    for walk in winners:
        stamps = by_job.get(walk["job"], {})
        if "pool.submit" in stamps and "pool.on_done" in stamps:
            claim.append(walk["run_spec"][0] - stamps["pool.submit"])
            roundtrip.append(stamps["pool.on_done"] - stamps["pool.submit"] - walk["wall_time"])
    waits = [
        data["job_popped"][job] - start
        for job, start in data["job_enqueued"].items()
        if job in data["job_popped"] and job not in probe_jobs
    ]
    sched = served.stats["scheduler"]
    store = served.stats["store"]
    reads = store["hits"] + store["misses"]
    per_item = [selfs[int(i)] / n for i, n in data["batch_items"].items()]
    submit_self = [
        selfs[i]
        for i, (s, kept) in enumerate(zip(spans, keep))
        if kept and s[tracing.NAME] == "api.submit"
    ]
    intervals = tracing.request_intervals(data)
    uncovered = [
        r["done"] - r["sent"] - tracing.covered(intervals.get(r["rid"], []), r["sent"], r["done"])
        for r in singles
    ]
    overhead = [r["done"] - r["sent"] - r["elapsed"] for r in singles]
    layers = walk_layers(walks, winners, latencies)
    layers.update(
        {
            "pool.claim_wait_ms": 1e3 * median(claim),
            "pool.roundtrip_ms": 1e3 * median(roundtrip),
            "pool.requeued": float(served.stats["pool"]["walks_requeued"]),
            "sched.queue_wait_p50_ms": 1e3 * median(waits),
            "sched.queue_wait_p95_ms": 1e3 * pct(waits, 95),
            "sched.coalesced_ratio": sched["coalesced"] / sched["submitted"]
            if sched["submitted"]
            else 0.0,
            "sched.refused": float(sched["rejected"] + sched["shed"] + sched["quota_rejected"]),
            "store.get_us": 1e6 * median(durations("store.get")),
            "store.cache_hit_ratio": store["cache_hits"] / reads if reads else 0.0,
            "store.insert_ms": 1e3 * median(durations("store.insert")),
            "construct.us": 1e6 * median(durations("construct")),
            "api.submit_us": 1e6 * median(submit_self),
            "api.batch_item_us": 1e6 * median(per_item),
            "api.service_ms": 1e3 * median([r["elapsed"] for r in singles]),
            "http.overhead_p50_ms": 1e3 * median(overhead),
            "http.overhead_p99_ms": 1e3 * pct(overhead, 99),
            "trace.overhead_ms": 1e3 * data["span_cost"] * sum(keep) / answers,
            "trace.uncovered_p50_ms": 1e3 * median(uncovered),
        }
    )
    return layers


# ================================================================ serve-hot
def magic_square(side: int) -> List[int]:
    """A magic square of *side* (odd or doubly even), flattened, values from 0."""
    grid = [[-1] * side for _ in range(side)]
    if side % 2:
        # Siamese method: step up-right, drop down when the cell is taken.
        row, col = 0, side // 2
        for value in range(side * side):
            grid[row][col] = value
            up, right = (row - 1) % side, (col + 1) % side
            if grid[up][right] >= 0:
                up, right = (row + 1) % side, col
            row, col = up, right
    else:
        # Doubly even: complement the cells on the 4x4 blocks' diagonals.
        for row in range(side):
            for col in range(side):
                value = row * side + col
                on_diagonal = row % 4 == col % 4 or (row % 4) + (col % 4) == 3
                grid[row][col] = side * side - 1 - value if on_diagonal else value
    return [v for line in grid for v in line]


def hot_keys() -> List[Tuple[str, int]]:
    """The fixed key universe: every family, HOT_KEYS keys in all."""
    from repro.costas.constructions import available_constructions

    keys = [("costas", n) for n in range(4, 121) if available_constructions(n)]
    keys += [("magic-square", n) for n in range(3, 21) if n % 2 or n % 4 == 0]
    rest = HOT_KEYS - len(keys)
    keys += [("queens", n) for n in range(8, 8 + (rest + 1) // 2)]
    keys += [("all-interval", n) for n in range(8, 8 + rest // 2)]
    return keys


def populate(path: Path, keys: List[Tuple[str, int]]) -> None:
    """Store one solution per key, plus a symmetry variant of every fourth
    key (a duplicate of its class, which the store must recognise)."""
    import numpy as np

    from repro.problems import get_family
    from repro.service.store import SolutionStore

    with SolutionStore(str(path)) as store:
        for index, (kind, order) in enumerate(keys):
            family = get_family(kind)
            if kind == "magic-square":
                solution = np.asarray(magic_square(order), dtype=np.int64)
            else:
                solution = family.try_construct(order)
            store.insert(kind, solution, source="construction")
            if index % 4 == 0:
                store.insert(kind, family.symmetry.variant(solution, 1), source="search")


def run_hot(seed: int, seconds: int, trace_out: Optional[Path]) -> Outcome:
    keys = hot_keys()
    constructible = [key for key in keys if key[0] != "magic-square"]
    seeded = harness.fresh_dir("seed-store") / "hot.db"
    populate(seeded, keys)
    ranked = list(keys)
    random.Random(seed).shuffle(ranked)
    cumulative = []
    total = 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** HOT_ZIPF_S
        cumulative.append(total)

    def make_store(path: Path) -> Path:
        shutil.copyfile(seeded, path)
        return path

    def drive(server: Server, speed: harness.HostSpeed) -> Dict[str, Any]:
        singles: List[Dict[str, Any]] = []
        batches: List[Dict[str, Any]] = []
        paused: List[float] = []
        pace = {"next": 0.0}

        def calibrate() -> None:
            start = time.perf_counter()
            speed.sample()
            pace["next"] = time.perf_counter() + PROBE_EVERY_S
            paused.append(pace["next"] - PROBE_EVERY_S - start)

        # Both connections stop at the barrier for each host-speed sample,
        # so the server is idle while the calibration loop runs.
        barrier = threading.Barrier(CONNECTIONS, action=calibrate)
        calibrate()
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = random.Random(seed * 1000 + index)
            conn = server.connect()
            try:
                closed_loop(conn, rng)
            except threading.BrokenBarrierError:
                pass  # the other connection reached the deadline
            finally:
                barrier.abort()
                conn.close()

        def closed_loop(conn: http.client.HTTPConnection, rng: random.Random) -> None:
            def draw() -> Tuple[str, int]:
                return ranked[bisect.bisect(cumulative, rng.random() * total)]

            sent = 0
            while time.perf_counter() < deadline:
                if time.perf_counter() >= pace["next"]:
                    barrier.wait(ANSWER_TIMEOUT_S)
                    continue
                sent += 1
                if sent % HOT_BATCH_EVERY == 0:
                    items = [dict(zip(("kind", "order"), draw())) for _ in range(HOT_BATCH_ITEMS)]
                    start = time.perf_counter()
                    status, raw = call(conn, "POST", "/solve-batch", {"items": items, "wait": True})
                    batches.append(
                        {"items": items, "status": status, "raw": raw,
                         "sent": start, "done": time.perf_counter()}
                    )
                    continue
                if rng.random() < HOT_CONSTRUCT_SHARE:
                    kind, order = rng.choice(constructible)
                    body = {"kind": kind, "order": order, "use_store": False}
                else:
                    kind, order = draw()
                    body = {"kind": kind, "order": order}
                body["wait"] = True
                start = time.perf_counter()
                status, raw = call(conn, "POST", "/solve", body)
                singles.append(
                    {"kind": kind, "status": status, "raw": raw,
                     "sent": start, "done": time.perf_counter()}
                )

        start = time.perf_counter()
        run_clients(CONNECTIONS, client)
        elapsed = time.perf_counter() - start
        speed.sample()
        # The time paused for samples is not serving time; the first sample
        # was taken before the clock started.
        return {"singles": singles, "batches": batches, "active": elapsed - sum(paused[1:])}

    served = serve(seed, trace_out, make_store, drive)
    result, setup, rss, speed = served.result, served.setup_s, served.rss_mb, served.speed
    singles, answers, failed = [], [], 0
    for record in result["singles"]:
        payload = json.loads(record.pop("raw")) if record["status"] == 200 else None
        ok = answer_ok(record["status"], payload)
        failed += not ok
        if ok:
            answers.append((record["kind"], payload["solution"]))
            record.update(elapsed=payload["elapsed"], rid=payload["request_id"])
        singles.append(record)
    items = 0
    for batch in result["batches"]:
        payload = json.loads(batch["raw"]) if batch["status"] == 200 else {}
        results = payload.get("results", [])
        items += len(batch["items"])
        for item, answer in zip(batch["items"], results):
            ok = answer_ok(200, answer)
            failed += not ok
            if ok:
                answers.append((item["kind"], answer["solution"]))
        failed += len(batch["items"]) - len(results)
    invalid = harness.count_invalid(answers)
    failed += invalid
    attempted = len(singles) + items
    measured = [r["done"] - r["sent"] for r in singles]
    factor = speed.factor()
    latencies = [factor * t for t in measured]
    good = [r for r in singles if "elapsed" in r]
    in_slo = sum("elapsed" in r and t <= HOT_SLO_S for r, t in zip(singles, latencies))
    e2e = {
        "setup_s": setup,
        "rss_mb": rss,
        "ok_ratio": (attempted - failed) / attempted,
        "p50_ms": 1e3 * pct(latencies, 50),
        "mean_ms": 1e3 * mean(latencies),
        "tail_ms": 1e3 * pct(latencies, 99),
        "items_per_s": (attempted - failed) / (result["active"] * factor),
        "slo_ratio": max(0, in_slo - invalid) / len(singles),
    }
    named = {
        "hot_p50_ms": (e2e["p50_ms"], "ms"),
        "hot_p99_ms": (e2e["tail_ms"], "ms"),
        "hot_items_per_s": (e2e["items_per_s"], "1/s"),
        "measured_hot_p50_ms": (1e3 * pct(measured, 50), "ms"),
        "measured_hot_p99_ms": (1e3 * pct(measured, 99), "ms"),
        "host_factor": (factor, "ratio"),
        "singles": (len(singles), "count"),
        "batch_items": (items, "count"),
        "fail_ratio": (failed / attempted, "ratio"),
        "setup_s": (setup, "s"),
        "rss_mb": (rss, "MB"),
    }
    outcome = Outcome(attempted, failed, invalid, e2e, named, factor)
    if trace_out:
        data = tracing.load(str(trace_out))
        outcome.layers = service_layers(data, served, good, measured, attempted)
    return outcome


# ============================================================= serve-search
def run_search(seed: int, seconds: int, trace_out: Optional[Path]) -> Outcome:
    count = max(1, round(SEARCH_RATE * seconds))
    rng = random.Random(seed)
    # A constant rate, each send moved by a seed-drawn jitter (see
    # SEARCH_JITTER); the order of sends stays the list order.
    gap = 1.0 / SEARCH_RATE
    due = [gap * (k + rng.uniform(-SEARCH_JITTER, SEARCH_JITTER)) + gap for k in range(count)]
    bodies = []
    for index in range(count):
        kind, order = SEARCH_MIX[index % len(SEARCH_MIX)]
        bodies.append(
            {
                "kind": kind,
                "order": order,
                "use_store": False,
                "use_constructions": False,
                "wait": True,
                # A distinct time budget gives every request its own
                # coalescing key without changing what it solves.
                "max_time": 60.0 + index / 1000.0,
            }
        )

    def drive(server: Server, speed: harness.HostSpeed) -> Dict[str, Any]:
        records: List[Dict[str, Any]] = [{} for _ in range(count)]
        cursor = iter(range(count))
        lock = threading.Lock()
        # Sends happen in schedule order and SEND_GAP_S apart, so the server
        # admits request k before k + 1 and the pool pairs every request
        # with the same walk seed in every run.
        turn = threading.Condition()
        last = {"index": -1, "sent": 0.0}
        flight = {"open": 0, "next_sample": 0.0}
        speed.sample()
        origin = time.perf_counter() + 0.05

        def client(index: int) -> None:
            conn = server.connect()
            free = origin
            while True:
                with lock:
                    k = next(cursor, None)
                if k is None:
                    break
                scheduled = origin + due[k]
                with turn:
                    if not turn.wait_for(lambda: last["index"] == k - 1, ANSWER_TIMEOUT_S):
                        raise BenchError(f"request {k - 1} was never sent")
                    ready = max(scheduled, free, last["sent"] + SEND_GAP_S)
                    while True:
                        now = time.perf_counter()
                        if now >= ready:
                            break
                        # Sample the host speed in a gap with no request
                        # open that ends well after the sample would.
                        if (
                            flight["open"] == 0
                            and ready - now > PROBE_CLEAR_S
                            and now >= flight["next_sample"]
                        ):
                            speed.sample()
                            flight["next_sample"] = time.perf_counter() + SEARCH_PROBE_EVERY_S
                            continue
                        time.sleep(min(ready - now, PROBE_POLL_S))
                    sent = time.perf_counter()
                    last.update(index=k, sent=sent)
                    with lock:
                        flight["open"] += 1
                    turn.notify_all()
                status, raw = call(conn, "POST", "/solve", bodies[k])
                with lock:
                    flight["open"] -= 1
                records[k] = {
                    "kind": bodies[k]["kind"],
                    "order": bodies[k]["order"],
                    "scheduled": scheduled,
                    "ready": ready,
                    "sent": sent,
                    "done": time.perf_counter(),
                    "status": status,
                    "raw": raw,
                }
                free = records[k]["done"]
            conn.close()

        run_clients(CONNECTIONS, client)
        speed.sample()
        return {"records": records, "origin": origin}

    served = serve(SEARCH_SEED_ROOT, trace_out, lambda p: p, drive)
    result, setup, rss, speed = served.result, served.setup_s, served.rss_mb, served.speed
    records = result["records"]
    answers, failed = [], 0
    for record in records:
        payload = json.loads(record.pop("raw")) if record["status"] == 200 else None
        ok = answer_ok(record["status"], payload)
        failed += not ok
        if ok:
            answers.append((record["kind"], payload["solution"]))
            record.update(
                elapsed=payload["elapsed"],
                rid=payload["request_id"],
                iterations=payload["detail"]["iterations"],
            )
    invalid = harness.count_invalid(answers)
    failed += invalid
    measured = [r["done"] - r["scheduled"] for r in records]
    factor = speed.factor()
    latencies = [
        (r["done"] - r["scheduled"]) * speed.factor(r["scheduled"], r["done"]) for r in records
    ]
    # Lag is how late the sender fired once a connection was free and the
    # previous request was out.  Waiting for a free connection is the
    # server's slowness and is already charged to the latency, which runs
    # from the scheduled send.
    lag_p99_ms = 1e3 * pct([r["sent"] - r["ready"] for r in records], 99)
    conn_wait_p99_ms = 1e3 * pct([r["ready"] - r["scheduled"] for r in records], 99)
    if lag_p99_ms > LAG_BOUND_MS:
        raise BenchError(
            f"open-loop sender fired {lag_p99_ms:.1f} ms late (p99), over the "
            f"{LAG_BOUND_MS:.0f} ms bound: the run is invalid"
        )
    in_slo = sum("elapsed" in r and t <= SEARCH_SLO_S for r, t in zip(records, latencies))
    # The arrival schedule sets the answer rate, so it is not scaled.
    span = max(r["done"] for r in records) - result["origin"]
    e2e = {
        "setup_s": setup,
        "rss_mb": rss,
        "ok_ratio": (count - failed) / count,
        "p50_ms": 1e3 * pct(latencies, 50),
        "mean_ms": 1e3 * mean(latencies),
        "tail_ms": 1e3 * pct(latencies, 90),
        "items_per_s": (count - failed) / span,
        "slo_ratio": max(0, in_slo - invalid) / count,
    }
    named = {
        "search_p50_ms": (e2e["p50_ms"], "ms"),
        "search_p90_ms": (e2e["tail_ms"], "ms"),
        "search_p95_ms": (1e3 * pct(latencies, 95), "ms"),
        "search_slo_ratio": (e2e["slo_ratio"], "ratio"),
        "measured_search_p50_ms": (1e3 * pct(measured, 50), "ms"),
        "measured_search_p90_ms": (1e3 * pct(measured, 90), "ms"),
        "host_factor": (factor, "ratio"),
        "host_samples": (len(speed.samples), "count"),
        "requests": (count, "count"),
        "loadgen_lag_p99_ms": (lag_p99_ms, "ms"),
        "connection_wait_p99_ms": (conn_wait_p99_ms, "ms"),
        "fail_ratio": (failed / count, "ratio"),
        "setup_s": (setup, "s"),
        "rss_mb": (rss, "MB"),
    }
    outcome = Outcome(count, failed, invalid, e2e, named, factor)
    for kind, order in sorted(set(SEARCH_MIX)):
        mine = [(r, t) for r, t in zip(records, latencies) if (r["kind"], r["order"]) == (kind, order)]
        if not mine:
            continue
        outcome.notes.append(
            f"{kind} {order}: requests={len(mine)} "
            f"p50={1e3 * median([t for _, t in mine]):.1f}ms "
            f"iterations={sum(r.get('iterations', 0) for r, _ in mine)}"
        )
    if trace_out:
        data = tracing.load(str(trace_out))
        good = [r for r in records if "elapsed" in r]
        outcome.layers = service_layers(data, served, good, measured, count)
        outcome.layers["loadgen.lag_p99_ms"] = lag_p99_ms
    return outcome


WORKLOADS = {
    "paper-multiwalk": run_paper,
    "serve-hot": run_hot,
    "serve-search": run_search,
}
