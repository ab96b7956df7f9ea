"""Per-layer spans recorded from outside the program.

The benchmark wraps each layer's public entry points with :class:`Tracer`
before the system under test starts its worker processes, so forked workers
inherit the wrappers.  A span is ``[name, start, end, parent, rid, job]``:
``parent`` is the index of the enclosing span on the same thread, ``rid``
the service request id (set on the outermost span of a request), ``job``
the identity of the scheduler job a span worked for.  All times are
``time.perf_counter()`` readings, which on Linux share one monotonic clock
across processes, so spans from workers, the server and the load generator
line up.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
:func:`load` and the helpers below turn a dump back into per-request
intervals for the harness.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``SolveResult.extra`` key carrying a walk's ``run_spec`` interval from a
#: worker process back to the process that collects the result.
_RUN_SPEC_KEY = "perfbench_run_spec"

NAME, START, END, PARENT, RID, JOB = range(6)


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Identity maps for linking spans to requests.  The objects are kept
        # alive so their ids are never reused within a run.
        self._keep: List[Any] = []
        self.job_rids: Dict[int, List[str]] = {}
        self.job_enqueued: Dict[int, float] = {}
        self.job_popped: Dict[int, float] = {}
        self.payload_job: Dict[int, int] = {}
        self.batch_items: Dict[int, int] = {}
        self.walks: List[Dict[str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self, name: str, start: float, end: float, parent: Optional[int], job: Optional[int]
    ) -> None:
        with self._lock:
            self.spans.append([name, start, end, parent, None, job])

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        job: Optional[int] = None,
    ) -> Tuple[int, Any]:
        """Run ``fn(*args, **kwargs)`` inside a span; return (index, result)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None, job])
        stack.append(index)
        try:
            return index, fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index][END] = time.perf_counter()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a *name* span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index, result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(index, args, result)
            return result

        setattr(owner, attr, wrapper)

    def keep(self, obj: Any) -> int:
        self._keep.append(obj)
        return id(obj)

    def record_walks(self, results: List[Any], job: int, parent: Optional[int]) -> None:
        """Turn worker-side ``run_spec`` intervals into ``run_spec``/``walk`` spans."""
        for result in results:
            interval = result.extra.get(_RUN_SPEC_KEY)
            if interval is None:
                continue
            start, end = interval
            self.add("run_spec", start, end, parent, job)
            # The walk's own clock starts after problem set-up and stops just
            # before run_spec returns, so its interval ends with run_spec's.
            self.add("walk", end - result.wall_time, end, parent, job)
            self.walks.append(
                {
                    "job": job,
                    "iterations": int(result.iterations),
                    "wall_time": float(result.wall_time),
                    "solved": bool(result.solved),
                    "run_spec": [start, end],
                }
            )

    @staticmethod
    def span_cost(rounds: int = 20000) -> float:
        """Seconds one wrapped call costs over a bare call, measured in this
        process on a no-op method."""

        class Probe:
            def noop(self) -> None:
                return None

        bare = Probe()
        start = time.perf_counter()
        for _ in range(rounds):
            bare.noop()
        untraced = time.perf_counter() - start
        Tracer().wrap(Probe, "noop", "probe", lambda index, args, result: None)
        start = time.perf_counter()
        for _ in range(rounds):
            bare.noop()
        traced = time.perf_counter() - start
        return max(0.0, traced - untraced) / rounds

    def dump(self, path: str) -> None:
        span_cost = self.span_cost()
        with self._lock:
            data = {
                "span_cost": span_cost,
                "spans": self.spans,
                "job_rids": {str(k): v for k, v in self.job_rids.items()},
                "job_enqueued": {str(k): v for k, v in self.job_enqueued.items()},
                "job_popped": {str(k): v for k, v in self.job_popped.items()},
                "batch_items": {str(k): v for k, v in self.batch_items.items()},
                "walks": self.walks,
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _timed_run_spec(original: Callable[..., Any]) -> Callable[..., Any]:
    """Worker-side ``run_spec`` wrapper: stamp the call's interval into the
    result, which carries it back across the process boundary."""

    @functools.wraps(original)
    def run_spec(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = original(*args, **kwargs)
        result.extra[_RUN_SPEC_KEY] = [start, time.perf_counter()]
        return result

    return run_spec


def install_paper(tracer: Tracer) -> None:
    """Wrap the multi-walk coordinator and the walks it forks."""
    from repro.parallel import multiwalk

    multiwalk.run_spec = _timed_run_spec(multiwalk.run_spec)

    def after_solve(index: int, args: tuple, result: Any) -> None:
        tracer.record_walks(result.results, job=index, parent=index)

    tracer.wrap(multiwalk.MultiWalkSolver, "solve", "multiwalk.solve", after_solve)


def install_service(tracer: Tracer) -> None:
    """Wrap the service layers: API, scheduler, pool, store, constructions."""
    from repro import problems
    from repro.service import api, scheduler, store, workers

    workers.run_spec = _timed_run_spec(workers.run_spec)

    def after_submit(index: int, args: tuple, request: Any) -> None:
        tracer.spans[index][RID] = request.request_id
        if request.ticket is not None:
            job = tracer.keep(request.ticket.job)
            tracer.job_rids.setdefault(job, []).append(request.request_id)

    def after_batch(index: int, args: tuple, outcomes: Any) -> None:
        rids = [getattr(o, "request_id", None) for o in outcomes]
        tracer.spans[index][RID] = [r for r in rids if r is not None]
        tracer.batch_items[index] = len(outcomes)
        for outcome in outcomes:
            ticket = getattr(outcome, "ticket", None)
            if ticket is not None:
                job = tracer.keep(ticket.job)
                tracer.job_rids.setdefault(job, []).append(outcome.request_id)

    def after_enqueue(index: int, args: tuple, ticket: Any) -> None:
        job = tracer.keep(ticket.job)
        tracer.spans[index][JOB] = job
        tracer.job_enqueued.setdefault(job, tracer.spans[index][START])
        tracer.payload_job[id(ticket.job.payload)] = job

    tracer.wrap(api.SolverService, "submit", "api.submit", after_submit)
    tracer.wrap(api.SolverService, "submit_batch", "api.submit_batch", after_batch)
    tracer.wrap(scheduler.RequestScheduler, "submit", "sched.submit", after_enqueue)
    tracer.wrap(store.SolutionStore, "get", "store.get")
    tracer.wrap(store.SolutionStore, "insert", "store.insert")
    tracer.wrap(problems.ProblemFamily, "try_construct", "construct")

    # next_job blocks while the queue is empty, so its span would measure
    # idleness; only the instant it hands a job over is recorded.
    original_next_job = scheduler.RequestScheduler.next_job

    @functools.wraps(original_next_job)
    def next_job(*args: Any, **kwargs: Any) -> Any:
        job = original_next_job(*args, **kwargs)
        if job is not None:
            tracer.job_popped[tracer.keep(job)] = time.perf_counter()
        return job

    scheduler.RequestScheduler.next_job = next_job

    original_pool_submit = workers.WorkerPool.submit

    @functools.wraps(original_pool_submit)
    def pool_submit(self: Any, spec: Dict[str, Any], **kwargs: Any) -> Any:
        job = tracer.payload_job.get(id(spec))
        on_done = kwargs["on_done"]

        def traced_on_done(handle: Any) -> None:
            index, _ = tracer.call("pool.on_done", on_done, (handle,), {}, job=job)
            tracer.record_walks(handle.results, job=job, parent=index)

        kwargs["on_done"] = traced_on_done
        _, handle = tracer.call(
            "pool.submit", original_pool_submit, (self, spec), kwargs, job=job
        )
        return handle

    workers.WorkerPool.submit = pool_submit


# ------------------------------------------------------------------ analysis
def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    job_rids = data["job_rids"]
    # A span works for its own request ids, its parent's, and its job's.
    # Parents are allocated before their children, so one pass suffices.
    rids: List[List[str]] = []
    for span in spans:
        own = span[RID]
        if own is not None:
            found = own if isinstance(own, list) else [own]
        else:
            found = list(rids[span[PARENT]]) if span[PARENT] is not None else []
            for rid in job_rids.get(str(span[JOB]), []):
                if rid not in found:
                    found.append(rid)
        rids.append(found)
    data["rids"] = rids
    return data


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        out.append(duration - covered(children.get(i, []), span[START], span[END]))
    return out


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def request_intervals(data: Dict[str, Any]) -> Dict[str, List[Tuple[float, float]]]:
    """Every recorded interval that worked for each request id, including
    the synthetic ``queued`` interval between enqueue and pop."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for span, rids in zip(data["spans"], data["rids"]):
        if span[END] is None:
            continue
        for rid in rids:
            out.setdefault(rid, []).append((span[START], span[END]))
    for job, start in data["job_enqueued"].items():
        end = data["job_popped"].get(job)
        if end is None:
            continue
        for rid in data["job_rids"].get(job, []):
            out.setdefault(rid, []).append((start, end))
    return out
