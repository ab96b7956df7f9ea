"""Deterministic fault injection and failure policy for the serving stack.

The source paper's parallelism model survives failure by construction: every
walk is independent, so a crashed machine costs one walk, not the experiment.
The serving stack (store -> scheduler -> pool -> HTTP) has to earn the same
property, and this module supplies both halves of that work:

* **Fault injection** — a seedable :class:`FaultPlan` names the places where
  the stack is allowed to break (:data:`FAULT_POINTS`: a worker crashing or
  hanging mid-walk, a store read raising ``disk I/O error``, a store write
  raising ``database is locked``, a deliberately slow solve, an HTTP
  connection dropped instead of answered) and the probability of each.  A
  :class:`FaultInjector` turns the plan into deterministic Bernoulli draws,
  so a chaos test that fails replays exactly.  Plans cross the process
  boundary through the ``REPRO_FAULTS`` environment variable
  (:meth:`FaultPlan.install_env` / :meth:`FaultPlan.from_env`), which is how
  the worker pool's children inherit the chaos the parent was configured
  with.

* **Failure policy** — the knobs every layer uses to degrade instead of
  dying: :class:`RetryPolicy` (bounded exponential backoff with
  deterministic-seedable jitter, shared by locked-store writes, dead-worker
  requeues and the CLI client), :class:`CircuitBreaker` (per-key consecutive
  failure counting with a cooldown and a half-open probe, keyed by
  ``(kind, n)`` in the service), and the exception vocabulary the HTTP layer
  maps onto status codes: :class:`CircuitOpenError` and
  :class:`ServiceDegradedError` (503 + ``Retry-After``),
  :class:`DeadlineExceededError` (504).

Nothing here imports the rest of the service: the store, scheduler, workers
and facade all import *this* module, never the other way around.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.exceptions import SolverError

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV_VAR",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "ServiceDegradedError",
]

#: Environment variable carrying a JSON-encoded :class:`FaultPlan` so child
#: processes (pool workers, subprocess servers) inherit the active chaos.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The named injection points.  Every rate key of a :class:`FaultPlan` must be
#: one of these; the component that owns each point documents where it fires.
FAULT_POINTS = (
    "worker.crash",        # child hard-exits right after receiving a walk
    "worker.hang",         # child sleeps `hang_seconds` instead of solving
    "worker.slow",         # child sleeps `slow_seconds` before solving
    "store.read.error",    # a store SELECT raises "disk I/O error"
    "store.write.locked",  # a store INSERT raises "database is locked"
    "http.drop",           # the front-end closes the socket instead of replying
)


# --------------------------------------------------------------------- errors
class CircuitOpenError(SolverError):
    """The per-``(kind, n)`` breaker is open: fail fast, retry later (503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class ServiceDegradedError(SolverError):
    """The service is in degraded mode: immediate tiers only, no fresh solves.

    ``lane`` scopes a *partial* refusal: with QoS lanes enabled, reduced
    capacity (some workers down) refuses only the named lane — background
    first — while full degradation refuses every lane (``lane is None``).
    """

    def __init__(
        self,
        message: str,
        retry_after: float = 5.0,
        lane: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))
        self.lane = lane


class DeadlineExceededError(SolverError):
    """A request's deadline passed before (or while) its solve could run (504)."""


# ------------------------------------------------------------------ fault plan
@dataclass(frozen=True)
class FaultPlan:
    """Seedable specification of which faults fire, and how often.

    ``rates`` maps injection-point names (:data:`FAULT_POINTS`) to
    probabilities in ``[0, 1]``; points not named never fire.  The plan is
    pure data — picklable, JSON-round-trippable, comparable — so one plan
    can describe the chaos of a whole multi-process deployment and every
    process derives its own deterministic draw streams from it
    (:class:`FaultInjector`).
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    #: How long an injected hang sleeps (the pool's hung-walk watchdog is
    #: expected to kill the worker long before this elapses).
    hang_seconds: float = 30.0
    #: Injected latency of a ``worker.slow`` fault.
    slow_seconds: float = 0.25

    def __post_init__(self) -> None:
        clean: Dict[str, float] = {}
        for point, rate in dict(self.rates).items():
            if point not in FAULT_POINTS:
                raise ValueError(
                    f"unknown fault point {point!r}; known: {', '.join(FAULT_POINTS)}"
                )
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate for {point!r} must be in [0, 1], got {rate}")
            if rate > 0.0:
                clean[point] = rate
        object.__setattr__(self, "rates", clean)

    @property
    def enabled(self) -> bool:
        """Whether any point can ever fire."""
        return bool(self.rates)

    def rate(self, point: str) -> float:
        return self.rates.get(point, 0.0)

    # ------------------------------------------------------------ serialisation
    def as_dict(self) -> Dict[str, Any]:
        return {
            "rates": dict(self.rates),
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            rates=dict(data.get("rates", {})),
            seed=int(data.get("seed", 0)),
            hang_seconds=float(data.get("hang_seconds", 30.0)),
            slow_seconds=float(data.get("slow_seconds", 0.25)),
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a fault plan must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI shorthand: JSON, or ``point=rate[,point=rate...]``
        with an optional ``seed=N`` entry (``worker.crash=0.1,seed=7``)."""
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            return cls.from_json(text)
        rates: Dict[str, float] = {}
        seed = 0
        for chunk in text.split(","):
            name, sep, value = chunk.strip().partition("=")
            if not sep:
                raise ValueError(f"malformed fault spec {chunk!r}; expected point=rate")
            if name == "seed":
                seed = int(value)
            else:
                rates[name] = float(value)
        return cls(rates=rates, seed=seed)

    # ------------------------------------------------------------------ env hook
    def install_env(self, environ: Optional[Mapping[str, str]] = None) -> None:
        """Publish this plan in ``REPRO_FAULTS`` so child processes inherit it
        (a disabled plan removes the variable instead)."""
        env = os.environ if environ is None else environ
        if self.enabled:
            env[FAULTS_ENV_VAR] = self.to_json()  # type: ignore[index]
        else:
            env.pop(FAULTS_ENV_VAR, None)  # type: ignore[union-attr]

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The plan published in ``REPRO_FAULTS``, or ``None``.

        A malformed value raises: silently running *without* the chaos that
        was asked for would make a red chaos suite look green.
        """
        env = os.environ if environ is None else environ
        raw = env.get(FAULTS_ENV_VAR)
        if not raw:
            return None
        return cls.from_json(raw)


class FaultInjector:
    """Runtime face of a :class:`FaultPlan`: deterministic Bernoulli draws.

    Each ``(plan seed, scope, point)`` triple seeds an independent
    ``random.Random`` stream, so two components (or two worker incarnations)
    with different *scope* strings draw independently but reproducibly.  An
    injector built from ``None`` (or a disabled plan) is inert and costs one
    attribute check per call — production code paths keep their injector
    unconditionally and never branch on "is chaos on".
    """

    def __init__(self, plan: Optional[FaultPlan], *, scope: str = "") -> None:
        self.plan = plan if plan is not None and plan.enabled else None
        self.scope = scope
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {}
        #: point -> number of times it actually fired (observability).
        self.fired: Dict[str, int] = {}

    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            assert self.plan is not None
            digest = hashlib.sha256(
                f"{self.plan.seed}|{self.scope}|{point}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rngs[point] = rng
        return rng

    def fires(self, point: str) -> bool:
        """One deterministic draw: does *point* fire this time?"""
        if self.plan is None:
            return False
        rate = self.plan.rate(point)
        if rate <= 0.0:
            return False
        with self._lock:
            fired = self._rng(point).random() < rate
            if fired:
                self.fired[point] = self.fired.get(point, 0) + 1
        return fired

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            fired = dict(self.fired)
        return {
            "enabled": self.plan is not None,
            "scope": self.scope,
            "rates": dict(self.plan.rates) if self.plan is not None else {},
            "fired": fired,
        }


# ---------------------------------------------------------------- retry policy
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with optional jitter.

    ``attempts`` counts *retries* (a policy with ``attempts=3`` allows four
    tries total).  ``delay(retry)`` is the pause before the given retry
    (0-indexed): ``base_delay * factor**retry``, capped at ``max_delay``,
    plus up to ``jitter`` of itself drawn from *rng* (deterministic when the
    caller seeds one — the chaos suite does).
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def delay(self, retry: int, rng: Optional[random.Random] = None) -> float:
        base = min(self.base_delay * (self.factor ** max(0, retry)), self.max_delay)
        if self.jitter <= 0.0:
            return base
        draw = (rng.random() if rng is not None else random.random())
        return base * (1.0 + self.jitter * draw)

    def run(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: Tuple[type, ...],
        should_retry: Optional[Callable[[BaseException], bool]] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> Any:
        """Call *fn* with up to ``attempts`` retries on *retry_on* exceptions.

        ``should_retry`` refines the class check (e.g. only ``database is
        locked`` among ``OperationalError``\\ s).  The final failure is
        re-raised unchanged.
        """
        for retry in range(self.attempts + 1):
            try:
                return fn()
            except retry_on as exc:
                if retry >= self.attempts:
                    raise
                if should_retry is not None and not should_retry(exc):
                    raise
                sleep(self.delay(retry, rng))


# -------------------------------------------------------------- circuit breaker
class _BreakerState:
    __slots__ = ("failures", "opened_at", "probing", "tripped")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: Optional[float] = None  # None = closed
        self.probing = False  # a half-open trial request is in flight
        self.tripped = 0


class CircuitBreaker:
    """Per-key circuit breaker: trip after N consecutive failures, cool down,
    then probe.

    The service keys it by ``(kind, n)``: an instance that keeps crashing its
    workers stops consuming pool slots (and its clients stop waiting a full
    solve budget to learn that) while every other instance keeps being
    served.  States per key:

    * **closed** — requests pass; a success resets the failure count.
    * **open** — requests are rejected with the cooldown remainder as
      ``retry_after`` (the HTTP layer turns this into ``503`` +
      ``Retry-After``).
    * **half-open** — after the cooldown, exactly one trial request passes;
      its success closes the breaker, its failure re-opens it for a fresh
      cooldown.
    """

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._states: Dict[Hashable, _BreakerState] = {}

    def allow(self, key: Hashable) -> Tuple[bool, float]:
        """May a request for *key* proceed?  Returns ``(allowed, retry_after)``
        where ``retry_after`` is meaningful only on rejection."""
        now = self._clock()
        with self._lock:
            state = self._states.get(key)
            if state is None or state.opened_at is None:
                return True, 0.0
            remaining = state.opened_at + self.cooldown - now
            if remaining > 0.0:
                return False, remaining
            if state.probing:
                # One probe is already in flight; hold the rest back briefly.
                return False, min(self.cooldown, 1.0)
            state.probing = True
            return True, 0.0

    def record_success(self, key: Hashable) -> None:
        with self._lock:
            self._states.pop(key, None)

    def record_failure(self, key: Hashable) -> None:
        now = self._clock()
        with self._lock:
            state = self._states.setdefault(key, _BreakerState())
            state.failures += 1
            was_probe = state.probing
            state.probing = False
            still_open = (
                state.opened_at is not None and now < state.opened_at + self.cooldown
            )
            # A failed half-open probe re-opens immediately; a closed (or
            # cooled-down) key opens once the failure threshold is reached.
            # Stragglers failing while already open just extend the cooldown.
            if was_probe or state.failures >= self.threshold:
                if was_probe or not still_open:
                    state.tripped += 1
                state.opened_at = now

    def state(self, key: Hashable) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (observability)."""
        now = self._clock()
        with self._lock:
            state = self._states.get(key)
            if state is None or state.opened_at is None:
                return "closed"
            if state.probing or now >= state.opened_at + self.cooldown:
                return "half-open"
            return "open"

    def snapshot(self) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            open_keys: List[str] = []
            tripped = 0
            for key, state in self._states.items():
                tripped += state.tripped
                if state.opened_at is not None and (
                    now < state.opened_at + self.cooldown or state.probing
                ):
                    open_keys.append(repr(key))
            return {
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "open": sorted(open_keys),
                "tracked_keys": len(self._states),
                "tripped_total": tripped,
            }
