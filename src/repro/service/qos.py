"""QoS primitives for the admission pipeline: lanes, quotas, latency histograms.

This module is the policy vocabulary of the serving stack's admission
pipeline (classify -> admit -> coalesce -> schedule -> shed).  It owns no
queueing logic itself — :mod:`repro.service.scheduler` consumes these
primitives — so it can be imported from anywhere in the service without
dependency cycles.

* :class:`LaneSpec` — a priority lane: a name, a queued-depth bound, a
  weighted-fair share, and its position in the shedding order.  The stock
  policy has three lanes: ``interactive`` (latency-sensitive, largest
  share, never shed while cheaper work exists), ``batch`` (the default for
  unclassified traffic) and ``background`` (first to be refused or shed).
* :class:`TokenBucket` / :class:`TenantQuotas` — per-tenant rate limiting.
  One token is charged per *new* job; coalesced joins are free because they
  add no work.  An empty bucket yields the time until the next token, which
  the HTTP layer surfaces as ``Retry-After`` on a 429.
* :class:`LatencyHistogram` — log-bucketed service-time histogram with an
  allocation-free ``record`` hot path and p50/p95/p99 queries for
  ``GET /stats``.
* :func:`classify_lane` — derive a lane from the request's declared lane,
  deadline and priority.

Lane order is value order: earlier lanes are more valuable; shedding walks
the list from the *end* (cheapest-to-refuse first).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BACKGROUND",
    "BATCH",
    "DEFAULT_LANE",
    "DEFAULT_TENANT",
    "INTERACTIVE",
    "LaneSpec",
    "LatencyHistogram",
    "TenantQuotas",
    "TokenBucket",
    "classify_lane",
    "default_lanes",
    "parse_lanes",
]

#: Canonical lane names, most valuable first.
INTERACTIVE = "interactive"
BATCH = "batch"
BACKGROUND = "background"
#: The single implicit lane used when QoS lanes are disabled.
DEFAULT_LANE = "default"
#: Tenant assigned to requests that carry no ``X-Repro-Tenant`` header.
DEFAULT_TENANT = "default"

#: Stock weighted-fair shares: interactive gets 6 pops for background's 1,
#: so a saturated background lane can never starve interactive traffic.
_STOCK_WEIGHTS = {INTERACTIVE: 6, BATCH: 3, BACKGROUND: 1}


@dataclass(frozen=True)
class LaneSpec:
    """One priority lane of the admission pipeline.

    ``depth`` bounds the number of distinct *queued* jobs in this lane
    (``None`` = unbounded); ``weight`` is the lane's share in the smooth
    weighted-round-robin pop.  Lanes are ordered most-valuable-first in the
    scheduler; the shed pass walks that order backwards.
    """

    name: str
    depth: Optional[int] = None
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ",=:"):
            raise ValueError(f"invalid lane name {self.name!r}")
        if self.depth is not None and self.depth < 1:
            raise ValueError(f"lane {self.name}: depth must be >= 1 or None")
        if self.weight < 1:
            raise ValueError(f"lane {self.name}: weight must be >= 1")


def default_lanes(depth: Optional[int] = None) -> Tuple[LaneSpec, ...]:
    """The stock three-lane policy; every lane may queue up to *depth* jobs."""
    return (
        LaneSpec(INTERACTIVE, depth=depth, weight=_STOCK_WEIGHTS[INTERACTIVE]),
        LaneSpec(BATCH, depth=depth, weight=_STOCK_WEIGHTS[BATCH]),
        LaneSpec(BACKGROUND, depth=depth, weight=_STOCK_WEIGHTS[BACKGROUND]),
    )


def parse_lanes(
    spec: str, default_depth: Optional[int] = None
) -> Tuple[LaneSpec, ...]:
    """Parse a ``--lanes`` spec into lane specs (most valuable first).

    ``"default"`` (or an empty string) yields :func:`default_lanes`.
    Otherwise the spec is ``name[=depth[:weight]]`` entries joined by
    commas, e.g. ``interactive=64:6,batch=64:3,background=256:1``.  Omitted
    depths fall back to *default_depth*; omitted weights to the stock
    weight for known lane names (else 1).
    """
    spec = spec.strip()
    if not spec or spec == "default":
        return default_lanes(default_depth)
    lanes: List[LaneSpec] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, tail = token.partition("=")
        name = name.strip()
        depth: Optional[int] = default_depth
        weight = _STOCK_WEIGHTS.get(name, 1)
        if tail:
            depth_part, _, weight_part = tail.partition(":")
            if depth_part.strip():
                depth = int(depth_part)
            if weight_part.strip():
                weight = int(weight_part)
        lanes.append(LaneSpec(name, depth=depth, weight=weight))
    if not lanes:
        raise ValueError(f"no lanes in spec {spec!r}")
    names = [lane.name for lane in lanes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate lane in spec {spec!r}")
    return tuple(lanes)


def classify_lane(
    *,
    lane: Optional[str] = None,
    deadline: Optional[float] = None,
    priority: int = 0,
    lanes: Sequence[str],
    interactive_deadline: float = 10.0,
) -> str:
    """Derive the lane for one request (the *classify* pipeline stage).

    An explicitly requested lane wins (it must exist).  Otherwise the lane
    is derived from how the request presents itself: a tight relative
    deadline (<= *interactive_deadline* seconds) or a positive priority
    marks it interactive; a negative priority marks it background; the
    rest is batch.  Raises ``ValueError`` for an unknown explicit lane.
    """
    if lane is not None:
        if lane not in lanes:
            raise ValueError(
                f"unknown lane {lane!r}; configured lanes: {', '.join(lanes)}"
            )
        return lane
    if deadline is not None and deadline <= interactive_deadline and INTERACTIVE in lanes:
        return INTERACTIVE
    if priority > 0 and INTERACTIVE in lanes:
        return INTERACTIVE
    if priority < 0 and BACKGROUND in lanes:
        return BACKGROUND
    if BATCH in lanes:
        return BATCH
    return lanes[0]


# --------------------------------------------------------------------- quotas
class TokenBucket:
    """Classic token bucket: *rate* tokens/second, capacity *burst*.

    Not thread-safe on its own — the scheduler calls it under its lock.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate < 0 or burst < 1:
            raise ValueError(f"bad quota rate={rate} burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()

    def take(self, now: Optional[float] = None) -> Optional[float]:
        """Charge one token; return ``None`` on success or the seconds until
        the next token becomes available (the ``Retry-After`` hint)."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        if self.rate <= 0:
            return 60.0
        return max(0.001, (1.0 - self._tokens) / self.rate)


class TenantQuotas:
    """Per-tenant token buckets with an optional ``*`` catch-all.

    Tenants with no configured quota (and no catch-all) are unlimited.
    """

    def __init__(
        self,
        per_tenant: Dict[str, Tuple[float, float]],
        default: Optional[Tuple[float, float]] = None,
    ) -> None:
        self._limits = dict(per_tenant)
        self._default = default
        self._buckets: Dict[str, TokenBucket] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "TenantQuotas":
        """Parse a ``--quota`` spec: ``tenant=rate[:burst]`` entries joined
        by commas; the tenant ``*`` sets the catch-all.  Burst defaults to
        ``max(1, rate)``."""
        per: Dict[str, Tuple[float, float]] = {}
        default: Optional[Tuple[float, float]] = None
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, tail = token.partition("=")
            name = name.strip()
            if not tail:
                raise ValueError(f"quota entry {token!r} needs tenant=rate[:burst]")
            rate_part, _, burst_part = tail.partition(":")
            rate = float(rate_part)
            burst = float(burst_part) if burst_part.strip() else max(1.0, rate)
            if name == "*":
                default = (rate, burst)
            else:
                per[name] = (rate, burst)
        if not per and default is None:
            raise ValueError(f"no quota entries in spec {spec!r}")
        return cls(per, default)

    def limit_for(self, tenant: str) -> Optional[Tuple[float, float]]:
        return self._limits.get(tenant, self._default)

    def take(self, tenant: str, now: Optional[float] = None) -> Optional[float]:
        """Charge *tenant* one token; ``None`` on success, else retry-after."""
        limit = self.limit_for(tenant)
        if limit is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(*limit)
        return bucket.take(now)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for tenant, bucket in self._buckets.items():
            out[tenant] = {
                "rate": bucket.rate,
                "burst": bucket.burst,
                "tokens": round(bucket._tokens, 3),
            }
        return out


# ----------------------------------------------------------------- histograms
class LatencyHistogram:
    """Log-bucketed latency histogram: O(log B) allocation-free ``record``.

    Bucket upper bounds grow geometrically from 0.1 ms to ~10 min; a
    percentile query answers with the upper bound of the bucket holding
    the target rank (<= one bucket width of overestimate, ~30%).
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_max", "_lock")

    def __init__(
        self,
        min_bound: float = 1e-4,
        max_bound: float = 600.0,
        growth: float = 1.3,
    ) -> None:
        bounds: List[float] = []
        edge = min_bound
        while edge < max_bound:
            bounds.append(edge)
            edge *= growth
        bounds.append(float("inf"))
        self._bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        idx = bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    def percentile(self, pct: float) -> Optional[float]:
        """Seconds at the *pct* percentile, or ``None`` when empty."""
        with self._lock:
            if self._count == 0:
                return None
            target = max(1, int(self._count * pct / 100.0 + 0.9999))
            seen = 0
            for idx, count in enumerate(self._counts):
                seen += count
                if seen >= target:
                    bound = self._bounds[idx]
                    return self._max if bound == float("inf") else min(bound, self._max)
        return self._max

    def snapshot(self) -> Dict[str, float]:
        """Stats-endpoint payload: count, mean/max and p50/p95/p99 in ms."""
        with self._lock:
            count, total, peak = self._count, self._sum, self._max
        out: Dict[str, float] = {"count": count}
        if count:
            out["mean_ms"] = round(total / count * 1e3, 3)
            out["max_ms"] = round(peak * 1e3, 3)
            for pct, key in ((50.0, "p50_ms"), (95.0, "p95_ms"), (99.0, "p99_ms")):
                value = self.percentile(pct)
                out[key] = round((value or 0.0) * 1e3, 3)
        return out
