"""Shared plumbing for the experiment drivers.

Each driver returns a subclass of :class:`ExperimentResult` holding structured
rows plus enough metadata (scale preset, parameters) to make the output
self-describing when dumped by the CLI or printed by the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.params import ASParameters
from repro.experiments.config import ExperimentScale
from repro.models.costas import CostasProblem
from repro.parallel.runner import ExperimentRunner

__all__ = [
    "ExperimentResult",
    "cell_seed",
    "costas_factory",
    "costas_params",
    "shared_runner",
]


@dataclass
class ExperimentResult:
    """Base class for structured experiment outputs."""

    experiment: str
    scale: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by the CLI ``--json`` flag)."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "rows": self.rows,
            "metadata": self.metadata,
        }

    def format(self) -> str:
        """Human-readable rendering; subclasses or drivers set ``metadata['table']``."""
        table = self.metadata.get("table")
        if table:
            return str(table)
        lines = [f"[{self.experiment}] scale={self.scale}"]
        for row in self.rows:
            lines.append("  " + ", ".join(f"{k}={v}" for k, v in row.items()))
        return "\n".join(lines)


def costas_factory(order: int, **kwargs) -> Callable[[], CostasProblem]:
    """Picklable factory of optimised Costas problems of the given order."""
    return _CostasFactory(order, kwargs)


class _CostasFactory:
    """Picklable callable (``functools.partial`` of a local lambda would not pickle)."""

    def __init__(self, order: int, kwargs: Dict[str, Any]):
        self.order = order
        self.kwargs = dict(kwargs)

    def __call__(self) -> CostasProblem:
        return CostasProblem(self.order, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"costas_factory({self.order}, {self.kwargs})"


def cell_seed(*key: Any) -> int:
    """Seed of one simulated table or figure cell, the same in every process.

    ``hash()`` of a key holding a string is salted per process
    (``PYTHONHASHSEED``), so it cannot seed a reproducible table; the first
    four bytes of the key's SHA-256 can.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def costas_params(order: int, **overrides) -> ASParameters:
    """Engine parameters used by every Costas experiment (paper defaults)."""
    defaults = dict(max_iterations=2_000_000)
    defaults.update(overrides)
    return ASParameters.for_costas(order, **defaults)


_GLOBAL_RUNNER: Optional[ExperimentRunner] = None


def shared_runner(runner: Optional[ExperimentRunner] = None) -> ExperimentRunner:
    """Return the provided runner, or a process-wide shared one.

    Sharing matters because several tables draw on the same instance pools;
    the in-memory cache of the shared runner avoids re-collecting them when a
    process runs every experiment in sequence.
    """
    global _GLOBAL_RUNNER
    if runner is not None:
        return runner
    if _GLOBAL_RUNNER is None:
        _GLOBAL_RUNNER = ExperimentRunner()
    return _GLOBAL_RUNNER
