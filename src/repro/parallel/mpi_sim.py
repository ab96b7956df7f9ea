"""In-process simulation of the paper's message-passing multi-walk scheme.

The reference implementation forks one sequential Adaptive Search per MPI rank
and lets the winner broadcast a termination message which the others poll with
non-blocking tests every ``c`` iterations (Section V-A).  MPI is not available
in this environment, so this module provides a faithful in-process stand-in:

* :class:`SimulatedCommunicator` — per-rank mailboxes with ``isend`` /
  ``iprobe`` / ``recv`` and a convenience ``broadcast_others``;
* :class:`SimulatedMultiWalk` — advances every rank's solver in slices of
  ``check_period`` iterations (round-robin co-routine scheduling), delivering
  termination messages between slices exactly where the real implementation
  polls for them.

Because every rank runs the *same* sequential algorithm it would run under
MPI, the number of iterations each rank executes before stopping — and hence
the simulated parallel wall-clock time — is exactly what an idealised
homogeneous cluster would produce.  The virtual-cluster performance model
(:mod:`repro.parallel.cluster`) builds on the iteration counts this simulation
produces; the real-parallelism path lives in :mod:`repro.parallel.multiwalk`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.exceptions import ParallelExecutionError
from repro.solvers import run_spec

__all__ = ["Message", "SimulatedCommunicator", "SimulatedMultiWalk", "SimulatedWalkOutcome"]


@dataclass(frozen=True)
class Message:
    """A point-to-point message between simulated ranks."""

    source: int
    dest: int
    tag: str
    payload: Any = None


class SimulatedCommunicator:
    """Mailbox-based communicator with the subset of MPI semantics the paper uses."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ParallelExecutionError(f"communicator size must be >= 1, got {size}")
        self._size = size
        self._mailboxes: List[Deque[Message]] = [deque() for _ in range(size)]
        self.sent_messages = 0

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self._size

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._size:
            raise ParallelExecutionError(
                f"rank {rank} out of range for communicator of size {self._size}"
            )

    def isend(self, source: int, dest: int, tag: str, payload: Any = None) -> None:
        """Non-blocking send: enqueue a message in the destination mailbox."""
        self._check_rank(source)
        self._check_rank(dest)
        self._mailboxes[dest].append(Message(source, dest, tag, payload))
        self.sent_messages += 1

    def iprobe(self, rank: int, tag: Optional[str] = None) -> bool:
        """Non-blocking probe: is a (matching) message waiting for *rank*?"""
        self._check_rank(rank)
        if tag is None:
            return bool(self._mailboxes[rank])
        return any(m.tag == tag for m in self._mailboxes[rank])

    def recv(self, rank: int, tag: Optional[str] = None) -> Optional[Message]:
        """Pop the first (matching) message for *rank*, or ``None`` if none waits."""
        self._check_rank(rank)
        box = self._mailboxes[rank]
        if tag is None:
            return box.popleft() if box else None
        for idx, message in enumerate(box):
            if message.tag == tag:
                del box[idx]
                return message
        return None

    def broadcast_others(self, source: int, tag: str, payload: Any = None) -> None:
        """Send the same message to every rank except *source* (termination broadcast)."""
        for dest in range(self._size):
            if dest != source:
                self.isend(source, dest, tag, payload)

    def pending(self, rank: int) -> int:
        """Number of undelivered messages for *rank*."""
        self._check_rank(rank)
        return len(self._mailboxes[rank])


@dataclass
class SimulatedWalkOutcome:
    """Outcome of one rank of a simulated multi-walk run."""

    rank: int
    seed: int
    result: SolveResult
    #: Iterations this rank executed before stopping (solution or termination).
    iterations_executed: int
    #: True when this rank is the one that found the solution first.
    winner: bool


class SimulatedMultiWalk:
    """Deterministic in-process simulation of independent multi-walk AS.

    Every rank advances ``check_period`` iterations per scheduling round (the
    polling granularity of the paper), after which termination messages are
    delivered.  The solver state of each rank is a real walk of the default
    engine (:func:`repro.solvers.run_spec` with no solver named), so the
    per-rank trajectories are identical to sequential runs with the same
    seeds.

    Notes
    -----
    Ranks are advanced one slice at a time by re-entering the engine with an
    increased iteration cap.  Re-entering restarts the engine's *internal*
    bookkeeping but not the problem state; to keep trajectories exactly equal
    to a single uninterrupted run, the simulation instead runs each rank's
    walk **to completion once** (recording its iteration count) and then
    replays the termination protocol analytically on those counts.  This is
    equivalent for independent walks — there is no interaction that could
    change a trajectory mid-run — and it keeps the simulation exact rather
    than approximate.
    """

    TERMINATION_TAG = "solution-found"

    def __init__(
        self,
        problem_factory: Callable[[], PermutationProblem],
        params: ASParameters,
    ) -> None:
        self._problem_factory = problem_factory
        self._params = params

    def run(
        self,
        seeds: Sequence[int],
        *,
        max_iterations: Optional[int] = None,
    ) -> Tuple[List[SimulatedWalkOutcome], SimulatedCommunicator]:
        """Simulate one multi-walk execution with the given per-rank seeds.

        Returns the per-rank outcomes and the communicator (whose message
        counters tests inspect to verify the termination protocol: exactly one
        broadcast of ``size - 1`` messages when some rank solves).
        """
        if not seeds:
            raise ParallelExecutionError("at least one seed (rank) is required")
        size = len(seeds)
        comm = SimulatedCommunicator(size)
        params = self._params
        if max_iterations is not None:
            params = params.with_updates(max_iterations=max_iterations)

        # Phase 1: run every rank's walk to completion independently.
        results: List[SolveResult] = [
            run_spec(None, self._problem_factory(), int(seed), as_params=params)
            for seed in seeds
        ]

        # Phase 2: replay the termination protocol on the iteration counts.
        solved_iters = [
            (res.iterations, rank) for rank, res in enumerate(results) if res.solved
        ]
        outcomes: List[SimulatedWalkOutcome] = []
        if not solved_iters:
            for rank, (seed, res) in enumerate(zip(seeds, results)):
                outcomes.append(
                    SimulatedWalkOutcome(rank, int(seed), res, res.iterations, False)
                )
            return outcomes, comm

        winning_iterations, winner_rank = min(solved_iters)
        comm.broadcast_others(winner_rank, self.TERMINATION_TAG)
        # Every other rank notices the message at its next polling point.
        check = params.check_period
        for rank, (seed, res) in enumerate(zip(seeds, results)):
            if rank == winner_rank:
                executed = res.iterations
            else:
                # The rank polls at multiples of check_period; it stops at the
                # first poll after the winner's solution time, unless it had
                # already finished on its own before that.
                next_poll = ((winning_iterations // check) + 1) * check
                executed = min(res.iterations, next_poll)
                if comm.iprobe(rank, self.TERMINATION_TAG):
                    comm.recv(rank, self.TERMINATION_TAG)
            outcomes.append(
                SimulatedWalkOutcome(
                    rank, int(seed), res, int(executed), rank == winner_rank
                )
            )
        return outcomes, comm

    # ---------------------------------------------------------------- summaries
    @staticmethod
    def parallel_iterations(outcomes: Sequence[SimulatedWalkOutcome]) -> int:
        """Iterations of the critical path (max over ranks of executed iterations)."""
        if not outcomes:
            raise ParallelExecutionError("no outcomes to summarise")
        return max(o.iterations_executed for o in outcomes)

    @staticmethod
    def winner(outcomes: Sequence[SimulatedWalkOutcome]) -> Optional[SimulatedWalkOutcome]:
        """The winning rank's outcome, or ``None`` when no rank solved."""
        for o in outcomes:
            if o.winner:
                return o
        return None
