"""Parallel independent multi-walk execution (Section V of the paper).

The paper's parallel scheme is deliberately simple — *independent multi-walk*
(multi-start): every core runs the same sequential Adaptive Search with a
different random seed, and the first core to find a solution broadcasts a
termination message that the others poll every ``c`` iterations.  There is no
other communication, which is why the approach scales to thousands of cores.

This package reproduces that scheme at three levels of fidelity:

* :class:`~repro.parallel.multiwalk.MultiWalkSolver` — **real parallelism** on
  the local machine using ``multiprocessing`` (one warm walker process per
  walk, kept between solves, and an event for the termination broadcast).
  This is the component a downstream user actually solves problems with; it
  is limited by the host's core count.
* :class:`~repro.parallel.mpi_sim.SimulatedCommunicator` and
  :class:`~repro.parallel.mpi_sim.SimulatedMultiWalk` — an **in-process
  simulation** of the message-passing implementation: ranks advance in slices
  of ``check_period`` iterations and exchange termination messages through
  mailboxes, mirroring the OpenMPI structure of the paper without requiring
  MPI.  Used for deterministic tests of the termination protocol and by the
  virtual cluster.
* :class:`~repro.parallel.cluster.VirtualCluster` — a **performance model**
  of the paper's machines (HA8000, Grid'5000 Suno/Helios, Blue Gene/P
  JUGENE).  It replays pools of measured sequential walks to predict the
  wall-clock time of a ``k``-core run (the minimum of ``k`` independent
  runtimes plus the termination-polling latency), which is how the repository
  regenerates Tables III–V and Figures 2–3 for core counts far beyond the
  host machine.

Seeding of the walks follows Section III-B.3 of the paper:
:class:`~repro.parallel.seeds.ChaoticSeedSequence` generates decorrelated
per-walk seeds through a piecewise-linear chaotic map.
"""

from repro.parallel.seeds import ChaoticSeedSequence, sequential_seeds, spawned_seeds
from repro.parallel.mpi_sim import SimulatedCommunicator, SimulatedMultiWalk
from repro.parallel.multiwalk import MultiWalkResult, MultiWalkSolver
from repro.parallel.cluster import (
    HA8000,
    HELIOS,
    JUGENE,
    LOCAL_HOST,
    SUNO,
    MachineModel,
    VirtualCluster,
    WalkSample,
)
from repro.parallel.runner import ExperimentRunner, RunPool

__all__ = [
    "ChaoticSeedSequence",
    "sequential_seeds",
    "spawned_seeds",
    "SimulatedCommunicator",
    "SimulatedMultiWalk",
    "MultiWalkSolver",
    "MultiWalkResult",
    "MachineModel",
    "VirtualCluster",
    "WalkSample",
    "HA8000",
    "SUNO",
    "HELIOS",
    "JUGENE",
    "LOCAL_HOST",
    "ExperimentRunner",
    "RunPool",
]
