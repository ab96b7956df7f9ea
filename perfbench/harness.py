"""Shared plumbing of the benchmark: paths, the build step, the environment
record, child processes, statistics and solution validation."""

from __future__ import annotations

import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here, inside the checkout.
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"
KERNEL_CACHE = CACHE / "repro-ckernels"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def sut_env() -> Dict[str, str]:
    """Environment of every system-under-test process: the source tree on
    the path (the caches already point inside the checkout, see prepare)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTS", None)
    return env


def prepare() -> Dict[str, Any]:
    """Check the tree, build the kernels and return the environment record."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The kernel cache and temporary files of this process and its children
    # stay inside the checkout.
    os.environ["XDG_CACHE_HOME"] = str(CACHE)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    warm = KERNEL_CACHE.is_dir() and any(KERNEL_CACHE.glob("kernels-*.so"))
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, numpy; from repro.core import _ckernels; "
            "print(json.dumps({'kernel_mode': _ckernels.mode(), "
            "'numpy': numpy.__version__}))",
        ],
        env=sut_env(),
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import repro: {probe.stderr.strip()[-2000:]}")
    built = json.loads(probe.stdout.strip().splitlines()[-1])
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": built["numpy"],
        "kernel_mode": built["kernel_mode"],
        "kernel_cache_warm": warm,
    }


def git_sha() -> Optional[str]:
    """HEAD of the checkout read from ``.git`` directly (the benchmark may
    run from an export that is not a repository; then ``None``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ------------------------------------------------------------------ processes
class Child:
    """A system-under-test process that reports JSON lines on stdout.

    A reader thread drains stdout so a stalled child surfaces as a timeout
    instead of hanging the harness; stderr goes to *log*.
    """

    def __init__(self, args: Sequence[str], log: Path) -> None:
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=sut_env(),
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
        self.name = Path(args[0]).name
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def record(self, timeout: float) -> Dict[str, Any]:
        """The next JSON line, waiting at most *timeout* seconds."""
        try:
            line = self._lines.get(timeout=max(0.0, timeout))
        except queue.Empty:
            raise BenchError(f"{self.name} stalled for {timeout:.0f}s") from None
        if line is None:
            raise BenchError(f"{self.name} exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, wait, SIGKILL if needed: never leave a process behind."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """Sum of peak resident memory (VmHWM) of *pid* and its children."""
    total_kb = 0
    for proc_pid in [pid, *child_pids(pid)]:
        try:
            for line in Path(f"/proc/{proc_pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> List[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesised command name) is the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


# ----------------------------------------------------------------- host speed
#: What the calibration loop takes on the reference host.  Reported times are
#: measured times scaled by REFERENCE_PROBE_S / (the loop's mean time around
#: them, see HostSpeed), so they read as times on a host of that speed.
REFERENCE_PROBE_S = 0.004
#: Steps of the calibration loop, and how many times one sample repeats it.
PROBE_STEPS = 8000
PROBE_REPEATS = 3


def probe() -> float:
    """Seconds the calibration loop takes now: the fastest of a few repeats.

    The loop mixes interpreted integer work with small NumPy slices, like the
    walk and the service do.  The fastest repeat drops a repeat that a
    context switch interrupted.
    """
    import numpy as np

    table = np.arange(64)
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for step in range(PROBE_STEPS):
            acc += int(table[step & 63]) ^ step
            if step % 7 == 0:
                acc += int(table[step % 13 : step % 13 + 8].sum())
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Calibration samples of one run, taken while the system under test is
    idle, and the factor that scales the run's times to the reference host.

    Each core of this shared host flips, independently and within seconds,
    between a fast state and one about 2x slower, and the share of time spent
    slow drifts from minute to minute.  A sample therefore times the loop on
    every core in turn, and a factor comes from the mean of the samples,
    which follows that share (a median would snap to one state).  Replaying
    one solve for minutes, this scaling cut the spread of 12-solve means
    from 0.25 to 0.07 of their median.
    """

    #: Samples this far outside an interval still count for it.  Replaying
    #: ten minutes of the paper's solves, a margin of 1 s left the p50, mean
    #: and p90 of 12 solves with spreads of 0.04, 0.07 and 0.09; 0.2 s gave
    #: 0.08, 0.08 and 0.10, and 3 s gave 0.05, 0.08 and 0.12.
    MARGIN_S = 1.0

    def __init__(self) -> None:
        #: ``(perf_counter at the loop's midpoint, seconds it took)``, one
        #: entry per core per sample.
        self.samples: List[List[float]] = []

    def sample(self) -> None:
        cores = os.sched_getaffinity(0)
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                start = time.perf_counter()
                took = probe()
                self.samples.append([start + took / 2, took])
        finally:
            os.sched_setaffinity(0, cores)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per measured second over ``[start, end]``, from
        the samples within MARGIN_S of it or else the nearest one on each
        side; by default over the whole run."""
        if not self.samples:
            raise BenchError("no host-speed samples were taken")
        low, high = start - self.MARGIN_S, end + self.MARGIN_S
        near = [took for at, took in self.samples if low <= at <= high]
        if not near:
            before = [(at, took) for at, took in self.samples if at < low]
            after = [(at, took) for at, took in self.samples if at > high]
            near = [max(before)[1]] if before else []
            near += [min(after)[1]] if after else []
        return REFERENCE_PROBE_S / statistics.fmean(near)


# ----------------------------------------------------------------- statistics
def pct(values: Sequence[float], p: float) -> float:
    """Harrell–Davis estimate of the *p*-th percentile.

    A Beta-weighted average of all order statistics rather than one or two
    of them.  With a dozen heavy-tailed solve times per run, a single order
    statistic carries one solve's timing noise; this estimator spreads it
    over the neighbouring solves.  On large samples it equals the plain
    percentile.
    """
    import numpy as np

    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    # Weight of order statistic i: the Beta(a, b) mass on [(i-1)/n, i/n],
    # integrated on a midpoint grid of at least 20 points per interval.
    grid = max(4000, 20 * n)
    t = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max())
    weights = np.bincount((t * n).astype(int), weights=mass, minlength=n)
    return float(weights @ ordered / weights.sum())


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------- validation
def count_invalid(answers: Sequence[tuple]) -> int:
    """Number of ``(kind, solution)`` answers their family's own validator
    (from the problem registry) rejects.

    Each distinct answer is checked once.  ``None``, and an answer the
    validator refuses to read (not a permutation, for Costas), are invalid.
    """
    import numpy as np

    from repro.exceptions import ReproError
    from repro.problems import get_family

    verdicts: Dict[tuple, bool] = {}
    invalid = 0
    for kind, solution in answers:
        key = (kind, tuple(solution) if solution is not None else None)
        if key not in verdicts:
            try:
                verdicts[key] = solution is not None and bool(
                    get_family(kind).validator(np.asarray(solution, dtype=np.int64))
                )
            except ReproError:
                verdicts[key] = False
        invalid += not verdicts[key]
    return invalid
