"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep hypothesis fast and deterministic-ish in CI: the default example count
# is overkill for the small combinatorial inputs used here.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def example_costas_5():
    """The order-5 Costas array used as the running example in the paper ([3,4,2,1,5])."""
    return [2, 3, 1, 0, 4]  # 0-based version of the paper's [3, 4, 2, 1, 5]


@pytest.fixture
def recorded_sleeps(monkeypatch):
    """Delays the test's own thread asks ``time.sleep`` for, recorded instead
    of slept; other threads (a background server's) still sleep for real."""
    delays = []
    real_sleep = time.sleep
    caller = threading.current_thread()

    def sleep(seconds):
        if threading.current_thread() is caller:
            delays.append(seconds)
        else:
            real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    return delays


@pytest.fixture
def small_orders():
    """Orders small enough for exhaustive cross-checks."""
    return [3, 4, 5, 6, 7]


#: Body of a served front-end's process: build the service from the
#: ServiceConfig keywords in argv[1], print the ephemeral port, serve until
#: SIGTERM (which drains).
_SERVER_MAIN = """
import json, sys
from repro.service.api import ServiceConfig
from repro.service.http_async import AsyncServiceHTTPServer

config = ServiceConfig(**json.loads(sys.argv[1]))
server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config, verbose=False)
print(server.port, flush=True)
server.serve_forever()
"""


@pytest.fixture
def served(tmp_path):
    """``with served(**ServiceConfig keywords) as port:`` runs the HTTP
    front-end in its own process, store under ``tmp_path``.

    Load-generating tests use it so their client event loop never shares a
    GIL with the server it measures.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("REPRO_FAULTS", None)
    stores = itertools.count()

    @contextlib.contextmanager
    def serve(**config):
        config.setdefault("store_path", str(tmp_path / f"served-{next(stores)}.db"))
        proc = subprocess.Popen(
            [sys.executable, "-c", _SERVER_MAIN, json.dumps(config)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            yield int(proc.stdout.readline())
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
            proc.stdout.close()

    return serve
