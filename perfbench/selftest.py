"""Smoke-sized self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in about two minutes:

* the family validators the harness relies on accept a good solution and
  reject a corrupted one, for every family the workloads send;
* the tracing helpers compute covered time and self time correctly;
* every workload, run for two seconds with ``--trace 0`` and ``--trace 1``,
  exits 0 and ends with a JSON line that carries exactly the metrics
  BENCHMARK.json declares, each with its declared unit.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_validators() -> None:
    from repro.problems import get_family

    good = {
        "costas": get_family("costas").try_construct(12),
        "queens": get_family("queens").try_construct(24),
        "all-interval": get_family("all-interval").try_construct(12),
        "magic-square": workloads.magic_square(8),
    }
    for kind, solution in good.items():
        solution = [int(v) for v in solution]
        check(harness.count_invalid([(kind, solution)]) == 0, f"{kind} solution accepted")
        corrupted = list(solution)
        corrupted[0], corrupted[-1] = corrupted[-1], corrupted[0]
        corrupted[1] = corrupted[2]
        check(harness.count_invalid([(kind, corrupted)]) == 1, f"corrupted {kind} rejected")
    check(harness.count_invalid([("costas", None)]) == 1, "missing solution rejected")


def check_tracing() -> None:
    check(tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4, "covered() merges overlaps")
    check(tracing.covered([(0, 2), (1, 3)], 1.5, 2.5) == 1, "covered() clips to the window")
    spans = [["outer", 0.0, 10.0, None, "r1", None], ["inner", 2.0, 5.0, 0, None, None]]
    check(tracing.self_times(spans) == [7.0, 3.0], "self_times() subtracts children")


def check_runs() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = spec["command"] + [
                "--workload", workload["name"],
                "--seed", "7",
                "--seconds", "2",
                "--trace", str(trace),
            ]
            proc = subprocess.run(
                command, cwd=harness.ROOT, capture_output=True, text=True, timeout=180
            )
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr.strip()[-2000:])
            check(proc.returncode == 0, f"{label} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{label} result keys",
            )
            check(result["correct"] and result["attempted"] >= 1, f"{label} outputs correct")
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected, f"{label} emits every declared metric with its unit")
            check(
                all(isinstance(v["value"], float) for v in result["metrics"].values()),
                f"{label} metric values are numbers",
            )


def main() -> int:
    harness.prepare()
    check_validators()
    check_tracing()
    check_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
