"""Compare two sets of benchmark result records.

Each run of ``run.py`` writes a record (metrics plus the environment it ran
in) to ``.perfbench/results/``.  Copy the records of a baseline and of a
candidate aside, then::

    python3 perfbench/compare.py --base base/*.json --new new/*.json

prints, per workload and metric, both medians, their ratio and each side's
quartile spread.  Runs measured with different kernel modes (compiled C vs
the NumPy fallback), run lengths or trace settings are not comparable: the
script refuses them and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List


def load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / middle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)

    modes = {r["env"]["kernel_mode"] for r in base + new}
    if len(modes) > 1:
        print(f"refusing to compare: runs differ in kernel_mode {sorted(modes)}", file=sys.stderr)
        return 2
    for key in ("seconds", "trace"):
        found = {r[key] for r in base + new}
        if len(found) > 1:
            print(f"refusing to compare: runs differ in {key} {sorted(found)}", file=sys.stderr)
            return 2

    grouped: Dict[str, Dict[str, Dict[str, List[float]]]] = defaultdict(
        lambda: defaultdict(lambda: {"base": [], "new": []})
    )
    for side, records in (("base", base), ("new", new)):
        for record in records:
            for name, value in record["metrics"].items():
                grouped[record["workload"]][name][side].append(value)

    print(f"{'workload':16s} {'metric':26s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
          f"{'spread b':>9s} {'spread n':>9s}")
    for workload in sorted(grouped):
        for name, sides in grouped[workload].items():
            if not sides["base"] or not sides["new"]:
                continue
            b = statistics.median(sides["base"])
            n = statistics.median(sides["new"])
            ratio = f"{n / b:9.3f}" if b else f"{'-':>9s}"
            print(f"{workload:16s} {name:26s} {b:12.4f} {n:12.4f} {ratio} "
                  f"{spread(sides['base']):9.3f} {spread(sides['new']):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
