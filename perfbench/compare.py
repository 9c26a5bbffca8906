"""Compare two sets of benchmark results written by run.py.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds `result-*.json` files; run.py writes them to
.perfbench_out/, so copy them aside between commits.  For every workload,
mode and metric this prints each side's median and quartiles over its
runs and the change of the medians.  It refuses to compare result sets
whose kernel backend differs, or that mix backends, because
GRADEDQ_KERNEL=auto picks the compiled kernel wherever it builds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> tuple[set, dict]:
    backends, values = set(), defaultdict(list)
    for path in sorted(Path(directory).glob("result-*.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        backends.add(res["env"]["backend"])
        for name, metric in res["metrics"].items():
            values[res["workload"], res["trace"], name, metric["unit"]].append(
                metric["value"])
    return backends, values


def summary(vals: list) -> str:
    if len(vals) < 2:
        return f"{vals[0]:.4g} (1 run)"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}] ({len(vals)} runs)"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    (ba, before), (bb, after) = load(argv[0]), load(argv[1])
    if len(ba) != 1 or ba != bb:
        print(f"refusing to compare: kernel backends {sorted(ba)} vs {sorted(bb)}",
              file=sys.stderr)
        return 2
    for key in sorted(set(before) & set(after)):
        workload, trace, name, unit = key
        old, new = statistics.median(before[key]), statistics.median(after[key])
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"{workload:<12} t{trace} {name:<34} {unit:<6} "
              f"{summary(before[key]):<40} -> {summary(after[key]):<40} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
