#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes to ``.perfbench_out/``. For every workload and metric it
prints the median and quartiles of each side and the change of the
medians. Results measured with different refinement kernels (compiled
versus pure, about 7x apart on the chain) are flagged, since such a
comparison says nothing about the change under test.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]}"""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["trace"])].append(rec)
    return out


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        kernels = {r["host"]["kernel"] for r in base[key] + new[key]}
        print(f"{workload} (trace {trace}): {len(base[key])} vs {len(new[key])} runs")
        if len(kernels) > 1:
            print(f"  WARNING: kernels differ ({', '.join(sorted(kernels))}); "
                  "this comparison does not isolate the change")
        for name, meta in base[key][0]["metrics"].items():
            a = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not (a and b):
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = f"{mb / ma - 1:+.1%}" if ma else "n/a"
            print(f"  {name:32s} {summary(a):>34s} -> {summary(b):>34s} {meta['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
