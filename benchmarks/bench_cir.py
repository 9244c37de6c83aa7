#!/usr/bin/env python3
"""Refinement benchmark: operation-count growth on the adversarial chain.

Runs the chain family (one color peeled per sweep, the worst case for the
number of sweeps) across a range of sizes and prints the measured
operation counts with the fitted log-log slope. Optionally dumps the full
report as JSON.

    python3 benchmarks/bench_cir.py --sizes 64,128,256,512,1024 --json out.json
"""
import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from synchro.benchmark import complexity_suite, report_lines  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="64,128,256,512,1024",
        help="Comma-separated chain sizes (default 64..1024).",
    )
    parser.add_argument("--json", metavar="PATH", help="Also write the report as JSON.")
    args = parser.parse_args()
    sizes = tuple(int(s) for s in args.sizes.split(","))

    report = complexity_suite(sizes)
    for line in report_lines(report):
        print(line)
    if args.json:
        payload = {
            "slope": report.slope,
            "ok": report.ok,
            "runs": [asdict(run) for run in report.runs],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
