#!/usr/bin/env python3
"""End-to-end benchmark of the synchro CLI path, with a traced per-layer run.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and uses the ``synchro`` under
``src/`` (there is nothing to build). One run:

1. generates the workload's inputs from ``--seed`` (untimed);
2. with ``--trace 0``, times a fresh interpreter importing ``synchro.cli``
   SETUP_SAMPLES times (``setup_s`` is the median);
3. starts one worker process that repeats the workload's job list, one job
   after the other, for ``--seconds`` and checks every output against the
   reference in ``ref.py`` (see ``worker.py``); with ``--trace 1`` the
   worker alternates untraced and traced repetitions (see ``spans.py``).
   ``peak_rss_mb`` is the worker's peak resident memory after its first
   (warm-up) pass over the job list, reference data included;
4. reruns the first job through ``python -m synchro`` and compares its
   stdout byte for byte with the in-process capture;
5. prints every metric by name with its unit, host provenance and, when
   traced, the per-layer table; writes the result and the spans to
   ``.perfbench_out/``; and prints one JSON line last.

Shared virtual machines change speed by up to 1.5x for tens of seconds
at a time (measured on a 2-vCPU Xeon VM), so raw times of separate runs
disagree by more than any useful bound. Both gated times are therefore
given at a fixed reference speed: the raw time is multiplied by
(CAL_REF_S / c) ** CAL_EXPONENT, where c is the median reading of
``ref.Calibration`` (a fixed piece of pure-Python work) taken around that
measurement. ``wall_cal_s`` is the median over repetitions of the
corrected job-list wall time; ``setup_s`` is the corrected median import
time. The program under test never runs inside a calibration, so its own
slowdowns show in full. The exponent is below 1 because the host's fast
phases speed the small calibration up more than the larger jobs; on that
VM, 0.75 gave the smallest worst-case spread over ten seeds of every
workload (1.0 left 0.15 on refine, 0.5 left 0.12 on dynamics). Raw
medians and the raw tail percentile are printed as well.

Jobs of a known, still open defect are marked as probes: they run and are
checked like every other job, but their failures are reported on their own
line and in ``dynamics.defect_probe_failures`` instead of in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

END_TO_END = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CAL_REF_S = 0.020  # ref.Calibration's time at the reference speed
CAL_EXPONENT = 0.75
PER_LAYER = {
    "cli.self_s": "s",
    "network.json_s": "s",
    "network.build_s": "s",
    "network.serialize_s": "s",
    "network.edges": "count",
    "network.weight_reuse": "ratio",
    "network.ingest_ratio": "ratio",
    "coding.code_s": "s",
    "coding.memo_entries": "count",
    "cir.refine_s": "s",
    "cir.sweeps": "count",
    "cir.ops": "count",
    "balance.check_s": "s",
    "balance.quotient_s": "s",
    "partition.from_colors_calls": "count",
    "partition.from_colors_s": "s",
    "partition.text_s": "s",
    "lattice.enumerate_s": "s",
    "lattice.meet_join_s": "s",
    "lattice.cir_calls": "count",
    "lattice.elements": "count",
    "lattice.yield": "ratio",
    "dynamics.map_s": "s",
    "dynamics.ode_s": "s",
    "dynamics.other_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.max_dev": "abs",
    "dynamics.defect_probe_failures": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import synchro.cli; print(time.perf_counter() - t)"
)


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[int]]:
    """Seconds a fresh interpreter spends importing synchro.cli (one warm-up
    first), and the calibration readings taken around the samples."""
    calibrate = ref.Calibration()
    samples, cal_ns = [], [calibrate()]
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
        cal_ns.append(calibrate())
    return samples[1:], cal_ns


def smoke(job: dict, captured: bytes) -> str | None:
    """Run the first job through ``python -m synchro``; None when stdout matches."""
    if job["kind"] != "cli":
        return "the first job is not a CLI command"
    done = subprocess.run([sys.executable, "-m", "synchro", *job["argv"]], env=python_env(),
                          cwd=ROOT, capture_output=True, timeout=120)
    if done.stdout != captured:
        return (f"subprocess stdout ({len(done.stdout)} bytes, exit {done.returncode}) "
                f"differs from the in-process capture ({len(captured)} bytes)")
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(0, math.ceil(p * n / 100) - 1)]


def at_reference_speed(seconds: float, cal_ns: list[int]) -> float:
    """A time measured alongside calibration readings, at the reference speed."""
    return seconds * (CAL_REF_S * 1e9 / statistics.median(cal_ns)) ** CAL_EXPONENT


def layer_metrics(result: dict) -> tuple[dict, bool]:
    """Per-layer metrics: means over traced repetitions, plus derived ratios.

    ``trace_overhead`` compares the medians of traced and untraced
    repetitions, each at the reference speed. Returns the metrics and
    whether every traced repetition's self times summed exactly to its
    wall time.
    """
    layers = result["layers"]
    adds_up = all(rep["self_sum_ns"] == rep["wall_ns"] for rep in layers)
    mean = {k: statistics.fmean(rep[k] for rep in layers) for k in layers[0]}
    m = {k: v / 1e9 for k, v in mean.items() if k.endswith("_s")}
    for k in ("network.edges", "coding.memo_entries", "cir.sweeps", "cir.ops",
              "partition.from_colors_calls", "lattice.cir_calls", "lattice.elements",
              "dynamics.rk4_steps", "dynamics.max_dev"):
        m[k] = mean[k]
    edges = mean["network.wire_edges"]
    m["network.weight_reuse"] = 1 - mean["network.wire_weights"] / edges if edges else 0.0
    m["network.ingest_ratio"] = (
        (m["network.json_s"] + m["network.build_s"] + m["coding.code_s"]) / m["network.json_s"]
        if m["network.json_s"] else 0.0
    )
    m["lattice.yield"] = m["lattice.elements"] / m["lattice.cir_calls"] if m["lattice.cir_calls"] else 0.0
    m["dynamics.max_dev"] = max(rep["dynamics.max_dev"] for rep in layers)
    traced = [r for r in result["reps"] if r["traced"]]
    m["dynamics.defect_probe_failures"] = max(len(r["probe_failures"]) for r in traced)
    m["trace.wall_s"] = mean["wall_ns"] / 1e9
    walls = {flag: statistics.median(at_reference_speed(sum(r["job_ns"]), r["cal_ns"])
                                     for r in result["reps"] if r["traced"] == flag)
             for flag in (False, True)}
    m["trace_overhead"] = walls[True] / walls[False] - 1
    return m, adds_up


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "synchro" / "__init__.py").is_file():
        print(f"perfbench: no synchro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(args, work: Path) -> int:
    jobs = gen.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), work)
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps({"jobs": jobs}))
    setup, setup_cal_ns = measure_setup() if args.trace == 0 else ([], [])

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = work / "worker.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(args.seconds),
         str(args.trace), str(raw)],
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(raw.read_text())
    smoke_failure = smoke(jobs[0], raw.with_suffix(".first").read_bytes())
    if args.trace:
        shutil.move(raw.with_suffix(".spans.json"), stem.with_suffix(".spans.json"))

    reps = [result["warmup"], *result["reps"]]
    regular = len(result["jobs"]) - len(result["probes"])
    attempted = regular * len(reps) + 1  # every repetition plus the smoke check
    failures = [f for r in reps for f in r["failures"]]
    if smoke_failure:
        failures.append(["smoke", smoke_failure])
    probe_runs = len(result["probes"]) * len(reps)
    probe_failures = [f for r in reps for f in r["probe_failures"]]

    untraced = [sum(r["job_ns"]) / 1e9 for r in result["reps"] if not r["traced"]]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(result['reps'])} timed repetitions of {len(result['jobs'])} jobs"]
    correct = not failures
    if args.trace == 0:
        metrics = {
            "wall_cal_s": statistics.median(at_reference_speed(sum(r["job_ns"]) / 1e9, r["cal_ns"])
                                            for r in result["reps"]),
            "setup_s": at_reference_speed(statistics.median(setup), setup_cal_ns),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        t = tail(untraced)
        cal = statistics.median(c for r in result["reps"] for c in r["cal_ns"]) / 1e6
        lines.append(f"  wall_s (raw) samples {len(untraced)}: median {statistics.median(untraced):.4f} s, "
                     + (f"p{t[0]} {t[1]:.4f} s" if t else
                        f"no percentile has 10 samples above it; max {max(untraced):.4f} s"))
        lines.append(f"  calibration median {cal:.2f} ms (reference {CAL_REF_S * 1e3:.0f} ms); "
                     f"wall_cal_s {metrics['wall_cal_s']:.4f} s")
        for i, name in enumerate(result["jobs"]):
            med = statistics.median(r["job_ns"][i] for r in result["reps"]) / 1e9
            lines.append(f"    job {name}: median {med:.4f} s")
        lines.append(f"  setup_s (raw) samples {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup))
    else:
        metrics, adds_up = layer_metrics(result)
        correct = correct and adds_up
        lines.append(f"  per-layer table: mean over {len(result['layers'])} traced repetitions; "
                     f"self times sum to trace.wall_s: {'yes' if adds_up else 'NO'}")
    lines.append(f"  error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for name, why in failures[:5]:
        lines.append(f"    FAILED {name}: {why.strip().splitlines()[-1][:300]}")
    if probe_runs:
        lines.append(f"  known-defect probes (ROADMAP 4a, signed zeros): "
                     f"{len(probe_failures)}/{probe_runs} failed")
        for name, why in probe_failures[:len(result["probes"])]:
            lines.append(f"    probe {name}: {why.strip().splitlines()[-1][:300]}")
    host = dict(result["host"], git=git_sha())
    lines.append("  host " + " ".join(f"{k}={v}" for k, v in host.items()))
    lines.append(f"  kernel {host['kernel']}: compare only with results from the same kernel")
    units = END_TO_END if args.trace == 0 else PER_LAYER
    for name, unit in units.items():
        lines.append(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": correct, "attempted": attempted,
        "failures": failures, "probe_runs": probe_runs, "probe_failures": probe_failures,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "wall_samples_s": untraced, "setup_samples_s": setup, "setup_cal_ns": setup_cal_ns,
        "job_ns": {name: [r["job_ns"][i] for r in result["reps"]]
                   for i, name in enumerate(result["jobs"])},
        "cal_ns": [r["cal_ns"] for r in result["reps"]],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
