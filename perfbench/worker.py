"""Runs one workload's job list in a fresh process: timed, checked, optionally traced.

    python3 perfbench/worker.py <jobs.json> <seconds> <trace 0|1> <result.json>

One untimed warm-up repetition comes first; its output of the first job
is kept for the subprocess smoke check. Then whole job lists repeat, one
after another in this single thread, until ``seconds`` have passed. Only
the calls into ``synchro`` are timed; every output is checked afterwards
against ``ref``. With trace 1, untraced and traced repetitions alternate.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import synchro  # noqa: E402
from synchro import cli, dynamics, lattice, network, partition  # noqa: E402

import ref  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_REPS = 3


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- running jobs --------------------------------------------------------------


def run_cli(job, ctx, tracer):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                cli.main(job["argv"], standalone_mode=False)
            else:
                tracer.span("cli.main", cli.main, job["argv"], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_roundtrip(job, ctx, tracer):
    net = network.parse_network(read(job["network"]))
    text = network.serialize_network(net)
    return net, text, network.parse_network(text)


def run_meet_join(job, ctx, tracer):
    net = network.parse_network(read(job["network"]))
    texts = ctx[job["elements_from"]]
    elements = [partition.parse_partition(e, net.cells) for e in texts]
    return texts, [
        (i, j, lattice.join(net, a, b), lattice.meet(net, a, b))
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if i < j
    ]


def run_quotient_match(job, ctx, tracer):
    net = network.parse_network(read(job["network"]))
    oracle = dynamics.linear_oracle(net)
    out = []
    for pair in job["pairs"]:
        part = partition.parse_partition(pair["partition"], net.cells)
        x0 = partition.lift(part, pair["reduced"])
        traj = dynamics.simulate_map(net, oracle, x0, 100)
        dev = dynamics.quotient_match(net, part, oracle, pair["reduced"], horizon=10.0, dt=1e-3)
        out.append((traj, dev))
    return out


def run_map_step(job, ctx, tracer):
    net = network.parse_network(read(job["network"]))
    part = partition.parse_partition(job["partition"], net.cells)
    oracle = dynamics.linear_oracle(net)
    return dynamics.simulate_map(net, oracle, partition.lift(part, job["reduced"]), 1)


RUNNERS = {
    "cli": run_cli,
    "roundtrip": run_roundtrip,
    "meet_join": run_meet_join,
    "quotient_match": run_quotient_match,
    "map_step": run_map_step,
}


# -- checking outputs ----------------------------------------------------------


class Checker:
    """Verifies job outputs with ``ref``; returns None or the reason it failed."""

    def __init__(self):
        self._refs: dict[str, ref.RefNetwork] = {}
        self._verdicts: dict = {}

    def ref(self, path: str) -> ref.RefNetwork:
        if path not in self._refs:
            self._refs[path] = ref.RefNetwork(json.loads(read(path)))
        return self._refs[path]

    def check(self, job, result, ctx):
        if job["kind"] == "cli":
            key = (job["name"], *result)
            if key not in self._verdicts:
                self._verdicts[key] = self._check_cli(job, *result)
            verdict = self._verdicts[key]
            if verdict is None and job["check"] in ("lattice_closed", "lattice_divisors"):
                ctx[job["name"]] = json.loads(result[1])["elements"]
            return verdict
        return getattr(self, "check_" + job["check"])(job, result)

    def _check_cli(self, job, code, out, err):
        kind = job["check"]
        expected_code = 1 if kind == "not_balanced" else 0
        if code != expected_code:
            return f"exit {code}, expected {expected_code}: {err.strip()[:300]}"
        return getattr(self, "check_" + kind)(job, out, err)

    def check_stdout(self, job, out, err):
        return None if out == job["expect"] else "stdout differs from the expected text"

    def check_json(self, job, out, err):
        return None if json.loads(out) == job["expect"] else f"output {out[:200]!r} is wrong"

    def check_not_balanced(self, job, out, err):
        obj = json.loads(err)
        if obj.get("error") != "not_balanced":
            return f"expected a not_balanced error, got {err[:200]!r}"
        net = self.ref(job["network"])
        colors = ref.parse(job["partition"], net.cells)
        c, d = (net.index[x] for x in obj["cells"])
        k = obj["color"]
        if colors[c] != colors[d]:
            return "counterexample cells have different colors"
        if net.color_sums(colors, c).get(k) == net.color_sums(colors, d).get(k):
            return f"counterexample cells agree on color {k}"
        return None

    def check_quotient(self, job, out, err):
        net = self.ref(job["network"])
        colors = ref.parse(job["partition"], net.cells)
        members = ref.classes(colors)
        ids = ["+".join(sorted(net.cells[i] for i in cls)) for cls in members]
        edges = {
            (ids[k], ids[l - 1]): w
            for k, cls in enumerate(members)
            for l, w in net.color_sums(colors, cls[0]).items()
        }
        got = ref.RefNetwork(json.loads(out))
        if got.cells != ids or got.cell_types != [net.cell_types[c[0]] for c in members]:
            return "quotient cells or types are wrong"
        if got.types != net.types or got.monoids != net.monoids:
            return "quotient types or monoids are wrong"
        if got.merged_edges() != edges:
            return "quotient weights are wrong"
        return None

    def check_roundtrip(self, job, result):
        net, text, again = result
        got, want = ref.RefNetwork(json.loads(text)), self.ref(job["network"])
        same = (got.types, got.cells, got.cell_types, got.monoids, got.merged_edges()) == (
            want.types, want.cells, want.cell_types, want.monoids, want.merged_edges())
        if not same:
            return "serialized network differs from the input"
        if not again == net:
            return "parsing the serialized network gives a different network"
        return None

    def check_chain(self, job, out, err):
        cells = job["cells"]
        n = len(cells)
        steps = [(";".join(cells[:s]) + ";" + ",".join(cells[s:]), s + 1) for s in range(1, n)]
        steps.append(steps[-1])
        obj = json.loads(out)
        if obj["seed"] != ",".join(cells) or obj["converged"] != ";".join(cells):
            return "chain did not converge to the discrete coloring"
        if [(it["partition"], it["rank"]) for it in obj["iterations"]] != steps:
            return "chain sweeps do not peel one cell each"
        return None

    def check_lattice_divisors(self, job, out, err):
        net = self.ref(job["network"])
        ring = job["ring"]
        n = len(ring)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        by_text = {}
        for d in divisors:
            colors = [0] * n
            for i, cell in enumerate(ring):
                colors[net.index[cell]] = i % d
            by_text[ref.fmt(colors, net.cells)] = d
        obj = json.loads(out)
        if sorted(obj["elements"]) != sorted(by_text) or not obj["complete"]:
            return f"expected one element per divisor of {n}"
        div = [by_text[e] for e in obj["elements"]]
        want = {
            (a, b) for a in divisors for b in divisors
            if a != b and a % b == 0
            and not any(c not in (a, b) and a % c == 0 and c % b == 0 for c in divisors)
        }
        if {(div[i], div[j]) for i, j in obj["covers"]} != want:
            return "covers are not the divisor lattice's"
        return None

    def check_lattice_closed(self, job, out, err):
        net = self.ref(job["network"])
        obj = json.loads(out)
        elements = [ref.parse(e, net.cells) for e in obj["elements"]]
        if len(set(elements)) != job["elements"] or len(elements) != job["elements"]:
            return f"{len(elements)} elements, expected {job['elements']}"
        if not obj["complete"] or not all(net.is_balanced(e) for e in elements):
            return "an element is not balanced"
        top = net.refine(net.type_colors())
        if top not in elements or tuple(range(1, net.n + 1)) not in elements:
            return "top or bottom is missing"
        below = {(i, j) for i, a in enumerate(elements) for j, b in enumerate(elements)
                 if i != j and ref.is_finer(a, b)}
        covers = {(i, j) for i, j in below
                  if not any((i, k) in below and (k, j) in below for k in range(len(elements)))}
        if {tuple(c) for c in obj["covers"]} != covers:
            return "covers are not the refinement order's"
        return None

    def check_meet_join(self, job, result):
        texts, pairs = result
        net = self.ref(job["network"])
        elements = [ref.parse(t, net.cells) for t in texts]
        for i, j, joined, met in pairs:
            a, b = elements[i], elements[j]
            if joined.colors != ref.join(a, b):
                return f"join of elements {i} and {j} is wrong"
            if met.colors != net.refine(zip(a, b)):
                return f"meet of elements {i} and {j} is wrong"
        return None

    def check_quotient_match(self, job, result):
        cells = self.ref(job["network"]).cells
        for pair, (traj, dev) in zip(job["pairs"], result):
            verdict = synchronized(ref.parse(pair["partition"], cells), traj.states)
            if verdict:
                return verdict
            if not (math.isfinite(dev) and dev <= 1e-8):
                return f"quotient flow deviates by {dev!r} > 1e-8"
        return None

    def check_map_synchronized(self, job, result):
        colors = ref.parse(job["partition"], self.ref(job["network"]).cells)
        return synchronized(colors, result.states)

    def check_synchronized(self, job, out, err):
        rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
        if len(rows) != job["steps"] + 1 or any(len(r) != len(job["colors"]) for r in rows):
            return "trajectory has the wrong shape"
        return synchronized(job["colors"], rows, exact=str)


def synchronized(colors, states, exact=float.hex):
    """None when every class holds bitwise-equal values at every time."""
    first: dict[int, int] = {}
    pairs = []
    for i, k in enumerate(colors):
        if k in first:
            pairs.append((first[k], i))
        else:
            first[k] = i
    for t, state in enumerate(states):
        for i, j in pairs:
            if exact(state[i]) != exact(state[j]):
                return f"cells {i} and {j} differ at step {t}: {state[i]!r} vs {state[j]!r}"
    return None


# -- the measurement loop ------------------------------------------------------


def run_rep(jobs, checker: Checker, tracer: Tracer | None, rep: int, calibrate) -> dict:
    """One pass over the job list: per-job nanoseconds, calibrations and failed checks."""
    ctx: dict = {}
    job_ns, failures, probe_failures = [], [], []
    cal_ns = [calibrate()]
    first_stdout = None
    for idx, job in enumerate(jobs):
        runner = RUNNERS[job["kind"]]
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = runner(job, ctx, None)
            else:
                result = tracer.job((rep, idx), runner, job, ctx, tracer)
        except Exception:  # a crash is a failed job, never the end of the run
            job_ns.append(time.perf_counter_ns() - start)
            verdict = "raised " + traceback.format_exc(limit=-3)
        else:
            job_ns.append(time.perf_counter_ns() - start)
            try:
                verdict = checker.check(job, result, ctx)
            except Exception:
                verdict = "output could not be checked: " + traceback.format_exc(limit=-3)
            if idx == 0 and job["kind"] == "cli":
                first_stdout = result[1]
            del result
        if verdict is not None:
            (probe_failures if job.get("probe") else failures).append([job["name"], verdict])
        cal_ns.append(calibrate())
    return {"traced": tracer is not None, "job_ns": job_ns, "cal_ns": cal_ns,
            "failures": failures, "probe_failures": probe_failures, "first_stdout": first_stdout}


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None when it cannot be read."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def host():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": threads,
        "kernel": synchro.kernel_name(),
    }


def main(argv) -> int:
    jobs_path, seconds, trace, out_path = argv[1], float(argv[2]), argv[3] == "1", Path(argv[4])
    if not Path(synchro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"synchro was imported from {synchro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    jobs = json.loads(read(jobs_path))["jobs"]
    checker = Checker()
    tracer = Tracer() if trace else None
    calibrate = ref.Calibration()

    warmup = run_rep(jobs, checker, None, -1, calibrate)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out_path.with_suffix(".first").write_bytes((warmup.pop("first_stdout") or "").encode())
    reps, layers = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rep = run_rep(jobs, checker, tracer if traced else None, len(reps), calibrate)
        finally:
            if traced:
                tracer.uninstall()
        del rep["first_stdout"]
        if traced:
            layers.append(tracer.rep_metrics())
        reps.append(rep)
        done = time.perf_counter() - start >= seconds and len(reps) >= MIN_REPS
        if done and not (trace and (len(reps) % 2 or len(reps) < 4)):
            break
    if trace:
        tracer.dump(out_path.with_suffix(".spans.json"))
    out_path.write_text(json.dumps({
        "jobs": [j["name"] for j in jobs],
        "probes": [j["name"] for j in jobs if j.get("probe")],
        "warmup": warmup,
        "reps": reps,
        "layers": layers,
        "peak_rss_kb": peak_rss_kb,
        "host": host(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
