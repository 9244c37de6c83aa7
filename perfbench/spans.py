"""Span tracing around the public functions of each ``synchro`` layer.

``Tracer.install()`` replaces every public function listed in LAYERS, in
every loaded ``synchro`` module that holds a reference to it, with a
wrapper that records one span per call: name, start and end (perf
counter nanoseconds), parent span and job id. ``uninstall()`` puts the
originals back, so untraced repetitions run the unmodified program. Spans
stay in memory; ``rep_metrics`` turns one repetition's spans into self
times (a span's duration minus its children's) and work counters.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (module, attribute, span name). Class attributes are written "Class.method".
LAYERS = (
    ("synchro.network", "parse_network", "network.parse"),
    ("synchro.network", "network_from_json", "network.from_json"),
    ("synchro.network", "Network.build", "network.build"),
    ("synchro.network", "serialize_network", "network.serialize"),
    ("synchro.network", "network_to_json", "network.to_json"),
    ("synchro.coding", "coded", "coding.coded"),
    ("synchro.cir", "cir", "cir.cir"),
    ("synchro.cir", "top", "cir.top"),
    ("synchro.cir", "cir_iteration", "cir.cir_iteration"),
    ("synchro.balance", "is_balanced", "balance.is_balanced"),
    ("synchro.balance", "quotient", "balance.quotient"),
    ("synchro.partition", "Partition.from_colors", "partition.from_colors"),
    ("synchro.partition", "parse_partition", "partition.parse"),
    ("synchro.partition", "format_partition", "partition.format"),
    ("synchro.lattice", "enumerate_balanced", "lattice.enumerate"),
    ("synchro.lattice", "join", "lattice.join"),
    ("synchro.lattice", "meet", "lattice.meet"),
    ("synchro.dynamics", "simulate_map", "dynamics.simulate_map"),
    ("synchro.dynamics", "simulate_ode", "dynamics.simulate_ode"),
    ("synchro.dynamics", "quotient_match", "dynamics.quotient_match"),
    ("synchro.dynamics", "linear_oracle", "dynamics.linear_oracle"),
    ("synchro.dynamics", "parse_oracle", "dynamics.parse_oracle"),
    ("synchro.dynamics", "trajectory_csv", "dynamics.trajectory_csv"),
)

# Which self-time metric each span name adds to. Together they cover every
# span, so per repetition they sum exactly to the traced wall time.
SELF_METRIC = {
    "harness.job": "harness.self_s",
    "cli.main": "cli.self_s",
    "network.parse": "network.json_s",
    "network.from_json": "network.build_s",
    "network.build": "network.build_s",
    "network.serialize": "network.serialize_s",
    "network.to_json": "network.serialize_s",
    "coding.coded": "coding.code_s",
    "cir.cir": "cir.refine_s",
    "cir.top": "cir.refine_s",
    "cir.cir_iteration": "cir.refine_s",
    "balance.is_balanced": "balance.check_s",
    "balance.quotient": "balance.quotient_s",
    "partition.from_colors": "partition.from_colors_s",
    "partition.parse": "partition.text_s",
    "partition.format": "partition.text_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "lattice.join": "lattice.meet_join_s",
    "lattice.meet": "lattice.meet_join_s",
    "dynamics.simulate_map": "dynamics.map_s",
    "dynamics.simulate_ode": "dynamics.ode_s",
    "dynamics.quotient_match": "dynamics.ode_s",
    "dynamics.linear_oracle": "dynamics.other_s",
    "dynamics.parse_oracle": "dynamics.other_s",
    "dynamics.trajectory_csv": "dynamics.other_s",
}

# Spans whose arguments or results feed a counter; they are kept and read
# after the job, outside every timed interval.
OBSERVED = {
    "network.from_json", "network.build", "coding.coded", "cir.cir", "cir.cir_iteration",
    "lattice.enumerate", "dynamics.quotient_match",
}

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.observed: list[tuple] = []  # (span index, args, kwargs, result)
        self._stack: list[int] = []
        self._job = None
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._job]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter_ns()
            self._stack.pop()
        if name in OBSERVED:
            self.observed.append((idx, args, kwargs, result))
        return result

    def job(self, job_id, fn, *args):
        """Run one job as a root span; returns the result."""
        self._job = job_id
        try:
            return self.span("harness.job", fn, *args)
        finally:
            self._job = None

    def _wrap(self, name: str, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "synchro" or n.startswith("synchro."))]
        for modname, attr, name in LAYERS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                desc = cls.__dict__[meth]
                wrapped = type(desc)(self._wrap(name, desc.__func__))
                self._patches.append((cls, meth, desc))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- per-repetition metrics ------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.observed.clear()

    def rep_metrics(self) -> dict:
        """Self times (ns) and counters of everything recorded since reset()."""
        spans = self.spans
        self_ns = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                self_ns[s[PARENT]] -= s[END] - s[START]
        out: dict = {m: 0 for m in set(SELF_METRIC.values())}
        for s, t in zip(spans, self_ns):
            out[SELF_METRIC[s[NAME]]] += t
        out["wall_ns"] = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        out["self_sum_ns"] = sum(self_ns)
        out["partition.from_colors_calls"] = sum(s[NAME] == "partition.from_colors" for s in spans)

        def under(idx: int, ancestor: str) -> bool:
            while idx >= 0:
                if spans[idx][NAME] == ancestor:
                    return True
                idx = spans[idx][PARENT]
            return False

        counts = {k: 0 for k in ("network.edges", "network.wire_edges", "network.wire_weights",
                                 "coding.memo_entries", "cir.sweeps", "cir.ops",
                                 "lattice.cir_calls", "lattice.elements",
                                 "dynamics.rk4_steps")}
        max_dev = 0.0
        views = {}
        for idx, args, kwargs, result in self.observed:
            name = spans[idx][NAME]
            if name == "network.from_json":
                edges = args[0]["edges"]
                counts["network.wire_edges"] += len(edges)
                counts["network.wire_weights"] += len({json.dumps(e["weight"], sort_keys=True)
                                                       for e in edges})
            elif name == "network.build":
                counts["network.edges"] += result.edge_count()
            elif name == "coding.coded":
                views[id(result)] = result
            elif name == "cir.cir":
                counts["cir.sweeps"] += len(result.iterations)
                counts["cir.ops"] += sum(result.ops)
                if under(idx, "lattice.enumerate"):
                    counts["lattice.cir_calls"] += 1
            elif name == "cir.cir_iteration":
                counts["cir.sweeps"] += 1
            elif name == "lattice.enumerate":
                counts["lattice.elements"] += len(result.elements)
            elif name == "dynamics.quotient_match":
                horizon = kwargs.get("horizon", 10.0)
                dt = kwargs.get("dt", 1e-3)
                if kwargs.get("mode", "ode") == "ode":
                    counts["dynamics.rk4_steps"] += 2 * int(round(horizon / dt))
                max_dev = max(max_dev, result)
        counts["coding.memo_entries"] = sum(len(v.memo) for v in views.values())
        out.update(counts)
        out["dynamics.max_dev"] = max_dev
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: one [name, start, end, parent, job] per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
