"""Complexity measurements for the refinement algorithm.

The adversarial family is a directed chain with unit weights: refining
from the all-one-color seed peels off one cell per sweep, so the number of
sweeps grows linearly in the cell count -- the most the convergence bound
allows. A sweep costs |C| + |E|, so the total work grows quadratically on
the chain, inside the O(|C|^3) bound. Operation counts come from the
sweeps themselves (rows keyed plus edges visited), so a regression to
dense or pairwise row comparison would show up as a steeper log-log slope.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cir import CirTrace, cir
from .monoid import MonoidRegistry, NaturalAdd
from .network import Network
from .partition import Partition


def chain_network(n: int) -> Network:
    """Directed chain 1 -> 2 -> ... -> n with unit additive weights."""
    cells = [str(i) for i in range(1, n + 1)]
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    edges = [(cells[i + 1], cells[i], 1) for i in range(n - 1)]
    return Network.build(cells, ["cell"] * n, ["cell"], registry, edges)


@dataclass(frozen=True)
class RunMeasurement:
    size: int
    edges: int
    sweeps: int
    total_ops: int
    ops_per_sweep: tuple[int, ...]
    model_per_sweep: tuple[int, ...]  # |C| + |E| for each sweep
    seconds: float

    @property
    def matches_model(self) -> bool:
        return self.ops_per_sweep == self.model_per_sweep


def measure_chain(n: int) -> RunMeasurement:
    """Refine the n-cell chain from one color and record the work done."""
    net = chain_network(n)
    seed = Partition.single(n)
    start = time.perf_counter()
    trace: CirTrace = cir(net, seed)
    elapsed = time.perf_counter() - start
    edges = net.edge_count()
    model = (net.n + edges,) * len(trace.iterations)
    return RunMeasurement(
        size=n,
        edges=edges,
        sweeps=len(trace.iterations),
        total_ops=trace.total_ops,
        ops_per_sweep=trace.ops,
        model_per_sweep=model,
        seconds=elapsed,
    )


@dataclass(frozen=True)
class ComplexityReport:
    runs: tuple[RunMeasurement, ...]
    slope: float

    @property
    def ok(self) -> bool:
        """Cubic-or-better growth and per-sweep counts matching the model."""
        return self.slope <= 3.2 and all(r.matches_model for r in self.runs)


def complexity_suite(sizes=(64, 128, 256, 512, 1024)) -> ComplexityReport:
    """Measure the chain family across sizes and fit the log-log growth."""
    runs = tuple(measure_chain(n) for n in sizes)
    xs = np.log([r.size for r in runs])
    ys = np.log([r.total_ops for r in runs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ComplexityReport(runs=runs, slope=slope)


def report_lines(report: ComplexityReport) -> list[str]:
    lines = [
        f"{'size':>6} {'edges':>6} {'sweeps':>6} {'total ops':>12} {'seconds':>9}",
    ]
    for r in report.runs:
        lines.append(
            f"{r.size:>6} {r.edges:>6} {r.sweeps:>6} {r.total_ops:>12} {r.seconds:>9.3f}"
        )
    lines.append(f"log-log slope: {report.slope:.3f} (cubic bound 3.2)")
    lines.append("per-sweep counts match |C| + |E|: "
                 + ("yes" if all(r.matches_model for r in report.runs) else "NO"))
    return lines

