"""Fixture networks used across the suite.

``resistor6`` is the 6-cell two-type resistor network whose refinement
trace is tabulated step by step; ``triangle3`` the 3-cell loop with unit
additive weights and one doubled input; ``chain3`` the directed path whose
only balanced coloring is the trivial one. ``work`` counts the rows read
and the sweeps run while a test runs.

Every hypothesis test draws its cases from a fixed seed, so each run,
local or CI, tries the same examples.
"""
import importlib
import sys

import pytest
from hypothesis import settings

from synchro import MonoidRegistry, NaturalAdd, Network, ResistorParallel
from synchro.coding import CodedNetwork

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def make_resistor6() -> Network:
    spec = ResistorParallel()
    w = spec.from_resistance(30)
    registry = MonoidRegistry.uniform(spec, 2)
    cells = ["1", "2", "3", "4", "5", "6"]
    types = ["a", "a", "b", "b", "a", "a"]
    sources = {
        "1": ["1", "2", "3"],
        "2": ["1", "2", "3"],
        "3": ["1", "4", "5"],
        "4": ["3", "5", "6"],
        "5": ["1", "5"],
        "6": ["2", "5"],
    }
    edges = [(tgt, src, w) for tgt, srcs in sources.items() for src in srcs]
    return Network.build(cells, types, ["a", "b"], registry, edges)


def make_triangle3() -> Network:
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    cells = ["1", "2", "3"]
    matrix = [[1, 0, 1], [1, 0, 1], [1, 1, 1]]
    edges = [
        (cells[c], cells[d], matrix[c][d])
        for c in range(3)
        for d in range(3)
        if matrix[c][d]
    ]
    return Network.build(cells, ["t"] * 3, ["t"], registry, edges)


def make_chain(n: int) -> Network:
    """The directed path 1 -> 2 -> ... -> n with unit additive weights: each
    sweep from the one-class coloring splits off one more cell."""
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    cells = [str(i + 1) for i in range(n)]
    edges = [(cells[i + 1], cells[i], 1) for i in range(n - 1)]
    return Network.build(cells, ["t"] * n, ["t"], registry, edges)


def make_chain3() -> Network:
    return make_chain(3)


@pytest.fixture
def resistor6() -> Network:
    return make_resistor6()


@pytest.fixture
def triangle3() -> Network:
    return make_triangle3()


@pytest.fixture
def chain3() -> Network:
    return make_chain3()


@pytest.fixture
def work(monkeypatch) -> dict[str, int]:
    """Calls of ``CodedNetwork.row_sums`` (rows read one at a time) and of
    ``synchro.cir._sweep`` (sweeps), counted from zero; the sweep is counted
    in every synchro module that imported it."""
    calls = {"row_sums": 0, "_sweep": 0}
    real_row_sums = CodedNetwork.row_sums
    # the package exports a function named ``cir``, which shadows the module
    real_sweep = importlib.import_module("synchro.cir")._sweep

    def counting_row_sums(*args):
        calls["row_sums"] += 1
        return real_row_sums(*args)

    def counting_sweep(*args):
        calls["_sweep"] += 1
        return real_sweep(*args)

    monkeypatch.setattr(CodedNetwork, "row_sums", counting_row_sums)
    for name, module in list(sys.modules.items()):
        if name.startswith("synchro.") and getattr(module, "_sweep", None) is real_sweep:
            monkeypatch.setattr(module, "_sweep", counting_sweep)
    return calls
