"""Fixture networks used across the suite.

``resistor6`` is the 6-cell two-type resistor network whose refinement
trace is tabulated step by step; ``triangle3`` the 3-cell loop with unit
additive weights and one doubled input; ``chain3`` the directed path whose
only balanced coloring is the trivial one.

Every hypothesis test draws its cases from a fixed seed, so each run,
local or CI, tries the same examples.
"""
import pytest
from hypothesis import settings

from synchro import MonoidRegistry, NaturalAdd, Network, ResistorParallel

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


def make_chain3() -> Network:
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    cells = ["1", "2", "3"]
    return Network.build(
        cells, ["t"] * 3, ["t"], registry, [("2", "1", 1), ("3", "2", 1)]
    )


@pytest.fixture
def resistor6() -> Network:
    return make_resistor6()


@pytest.fixture
def triangle3() -> Network:
    return make_triangle3()


@pytest.fixture
def chain3() -> Network:
    return make_chain3()
