"""Reference semantics the benchmark checks the program's outputs against.

Everything here works on the JSON wire format directly and imports nothing
from ``synchro``: exact weight values, merged in-adjacency rows, one
straightforward color-refinement loop and the partition helpers the checks
need, plus the calibration workload. It is written for clarity, not
speed, and only ever runs outside the timed region.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

SHORT = ("short",)  # the zero-ohm resistor, absorbing under parallel
ANNIHILATOR = ("annihilator",)  # the element adjoined by with_annihilator


def identity(spec: dict):
    kind = spec["kind"]
    if kind == "resistor_parallel":
        return Fraction(0)
    if kind == "natural_add":
        return 0
    if kind == "natural_mul":
        return 1
    if kind == "free_commutative":
        return ()
    if kind == "product":
        return tuple(identity(p) for p in spec["parts"])
    if kind == "with_annihilator":
        return identity(spec["inner"])
    raise ValueError(f"unknown monoid kind {kind!r}")


def decode(spec: dict, obj):
    """The exact value of one wire-format weight."""
    kind = spec["kind"]
    if kind == "resistor_parallel":
        r = obj["r"]
        if r == "inf":
            return Fraction(0)
        r = Fraction(r)
        return SHORT if r == 0 else 1 / r
    if kind in ("natural_add", "natural_mul"):
        return obj["n"]
    if kind == "free_commutative":
        return tuple(sorted((g, c) for g, c in obj["gens"].items() if c))
    if kind == "product":
        return tuple(decode(p, v) for p, v in zip(spec["parts"], obj["tuple"]))
    if kind == "with_annihilator":
        if obj.get("annihilator") is True:
            return ANNIHILATOR
        return decode(spec["inner"], obj)
    raise ValueError(f"unknown monoid kind {kind!r}")


def combine(spec: dict, a, b):
    kind = spec["kind"]
    if kind == "resistor_parallel":
        return SHORT if SHORT in (a, b) else a + b
    if kind == "natural_add":
        return a + b
    if kind == "natural_mul":
        return a * b
    if kind == "free_commutative":
        counts = dict(a)
        for g, c in b:
            counts[g] = counts.get(g, 0) + c
        return tuple(sorted(counts.items()))
    if kind == "product":
        return tuple(combine(p, x, y) for p, x, y in zip(spec["parts"], a, b))
    if kind == "with_annihilator":
        if ANNIHILATOR in (a, b):
            return ANNIHILATOR
        return combine(spec["inner"], a, b)
    raise ValueError(f"unknown monoid kind {kind!r}")


class RefNetwork:
    """A wire-format network decoded into merged exact rows."""

    def __init__(self, doc: dict):
        self.types = list(doc["types"])
        self.cells = [c["id"] for c in doc["cells"]]
        self.index = {cell: i for i, cell in enumerate(self.cells)}
        self.cell_types = [c["type"] for c in doc["cells"]]
        self.monoids = {
            (m["target_type"], m["source_type"]): {
                k: v for k, v in m.items() if k not in ("target_type", "source_type")
            }
            for m in doc["monoids"]
        }
        self.rows: list[dict[int, object]] = [{} for _ in self.cells]
        for e in doc["edges"]:
            c, d = self.index[e["to"]], self.index[e["from"]]
            spec = self.spec(c, d)
            w = decode(spec, e["weight"])
            row = self.rows[c]
            row[d] = combine(spec, row[d], w) if d in row else w
        for c, row in enumerate(self.rows):
            for d in [d for d, w in row.items() if w == identity(self.spec(c, d))]:
                del row[d]

    @property
    def n(self) -> int:
        return len(self.cells)

    def spec(self, c: int, d: int) -> dict:
        return self.monoids[(self.cell_types[c], self.cell_types[d])]

    def color_sums(self, colors, c: int) -> dict:
        """Per-color parallel sums of row ``c``; identity sums are left out."""
        sums: dict = {}
        for d, w in self.rows[c].items():
            spec = self.spec(c, d)
            k = colors[d]
            sums[k] = (spec, combine(spec, sums[k][1], w) if k in sums else w)
        return {k: v for k, (spec, v) in sums.items() if v != identity(spec)}

    def type_colors(self) -> tuple[int, ...]:
        return canonical(self.cell_types)

    def sweep(self, colors) -> tuple[int, ...]:
        return canonical(
            (colors[c], frozenset(self.color_sums(colors, c).items())) for c in range(self.n)
        )

    def refine(self, colors) -> tuple[int, ...]:
        """Coarsest balanced coloring finer than ``colors`` (canonical form)."""
        colors = canonical(colors)
        while True:
            new = self.sweep(colors)
            if max(new) == max(colors):
                return colors
            colors = new

    def is_balanced(self, colors) -> bool:
        colors = canonical(colors)
        return max(self.sweep(colors)) == max(colors)

    def merged_edges(self) -> dict[tuple[str, str], object]:
        return {
            (self.cells[c], self.cells[d]): w
            for c, row in enumerate(self.rows)
            for d, w in row.items()
        }


def canonical(labels) -> tuple[int, ...]:
    """Colors 1..rank in first-occurrence order."""
    relabel: dict = {}
    return tuple(relabel.setdefault(x, len(relabel) + 1) for x in labels)


def classes(colors) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(colors))]
    for i, k in enumerate(colors):
        out[k - 1].append(i)
    return out


def fmt(colors, cells) -> str:
    """The CLI's partition text: classes in color order, members in cell order."""
    return ";".join(",".join(cells[i] for i in cls) for cls in classes(canonical(colors)))


def parse(text: str, cells) -> tuple[int, ...]:
    index = {cell: i for i, cell in enumerate(cells)}
    colors = [0] * len(cells)
    for k, group in enumerate(text.split(";"), start=1):
        for member in group.split(","):
            colors[index[member]] = k
    return canonical(colors)


def join(a, b) -> tuple[int, ...]:
    """Finest coloring coarser than both: merge along chains through a and b."""
    parent = list(range(len(a)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for colors in (a, b):
        first: dict[int, int] = {}
        for i, k in enumerate(colors):
            if k in first:
                parent[find(i)] = find(first[k])
            else:
                first[k] = i
    return canonical(find(i) for i in range(len(a)))


def is_finer(a, b) -> bool:
    image: dict[int, int] = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a, b))


def set_partitions(items: list[int]):
    """Every set partition of ``items``, as lists of classes."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


class Calibration:
    """A fixed piece of reference work whose duration tracks the host's speed.

    Color refinement of one fixed 1000-cell random graph, about 20 ms. The
    worker times it before the first job and after every job, and run.py
    around every set-up sample, so each measurement carries its own
    readings of how fast the host runs Python at that moment, independent
    of the program under test.
    """

    def __init__(self, cells: int = 1000):
        rng = random.Random(0)
        self.net = RefNetwork({
            "types": ["n"],
            "cells": [{"id": str(i), "type": "n"} for i in range(cells)],
            "monoids": [{"target_type": "n", "source_type": "n", "kind": "natural_add"}],
            "edges": [{"to": str(i), "from": str(rng.randrange(cells)),
                       "weight": {"n": rng.randint(1, 3)}}
                      for i in range(cells) for _ in range(2)],
        })

    def __call__(self) -> int:
        """Nanoseconds one refinement takes now."""
        start = time.perf_counter_ns()
        self.net.refine([1] * self.net.n)
        return time.perf_counter_ns() - start
