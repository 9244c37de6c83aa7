"""Seeded input generation for the four workloads.

Each ``make_<workload>(rng, workdir)`` writes network, oracle and state
files in the CLI's JSON/CSV formats and returns the workload's job list.
A job is a plain dict: ``name``, ``kind`` (how the worker runs it),
``check`` (how its output is verified) and the arguments both need.
Nothing here is timed and nothing here imports ``synchro``: inputs and
expected values come from the generator and ``ref`` alone.
"""
from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

from ref import RefNetwork, canonical, fmt, set_partitions

# Sizes of the generated inputs; the timed cost of a run scales with these.
INGEST_CELLS = 4500  # divisible by the three cell types
CHAIN_CELLS = 400
GRAPH_CELLS, GRAPH_IN_DEGREE = 3000, 3
LATTICE_DIRECTED_RING, LATTICE_BIDIRECTIONAL_RING = 12, 12
BIDIRECTIONAL_RING_ELEMENTS = 31  # balanced colorings of the bidirectional 12-ring
DYN_PAIRS = 4  # (corpus network, balanced coloring) pairs per job list
DYN_RING_CELLS, DYN_RING_STEPS = 2000, 30
SIGNED_ZERO_STEPS = 3

NAT = {"kind": "natural_add"}
RES = {"kind": "resistor_parallel"}

# Every wire monoid kind, in the nine flavors the ingest network spreads
# over its nine (target type, source type) pairs.
INGEST_MONOIDS = (
    RES,
    NAT,
    {"kind": "natural_mul"},
    {"kind": "free_commutative", "generators": ["x", "y", "z"]},
    {"kind": "product", "parts": [NAT, RES]},
    {"kind": "with_annihilator", "inner": NAT},
    {"kind": "free_commutative"},
    {"kind": "with_annihilator", "inner": RES},
    {"kind": "product", "parts": [{"kind": "natural_mul"}, {"kind": "free_commutative"}]},
)

# Mixed monoids of the dynamics corpus: no annihilators, so every
# natural kappa stays finite.
CORPUS_MONOIDS = (
    NAT,
    RES,
    {"kind": "free_commutative", "generators": ["a", "b"]},
    {"kind": "product", "parts": [NAT, NAT]},
)


def weight(spec: dict, rng: random.Random, absorbing: bool = True):
    """A random non-identity wire weight; ``absorbing`` allows annihilators."""
    kind = spec["kind"]
    if kind == "resistor_parallel":
        pool = ["10", "15", "20", "30", "60", "1/3", "45/2"] + (["0"] if absorbing else [])
        return {"r": rng.choice(pool)}
    if kind == "natural_add":
        return {"n": rng.randint(1, 9)}
    if kind == "natural_mul":
        return {"n": rng.choice([0, 2, 3, 5, 7] if absorbing else [2, 3, 5, 7])}
    if kind == "free_commutative":
        gens = spec.get("generators") or ["p", "q"]
        picked = rng.sample(gens, rng.randint(1, len(gens)))
        return {"gens": {g: rng.randint(1, 3) for g in sorted(picked)}}
    if kind == "product":
        return {"tuple": [weight(p, rng, absorbing) for p in spec["parts"]]}
    if kind == "with_annihilator":
        if absorbing and rng.random() < 0.2:
            return {"annihilator": True}
        return weight(spec["inner"], rng, absorbing)
    raise ValueError(f"unknown monoid kind {kind!r}")


def network_doc(types, cells, cell_types, monoids, edges) -> dict:
    """A wire-format document; ``monoids`` maps (target, source) type to spec."""
    return {
        "types": list(types),
        "cells": [{"id": c, "type": t} for c, t in zip(cells, cell_types)],
        "monoids": [
            {"target_type": tt, "source_type": st, **spec}
            for (tt, st), spec in monoids.items()
        ],
        "edges": [{"to": to, "from": src, "weight": w} for to, src, w in edges],
    }


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, separators=(",", ":")))
    return str(path)


def cli(name: str, argv: list, check: str, **extra) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "check": check, **extra}


# -- ingest --------------------------------------------------------------------


def make_ingest(rng: random.Random, workdir: Path) -> list[dict]:
    """One sparse 3-type network whose weights depend only on (type pair, offset).

    Cell i has type i mod 3 and one in-edge from cell i - o for each of
    three offsets o (one per residue mod 3), plus a parallel second edge on
    the first offset. Every cell of a type therefore receives the same bag
    of weights, so the type partition is balanced and is the top.
    """
    n = INGEST_CELLS
    types = ["ta", "tb", "tc"]
    cells = [format(i, "x") for i in range(n)]
    cell_types = [types[i % 3] for i in range(n)]
    kinds = list(INGEST_MONOIDS)
    rng.shuffle(kinds)
    monoids = {(tt, st): kinds[3 * a + b] for a, tt in enumerate(types) for b, st in enumerate(types)}
    offsets = [rng.choice([o for o in range(1, 40) if o % 3 == r]) for r in (1, 2, 0)]
    offsets.append(offsets[0])  # a parallel edge, merged by the network layer
    bag = {
        (t, k): weight(monoids[(types[t], types[(t - o) % 3])], rng)
        for t in range(3)
        for k, o in enumerate(offsets)
    }
    edges = [
        (cells[i], cells[(i - o) % n], bag[(i % 3, k)])
        for i in range(n)
        for k, o in enumerate(offsets)
    ]
    rng.shuffle(edges)
    path = write_json(workdir / "ingest.json", network_doc(types, cells, cell_types, monoids, edges))
    top = fmt([i % 3 for i in range(n)], cells)
    return [
        cli("validate", ["validate", path], "json",
            expect={"ok": True, "cells": n, "types": types, "edges": 3 * n, "monoid_pairs": 9}),
        cli("top", ["top", path], "stdout", expect=top + "\n"),
        cli("balanced", ["balanced", "-p", top, path], "json",
            expect={"balanced": True, "partition": top}),
        cli("quotient", ["quotient", "-p", top, path], "quotient", network=path, partition=top),
        {"name": "roundtrip", "kind": "roundtrip", "check": "roundtrip", "network": path},
    ]


# -- refine --------------------------------------------------------------------


def make_refine(rng: random.Random, workdir: Path) -> list[dict]:
    """The directed chain (many sweeps) and a random graph (high rank).

    The chain 0 -> 1 -> ... -> n-1 with one uniform weight peels one cell
    per sweep from the single class. In the random graph every cell has
    three in-edges from random sources with additive weights in 1..100, so
    two sweeps make it (nearly always) discrete, at the same cost for every
    seed; its top is computed here by the reference refinement.
    """
    n = CHAIN_CELLS
    cells = [f"k{i}" for i in range(n)]
    w = {"n": rng.randint(1, 9)}
    chain = write_json(
        workdir / "chain.json",
        network_doc(["cell"], cells, ["cell"] * n, {("cell", "cell"): NAT},
                    [(cells[i + 1], cells[i], w) for i in range(n - 1)]),
    )

    m = GRAPH_CELLS
    gcells = [f"g{i}" for i in range(m)]
    edges = [
        (gcells[i], gcells[rng.randrange(m)], {"n": rng.randint(1, 100)})
        for i in range(m)
        for _ in range(GRAPH_IN_DEGREE)
    ]
    doc = network_doc(["node"], gcells, ["node"] * m, {("node", "node"): NAT}, edges)
    graph = write_json(workdir / "graph.json", doc)
    top = fmt(RefNetwork(doc).refine([1] * m), gcells)
    return [
        cli("cir_chain", ["cir", chain], "chain", cells=cells),
        cli("top_graph", ["top", graph], "stdout", expect=top + "\n"),
        cli("balanced_graph", ["balanced", "-p", top, graph], "json",
            expect={"balanced": True, "partition": top}),
        cli("unbalanced_graph", ["balanced", "-p", ",".join(gcells), graph], "not_balanced",
            network=graph, partition=",".join(gcells)),
    ]


# -- lattice -------------------------------------------------------------------


def ring_doc(rng: random.Random, prefix: str, n: int, steps) -> tuple[dict, list[str]]:
    """Ring on cells prefix0..prefix{n-1}, listed in a seeded order.

    Cell i receives from i - s for every s in ``steps``; all edges carry
    one seeded weight of one seeded monoid, so rotations are symmetries.
    """
    ring = [f"{prefix}{i}" for i in range(n)]
    order = ring[:]
    rng.shuffle(order)
    spec = rng.choice([NAT, RES])
    w = weight(spec, rng, absorbing=False)
    edges = [(ring[i], ring[(i - s) % n], w) for i in range(n) for s in steps]
    return network_doc(["c"], order, ["c"] * n, {("c", "c"): spec}, edges), ring


def make_lattice(rng: random.Random, workdir: Path) -> list[dict]:
    """Lattices of two small symmetric rings, then meet/join of all pairs.

    The directed n-ring has one balanced coloring per divisor d of n
    (cell i colored i mod d); the bidirectional ring's lattice is the
    larger one and feeds the meet/join job.
    """
    n = LATTICE_DIRECTED_RING
    doc, ring = ring_doc(rng, "d", n, [1])
    directed = write_json(workdir / "ring_directed.json", doc)
    doc, _ = ring_doc(rng, "b", LATTICE_BIDIRECTIONAL_RING, [1, -1])
    bidirectional = write_json(workdir / "ring_bidirectional.json", doc)
    return [
        cli("lattice_directed", ["lattice", directed], "lattice_divisors", network=directed, ring=ring),
        cli("lattice_bidirectional", ["lattice", bidirectional], "lattice_closed",
            network=bidirectional, elements=BIDIRECTIONAL_RING_ELEMENTS),
        {"name": "meet_join", "kind": "meet_join", "check": "meet_join",
         "network": bidirectional, "elements_from": "lattice_bidirectional"},
    ]


# -- dynamics ------------------------------------------------------------------


def corpus_doc(rng: random.Random) -> dict:
    """A small mixed-monoid network in the style of the test corpus.

    Half are fully random sparse graphs; half are grown from a planted
    coloring by giving every cell of a color the same bag of weights.
    """
    n = rng.randint(3, 7)
    cells = [str(i + 1) for i in range(n)]
    if rng.random() < 0.5:
        types, cell_types = ["t"], ["t"] * n
    else:
        types = ["t", "u"]
        cell_types = [rng.choice(types) for _ in range(n)]
        cell_types[0], cell_types[1] = "t", "u"
    monoids = {(a, b): rng.choice(CORPUS_MONOIDS) for a in types for b in types}
    edges = []
    if rng.random() < 0.5:
        for c in range(n):
            for d in range(n):
                if rng.random() < 0.3:
                    spec = monoids[(cell_types[c], cell_types[d])]
                    edges.append((cells[c], cells[d], weight(spec, rng, absorbing=False)))
    else:
        groups: dict[tuple[str, int], list[int]] = {}
        for c in range(n):
            groups.setdefault((cell_types[c], rng.randrange(max(1, n // 2))), []).append(c)
        for tgt in groups.values():
            for src in groups.values():
                if rng.random() >= 0.45:
                    continue
                spec = monoids[(cell_types[tgt[0]], cell_types[src[0]])]
                bag = [weight(spec, rng, absorbing=False) for _ in range(rng.randint(1, 2))]
                for c in tgt:
                    for w in bag:
                        edges.append((cells[c], cells[rng.choice(src)], w))
    return network_doc(types, cells, cell_types, monoids, edges)


def balanced_colorings(doc: dict) -> list[tuple[int, ...]]:
    """All balanced colorings, by brute force over partitions of each type."""
    ref = RefNetwork(doc)
    blocks = [[c for c in range(ref.n) if ref.cell_types[c] == t] for t in ref.types]
    out = []
    for combo in product(*(list(set_partitions(b)) for b in blocks if b)):
        colors = [0] * ref.n
        for k, cls in enumerate((cls for part in combo for cls in part), start=1):
            for c in cls:
                colors[c] = k
        colors = canonical(colors)
        if ref.is_balanced(colors):
            out.append(colors)
    return sorted(out)


def state_csv(path: Path, values) -> str:
    path.write_text(",".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def make_dynamics(rng: random.Random, workdir: Path) -> list[dict]:
    """Quotient flows on corpus networks, a simulated ring, and defect probes.

    Corpus networks with a balanced coloring besides the discrete one are
    drawn until exactly DYN_PAIRS (network, balanced coloring) pairs are
    collected, so every seed does the same amount of RK4 work. Reduced
    starts are random doubles, which makes an exactly cancelling state (and
    so a signed zero) practically impossible there; signed zeros are
    exercised on purpose by the two probe jobs.
    """
    jobs = []
    n = DYN_RING_CELLS
    cells = [f"s{i}" for i in range(n)]
    ring = write_json(
        workdir / "ring.json",
        network_doc(["osc"], cells, ["osc"] * n, {("osc", "osc"): NAT},
                    [(cells[i], cells[(i + s) % n], {"n": 1}) for i in range(n) for s in (-1, 1)]),
    )
    oracle = write_json(workdir / "oracle.json", {
        "g": [{"type": "osc", "kind": "scale", "a": 0.5}],
        "kappa": [{"target_type": "osc", "source_type": "osc", "scale": 0.25}],
    })
    period = rng.choice([2, 4, 5, 8])
    colors = [i % period + 1 for i in range(n)]
    x0 = state_csv(workdir / "ring_x0.csv", [rng.uniform(0.1, 1.0) for _ in range(period)] * (n // period))
    jobs.append(cli("simulate_ring", ["simulate", "--oracle", oracle, "--x0", x0,
                                      "--steps", str(DYN_RING_STEPS), ring],
                    "synchronized", colors=colors, steps=DYN_RING_STEPS))

    remaining = DYN_PAIRS
    k = 0
    while remaining:
        doc = corpus_doc(rng)
        found = balanced_colorings(doc)
        if not 2 <= len(found) <= remaining or remaining - len(found) == 1:
            continue  # at least one coarser coloring, and the count must still fill up
        path = write_json(workdir / f"corpus{k}.json", doc)
        pairs = [
            {"partition": fmt(c, [x["id"] for x in doc["cells"]]),
             "reduced": [rng.uniform(0.5, 2.5) for _ in range(max(c))]}
            for c in found
        ]
        jobs.append({"name": f"quotient_match{k}", "kind": "quotient_match",
                     "check": "quotient_match", "network": path, "pairs": pairs})
        remaining -= len(found)
        k += 1

    zero_pool = [0.0, -0.0, 0.0, -0.0, 0.5, 1.0]
    x0 = state_csv(workdir / "ring_zero_x0.csv",
                   [rng.choice(zero_pool) for _ in range(period)] * (n // period))
    jobs.append(cli("signed_zero_ring", ["simulate", "--oracle", oracle, "--x0", x0,
                                         "--steps", str(SIGNED_ZERO_STEPS), ring],
                    "synchronized", colors=colors, steps=SIGNED_ZERO_STEPS, probe="roadmap-4a"))
    cells6 = ["a", "b", "p", "q", "r", "s"]
    repro = write_json(workdir / "signed_zero.json", network_doc(
        ["t"], cells6, ["t"] * 6, {("t", "t"): NAT},
        [("a", "p", {"n": 1}), ("a", "q", {"n": 1}), ("b", "r", {"n": 1}), ("b", "s", {"n": 1})]))
    jobs.append({"name": "signed_zero_repro", "kind": "map_step", "check": "map_synchronized",
                 "network": repro, "partition": "a,b;p,s;q,r", "reduced": [0.0, 0.0, -0.0],
                 "probe": "roadmap-4a"})
    return jobs


WORKLOADS = {
    "ingest": make_ingest,
    "refine": make_refine,
    "lattice": make_lattice,
    "dynamics": make_dynamics,
}
