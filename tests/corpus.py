"""Deterministic random-network corpus shared by the heavier tests.

Two families, mixed monoids (additive naturals, resistors, multisets and
a product): fully random sparse networks, and networks grown from a planted
coloring by giving every cell of a color the same bag of incoming weights
(each weight wired to a random source inside the source color), which makes
the planted coloring balanced by construction and the lattices less boring.

Brute-force balanced sets are computed once and cached together with the
time it took, so acceptance timing can account for the real cost no matter
which test triggered the computation first.
"""
from __future__ import annotations

import random
import time

from checks import brute_force_balanced
from synchro import (
    FreeCommutative,
    MonoidRegistry,
    NaturalAdd,
    Network,
    Partition,
    ProductMonoid,
    ResistorParallel,
)

CORPUS_SIZE = 52

_MONOIDS = (
    NaturalAdd(),
    ResistorParallel(),
    FreeCommutative(("a", "b")),
    ProductMonoid((NaturalAdd(), NaturalAdd())),
)


def sample_weight(spec, rng: random.Random):
    """A non-identity, annihilator-free weight (keeps dynamics finite)."""
    if isinstance(spec, NaturalAdd):
        return rng.randint(1, 3)
    if isinstance(spec, ResistorParallel):
        return spec.from_resistance(rng.choice([10, 15, 20, 30, 60]))
    if isinstance(spec, FreeCommutative):
        counts: dict[str, int] = {}
        for _ in range(rng.randint(1, 2)):
            g = spec.generators[rng.randrange(len(spec.generators))]
            counts[g] = counts.get(g, 0) + 1
        return spec.from_counts(counts)
    if isinstance(spec, ProductMonoid):
        while True:
            v = (rng.randint(0, 2), rng.randint(0, 2))
            if v != (0, 0):
                return v
    raise AssertionError(f"no sampler for {spec!r}")


def _random_typing(rng: random.Random, n: int):
    if n < 4 or rng.random() < 0.5:
        return ["t"] * n, ["t"]
    names = ["t", "u"]
    types = [names[rng.randrange(2)] for _ in range(n)]
    if len(set(types)) == 1:
        types[0] = "u" if types[0] == "t" else "t"
    return types, names


def build_corpus_network(seed: int, monoids=_MONOIDS, sample=sample_weight) -> Network:
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    cells = [str(i + 1) for i in range(n)]
    types, names = _random_typing(rng, n)
    tidx = {nm: i for i, nm in enumerate(names)}
    k = len(names)
    table = {
        (i, j): monoids[rng.randrange(len(monoids))]
        for i in range(k)
        for j in range(k)
    }
    registry = MonoidRegistry(table)
    edges = []
    if rng.random() < 0.55:
        for c in range(n):
            for d in range(n):
                if rng.random() < 0.3:
                    spec = table[(tidx[types[c]], tidx[types[d]])]
                    edges.append((cells[c], cells[d], sample(spec, rng)))
    else:
        # planted balanced coloring: same weight bag per (target, source) color pair
        color_of: dict[int, int] = {}
        next_color = 0
        blocks: dict[str, list[int]] = {}
        for c in range(n):
            blocks.setdefault(types[c], []).append(c)
        for members in blocks.values():
            mapping: dict[int, int] = {}
            for cell in members:
                label = rng.randrange(max(1, len(members) - 1))
                if label not in mapping:
                    mapping[label] = next_color
                    next_color += 1
                color_of[cell] = mapping[label]
        groups = [[c for c in range(n) if color_of[c] == col] for col in range(next_color)]
        for target_group in groups:
            for source_group in groups:
                if rng.random() >= 0.45:
                    continue
                i = tidx[types[target_group[0]]]
                j = tidx[types[source_group[0]]]
                spec = table[(i, j)]
                bag = [sample(spec, rng) for _ in range(rng.randint(1, 2))]
                for c in target_group:
                    for weight in bag:
                        src = source_group[rng.randrange(len(source_group))]
                        edges.append((cells[c], cells[src], weight))
    return Network.build(cells, types, names, registry, edges)


def random_seed_partition(net: Network, rng: random.Random) -> Partition:
    """A uniformly sloppy coloring below the type partition."""
    labels = [(net.cell_types[c], rng.randint(0, net.n - 1)) for c in range(net.n)]
    return Partition.from_colors(labels)


_corpus: list[Network] | None = None
_balanced: list[set[Partition]] | None = None
_balanced_seconds: float | None = None


def corpus_networks() -> list[Network]:
    global _corpus
    if _corpus is None:
        _corpus = [build_corpus_network(1000 + i) for i in range(CORPUS_SIZE)]
    return _corpus


def balanced_sets() -> tuple[list[set[Partition]], float]:
    """Brute-forced balanced sets per corpus network plus the compute time."""
    global _balanced, _balanced_seconds
    if _balanced is None:
        nets = corpus_networks()
        start = time.perf_counter()
        _balanced = [brute_force_balanced(net) for net in nets]
        _balanced_seconds = time.perf_counter() - start
    return _balanced, _balanced_seconds
