"""Differential tests against an exact reference that never sees weight codes.

The reference (``ref_sums`` and ``ref_counterexample`` in checks.py, and
``ref_sweep`` below) combines actual carrier values with ``net.row_items``
and ``spec.combine``; the engine works on interned codes and a combine
memo. Both run on the mixed-monoid corpus, on the non-cancellative one
(absorbing elements: NaturalMul's 0, WithAnnihilator, SHORT), where equal
sums do not imply equal summands, and on small networks built around rows
of exactly two edges, which the sweep keys without ``row_sums``. Every
sweep is also checked on sparse random networks, whose runs are long, and
each check runs again with refinement in rounds after the first sweep.

The lattice walk, which abandons seeds early, is also checked against an
unpruned walk that converges every seed, on those networks, on mod-3
networks and on rings of up to 16 cells, beyond brute force's reach. The
screen that picks which seeds the walk converges is checked against one
full sweep of every seed.
"""
import random
from collections import Counter
from dataclasses import dataclass

import pytest

import corpus
import corpus_noncancel
from checks import all_candidates, brute_force_balanced, ref_counterexample, ref_sums
from synchro import (
    ANNIHILATOR,
    MonoidRegistry,
    MonoidSpec,
    NaturalAdd,
    NaturalMul,
    Network,
    Partition,
    ResistorParallel,
    WithAnnihilator,
    cir,
    common_refinement,
    enumerate_balanced,
    is_balanced,
    is_finer,
    meet,
    top,
)
import synchro.lattice as lattice_module
from synchro.cir import _converge, _sweep
from synchro.coding import coded
from synchro.lattice import _lower_covers, _screened_seeds, _split


def ref_sweep(net, colors):
    """Split classes by (old color, sums); colors numbered by first occurrence."""
    keys = [(colors[c], ref_sums(net, colors, c)) for c in range(net.n)]
    firsts = [key for i, key in enumerate(keys) if key not in keys[:i]]
    return tuple(firsts.index(key) + 1 for key in keys)


def ref_covers(elements):
    """(finer index, coarser index) pairs with nothing strictly between, in sorted order."""
    below = {
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if i != j and is_finer(a, b)
    }
    return sorted(
        (i, j) for i, j in below
        if not any((i, k) in below and (k, j) in below for k in range(len(elements)))
    )


@dataclass(frozen=True)
class _Cyclic3(MonoidSpec):
    """Integers mod 3 under addition: two edges can sum to no edge at all."""

    kind = "cyclic3"

    @property
    def identity(self):
        return 0

    def contains(self, value):
        return value in (0, 1, 2)

    def _combine(self, a, b):
        return (a + b) % 3


def _one_type(spec, n_cells: int, edges) -> Network:
    """A one-type network on cells 1..n_cells; ``edges`` are (target, source, weight) by number."""
    cells = [str(i + 1) for i in range(n_cells)]
    return Network.build(
        cells, ["t"] * n_cells, ["t"], MonoidRegistry.uniform(spec, 1),
        [(cells[t - 1], cells[s - 1], w) for t, s, w in edges],
    )


def _bidirectional_ring(spec, n_cells: int, left, right) -> Network:
    """Cell i hears ``left`` from i - 1 and ``right`` from i + 1."""
    edges = []
    for i in range(1, n_cells + 1):
        edges.append((i, (i - 2) % n_cells + 1, left))
        edges.append((i, i % n_cells + 1, right))
    return _one_type(spec, n_cells, edges)


def two_edge_networks() -> list[Network]:
    """Rows of in-degree two, next to rows whose sums match them with one or three edges.

    Cells 1-3 are sources; the rest hear them with equal per-color sums once
    the sources share a color, so rows of different in-degree must be keyed
    alike.
    """
    add, mul, ann = NaturalAdd(), NaturalMul(), WithAnnihilator(NaturalAdd())
    return [
        _bidirectional_ring(add, 5, 1, 1),
        _bidirectional_ring(add, 6, 1, 1),
        _bidirectional_ring(add, 7, 1, 1),
        _bidirectional_ring(add, 8, 1, 1),
        _bidirectional_ring(add, 6, 1, 2),
        _bidirectional_ring(ann, 6, ANNIHILATOR, 1),
        # 2 = 1 + 1 and 3 = 1 + 2 = 1 + 1 + 1
        _one_type(add, 8, [
            (4, 1, 2), (5, 1, 1), (5, 2, 1),
            (6, 1, 1), (6, 2, 1), (6, 3, 1), (7, 3, 3), (8, 3, 1), (8, 1, 2),
        ]),
        # 0 absorbs: 0 = 0 * 5 = 0 * 2 * 3, and 6 = 2 * 3
        _one_type(mul, 8, [
            (4, 1, 0), (5, 2, 0), (5, 1, 5),
            (6, 1, 2), (6, 2, 3), (7, 3, 6), (8, 1, 0), (8, 2, 2), (8, 3, 3),
        ]),
        _one_type(ann, 7, [
            (4, 1, ANNIHILATOR), (5, 2, ANNIHILATOR), (5, 1, 1),
            (6, 3, ANNIHILATOR), (6, 1, 2), (6, 2, 1), (7, 2, 3),
        ]),
        # 1 + 2 = 0 mod 3: cell 5's two edges cancel and it looks like cell 4,
        # which hears nothing
        _one_type(_Cyclic3(), 7, [(5, 1, 1), (5, 2, 2), (6, 3, 2), (6, 1, 1), (7, 2, 1)]),
    ]


def sparse_networks() -> list[Network]:
    """Seeded random one-type networks of 12 to 30 cells, each cell hearing
    one to three random cells at NaturalAdd weight 1 or 2.

    Refined from one color they take several sweeps, and a later sweep
    often splits a class that hears cells another split of the same sweep
    moves, which rounds must key before either moves.
    """
    rng = random.Random(59)
    nets = []
    for _ in range(8):
        n = rng.randint(12, 30)
        nets.append(_one_type(NaturalAdd(), n, [
            (t, rng.randint(1, n), rng.choice((1, 2)))
            for t in range(1, n + 1) for _ in range(rng.randint(1, 3))
        ]))
    return nets


CORPORA = {
    "mixed": corpus.corpus_networks,
    "noncancellative": corpus_noncancel.corpus_networks,
    "two_edge": two_edge_networks,
}
SWEEP_FAMILIES = {**CORPORA, "sparse": sparse_networks}


def _ref_trace(net, colors):
    """The reference coloring after every sweep, through the confirming one."""
    sweeps = [ref_sweep(net, colors)]
    while max(sweeps[-1]) != max(sweeps[-2] if len(sweeps) > 1 else colors):
        sweeps.append(ref_sweep(net, sweeps[-1]))
    return sweeps


@pytest.mark.parametrize("name", sorted(SWEEP_FAMILIES))
def test_every_sweep_matches_reference(name):
    rng = random.Random(41)
    for net in SWEEP_FAMILIES[name]():
        for _ in range(4):
            seed = corpus.random_seed_partition(net, rng)
            expected = _ref_trace(net, seed.colors)
            trace = cir(net, seed)
            assert [p.colors for p, _ in trace.iterations] == expected
            assert [r for _, r in trace.iterations] == [max(p) for p in expected]
        expected = _ref_trace(net, net.type_partition().colors)
        assert [p.colors for p, _ in cir(net, net.type_partition()).iterations] == expected
        assert top(net).colors == _ref_trace(net, net.type_partition().colors)[-1]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_balance_and_lattice_match_reference(name):
    for net in CORPORA[name]():
        balanced = set()
        for candidate in all_candidates(net):
            witness = ref_counterexample(net, candidate.colors)
            result = is_balanced(net, candidate)
            assert result.balanced == (witness is None), (net, candidate)
            assert result.counterexample == witness, (net, candidate)
            # again, warm, and through an equal fresh partition
            assert is_balanced(net, candidate) == result, (net, candidate)
            fresh = Partition.from_colors(candidate.colors)
            assert is_balanced(net, fresh) == result, (net, candidate)
            if witness is None:
                balanced.add(candidate)
        assert brute_force_balanced(net) == balanced
        lattice = enumerate_balanced(net)
        assert lattice.complete
        elements = sorted(balanced, key=lambda p: (p.rank, p.colors))
        assert list(lattice.elements) == elements
        assert list(lattice.covers) == ref_covers(elements)
        assert lattice.elements[0] == top(net) == min(balanced, key=lambda p: p.rank)


# the same checks with every refinement run in rounds after its first sweep
# (the ``rounds`` fixture), and checks that rounds ran


@pytest.mark.parametrize("name", sorted(SWEEP_FAMILIES))
def test_every_sweep_matches_reference_in_rounds(name, rounds):
    test_every_sweep_matches_reference(name)
    assert 2 * len(rounds) > len(SWEEP_FAMILIES[name]())


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_balance_and_lattice_match_reference_in_rounds(name, rounds):
    # the walk's seeds stop at their first sweep here, so rounds run where
    # the top needs a second sweep, one below rank |C|: on 22 of 52 mixed
    # networks, for one
    test_balance_and_lattice_match_reference(name)
    ran, second_sweeps = len(rounds), 0
    nets = CORPORA[name]()
    for net in nets:
        seed = net.type_partition()
        second_sweeps += seed.rank < cir(net, seed).iterations[0][1] < net.n
    assert ran >= second_sweeps > len(nets) / 3


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_top_and_meet_in_rounds_match_cir(name, rounds):
    # top and meet relabel only the last of their rounds
    rng = random.Random(53)
    nets = CORPORA[name]()
    for net in nets:
        view = coded(net)
        assert top(net) == cir(net, net.type_partition()).converged
        elements = enumerate_balanced(net).elements
        for _ in range(4):
            a, b = rng.choice(elements), rng.choice(elements)
            assert meet(net, a, b) == cir(net, common_refinement(a, b)).converged
            seed = corpus.random_seed_partition(net, rng)
            assert _converge(view, seed.colors, seed.rank) == cir(net, seed).converged.colors
    assert 2 * len(rounds) > len(nets)


def _split_seeds(parent: tuple[int, ...]):
    """Every ``_split`` seed of ``parent``: classes in order of their first cell,
    masks ascending within each.

    Each class of size k gives its 2^(k-1) - 1 proper splits; the split-off
    part never holds the class's first cell.
    """
    rank = max(parent)
    for cls in Partition._from_canonical(parent).classes():
        for mask in range(1, 1 << (len(cls) - 1)):
            yield _split(parent, rank, cls, mask)


def unpruned_walk(net):
    """Elements and covers from converging every seed of every element to its fixed point."""
    view = coded(net)
    seen = {top(net).colors}
    below = {}
    frontier = list(seen)
    while frontier:
        found = []
        for parent in frontier:
            results = {_converge(view, seed, rank) for seed, rank, *_ in _split_seeds(parent)}
            below[parent] = results
            found.extend(results - seen)
            seen |= results
        frontier = found
    order = sorted(seen, key=lambda c: (max(c), c))
    index = {c: i for i, c in enumerate(order)}
    covers = sorted((index[q], index[p]) for p, results in below.items() for q in _lower_covers(results))
    return order, covers


def cyclic3_networks() -> list[Network]:
    """Mod-3 networks, where two edges can sum to none: rings and seeded random graphs."""
    spec = _Cyclic3()
    nets = [_bidirectional_ring(spec, n, 1, 2) for n in (6, 8, 9)]
    nets.append(_bidirectional_ring(spec, 9, 1, 1))
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(4, 9)
        cells = range(1, n + 1)
        nets.append(_one_type(spec, n, [
            (t, s, rng.choice((1, 2))) for t in cells for s in cells if t != s and rng.random() < 0.1
        ]))
    return nets


def _walks_agree(net):
    """The walk's lattice, after checking it against ``unpruned_walk``."""
    lattice = enumerate_balanced(net)
    assert lattice.complete
    assert ([p.colors for p in lattice.elements], list(lattice.covers)) == unpruned_walk(net)
    return lattice


@pytest.mark.parametrize("name", sorted(CORPORA) + ["cyclic3"])
def test_enumeration_matches_unpruned_walk(name):
    for net in {**CORPORA, "cyclic3": cyclic3_networks}[name]():
        _walks_agree(net)


# balanced colorings of the bidirectional n-ring with equal weights both ways
BIDIRECTIONAL_RING_ELEMENTS = {8: 16, 9: 15, 10: 19, 11: 13, 12: 31, 13: 15, 14: 25, 15: 27, 16: 33}


def _ring(shape: str, n: int) -> Network:
    """Directed or bidirectional n-ring: unit NaturalAdd weights if n is even, 30-ohm resistors if odd."""
    spec = NaturalAdd() if n % 2 == 0 else ResistorParallel()
    w = 1 if n % 2 == 0 else spec.from_resistance(30)
    if shape == "directed":
        return _one_type(spec, n, [(i, (i - 2) % n + 1, w) for i in range(1, n + 1)])
    return _bidirectional_ring(spec, n, w, w)


@pytest.mark.parametrize("n", range(8, 17))
@pytest.mark.parametrize("shape", ["directed", "bidirectional"])
def test_enumeration_matches_unpruned_walk_on_rings(shape, n):
    lattice = _walks_agree(_ring(shape, n))
    if shape == "directed":  # cell i colored i mod d, one element per divisor d of n
        assert len(lattice.elements) == sum(n % d == 0 for d in range(1, n + 1))
    else:
        assert len(lattice.elements) == BIDIRECTIONAL_RING_ELEMENTS[n]


def first_sweep_survivors(view, parent):
    """The seeds of ``parent`` whose first sweep leaves no piece of their class below their smaller side."""
    kept = []
    for seed, rank, cls, smaller in _split_seeds(parent):
        new, _ = _sweep(view, seed)
        if min(Counter(new[i] for i in cls).values()) >= smaller:
            kept.append((seed, rank, cls, smaller))
    return kept


def all_to_all(n: int) -> Network:
    """n cells, each hearing every other at unit NaturalAdd weight: every coloring is balanced."""
    return _one_type(NaturalAdd(), n, [(t, s, 1) for t in range(1, n + 1) for s in range(1, n + 1) if t != s])


def _self_loop_ring() -> Network:
    """10-ring: odd cells hear 2 from each neighbour, even cells 1 from each
    and 2 from themselves. Moving an even cell flips its own side and a
    source side of its row at once, and the self-loop sets its row's sums
    apart from those of the odd rows."""
    edges = []
    for i in range(1, 11):
        w = 2 if i % 2 else 1
        edges += [(i, (i - 2) % 10 + 1, w), (i, i % 10 + 1, w)] + [(i, i, 2)] * (1 - i % 2)
    return _one_type(NaturalAdd(), 10, edges)


def _chorded_ring() -> Network:
    """12-ring whose cells hear 8, 1, 2 or 4 sources, weighted to sum to 16.

    Cell i hears i - 1, ..., i - d at 16 / d each for d = 1, 2 or 4, and
    i, ..., i - 7, itself included, at 1 and 3 in turn for d = 8. The one
    class of the top mixes rows of 1, 2, 4 and 8 sources.
    """
    edges = []
    for i in range(1, 13):
        d = (8, 1, 8, 2, 8, 4)[i % 6]
        if d == 8:
            edges += [(i, (i - 1 - off) % 12 + 1, 1 + 2 * (off % 2)) for off in range(8)]
        else:
            edges += [(i, (i - 1 - off) % 12 + 1, 16 // d) for off in range(1, d + 1)]
    return _one_type(NaturalAdd(), 12, edges)


def _circulant() -> Network:
    """9 cells; cell i hears i + s at weight s for s = 1..8, so every row has
    8 sources in the top's one class and a sequence of codes of its own."""
    return _one_type(NaturalAdd(), 9, [(i, (i - 1 + s) % 9 + 1, s) for i in range(1, 10) for s in range(1, 9)])


SCREEN_FAMILIES = {
    **CORPORA,
    "cyclic3": cyclic3_networks,
    "rings": lambda: [_ring(shape, n) for n in range(8, 13) for shape in ("directed", "bidirectional")],
    # every row of a class shares one table: 5 sources each, then 7
    "all_to_all": lambda: [all_to_all(6), all_to_all(8)],
    "self_loop_ring": lambda: [_self_loop_ring()],
    "chorded_ring": lambda: [_chorded_ring()],
    "circulant": lambda: [_circulant()],
}


@pytest.mark.parametrize("name", sorted(SCREEN_FAMILIES))
def test_screen_keeps_exactly_the_seeds_that_survive_one_sweep(name):
    # one screen cache per network, so classes met again come from the cache
    for net in SCREEN_FAMILIES[name]():
        view = coded(net)
        screened = {}
        for element in enumerate_balanced(net).elements:
            expected = first_sweep_survivors(view, element.colors)
            assert list(_screened_seeds(view, element.colors, screened)) == expected


@pytest.mark.parametrize("name", sorted(SCREEN_FAMILIES))
def test_screen_is_exact_when_tables_store_nothing_past_pattern_0(name, monkeypatch):
    # with no room left in the tables, every pattern but 0 is rekeyed at every step
    monkeypatch.setattr(lattice_module, "_TABLE_ENTRIES", 0)
    test_screen_keeps_exactly_the_seeds_that_survive_one_sweep(name)
