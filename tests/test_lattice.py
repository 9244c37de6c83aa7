"""Join, meet, enumeration and the Hasse structure."""
import hashlib
import importlib
import itertools
import random
from math import comb

import pytest

import corpus
import corpus_noncancel
from checks import brute_force_balanced
from synchro import (
    DimensionMismatch,
    MonoidRegistry,
    NaturalAdd,
    Network,
    NotBalancedError,
    Partition,
    SizeLimitError,
    cir,
    enumerate_balanced,
    is_balanced,
    is_finer,
    join,
    lattice_dot,
    lattice_json,
    meet,
    parse_partition,
    top,
)
from synchro.cir import _converge
from synchro.coding import CodedNetwork, coded
from synchro.lattice import _split
from test_reference import _chorded_ring, _split_seeds, all_to_all

# the package exports a function named ``cir``, which shadows the module
cir_module = importlib.import_module("synchro.cir")
lattice_module = importlib.import_module("synchro.lattice")


def test_join_meet_unit_laws(resistor6):
    bottom = Partition.trivial(6)
    maximal = top(resistor6)
    b1 = parse_partition("1,2;3;4;5;6", resistor6.cells)
    assert join(resistor6, bottom, b1) == b1
    assert join(resistor6, b1, b1) == b1
    assert join(resistor6, b1, maximal) == maximal  # b1 is finer than top
    assert meet(resistor6, maximal, b1) == b1
    assert meet(resistor6, b1, b1) == b1
    assert meet(resistor6, bottom, b1) == bottom


def test_join_meet_require_balanced_inputs(chain3):
    bad = parse_partition("1;2,3", chain3.cells)
    ok = Partition.trivial(3)
    with pytest.raises(NotBalancedError):
        join(chain3, bad, ok)
    with pytest.raises(NotBalancedError):
        meet(chain3, ok, bad)


def test_join_merges_through_chains():
    net = all_to_all(4)  # every coloring is balanced here
    a = parse_partition("1,2;3;4", net.cells)
    b = parse_partition("1;2,3;4", net.cells)
    assert join(net, a, b) == parse_partition("1,2,3;4", net.cells)
    assert meet(net, a, b) == Partition.trivial(4)


def test_brute_force_counts_candidates(chain3):
    # three same-type cells: five candidate partitions, only the trivial survives
    assert brute_force_balanced(chain3) == {Partition.trivial(3)}


def test_brute_force_size_limit():
    with pytest.raises(SizeLimitError):
        brute_force_balanced(all_to_all(13))


def test_enumerate_matches_brute_force_on_fixtures(resistor6, triangle3, chain3):
    for net in (resistor6, triangle3, chain3):
        lat = enumerate_balanced(net)
        assert lat.complete
        assert set(lat.elements) == brute_force_balanced(net)


def test_resistor_example_lattice(resistor6):
    lat = enumerate_balanced(resistor6)
    expected = {
        Partition.trivial(6),
        parse_partition("1,2;3;4;5;6", resistor6.cells),
        parse_partition("1,2;3;4;5,6", resistor6.cells),
    }
    assert set(lat.elements) == expected
    assert lat.elements[0] == parse_partition("1,2;3;4;5,6", resistor6.cells)
    assert lat.elements[-1] == Partition.trivial(6)
    assert all(p in lat for p in expected)
    assert parse_partition("1;2;3;4;5,6", resistor6.cells) not in lat  # finer than top, unbalanced


def test_chain_lattice_is_only_trivial(chain3):
    lat = enumerate_balanced(chain3)
    assert set(lat.elements) == {Partition.trivial(3)}
    assert len(lat.elements) == 1


def test_uniform_all_to_all_has_every_partition():
    net = all_to_all(4)
    lat = enumerate_balanced(net)
    assert top(net) == Partition.single(4)
    assert len(lat.elements) == 15  # every partition of 4 cells is balanced
    assert set(lat.elements) == brute_force_balanced(net)


def test_budget_flagged_not_silent():
    net = all_to_all(5)
    lat = enumerate_balanced(net, budget=3)
    assert not lat.complete
    assert len(lat.elements) >= 3
    full = enumerate_balanced(net)
    assert full.complete
    assert len(full.elements) == 52  # all partitions of 5 cells


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(DimensionMismatch):
        enumerate_balanced(all_to_all(3), budget=budget)


def test_covers_are_transitive_reduction(resistor6):
    lat = enumerate_balanced(resistor6)
    elements = lat.elements
    cover_set = set(lat.covers)
    for (i, j) in cover_set:
        assert is_finer(elements[i], elements[j]) and elements[i] != elements[j]
        for k in range(len(elements)):
            if k in (i, j):
                continue
            assert not (
                is_finer(elements[i], elements[k]) and is_finer(elements[k], elements[j])
                and elements[i] != elements[k] != elements[j]
            )
    # reachability along covers equals the refinement order
    reach = {i: {i} for i in range(len(elements))}
    changed = True
    while changed:
        changed = False
        for (i, j) in cover_set:
            if not reach[j] <= reach[i]:
                continue
        for (i, j) in cover_set:
            before = len(reach[i])
            reach[i] |= reach[j]
            if len(reach[i]) != before:
                changed = True
    for i, j in itertools.product(range(len(elements)), repeat=2):
        if i != j and is_finer(elements[i], elements[j]):
            assert j in reach[i]


def test_covers_of_every_set_partition_of_eight_cells():
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    cells = [str(i + 1) for i in range(8)]
    lat = enumerate_balanced(Network.build(cells, ["t"] * 8, ["t"], registry, []))
    assert lat.complete
    assert len(lat.elements) == 4140  # Bell(8): every coloring is balanced
    ranks = [p.rank for p in lat.elements]
    for i, j in lat.covers:  # each cover merges exactly two classes
        assert ranks[i] == ranks[j] + 1 and is_finer(lat.elements[i], lat.elements[j])
    assert len(set(lat.covers)) == len(lat.covers) == sum(comb(r, 2) for r in ranks) == 28337


# sha256 of the partial element lists below: the budget must keep stopping
# the walk at the same point when the walk also collects covers.
PARTIAL_ELEMENTS_SHA256 = "c47abc9acd3bbe672b95995712c6d8be0bb51e6a2c423fed9495b6319c268103"


def test_partial_lattices_list_only_real_covers():
    digest = hashlib.sha256()
    for net in corpus.corpus_networks() + corpus_noncancel.corpus_networks():
        full = enumerate_balanced(net)
        lower = {p: set() for p in full.elements}
        for i, j in full.covers:
            lower[full.elements[j]].add(full.elements[i])
        for budget in range(1, len(full.elements)):
            lat = enumerate_balanced(net, budget=budget)
            assert not lat.complete
            digest.update(repr([p.colors for p in lat.elements]).encode())
            listed = {p: set() for p in lat.elements}
            for i, j in lat.covers:
                listed[lat.elements[j]].add(lat.elements[i])
            # listed covers are real, and an element with any listed cover had
            # all its seeds run, so all its covers are listed
            for p, covers in listed.items():
                assert not covers or covers == lower[p]
    assert digest.hexdigest() == PARTIAL_ELEMENTS_SHA256


CORPORA = {
    "mixed": corpus.corpus_networks,
    "noncancellative": corpus_noncancel.corpus_networks,
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_join_meet_against_brute_force_small(name):
    for net in CORPORA[name]():
        if net.n > 7:
            continue
        balanced = sorted(brute_force_balanced(net), key=lambda p: (p.rank, p.colors))
        for rnd in range(2):  # the second round finds every element in the verdict memo
            if rnd and len(balanced) > 1:
                assert set(balanced) <= set(coded(net).balanced)
            for a, b in itertools.combinations(balanced, 2):
                j = join(net, a, b)
                uppers = [p for p in balanced if is_finer(a, p) and is_finer(b, p)]
                least = [u for u in uppers if all(is_finer(u, other) for other in uppers)]
                assert least and j == least[0]
                m = meet(net, a, b)
                lowers = [p for p in balanced if is_finer(p, a) and is_finer(p, b)]
                greatest = [l for l in lowers if all(is_finer(other, l) for other in lowers)]
                assert greatest and m == greatest[0]
                assert is_balanced(net, j).balanced and is_balanced(net, m).balanced


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_converge_with_known_elements_matches_converge_without(name):
    rng = random.Random(43)
    for net in CORPORA[name]():
        view = coded(net)
        known = {p.colors for p in enumerate_balanced(net).elements}
        for _ in range(6):
            seed = corpus.random_seed_partition(net, rng)
            assert _converge(view, seed.colors, seed.rank, known) == _converge(
                view, seed.colors, seed.rank
            ) == cir(net, seed).converged.colors


def ring(n: int, steps) -> Network:
    """Cell i hears cell i + s for each s in ``steps``, with unit NaturalAdd weights."""
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    cells = [str(i + 1) for i in range(n)]
    edges = [(cells[i], cells[(i + s) % n], 1) for i in range(n) for s in steps]
    return Network.build(cells, ["t"] * n, ["t"], registry, edges)


def sweep_counts(net: Network, monkeypatch) -> tuple[int, int, int]:
    """Element count, sweeps to converge every seed from scratch, sweeps of the walk."""
    view = coded(net)
    elements = [p.colors for p in enumerate_balanced(net).elements]
    sweeps = 0
    real_sweep = cir_module._sweep

    def counting_sweep(*args):
        nonlocal sweeps
        sweeps += 1
        return real_sweep(*args)

    monkeypatch.setattr(cir_module, "_sweep", counting_sweep)
    for parent in elements:  # every seed of the walk, converged from scratch
        for seed, rank, *_ in _split_seeds(parent):
            _converge(view, seed, rank)
    from_scratch, sweeps = sweeps, 0
    found = len(enumerate_balanced(net).elements)
    return found, from_scratch, sweeps


def test_enumeration_skips_sweeps_that_reach_known_elements(monkeypatch):
    found, from_scratch, sweeps = sweep_counts(ring(12, (1, -1)), monkeypatch)
    assert found == 31
    assert sweeps < from_scratch


@pytest.mark.parametrize("steps", [(1,), (1, -1)], ids=["directed", "bidirectional"])
def test_abandoned_seeds_halve_the_sweeps(steps, monkeypatch):
    # a seed stops once a sweep splits its class into a piece smaller than
    # its smaller side; most seeds of a ring stop after one sweep
    _, from_scratch, sweeps = sweep_counts(ring(12, steps), monkeypatch)
    assert 2 * sweeps <= from_scratch


# converges and sweeps of the walk (``top`` included) on unit NaturalAdd
# rings, as measured with the screen and the stop at the discrete coloring;
# before the screen, converging every seed took 2,148 / 3,018, 2,925 / 4,358,
# 33,057 / 36,525 and 34,171 / 37,788
WALK_WORK = {
    (12, "directed"): (385, 1254),
    (12, "bidirectional"): (756, 2188),
    (16, "directed"): (2095, 5562),
    (16, "bidirectional"): (1611, 5227),
}


@pytest.mark.parametrize("n, shape", sorted(WALK_WORK))
def test_screen_leaves_few_seeds_to_converge(n, shape, monkeypatch):
    calls = {"_converge": 0, "_sweep": 0}
    for module, name in ((lattice_module, "_converge"), (cir_module, "_sweep")):
        def counting(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    enumerate_balanced(ring(n, (1,) if shape == "directed" else (1, -1)))
    converges, sweeps = WALK_WORK[n, shape]
    assert calls["_converge"] <= converges and calls["_sweep"] <= sweeps


def screen_merges(monkeypatch, walk) -> int:
    """The merges made while ``_surviving_masks`` runs during ``walk()``."""
    merges, screening = 0, False
    real_merge, real_screen = CodedNetwork.merge, lattice_module._surviving_masks

    def counting_merge(self, a, b):
        nonlocal merges
        merges += screening
        return real_merge(self, a, b)

    def flagged_screen(view, cls):  # flags the merges made while the screen runs
        nonlocal screening
        masks = real_screen(view, cls)
        while True:
            screening = True
            mask = next(masks, None)
            screening = False
            if mask is None:
                return
            yield mask

    monkeypatch.setattr(CodedNetwork, "merge", counting_merge)
    monkeypatch.setattr(lattice_module, "_surviving_masks", flagged_screen)
    walk()
    return merges


def test_screen_keys_ring_rows_from_tables(monkeypatch):
    # a ring row has at most two sources in its class, so the screen merges
    # only to key a pattern it meets for the first time; rekeying the moved
    # rows with merges at every step took 33,794 merges on this walk
    def walk():
        assert len(enumerate_balanced(ring(16, (1, -1))).elements) == 33

    assert 0 < screen_merges(monkeypatch, walk) < 1000


@pytest.mark.parametrize("walk", [
    lambda: enumerate_balanced(_chorded_ring()),
    lambda: enumerate_balanced(all_to_all(12), budget=200),
], ids=["chorded_ring", "all_to_all_12"])
def test_screen_keys_dense_rows_from_shared_tables(walk, monkeypatch):
    # rows with one sequence of codes share a table, so a dense class merges
    # only for the patterns it meets first; the chorded walk made 29,607
    # merges and all_to_all(12) 14,488 when rows of over 6 sources had no table
    assert 0 < screen_merges(monkeypatch, walk) < 5000


def test_split_moves_the_cells_of_the_set_bits():
    parent, cls = (1, 2, 1, 3, 1, 1, 2), [0, 2, 4, 5]
    for mask in range(1 << 3):
        moved = {cls[i + 1] for i in range(3) if mask >> i & 1}
        seed, rank, _, smaller = _split(parent, 3, cls, mask)
        assert seed == [4 if c in moved else parent[c] for c in range(7)]
        assert (rank, smaller) == (4, min(len(moved), 4 - len(moved)))


def test_bidirectional_18_ring_lattice():
    assert len(enumerate_balanced(ring(18, (1, -1))).elements) == 42


def test_budget_stopped_walk_converges_the_same_seeds(monkeypatch):
    # every coloring of all_to_all is balanced, so every seed survives the
    # screen and reaches a new element: the walk converges the first 1000
    # seeds of the top, in order, and no others
    net = all_to_all(14)
    converged = []
    real = lattice_module._converge

    def recording(view, seed, *args):
        converged.append(seed)
        return real(view, seed, *args)

    monkeypatch.setattr(lattice_module, "_converge", recording)
    assert not enumerate_balanced(net, budget=1000).complete
    expected = itertools.islice(_split_seeds(top(net).colors), 1000)
    assert converged == [seed for seed, *_ in expected]


def test_exports(resistor6):
    lat = enumerate_balanced(resistor6)
    text = lattice_json(lat, resistor6.cells)
    assert '"elements"' in text and '"covers"' in text
    dot = lattice_dot(lat, resistor6.cells)
    assert dot.startswith("digraph lattice {")
    assert dot.count(" -> ") == len(lat.covers)
