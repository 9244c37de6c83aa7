"""Balance decisions, row signatures and quotient networks."""
import gc
import random

import pytest

import corpus
import corpus_noncancel
from checks import brute_force_balanced, check_transitivity
from conftest import make_chain
from synchro import (
    Network,
    NotBalancedError,
    Partition,
    PartitionError,
    MonoidRegistry,
    NaturalAdd,
    ProductMonoid,
    ResistorParallel,
    SchemaError,
    SynchroError,
    compose,
    enumerate_balanced,
    is_balanced,
    is_finer,
    parse_partition,
    quotient,
    quotient_partition,
    row_signature,
)
from synchro.coding import coded

R = ResistorParallel()


def test_a_discrete_coloring_is_balanced_without_reading_a_row(resistor6, work):
    assert is_balanced(resistor6, Partition.trivial(6)).balanced
    assert work == {"row_sums": 0, "_sweep": 0}


def test_the_first_differing_pair_ends_the_check(work):
    # cell 1 of the chain has no input and cell 2 one, so the one-class
    # coloring is decided by the first two rows; the other 98 go unread
    result = is_balanced(make_chain(100), Partition.single(100))
    assert result.counterexample == ("1", "2", 1)
    assert work == {"row_sums": 2, "_sweep": 0}


def test_signature_two_type_example(resistor6):
    seed = resistor6.type_partition()
    sums = row_signature(resistor6, seed, "1")
    assert sums == (R.from_resistance(15), R.from_resistance(30))
    assert seed.colors[resistor6.index("1")] == 1


def test_signature_triangle_doubled_input(triangle3):
    part = parse_partition("1,2;3", triangle3.cells)
    assert row_signature(triangle3, part, "3") == (2, 1)


def test_signature_under_trivial_partition_is_the_row(triangle3):
    trivial = Partition.trivial(3)
    assert row_signature(triangle3, trivial, "3") == (1, 1, 1)
    assert row_signature(triangle3, trivial, "1") == (1, 0, 1)


def test_signature_requires_type_compatible_partition(resistor6):
    with pytest.raises(PartitionError):
        row_signature(resistor6, Partition.single(6), "1")


def test_balanced_triangle(triangle3):
    assert is_balanced(triangle3, parse_partition("1,2;3", triangle3.cells)).balanced


def test_trivial_partition_always_balanced(triangle3, chain3, resistor6):
    for net in (triangle3, chain3, resistor6):
        assert is_balanced(net, Partition.trivial(net.n)).balanced


def test_chain_counterexample(chain3):
    result = is_balanced(chain3, parse_partition("1;2,3", chain3.cells))
    assert not result.balanced
    c, d, color = result.counterexample
    assert (c, d) == ("2", "3")
    sig_c = row_signature(chain3, parse_partition("1;2,3", chain3.cells), c)
    sig_d = row_signature(chain3, parse_partition("1;2,3", chain3.cells), d)
    assert sig_c[color - 1] != sig_d[color - 1]


def test_counterexample_is_first_in_cell_order(resistor6):
    result = is_balanced(resistor6, parse_partition("1;2;3;4;5,6", resistor6.cells))
    assert result.counterexample[:2] == ("5", "6")


@pytest.mark.parametrize(
    "corpus_networks",
    [corpus.corpus_networks, corpus_noncancel.corpus_networks],
    ids=["mixed", "noncancellative"],
)
def test_verdict_memo_answers_as_a_sweep_does(corpus_networks):
    """Cold, warm and through an equal fresh partition, every verdict is the same."""
    rng = random.Random(17)
    for net in corpus_networks()[:20]:
        for part in [net.type_partition(), Partition.trivial(net.n)] + [
            corpus.random_seed_partition(net, rng) for _ in range(4)
        ]:
            cold = is_balanced(net, part)
            assert (part in coded(net).balanced) == cold.balanced
            assert is_balanced(net, part) == cold
            assert is_balanced(net, Partition.from_colors(part.colors)) == cold


def test_unbalanced_verdicts_are_not_remembered(chain3):
    part = parse_partition("1;2,3", chain3.cells)
    results = [is_balanced(chain3, part) for _ in range(3)]
    assert len(coded(chain3).balanced) == 0
    assert results[0].counterexample == ("2", "3", 1)
    assert results == [results[0]] * 3


def test_memo_still_raises_partition_errors(resistor6):
    view = coded(resistor6)
    trivial = Partition.trivial(6)
    assert is_balanced(resistor6, trivial).balanced
    assert len(view.balanced) == 1
    for bad in (Partition.trivial(5), Partition.single(6)):  # wrong length, mixed types
        for _ in range(2):
            with pytest.raises(PartitionError):
                is_balanced(resistor6, bad)
    assert len(view.balanced) == 1


def test_networks_with_other_weights_do_not_share_verdicts(triangle3):
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    edges = [("1", "1", 1), ("1", "3", 1), ("2", "1", 2), ("2", "3", 1),
             ("3", "1", 1), ("3", "2", 1), ("3", "3", 1)]
    other = Network.build(["1", "2", "3"], ["t"] * 3, ["t"], registry, edges)
    part = parse_partition("1,2;3", triangle3.cells)
    assert is_balanced(triangle3, part).balanced
    assert part in coded(triangle3).balanced
    assert is_balanced(other, part).counterexample == ("1", "2", 1)
    assert len(coded(other).balanced) == 0


def test_memo_holds_partitions_weakly(triangle3):
    part = parse_partition("1,2;3", triangle3.cells)
    assert is_balanced(triangle3, part).balanced
    assert len(coded(triangle3).balanced) == 1
    del part
    gc.collect()
    assert len(coded(triangle3).balanced) == 0


class _SlottedColoring:
    """A coloring with a Partition's reading interface that cannot be weakly referenced."""

    __slots__ = ("colors",)

    def __init__(self, colors):
        self.colors = colors

    def __len__(self):
        return len(self.colors)

    @property
    def rank(self):
        return max(self.colors)


def test_colorings_without_weak_references_are_answered_not_remembered(triangle3, chain3):
    assert is_balanced(triangle3, _SlottedColoring((1, 1, 2))).balanced
    assert len(coded(triangle3).balanced) == 0
    result = is_balanced(chain3, _SlottedColoring((1, 2, 2)))
    assert result.counterexample == ("2", "3", 1)


def test_quotient_triangle(triangle3):
    part = parse_partition("1,2;3", triangle3.cells)
    q = quotient(triangle3, part)
    assert q.cells == ("1+2", "3")
    assert [[q.entry(a, b) for b in q.cells] for a in q.cells] == [[1, 1], [2, 1]]
    assert _entrywise_relation_holds(triangle3, part, q)
    # all-ones quotient rows: the entry from 1+2 into 3 should be 2
    ones = [(a, b, 1) for a in q.cells for b in q.cells]
    wrong = Network.build(q.cells, ["t", "t"], q.type_names, q.registry, ones)
    assert not _entrywise_relation_holds(triangle3, part, wrong)


def test_quotient_of_trivial_partition_is_same_network(triangle3):
    assert quotient(triangle3, Partition.trivial(3)) == triangle3


def test_quotient_two_type_example(resistor6):
    part = parse_partition("1,2;3;4;5,6", resistor6.cells)
    q = quotient(resistor6, part)
    assert q.cells == ("1+2", "3", "4", "5+6")
    # distinct rows of the final refinement table, compressed
    expected = {
        "1+2": {"1+2": 15, "3": 30},
        "3": {"1+2": 30, "4": 30, "5+6": 30},
        "4": {"3": 30, "5+6": 15},
        "5+6": {"1+2": 30, "5+6": 30},
    }
    for target in q.cells:
        for source in q.cells:
            want = expected[target].get(source)
            got = q.entry(target, source)
            if want is None:
                assert got == R.identity
            else:
                assert got == R.from_resistance(want)
    assert _entrywise_relation_holds(resistor6, part, q)


def _entrywise_relation_holds(net, partition, q):
    """The definition: every (cell, color) sum equals its quotient entry."""
    for idx, k in enumerate(partition.colors):
        sums = row_signature(net, partition, net.cells[idx])
        for l, got in enumerate(sums):
            expected = q.entry(q.cells[k - 1], q.cells[l])
            if not (expected == got or (expected is None and got is None)):
                return False
    return True


def _rebuilt(q, edges):
    types = [q.type_names[t] for t in q.cell_types]
    return Network.build(q.cells, types, q.type_names, q.registry, edges)


@pytest.mark.parametrize(
    "corpus_networks",
    [corpus.corpus_networks, corpus_noncancel.corpus_networks],
    ids=["mixed", "noncancellative"],
)
def test_quotient_relation_matches_entrywise_definition(corpus_networks):
    for net in corpus_networks():
        for part in brute_force_balanced(net):
            q = quotient(net, part)
            assert _entrywise_relation_holds(net, part, q)
            edges = [(q.cells[c], q.cells[d], w) for c in range(q.n) for d, w in q.row_items(c)]
            if not edges:
                continue
            # dropping the last edge breaks the relation; doubling it breaks it
            # unless w combined with itself is w
            target, source, w = edges[-1]
            idempotent = q.spec_for(q.index(target), q.index(source)).combine(w, w) == w
            for wrong, holds in ((edges[:-1], False), (edges + edges[-1:], idempotent)):
                assert _entrywise_relation_holds(net, part, _rebuilt(q, wrong)) == holds


def test_quotient_relation_rejects_wrong_quotient_at_full_rank(resistor6):
    trivial = Partition.trivial(resistor6.n)
    q = quotient(resistor6, trivial)
    assert _entrywise_relation_holds(resistor6, trivial, q)
    edges = [(q.cells[c], q.cells[d], w) for c in range(q.n) for d, w in q.row_items(c)]
    # 30 ohms from cell 5 into cell 6 becomes 15 ohms; cell 5 gains an input from cell 3
    for extra in (("6", "5"), ("5", "3")):
        wrong = _rebuilt(q, edges + [(*extra, R.from_resistance(30))])
        assert not _entrywise_relation_holds(resistor6, trivial, wrong)


def test_quotient_rejects_unbalanced(chain3):
    with pytest.raises(NotBalancedError) as err:
        quotient(chain3, parse_partition("1;2,3", chain3.cells))
    assert err.value.counterexample[:2] == ("2", "3")


def test_transitivity_on_resistor_example(resistor6):
    first = parse_partition("1,2;3;4;5;6", resistor6.cells)
    step1 = quotient(resistor6, first)
    second = parse_partition("1+2;3;4;5,6", step1.cells)
    report = check_transitivity(resistor6, first, second)
    assert report.ok
    direct_top = quotient(resistor6, parse_partition("1,2;3;4;5,6", resistor6.cells))
    assert report.direct == direct_top


def test_transitivity_identity_second_step(resistor6):
    first = parse_partition("1,2;3;4;5,6", resistor6.cells)
    step1 = quotient(resistor6, first)
    identity = Partition.trivial(step1.n)
    report = check_transitivity(resistor6, first, identity)
    assert report.ok
    assert report.direct == step1


def test_transitivity_trivial_first_step(triangle3):
    first = Partition.trivial(3)
    second = parse_partition("1,2;3", triangle3.cells)
    report = check_transitivity(triangle3, first, second)
    assert report.ok
    assert report.direct == quotient(triangle3, second)


def test_transitivity_with_interleaved_classes():
    """Merged cell ids must agree even when classes interleave in cell order."""
    from synchro import MonoidRegistry, NaturalAdd, Network

    cells = ["a", "b", "c"]
    edges = [(x, y, 1) for x in cells for y in cells if x != y]
    net = Network.build(cells, ["t"] * 3, ["t"],
                        MonoidRegistry.uniform(NaturalAdd(), 1), edges)
    first = Partition.from_colors([1, 2, 1])  # classes {a,c} and {b} interleave
    step1 = quotient(net, first)
    assert step1.cells == ("a+c", "b")
    second = Partition.single(2)
    report = check_transitivity(net, first, second)
    assert report.ok
    assert report.direct.cells == ("a+b+c",)


def test_quotient_refuses_classes_whose_merged_ids_collide():
    """Quotient ids read '+' as a separator, so {a, b} and {a+b} would both be a+b."""
    cells = ["a", "b", "a+b"]
    net = Network.build(cells, ["t"] * 3, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [("a", "a+b", 1), ("b", "a+b", 1), ("a+b", "a", 1)])
    partition = parse_partition("a,b;a+b", cells)
    assert is_balanced(net, partition).balanced
    with pytest.raises(SynchroError) as err:
        quotient(net, partition)
    assert not isinstance(err.value, SchemaError)  # the input is valid
    assert str(err.value).startswith(
        "classes ['a', 'b'] and ['a+b'] would both be quotient cell 'a+b'"
    )
    assert quotient(net, Partition.trivial(3)).cells == ("a", "b", "a+b")


def test_induced_partitions_stay_balanced_on_quotients():
    """Coarser balanced partitions survive as balanced colorings of the quotient."""
    rng = random.Random(5)
    nets = corpus.corpus_networks()[:12]
    checked = 0
    for net in nets:
        lattice = enumerate_balanced(net)
        elements = list(lattice.elements)
        for finer in elements:
            q = quotient(net, finer)
            for coarser in elements:
                if finer == coarser or not is_finer(finer, coarser):
                    continue
                induced = quotient_partition(finer, coarser)
                assert is_balanced(q, induced).balanced
                checked += 1
    assert checked > 0


def test_quotient_lattice_matches_coarser_elements():
    """Lifting: for every balanced coloring P, the balanced colorings of the
    quotient by P, composed with P, are exactly the balanced colorings
    coarser than P."""
    pairs = 0
    for net in corpus.corpus_networks() + corpus_noncancel.corpus_networks():
        lattice = enumerate_balanced(net)
        for anchor in lattice.elements:
            sub = enumerate_balanced(quotient(net, anchor))
            assert sub.complete
            lifted = {compose(anchor, q) for q in sub.elements}
            assert lifted == {p for p in lattice.elements if is_finer(anchor, p)}, (net, anchor)
            pairs += 1
    assert pairs == 258


def _ring(n, *steps):
    return [(str((i + k) % n), str(i)) for k in steps for i in range(n)]


# (cell count, edges of type 1, edges of type 2), all on one cell type
_EDGE_TYPE_PAIRS = [
    (6, _ring(6, 1), _ring(6, -1)),  # two edge types running opposite ways round a ring
    (6, _ring(6, 1), _ring(6, 3)),
    (8, _ring(8, 1), _ring(8, 2, 4)),
    (5, _ring(5, 1, 2, 3, 4), _ring(5, 1)),  # all-to-all under a directed ring
]


@pytest.mark.parametrize("index", range(len(_EDGE_TYPE_PAIRS)))
def test_edge_types_become_one_product_weight(index):
    """A network with two edge types is balanced exactly where the single-type
    network weighted in NaturalAdd x NaturalAdd is: a coloring must balance
    each edge type on its own, and the product compares the two counts
    componentwise."""
    n, first, second = _EDGE_TYPE_PAIRS[index]
    cells = [str(i) for i in range(n)]

    def build(spec, edges):
        return Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(spec, 1), edges)

    add = NaturalAdd()
    per_type = [set(enumerate_balanced(build(add, [(a, b, 1) for a, b in edges])).elements)
                for edges in (first, second)]
    product = build(ProductMonoid((add, add)),
                    [(a, b, (1, 0)) for a, b in first] + [(a, b, (0, 1)) for a, b in second])
    assert set(enumerate_balanced(product).elements) == per_type[0] & per_type[1]
    if index == 0:
        # forgetting the edge types adds the ring's reflections
        merged = build(add, [(a, b, 1) for a, b in first + second])
        assert set(enumerate_balanced(merged).elements) > per_type[0] & per_type[1]
