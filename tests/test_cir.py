"""Refinement traces and golden examples."""
import random

import pytest

import corpus
from checks import brute_force_balanced
from conftest import make_chain
from synchro import (
    Partition,
    PartitionError,
    cir,
    cir_iteration,
    is_balanced,
    is_finer,
    join,
    meet,
    parse_partition,
    quotient,
    row_signature,
    top,
    unbalance_witness,
)


def test_two_type_resistor_trace(resistor6):
    seed = resistor6.type_partition()
    trace = cir(resistor6, seed)
    partitions = [p.colors for p, _ in trace.iterations]
    assert partitions == [
        (1, 1, 2, 2, 3, 3),
        (1, 1, 2, 3, 4, 4),
        (1, 1, 2, 3, 4, 4),
    ]
    assert [r for _, r in trace.iterations] == [3, 4, 4]
    assert trace.converged.colors == (1, 1, 2, 3, 4, 4)
    assert trace.refining_iterations == 2
    assert is_balanced(resistor6, trace.converged).balanced


def test_single_iteration_steps(resistor6):
    seed = resistor6.type_partition()
    first = cir_iteration(resistor6, seed)
    assert first.colors == (1, 1, 2, 2, 3, 3)
    second = cir_iteration(resistor6, first)
    assert second.colors == (1, 1, 2, 3, 4, 4)


def test_second_seed_trace(resistor6):
    seed = parse_partition("1,2,5;3,4;6", resistor6.cells)
    trace = cir(resistor6, seed)
    assert trace.converged.colors == (1, 1, 2, 3, 4, 5)


def test_balanced_seed_is_fixed_point(triangle3):
    part = parse_partition("1,2;3", triangle3.cells)
    assert cir_iteration(triangle3, part) == part
    trace = cir(triangle3, part)
    assert trace.converged == part
    assert trace.refining_iterations == 0


def test_chain_refines_to_trivial(chain3):
    trace = cir(chain3, Partition.single(3))
    assert trace.converged == Partition.trivial(3)


def test_top_stops_at_the_discrete_coloring(work):
    # the chain's top is discrete; sweep k reaches rank k + 1, so rank 10
    # comes at sweep 9 and no confirming sweep follows
    assert top(make_chain(10)) == Partition.trivial(10)
    assert work["_sweep"] == 9


def test_cir_records_the_confirming_sweep_of_a_discrete_coloring(work):
    trace = cir(make_chain(10), Partition.single(10))
    assert [r for _, r in trace.iterations] == [*range(2, 11), 10]
    assert work["_sweep"] == len(trace.iterations) == len(trace.ops) == 10


def test_top_examples(resistor6, triangle3):
    assert top(resistor6).colors == (1, 1, 2, 3, 4, 4)
    assert top(triangle3).colors == (1, 1, 2)


def test_rejects_type_mixing(resistor6):
    with pytest.raises(PartitionError):
        cir(resistor6, Partition.single(6))


@pytest.mark.parametrize("check", [
    is_balanced,
    cir,
    cir_iteration,
    quotient,
    pytest.param(lambda net, p: row_signature(net, p, "1"), id="row_signature"),
    unbalance_witness,
    pytest.param(lambda net, p: join(net, p, top(net)), id="join"),
    pytest.param(lambda net, p: meet(net, top(net), p), id="meet"),
])
@pytest.mark.parametrize("partition, message", [
    (Partition.from_colors([1, 1, 1, 2, 2, 2]), "partition mixes cells of different types"),
    (Partition.trivial(5), "partition covers 5 cells, network has 6"),
])
def test_partition_errors_name_the_fault(resistor6, check, partition, message):
    # resistor6 types its cells a,a,b,b,a,a, so 1,2,3;4,5,6 mixes a and b;
    # join checks its first coloring and meet its second
    with pytest.raises(PartitionError) as err:
        check(resistor6, partition)
    assert str(err.value) == message


def test_ranks_strictly_increase_then_repeat():
    for net in corpus.corpus_networks()[:20]:
        rng = random.Random(net.n * 17)
        seed = corpus.random_seed_partition(net, rng)
        trace = cir(net, seed)
        ranks = [r for _, r in trace.iterations]
        assert ranks[-1] == (ranks[-2] if len(ranks) > 1 else seed.rank)
        for earlier, later in zip(ranks, ranks[1:-1]):
            assert earlier < later
        assert trace.refining_iterations <= net.n - seed.rank


def test_result_is_balanced_and_coarsest():
    rng = random.Random(23)
    for net in corpus.corpus_networks()[:14]:
        if net.n > 7:
            continue
        balanced = brute_force_balanced(net)
        for _ in range(6):
            seed = corpus.random_seed_partition(net, rng)
            found = cir(net, seed).converged
            assert is_balanced(net, found).balanced
            assert is_finer(found, seed)
            below = [p for p in balanced if is_finer(p, seed)]
            for p in below:
                assert is_finer(p, found)
            assert found in below


def test_deterministic_under_cell_relabeling():
    rng = random.Random(99)
    for net in corpus.corpus_networks()[:10]:
        order = list(range(net.n))
        rng.shuffle(order)
        from synchro import Network

        cells = [net.cells[i] for i in order]
        types = [net.type_names[net.cell_types[i]] for i in order]
        edges = []
        for c in range(net.n):
            for d, w in net.row_items(c):
                edges.append((net.cells[c], net.cells[d], w))
        permuted = Network.build(cells, types, list(net.type_names), net.registry, edges)
        original = {
            frozenset(net.cells[i] for i in cls) for cls in top(net).classes()
        }
        relabeled = {
            frozenset(permuted.cells[i] for i in cls) for cls in top(permuted).classes()
        }
        assert original == relabeled
