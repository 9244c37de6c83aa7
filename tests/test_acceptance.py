"""Acceptance suite: one test per numbered criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; tolerances are pinned here, not configurable.
"""
import itertools
import time
from fractions import Fraction

import numpy as np

import corpus
from checks import all_candidates, brute_force_balanced, law_check
from conftest import make_chain3, make_resistor6, make_triangle3
from synchro import (
    FreeCommutative,
    MonoidRegistry,
    NaturalAdd,
    NaturalMul,
    Network,
    Partition,
    ProductMonoid,
    ResistorParallel,
    WithAnnihilator,
    admissible_eval,
    cir,
    enumerate_balanced,
    is_balanced,
    is_finer,
    join,
    lift,
    linear_oracle,
    meet,
    parse_partition,
    quotient,
    quotient_match,
    row_signature,
    simulate_map,
    unbalance_witness,
)

R = ResistorParallel()


def _ohm(r):
    return R.from_resistance(r)


def _passed(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def _checked_cir(net, seed):
    """cir plus the convergence bound every run must respect."""
    trace = cir(net, seed)
    assert trace.refining_iterations <= net.n - seed.rank
    return trace


def test_criterion_1_golden_refinement_trace():
    net = make_resistor6()
    seed = net.type_partition()
    assert seed.colors == (1, 1, 2, 2, 1, 1)

    start = time.perf_counter()
    trace = cir(net, seed)
    elapsed = time.perf_counter() - start

    assert [p.colors for p, _ in trace.iterations] == [
        (1, 1, 2, 2, 3, 3),
        (1, 1, 2, 3, 4, 4),
        (1, 1, 2, 3, 4, 4),
    ]
    assert trace.converged == parse_partition("1,2;3;4;5,6", net.cells)

    # intermediate sum tables, exact in the rationals (entries are 15, 30, no-edge)
    first = trace.iterations[0][0]
    expected_stage0 = {
        "1": (_ohm(15), _ohm(30)),
        "3": (_ohm(15), _ohm(30)),
        "5": (_ohm(15), _ohm("inf")),
    }
    for cell, sums in expected_stage0.items():
        assert row_signature(net, seed, cell) == sums
    expected_stage1 = {
        "1": (_ohm(15), _ohm(30), _ohm("inf")),
        "3": (_ohm(30), _ohm(30), _ohm(30)),
        "4": (_ohm("inf"), _ohm(30), _ohm(15)),
        "5": (_ohm(30), _ohm("inf"), _ohm(30)),
    }
    for cell, sums in expected_stage1.items():
        assert row_signature(net, first, cell) == sums
    final = trace.converged
    expected_stage2 = {
        "1": (_ohm(15), _ohm(30), _ohm("inf"), _ohm("inf")),
        "2": (_ohm(15), _ohm(30), _ohm("inf"), _ohm("inf")),
        "3": (_ohm(30), _ohm("inf"), _ohm(30), _ohm(30)),
        "4": (_ohm("inf"), _ohm(30), _ohm("inf"), _ohm(15)),
        "5": (_ohm(30), _ohm("inf"), _ohm("inf"), _ohm(30)),
        "6": (_ohm(30), _ohm("inf"), _ohm("inf"), _ohm(30)),
    }
    for cell, sums in expected_stage2.items():
        assert row_signature(net, final, cell) == sums
    assert _ohm(15) == Fraction(1, 15)  # stored as exact conductance

    assert elapsed < 0.010, f"refinement took {elapsed * 1e3:.2f} ms"
    _passed(1, f"golden trace reproduced exactly in {elapsed * 1e3:.2f} ms")


def test_criterion_1_golden_refinement_trace_in_rounds(rounds, capsys):
    """Criterion 1 with every sweep after the first run in rounds; its PASS
    line is captured, so the criterion prints once."""
    test_criterion_1_golden_refinement_trace()
    capsys.readouterr()
    assert len(rounds) == 1


def test_criterion_2_golden_second_seed():
    net = make_resistor6()
    seed = parse_partition("1,2,5;3,4;6", net.cells)
    trace = _checked_cir(net, seed)
    assert trace.converged == parse_partition("1,2;3;4;5;6", net.cells)
    _passed(2, "second seed refines to 1,2;3;4;5;6 exactly")


def test_criterion_3_quotient_golden():
    net = make_triangle3()
    part = parse_partition("1,2;3", net.cells)
    assert is_balanced(net, part).balanced
    sums = [row_signature(net, part, cell) for cell in net.cells]
    assert sums == [(1, 1), (1, 1), (2, 1)]
    q = quotient(net, part)
    assert [[q.entry(a, b) for b in q.cells] for a in q.cells] == [[1, 1], [2, 1]]
    _passed(3, "sum table [[1,1],[1,1],[2,1]] and quotient [[1,1],[2,1]] exact")


def test_criterion_4_chain_network():
    net = make_chain3()
    result = is_balanced(net, parse_partition("1;2,3", net.cells))
    assert not result.balanced
    assert result.counterexample[:2] == ("2", "3")
    lat = enumerate_balanced(net)
    assert set(lat.elements) == {Partition.trivial(3)}
    assert brute_force_balanced(net) == {Partition.trivial(3)}
    _passed(4, f"unbalanced with witness pair {result.counterexample[:2]}, "
               "lattice is the trivial partition alone")


def test_criterion_5_oracle_equivalence():
    nets = corpus.corpus_networks()
    assert len(nets) >= 50
    kinds = {spec.kind for net in nets for _, spec in net.registry.pairs()}
    assert {"natural_add", "resistor_parallel", "free_commutative", "product"} <= kinds

    balanced_sets, brute_seconds = corpus.balanced_sets()
    start = time.perf_counter()
    seeds_checked = 0
    for index, (net, brute) in enumerate(zip(nets, balanced_sets)):
        lat = enumerate_balanced(net)
        assert lat.complete
        assert set(lat.elements) == brute, f"network {index}"

        rng = __import__("random").Random(7000 + index)
        for _ in range(20):
            seed = corpus.random_seed_partition(net, rng)
            found = _checked_cir(net, seed).converged
            below = [p for p in brute if is_finer(p, seed)]
            maxima = [m for m in below if all(is_finer(p, m) for p in below)]
            assert len(maxima) == 1 and found == maxima[0], f"network {index}"
            seeds_checked += 1
    elapsed = brute_seconds + (time.perf_counter() - start)
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _passed(5, f"{len(nets)} networks, {seeds_checked} seeds, enumeration == "
               f"brute force, in {elapsed:.1f} s")


def test_criterion_6_lattice_laws():
    nets = corpus.corpus_networks()
    balanced_sets, _ = corpus.balanced_sets()
    pairs_checked = 0
    for net, brute in zip(nets, balanced_sets):
        ordered = sorted(brute, key=lambda p: (p.rank, p.colors))
        for a, b in itertools.combinations(ordered, 2):
            lub = join(net, a, b)
            assert is_balanced(net, lub).balanced
            uppers = [p for p in ordered if is_finer(a, p) and is_finer(b, p)]
            assert lub in uppers and all(is_finer(lub, p) for p in uppers)

            glb = meet(net, a, b)
            assert is_balanced(net, glb).balanced
            lowers = [p for p in ordered if is_finer(p, a) and is_finer(p, b)]
            assert glb in lowers and all(is_finer(p, glb) for p in lowers)
            pairs_checked += 1

        rng = __import__("random").Random(9000 + net.n)
        for _ in range(5):
            _checked_cir(net, corpus.random_seed_partition(net, rng))
    _passed(6, f"join/meet equal brute LUB/GLB on {pairs_checked} pairs; "
               "every refinement run within the sweep bound")


def test_criterion_7_monoid_laws():
    shipped = [
        ResistorParallel(),
        NaturalAdd(),
        NaturalMul(),
        FreeCommutative(("a", "b", "c")),
        ProductMonoid((NaturalAdd(), NaturalMul())),
        WithAnnihilator(FreeCommutative(("a", "b"))),
    ]
    for spec in shipped:
        report = law_check(spec, trials=1000)
        assert report.ok, (spec.describe(), report.violations[:3])

    assert R.combine(_ohm(30), _ohm(15)) == _ohm(10)
    assert R.combine(_ohm(20), _ohm(20)) == _ohm(10)
    assert R.combine(_ohm(30), _ohm(15)) == R.combine(_ohm(20), _ohm(20))
    for w in (_ohm(42), _ohm(Fraction(7, 3)), _ohm(0)):
        assert R.combine(w, _ohm("inf")) == w
    _passed(7, "1000 clean law trials per shipped monoid; resistor identities exact")


def test_criterion_8_dynamics_invariance():
    nets = corpus.corpus_networks()
    balanced_sets, _ = corpus.balanced_sets()
    map_pairs = 0
    ode_pairs = 0
    worst = 0.0
    for net, brute in zip(nets, balanced_sets):
        oracle = linear_oracle(net)
        for part in brute:
            x0 = lift(part, [1.0 + k for k in range(part.rank)])
            traj = simulate_map(net, oracle, x0, 100)
            for state in traj.states.tolist():
                for cls in part.classes():
                    anchor = state[cls[0]].hex()
                    assert all(state[i].hex() == anchor for i in cls[1:])
            map_pairs += 1

            dev = quotient_match(
                net, part, oracle, [1.0 + k for k in range(part.rank)],
                horizon=10.0, dt=1e-3,
            )
            worst = max(worst, dev)
            assert dev <= 1e-8
            ode_pairs += 1
    _passed(8, f"{map_pairs} pairs bitwise-synchronized over 100 steps; "
               f"{ode_pairs} flow matches within {worst:.2e} <= 1e-8")


def test_criterion_9_witness_soundness():
    nets = corpus.corpus_networks()
    balanced_sets, _ = corpus.balanced_sets()
    witnessed = 0
    for net, brute in zip(nets, balanced_sets):
        for candidate in all_candidates(net):
            if candidate in brute:
                continue
            oracle, state = unbalance_witness(net, candidate)
            for cls in candidate.classes():
                assert len({state[i] for i in cls}) == 1  # on the polydiagonal
            outputs = admissible_eval(net, oracle, state)
            off_diagonal = any(
                len({outputs[i] for i in cls}) > 1 for cls in candidate.classes()
            )
            assert off_diagonal, (net, candidate)
            witnessed += 1
    assert witnessed > 0
    _passed(9, f"{witnessed} unbalanced colorings all separated by their witness")


def test_criterion_10_complexity_smoke():
    """The unit-weight directed chain refined from one color peels off one
    cell per sweep, the most sweeps the convergence bound allows; each
    sweep's ``ops`` must be exactly |C| + |E|, the cost of a full sweep of
    the paper's algorithm and an upper bound on what the engine's rounds
    do, and the total must grow at most cubically."""
    sizes = (64, 128, 256, 512, 1024)
    totals = []
    for n in sizes:
        cells = [str(i) for i in range(1, n + 1)]
        edges = [(cells[i + 1], cells[i], 1) for i in range(n - 1)]
        net = Network.build(cells, ["cell"] * n, ["cell"],
                            MonoidRegistry.uniform(NaturalAdd(), 1), edges)
        trace = cir(net, Partition.single(n))
        sweeps = len(trace.iterations)
        assert trace.ops == (net.n + net.edge_count(),) * sweeps, "per-sweep count drifted"
        totals.append(trace.total_ops)
        print(f"    size {n:>5}  sweeps {sweeps:>5}  total ops {trace.total_ops:>9}")
    slope = float(np.polyfit(np.log(sizes), np.log(totals), 1)[0])
    assert slope <= 3.2, f"super-cubic trend: slope {slope:.3f}"
    _passed(10, f"slope {slope:.3f} <= 3.2, per-sweep counts equal |C| + |E|")


def test_bundle_family_makes_the_cubic_bound_tight():
    """The chain of criterion 10 where every chain cell also receives a unit
    edge from each of n input-free cells of a second type: |C| = 2n and
    |E| = n² + n - 1, and refining from the type partition still peels off
    one chain cell per sweep, so the paper's algorithm, n full sweeps of
    |C| + |E| as ``ops`` counts them, grows cubically in |C|. The engine's
    rounds key far fewer rows (``test_top_keys_few_rows_in_rounds``)."""
    sizes = (16, 32, 64)
    totals = []
    for n in sizes:
        chain = [f"c{i}" for i in range(n)]
        bundle = [f"b{i}" for i in range(n)]
        edges = [(chain[i + 1], chain[i], 1) for i in range(n - 1)]
        edges += [(c, b, 1) for c in chain for b in bundle]
        net = Network.build(chain + bundle, ["chain"] * n + ["bundle"] * n, ["chain", "bundle"],
                            MonoidRegistry.uniform(NaturalAdd(), 2), edges)
        trace = cir(net, net.type_partition())
        assert trace.ops == (net.n + net.edge_count(),) * n, "per-sweep count drifted"
        totals.append(trace.total_ops)
        print(f"    size {net.n:>5}  sweeps {n:>5}  total ops {trace.total_ops:>9}")
    slope = float(np.polyfit(np.log([2 * n for n in sizes]), np.log(totals), 1)[0])
    assert 2.8 <= slope <= 3.2, f"bundle family not cubic: slope {slope:.3f}"
