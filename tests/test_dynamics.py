"""Oracle evaluation, self-consistency fuzzing, simulation and witnesses."""
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import corpus_noncancel
from checks import Combination, linearity_check, oracle_consistency_check
from synchro import (
    Coupling,
    DimensionMismatch,
    GFunc,
    MonoidMismatch,
    MonoidRegistry,
    NaturalAdd,
    NaturalMul,
    Network,
    OracleSpec,
    Partition,
    SHORT,
    ResistorParallel,
    SchemaError,
    SimulationDiverged,
    SizeLimitError,
    WitnessError,
    admissible_eval,
    coupling_oracle,
    enumerate_balanced,
    linear_oracle,
    parse_partition,
    quotient,
    quotient_match,
    simulate_map,
    simulate_ode,
    trajectory_csv,
    unbalance_witness,
)
from synchro import dynamics
from synchro.dynamics import (
    Oracle,
    _linear_map_step,
    _power_stack,
    _rk4_operator,
    parse_oracle,
    parse_oracle_json,
)
from synchro.partition import lift


def unit_oracle(net):
    """kappa = the raw count/conductance, no internal dynamics, y coupling."""
    return coupling_oracle(net.registry, len(net.type_names), kappa_scale=1.0)


def dense_propagator(net, oracle, dt):
    """M = I + hA(I + h/2 A(I + h/3 A(I + h/4 A))), built densely from the triples of A."""
    rows, cols, vals = _rk4_operator(net, oracle)
    a = np.zeros((net.n, net.n))
    np.add.at(a, (rows, cols), vals)
    m = np.eye(net.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in (dt / 4.0, dt / 3.0, dt / 2.0, dt):
            m = np.eye(net.n) + (h * a) @ m
    return m


def stack_depth(net, oracle, dt):
    """B of the dense stack [M; ...; M^B], or 1 when the flow steps on A itself."""
    stack = _power_stack(_rk4_operator(net, oracle), net.n, dt)
    return 1 if stack is None else len(stack) // net.n


class TestAdmissibleEval:
    def test_triangle_is_matrix_action(self, triangle3):
        f = admissible_eval(triangle3, unit_oracle(triangle3), [1.0, 2.0, 3.0])
        assert f == [4.0, 4.0, 6.0]  # rows sum x1+x3, x1+x3, x1+x2+x3

    def test_no_edges_leaves_internal_dynamics(self):
        registry = MonoidRegistry.uniform(NaturalAdd(), 1)
        net = Network.build(["1", "2"], ["t", "t"], ["t"], registry, [])
        oracle = OracleSpec(registry, 1, g={0: GFunc("scale", a=2.0)})
        assert admissible_eval(net, oracle, [3.0, 5.0]) == [6.0, 10.0]

    def test_resistor_diffusive_coupling(self, resistor6):
        oracle = coupling_oracle(
            resistor6.registry, 2, kappa_scale=1.0, coupling="diffusive"
        )
        x = [4.0, 2.0, 7.0, 1.0, 9.0, 3.0]
        out = admissible_eval(resistor6, oracle, x)
        # cell 5 hears cell 1 and itself through 30-ohm edges
        assert math.isclose(out[4], (1 / 30) * (x[0] - x[4]) + (1 / 30) * (x[4] - x[4]))

    def test_same_state_inputs_merge_before_kappa(self):
        registry = MonoidRegistry.uniform(ResistorParallel(), 1)
        spec = registry.require(0, 0)
        net = Network.build(
            ["hub", "a", "b"],
            ["t"] * 3,
            ["t"],
            registry,
            [
                ("hub", "a", spec.from_resistance(30)),
                ("hub", "b", spec.from_resistance(15)),
            ],
        )
        oracle = unit_oracle(net)
        # a and b share a state, so their resistors combine to 10 ohms first
        out = admissible_eval(net, oracle, [0.0, 2.0, 2.0])
        assert out[0] == (1 / 10) * 2.0

    def test_dimension_check(self, triangle3):
        with pytest.raises(DimensionMismatch):
            admissible_eval(triangle3, unit_oracle(triangle3), [1.0])


class _CubicCross(Oracle):
    """The tempting but wrong two-input form with a product cross-term."""

    def __init__(self, p):
        self.p = p

    def evaluate(self, type_i, x, inputs):
        total = x
        for _, w, y in inputs:
            total += self.p(w) * y
        if len(inputs) == 2:
            (_, w1, y1), (_, w2, y2) = inputs
            total += self.p(w1) * self.p(w2) * y1 * y2
        return total


class _GrowthProduct(Oracle):
    """Multiplicative family compatible with p(a*b) = p(a)+p(b)+p(a)p(b)."""

    def __init__(self, p):
        self.p = p

    def evaluate(self, type_i, x, inputs):
        total = 1.0
        for _, w, y in inputs:
            gate = 1.0 if y >= 0 else 0.0
            total *= 1.0 + self.p(w) * gate
        return x + total - 1.0


class TestConsistencyCheck:
    def test_homomorphism_family_is_clean(self, resistor6):
        report = oracle_consistency_check(unit_oracle(resistor6), trials=800)
        assert report.ok

    def test_cross_term_family_is_caught(self):
        spec = NaturalAdd()
        oracle = _CubicCross(p=float)
        report = oracle_consistency_check(
            oracle, trials=400, pairs=[(0, 0, spec)]
        )
        assert not report.ok
        assert any(v.law == "merge" for v in report.violations)

    def test_multiplicative_family_with_matching_relation_is_clean(self):
        spec = NaturalMul()
        oracle = _GrowthProduct(p=lambda n: float(n - 1))
        report = oracle_consistency_check(
            oracle, trials=800, pairs=[(0, 0, spec)]
        )
        assert report.ok, report.violations[:2]

    def test_mixed_registry_default_oracles_are_clean(self):
        import corpus

        for net in corpus.corpus_networks()[:8]:
            report = oracle_consistency_check(linear_oracle(net), trials=250)
            assert report.ok, (net, report.violations[:2])

    def test_ten_thousand_merge_trials(self, resistor6):
        report = oracle_consistency_check(
            coupling_oracle(resistor6.registry, 2, coupling="diffusive"),
            trials=10_000,
        )
        assert report.ok


class TestSimulation:
    def test_zero_oracle_constant(self, triangle3):
        oracle = OracleSpec(triangle3.registry, 1, kappa={(0, 0): lambda w: 0.0})
        traj = simulate_map(triangle3, oracle, [1.0, 2.0, 3.0], 5)
        assert all(s == [0.0, 0.0, 0.0] for s in traj.states[1:].tolist())
        still = OracleSpec(
            triangle3.registry, 1,
            g={0: GFunc("custom", fn=lambda x: x)},
            kappa={(0, 0): lambda w: 0.0},
        )
        traj = simulate_map(triangle3, still, [1.0, 2.0, 3.0], 5)
        assert all(s == [1.0, 2.0, 3.0] for s in traj.states.tolist())

    def test_one_step_is_evaluation(self, triangle3):
        oracle = unit_oracle(triangle3)
        x0 = [1.0, 2.0, 3.0]
        traj = simulate_map(triangle3, oracle, x0, 1)
        assert traj.states[1].tolist() == admissible_eval(triangle3, oracle, x0)

    def test_divergence_aborts_with_step(self, triangle3):
        blower = OracleSpec(
            triangle3.registry, 1,
            g={0: GFunc("custom", fn=lambda x: x * 1e160)},
            kappa={(0, 0): lambda w: 0.0},
        )
        with pytest.raises(SimulationDiverged) as err:
            simulate_map(triangle3, blower, [1.0, 1.0, 1.0], 5)
        assert err.value.step == 2  # 1e160 is finite, squaring it is not

    def test_linear_oracle_with_an_infinite_natural_kappa_diverges_at_once(self):
        # a SHORT edge has natural kappa inf, so no scale makes the field stable
        spec = ResistorParallel()
        net = Network.build(["a", "b"], ["t", "t"], ["t"], MonoidRegistry.uniform(spec, 1),
                            [("a", "b", SHORT)])
        with pytest.raises(SimulationDiverged) as err:
            simulate_map(net, linear_oracle(net), [1.0, 2.0], 5)
        assert err.value.step == 1

    def test_discrete_invariance_is_bitwise(self, triangle3):
        part = parse_partition("1,2;3", triangle3.cells)
        oracle = linear_oracle(triangle3)
        traj = simulate_map(triangle3, oracle, [5.0, 5.0, 7.0], 100)
        for state in traj.states.tolist():
            assert state[0].hex() == state[1].hex()

    def test_signed_zero_inputs_keep_bitwise_synchrony(self):
        # a and b share a color, but a reads (0.0, -0.0) and b reads (-0.0, 0.0)
        net = Network.build(
            list("abpqrs"), ["t"] * 6, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
            [("a", "p", 1), ("a", "q", 1), ("b", "r", 1), ("b", "s", 1)],
        )
        part = parse_partition("a,b;p,s;q,r", net.cells)
        x0 = lift(part, [0.0, 0.0, -0.0])
        traj = simulate_map(net, linear_oracle(net), x0, 1)
        a, b = traj.states[1, :2].tolist()
        assert a.hex() == b.hex()

    def test_ode_smoke_decays(self, triangle3):
        oracle = linear_oracle(triangle3)
        traj = simulate_ode(triangle3, oracle, [1.0, 2.0, 3.0], 5.0, 1e-2)
        assert np.abs(traj.states[-1]).max() < np.abs(traj.states[0]).max()

    def test_fast_and_slow_ode_paths_agree(self):
        same_h = {"neighbor": lambda x, y: y, "diffusive": lambda x, y: y - x}
        for net, (kind, fn) in itertools.product(corpus.corpus_networks(), same_h.items()):
            base = linear_oracle(net, coupling=kind)
            custom = Coupling("custom", fn=fn)  # the same h, evaluated stage by stage
            slow = OracleSpec(
                net.registry, len(net.type_names),
                g=base._g, kappa=base._kappa,
                h={pair: custom for pair, _ in net.registry.pairs()},
            )
            x0 = [1.0 + 0.25 * c for c in range(net.n)]
            depth = stack_depth(net, base, 1e-3)
            steps = max(2 * depth, 100) + 3  # two block seams, then a partial block
            assert steps > 2 * depth and (depth == 1 or steps % depth)
            fast = simulate_ode(net, base, x0, steps * 1e-3, 1e-3)
            stagewise = simulate_ode(net, slow, x0, steps * 1e-3, 1e-3)
            assert len(fast) == len(stagewise) == steps + 1
            dev = np.abs(fast.states - stagewise.states).max()
            assert dev <= 1e-12, (net, kind)

    def test_ode_orbit_to_an_earlier_time_is_a_bitwise_prefix(self, triangle3):
        # corpus network 8: 7 cells whose propagator pattern is not closed
        # under multiplication, so its powers fill in
        for net in (triangle3, corpus.corpus_networks()[8]):
            oracle = linear_oracle(net, coupling="diffusive")
            dt = 1e-3
            depth = stack_depth(net, oracle, dt)
            assert depth > 1
            x0 = [(1.0, -2.0, 0.5)[c % 3] for c in range(net.n)]
            whole = simulate_ode(net, oracle, x0, 4 * depth * dt, dt)
            for short in (depth - 1, depth + depth // 2 + 1):  # both end mid-block
                head = simulate_ode(net, oracle, x0, short * dt, dt)
                assert len(head) == short + 1
                prefix = whole.states[: short + 1].tolist()
                assert _hex_orbit(head.states.tolist()) == _hex_orbit(prefix)

    def test_every_small_corpus_propagator_stacks_to_the_bound(self):
        for net, kind in itertools.product(corpus.corpus_networks(), ("neighbor", "diffusive")):
            oracle = linear_oracle(net, coupling=kind)
            expected = 1
            if np.isfinite(dense_propagator(net, oracle, 1e-3)).all():
                while 2 * expected * net.n**2 <= dynamics._STACK_ENTRIES:
                    expected *= 2
            assert stack_depth(net, oracle, 1e-3) == expected, (net, kind)

    def test_stacked_blocks_are_repeated_one_step_products(self):
        for net, kind in itertools.product(corpus.corpus_networks(), ("neighbor", "diffusive")):
            oracle = linear_oracle(net, coupling=kind)
            stack = _power_stack(_rk4_operator(net, oracle), net.n, 1e-3)
            assert stack.dtype == np.float64 and stack.flags.c_contiguous
            assert stack.shape == (stack_depth(net, oracle, 1e-3) * net.n, net.n)
            m = dense_propagator(net, oracle, 1e-3)
            blocks = stack.reshape(-1, net.n, net.n)
            power = np.eye(net.n)
            for block in blocks:
                power = m @ power
                assert np.abs(block - power).max() <= 1e-13, (net, kind)

    def test_zero_start_stays_zero_under_a_blowing_up_field(self, triangle3):
        dt = 1e-2
        # at a = 1e30 a finite power is stacked; at a = 1e100 M itself
        # overflows, so the flow steps on A, where 0 * inf never arises
        for a, stacked in ((1e30, True), (1e100, False)):
            blower = OracleSpec(triangle3.registry, 1, g={0: GFunc("scale", a=a)})
            stack = _power_stack(_rk4_operator(triangle3, blower), 3, dt)
            assert len(stack) > 3 if stacked else stack is None
            traj = simulate_ode(triangle3, blower, [0.0, 0.0, 0.0], 1.0, dt)
            assert len(traj) == 101
            assert all(v.hex() == "0x0.0p+0" for state in traj.states.tolist() for v in state)

    def test_dense_propagator_above_the_stack_bound_steps_one_at_a_time(self):
        n = 300  # every cell reaches every other in two steps, so M is dense
        cells = [f"c{i}" for i in range(n)]
        edges = [(cells[0], c, 1) for c in cells[1:]] + [(c, cells[0], 1) for c in cells[1:]]
        net = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), edges)
        oracle = linear_oracle(net)
        m = dense_propagator(net, oracle, 1e-2)
        assert np.count_nonzero(m) == n * n > dynamics._STACK_ENTRIES
        assert _power_stack(_rk4_operator(net, oracle), n, 1e-2) is None
        tracemalloc.start()
        try:
            traj = simulate_ode(net, oracle, [float(i % 7) for i in range(n)], 0.2, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 21
        assert peak < 8e6  # forming M by sparse products on this hub peaks at 23 MB
        assert np.abs(traj.states[1:] - traj.states[:-1] @ m.T).max() <= 1e-12  # each row is M x

    def test_linear_divergence_names_first_non_finite_step(self, triangle3):
        blower = OracleSpec(triangle3.registry, 1, g={0: GFunc("scale", a=1e30)})
        x0, dt = [1.0, 2.0, 3.0], 1e-2
        with pytest.raises(SimulationDiverged) as err:
            simulate_ode(triangle3, blower, x0, 1.0, dt)
        k = err.value.step
        assert k >= 1
        traj = simulate_ode(triangle3, blower, x0, (k - 1) * dt, dt)
        assert len(traj) == k
        assert np.isfinite(traj.states).all()

    def test_stage_by_stage_divergence_names_first_non_finite_step(self, triangle3):
        # a custom g is not linear, so RK4 evaluates each stage through admissible_eval
        blower = OracleSpec(triangle3.registry, 1, g={0: GFunc("custom", fn=lambda x: 1e20 * x)})
        x0, dt = [1.0, 2.0, 3.0], 1.0
        with pytest.raises(SimulationDiverged) as err:
            simulate_ode(triangle3, blower, x0, 10.0, dt)
        k = err.value.step
        assert k >= 2
        traj = simulate_ode(triangle3, blower, x0, (k - 1) * dt, dt)
        assert len(traj) == k
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("run", [
        pytest.param(lambda net, oracle, x0: simulate_map(net, oracle, x0, 3), id="map"),
        pytest.param(lambda net, oracle, x0: simulate_ode(net, oracle, x0, 0.1, 1e-2), id="ode"),
    ])
    def test_x0_needs_one_finite_value_per_cell(self, triangle3, run):
        oracle = linear_oracle(triangle3)
        with pytest.raises(DimensionMismatch, match="^x0 has 2 entries, network has 3 cells$"):
            run(triangle3, oracle, [1.0, 2.0])
        for bad in (math.nan, -math.inf):
            with pytest.raises(SimulationDiverged) as err:
                run(triangle3, oracle, [1.0, bad, 3.0])
            assert err.value.step == 0

    def test_ode_states_are_a_read_only_float64_orbit(self, triangle3):
        traj = simulate_ode(triangle3, linear_oracle(triangle3), [1.0, 2.0, 3.0], 0.02, 1e-2)
        _assert_orbit_array(traj, 3, 3)
        assert traj.times == (0.0, 0.01, 0.02)
        assert all(type(t) is float for t in traj.times)

    def test_large_ring_allocates_no_dense_matrix(self):
        n = 5000
        cells = [f"c{i}" for i in range(n)]
        edges = [(cells[i], cells[(i + s) % n], 1) for i in range(n) for s in (-1, 1, 2)]
        net = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), edges)
        oracle = linear_oracle(net)
        x0 = [float(i % 7) for i in range(n)]
        tracemalloc.start()
        try:
            traj = simulate_ode(net, oracle, x0, 0.1, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 11
        assert peak < 20e6  # a dense n x n float matrix alone is 200 MB

    @pytest.mark.parametrize(
        "t_end, dt, error",
        [
            (math.inf, 1e-3, DimensionMismatch),
            (math.nan, 1e-3, DimensionMismatch),
            (-1.0, 1e-3, DimensionMismatch),
            (1.0, math.nan, DimensionMismatch),
            (1.0, math.inf, DimensionMismatch),
            (1.0, 0.0, DimensionMismatch),
            (1.0, 0.3, DimensionMismatch),  # off the dt grid
            (0.0015, 0.001, DimensionMismatch),
            (0.0004, 0.001, DimensionMismatch),
            (1e300, 1e-300, SizeLimitError),
            (1e12, 1e-3, SizeLimitError),
        ],
    )
    def test_bad_times_are_rejected(self, triangle3, t_end, dt, error):
        with pytest.raises(error):
            simulate_ode(triangle3, linear_oracle(triangle3), [1.0, 2.0, 3.0], t_end, dt)

    def test_times_on_the_grid_pass(self, triangle3):
        assert 0.3 / 0.1 != 3.0
        traj = simulate_ode(triangle3, linear_oracle(triangle3), [1.0, 2.0, 3.0], 0.3, 0.1)
        assert len(traj) == 4
        assert dynamics._check_times(10.0, 1e-3) == 10_000
        assert dynamics._check_times(0.0, 1e-3) == 0

    def test_negative_steps_are_rejected(self, triangle3):
        with pytest.raises(DimensionMismatch):
            simulate_map(triangle3, linear_oracle(triangle3), [1.0, 2.0, 3.0], -1)
        # a zero start never diverges: only refusing to allocate the orbit stops it
        with pytest.raises(SizeLimitError):
            simulate_map(triangle3, linear_oracle(triangle3), [0.0, 0.0, 0.0], 10**15)

    def test_linear_map_divergence_names_first_non_finite_step(self, triangle3):
        blower = OracleSpec(triangle3.registry, 1, g={0: GFunc("scale", a=1e30)})
        x0 = [1.0, 2.0, 3.0]
        with pytest.raises(SimulationDiverged) as err:
            simulate_map(triangle3, blower, x0, 40)
        k = err.value.step
        assert k >= 2
        traj = simulate_map(triangle3, blower, x0, k - 1)
        assert np.isfinite(traj.states).all()
        last = traj.states[-1].tolist()
        assert not all(map(math.isfinite, admissible_eval(triangle3, blower, last)))

    def test_custom_g_maps_through_admissible_eval(self, triangle3, monkeypatch):
        calls = []

        def counted(net, oracle, x):
            calls.append(1)
            return admissible_eval(net, oracle, x)

        monkeypatch.setattr(dynamics, "admissible_eval", counted)
        x0 = [1.0, -0.0, 3.0]
        linear = linear_oracle(triangle3)
        simulate_map(triangle3, linear, x0, 4)
        assert calls == []
        custom = OracleSpec(
            triangle3.registry, 1,
            g={0: GFunc("custom", fn=math.sin)}, kappa=linear._kappa,
        )
        traj = simulate_map(triangle3, custom, x0, 4)
        assert len(calls) == 4
        assert _hex_orbit(traj.states.tolist()) == _stepped_orbit(triangle3, custom, x0, 4)[0]

    def test_map_states_are_a_read_only_float64_orbit(self, triangle3):
        sin_g = OracleSpec(triangle3.registry, 1, g={0: GFunc("custom", fn=math.sin)})
        for oracle in (linear_oracle(triangle3), sin_g):
            traj = simulate_map(triangle3, oracle, [1, 2, 3], 3)
            _assert_orbit_array(traj, 4, 3)
            assert traj.states[0].tolist() == [1.0, 2.0, 3.0]
            assert traj.times == (0, 1, 2, 3)

    def test_trajectories_compare_and_hash_by_identity(self, triangle3):
        oracle = linear_oracle(triangle3)
        a = simulate_map(triangle3, oracle, [1.0, 2.0, 3.0], 3)
        b = simulate_map(triangle3, oracle, [1.0, 2.0, 3.0], 3)
        assert np.array_equal(a.states, b.states) and a.times == b.times
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestQuotientMatch:
    def test_trivial_partition_matches_exactly(self, triangle3):
        dev = quotient_match(
            triangle3,
            Partition.trivial(3),
            linear_oracle(triangle3),
            [1.0, 2.0, 3.0],
            mode="map",
            steps=20,
        )
        assert dev == 0.0

    def test_triangle_ode_quotient(self, triangle3):
        part = parse_partition("1,2;3", triangle3.cells)
        dev = quotient_match(
            triangle3, part, linear_oracle(triangle3), [5.0, 7.0], horizon=10.0, dt=1e-3
        )
        assert dev <= 1e-8

    def test_bad_mode_raises_before_the_quotient_is_built(self, triangle3, monkeypatch):
        def no_quotient(*args):
            raise AssertionError("quotient built before the mode was checked")

        monkeypatch.setattr(dynamics, "quotient", no_quotient)
        with pytest.raises(ValueError, match="mode must be 'map' or 'ode', got 'flow'"):
            quotient_match(triangle3, Partition.trivial(3), linear_oracle(triangle3),
                           [1.0, 2.0, 3.0], mode="flow")

    def test_map_quotient_tolerance(self, resistor6):
        part = parse_partition("1,2;3;4;5,6", resistor6.cells)
        dev = quotient_match(
            resistor6, part, linear_oracle(resistor6), [3.0, 1.0, 4.0, 2.0],
            mode="map", steps=50,
        )
        assert dev <= 1e-9


class TestWitness:
    def test_chain_witness_splits_colored_pair(self, chain3):
        part = parse_partition("1;2,3", chain3.cells)
        oracle, state = unbalance_witness(chain3, part)
        idx2, idx3 = chain3.index("2"), chain3.index("3")
        assert state[idx2] == state[idx3]
        out = admissible_eval(chain3, oracle, state)
        assert out[idx2] != out[idx3]

    def test_balanced_partition_has_no_witness(self, triangle3):
        with pytest.raises(WitnessError):
            unbalance_witness(triangle3, parse_partition("1,2;3", triangle3.cells))

    def test_resistor_witness_splits_five_and_six(self, resistor6):
        part = parse_partition("1;2;3;4;5,6", resistor6.cells)
        oracle, state = unbalance_witness(resistor6, part)
        i5, i6 = resistor6.index("5"), resistor6.index("6")
        assert state[i5] == state[i6]
        out = admissible_eval(resistor6, oracle, state)
        assert out[i5] != out[i6]


class TestLinearity:
    def test_linear_pairs(self, triangle3):
        report = linearity_check(
            triangle3, unit_oracle(triangle3), linear_oracle(triangle3)
        )
        assert report.ok

    def test_nonlinear_internal_dynamics_still_additive(self, triangle3):
        bumpy = OracleSpec(
            triangle3.registry, 1, g={0: GFunc("custom", fn=math.sin)}
        )
        wavy = OracleSpec(
            triangle3.registry, 1, g={0: GFunc("custom", fn=lambda x: x * x)}
        )
        report = linearity_check(triangle3, bumpy, wavy)
        assert report.ok

    def test_non_finite_outputs_are_not_linear(self):
        """A SHORT edge makes cell a's outputs infinite, so its deviations are NaN."""
        net = Network.build(["a", "b"], ["t", "t"], ["t"],
                            MonoidRegistry.uniform(ResistorParallel(), 1),
                            [("a", "b", SHORT), ("b", "a", Fraction(2))])
        report = linearity_check(net, linear_oracle(net), coupling_oracle(net.registry, 1))
        assert math.isnan(report.additive_deviation)
        assert math.isnan(report.homogeneous_deviation)
        assert not report.ok

    def test_zero_scaling_kills_output(self, triangle3):
        # kappa scaled by 0 times a negative state must give 0.0, not -0.0, in
        # the evaluation and, bitwise, in the linear plan of simulate_map
        oracle = parse_oracle_json(
            {"kappa": [{"target_type": "t", "source_type": "t", "scale": 0}]}, triangle3
        )
        out = admissible_eval(triangle3, oracle, [-1.0, 2.0, -3.0])
        assert [x.hex() for x in out] == [(0.0).hex()] * 3
        traj = simulate_map(triangle3, oracle, [-1.0, 2.0, -3.0], 3)
        for state in traj.states.tolist()[1:]:
            assert [x.hex() for x in state] == [(0.0).hex()] * 3

    def test_sum_of_invariant_oracles_stays_invariant(self, triangle3):
        part = parse_partition("1,2;3", triangle3.cells)
        combo = Combination((1.0, unit_oracle(triangle3)), (1.0, linear_oracle(triangle3)))
        traj = simulate_map(triangle3, combo, [2.0, 2.0, 5.0], 10)
        for state in traj.states.tolist():
            assert state[0].hex() == state[1].hex()


class TestPlumbing:
    def test_trajectory_csv_shape(self, triangle3):
        traj = simulate_map(triangle3, unit_oracle(triangle3), [1.0, 2.0, 3.0], 2)
        lines = list(trajectory_csv(traj, triangle3.cells))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        lines = [line.rstrip("\n") for line in lines]
        assert lines[0] == "n,1,2,3"
        assert len(lines) == 4

    def test_parse_oracle_defaults_and_errors(self, triangle3):
        oracle = parse_oracle("{}", triangle3)
        assert isinstance(oracle, OracleSpec)
        oracle = parse_oracle(
            '{"g": [{"type": "t", "kind": "scale", "a": -1.0}],'
            ' "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.5}],'
            ' "h": [{"target_type": "t", "source_type": "t", "kind": "diffusive"}]}',
            triangle3,
        )
        out = admissible_eval(triangle3, oracle, [1.0, 1.0, 1.0])
        assert out == [-1.0, -1.0, -1.0]  # diffusive coupling vanishes when synchronized
        with pytest.raises(SchemaError):
            parse_oracle('{"g": [{"type": "nope"}]}', triangle3)
        with pytest.raises(SchemaError):
            parse_oracle('{"h": [{"target_type": "t", "source_type": "t", "kind": "??"}]}', triangle3)
        with pytest.raises(SchemaError):
            parse_oracle("not json", triangle3)

    def test_parse_oracle_rejects_pairs_without_a_monoid(self):
        registry = MonoidRegistry({(0, 0): NaturalAdd()})
        net = Network.build(["a", "b"], ["t", "u"], ["t", "u"], registry, [])
        for field in ("kappa", "h"):
            text = json.dumps({field: [{"target_type": "t", "source_type": "u"}]})
            with pytest.raises(SchemaError, match=rf"^{field}\[0\]: no monoid"):
                parse_oracle(text, net)


# Finite doubles on which float arithmetic is least forgiving; signed
# zeros are drawn half of the time, as they are what cells can disagree on.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
_STATES = st.sampled_from([0.0, -0.0]) | st.sampled_from(_SPECIAL)
_LATTICES: dict = {}
_CORPORA = (corpus, corpus_noncancel)


def _balanced_colorings(case):
    if case not in _LATTICES:
        which, k = case
        net = _CORPORA[which].corpus_networks()[k]
        _LATTICES[case] = (net, enumerate_balanced(net).elements)
    return _LATTICES[case]


def _sign_oracle(net):
    """Couples through the sign bit of each input state, so -0.0 and 0.0 differ."""
    n_types = len(net.type_names)
    sign = Coupling("custom", fn=lambda x, y: math.copysign(1.0, y))
    return OracleSpec(net.registry, n_types, h={pair: sign for pair, _ in net.registry.pairs()})


def _reference_eval(net, oracle, x):
    """``admissible_eval`` from its definition, on weight values.

    Each cell's inputs are grouped by (source type, state), with -0.0 read
    as 0.0, and summed with ``spec.combine``; identity sums are dropped and
    g + sum of kappa * h is added up in sorted group order.
    """
    out = []
    for c, i in enumerate(net.cell_types):
        groups = {}
        for d, w in net.row_items(c):
            key = (net.cell_types[d], x[d] + 0.0)
            spec = net.registry.require(i, key[0])
            groups[key] = spec.combine(groups[key], w) if key in groups else w
        total = oracle._g[i](x[c])
        for (j, s), w in sorted(groups.items()):
            if not net.registry.require(i, j).is_identity(w):
                total += oracle._kappa[i, j](w) * oracle._h[i, j](x[c], s)
        out.append(total)
    return out


_CASES = [(which, k) for which, mod in enumerate(_CORPORA) for k in range(mod.CORPUS_SIZE)]


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_CASES), st.data())
def test_balanced_colorings_stay_bitwise_synchronous_on_special_states(case, data):
    net, elements = _balanced_colorings(case)
    values = data.draw(st.lists(_STATES, min_size=net.n, max_size=net.n))
    oracles = (linear_oracle(net), _sign_oracle(net))
    for part in elements:
        x = lift(part, values[:part.rank])
        for oracle in oracles:
            out = admissible_eval(net, oracle, x)
            assert [v.hex() for v in out] == [v.hex() for v in _reference_eval(net, oracle, x)]
            first = {}
            for color, value in zip(part.colors, out):
                assert first.setdefault(color, value.hex()) == value.hex()


def test_oracle_on_a_pair_its_registry_lacks_raises_monoid_mismatch():
    oracle = OracleSpec(MonoidRegistry({(0, 0): NaturalAdd()}), 2)
    with pytest.raises(MonoidMismatch):
        oracle.evaluate(0, 1.0, [(1, 2, 3.0)])
    registry = MonoidRegistry({(0, 0): NaturalAdd(), (0, 1): NaturalAdd()})
    net = Network.build(["a", "b"], ["t", "u"], ["t", "u"], registry, [("a", "b", 2)])
    with pytest.raises(MonoidMismatch):
        admissible_eval(net, oracle, [1.0, 2.0])  # evaluated input by input
    with pytest.raises(MonoidMismatch):
        simulate_ode(net, oracle, [1.0, 2.0], 0.1, 0.01)  # through the linear propagator
    with pytest.raises(MonoidMismatch):
        simulate_map(net, oracle, [1.0, 2.0], 1)  # through the linear map plan


def test_linear_oracle_of_weight_beyond_float_range_is_size_limit_error():
    registry = MonoidRegistry.uniform(NaturalAdd(), 1)
    net = Network.build(["a", "b"], ["t", "t"], ["t"], registry, [("a", "b", 10**400)])
    with pytest.raises(SizeLimitError):
        linear_oracle(net)


def _assert_orbit_array(traj, rows, n):
    """``states`` is the read-only C-contiguous float64 orbit, rows of Python floats by tolist."""
    states = traj.states
    assert type(states) is np.ndarray and states.dtype == np.float64
    assert states.shape == (rows, n) == (len(traj), n) and states.flags.c_contiguous
    assert not states.flags.writeable
    assert all(type(v) is float for state in states.tolist() for v in state)


def _hex_orbit(states):
    return [[v.hex() for v in state] for state in states]


def _stepped_orbit(net, oracle, x, steps):
    """The orbit stepped through ``admissible_eval`` as float.hex rows, and
    the first step with a non-finite state, or None."""
    orbit = [x]
    for n in range(steps):
        x = admissible_eval(net, oracle, x)
        if not all(map(math.isfinite, x)):
            return _hex_orbit(orbit), n + 1
        orbit.append(x)
    return _hex_orbit(orbit), None


def _map_orbit(net, oracle, x, steps):
    """``simulate_map`` in the form of ``_stepped_orbit``."""
    try:
        return _hex_orbit(simulate_map(net, oracle, x, steps).states.tolist()), None
    except SimulationDiverged as err:
        return _map_orbit(net, oracle, x, err.step - 1)[0], err.step


@pytest.mark.parametrize("coupling", ["neighbor", "diffusive"])
@pytest.mark.parametrize("mod", _CORPORA, ids=lambda mod: mod.__name__)
def test_linear_map_plan_is_bitwise_admissible_eval(mod, coupling):
    rng = random.Random(8)
    for net in mod.corpus_networks():
        oracle = linear_oracle(net, coupling=coupling)
        step = _linear_map_step(net, oracle)
        for _ in range(8):
            x = [rng.choice(_SPECIAL) for _ in range(net.n)]
            # one step, non-finite outputs included (kappa is +-inf on the second corpus)
            out = step(np.asarray(x)).tolist()
            assert _hex_orbit([out]) == _hex_orbit([admissible_eval(net, oracle, x)])
            assert _map_orbit(net, oracle, x, 6) == _stepped_orbit(net, oracle, x, 6)


@pytest.mark.parametrize("coupling", ["neighbor", "diffusive"])
@pytest.mark.parametrize("period", [2, 5])
def test_linear_map_plan_merges_every_row_of_a_lifted_ring(period, coupling):
    # offsets -3, -1, 1, 3 are one color mod 2 and offsets -3, 2 one color mod 5,
    # so every row merges equal-state inputs before kappa
    n = 2000
    cells = [f"c{i}" for i in range(n)]
    weights = {-3: 1, -1: 2, 1: 3, 2: 1, 3: 2}
    edges = [(cells[i], cells[(i + o) % n], w) for i in range(n) for o, w in weights.items()]
    net = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), edges)
    oracle = linear_oracle(net, coupling=coupling)
    part = Partition(tuple(i % period + 1 for i in range(n)))
    reduced = [-0.0, 0.75, 5e-324, -1.0, 0.0][:period]
    x0 = lift(part, reduced)
    orbit = _map_orbit(net, oracle, x0, 20)
    assert orbit == _stepped_orbit(net, oracle, x0, 20)
    assert orbit[1] is None
    assert all(state[c] == state[c % period] for state in orbit[0] for c in range(n))


@pytest.mark.parametrize("coupling", ["neighbor", "diffusive"])
def test_linear_map_plan_folds_wide_rows_in_order(coupling):
    # 24 inputs a row at states from 1e-8 to 1e8 round differently in almost
    # any other order of adds, so each row checks a long fold
    rng = random.Random(5)
    n, spec = 40, ResistorParallel()
    cells = [f"c{i}" for i in range(n)]
    edges = [
        (cells[c], cells[d], spec.from_resistance(rng.randint(1, 97)))
        for c in range(n)
        for d in rng.sample(range(n), 24)
    ]
    net = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(spec, 1), edges)
    oracle = linear_oracle(net, coupling=coupling)
    step = _linear_map_step(net, oracle)
    for _ in range(20):
        x = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8, 8) for _ in range(n)]
        out = step(np.asarray(x)).tolist()
        assert _hex_orbit([out]) == _hex_orbit([admissible_eval(net, oracle, x)])


def _per_value_csv(traj, cells):
    """The CSV with every value formatted on its own, the form trajectory_csv must match."""
    stamp = repr if traj.kind == "ode" else str
    lines = [",".join(["t" if traj.kind == "ode" else "n", *cells])]
    rows = zip(traj.times, traj.states.tolist())
    lines += [",".join((stamp(t), *map(repr, state))) for t, state in rows]
    return "\n".join(lines) + "\n"


def _csv_of_rows(rows, kind="map"):
    times = tuple(i / 8 for i in range(len(rows))) if kind == "ode" else tuple(range(len(rows)))
    traj = dynamics.Trajectory(times=times, states=np.array(rows, dtype=np.float64), kind=kind)
    cells = [f"c{i}" for i in range(len(rows[0]))]
    return _csv_text(traj, cells), _per_value_csv(traj, cells)


def _csv_text(traj, cells):
    return "".join(trajectory_csv(traj, cells))


def _ring(n):
    cells = [f"c{i}" for i in range(n)]
    edges = [(cells[i], cells[(i + s) % n], 1) for i in range(n) for s in (-1, 1)]
    return Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), edges)


# edges of the shortest repr: both zeros, the least subnormal, the smallest
# power of ten printed in exponent form (1e+16) and the largest below one
# (1e-05), and values that need 1 and 16 significant digits
_REPR_POOL = [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3]
_signed_pool_value = st.tuples(st.sampled_from(_REPR_POOL), st.booleans()).map(
    lambda pick: -pick[0] if pick[1] else pick[0]
)


class TestTrajectoryCsv:
    def test_synchronized_rows_match_per_value_text(self):
        net = _ring(40)
        part = Partition(tuple(i % 4 + 1 for i in range(40)))
        oracle = parse_oracle(
            '{"g": [{"type": "t", "kind": "scale", "a": 0.5}],'
            ' "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.25}]}', net
        )
        traj = simulate_map(net, oracle, lift(part, [0.3, 0.7, 1.1, 0.2]), 10)
        assert all(len(set(state)) <= 4 for state in traj.states.tolist())
        assert _csv_text(traj, net.cells) == _per_value_csv(traj, net.cells)

    def test_row_with_both_zeros_prints_each_sign(self):
        text, expected = _csv_of_rows([[0.0, -0.0, 2.5, 2.5, 0.0, -0.0, 2.5, 2.5]])
        assert text == expected
        assert text.splitlines()[1] == "0,0.0,-0.0,2.5,2.5,0.0,-0.0,2.5,2.5"

    def test_repeated_negative_zero_among_repeated_values(self):
        text, expected = _csv_of_rows([[-0.0, 0.1, -0.0, 0.1, -0.0, 0.1], [0.1, 0.1, -0.0, -0.0, 0.1, 0.1]])
        assert text == expected
        assert text.splitlines()[1:] == ["0,-0.0,0.1,-0.0,0.1,-0.0,0.1", "1,0.1,0.1,-0.0,-0.0,0.1,0.1"]

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, 1.5, 0.0, 1.5, 0.0, 1.5],
            [-0.0, 1.5, -0.0, 1.5, -0.0, 1.5],
            [1.5, -0.0, 0.0, 1.5, 0.0, -0.0],
            [0.0, math.nan, -0.0, math.inf, 0.0, -math.inf, -0.0, math.nan, 0.0, -0.0, 0.0, 0.0],
            [-0.0] * 5 + [0.0] * 5,
        ],
        ids=["plus_zero", "minus_zero", "both_zeros", "zeros_and_non_finite", "zeros_only"],
    )
    def test_tabulated_rows_print_each_zero_by_its_sign(self, row):
        text, expected = _csv_of_rows([row, [-v for v in row]], kind="ode")
        assert text == expected

    def test_all_distinct_rows(self):
        rows = [[i + j / 7 for j in range(9)] for i in range(3)]
        text, expected = _csv_of_rows(rows)
        assert text == expected

    def test_non_finite_values_print_as_repr(self):
        nan_a, nan_b = float("nan"), float("nan")
        text, expected = _csv_of_rows([[nan_a, nan_b, nan_a, nan_b, math.inf, -math.inf, math.inf, nan_a]])
        assert text == expected
        assert text.splitlines()[1] == "0,nan,nan,nan,nan,inf,-inf,inf,nan"

    def test_ode_times_are_stamped_with_repr(self, triangle3):
        traj = simulate_ode(triangle3, unit_oracle(triangle3), [1.0, 1.0, 2.0], 0.3, 0.1)
        text = _csv_text(traj, triangle3.cells)
        assert text == _per_value_csv(traj, triangle3.cells)
        assert [line.split(",")[0] for line in text.splitlines()] == ["t", *map(repr, traj.times)]

    def test_single_cell_network(self):
        net = Network.build(["x"], ["t"], ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), [])
        oracle = parse_oracle('{"g": [{"type": "t", "kind": "scale", "a": -1.0}]}', net)
        traj = simulate_map(net, oracle, [-0.0], 3)
        assert _csv_text(traj, net.cells) == "n,x\n0,-0.0\n1,0.0\n2,-0.0\n3,0.0\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(st.lists(_signed_pool_value, min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        st.sampled_from(["map", "ode"]),
    )
    def test_matches_per_value_repr_on_special_values(self, rows, kind):
        text, expected = _csv_of_rows(rows, kind)
        assert text == expected


def _map_deviation_from_trajectories(net, part, oracle, reduced, steps):
    """Map-mode ``quotient_match`` rebuilt from ``simulate_map`` trajectories."""
    full = np.asarray(simulate_map(net, oracle, lift(part, reduced), steps).states)
    red = np.asarray(simulate_map(quotient(net, part), oracle, reduced, steps).states)
    return float(np.max(np.abs(full - red[:, [c - 1 for c in part.colors]])))


@pytest.mark.parametrize("which", range(len(_CORPORA)), ids=lambda w: _CORPORA[w].__name__)
def test_map_quotient_match_equals_its_trajectory_reference(which):
    compared = 0
    for k in range(_CORPORA[which].CORPUS_SIZE):
        net, elements = _balanced_colorings((which, k))
        oracle = linear_oracle(net, coupling="diffusive")
        for part in elements:
            reduced = [0.5 + 0.25 * l for l in range(part.rank)]
            try:
                expected = _map_deviation_from_trajectories(net, part, oracle, reduced, 12)
            except SimulationDiverged as err:
                with pytest.raises(SimulationDiverged) as got:
                    quotient_match(net, part, oracle, reduced, mode="map", steps=12)
                assert got.value.step == err.step
                continue
            dev = quotient_match(net, part, oracle, reduced, mode="map", steps=12)
            assert dev.hex() == expected.hex()
            compared += 1
    assert compared
