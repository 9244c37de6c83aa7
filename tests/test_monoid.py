"""Algebraic laws and the concrete weight monoids."""
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import law_check
from synchro import (
    ANNIHILATOR,
    SHORT,
    FreeCommutative,
    MonoidMismatch,
    MonoidRegistry,
    MonoidSpec,
    NaturalAdd,
    NaturalMul,
    ProductMonoid,
    ResistorParallel,
    SizeLimitError,
    WithAnnihilator,
)
from synchro.coding import CodedNetwork

R = ResistorParallel()
NA = NaturalAdd()
NM = NaturalMul()
FREE = FreeCommutative(("a", "b", "c"))
PROD = ProductMonoid((NaturalAdd(), NaturalMul()))
ANN = WithAnnihilator(FreeCommutative(("a", "b")))

ALL_SPECS = [R, NA, NM, FREE, PROD, ANN]


class TestResistor:
    def test_thirty_parallel_fifteen_is_ten(self):
        got = R.combine(R.from_resistance(30), R.from_resistance(15))
        assert got == R.from_resistance(10)
        assert R.combine(R.from_resistance(20), R.from_resistance(20)) == R.from_resistance(10)

    def test_infinity_is_neutral(self):
        w = R.from_resistance(42)
        assert R.combine(w, R.from_resistance("inf")) == w

    def test_sum_of_parallel_thirties(self):
        assert R.sum([R.from_resistance(30)] * 2) == R.from_resistance(15)

    def test_empty_sum_is_no_edge(self):
        assert R.sum([]) == R.identity
        assert R.display(R.sum([])) == "inf"

    def test_identity_is_infinite_resistance_not_short(self):
        assert R.is_identity(R.from_resistance("inf"))
        assert not R.is_identity(R.from_resistance(0))

    def test_short_circuit_absorbs(self):
        assert R.combine(R.from_resistance(0), R.from_resistance(30)) is SHORT
        assert R.annihilator is SHORT

    def test_absorbing_singletons_survive_pickle_and_copy(self):
        for tag in (SHORT, ANNIHILATOR):
            assert pickle.loads(pickle.dumps(tag)) is tag
            assert copy.deepcopy(tag) is tag

    def test_exact_fractions_survive(self):
        # 3 parallel branches of 45/2 ohm each: conductances add to 2/15
        third = R.from_resistance(Fraction(45, 2))
        assert R.sum([third] * 3) == Fraction(2, 15)
        assert R.display(R.sum([third] * 3)) == "15/2"

    def test_resistance_must_be_exact(self):
        with pytest.raises(MonoidMismatch) as err:
            R.from_resistance(0.5)
        assert str(err.value) == "cannot interpret 0.5 as an exact rational"

    def test_display_round_trip(self):
        for raw in ["30", "15/2", "inf", "0"]:
            elem = R.element_from_json({"r": raw})
            assert R.element_to_json(elem) == {"r": raw}


class TestNaturals:
    def test_addition_identity(self):
        assert NA.combine(0, 7) == 7

    def test_sum_including_zeros(self):
        assert NA.sum([1, 0, 1]) == 2

    def test_zero_is_identity_for_addition(self):
        assert NA.is_identity(0)
        assert not NM.is_identity(0)
        assert NM.is_identity(1)

    def test_multiplication_annihilator(self):
        assert NM.combine(0, 9) == 0

    def test_rejects_non_carrier(self):
        with pytest.raises(MonoidMismatch):
            NA.combine(-1, 2)
        with pytest.raises(MonoidMismatch):
            NA.combine(True, 2)


class TestFreeCommutative:
    def test_multiset_sum(self):
        a = FREE.from_counts({"a": 1})
        ab = FREE.from_counts({"a": 1, "b": 1})
        assert FREE.combine(a, ab) == FREE.from_counts({"a": 2, "b": 1})

    def test_identity_is_empty(self):
        assert FREE.identity == ()
        assert FREE.is_identity(())

    def test_rejects_foreign_generators(self):
        with pytest.raises(MonoidMismatch):
            FREE.from_counts({"z": 1})

    @pytest.mark.parametrize("value", [
        [("a", 1)],  # a list, not a tuple
        (("a", 1, 2),),  # an entry that is no (label, count) pair
        (("b", 1), ("a", 1)),  # labels out of order
    ])
    def test_carrier_holds_only_sorted_label_count_tuples(self, value):
        assert not FREE.contains(value)

    def test_open_alphabet(self):
        anything = FreeCommutative()
        assert anything.from_counts({"weird-label": 2})[0] == ("weird-label", 2)

class TestProduct:
    def test_componentwise(self):
        assert PROD.combine((3, 2), (1, 5)) == (4, 10)

    def test_identity_tuple(self):
        assert PROD.identity == (0, 1)
        assert PROD.combine((0, 1), (4, 9)) == (4, 9)

    def test_builder_requires_parts(self):
        with pytest.raises(MonoidMismatch):
            ProductMonoid([])

    def test_nested_json(self):
        elem = (2, 3)
        assert PROD.element_from_json(PROD.element_to_json(elem)) == elem


class TestWithAnnihilator:
    def test_absorbs_everything(self):
        x = ANN.inner.from_counts({"a": 2})
        assert ANN.combine(ANNIHILATOR, x) is ANNIHILATOR
        assert ANN.combine(x, ANNIHILATOR) is ANNIHILATOR

    def test_inner_behavior_preserved(self):
        x = ANN.inner.from_counts({"a": 1})
        y = ANN.inner.from_counts({"b": 1})
        assert ANN.combine(x, y) == ANN.inner.from_counts({"a": 1, "b": 1})

    def test_json_tagging(self):
        assert ANN.element_from_json({"annihilator": True}) is ANNIHILATOR
        assert ANN.element_to_json(ANNIHILATOR) == {"annihilator": True}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
def test_laws_hold_on_shipped_monoids(spec):
    report = law_check(spec, trials=1000)
    assert report.ok, report.violations[:3]


class _Subtraction(MonoidSpec):
    """Deliberately broken: subtraction is neither commutative nor associative."""

    kind = "broken_subtraction"

    @property
    def identity(self):
        return 0

    def contains(self, value):
        return isinstance(value, int)

    def _combine(self, a, b):
        return a - b

    def sample(self, rng):
        return rng.randint(-5, 5)


def test_law_check_reports_broken_spec():
    report = law_check(_Subtraction(), trials=200)
    assert not report.ok
    assert any(v.law == "commutativity" for v in report.violations)


def test_law_check_with_explicit_samples():
    pool = [R.from_resistance(r) for r in (0, 10, 30, "inf")]
    assert law_check(R, samples=pool, trials=500).ok


_PRIMES = (2, 3, 5, 7, 11, 13)


@given(
    st.lists(st.sampled_from(_PRIMES), max_size=6),
    st.lists(st.sampled_from(_PRIMES), max_size=6),
)
def test_prime_multisets_are_naturals_under_product(xs, ys):
    """Mapping a multiset of primes to its product respects both structures."""
    free = FreeCommutative(tuple(str(p) for p in _PRIMES))

    def as_multiset(primes):
        counts: dict[str, int] = {}
        for p in primes:
            counts[str(p)] = counts.get(str(p), 0) + 1
        return free.from_counts(counts)

    def to_int(mset):
        out = 1
        for label, count in mset:
            out *= int(label) ** count
        return out

    a, b = as_multiset(xs), as_multiset(ys)
    assert to_int(free.combine(a, b)) == to_int(a) * to_int(b)
    assert to_int(free.identity) == NM.identity


# Element strategies for the heavier law fuzz below.
_resistors = st.one_of(
    st.just(R.identity),
    st.just(SHORT),
    st.builds(
        lambda n, d: R.from_resistance(Fraction(n, d)),
        st.integers(1, 120),
        st.integers(1, 12),
    ),
)
_naturals = st.integers(0, 30)
_multisets = st.dictionaries(st.sampled_from(("a", "b", "c")), st.integers(1, 3), max_size=3).map(
    FREE.from_counts
)


@settings(max_examples=200)
@given(_resistors, _resistors, _resistors)
def test_resistor_triples(a, b, c):
    assert R.combine(a, b) == R.combine(b, a)
    assert R.combine(R.combine(a, b), c) == R.combine(a, R.combine(b, c))
    assert R.combine(a, R.identity) == a


@settings(max_examples=200)
@given(_multisets, _multisets, _multisets)
def test_multiset_triples(a, b, c):
    assert FREE.combine(a, b) == FREE.combine(b, a)
    assert FREE.combine(FREE.combine(a, b), c) == FREE.combine(a, FREE.combine(b, c))


@settings(max_examples=200)
@given(_naturals, _naturals, _naturals)
def test_product_triples(x, y, z):
    a, b, c = (x, x + 1), (y, y + 1), (z, z + 1)
    assert PROD.combine(a, b) == PROD.combine(b, a)
    assert PROD.combine(PROD.combine(a, b), c) == PROD.combine(a, PROD.combine(b, c))


def test_registry_lookup_and_uniform():
    reg = MonoidRegistry.uniform(NA, 2)
    assert reg.get(0, 1) is NA
    assert reg.get(1, 1) is NA
    sparse = MonoidRegistry({(0, 0): R})
    assert sparse.get(0, 1) is None
    with pytest.raises(MonoidMismatch):
        sparse.require(0, 1)


def test_default_kappa_is_additive_where_finite():
    kappa = R.default_kappa()
    a, b = R.from_resistance(30), R.from_resistance(15)
    assert math.isclose(kappa(R.combine(a, b)), kappa(a) + kappa(b), rel_tol=1e-12)
    assert kappa(R.identity) == 0.0
    kmul = NM.default_kappa()
    assert math.isclose(kmul(6), kmul(2) + kmul(3), rel_tol=1e-12)


def test_default_kappa_beyond_float_range_is_size_limit_error():
    huge = 10**400
    for spec, value in [
        (NA, huge),
        (R, R.from_resistance(Fraction(1, huge))),
        (FREE, FREE.from_counts({"a": huge})),
        (PROD, (huge, 1)),
        (WithAnnihilator(NA), huge),
    ]:
        assert spec.contains(value)
        with pytest.raises(SizeLimitError):
            spec.default_kappa()(value)
    assert math.isclose(NM.default_kappa()(huge), 400 * math.log(10))


def test_codes_tell_apart_label_splits():
    pool = CodedNetwork()
    open_free = FreeCommutative()
    for left, right in [
        ({"ab": 1, "c": 1}, {"a": 1, "bc": 1}),
        ({"a=1;b": 1}, {"a": 1, "b": 1}),  # a label spelling out a separator and a count
    ]:
        left, right = open_free.from_counts(left), open_free.from_counts(right)
        assert left != right
        assert pool.code(open_free, left) != pool.code(open_free, right)


def test_equal_values_under_different_specs_get_different_codes():
    pool = CodedNetwork()
    assert pool.code(NA, 3) != pool.code(NM, 3)
    value = (("a", 1),)
    assert pool.code(FreeCommutative(), value) != pool.code(FreeCommutative(("a",)), value)
    # equal but distinct spec objects share codes
    assert pool.code(FreeCommutative(("b", "a")), value) == pool.code(FreeCommutative(("a", "b")), value)
    assert pool.code(ProductMonoid((NaturalAdd(),)), (3,)) == pool.code(ProductMonoid((NA,)), (3,))


_CODE_SPECS = ALL_SPECS + [
    FreeCommutative(),
    WithAnnihilator(NaturalMul()),
    WithAnnihilator(ResistorParallel()),
    ProductMonoid((ResistorParallel(), WithAnnihilator(NaturalAdd()), FreeCommutative())),
]


@pytest.mark.parametrize("spec", _CODE_SPECS, ids=lambda s: s.describe())
def test_codes_are_exactly_element_equality(spec):
    rng = random.Random(7)
    samples = [spec.sample(rng) for _ in range(60)]
    pool = CodedNetwork()
    codes = [pool.code(spec, v) for v in samples]
    for a, ca in zip(samples, codes):
        for b, cb in zip(samples, codes):
            assert (ca == cb) == (a == b), (a, b)
    assert pool.code(spec, spec.identity) == 0


def test_registry_equality_compares_specs_by_value():
    table = {(0, 0): WithAnnihilator(FreeCommutative(("b", "a"))), (0, 1): ProductMonoid((R,))}
    twin = {(0, 0): WithAnnihilator(FreeCommutative(("a", "b"))), (0, 1): ProductMonoid((ResistorParallel(),))}
    assert MonoidRegistry(table) == MonoidRegistry(twin)
    assert MonoidRegistry({(0, 0): NA}) != MonoidRegistry({(0, 0): NM})
    assert MonoidRegistry({(0, 0): FreeCommutative()}) != MonoidRegistry({(0, 0): FreeCommutative(("a",))})
    assert MonoidRegistry({(0, 0): NA}) != MonoidRegistry({(0, 1): NA})
