"""Canonical colorings, the refinement order and polydiagonal lifting."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synchro import (
    Partition,
    PartitionError,
    PolyPoint,
    SchemaError,
    common_refinement,
    compose,
    format_partition,
    is_finer,
    lift,
    parse_partition,
    project,
    quotient_partition,
)

colorings = st.lists(st.integers(0, 5), min_size=1, max_size=9).map(Partition.from_colors)


def P(*colors):
    return Partition.from_colors(colors)


class TestCanonicalForm:
    def test_relabeling(self):
        assert P(2, 2, 1).colors == (1, 1, 2)

    def test_already_canonical(self):
        assert P(1, 1, 2, 3).colors == (1, 1, 2, 3)

    def test_all_same(self):
        assert P(5, 5, 5).colors == (1, 1, 1)

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(PartitionError) as err:
            Partition((2, 1))
        assert str(err.value) == (
            "colors (2, 1) are not in first-occurrence canonical form; use Partition.from_colors"
        )

    @pytest.mark.parametrize("colors", [[1, 2, 1], range(1, 4)], ids=["list", "range"])
    def test_accepts_any_canonical_sequence(self, colors):
        part = Partition(colors)
        assert part.colors == tuple(colors) and part == P(*colors)

    def test_from_classes(self):
        assert Partition.from_classes([[0, 1], [2]], 3).colors == (1, 1, 2)
        with pytest.raises(PartitionError):
            Partition.from_classes([[0], [0, 1]], 2)
        with pytest.raises(PartitionError):
            Partition.from_classes([[0]], 2)


class TestRefinementOrder:
    def test_textbook_pair(self):
        a = P(1, 1, 2, 3)
        b = P(2, 2, 2, 1)
        assert is_finer(a, b)
        assert not is_finer(b, a)

    def test_trivial_is_finest(self):
        for other in [P(1, 1, 1), P(1, 2, 1), P(1, 2, 3)]:
            assert is_finer(Partition.trivial(3), other)

    def test_incomparable(self):
        assert not is_finer(P(1, 2, 1), P(1, 1, 2))

    def test_size_mismatch(self):
        with pytest.raises(PartitionError):
            is_finer(P(1, 2), P(1, 2, 3))


class TestQuotientPartition:
    def test_textbook_example(self):
        a = P(1, 1, 2, 3)
        b = P(1, 1, 1, 2)
        assert quotient_partition(a, b).colors == (1, 1, 2)

    def test_self_quotient_is_identity_coloring(self):
        a = P(1, 1, 2, 3)
        assert quotient_partition(a, a).colors == (1, 2, 3)

    def test_quotient_of_trivial_recovers_partition(self):
        b = P(1, 2, 1, 2)
        assert quotient_partition(Partition.trivial(4), b) == b

    def test_requires_refinement(self):
        with pytest.raises(PartitionError):
            quotient_partition(P(1, 1, 2), P(1, 2, 2))


class TestCommonRefinement:
    def test_pairing(self):
        assert common_refinement(P(1, 1, 2, 2), P(1, 2, 2, 1)).colors == (1, 2, 3, 4)

    def test_idempotent(self):
        a = P(1, 2, 1, 3)
        assert common_refinement(a, a) == a

    def test_with_trivial(self):
        a = P(1, 1, 2)
        assert common_refinement(a, Partition.trivial(3)) == Partition.trivial(3)


class TestLiftProject:
    def test_lift(self):
        assert lift(P(1, 1, 2), [5.0, 7.0]) == [5.0, 5.0, 7.0]

    def test_project_rejects_desynchronized(self):
        with pytest.raises(PartitionError) as err:
            project(P(1, 1, 2), [5.0, 6.0, 7.0])
        assert "color 1" in str(err.value)

    def test_round_trips(self):
        a = P(1, 2, 1, 3)
        assert project(a, lift(a, [1.0, 2.0, 3.0])) == [1.0, 2.0, 3.0]
        x = [4.0, 9.0, 4.0, 2.0]
        assert lift(a, project(a, x)) == x

    def test_trivial_lift_is_identity(self):
        assert lift(Partition.trivial(3), [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_polypoint(self):
        point = PolyPoint.from_reduced(P(1, 1, 2), (5.0, 7.0))
        assert point.full == (5.0, 5.0, 7.0)
        again = PolyPoint.from_full(P(1, 1, 2), point.full)
        assert again.reduced == (5.0, 7.0)


class TestTextForm:
    def test_parse_and_format(self):
        cells = ["1", "2", "3", "4", "5", "6"]
        part = parse_partition("1,2;3;4;5,6", cells)
        assert part.colors == (1, 1, 2, 3, 4, 4)
        assert format_partition(part, cells) == "1,2;3;4;5,6"

    def test_parse_errors(self):
        cells = ["1", "2"]
        with pytest.raises(SchemaError):
            parse_partition("1;1,2", cells)
        with pytest.raises(SchemaError):
            parse_partition("1", cells)
        with pytest.raises(SchemaError):
            parse_partition("1;x", cells)
        with pytest.raises(SchemaError):
            parse_partition("1;;2", cells)


@pytest.mark.parametrize("call, message", [
    (lambda: Partition(()), "partition needs at least one cell"),
    (lambda: Partition.from_colors([]), "partition needs at least one cell"),
    (lambda: Partition.from_classes([[0, 2]], 2), "cell index 2 out of range 0..1"),
    (lambda: compose(P(1, 1, 2), P(1, 2, 3)), "color partition has 3 entries, expected rank 2"),
    (lambda: common_refinement(P(1, 2), P(1, 2, 3)), "size mismatch: 2 vs 3 cells"),
    (lambda: lift(P(1, 1, 2), [1.0]), "expected 2 reduced values, got 1"),
    (lambda: project(P(1, 1, 2), [1.0, 1.0]), "expected 3 values, got 2"),
    (lambda: format_partition(P(1, 2), ["a"]), "cell list does not match partition size"),
], ids=["empty", "empty-colors", "class-index", "compose", "common-refinement", "lift",
        "project", "format"])
def test_size_and_range_checks_name_the_fault(call, message):
    with pytest.raises(PartitionError) as err:
        call()
    assert str(err.value) == message


@given(colorings)
def test_less_or_equal_is_reflexive(a):
    assert is_finer(a, a)


@given(colorings, st.lists(st.integers(0, 3), min_size=9, max_size=9))
def test_less_or_equal_antisymmetric_and_composable(a, merge_labels):
    merged = compose(a, Partition.from_colors(merge_labels[: a.rank]))
    assert is_finer(a, merged)
    if is_finer(merged, a):
        assert merged == a  # antisymmetry on canonical forms


@given(
    colorings,
    st.lists(st.integers(0, 2), min_size=9, max_size=9),
    st.lists(st.integers(0, 1), min_size=9, max_size=9),
)
def test_less_or_equal_transitive_along_merges(a, first_merge, second_merge):
    b = compose(a, Partition.from_colors(first_merge[: a.rank]))
    c = compose(b, Partition.from_colors(second_merge[: b.rank]))
    assert is_finer(a, b) and is_finer(b, c) and is_finer(a, c)


@given(colorings, st.lists(st.integers(0, 3), min_size=9, max_size=9))
def test_quotient_recomposes(a, merge_labels):
    """Merging colors then composing the quotient coloring rebuilds the merge."""
    b = compose(a, Partition.from_colors(merge_labels[: a.rank]))
    q = quotient_partition(a, b)
    assert compose(a, q) == b
    for cell in range(len(a)):
        assert q.colors[a.colors[cell] - 1] == b.colors[cell]


@given(colorings, colorings)
def test_common_refinement_bounds_rank(a, b):
    if len(a) != len(b):
        return
    meet_ab = common_refinement(a, b)
    assert meet_ab.rank >= max(a.rank, b.rank)
    assert is_finer(meet_ab, a) and is_finer(meet_ab, b)


def _classwise_text(partition, cells):
    """Each class's cell ids joined in turn, the text form format_partition must keep."""
    return ";".join(",".join(cells[i] for i in cls) for cls in partition.classes())


_sized_partitions = st.one_of(
    colorings,
    st.integers(1, 9).map(Partition.single),
    st.integers(1, 9).map(Partition.trivial),
)


@given(
    _sized_partitions.flatmap(
        lambda part: st.tuples(
            st.just(part),
            st.lists(st.text("abxyz019_-.", min_size=1, max_size=3),
                     min_size=len(part), max_size=len(part), unique=True),
        )
    )
)
def test_format_partition_is_the_classwise_join_and_parses_back(case):
    part, cells = case
    text = format_partition(part, cells)
    assert text == _classwise_text(part, cells)
    assert parse_partition(text, cells) == part
