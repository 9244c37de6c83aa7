"""Network construction, validation, serialization and DOT export."""
import copy
import gc
import hashlib
import json
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import corpus_noncancel
from test_reference import two_edge_networks

from synchro import (
    ANNIHILATOR,
    FreeCommutative,
    MonoidMismatch,
    MonoidRegistry,
    NaturalAdd,
    NaturalMul,
    Network,
    PartitionError,
    ProductMonoid,
    ResistorParallel,
    SchemaError,
    SizeLimitError,
    WithAnnihilator,
    format_partition,
    is_balanced,
    network_from_json,
    network_to_json,
    parse_network,
    parse_partition,
    serialize_network,
    to_dot,
    top,
)
from synchro.coding import coded
from synchro.monoid import spec_from_json

NA = NaturalAdd()
R = ResistorParallel()


def test_parallel_edges_merge(resistor6):
    registry = MonoidRegistry.uniform(R, 1)
    net = Network.build(
        ["1", "2"], ["t", "t"], ["t"],
        registry,
        [("1", "2", R.from_resistance(30)), ("1", "2", R.from_resistance(30))],
    )
    assert net.entry("1", "2") == R.from_resistance(15)
    assert net.entry("2", "1") == R.identity


def test_triangle_matrix(triangle3):
    expected = [[1, 0, 1], [1, 0, 1], [1, 1, 1]]
    for c, target in enumerate(triangle3.cells):
        for d, source in enumerate(triangle3.cells):
            assert triangle3.entry(target, source) == expected[c][d]


def test_in_neighborhoods(triangle3, chain3):
    assert triangle3.in_neighborhood("1") == {"1", "3"}
    assert chain3.in_neighborhood("1") == set()
    assert chain3.in_neighborhood("3") == {"2"}


def test_identity_weight_edges_vanish():
    net = Network.build(["1", "2"], ["t", "t"], ["t"], MonoidRegistry.uniform(NA, 1),
                        [("1", "2", 0)])
    assert net.in_neighborhood("1") == set()
    assert net.edge_count() == 0


def test_build_validation_errors():
    registry = MonoidRegistry.uniform(NA, 1)
    with pytest.raises(SchemaError):
        Network.build([], [], ["t"], registry, [])
    with pytest.raises(SchemaError):
        Network.build(["1", "1"], ["t", "t"], ["t"], registry, [])
    with pytest.raises(SchemaError):
        Network.build(["1"], ["nope"], ["t"], registry, [])
    with pytest.raises(SchemaError):
        Network.build(["1"], ["t"], ["t"], registry, [("1", "9", 1)])
    with pytest.raises(MonoidMismatch):
        Network.build(["1"], ["t"], ["t"], registry, [("1", "1", -3)])


def test_duplicate_ids_are_named_once_in_sorted_order():
    registry = MonoidRegistry.uniform(NA, 1)
    cells = ["b", "a", "c", "b", "a", "b"]
    with pytest.raises(SchemaError, match=r"duplicate cell ids: \['a', 'b'\]$"):
        Network.build(cells, ["t"] * len(cells), ["t"], registry, [])


_UNNAMEABLE_IDS = ["", "a,b", "a;b", " d", "d ", "\tx", "x\n"]


def _table_error(cells, cell_types, type_names) -> str:
    """The one message ``Network.build`` and ``parse_network`` give for a bad cell table."""
    with pytest.raises(SchemaError) as built:
        Network.build(cells, cell_types, type_names, MonoidRegistry.uniform(NA, 1), [])
    doc = {"types": type_names,
           "cells": [{"id": c, "type": t} for c, t in zip(cells, cell_types)],
           "monoids": [], "edges": []}
    with pytest.raises(SchemaError) as parsed:
        parse_network(json.dumps(doc))
    assert str(built.value) == str(parsed.value)
    return str(built.value)


@pytest.mark.parametrize("bad", _UNNAMEABLE_IDS + [1, None])
def test_cell_ids_that_partition_text_cannot_name_are_rejected(bad):
    message = _table_error(["c", bad], ["t", "t"], ["t"])
    if isinstance(bad, str):
        assert message.startswith(f"cell id {bad!r} cannot be named in partition text")
        return
    assert message == "cells[1]: id and type must be strings"
    # the same value as a cell's type, or as a declared type name
    assert _table_error(["c", "d"], ["t", bad], ["t"]) == message
    assert _table_error(["c"], ["t"], ["t", bad]) == "'types' must be a list of strings"


@pytest.mark.parametrize(
    "type_names, message",
    [
        (["t", ""], "type names must be nonempty"),
        (["t", "t"], "duplicate type names: ['t']"),
        (["u", "t", "u", "t", "u", "v"], "duplicate type names: ['t', 'u']"),
    ],
)
def test_empty_or_repeated_type_names_are_rejected(type_names, message):
    assert _table_error(["c"], ["t"], type_names) == message


def test_inner_whitespace_in_a_cell_id_round_trips_through_partition_text():
    cells = ["a b", "c"]
    net = Network.build(cells, ["t", "t"], ["t"], MonoidRegistry.uniform(NA, 1), [])
    part = parse_partition("a b;c", net.cells)
    assert parse_partition(format_partition(part, net.cells), net.cells) == part


def test_one_duplicate_id_in_a_large_document_is_rejected_quickly():
    cells = [{"id": f"c{i}", "type": "t"} for i in range(20000)] + [{"id": "c17", "type": "t"}]
    doc = {"types": ["t"], "cells": cells,
           "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
           "edges": []}
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=r"duplicate cell ids: \['c17'\]$"):
        parse_network(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


def test_missing_monoid_pair_rejected():
    registry = MonoidRegistry({(0, 0): NA})  # nothing registered for (t, u) edges
    with pytest.raises(SchemaError):
        Network.build(
            ["1", "2"], ["t", "u"], ["t", "u"], registry, [("1", "2", 1)]
        )


def test_round_trip_identity(resistor6, triangle3, chain3):
    for net in (resistor6, triangle3, chain3):
        assert parse_network(serialize_network(net)) == net
        assert parse_network(serialize_network(net, pretty=True)) == net


def test_round_trip_over_mixed_monoid_corpus():
    import corpus

    for net in corpus.corpus_networks():
        assert parse_network(serialize_network(net)) == net


def test_networks_pickle_and_deep_copy_without_their_verdict_memo(resistor6, triangle3, chain3):
    """Copies equal the original, start with an empty verdict memo and give the same verdicts.

    The non-cancellative corpus carries the SHORT and ANNIHILATOR weights,
    which must come back as the singletons the monoids test for.
    """
    nets = [resistor6, triangle3, chain3]
    nets += corpus.corpus_networks() + corpus_noncancel.corpus_networks()
    rng = random.Random(29)
    for net in nets:
        parts = [top(net)] + [corpus.random_seed_partition(net, rng) for _ in range(3)]
        verdicts = [is_balanced(net, p) for p in parts]  # the memo holds top(net) now
        assert len(coded(net).balanced) > 0
        for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert copied == net
            assert len(coded(copied).balanced) == 0
            assert [is_balanced(copied, p) for p in parts] == verdicts


def test_round_trip_preserves_exact_resistances(resistor6):
    text = serialize_network(resistor6)
    again = parse_network(text)
    assert again.entry("1", "2") == R.from_resistance(30)
    assert serialize_network(again) == text  # byte-stable reserialization


def test_parse_diagnostics_carry_field():
    with pytest.raises(SchemaError) as err:
        parse_network("{not json")
    assert "line" in str(err.value)

    doc = {
        "types": ["t"],
        "cells": [{"id": "1", "type": "t"}],
        "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
        "edges": [{"to": "1", "from": "1", "weight": {"r": "30"}}],
    }
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(doc))
    assert "edges[0]" in str(err.value)

    doc["edges"] = []
    doc["cells"] = []
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(doc))
    assert ">=1 cell" in str(err.value)


def test_handwritten_document_parses_to_expected_matrix(triangle3):
    text = """
    {
      "types": ["t"],
      "cells": [{"id": "1", "type": "t"},
                {"id": "2", "type": "t"},
                {"id": "3", "type": "t"}],
      "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
      "edges": [
        {"to": "1", "from": "1", "weight": {"n": 1}},
        {"to": "1", "from": "3", "weight": {"n": 1}},
        {"to": "2", "from": "1", "weight": {"n": 1}},
        {"to": "2", "from": "3", "weight": {"n": 1}},
        {"to": "3", "from": "1", "weight": {"n": 1}},
        {"to": "3", "from": "2", "weight": {"n": 1}},
        {"to": "3", "from": "3", "weight": {"n": 1}}
      ]
    }
    """
    assert parse_network(text) == triangle3


def test_handwritten_mixed_monoid_document():
    text = """
    {
      "types": ["t", "u"],
      "cells": [{"id": "x", "type": "t"}, {"id": "y", "type": "u"}],
      "monoids": [
        {"target_type": "t", "source_type": "u", "kind": "resistor_parallel"},
        {"target_type": "u", "source_type": "t", "kind": "free_commutative",
         "generators": ["a", "b"]},
        {"target_type": "u", "source_type": "u", "kind": "product",
         "parts": [{"kind": "natural_add"}, {"kind": "natural_mul"}]},
        {"target_type": "t", "source_type": "t", "kind": "with_annihilator",
         "inner": {"kind": "natural_add"}}
      ],
      "edges": [
        {"to": "x", "from": "y", "weight": {"r": "15/2"}},
        {"to": "y", "from": "x", "weight": {"gens": {"a": 2, "b": 1}}},
        {"to": "y", "from": "y", "weight": {"tuple": [{"n": 3}, {"n": 2}]}},
        {"to": "x", "from": "x", "weight": {"annihilator": true}}
      ]
    }
    """
    net = parse_network(text)
    from fractions import Fraction

    from synchro import ANNIHILATOR

    assert net.entry("x", "y") == Fraction(2, 15)  # conductance of 15/2 ohm
    assert net.entry("y", "x") == (("a", 2), ("b", 1))
    assert net.entry("y", "y") == (3, 2)
    assert net.entry("x", "x") is ANNIHILATOR
    assert parse_network(serialize_network(net)) == net


def test_parse_rejects_unknown_monoid_kind():
    doc = {
        "types": ["t"],
        "cells": [{"id": "1", "type": "t"}],
        "monoids": [{"target_type": "t", "source_type": "t", "kind": "mystery"}],
        "edges": [],
    }
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(doc))
    assert "mystery" in str(err.value)


@pytest.mark.parametrize("spec, where", [
    ({"kind": "free_commutative", "generator": ["x"]}, "monoids[0]"),
    ({"kind": "natural_add", "bogus": 1}, "monoids[0]"),
    ({"kind": "resistor_parallel", "generators": []}, "monoids[0]"),
    ({"kind": "product", "parts": [{"kind": "natural_mul", "inner": {"kind": "natural_add"}}]},
     "monoids[0].parts[0]"),
    ({"kind": "with_annihilator", "inner": {"kind": "natural_add"}, "parts": []}, "monoids[0]"),
], ids=[f"spec{i}" for i in range(5)])
def test_monoid_specs_accept_only_their_own_keys(spec, where):
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(_doc(spec, [])))
    assert str(err.value).startswith(f"{where}: unexpected key(s)")


@pytest.mark.parametrize("weight", [
    {"annihilator": True, "n": 5},
    {"annihilator": 1},
    {"annihilator": False},
])
def test_annihilator_weight_is_exactly_the_tag(weight):
    kind = {"kind": "with_annihilator", "inner": {"kind": "natural_add"}}
    assert parse_network(json.dumps(_doc(kind, [{"annihilator": True}]))).edge_count() == 1
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(_doc(kind, [{"annihilator": True}, weight])))
    assert str(err.value).startswith("edges[1].weight: annihilator weight must be")


def test_wire_format_keys_are_exact(triangle3):
    doc = json.loads(serialize_network(triangle3))
    assert set(doc) == {"types", "cells", "monoids", "edges"}
    assert set(doc["cells"][0]) == {"id", "type"}
    assert set(doc["edges"][0]) == {"to", "from", "weight"}
    assert doc["edges"][0]["weight"] == {"n": 1}
    assert {"target_type", "source_type", "kind"} <= set(doc["monoids"][0])


@given(st.permutations(list(range(9))))
def test_edge_order_does_not_matter(order):
    rng = random.Random(7)
    cells = ["a", "b", "c"]
    base_edges = []
    for _ in range(9):
        base_edges.append(
            (cells[rng.randrange(3)], cells[rng.randrange(3)], rng.randint(1, 3))
        )
    registry = MonoidRegistry.uniform(NA, 1)
    reference = Network.build(cells, ["t"] * 3, ["t"], registry, base_edges)
    shuffled = [base_edges[i] for i in order]
    assert Network.build(cells, ["t"] * 3, ["t"], registry, shuffled) == reference


def test_dot_output(triangle3):
    part = parse_partition("1,2;3", triangle3.cells)
    colored = to_dot(triangle3, part)
    fills = {line.split("fillcolor=")[1] for line in colored.splitlines() if "fillcolor" in line}
    assert len(fills) == 2

    plain = to_dot(triangle3)
    fills = {line.split("fillcolor=")[1] for line in plain.splitlines() if "fillcolor" in line}
    assert len(fills) == 1

    trivial = to_dot(triangle3, parse_partition("1;2;3", triangle3.cells))
    fills = {line.split("fillcolor=")[1] for line in trivial.splitlines() if "fillcolor" in line}
    assert len(fills) == 3

    with pytest.raises(PartitionError):
        to_dot(triangle3, parse_partition("1,2;3,4", ["1", "2", "3", "4"]))


def test_dot_edge_labels_show_weights(resistor6):
    text = to_dot(resistor6)
    assert 'label="30"' in text
    assert "shape=box" in text and "shape=circle" in text


def test_type_partition(resistor6):
    assert resistor6.type_partition().colors == (1, 1, 2, 2, 1, 1)


# -- parse-time weight cache and coded storage --------------------------------


def _doc(kind, weights):
    """A 2-cell, 1-type document with one edge per weight."""
    return {
        "types": ["t"],
        "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "t"}],
        "monoids": [{"target_type": "t", "source_type": "t", **kind}],
        "edges": [{"to": "a", "from": "b", "weight": w} for w in weights],
    }


_PAIR = {"kind": "product", "parts": [{"kind": "natural_add"}, {"kind": "natural_add"}]}


_FREE = {"kind": "free_commutative"}
_RESISTOR = {"kind": "resistor_parallel"}


@pytest.mark.parametrize(
    "kind, valid, invalid",
    [
        # == and hash-equal to the valid weight
        ({"kind": "natural_add"}, {"n": 1}, {"n": True}),
        ({"kind": "natural_add"}, {"n": 1}, {"n": 1.0}),
        (_PAIR, {"tuple": [{"n": 1}, {"n": 1}]}, {"tuple": [{"n": 1}, {"n": True}]}),
        (_FREE, {"gens": {"x": 1}}, {"gens": {"x": True}}),
        # the valid resistance as a number, where the wire wants a string
        (_RESISTOR, {"r": "30"}, {"r": 30}),
        # a library caller's values that JSON cannot hold; marshal cannot
        # write a Fraction, so those weights are keyed by their repr
        ({"kind": "natural_add"}, {"n": 1}, {"n": Fraction(1)}),
        (_RESISTOR, {"r": "30"}, {"r": Fraction(30)}),
        (_FREE, {"gens": {"x": 1}}, {"gens": {"x"}}),
    ],
)
def test_weight_equal_to_a_cached_one_is_still_validated(kind, valid, invalid):
    for weights, pos in (([valid, valid, invalid, valid], 2), ([invalid, valid, valid], 0)):
        doc = _doc(kind, weights)
        reads = [(network_from_json, doc)]
        try:
            reads.append((parse_network, json.dumps(doc)))
        except TypeError:  # a Fraction or a set has no JSON text
            pass
        for read, arg in reads:
            with pytest.raises(SchemaError) as err:
                read(arg)
            assert str(err.value).startswith(f"edges[{pos}].weight:")


def test_each_distinct_weight_is_parsed_once_per_type_pair(monkeypatch):
    parsed = []
    element_from_json = ResistorParallel.element_from_json

    def spy(self, obj):
        parsed.append(json.dumps(obj))
        return element_from_json(self, obj)

    monkeypatch.setattr(ResistorParallel, "element_from_json", spy)
    weights = [{"r": "30"}, {"r": "15"}, {"r": "inf"}]
    edges = []
    for k in range(10000):
        w = weights[k % 3]
        # one shared object or a fresh copy: equal values must give one key
        # whatever their reference counts (marshal version 4 would flag the
        # shared "30" for back-reference but not a fresh copy's)
        edges.append({"to": "ab"[k % 2], "from": "c",
                      "weight": w if k % 5 else json.loads(json.dumps(w))})
    doc = {
        "types": ["t", "u"],
        "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "u"}, {"id": "c", "type": "u"}],
        "monoids": [{"target_type": tt, "source_type": "u", "kind": "resistor_parallel"}
                    for tt in ("t", "u")],
        "edges": edges,
    }
    into_a = R.sum(R.from_resistance(edge["weight"]["r"]) for edge in edges[::2])
    for build in (network_from_json, lambda doc: parse_network(json.dumps(doc))):
        parsed.clear()
        net = build(doc)
        assert sorted(parsed) == sorted(json.dumps(w) for w in weights * 2)
        assert net.entry("a", "c") == into_a


def test_build_from_generator_of_fresh_weights_equals_list_build():
    cells = [str(i) for i in range(7)]
    registry = MonoidRegistry.uniform(R, 1)

    def edges():
        for i in range(300):
            # a fresh object per edge; freed ones may hand their id to the next
            yield cells[i % 7], cells[(3 * i) % 7], Fraction(1, 1 + i % 5) + 0
    built = Network.build(cells, ["t"] * 7, ["t"], registry, edges())
    assert built == Network.build(cells, ["t"] * 7, ["t"], registry, list(edges()))
    assert built.entry("0", "0") == sum(Fraction(1, 1 + i % 5) for i in range(0, 300, 7))


def test_bool_weight_after_equal_int_is_rejected():
    registry = MonoidRegistry.uniform(NA, 1)
    with pytest.raises(MonoidMismatch):
        Network.build(["a", "b"], ["t", "t"], ["t"], registry, [("a", "b", 1), ("b", "a", True)])


def test_parallel_edges_summing_to_identity_vanish_from_codes():
    registry = MonoidRegistry.uniform(NA, 1)
    net = Network.build(["a", "b"], ["t", "t"], ["t"], registry, [("a", "b", 0), ("a", "b", 0)])
    assert net.edge_count() == 0 and net.row_items(0) == []
    assert net.entry("a", "b") == 0


@pytest.mark.parametrize("r", ["1e5000", "1e-4300", "1e100000000", "1e" + "9" * 5000])
def test_resistance_too_large_to_print_is_rejected_at_its_edge(r):
    kind = {"kind": "resistor_parallel"}
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(_doc(kind, [{"r": "30"}, {"r": r}])))
    assert str(err.value).startswith("edges[1].weight: bad resistance")


def test_integer_weights_beyond_the_decimal_digit_limit_are_interned():
    big = 10**4000  # its square has more digits than int-to-str conversion allows
    registry = MonoidRegistry.uniform(NaturalMul(), 1)
    net = Network.build(["a", "b"], ["t", "t"], ["t"], registry,
                        [("a", "b", big), ("a", "b", big), ("b", "a", big * big)])
    assert net.entry("a", "b") == net.entry("b", "a")
    assert top(net).rank == 1


def _coprime_ohms():
    """Two coprime resistances of about 2200 digits: their parallel sum
    has a numerator of about 4400 digits, past the int-to-str limit."""
    r = 10**2200 + 1
    return str(r), str(r + 1)


@pytest.mark.parametrize("spec, weights", [
    (NaturalMul(), [10**4000, 10**4000]),
    (R, [R.from_resistance(r) for r in _coprime_ohms()]),
    (FreeCommutative(), [(("x", 10**4300 - 1),)] * 2),  # the largest count JSON loads, doubled
])
def test_merged_weight_too_long_to_print_raises_size_limit(spec, weights):
    registry = MonoidRegistry.uniform(spec, 1)
    net = Network.build(["a", "b"], ["t", "t"], ["t"], registry, [("a", "b", w) for w in weights])
    for render in (serialize_network, to_dot):
        with pytest.raises(SizeLimitError):
            render(net)


# sha256 over the compact serialization of each corpus network, one per
# line; pinned so that a change of storage cannot change the wire text.
_CORPUS_SERIALIZATION_SHA256 = {
    "mixed": "944fd328d1ec336ea1cd30b5d07817d466a3f00a767d337835b3027877d50cee",
    "noncancel": "1ac590c6546200e0b1f3fc07b63313e3caa881c16b971e6681e2f6fc4cdcaddb",
}


@pytest.mark.parametrize("name, nets", [
    ("mixed", corpus.corpus_networks),
    ("noncancel", corpus_noncancel.corpus_networks),
])
def test_corpus_round_trip_and_pinned_serialization(name, nets):
    digest = hashlib.sha256()
    for net in nets():
        text = serialize_network(net)
        assert parse_network(text) == net
        _assert_wire_path_equals_build(json.loads(text))
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == _CORPUS_SERIALIZATION_SHA256[name]


def _assert_wire_path_equals_build(doc):
    """``network_from_json`` agrees with ``Network.build`` fed each edge's own decode."""
    wired = network_from_json(doc)
    types = {cell["id"]: cell["type"] for cell in doc["cells"]}
    edges = []
    for edge in doc["edges"]:
        spec = wired.spec_for(wired.index(edge["to"]), wired.index(edge["from"]))
        edges.append((edge["to"], edge["from"], spec.element_from_json(edge["weight"])))
    built = Network.build(list(types), list(types.values()), doc["types"], wired.registry, edges)
    assert wired == built


# A 3-type document in the style of the ingest benchmark: one of nine monoid
# flavors per type pair (kind, non-identity weights, an identity weight),
# repeated weights, parallel edges that merge, and one parallel pair of
# identity weights per type pair that merges to "no edge".
_NAT = {"kind": "natural_add"}
_RES = {"kind": "resistor_parallel"}
_FLAVORS = {
    ("p", "p"): (_RES, [{"r": "30"}, {"r": "1/3"}, {"r": "0"}], {"r": "inf"}),
    ("p", "q"): (_NAT, [{"n": 2}, {"n": 5}], {"n": 0}),
    ("p", "r"): ({"kind": "natural_mul"}, [{"n": 3}, {"n": 0}], {"n": 1}),
    ("q", "p"): ({"kind": "free_commutative", "generators": ["x", "y"]},
                 [{"gens": {"x": 1}}, {"gens": {"x": 1, "y": 2}}], {"gens": {}}),
    ("q", "q"): ({"kind": "product", "parts": [_NAT, _RES]},
                 [{"tuple": [{"n": 1}, {"r": "10"}]}, {"tuple": [{"n": 0}, {"r": "45/2"}]}],
                 {"tuple": [{"n": 0}, {"r": "inf"}]}),
    ("q", "r"): ({"kind": "with_annihilator", "inner": _NAT},
                 [{"annihilator": True}, {"n": 4}], {"n": 0}),
    ("r", "p"): ({"kind": "free_commutative"}, [{"gens": {"a": 2}}], {"gens": {}}),
    ("r", "q"): ({"kind": "with_annihilator", "inner": _RES},
                 [{"r": "15"}, {"annihilator": True}], {"r": "inf"}),
    ("r", "r"): ({"kind": "product", "parts": [{"kind": "natural_mul"}, {"kind": "free_commutative"}]},
                 [{"tuple": [{"n": 2}, {"gens": {"z": 1}}]}], {"tuple": [{"n": 1}, {"gens": {}}]}),
}
_NAMES = {"p": ["p0", "p1", "p2"], "q": ["q0", "q1"], "r": ["r0", "r1", "r2"]}


def _ingest_style_doc():
    rng = random.Random(5)
    monoids, edges = [], []
    for (tt, st), (kind, weights, identity) in _FLAVORS.items():
        monoids.append({"target_type": tt, "source_type": st, **kind})
        vanishing = (_NAMES[tt][0], _NAMES[st][-1])
        for target in _NAMES[tt]:
            for source in _NAMES[st]:
                if (target, source) != vanishing:
                    for w in rng.choices(weights + [identity], k=rng.randint(1, 3)):
                        edges.append({"to": target, "from": source, "weight": w})
        edges += [{"to": vanishing[0], "from": vanishing[1], "weight": identity}] * 2
    rng.shuffle(edges)
    cells = [{"id": cell, "type": t} for t, ids in _NAMES.items() for cell in ids]
    return {"types": list(_NAMES), "cells": cells, "monoids": monoids, "edges": edges}


def _two_edge_docs():
    """two_edge corpus networks that have a wire form: its mod-3 monoid is test-only."""
    for net in two_edge_networks():
        if all(spec.kind != "cyclic3" for _, spec in net.registry.pairs()):
            yield network_to_json(net)


_AGREEMENT_DOCS = {**{f"two_edge{k}": doc for k, doc in enumerate(_two_edge_docs())},
                   "ingest_style": _ingest_style_doc()}


@pytest.mark.parametrize("doc", _AGREEMENT_DOCS.values(), ids=_AGREEMENT_DOCS.keys())
def test_wire_path_equals_build_of_decoded_elements(doc):
    _assert_wire_path_equals_build(doc)


def test_ingest_style_document_drops_identity_pairs():
    net = network_from_json(_ingest_style_doc())
    assert len({spec for _, spec in net.registry.pairs()}) == 9
    for tt, st in _FLAVORS:
        target, source = _NAMES[tt][0], _NAMES[st][-1]
        assert source not in net.in_neighborhood(target)
        assert net.entry(target, source) == net.spec_for(net.index(target), net.index(source)).identity


# -- the cyclic collector during a parse ----------------------------------------


def _large_ring_text(n_cells=10_000):
    """A ring with two in-edges per cell: 20k edges over a few distinct weights."""
    cells = [f"c{i}" for i in range(n_cells)]
    edges = [{"to": cells[i], "from": cells[i - k], "weight": {"n": 1 + i % 3}}
             for i in range(n_cells) for k in (1, 2)]
    return json.dumps({
        "types": ["t"],
        "cells": [{"id": cell, "type": "t"} for cell in cells],
        "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
        "edges": edges,
    })


@pytest.fixture
def collector_enabled():
    """Runs the test with the cyclic collector on, then restores its state."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_parse_runs_no_collection(collector_enabled):
    text = _large_ring_text()
    events = []

    def record(phase, info):
        events.append((phase, info["generation"]))

    gc.callbacks.append(record)
    try:
        net = parse_network(text)
    finally:
        gc.callbacks.remove(record)
    assert net.edge_count() == 20_000
    assert events == []
    assert gc.isenabled()


_BAD_WEIGHT = json.dumps(_doc({"kind": "natural_add"}, [{"n": 1}, {"n": 1}, {"n": -1}]))


@pytest.mark.parametrize("was_enabled", [True, False])
@pytest.mark.parametrize("text, error", [
    (json.dumps(_doc({"kind": "natural_add"}, [{"n": 1}])), None),
    ("{not json", "invalid JSON at line 1"),
    (_BAD_WEIGHT, "edges[2].weight: "),
], ids=["parses", "bad-json", "bad-weight"])
def test_parse_restores_the_collector_state(collector_enabled, was_enabled, text, error):
    if not was_enabled:
        gc.disable()
    if error is None:
        assert parse_network(text).edge_count() == 1
    else:
        with pytest.raises(SchemaError) as err:
            parse_network(text)
        assert str(err.value).startswith(error)
    assert gc.isenabled() is was_enabled


# -- parser fuzzing -------------------------------------------------------------

_FUZZ_DOC = {
    "types": ["t", "u"],
    "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "t"}, {"id": "c", "type": "u"}],
    "monoids": [
        {"target_type": "t", "source_type": "t", "kind": "resistor_parallel"},
        {"target_type": "t", "source_type": "u", "kind": "product",
         "parts": [{"kind": "natural_add"}, {"kind": "free_commutative", "generators": ["x", "y"]}]},
        {"target_type": "u", "source_type": "t", "kind": "with_annihilator",
         "inner": {"kind": "natural_mul"}},
    ],
    "edges": [
        {"to": "a", "from": "b", "weight": {"r": "30"}},
        {"to": "a", "from": "b", "weight": {"r": "1/3"}},
        {"to": "b", "from": "c", "weight": {"tuple": [{"n": 2}, {"gens": {"x": 1}}]}},
        {"to": "c", "from": "a", "weight": {"annihilator": True}},
        {"to": "c", "from": "b", "weight": {"n": 3}},
    ],
}


def _fields(node, path=()):
    """Paths to every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


_WORDS = st.sampled_from(["t", "u", "a", "c", "r", "n", "gens", "tuple", "kind", "natural_add",
                          "product", "annihilator", "0", "inf", "1/0", "-1", "x"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | _WORDS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORDS | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def test_fuzz_document_is_valid():
    assert parse_network(json.dumps(_FUZZ_DOC)).edge_count() == 4


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_fields(_FUZZ_DOC))), _JSON)
def test_parser_fuzz_returns_network_or_schema_error(path, value):
    doc = copy.deepcopy(_FUZZ_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        net = parse_network(json.dumps(doc))
    except SchemaError:
        return
    assert isinstance(net, Network)


# -- error paths of the constructors and the wire reader ----------------------


def test_cell_table_needs_types_and_one_type_per_cell():
    assert _table_error(["c"], ["t"], []) == "'types' must not be empty"
    with pytest.raises(SchemaError, match="^need exactly one type per cell$"):
        Network.build(["c", "d"], ["t"], ["t"], MonoidRegistry.uniform(NA, 1), [])


def test_unknown_cells_are_named(triangle3):
    registry = MonoidRegistry.uniform(NA, 1)
    with pytest.raises(SchemaError, match="^edge targets unknown cell 'z'$"):
        Network.build(["a"], ["t"], ["t"], registry, [("z", "a", 1)])
    with pytest.raises(SchemaError, match="^unknown cell 'z'$"):
        triangle3.index("z")


_ONE_PAIR = {
    "types": ["t", "u"],
    "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "u"}],
    "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
    "edges": [],
}


@pytest.mark.parametrize("doc, message", [
    ([], "network document must be a JSON object"),
    ({k: v for k, v in _ONE_PAIR.items() if k != "edges"}, "missing top-level field 'edges'"),
    (dict(_ONE_PAIR, edges=[{"to": "a", "from": "b", "weight": {"n": 1}}]),
     "edges[0]: no monoid declared for pair ('t', 'u')"),
    (dict(_ONE_PAIR, edges=[{"to": "a", "from": "zz", "weight": {"n": 1}}]),
     "edges[0]: unknown source cell 'zz'"),
    (dict(_ONE_PAIR, edges=[{"to": "a", "from": "a", "weight": {"r": "-5"}}],
          monoids=[{"target_type": "t", "source_type": "t", "kind": "resistor_parallel"}]),
     "edges[0].weight: bad resistance '-5': resistance must be nonnegative"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "zz", "source_type": "t", "kind": "natural_add"}]),
     "monoids[0].target_type must name a type, got 'zz'"),
    (dict(_ONE_PAIR, monoids=[{"source_type": "t", "kind": "natural_add"}]),
     "monoids[0].target_type must name a type, got None"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "u", "kind": "natural_add"},
                              {"target_type": "t", "source_type": "u", "kind": "natural_mul"}]),
     "monoids[1]: duplicate entry for pair ('t', 'u')"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "natural_sub"}]),
     "monoids[0]: monoid 'kind' must be one of resistor_parallel, natural_add, natural_mul,"
     " free_commutative, product, with_annihilator; got 'natural_sub'"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t"}]),
     "monoids[0]: monoid 'kind' must be one of resistor_parallel, natural_add, natural_mul,"
     " free_commutative, product, with_annihilator; got None"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "product",
                               "parts": []}]),
     "monoids[0]: product monoid needs a nonempty 'parts' list"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t",
                               "kind": "with_annihilator"}]),
     "monoids[0]: with_annihilator monoid needs an 'inner' spec"),
    # a fault inside a nested spec names the path down to it
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "product",
                               "parts": [{"kind": "natural_add"}, {}]}]),
     "monoids[0].parts[1]: monoid 'kind' must be one of resistor_parallel, natural_add,"
     " natural_mul, free_commutative, product, with_annihilator; got None"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "with_annihilator",
                               "inner": {"kind": "free_commutative", "generators": [1]}}]),
     "monoids[0].inner: 'generators' must be a list of strings"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "with_annihilator",
                               "inner": 7}]),
     "monoids[0].inner: monoid spec must be an object with a 'kind', got 7"),
    (dict(_ONE_PAIR, monoids=[{"target_type": "t", "source_type": "t", "kind": "natural_add"},
                              {"target_type": "t", "source_type": "u", "kind": "product",
                               "parts": [{"kind": "natural_add"},
                                         {"kind": "with_annihilator",
                                          "inner": {"kind": "natural_add", "bogus": 1}}]}]),
     "monoids[1].parts[1].inner: unexpected key(s) 'bogus' for monoid kind 'natural_add'"),
])
def test_wire_document_faults_are_named(doc, message):
    with pytest.raises(SchemaError) as err:
        network_from_json(doc)
    assert str(err.value) == message


def test_spec_fault_path_without_a_prefix():
    with pytest.raises(SchemaError) as err:
        spec_from_json({"kind": "product", "parts": [{"kind": "product", "parts": {}}]})
    assert str(err.value) == "parts[0]: product monoid needs a nonempty 'parts' list"
    with pytest.raises(SchemaError) as err:
        spec_from_json({"kind": "product"})
    assert str(err.value) == "product monoid needs a nonempty 'parts' list"


def test_dot_labels_of_composite_weights():
    registry = MonoidRegistry({
        (0, 0): WithAnnihilator(NA),
        (0, 1): ProductMonoid((FreeCommutative(("x",)), NA)),
    })
    net = Network.build(["a", "b", "c"], ["t", "t", "u"], ["t", "u"], registry, [
        ("a", "b", ANNIHILATOR), ("b", "a", 3), ("a", "c", ((), 2)), ("b", "c", ((("x", 1),), 0)),
    ])
    labels = [line.split("label=")[1] for line in to_dot(net).splitlines() if "->" in line]
    assert labels == ['"annihilator"];', '"({}, 2)"];', '"3"];', '"({x:1}, 0)"];']
