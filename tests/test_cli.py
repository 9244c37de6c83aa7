"""End-to-end command-line behavior: outputs, exit codes, round trips."""
import json

import pytest
from click.testing import CliRunner

from conftest import make_chain3, make_resistor6, make_triangle3
from synchro import parse_network, quotient, parse_partition, serialize_network
from synchro.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def net_file(tmp_path):
    def write(net, name="net.json"):
        path = tmp_path / name
        path.write_text(serialize_network(net))
        return str(path)

    return write


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_validate_ok(runner, net_file):
    result = invoke(runner, ["validate", net_file(make_resistor6())])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc == {"ok": True, "cells": 6, "types": ["a", "b"], "edges": 16,
                   "monoid_pairs": 4}


def test_validate_bad_schema_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"types": ["t"], "cells": [], "monoids": [], "edges": []}')
    result = invoke(runner, ["validate", str(bad)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "schema"


def test_missing_file_exits_2(runner):
    result = invoke(runner, ["validate", "/no/such/file.json"])
    assert result.exit_code == 2


def test_balanced_yes(runner, net_file):
    result = invoke(runner, ["balanced", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"balanced": True, "partition": "1,2;3"}


def test_balanced_no_exits_1_with_counterexample(runner, net_file):
    result = invoke(runner, ["balanced", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 1
    err = json.loads(result.stderr)
    assert err["error"] == "not_balanced"
    assert err["cells"] == ["2", "3"]


def test_cir_trace(runner, net_file):
    result = invoke(
        runner, ["cir", "-p", "1,2,5;3,4;6", net_file(make_resistor6())]
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["seed"] == "1,2,5;3,4;6"
    assert doc["converged"] == "1,2;3;4;5;6"
    assert doc["iterations"][-1]["partition"] == "1,2;3;4;5;6"
    assert [it["rank"] for it in doc["iterations"]] == [5, 5]


def test_cir_defaults_to_type_partition(runner, net_file):
    result = invoke(runner, ["cir", net_file(make_resistor6())])
    doc = json.loads(result.stdout)
    assert doc["seed"] == "1,2,5,6;3,4"
    assert doc["converged"] == "1,2;3;4;5,6"


def test_top(runner, net_file):
    result = invoke(runner, ["top", net_file(make_resistor6())])
    assert result.exit_code == 0
    assert result.stdout == "1,2;3;4;5,6\n"


def test_quotient_round_trips_through_every_command(runner, net_file, tmp_path):
    result = invoke(
        runner, ["quotient", "-p", "1,2;3;4;5,6", net_file(make_resistor6())]
    )
    assert result.exit_code == 0
    qnet = parse_network(result.stdout)
    direct = quotient(
        make_resistor6(), parse_partition("1,2;3;4;5,6", make_resistor6().cells)
    )
    assert qnet == direct.quotient

    qpath = tmp_path / "q.json"
    qpath.write_text(result.stdout)
    for args in (
        ["validate", str(qpath)],
        ["top", str(qpath)],
        ["cir", str(qpath)],
        ["balanced", "-p", "1+2;3;4;5+6", str(qpath)],
        ["lattice", str(qpath)],
        ["dot", str(qpath)],
    ):
        assert invoke(runner, args).exit_code == 0, args


def test_quotient_unbalanced_exits_1(runner, net_file):
    result = invoke(runner, ["quotient", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "not_balanced"


def test_lattice_json_and_dot(runner, net_file):
    path = net_file(make_resistor6())
    result = invoke(runner, ["lattice", path])
    doc = json.loads(result.stdout)
    assert doc["elements"] == ["1,2;3;4;5,6", "1,2;3;4;5;6", "1;2;3;4;5;6"]
    assert doc["covers"] == [[1, 0], [2, 1]]
    assert doc["complete"] is True

    dot = invoke(runner, ["lattice", "--dot", path])
    assert dot.stdout.startswith("digraph lattice {")


def test_lattice_budget_exceeded(runner, tmp_path):
    from synchro import MonoidRegistry, NaturalAdd, Network

    cells = [str(i) for i in range(1, 6)]
    edges = [(a, b, 1) for a in cells for b in cells if a != b]
    net = Network.build(cells, ["t"] * 5, ["t"],
                        MonoidRegistry.uniform(NaturalAdd(), 1), edges)
    path = tmp_path / "k5.json"
    path.write_text(serialize_network(net))
    result = CliRunner().invoke(main, ["lattice", "--budget", "3", str(path)])
    assert result.exit_code == 1
    partial = json.loads(result.stdout)
    assert partial["complete"] is False
    err = json.loads(result.stderr)
    assert err["error"] == "budget_exceeded"


def test_simulate_map_csv(runner, net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")  # defaults: no internal dynamics, raw count kappa
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0,3.0\n")
    result = invoke(
        runner,
        ["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2",
         net_file(make_triangle3())],
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,1,2,3"
    assert lines[1].startswith("0,1.0,2.0,3.0")
    assert len(lines) == 4


def test_simulate_ode_runs(runner, net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({
        "g": [{"type": "t", "kind": "scale", "a": -1.0}],
        "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.1}],
    }))
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(
        runner,
        ["simulate", "--oracle", str(oracle), "--x0", str(x0),
         "--tend", "0.1", "--dt", "0.01", net_file(make_triangle3())],
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,1,2,3"
    assert len(lines) == 12
    rows = [[float(field) for field in line.split(",")] for line in lines[1:]]
    assert [len(row) for row in rows] == [4] * 11
    assert rows[0] == [0.0, 1.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "mode",
    [
        ["--tend", "inf"],
        ["--tend", "nan"],
        ["--tend", "-1"],
        ["--tend", "1", "--dt", "nan"],
        ["--tend", "1", "--dt", "inf"],
        ["--tend", "1", "--dt", "0"],
        ["--steps", "-1"],
        ["--tend", "1e12"],
    ],
)
def test_simulate_bad_time_arguments_are_one_json_error(runner, net_file, tmp_path, mode):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(runner, ["simulate", "--oracle", str(oracle), "--x0", str(x0)] + mode
                    + [net_file(make_triangle3())])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "domain"


@pytest.mark.parametrize(
    "oracle, where",
    [
        ({"g": [{"type": "t", "kind": "scale", "a": "x"}]}, "g[0]"),
        ({"g": [{"type": ["t"]}]}, "g[0]"),
        ({"kappa": [{"target_type": "t", "source_type": "t", "scale": [1]}]}, "kappa[0]"),
        ({"g": [{"type": "t", "kind": "scale", "a": True}]}, "g[0]"),
        ({"g": [{"type": "t", "kind": "scale", "A": 2}]}, "g[0]"),
        ({"g": [{"type": "t", "kind": "zero", "a": 2}]}, "g[0]"),
        ({"g": [{"type": "t", "kind": "scale", "a": 10**400}]}, "g[0]"),
        ({"g": [{"type": "t", "kind": "scale", "a": float("nan")}]}, "g[0]"),
        ({"g": [{"type": "t"}, {"type": "t", "kind": ["scale"]}]}, "g[1]"),
        ({"g": [7]}, "g[0]"),
        ({"kappa": [{"target_type": "t", "source_type": 0}]}, "kappa[0]"),
        ({"kappa": [{"target_type": "t", "source_type": "t", "kind": "log"}]}, "kappa[0]"),
        ({"h": [{"target_type": "t", "source_type": "t", "kind": "diffusive", "a": 1}]},
         "h[0]"),
        ({"h": [{"target_type": "t", "source_type": "t", "kind": {}}]}, "h[0]"),
        ({"g": [{"type": "t", "kind": "scale", "a": 1}, {"type": "t", "kind": "scale", "a": -5}]},
         "g[1]: duplicate entry for type 't'"),
        ({"kappa": [{"target_type": "t", "source_type": "t"},
                    {"target_type": "t", "source_type": "t", "scale": 2}]},
         "kappa[1]: duplicate entry for pair ('t', 't')"),
        ({"h": [{"target_type": "t", "source_type": "t", "kind": "diffusive"},
                {"target_type": "t", "source_type": "t"}]},
         "h[1]: duplicate entry for pair ('t', 't')"),
    ],
)
def test_bad_oracle_entry_is_one_schema_error(runner, net_file, tmp_path, oracle, where):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(runner, ["simulate", "--oracle", str(path), "--x0", str(x0), "--steps", "1",
                             net_file(make_triangle3())])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema"
    assert err["detail"].startswith(where)


@pytest.mark.parametrize("text", ["[" * 100000, '{"g": [{"type": "t", "a": 1' + "0" * 5000 + "}]}"])
def test_unloadable_oracle_json_is_schema_error(runner, net_file, tmp_path, text):
    path = tmp_path / "oracle.json"
    path.write_text(text)
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(runner, ["simulate", "--oracle", str(path), "--x0", str(x0), "--steps", "1",
                             net_file(make_triangle3())])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "schema"


def test_simulate_usage_errors(runner, net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0\n")  # wrong arity for a 3-cell network
    net = net_file(make_triangle3())
    both = invoke(runner, ["simulate", "--oracle", str(oracle), "--x0", str(x0),
                           "--steps", "2", "--tend", "1.0", net])
    assert both.exit_code == 2
    neither = invoke(runner, ["simulate", "--oracle", str(oracle), "--x0", str(x0), net])
    assert neither.exit_code == 2
    bad_x0 = invoke(runner, ["simulate", "--oracle", str(oracle), "--x0", str(x0),
                             "--steps", "1", net])
    assert bad_x0.exit_code == 2


def test_witness_json(runner, net_file):
    result = invoke(runner, ["witness", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["outputs"]["2"] != doc["outputs"]["3"]
    assert doc["state"]["2"] == doc["state"]["3"]


def test_witness_balanced_exits_1(runner, net_file):
    result = invoke(runner, ["witness", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "no_witness"


def test_dot_with_partition(runner, net_file):
    result = invoke(runner, ["dot", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 0
    assert result.stdout.startswith("digraph network {")


def test_outputs_are_byte_deterministic(runner, net_file):
    path = net_file(make_resistor6())
    for args in (["top", path], ["cir", path], ["lattice", path],
                 ["quotient", "-p", "1,2;3;4;5,6", path], ["dot", path]):
        first = invoke(runner, args)
        second = invoke(runner, args)
        assert first.stdout == second.stdout, args


def test_pretty_flag_indents(runner, net_file):
    result = invoke(runner, ["validate", "--pretty", net_file(make_triangle3())])
    assert result.stdout.startswith("{\n")


# Documents that once crashed the parser with a TypeError (an unhashable
# value used as a dict key) or a KeyError; each must be one schema error.
_DOC = {
    "types": ["t"],
    "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "t"}],
    "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
    "edges": [{"to": "a", "from": "b", "weight": {"n": 1}}],
}


def _schema_error(runner, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema"
    return err["detail"]


def test_edge_to_list_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, edges=[{"to": ["a"], "from": "b", "weight": {"n": 1}}])
    assert "edges[0].to" in _schema_error(runner, tmp_path, doc)


def test_edge_from_object_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, edges=[{"to": "a", "from": {"id": "b"}, "weight": {"n": 1}}])
    assert "edges[0].from" in _schema_error(runner, tmp_path, doc)


def test_monoid_target_type_list_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": ["t"], "source_type": "t", "kind": "natural_add"}])
    assert "monoids[0].target_type" in _schema_error(runner, tmp_path, doc)


def test_monoid_source_type_list_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": [], "kind": "natural_add"}])
    assert "monoids[0].source_type" in _schema_error(runner, tmp_path, doc)


def test_monoid_kind_list_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": "t", "kind": ["natural_add"]}])
    detail = _schema_error(runner, tmp_path, doc)
    assert "monoids[0]" in detail and "'kind'" in detail


def test_cell_of_undeclared_type_with_edges_is_schema_error(runner, tmp_path):
    doc = dict(_DOC, cells=[{"id": "a", "type": "t"}, {"id": "b", "type": "zz"}])
    assert "cells[1]: unknown type 'zz'" in _schema_error(runner, tmp_path, doc)


def test_unloadable_json_is_schema_error(runner, tmp_path):
    for text in ("[" * 100_000, '{"n": 1' + "0" * 5000 + "}"):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = invoke(runner, ["validate", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == "schema"


def test_monoid_spec_with_a_foreign_key_is_schema_error(runner, tmp_path):
    for spec in ({"kind": "free_commutative", "generator": ["x"]},
                 {"kind": "natural_add", "bogus": 1}):
        doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": "t", **spec}])
        assert _schema_error(runner, tmp_path, doc).startswith("monoids[0]: unexpected key(s)")


def test_annihilator_weight_with_extra_keys_is_schema_error(runner, tmp_path):
    doc = dict(
        _DOC,
        monoids=[{"target_type": "t", "source_type": "t", "kind": "with_annihilator",
                  "inner": {"kind": "natural_add"}}],
        edges=[{"to": "a", "from": "b", "weight": {"annihilator": True, "n": 5}}],
    )
    assert _schema_error(runner, tmp_path, doc).startswith("edges[0].weight:")


# Two parallel NaturalMul edges of weight 10**4000 merge to 10**8000, which
# has more digits than Python prints; every command that prints the merged
# weight must end in one domain error.
_HUGE = dict(
    _DOC,
    monoids=[{"target_type": "t", "source_type": "t", "kind": "natural_mul"}],
    edges=[{"to": "a", "from": "b", "weight": {"n": 10**4000}}] * 2
    + [{"to": "b", "from": "a", "weight": {"n": 2}}],
)


@pytest.mark.parametrize("args", [
    ["quotient", "-p", "a;b"],
    ["dot"],
    ["witness", "-p", "a,b"],
])
def test_weight_too_long_to_print_is_domain_error(runner, tmp_path, args):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE))
    assert invoke(runner, ["validate", str(path)]).exit_code == 0
    result = invoke(runner, args + [str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "domain"


# A NaturalAdd weight of 10**400 is a valid exact weight, but the natural
# kappa cannot turn it into a float; simulation must end in one domain error.
_BEYOND_FLOAT = dict(_DOC, edges=[{"to": "a", "from": "b", "weight": {"n": 10**400}}])


@pytest.mark.parametrize("mode", [["--steps", "1"], ["--tend", "0.01"]])
def test_weight_beyond_float_range_is_domain_error(runner, tmp_path, mode):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_BEYOND_FLOAT))
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0\n")
    result = invoke(runner, ["simulate", "--oracle", str(oracle), "--x0", str(x0)] + mode
                    + [str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "domain"
