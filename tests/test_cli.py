"""End-to-end command-line behavior: outputs, exit codes, round trips."""
import collections
import contextlib
import csv
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import corpus
import synchro
from conftest import make_chain3, make_resistor6, make_triangle3
from synchro import (
    MonoidRegistry,
    NaturalAdd,
    Network,
    format_partition,
    parse_network,
    parse_partition,
    quotient,
    serialize_network,
    top,
)
from synchro.cli import _COMMANDS, main
from synchro.monoid import MAX_SPEC_DEPTH


@pytest.fixture
def net_file(tmp_path):
    def write(net, name="net.json"):
        path = tmp_path / name
        path.write_text(serialize_network(net))
        return str(path)

    return write


Run = collections.namedtuple("Run", "exit_code stdout stderr")


def invoke(args) -> Run:
    """``main(args, standalone_mode=False)``: its exit code (0 when it returns),
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


def usage_error(args) -> str:
    """Assert that ``args`` is one JSON usage error with exit 2; return its detail."""
    code, out, err = invoke(args)
    assert (code, out) == (2, ""), args
    assert err.count("\n") == 1, err
    doc = json.loads(err)
    assert sorted(doc) == ["detail", "error"] and doc["error"] == "usage", doc
    return doc["detail"]


def test_validate_ok(net_file):
    result = invoke(["validate", net_file(make_resistor6())])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc == {"ok": True, "cells": 6, "types": ["a", "b"], "edges": 16,
                   "monoid_pairs": 4}


def test_validate_bad_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"types": ["t"], "cells": [], "monoids": [], "edges": []}')
    result = invoke(["validate", str(bad)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "schema"


def test_missing_file_exits_2():
    result = invoke(["validate", "/no/such/file.json"])
    assert result.exit_code == 2


def test_balanced_yes(net_file):
    result = invoke(["balanced", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"balanced": True, "partition": "1,2;3"}


def test_balanced_no_exits_1_with_counterexample(net_file):
    result = invoke(["balanced", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 1
    err = json.loads(result.stderr)
    assert err["error"] == "not_balanced"
    assert err["cells"] == ["2", "3"]


def test_cir_trace(net_file):
    result = invoke(["cir", "-p", "1,2,5;3,4;6", net_file(make_resistor6())])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["seed"] == "1,2,5;3,4;6"
    assert doc["converged"] == "1,2;3;4;5;6"
    assert doc["iterations"][-1]["partition"] == "1,2;3;4;5;6"
    assert [it["rank"] for it in doc["iterations"]] == [5, 5]


def test_cir_defaults_to_type_partition(net_file):
    result = invoke(["cir", net_file(make_resistor6())])
    doc = json.loads(result.stdout)
    assert doc["seed"] == "1,2,5,6;3,4"
    assert doc["converged"] == "1,2;3;4;5,6"


def test_top(net_file):
    result = invoke(["top", net_file(make_resistor6())])
    assert result.exit_code == 0
    assert result.stdout == "1,2;3;4;5,6\n"


def test_top_reads_a_file_after_double_dash(net_file):
    assert invoke(["top", "--", net_file(make_resistor6())]) == (0, "1,2;3;4;5,6\n", "")


def test_quotient_round_trips_through_every_command(net_file, tmp_path):
    result = invoke(["quotient", "-p", "1,2;3;4;5,6", net_file(make_resistor6())])
    assert result.exit_code == 0
    qnet = parse_network(result.stdout)
    direct = quotient(
        make_resistor6(), parse_partition("1,2;3;4;5,6", make_resistor6().cells)
    )
    assert qnet == direct

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
        assert invoke(args).exit_code == 0, args


def test_quotient_unbalanced_exits_1(net_file):
    result = invoke(["quotient", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "not_balanced"


def test_quotient_with_colliding_merged_ids_is_domain_error(tmp_path):
    net = Network.build(["a", "b", "a+b"], ["t"] * 3, ["t"],
                        MonoidRegistry.uniform(NaturalAdd(), 1), [])
    path = tmp_path / "net.json"
    path.write_text(serialize_network(net))
    for args in (["validate"], ["balanced", "-p", "a,b;a+b"]):
        assert invoke(args + [str(path)]).exit_code == 0, args
    result = invoke(["quotient", "-p", "a,b;a+b", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "domain"
    assert "'a+b'" in err["detail"] and "['a', 'b']" in err["detail"]


def test_lattice_json_and_dot(net_file):
    path = net_file(make_resistor6())
    result = invoke(["lattice", path])
    doc = json.loads(result.stdout)
    assert doc["elements"] == ["1,2;3;4;5,6", "1,2;3;4;5;6", "1;2;3;4;5;6"]
    assert doc["covers"] == [[1, 0], [2, 1]]
    assert doc["complete"] is True

    dot = invoke(["lattice", "--dot", path])
    assert dot.stdout.startswith("digraph lattice {")


def test_lattice_budget_exceeded(tmp_path):
    from synchro import MonoidRegistry, NaturalAdd, Network

    cells = [str(i) for i in range(1, 6)]
    edges = [(a, b, 1) for a in cells for b in cells if a != b]
    net = Network.build(cells, ["t"] * 5, ["t"],
                        MonoidRegistry.uniform(NaturalAdd(), 1), edges)
    path = tmp_path / "k5.json"
    path.write_text(serialize_network(net))
    result = invoke(["lattice", "--budget", "3", str(path)])
    assert result.exit_code == 1
    partial = json.loads(result.stdout)
    assert partial["complete"] is False
    err = json.loads(result.stderr)
    assert err["error"] == "budget_exceeded"
    # with stderr merged into a buffered stdout, the partial lattice comes first
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    merged = subprocess.run([sys.executable, "-m", "synchro", "lattice", "--budget", "3", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                            cwd=tmp_path, timeout=60)
    assert (merged.returncode, merged.stdout.decode()) == (1, result.stdout + result.stderr)


@pytest.mark.parametrize("budget", ["0", "-1", "abc", "1.5"])
def test_lattice_budget_below_one_is_a_usage_error(net_file, budget):
    detail = usage_error(["lattice", "--budget", budget, net_file(make_triangle3())])
    assert "--budget" in detail and repr(budget) in detail, detail


def test_simulate_map_csv(net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")  # defaults: no internal dynamics, raw count kappa
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0,3.0\n")
    result = invoke(
        ["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2",
         net_file(make_triangle3())],
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,1,2,3"
    assert lines[1].startswith("0,1.0,2.0,3.0")
    assert len(lines) == 4


def test_simulate_prints_each_signed_zero_as_given(net_file, tmp_path):
    # a and c feed b and d, so a,c;b,d is balanced; x0 is synchronized on it
    # with -0.0 and 0.0 in one class, and g = -x flips both zeros every step
    net = Network.build(list("abcd"), ["t"] * 4, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [("b", "a", 1), ("b", "c", 1), ("d", "a", 1), ("d", "c", 1)])
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({
        "g": [{"type": "t", "kind": "scale", "a": -1.0}],
        "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.5}],
    }))
    x0 = tmp_path / "x0.csv"
    x0.write_text("-0.0,1.5,0.0,1.5\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2",
                     net_file(net)])
    assert result.exit_code == 0
    assert result.stdout == (
        "n,a,b,c,d\n"
        "0,-0.0,1.5,0.0,1.5\n"
        "1,0.0,-1.5,-0.0,-1.5\n"
        "2,-0.0,1.5,0.0,1.5\n"
    )


def test_simulate_ode_runs(net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({
        "g": [{"type": "t", "kind": "scale", "a": -1.0}],
        "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.1}],
    }))
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(
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


@pytest.mark.parametrize("mode", [["--steps", "1"], ["--tend", "0.001"]])
def test_simulate_header_quotes_ids_that_csv_would_misread(net_file, tmp_path, mode):
    cells = ['"x', "a\nb", "p q"]
    net = Network.build(cells, ["t"] * 3, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [("a\nb", '"x', 1), ("p q", "a\nb", 1)])
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0,3.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0), *mode,
                     net_file(net)])
    assert result.exit_code == 0
    assert result.stdout.startswith(f'{"n" if mode[0] == "--steps" else "t"},"""x","a\nb",p q\n')
    rows = list(csv.reader(io.StringIO(result.stdout, newline="")))
    assert rows[0][1:] == cells
    assert len(rows) == 3 and all(len(row) == 4 for row in rows)


@pytest.mark.parametrize(
    "tend, dt, below, above",
    [("1.0", "0.3", "0.9", "1.2"), ("0.0015", "0.001", "0.001", "0.002"),
     ("0.0004", "0.001", "0", "0.001")],
)
def test_simulate_tend_off_the_dt_grid_is_a_domain_error(net_file, tmp_path,
                                                          tend, dt, below, above):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0),
                     "--tend", tend, "--dt", dt, net_file(make_triangle3())])
    assert result.exit_code == 1
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "domain"
    assert err["detail"] == (
        f"t_end {float(tend)!r} is not a whole number of steps of dt {float(dt)!r};"
        f" the nearest grid times are {below} and {above}"
    )


def _subprocess_env(**extra):
    """The environment of a ``python -m synchro`` child that imports this checkout."""
    src = str(Path(synchro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _ring_inputs(tmp_path, n):
    """A 3-offset NaturalAdd ring, a decaying linear oracle and x0 files."""
    cells = [f"c{i}" for i in range(n)]
    edges = [(cells[i], cells[(i + s) % n], 1) for i in range(n) for s in (-1, 1, 2)]
    net = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1), edges)
    (tmp_path / "ring.json").write_text(serialize_network(net))
    (tmp_path / "oracle.json").write_text(json.dumps({
        "g": [{"type": "t", "kind": "scale", "a": -1.0}],
        "kappa": [{"target_type": "t", "source_type": "t", "scale": 0.15}],
    }))
    (tmp_path / "x0.csv").write_text(",".join(repr(float(i % 7)) for i in range(n)) + "\n")
    return ["--oracle", str(tmp_path / "oracle.json"), "--x0", str(tmp_path / "x0.csv"),
            str(tmp_path / "ring.json")]


class _PeakFromFirstWrite(io.StringIO):
    """A stdout sink that keeps no output: it counts the lines, and at the
    first one it notes the traced memory and resets the tracemalloc peak."""

    lines = 0
    before = None

    def write(self, text):
        if self.before is None:
            self.before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self.lines += text.count("\n")
        return len(text)


def test_simulate_streams_rows_holding_little_more_than_the_orbit(tmp_path):
    n, rows = 5000, 201
    args = _ring_inputs(tmp_path, n)
    sink = _PeakFromFirstWrite()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            main(["simulate", "--tend", "0.2", *args], standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == rows + 1
    orbit = rows * n * 8  # 8.04 MB of float64 states
    # Measured (CPython 3.11, numpy 2.4): the orbit plus 8.5 MB, mostly the
    # parsed network, is held when the first line is written, and printing
    # adds 0.4 MB, about one formatted row. Printing the whole CSV as one
    # string from tuples of Python floats held 59 MB here.
    assert peak - sink.before < 1e6
    assert peak < orbit + 12e6


def test_simulate_into_a_reader_that_closes_early_exits_1_without_traceback(tmp_path):
    args = _ring_inputs(tmp_path, 300)  # 1001 rows, about 6 MB of CSV
    proc = subprocess.Popen(
        [sys.executable, "-m", "synchro", "simulate", "--tend", "1.0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(), cwd=tmp_path,
    )
    try:
        assert proc.stdout.readline().startswith(b"t,c0,c1,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
    assert err == b""


def test_ids_outside_ascii_print_as_utf8_on_an_ascii_stdout(net_file, tmp_path):
    net = Network.build(["é", "b"], ["t", "t"], ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [("é", "b", 1)])
    done = subprocess.run([sys.executable, "-m", "synchro", "top", net_file(net)],
                          env=_subprocess_env(PYTHONIOENCODING="ascii"), cwd=tmp_path,
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "é;b\n".encode(), b"")


@pytest.mark.parametrize("command", [["--help"], ["top"], ["simulate", "--steps", "2"]])
def test_output_into_a_closed_pipe_exits_1_without_a_message(tmp_path, command):
    inputs = _ring_inputs(tmp_path, 5)  # --oracle and --x0 with their files, then the network
    args = command + (inputs if command[0] == "simulate" else inputs[-1:])
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so a small output fails only at a flush
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "synchro", *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_simulate_tend_on_a_stacked_network_does_not_depend_on_blas_threads(tmp_path):
    from synchro.dynamics import _power_stack, _rk4_operator, parse_oracle

    # corpus network 8: 7 cells, a dense power stack of B = 32; the 3-offset
    # 45-cell ring is the largest stacked size, B = 1: one np.dot per step
    n = 45
    cells = [f"c{i}" for i in range(n)]
    ring = Network.build(cells, ["t"] * n, ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                         [(cells[i], cells[(i + s) % n], 1) for i in range(n) for s in (-1, 1, 2)])
    for net, depth in ((corpus.corpus_networks()[8], 32), (ring, 1)):
        oracle = '{"g": [{"type": "%s", "kind": "scale", "a": -1.0}]}' % net.type_names[0]
        stack = _power_stack(_rk4_operator(net, parse_oracle(oracle, net)), net.n, 1e-3)
        assert stack.shape == (depth * net.n, net.n)
        (tmp_path / "net.json").write_text(serialize_network(net))
        (tmp_path / "oracle.json").write_text(oracle)
        (tmp_path / "x0.csv").write_text(",".join(repr(0.5 + c / 3) for c in range(net.n)) + "\n")
        argv = [sys.executable, "-m", "synchro", "simulate", "--oracle", "oracle.json",
                "--x0", "x0.csv", "--tend", "1.0", "net.json"]
        outputs = [
            subprocess.run(argv, env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), cwd=tmp_path,
                           check=True, capture_output=True, timeout=120).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].count(b"\n") == 1002
        assert outputs[0] == outputs[1], net.n


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
        ["--steps", "1000000000000000"],
        ["--tend", "-inf"],
        ["--tend", "1", "--dt", "-inf"],
    ],
)
def test_simulate_bad_time_arguments_are_one_json_error(net_file, tmp_path, mode):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0)] + mode
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
        ([], "oracle file must hold a JSON object"),
        ({"g": [], "q": []}, "unknown oracle fields ['q']"),
        ({"h": {}}, "oracle field 'h' must be a list"),
    ],
)
def test_bad_oracle_entry_is_one_schema_error(net_file, tmp_path, oracle, where):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(path), "--x0", str(x0), "--steps", "1",
                     net_file(make_triangle3())])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema"
    assert err["detail"].startswith(where)


@pytest.mark.parametrize("text, detail", [
    ("\n \n", "holds no initial state"),
    ("1.0,x,2.0\n", "bad initial state"),
])
def test_unreadable_x0_is_one_schema_error(net_file, tmp_path, text, detail):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text(text)
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "1",
                     net_file(make_triangle3())])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "schema" and detail in err["detail"]


def test_simulate_that_diverges_names_the_step(net_file, tmp_path):
    # x -> 1e200 x + (inputs): finite after one step, infinite after two
    oracle = tmp_path / "oracle.json"
    oracle.write_text('{"g": [{"type": "t", "kind": "scale", "a": 1e200}]}')
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "5",
                     net_file(make_triangle3())])
    assert result.exit_code == 1
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert (err["error"], err["step"]) == ("diverged", 2)


@pytest.mark.parametrize("text", ["[" * 100000, '{"g": [{"type": "t", "a": 1' + "0" * 5000 + "}]}"])
def test_unloadable_oracle_json_is_schema_error(net_file, tmp_path, text):
    path = tmp_path / "oracle.json"
    path.write_text(text)
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(path), "--x0", str(x0), "--steps", "1",
                     net_file(make_triangle3())])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "schema"


def test_oracle_file_that_is_not_json_names_line_and_column(net_file, tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text('{\n  "g": [,]\n}\n')
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(path), "--x0", str(x0), "--steps", "1",
                     net_file(make_triangle3())])
    assert result.exit_code == 2
    assert json.loads(result.stderr) == {
        "error": "schema", "detail": "invalid JSON at line 2, column 9: Expecting value"}


def test_simulate_usage_errors(net_file, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0\n")  # wrong arity for a 3-cell network
    net = net_file(make_triangle3())
    both = ["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2", "--tend", "1.0",
            net]
    neither = ["simulate", "--oracle", str(oracle), "--x0", str(x0), net]
    for args in (both, neither):
        assert usage_error(args) == "pass exactly one of --steps (map) or --tend (flow)"
    bad_x0 = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0),
                     "--steps", "1", net])
    assert bad_x0.exit_code == 2
    assert json.loads(bad_x0.stderr)["error"] == "schema"


@pytest.mark.parametrize("dt", ["-1", "0.001"])
def test_simulate_dt_with_steps_is_a_usage_error(net_file, tmp_path, dt):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,1.0,2.0\n")
    args = ["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2", "--dt", dt,
            net_file(make_triangle3())]
    assert usage_error(args) == (
        "--dt sets the RK4 step of a flow; it cannot go with --steps")


@pytest.mark.parametrize("args, names", [
    (["--bogus"], ["--bogus"]),
    (["bogus"], ["bogus"]),
    (["validate", "--bogus", "net.json"], ["--bogus"]),
    (["top"], ["NETWORK_FILE"]),
    (["balanced", "net.json"], ["--partition"]),
    (["simulate", "--oracle", "o.json", "--x0", "x0.csv", "--steps", "x", "net.json"],
     ["--steps", "'x'"]),
    (["validate", "net.json", "extra.json"], ["extra.json"]),
    (["lattice", "net.json", "--budget"], ["--budget"]),
    # CPython 3.11 reports "unrecognized arguments: --"; versions that drop
    # the "--" report "missing command", so only the kind and code are checked
    (["--"], []),
])
def test_usage_errors_are_one_json_error(args, names):
    # Python versions word argparse's messages differently, but each names the
    # offending option, argument, command or value
    detail = usage_error(args)
    assert all(name in detail for name in names), detail


def test_help_goes_to_stdout_and_a_bare_command_to_stderr():
    help_ = invoke(["--help"])
    assert (help_.exit_code, help_.stderr) == (0, "")
    assert help_.stdout.startswith("usage: synchro ")
    listed = re.findall(r"^ {4}(\w+)", help_.stdout, flags=re.M)
    assert listed == ["validate", "balanced", "cir", "top", "quotient", "lattice", "simulate",
                      "witness", "dot"]
    result = invoke(["lattice", "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith("usage: synchro lattice ") and "--budget" in result.stdout
    assert invoke([]) == (2, "", help_.stdout)


def test_help_puts_each_command_and_its_help_on_one_line(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lines = {line.split()[0]: line for line in invoke(["--help"]).stdout.splitlines()
             if line.startswith("    ") and not line.startswith("     ")}
    assert list(lines) == list(_COMMANDS.choices)
    for name, parser in _COMMANDS.choices.items():
        text = lines[name][4 + len(name):].strip()
        assert text and " ".join(parser.description.split()).startswith(text), lines[name]


def test_domain_and_schema_errors_are_the_same_in_process(net_file, tmp_path):
    code, out, err = invoke(["balanced", "-p", "1;2,3", net_file(make_chain3())])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "not_balanced", "cells": ["2", "3"], "color": 1,
        "detail": "partition is not balanced: cells '2' and '3' share a color "
                  "but their weight sums differ on color 1",
    }
    code, out, err = invoke(["validate", str(tmp_path / "none.json")])
    assert (code, out, json.loads(err)["error"]) == (2, "", "schema")


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
@pytest.mark.parametrize("mode", [["--steps", "1"], ["--tend", "0.01"]])
def test_non_finite_initial_state_is_one_schema_error(net_file, tmp_path, value, mode):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text(f"1.0,{value},2.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0)] + mode
                    + [net_file(make_triangle3())])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema"
    assert err["detail"].startswith("initial state x0[1] (cell '2')")


def test_witness_json(net_file):
    result = invoke(["witness", "-p", "1;2,3", net_file(make_chain3())])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["outputs"]["2"] != doc["outputs"]["3"]
    assert doc["state"]["2"] == doc["state"]["3"]


def test_witness_balanced_exits_1(net_file):
    result = invoke(["witness", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "no_witness"


def test_dot_with_partition(net_file):
    result = invoke(["dot", "-p", "1,2;3", net_file(make_triangle3())])
    assert result.exit_code == 0
    assert result.stdout.startswith("digraph network {")


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_strings(text: str) -> set[str]:
    """The unescaped quoted strings of DOT text, after checking every one terminates."""
    found = set()
    for line in text.splitlines():
        assert '"' not in _DOT_STRING.sub("", line), line
        found.update(re.sub(r"\\(.)", r"\1", body) for body in _DOT_STRING.findall(line))
    return found


def test_dot_quotes_ids_holding_a_backslash_or_a_quote(net_file):
    cells = ['q"', "a\\"]
    net = Network.build(cells, ["t", "t"], ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [(cells[0], cells[1], 1), (cells[1], cells[0], 1)])
    path = net_file(net)
    assert set(cells) <= _dot_strings(invoke(["dot", path]).stdout)
    labels = json.loads(invoke(["lattice", path]).stdout)["elements"]
    assert labels == ['q",a\\', 'q";a\\']
    assert set(labels) <= _dot_strings(invoke(["lattice", "--dot", path]).stdout)


def test_ids_holding_an_escape_sequence_are_printed_verbatim(net_file):
    red = "a\x1b[31mred"
    net = Network.build([red, "b"], ["t", "t"], ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [(red, "b", 1)])
    path = net_file(net)
    top_ = invoke(["top", path])
    assert top_ == (0, f"{red};b\n", "")
    assert invoke(["balanced", "-p", top_.stdout.rstrip("\n"), path]).exit_code == 0
    assert red in _dot_strings(invoke(["dot", path]).stdout)
    assert f"{red};b" in _dot_strings(invoke(["lattice", "--dot", path]).stdout)


def test_option_values_may_start_with_a_dash(net_file):
    net = Network.build(["-x", "b"], ["t", "t"], ["t"], MonoidRegistry.uniform(NaturalAdd(), 1),
                        [("-x", "b", 1)])
    path = net_file(net)
    part = invoke(["top", path]).stdout.rstrip("\n")
    assert part == "-x;b"
    for args in (["balanced", "-p", part], ["quotient", "-p", part], ["cir", "-p", part],
                 ["dot", "-p", part], ["balanced", f"--partition={part}"],
                 ["balanced", f"-p{part}"]):
        result = invoke(args + [path])
        assert (result.exit_code, result.stderr) == (0, ""), args
        assert "-x" in result.stdout, args


def test_outputs_are_byte_deterministic(net_file):
    path = net_file(make_resistor6())
    for args in (["top", path], ["cir", path], ["lattice", path],
                 ["quotient", "-p", "1,2;3;4;5,6", path], ["dot", path]):
        first = invoke(args)
        second = invoke(args)
        assert first.stdout == second.stdout, args


def test_pretty_flag_indents(net_file):
    result = invoke(["validate", "--pretty", net_file(make_triangle3())])
    assert result.stdout.startswith("{\n")


# Documents that once crashed the parser with a TypeError (an unhashable
# value used as a dict key) or a KeyError; each must be one schema error.
_DOC = {
    "types": ["t"],
    "cells": [{"id": "a", "type": "t"}, {"id": "b", "type": "t"}],
    "monoids": [{"target_type": "t", "source_type": "t", "kind": "natural_add"}],
    "edges": [{"to": "a", "from": "b", "weight": {"n": 1}}],
}


def _schema_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = invoke(["validate", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "schema"
    return err["detail"]


def test_cell_id_that_partition_text_cannot_name_is_schema_error(tmp_path):
    doc = dict(_DOC, cells=[{"id": "a", "type": "t"}, {"id": "b", "type": "t"},
                            {"id": "a,b", "type": "t"}])
    assert "'a,b'" in _schema_error(tmp_path, doc)


def test_edge_to_list_is_schema_error(tmp_path):
    doc = dict(_DOC, edges=[{"to": ["a"], "from": "b", "weight": {"n": 1}}])
    assert "edges[0].to" in _schema_error(tmp_path, doc)


def test_edge_from_object_is_schema_error(tmp_path):
    doc = dict(_DOC, edges=[{"to": "a", "from": {"id": "b"}, "weight": {"n": 1}}])
    assert "edges[0].from" in _schema_error(tmp_path, doc)


def test_monoid_target_type_list_is_schema_error(tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": ["t"], "source_type": "t", "kind": "natural_add"}])
    assert "monoids[0].target_type" in _schema_error(tmp_path, doc)


def test_monoid_source_type_list_is_schema_error(tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": [], "kind": "natural_add"}])
    assert "monoids[0].source_type" in _schema_error(tmp_path, doc)


def test_monoid_kind_list_is_schema_error(tmp_path):
    doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": "t", "kind": ["natural_add"]}])
    detail = _schema_error(tmp_path, doc)
    assert "monoids[0]" in detail and "'kind'" in detail


def test_cell_of_undeclared_type_with_edges_is_schema_error(tmp_path):
    doc = dict(_DOC, cells=[{"id": "a", "type": "t"}, {"id": "b", "type": "zz"}])
    assert "cells[1]: unknown type 'zz'" in _schema_error(tmp_path, doc)


def test_unloadable_json_is_schema_error(tmp_path):
    for text in ("[" * 100_000, '{"n": 1' + "0" * 5000 + "}"):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == "schema"


def test_monoid_spec_with_a_foreign_key_is_schema_error(tmp_path):
    for spec in ({"kind": "free_commutative", "generator": ["x"]},
                 {"kind": "natural_add", "bogus": 1}):
        doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": "t", **spec}])
        assert _schema_error(tmp_path, doc).startswith("monoids[0]: unexpected key(s)")


def test_annihilator_weight_with_extra_keys_is_schema_error(tmp_path):
    doc = dict(
        _DOC,
        monoids=[{"target_type": "t", "source_type": "t", "kind": "with_annihilator",
                  "inner": {"kind": "natural_add"}}],
        edges=[{"to": "a", "from": "b", "weight": {"annihilator": True, "n": 5}}],
    )
    assert _schema_error(tmp_path, doc).startswith("edges[0].weight:")


def _nested(kind, depth):
    """A network document whose one monoid is ``kind`` nested ``depth`` levels
    around natural_add, with one edge."""
    spec, weight, path = {"kind": "natural_add"}, {"n": 1}, "monoids[0]"
    for _ in range(depth):
        if kind == "product":
            spec, weight = {"kind": kind, "parts": [spec]}, {"tuple": [weight]}
            path += ".parts[0]"
        else:
            spec = {"kind": kind, "inner": spec}
            path += ".inner"
    doc = dict(_DOC, monoids=[{"target_type": "t", "source_type": "t", **spec}],
               edges=[{"to": "a", "from": "b", "weight": weight}])
    return doc, path


@pytest.mark.parametrize("kind", ["product", "with_annihilator"])
def test_spec_nesting_limit(tmp_path, kind):
    path = tmp_path / "net.json"
    doc, _ = _nested(kind, MAX_SPEC_DEPTH)
    path.write_text(json.dumps(doc))
    for args in (["validate"], ["quotient", "-p", "a;b"], ["dot"]):
        assert invoke(args + [str(path)]).exit_code == 0, args
    doc, where = _nested(kind, MAX_SPEC_DEPTH + 1)
    path.write_text(json.dumps(doc))
    for args in (["validate"], ["quotient", "-p", "a;b"], ["dot"]):
        result = invoke(args + [str(path)])
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert json.loads(result.stderr) == {
            "error": "schema",
            "detail": f"{where}: monoid spec nested more than {MAX_SPEC_DEPTH} levels deep",
        }


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
def test_weight_too_long_to_print_is_domain_error(tmp_path, args):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE))
    assert invoke(["validate", str(path)]).exit_code == 0
    result = invoke(args + [str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "domain"


# A NaturalAdd weight of 10**400 is a valid exact weight, but the natural
# kappa cannot turn it into a float; simulation must end in one domain error.
_BEYOND_FLOAT = dict(_DOC, edges=[{"to": "a", "from": "b", "weight": {"n": 10**400}}])


@pytest.mark.parametrize("mode", [["--steps", "1"], ["--tend", "0.01"]])
def test_weight_beyond_float_range_is_domain_error(tmp_path, mode):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_BEYOND_FLOAT))
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,2.0\n")
    result = invoke(["simulate", "--oracle", str(oracle), "--x0", str(x0)] + mode
                    + [str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "domain"


# Runs each argv through cli.main in one fresh interpreter and records, after
# the import and after every command, its exit code and which of numpy and
# the dynamics layer have been loaded.
_COLD_START = """
import json, sys
import synchro.cli

def loaded():
    return [name for name in ("numpy", "synchro.dynamics") if name in sys.modules]

seen = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    try:
        synchro.cli.main(argv, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    seen.append([argv[0], code, loaded()])
with open(sys.argv[2], "w") as handle:
    json.dump(seen, handle)
"""


def test_only_simulation_loads_numpy_and_the_dynamics_layer(tmp_path):
    net = corpus.corpus_networks()[2]
    path = tmp_path / "net.json"
    path.write_text(serialize_network(net))
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{}")
    x0 = tmp_path / "x0.csv"
    x0.write_text(",".join(["1.0"] * net.n) + "\n")
    part = format_partition(top(net), net.cells)
    net_file = str(path)
    runs = [
        ["validate", net_file],
        ["top", net_file],
        ["cir", net_file],
        ["balanced", "-p", part, net_file],
        ["quotient", "-p", part, net_file],
        ["lattice", net_file],
        ["dot", "-p", part, net_file],
        ["simulate", "--oracle", str(oracle), "--x0", str(x0), "--steps", "2", net_file],
    ]
    out = tmp_path / "seen.json"
    subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(runs), str(out)],
                   env=_subprocess_env(), cwd=tmp_path, check=True, capture_output=True,
                   timeout=120)
    seen = json.loads(out.read_text())
    assert [(name, code) for name, code, _ in seen] == [
        ("import", 0), *((argv[0], 0) for argv in runs)
    ]
    assert [(name, mods) for name, _, mods in seen[:-1]] == [
        (name, []) for name, _, _ in seen[:-1]
    ]
    assert seen[-1][2] == ["numpy", "synchro.dynamics"]


_DYNAMICS_EXPORTS = (
    "Coupling", "GFunc", "IndicatorOracle", "Oracle", "OracleSpec", "Trajectory",
    "admissible_eval", "coupling_oracle", "linear_oracle", "quotient_match", "simulate_map",
    "simulate_ode", "trajectory_csv", "unbalance_witness",
)


# The public surface, pinned: a name joins or leaves it only through an edit here.
_PUBLIC_NAMES = [
    "ANNIHILATOR", "BalanceResult", "BalancedLattice", "CirTrace", "Coupling",
    "DimensionMismatch", "FreeCommutative", "GFunc", "IndicatorOracle", "MonoidMismatch",
    "MonoidRegistry", "MonoidSpec", "NaturalAdd", "NaturalMul", "Network",
    "NotBalancedError", "Oracle", "OracleSpec", "Partition", "PartitionError", "PolyPoint",
    "ProductMonoid", "ResistorParallel", "SHORT",
    "SchemaError", "SimulationDiverged", "SizeLimitError", "SynchroError", "Trajectory",
    "WithAnnihilator", "WitnessError", "admissible_eval", "balance", "cir", "cir_iteration",
    "coding", "common_refinement", "compose", "coupling_oracle", "dynamics",
    "enumerate_balanced", "errors", "format_partition", "is_balanced", "is_finer", "join",
    "kernel_name", "lattice", "lattice_dot", "lattice_json", "lift", "linear_oracle",
    "meet", "monoid", "network", "network_from_json", "network_to_json", "parse_network",
    "parse_partition", "partition", "project", "quotient", "quotient_match",
    "quotient_partition", "row_signature", "serialize_network", "simulate_map",
    "simulate_ode", "to_dot", "top", "trajectory_csv", "unbalance_witness",
]


def test_public_names_are_pinned():
    assert len(_PUBLIC_NAMES) == 72
    assert sorted(synchro.__all__) == _PUBLIC_NAMES


# The reference checkers and the weight and oracle fixtures they draw on live in
# tests/checks.py; the package defines none of them.
_CHECKER_NAMES = {
    "law_check", "LawViolation", "LawCheckReport", "oracle_consistency_check",
    "ConsistencyViolation", "ConsistencyReport", "_close", "linearity_check",
    "LinearityReport", "LINEARITY_TOLERANCE", "check_transitivity", "TransitivityReport",
    "brute_force_balanced", "_set_partitions", "BRUTE_FORCE_LIMIT", "all_candidates",
    "quotient_relation_holds", "SumOracle", "ScaledOracle", "ref_sums", "ref_counterexample",
}


def test_no_synchro_module_defines_a_checker():
    names = [m.name for m in pkgutil.iter_modules(synchro.__path__) if m.name != "__main__"]
    assert "dynamics" in names and "lattice" in names
    for name in names:
        module = importlib.import_module(f"synchro.{name}")
        assert _CHECKER_NAMES.isdisjoint(vars(module)), name
    assert not hasattr(synchro.dynamics.OracleSpec, "weight_pairs")
    specs = [v for v in vars(synchro.monoid).values() if isinstance(v, type)]
    assert synchro.monoid.MonoidSpec in specs
    assert [c.__name__ for c in specs if "sample" in vars(c)] == []
    assert {"__add__", "__mul__", "__rmul__"}.isdisjoint(vars(synchro.dynamics.Oracle))


def test_dynamics_exports_resolve_on_first_access():
    from synchro import dynamics

    assert synchro.dynamics is dynamics
    listed = dir(synchro)
    for name in _DYNAMICS_EXPORTS:
        assert getattr(synchro, name) is getattr(dynamics, name)
        assert name in listed and name in synchro.__all__
    assert "dynamics" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        synchro.no_such_name
