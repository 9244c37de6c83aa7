"""Command-line front end for file-based workflows.

All analysis output is JSON on stdout (pass --pretty for an indented,
human-friendly form). Every error is one JSON object ``{"error": kind,
"detail": message, ...}`` on stderr, written by ``_fail``, which exits
with the kind's code. ``main`` runs parsing and the command through
``_reported``, which turns each ``SynchroError`` and bad command line
into such an object:

* 1: ``not_balanced`` (plus ``cells`` and ``color``), ``no_witness``,
  ``diverged`` (plus ``step``), ``budget_exceeded`` (plus ``budget``) and
  ``domain``;
* 2: ``schema`` (unreadable or malformed input) and ``usage`` (argparse's
  message for a bad option, argument or command, and the option clashes
  of ``simulate``).

``--help`` prints the help to stdout and exits 0; a bare ``synchro``
prints it to stderr and exits 2. A reader that closes stdout early ends
the run with exit 1 and nothing on stderr. Errors are the same under
``main(argv, standalone_mode=False)``: the exit code is then the
``SystemExit`` that ``main`` raises.

Only ``simulate`` and ``witness`` import the dynamics layer, and with it
numpy, inside their bodies; every other command starts without them.
"""
from __future__ import annotations

import argparse
import codecs
import io
import math
import sys

from .balance import _require_balanced, quotient
from .cir import cir, top
from .errors import (
    NotBalancedError,
    SchemaError,
    SimulationDiverged,
    SynchroError,
    WitnessError,
)
from .lattice import DEFAULT_BUDGET, enumerate_balanced, lattice_dot, lattice_to_json
from .network import _write_json, parse_network, serialize_network, to_dot
from .partition import format_partition, parse_partition

_DEFAULT_DT = 1e-3  # the RK4 step of simulate --tend


class _UsageError(Exception):
    """A bad command line: reported as a ``usage`` error, exit 2."""


def _fail(kind: str, detail: str, extra: dict | None = None, code: int = 1):
    payload = {"error": kind, "detail": detail}
    if extra:
        payload.update(extra)
    sys.stdout.flush()  # a partial result comes before the error in a merged stream
    sys.stderr.write(_write_json(payload) + "\n")
    sys.exit(code)


def _reported(call, *args):
    """``call(*args)``, with every failure written by ``_fail``."""
    try:
        return call(*args)
    except _UsageError as exc:
        _fail("usage", str(exc), code=2)
    except NotBalancedError as exc:
        c, d, k = exc.counterexample
        _fail("not_balanced", str(exc), {"cells": [c, d], "color": k})
    except WitnessError as exc:
        _fail("no_witness", str(exc))
    except SimulationDiverged as exc:
        _fail("diverged", str(exc), {"step": exc.step})
    except SchemaError as exc:
        _fail("schema", str(exc), code=2)
    except SynchroError as exc:
        _fail("domain", str(exc))


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors for ``_reported`` to write."""

    def error(self, message):
        raise _UsageError(message)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout, with a help column wide enough for the command
    names: argparse measures them without the indent it prints them at, so
    names of eight letters went on lines of their own."""

    def add_argument(self, action):
        super().add_argument(action)
        for subaction in self._iter_indented_subactions(action):
            self._action_max_length = max(
                self._action_max_length,
                len(self._format_action_invocation(subaction)) + self._current_indent,
            )


def _parser(**settings) -> _Parser:
    parser = _Parser(add_help=False, allow_abbrev=False, formatter_class=_HelpFormatter,
                     **settings)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


_PARSER = _parser(prog="synchro",
                  description="Analyze synchrony structure of weighted multi-edge cell networks.")
_COMMANDS = _PARSER.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                   parser_class=_parser)
# per command, each option string that takes a value, mapped to its long form
_VALUED: dict[str, dict[str, str]] = {}


def _option(*flags, **settings):
    return flags, settings


def _command(name: str, *options):
    """Register the decorated function as command ``name``, its docstring the
    help: it takes ``options`` (each from ``_option``) and then NETWORK_FILE,
    and is called with them by keyword."""

    def register(run):
        parser = _COMMANDS.add_parser(name, help=run.__doc__, description=run.__doc__)
        valued = _VALUED[name] = {}
        for flags, settings in options:
            parser.add_argument(*flags, **settings)
            if "action" not in settings:
                valued.update(dict.fromkeys(flags, flags[-1]))
        parser.add_argument("network_file", metavar="NETWORK_FILE")
        parser.set_defaults(run=run)
        return run

    return register


def _glued(args: list[str]) -> list[str]:
    """``args`` with each value-taking option of the command joined to its
    value: ``-p VALUE`` and ``-pVALUE`` become ``--partition=VALUE``. A value
    that starts with ``-`` (a cell id ``-x``, a time ``-inf``) is then never
    read as an option."""
    valued = _VALUED.get(args[0], {})
    glued, rest = args[:1], iter(args[1:])
    for token in rest:
        if token == "--":
            return [*glued, token, *rest]
        if token in valued:
            value = next(rest, None)
            if value is not None:
                token = f"{valued[token]}={value}"
        elif token[:2] in valued:
            token = f"{valued[token[:2]]}={token[2:]}"
        glued.append(token)
    return glued


def _run(args: list[str]):
    options = vars(_PARSER.parse_args(_glued(args)))
    if options.pop("command") is None:  # "synchro --", where argparse drops the "--"
        raise _UsageError("missing command")
    options.pop("run")(**options)


class _Pacified:
    """``stream``, but flushing it ignores a closed pipe, so the interpreter
    exits without reporting the output it could not write."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def flush(self):
        try:
            self._stream.flush()
        except BrokenPipeError:
            pass


def main(args=None, standalone_mode: bool = True):
    """Run one command line, ``sys.argv[1:]`` by default.

    A failure raises ``SystemExit`` with its exit code after writing its
    JSON error; a reader that closed stdout early gives exit 1 and no
    error. A successful command raises ``SystemExit(0)`` in
    ``standalone_mode`` and returns without it.
    """
    args = sys.argv[1:] if args is None else list(args)
    if not args:
        _PARSER.print_help(sys.stderr)
        sys.exit(2)
    # stdout set up as ASCII (PYTHONIOENCODING=ascii, or a C locale with UTF-8
    # mode off) writes UTF-8, so a cell id outside ASCII prints instead of raising
    stdout = sys.stdout
    if isinstance(stdout, io.TextIOWrapper) and codecs.lookup(stdout.encoding).name == "ascii":
        stdout.reconfigure(encoding="utf-8")
    try:
        try:
            _reported(_run, args)
        finally:  # the help and every output reach a closed pipe here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = _Pacified(sys.stdout)
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_network(_read(path))


def _write(text: str, newline: bool = True):
    """Write ``text`` to stdout, and a newline after it when ``newline``."""
    sys.stdout.write(text)
    if newline:
        sys.stdout.write("\n")


def _emit(obj, pretty: bool):
    _write(_write_json(obj, pretty), newline=not pretty)


_PRETTY = _option("--pretty", action="store_true", help="Indent JSON output.")


_PARTITION = _option("-p", "--partition", dest="partition_text", required=True,
                     help='Partition as cell-id classes, e.g. "1,2;3;4".')


def _budget(text: str) -> int:
    """``--budget``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return value


@_command("validate", _PRETTY)
def validate(network_file, pretty):
    """Check a network file against the schema and typing rules."""
    net = _load(network_file)
    _emit(
        {
            "ok": True,
            "cells": net.n,
            "types": list(net.type_names),
            "edges": net.edge_count(),
            "monoid_pairs": len(net.registry.pairs()),
        },
        pretty,
    )


@_command("balanced", _PARTITION, _PRETTY)
def balanced(partition_text, network_file, pretty):
    """Decide whether a partition is balanced; unbalanced exits 1."""
    net = _load(network_file)
    part = parse_partition(partition_text, net.cells)
    _require_balanced(net, part)
    _emit({"balanced": True, "partition": format_partition(part, net.cells)}, pretty)


@_command(
    "cir",
    _option("-p", "--partition", dest="partition_text",
            help="Seed partition; defaults to the type partition."),
    _PRETTY,
)
def cir_command(partition_text, network_file, pretty):
    """Refine a seed partition to the coarsest balanced one below it."""
    net = _load(network_file)
    if partition_text is None:
        seed = net.type_partition()
    else:
        seed = parse_partition(partition_text, net.cells)
    trace = cir(net, seed)
    _emit(
        {
            "seed": format_partition(seed, net.cells),
            "iterations": [
                {"partition": format_partition(p, net.cells), "rank": r}
                for p, r in trace.iterations
            ],
            "converged": format_partition(trace.converged, net.cells),
            "ops": list(trace.ops),
        },
        pretty,
    )


@_command("top")
def top_command(network_file):
    """Print the maximal balanced partition."""
    net = _load(network_file)
    _write(format_partition(top(net), net.cells))


@_command("quotient", _PARTITION, _PRETTY)
def quotient_command(partition_text, network_file, pretty):
    """Write the quotient network over a balanced partition (valid input JSON)."""
    net = _load(network_file)
    part = parse_partition(partition_text, net.cells)
    _write(serialize_network(quotient(net, part), pretty=pretty), newline=not pretty)


@_command(
    "lattice",
    _option("--budget", type=_budget, default=DEFAULT_BUDGET,
            help="Abort after finding more than this many distinct balanced partitions. "
                 "Splits that are screened out, abandoned or only find known partitions "
                 "do not count, so this does not bound the run time. (default: %(default)s)"),
    _option("--dot", dest="as_dot", action="store_true",
            help="Emit a Hasse diagram instead of JSON."),
    _PRETTY,
)
def lattice_command(budget, as_dot, network_file, pretty):
    """Enumerate every balanced partition and the refinement covers."""
    net = _load(network_file)
    lat = enumerate_balanced(net, budget=budget)
    if as_dot:
        _write(lattice_dot(lat, net.cells), newline=False)
    else:
        _emit(lattice_to_json(lat, net.cells), pretty)
    if not lat.complete:
        _fail(
            "budget_exceeded",
            f"stopped after finding {len(lat.elements)} balanced partitions",
            {"budget": budget},
        )


@_command(
    "simulate",
    _option("--oracle", dest="oracle_file", required=True, help="Oracle description JSON."),
    _option("--x0", dest="x0_file", required=True, help="CSV with one row of initial values."),
    _option("--steps", type=int, help="Iterate the map this many steps."),
    _option("--tend", type=float, help="Integrate the flow to this time."),
    _option("--dt", type=float, help=f"RK4 step size (flow only). (default: {_DEFAULT_DT})"),
)
def simulate_command(oracle_file, x0_file, steps, tend, dt, network_file):
    """Simulate admissible dynamics; trajectory goes to stdout as CSV."""
    from .dynamics import parse_oracle, simulate_map, simulate_ode, trajectory_csv

    if (steps is None) == (tend is None):
        raise _UsageError("pass exactly one of --steps (map) or --tend (flow)")
    if steps is not None and dt is not None:
        raise _UsageError("--dt sets the RK4 step of a flow; it cannot go with --steps")
    net = _load(network_file)
    oracle = parse_oracle(_read(oracle_file), net)
    raw = [line for line in _read(x0_file).splitlines() if line.strip()]
    if not raw:
        raise SchemaError(f"{x0_file} holds no initial state")
    try:
        x0 = [float(v) for v in raw[0].split(",")]
    except ValueError as exc:
        raise SchemaError(f"bad initial state: {exc}") from None
    if len(x0) != net.n:
        raise SchemaError(f"initial state has {len(x0)} values, network has {net.n} cells")
    for pos, value in enumerate(x0):
        if not math.isfinite(value):
            raise SchemaError(
                f"initial state x0[{pos}] (cell {net.cells[pos]!r}) must be finite, got {value!r}"
            )
    if steps is not None:
        traj = simulate_map(net, oracle, x0, steps)
    else:
        traj = simulate_ode(net, oracle, x0, tend, _DEFAULT_DT if dt is None else dt)
    sys.stdout.writelines(trajectory_csv(traj, net.cells))


@_command("witness", _PARTITION, _PRETTY)
def witness_command(partition_text, network_file, pretty):
    """Construct a desynchronizing oracle for an unbalanced partition."""
    from .dynamics import admissible_eval, unbalance_witness

    net = _load(network_file)
    part = parse_partition(partition_text, net.cells)
    oracle, state = unbalance_witness(net, part)
    outputs = admissible_eval(net, oracle, state)
    _emit(
        {
            "partition": format_partition(part, net.cells),
            "target_state": oracle.target_state,
            "target_weight_sum": oracle.spec.display(oracle.target_sum),
            "state": {cell: v for cell, v in zip(net.cells, state)},
            "outputs": {cell: v for cell, v in zip(net.cells, outputs)},
        },
        pretty,
    )


@_command("dot", _option("-p", "--partition", dest="partition_text",
                         help="Color the nodes by this partition."))
def dot_command(partition_text, network_file):
    """Emit the network as a GraphViz digraph."""
    net = _load(network_file)
    coloring = None
    if partition_text is not None:
        coloring = parse_partition(partition_text, net.cells)
    _write(to_dot(net, coloring), newline=False)


if __name__ == "__main__":
    main()
