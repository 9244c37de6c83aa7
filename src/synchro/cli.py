"""Command-line front end for file-based workflows.

All analysis output is JSON on stdout (pass --pretty for an indented,
human-friendly form). Every error is one JSON object ``{"error": kind,
"detail": message, ...}`` on stderr, written by ``_fail``, which exits
with the kind's code. One handler on the command group turns each
``SynchroError`` and click ``UsageError`` raised while parsing arguments
or running a command into such an object:

* 1: ``not_balanced`` (plus ``cells`` and ``color``), ``no_witness``,
  ``diverged`` (plus ``step``), ``budget_exceeded`` (plus ``budget``) and
  ``domain``;
* 2: ``schema`` (unreadable or malformed input) and ``usage`` (click's
  message for a bad option, argument or command, and the option clashes
  of ``simulate``).

``--help`` and a bare ``synchro`` print click's help, and a reader that
closes stdout early ends the run with exit 1 and nothing on stderr. Errors
are the same under ``main(argv, standalone_mode=False)``: the exit code is
then the ``SystemExit`` that ``main`` raises.

Only ``simulate`` and ``witness`` import the dynamics layer, and with it
numpy, inside their bodies; every other command starts without them.
"""
from __future__ import annotations

import math
import sys

import click
from click.core import ParameterSource

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


def _fail(kind: str, detail: str, extra: dict | None = None, code: int = 1):
    payload = {"error": kind, "detail": detail}
    if extra:
        payload.update(extra)
    click.echo(_write_json(payload), err=True)
    sys.exit(code)


def _reported(call, *args):
    """``call(*args)``, with every failure written by ``_fail``."""
    try:
        return call(*args)
    except click.UsageError as exc:
        _fail("usage", exc.format_message(), code=2)
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


class _Synchro(click.Group):
    """The command group and the CLI's one error boundary.

    Parsing the group's own arguments, and invoking a command (parsing its
    arguments and running its body), both go through ``_reported``. A bare
    ``synchro`` is left to click, whose versions differ in how they show
    the help.
    """

    def parse_args(self, ctx, args):
        if not args:
            return super().parse_args(ctx, args)
        return _reported(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _reported(super().invoke, ctx)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_network(_read(path))


def _emit(obj, pretty: bool):
    click.echo(_write_json(obj, pretty), nl=not pretty)


_pretty = click.option("--pretty", is_flag=True, help="Indent JSON output.")
_partition_opt = click.option(
    "-p", "--partition", "partition_text", required=True,
    help='Partition as cell-id classes, e.g. "1,2;3;4".',
)


@click.group(cls=_Synchro)
def main():
    """Analyze synchrony structure of weighted multi-edge cell networks."""


@main.command()
@click.argument("network_file")
@_pretty
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


@main.command()
@_partition_opt
@click.argument("network_file")
@_pretty
def balanced(partition_text, network_file, pretty):
    """Decide whether a partition is balanced; unbalanced exits 1."""
    net = _load(network_file)
    part = parse_partition(partition_text, net.cells)
    _require_balanced(net, part)
    _emit({"balanced": True, "partition": format_partition(part, net.cells)}, pretty)


@main.command(name="cir")
@click.option("-p", "--partition", "partition_text", default=None,
              help="Seed partition; defaults to the type partition.")
@click.argument("network_file")
@_pretty
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


@main.command(name="top")
@click.argument("network_file")
def top_command(network_file):
    """Print the maximal balanced partition."""
    net = _load(network_file)
    click.echo(format_partition(top(net), net.cells))


@main.command(name="quotient")
@_partition_opt
@click.argument("network_file")
@_pretty
def quotient_command(partition_text, network_file, pretty):
    """Write the quotient network over a balanced partition (valid input JSON)."""
    net = _load(network_file)
    part = parse_partition(partition_text, net.cells)
    click.echo(serialize_network(quotient(net, part), pretty=pretty), nl=not pretty)


@main.command(name="lattice")
@click.option("--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET, show_default=True,
              help="Abort after finding more than this many distinct balanced partitions. "
                   "Splits that are screened out, abandoned or only find known partitions "
                   "do not count, so this does not bound the run time.")
@click.option("--dot", "as_dot", is_flag=True, help="Emit a Hasse diagram instead of JSON.")
@click.argument("network_file")
@_pretty
def lattice_command(budget, as_dot, network_file, pretty):
    """Enumerate every balanced partition and the refinement covers."""
    net = _load(network_file)
    lat = enumerate_balanced(net, budget=budget)
    if as_dot:
        click.echo(lattice_dot(lat, net.cells), nl=False)
    else:
        _emit(lattice_to_json(lat, net.cells), pretty)
    if not lat.complete:
        _fail(
            "budget_exceeded",
            f"stopped after finding {len(lat.elements)} balanced partitions",
            {"budget": budget},
        )


@main.command(name="simulate")
@click.option("--oracle", "oracle_file", required=True, help="Oracle description JSON.")
@click.option("--x0", "x0_file", required=True, help="CSV with one row of initial values.")
@click.option("--steps", type=int, default=None, help="Iterate the map this many steps.")
@click.option("--tend", type=float, default=None, help="Integrate the flow to this time.")
@click.option("--dt", type=float, default=1e-3, show_default=True,
              help="RK4 step size (flow only).")
@click.argument("network_file")
def simulate_command(oracle_file, x0_file, steps, tend, dt, network_file):
    """Simulate admissible dynamics; trajectory goes to stdout as CSV."""
    from .dynamics import parse_oracle, simulate_map, simulate_ode, trajectory_csv

    if (steps is None) == (tend is None):
        raise click.UsageError("pass exactly one of --steps (map) or --tend (flow)")
    dt_source = click.get_current_context().get_parameter_source("dt")
    if steps is not None and dt_source is not ParameterSource.DEFAULT:
        raise click.UsageError("--dt sets the RK4 step of a flow; it cannot go with --steps")
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
        traj = simulate_ode(net, oracle, x0, tend, dt)
    sys.stdout.writelines(trajectory_csv(traj, net.cells))


@main.command(name="witness")
@_partition_opt
@click.argument("network_file")
@_pretty
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


@main.command(name="dot")
@click.option("-p", "--partition", "partition_text", default=None,
              help="Color the nodes by this partition.")
@click.argument("network_file")
def dot_command(partition_text, network_file):
    """Emit the network as a GraphViz digraph."""
    net = _load(network_file)
    coloring = None
    if partition_text is not None:
        coloring = parse_partition(partition_text, net.cells)
    click.echo(to_dot(net, coloring), nl=False)


if __name__ == "__main__":
    main()
