"""Networks of typed cells with a monoid-valued in-adjacency matrix.

A network is immutable once built: cells (string ids), a type per cell,
a monoid registry per ordered type pair, and for every ordered cell pair
(target, source) the parallel sum of all edges from source into target.
Absent pairs mean the identity ("no edge"); only non-identity entries are
stored, so iteration over in-neighborhoods is proportional to the number
of edges.

The merged sums are stored once, as interned integer codes
(``coding.CodedNetwork``): per row, the ascending source indices and the
weight codes. Refinement, balance and quotients read the codes directly;
the value-level queries below decode them.

Both constructors, ``Network.build`` and ``network_from_json``, check the
cell table in ``_cell_index``. Every JSON document the package reads or
writes goes through ``_read_json`` and ``_write_json``, every type-keyed
section (a network's ``monoids``, an oracle file's sections) through
``_typed_entries``, and both DOT writers quote through ``_quote``.
"""
from __future__ import annotations

import gc
import json
import marshal
from collections import Counter

from .coding import CodedNetwork
from .errors import MonoidMismatch, PartitionError, SchemaError
from .monoid import MonoidRegistry, MonoidSpec, spec_from_json
from .partition import Partition


def _cell_index(cells, cell_types, type_names) -> tuple[dict[str, int], list[int]]:
    """Check a cell table; return each cell id's position and each cell's type index.

    Type names are strings, nonempty and unique. Each cell has one declared
    type and a string id that partition text can name: nonempty, holding
    no ``,`` or ``;`` and with no leading or trailing whitespace. Ids are
    unique. A fault in one cell's entry is reported as ``cells[i]``.
    """
    if not all(isinstance(t, str) for t in type_names):
        raise SchemaError("'types' must be a list of strings")
    if not type_names:
        raise SchemaError("'types' must not be empty")
    if len(cell_types) != len(cells):
        raise SchemaError("need exactly one type per cell")
    name_to_idx = {name: i for i, name in enumerate(type_names)}
    type_idx = []
    for pos, (cell, tname) in enumerate(zip(cells, cell_types)):
        if not isinstance(cell, str) or not isinstance(tname, str):
            raise SchemaError(f"cells[{pos}]: id and type must be strings")
        if tname not in name_to_idx:
            raise SchemaError(f"cells[{pos}]: unknown type {tname!r}")
        type_idx.append(name_to_idx[tname])
    if not cells:
        raise SchemaError("network must have >=1 cell")
    for cell in cells:
        if not cell or cell.strip() != cell or "," in cell or ";" in cell:
            raise SchemaError(
                f"cell id {cell!r} cannot be named in partition text: ids must be"
                " nonempty, hold no ',' or ';' and have no leading or trailing whitespace"
            )
    index = {cell: i for i, cell in enumerate(cells)}
    if len(index) != len(cells):
        dupes = sorted(c for c, k in Counter(cells).items() if k > 1)
        raise SchemaError(f"duplicate cell ids: {dupes}")
    if "" in name_to_idx:
        raise SchemaError("type names must be nonempty")
    if len(name_to_idx) != len(type_names):
        dupes = sorted(t for t, k in Counter(type_names).items() if k > 1)
        raise SchemaError(f"duplicate type names: {dupes}")
    return index, type_idx


def _typed_entries(entries, section: str, type_names, fields):
    """Yield ``(where, key, entry)`` for each entry of a type-keyed section.

    ``where`` is ``section[i]`` and ``key`` the tuple of type indices that
    the entry's ``fields`` name. Each entry must be an object whose fields
    name declared types, and no key may appear twice; a fault is a
    ``SchemaError`` that starts with ``where``.
    """
    name_to_idx = {name: i for i, name in enumerate(type_names)}
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"{section}[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        names = [entry.get(field) for field in fields]
        for field, name in zip(fields, names):
            if not isinstance(name, str) or name not in name_to_idx:
                raise SchemaError(f"{where}.{field} must name a type, got {name!r}")
        key = tuple(name_to_idx[name] for name in names)
        if key in seen:
            what = f"type {names[0]!r}" if len(key) == 1 else f"pair ({names[0]!r}, {names[1]!r})"
            raise SchemaError(f"{where}: duplicate entry for {what}")
        seen.add(key)
        yield where, key, entry


def _accept(view: CodedNetwork, spec: MonoidSpec, weight, source, target) -> int:
    """The code of an edge weight, after checking that it is in ``spec``'s carrier."""
    if not spec.contains(weight):
        raise MonoidMismatch(
            f"edge {source!r} -> {target!r}: weight {weight!r} is not in {spec.describe()}"
        )
    return view.code(spec, weight)


class Network:
    """Immutable weighted multi-edge network over a family of monoids."""

    __slots__ = ("cells", "type_names", "cell_types", "registry", "_index", "_coded")

    def __init__(self, cells, type_names, cell_types, registry, view: CodedNetwork, index):
        self.cells: tuple[str, ...] = tuple(cells)
        self.type_names: tuple[str, ...] = tuple(type_names)
        self.cell_types: tuple[int, ...] = tuple(cell_types)  # 0-based indices
        self.registry: MonoidRegistry = registry
        self._index: dict[str, int] = index  # cell id -> position, from _cell_index
        self._coded = view

    @classmethod
    def build(cls, cells, cell_types, type_names, registry: MonoidRegistry, edges) -> "Network":
        """Construct a network from an edge list.

        ``edges`` holds (target id, source id, weight) triples; repeated
        (target, source) pairs merge by the parallel sum of their monoid.
        Each weight object is checked and interned once per type pair, so
        edges that share one weight object cost a dictionary lookup. The
        cell table is checked as for the wire format; nothing is converted
        to a string.
        """
        cells, type_names = list(cells), list(type_names)
        index, type_idx = _cell_index(cells, list(cell_types), type_names)

        view = CodedNetwork()
        merge = view.merge
        # (target type, source type, id(weight)) -> (weight, code); holding
        # the weight keeps its id from being reused by a later edge's object.
        accepted: dict[tuple[int, int, int], tuple[object, int]] = {}
        rows: list[dict[int, int]] = [{} for _ in cells]
        for target, source, weight in edges:
            try:
                c, d = index[target], index[source]
            except KeyError:
                if target not in index:
                    raise SchemaError(f"edge targets unknown cell {target!r}") from None
                raise SchemaError(f"edge comes from unknown cell {source!r}") from None
            key = (type_idx[c], type_idx[d], id(weight))
            hit = accepted.get(key)
            if hit is None:
                spec = registry.get(type_idx[c], type_idx[d])
                if spec is None:
                    raise SchemaError(
                        f"no monoid registered for edges {type_names[type_idx[d]]!r} -> "
                        f"{type_names[type_idx[c]]!r} (edge {source!r} -> {target!r})"
                    )
                hit = accepted[key] = (weight, _accept(view, spec, weight, source, target))
            row = rows[c]
            prev = row.get(d)
            row[d] = hit[1] if prev is None else merge(prev, hit[1])
        view.set_rows(rows)  # parallel sums that merged to "no edge" are dropped
        return cls(cells, type_names, type_idx, registry, view, index)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.cells)

    def index(self, cell: str) -> int:
        try:
            return self._index[cell]
        except KeyError:
            raise SchemaError(f"unknown cell {cell!r}") from None

    def spec_for(self, c: int, d: int) -> MonoidSpec | None:
        return self.registry.get(self.cell_types[c], self.cell_types[d])

    def entry(self, target: str, source: str):
        """Merged weight from source into target; identity when no edge."""
        c, d = self.index(target), self.index(source)
        srcs, codes = self._coded.rows[c]
        if d in srcs:
            return self._coded.values[codes[srcs.index(d)]]
        spec = self.spec_for(c, d)
        return spec.identity if spec is not None else None

    def row_items(self, c: int):
        """Non-identity entries of row ``c`` as (source index, weight) pairs, sources ascending."""
        view = self._coded
        srcs, codes = view.rows[c]
        values = view.values
        return [(d, values[k]) for d, k in zip(srcs, codes)]

    def in_neighborhood(self, cell: str) -> set[str]:
        """Cells with a non-identity merged weight into ``cell``."""
        srcs, _ = self._coded.rows[self.index(cell)]
        return {self.cells[d] for d in srcs}

    def edge_count(self) -> int:
        return self._coded.n_edges

    def type_partition(self) -> Partition:
        return Partition.from_colors(t + 1 for t in self.cell_types)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.cells == other.cells
            and self.type_names == other.type_names
            and self.cell_types == other.cell_types
            and self.registry == other.registry
            and all(self.row_items(c) == other.row_items(c) for c in range(self.n))
        )

    def __repr__(self):
        return f"Network({self.n} cells, {self.edge_count()} merged edges)"


# -- JSON wire format -------------------------------------------------------
#
# { "types": [...names], "cells": [{"id","type"}...],
#   "monoids": [{"target_type","source_type","kind",...params}],
#   "edges": [{"to","from","weight": <tagged element>}] }


def _read_json(text: str):
    """The document ``text`` holds; any failure to decode it is one ``SchemaError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # over-long integer literal, too deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from None


def _write_json(obj, pretty: bool = False) -> str:
    """Indented by two and ending in a newline when ``pretty``, else compact with none."""
    if pretty:
        return json.dumps(obj, indent=2) + "\n"
    return json.dumps(obj, separators=(",", ":"))


def _edge_cell_error(pos: int, target, source, index: dict):
    """Raise the diagnostic for an edge endpoint that names no cell."""
    for field, cell in (("to", target), ("from", source)):
        if not isinstance(cell, str):
            raise SchemaError(f"edges[{pos}].{field} must be a cell id, got {cell!r}")
    if target not in index:
        raise SchemaError(f"edges[{pos}]: unknown target cell {target!r}")
    raise SchemaError(f"edges[{pos}]: unknown source cell {source!r}")


def network_from_json(obj) -> Network:
    """Build a network from a loaded wire-format document.

    Edges go straight from the wire into coded rows, in one pass. Each
    distinct wire weight of a type pair is parsed, checked and interned
    once: the pair's cache keeps its code under ``marshal.dumps(wire, 2)``,
    which writes a type code per value and so tells ``1``, ``1.0`` and
    ``true`` apart where ``==`` would not. Version 2 writes no
    back-references, so equal values give equal bytes. A value marshal
    cannot write (a caller's ``Fraction``, say) is keyed by its ``repr``
    instead; a ``str`` key never equals a ``bytes`` one. Repeats merge the
    cached code into their row through the combine memo. Invalid weights
    are never cached, so each one is reported at its own edge.
    """
    if not isinstance(obj, dict):
        raise SchemaError("network document must be a JSON object")
    for field in ("types", "cells", "monoids", "edges"):
        if field not in obj:
            raise SchemaError(f"missing top-level field {field!r}")
        if not isinstance(obj[field], list):
            raise SchemaError(f"field {field!r} must be a list")

    type_names, cells, cell_types = obj["types"], [], []
    for pos, entry in enumerate(obj["cells"]):
        try:
            if not isinstance(entry, dict) or len(entry) != 2:
                raise KeyError
            cells.append(entry["id"])
            cell_types.append(entry["type"])
        except KeyError:
            raise SchemaError(f"cells[{pos}] must be {{\"id\", \"type\"}}") from None
    index, type_idx = _cell_index(cells, cell_types, type_names)

    table: dict[tuple[int, int], MonoidSpec] = {}
    fields = ("target_type", "source_type")
    for where, pair, entry in _typed_entries(obj["monoids"], "monoids", type_names, fields):
        table[pair] = spec_from_json({k: v for k, v in entry.items() if k not in fields}, where)
    registry = MonoidRegistry(table)

    view = CodedNetwork()
    merge = view.merge
    rows: list[dict[int, int]] = [{} for _ in cells]
    ntypes = len(type_names)
    # target type * ntypes + source type -> {wire key -> code}
    caches: dict[int, dict] = {i * ntypes + j: {} for i, j in table}
    for pos, entry in enumerate(obj["edges"]):
        try:
            if not isinstance(entry, dict) or len(entry) != 3:
                raise KeyError
            target, source, wire = entry["to"], entry["from"], entry["weight"]
        except KeyError:
            raise SchemaError(
                f"edges[{pos}] must be {{\"to\", \"from\", \"weight\"}}"
            ) from None
        try:
            c, d = index[target], index[source]
        except (KeyError, TypeError):
            _edge_cell_error(pos, target, source, index)
        i, j = type_idx[c], type_idx[d]
        codes = caches.get(i * ntypes + j)
        if codes is None:
            raise SchemaError(
                f"edges[{pos}]: no monoid declared for pair "
                f"({type_names[i]!r}, {type_names[j]!r})"
            )
        try:
            key = marshal.dumps(wire, 2)
        except ValueError:
            key = repr(wire)
        code = codes.get(key)
        if code is None:
            spec = table[i, j]
            try:
                weight = spec.element_from_json(wire)
            except SchemaError as exc:
                raise SchemaError(f"edges[{pos}].weight: {exc}") from None
            code = codes[key] = _accept(view, spec, weight, source, target)
        row = rows[c]
        prev = row.get(d)
        row[d] = code if prev is None else merge(prev, code)
    view.set_rows(rows)  # parallel sums that merged to "no edge" are dropped
    return Network(cells, type_names, type_idx, registry, view, index)


def parse_network(text: str) -> Network:
    """Parse the JSON wire format; errors carry the offending field.

    The decoded document and the network hold no reference cycles, so
    Python's cyclic collector is paused for the parse: a collection could
    free nothing and would only walk the growing heap. Its previous state
    is restored afterwards, also when the parse fails.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return network_from_json(_read_json(text))
    finally:
        if enabled:
            gc.enable()


def network_to_json(net: Network) -> dict:
    """The wire-format document; edges with equal weights share one weight object."""
    monoids = []
    for (i, j), spec in net.registry.pairs():
        entry = {"target_type": net.type_names[i], "source_type": net.type_names[j]}
        entry.update(spec.to_json())
        monoids.append(entry)
    view = net._coded
    wire: dict[int, object] = {}  # code -> its JSON form, built once per distinct code
    edges = []
    for c, (srcs, codes) in enumerate(view.rows):
        target = net.cells[c]
        for d, k in zip(srcs, codes):
            weight = wire.get(k)
            if weight is None:
                weight = wire[k] = view.specs[k].element_to_json(view.values[k])
            edges.append({"to": target, "from": net.cells[d], "weight": weight})
    return {
        "types": list(net.type_names),
        "cells": [
            {"id": cell, "type": net.type_names[t]}
            for cell, t in zip(net.cells, net.cell_types)
        ],
        "monoids": monoids,
        "edges": edges,
    }


def serialize_network(net: Network, pretty: bool = False) -> str:
    return _write_json(network_to_json(net), pretty)


# -- GraphViz export --------------------------------------------------------

_SHAPES = ("circle", "box", "diamond", "hexagon", "ellipse", "trapezium")
_FILLS = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854",
    "#ffd92f", "#e5c494", "#b3b3b3", "#80b1d3", "#fb8072",
)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net: Network, coloring: Partition | None = None) -> str:
    """GraphViz digraph: node shape by cell type, fill by color class."""
    if coloring is not None and len(coloring) != net.n:
        raise PartitionError(
            f"coloring has {len(coloring)} entries for a {net.n}-cell network"
        )
    lines = ["digraph network {", "  rankdir=LR;"]
    for c, cell in enumerate(net.cells):
        shape = _SHAPES[net.cell_types[c] % len(_SHAPES)]
        if coloring is None:
            fill = _FILLS[0]
        else:
            fill = _FILLS[(coloring.colors[c] - 1) % len(_FILLS)]
        lines.append(
            f"  {_quote(cell)} [shape={shape}, style=filled, fillcolor={_quote(fill)}];"
        )
    view = net._coded
    for c, (srcs, codes) in enumerate(view.rows):
        for d, k in zip(srcs, codes):
            label = view.specs[k].display(view.values[k])
            lines.append(
                f"  {_quote(net.cells[d])} -> {_quote(net.cells[c])} "
                f"[label={_quote(label)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
