"""Deciding balance and building quotient networks.

A coloring is balanced when same-colored cells receive, color by color,
equal parallel sums of incoming weights. ``is_balanced`` compares each
cell's sums with those of the first cell of its color, in cell order, and
stops at the first mismatch: one differing pair already decides the
verdict. A coloring with one cell per color has no pair to compare, so it
is balanced without reading a row. Equality is decided on interned
integer codes, so it is exact for every shipped monoid. The quotient of a
network over a balanced coloring is the smaller network whose row for a
color is the shared per-color sum vector of that color's cells.
"""
from __future__ import annotations

from ._record import Record
from .cir import _color_types
from .coding import coded
from .errors import NotBalancedError, SynchroError
from .network import Network
from .partition import Partition


class BalanceResult(Record):
    """A verdict; an unbalanced one names (cell, cell, color) as its counterexample."""

    __slots__ = ("balanced", "counterexample")

    def __init__(self, balanced, counterexample=None):
        super().__init__(balanced, counterexample)


def row_signature(net: Network, partition: Partition, cell: str) -> tuple:
    """The per-color parallel sums of one cell's incoming weights.

    Entry k is the merged weight from color k+1, or the monoid's identity;
    None marks a column whose type pair has no registered monoid (no such
    edges can exist). The trivial coloring gives the row itself.
    """
    color_types = _color_types(net, partition)
    row = net.index(cell)
    view = coded(net)
    codes = view.row_sums(partition.colors, row)
    i = net.cell_types[row]
    return tuple(
        view.values[codes[k]] if k in codes else getattr(net.registry.get(i, t), "identity", None)
        for k, t in enumerate(color_types, start=1)
    )


_BALANCED = BalanceResult(balanced=True)


def is_balanced(net: Network, partition: Partition) -> BalanceResult:
    """Decide balance; on failure report the first offending cell pair.

    One pass over the rows in cell order compares each row's per-color
    sums with those of the first cell of its class, and stops at the first
    mismatch: that cell and its class's first cell are the counterexample,
    together with the 1-based color where their sums first disagree. Every
    earlier row matched, so no pair earlier in cell order differs. A
    coloring of rank |C| is balanced without reading a row, since each
    class holds one cell and has no pair to compare.

    A balanced verdict is remembered in the network's coded view
    (``CodedNetwork.balanced``), weakly, so asking again about an equal
    partition while one is still held skips the type check and the pass.
    Equal partitions have equal colors and the network never changes, so
    the answer is the one a pass would give. Unbalanced verdicts are not
    remembered, and an object that cannot be weakly referenced is answered
    but not remembered.
    """
    view = coded(net)
    if partition in view.balanced:
        return _BALANCED
    _color_types(net, partition)
    colors = partition.colors
    if partition.rank < view.n:
        row_sums = view.row_sums
        first: dict[int, tuple[int, dict]] = {}  # color -> (its first cell, that cell's sums)
        for d, color in enumerate(colors):
            sums = row_sums(colors, d)
            c, sums_c = first.setdefault(color, (d, sums))
            if sums != sums_c:
                k = min(k for k in sums_c.keys() | sums.keys() if sums_c.get(k) != sums.get(k))
                return BalanceResult(balanced=False, counterexample=(net.cells[c], net.cells[d], k))
    try:
        view.balanced.add(partition)
    except TypeError:  # not weakly referenceable
        pass
    return _BALANCED


def _require_balanced(net: Network, partition: Partition, message: str | None = None) -> None:
    """Raise ``NotBalancedError`` with the counterexample unless ``partition`` is balanced."""
    result = is_balanced(net, partition)
    if not result.balanced:
        raise NotBalancedError(result.counterexample, message)


def _merged_id(members) -> str:
    """Canonical id of a merged cell: sorted flattened member parts.

    Sorting after splitting on "+" makes a quotient of a quotient produce
    the same ids as the single quotient over the composed coloring.
    """
    parts: list[str] = []
    for m in members:
        parts.extend(m.split("+"))
    return "+".join(sorted(parts))


def quotient(net: Network, partition: Partition) -> Network:
    """The quotient network of a balanced coloring, one cell per color.

    Cells come in color order, named by their members' ids joined with
    '+'; a color's row holds its cells' shared per-color sums. Raises
    NotBalancedError with a witness pair unless the coloring is balanced,
    and ``SynchroError`` when two classes would get the same merged id, as
    the classes {a, b} and {a+b} would.
    """
    _require_balanced(net, partition)
    view = coded(net)
    classes = partition.classes()
    color_cells = tuple(_merged_id(net.cells[i] for i in cls) for cls in classes)
    cell_types = [net.type_names[t] for t in _color_types(net, partition)]
    first: dict[str, list[int]] = {}
    for cls, cell in zip(classes, color_cells):
        other = first.setdefault(cell, cls)
        if other is not cls:
            raise SynchroError(
                f"classes {[net.cells[i] for i in other]} and {[net.cells[i] for i in cls]}"
                f" would both be quotient cell {cell!r}: quotient ids join member ids"
                " with '+' and read '+' in an id as a separator"
            )

    edges = []
    for k, cls in enumerate(classes):
        for l, code in sorted(view.row_sums(partition.colors, cls[0]).items()):
            edges.append((color_cells[k], color_cells[l - 1], view.values[code]))

    return Network.build(color_cells, cell_types, net.type_names, net.registry, edges)
