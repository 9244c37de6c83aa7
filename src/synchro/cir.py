"""Coarsest invariant refinement: the balanced partition finer than a seed.

Starting from a seed coloring, each sweep splits every color class by the
per-color parallel sums of its rows, keyed on (old color, sums) through a
hash table. Ranks strictly increase until one confirming sweep leaves the
coloring unchanged; the fixed point is balanced and is the coarsest
balanced partition finer than the seed. A coloring of rank |C| is always
such a fixed point: a sweep never merges classes, so it can only return
the same cells one per color, in the same first-occurrence order.

A full sweep (``_sweep``) keys every row: its old color followed by the
sorted (color, combined weight code) pairs of its nonzero slots, so one
sweep costs |C| + |E| dictionary operations whatever the rank, and the at
most |C| sweeps of a run meet the paper's O(|C|^3) bound. Rows with at most
two edges are keyed inline; longer rows go through ``row_sums``. New colors
are numbered in first-occurrence row order, which makes every sweep's
output canonical.

On networks of at least ``_ROUNDS_MIN_CELLS`` cells, once a sweep less than
doubles the rank, the same sweeps are computed in rounds (``_rounds``).
Every class keeps an id, and a row is dirty when a cell that feeds it
moved to a new id in the previous round. A round keys each dirty row and
one clean row of each class that holds both, reads every key before any
cell moves, and then splits each class by its keys: the largest group
keeps the id, and every other group takes a fresh id and dirties the rows
its cells feed. The first round follows the last full sweep: each class
that sweep split is named after its largest part, and the cells of its
other parts count as moved. Rounds are exact for every commutative monoid,
and they subtract no weight:

1. A clean row's sources kept their ids, so its per-id sums are those of
   the previous round, and its whole class shared those sums: sharing them
   is what kept the class together. One clean row stands for all of them.
2. Every key is read under the ids of the previous round, which label its
   classes one to one, so each class splits exactly as a full sweep splits
   it: each round gives the same set partition as the sweep it replaces,
   and the canonical relabelling of its ids is that sweep's output.
3. A moved group is not the largest of its class, so it holds at most half
   of it, and a cell moves at most log2 |C| times. A row is dirty only in a
   round after one of its sources moved, so the rounds of a run key at
   most 2 |E| log2 |C| rows, each dirty row once and at most one clean row
   beside it, and no round keys more than the |C| rows of a full sweep.
   All full sweeps before them but the last double the rank, so there are
   at most log2 |C| + 1 of them. A run thus keeps the O(|C|^3) bound, keys
   O((|C| + |E|) log |C|) rows and reads O(d (|C| + |E|) log |C|) edges
   when no row has more than d sources, plus an O(|C|) relabel per round
   that only ``cir`` and the lattice seeds ask for.

One loop, ``_sweeps``, yields every output, the confirming sweep's
included: ``cir`` records them all, ``cir_iteration`` takes the first, and
``_converge`` (for ``top`` and the meet) the last, or the first of rank
|C|, whose confirming sweep could only repeat it.

Every entry point that takes a coloring checks it in ``_color_types``.
"""
from __future__ import annotations

from itertools import chain

from ._record import Record
from .coding import CodedNetwork, coded
from .errors import PartitionError
from .network import Network
from .partition import Partition, _canonical


def kernel_name() -> str:
    """Which refinement engine is active; there is one, in pure Python."""
    return "pure"


class CirTrace(Record):
    """The sweeps of one refinement run and the work of each.

    ``iterations`` records the (partition, rank) output of every sweep,
    including the final confirming one, so ranks strictly increase and then
    repeat once; ``refining_iterations`` is the count the convergence bound
    |C| - rank(seed) applies to. ``ops`` gives each sweep the cost of one
    full sweep of the paper's algorithm, |C| + |E|: an upper bound on the
    work of the engine, whose rounds key only the rows that can change.
    """

    __slots__ = ("iterations", "ops")

    @property
    def converged(self) -> Partition:
        return self.iterations[-1][0]

    @property
    def refining_iterations(self) -> int:
        return len(self.iterations) - 1

    @property
    def total_ops(self) -> int:
        return sum(self.ops)


def _color_types(net: Network, partition: Partition) -> list[int]:
    """The cell type index of each color, in color order.

    Raises ``PartitionError`` unless the coloring covers the network's cells
    and gives each color cells of one type.
    """
    if len(partition) != net.n:
        raise PartitionError(
            f"partition covers {len(partition)} cells, network has {net.n}"
        )
    type_of: dict[int, int] = {}  # canonical colors, so first seen in color order
    for color, t in zip(partition.colors, net.cell_types):
        if type_of.setdefault(color, t) != t:
            raise PartitionError("partition mixes cells of different types")
    return list(type_of.values())


def _sweep(view: CodedNetwork, colors) -> tuple[list[int], int]:
    """One refinement sweep under any hashable, orderable cell labels.

    Returns the new canonical coloring (colors 1..rank) and its rank.
    Rows with at most two edges are keyed inline, to exactly the key the
    general path builds: two same-colored sources merge once and drop out
    when they sum to the identity, two differently colored ones are listed
    in color order. On sparse inputs such as chains and rings they are
    most of the rows.
    """
    table: dict[tuple, int] = {}
    new: list[int] = []
    merge = view.merge
    for r, (srcs, codes) in enumerate(view.rows):
        degree = len(srcs)
        if degree == 2:
            c1, c2 = colors[srcs[0]], colors[srcs[1]]
            if c1 == c2:
                w = merge(codes[0], codes[1])
                key = (colors[r], c1, w) if w else (colors[r],)
            elif c1 < c2:
                key = (colors[r], c1, codes[0], c2, codes[1])
            else:
                key = (colors[r], c2, codes[1], c1, codes[0])
        elif degree == 1:
            key = (colors[r], colors[srcs[0]], codes[0])
        elif not degree:
            key = (colors[r],)
        else:
            sums = view.row_sums(colors, r)
            key = (colors[r], *chain.from_iterable(sorted(sums.items())))
        new.append(table.setdefault(key, len(table) + 1))
    return new, len(table)


# Sweeps stay full on networks of fewer than _ROUNDS_MIN_CELLS cells, and
# while each sweep multiplies the rank by at least _FULL_GROWTH; then rounds
# take over. Measured with CPython 3.11 on a 2-vCPU VM: on the unit chain,
# which peels one cell per sweep, rounds overtake full sweeps at about 32
# cells for ``top`` and 56 for ``cir``, and the lattice walks of the 12-rings
# took 2.2 times as long in rounds; on a 3000-cell random graph with three
# in-edges per cell, whose ranks go 1, 258, 3000, ``top`` took 40 % longer in
# rounds than in the full sweeps the growth rule keeps. The refine benchmark
# runs a 400-cell chain in rounds and such a graph in full sweeps.
_ROUNDS_MIN_CELLS = 64
_FULL_GROWTH = 2


def _sweeps(view: CodedNetwork, colors, rank: int, canonical: bool = True):
    """Each sweep's output and its rank, from ``colors`` of rank ``rank``
    through the confirming sweep, which repeats the fixed point.

    Outputs are canonical, except that with ``canonical`` false a round
    below rank |C| that moved cells yields its live ids, which the next
    round overwrites.
    """
    rounds = view.n >= _ROUNDS_MIN_CELLS
    while True:
        new, new_rank = _sweep(view, colors)
        prev, colors = colors, tuple(new)
        yield colors, new_rank
        if new_rank == rank:
            return
        if rounds and new_rank < _FULL_GROWTH * rank:
            yield from _rounds(view, prev, colors, new_rank, canonical)
            return
        rank = new_rank


def _row_key(view: CodedNetwork, ids, r: int) -> frozenset:
    """Row ``r``'s nonzero per-class sums under ``ids``, as a hashable key."""
    return frozenset(view.row_sums(ids, r).items())


def _class_keys(view: CodedNetwork, ids, cells: set, rows: list[int], dirty: set):
    """The keys of one class in a round: each dirty row in ``rows`` keyed
    on its own, and one clean row standing for the rest of ``cells``.

    Returns the dirty rows per key, the clean rows' key (None when every
    row is dirty) and the number of clean rows.
    """
    groups: dict = {}
    for r in rows:
        groups.setdefault(_row_key(view, ids, r), []).append(r)
    clean = len(cells) - len(rows)
    clean_key = None
    if clean:
        clean_key = _row_key(view, ids, next(c for c in cells if c not in dirty))
        groups.setdefault(clean_key, [])
    return groups, clean_key, clean


def _rounds(view: CodedNetwork, prev, colors, rank: int, canonical: bool):
    """The sweeps after the sweep from ``prev`` to ``colors`` (rank ``rank``),
    as ``_sweeps`` yields them, computed in rounds (see the module docstring).

    The ids start as ``colors``: a class of ``prev`` names its largest
    class of ``colors``, so the cells of every other one have moved.
    """
    n, outs = view.n, view.out_rows()
    ids = list(colors)
    members = [set() for _ in range(rank + 1)]  # id -> its cells
    for c, i in enumerate(ids):
        members[i].add(c)
    keep: dict = {}  # class of prev -> its largest class of colors
    for old, i in zip(prev, ids):
        if len(members[i]) > len(members[keep.setdefault(old, i)]):
            keep[old] = i
    moved = [c for c, (old, i) in enumerate(zip(prev, ids)) if keep[old] != i]
    while moved:
        dirty = set().union(*map(outs.__getitem__, moved))
        moved = []
        touched: dict[int, list[int]] = {}  # id -> its dirty rows
        for r in dirty:
            touched.setdefault(ids[r], []).append(r)
        # every key of the round is read before any cell moves
        keyed = [(k, *_class_keys(view, ids, members[k], rows, dirty)) for k, rows in touched.items()]
        for k, groups, clean_key, clean in keyed:
            if len(groups) == 1:
                continue
            size = {key: len(rows) + clean * (key == clean_key) for key, rows in groups.items()}
            largest = max(size, key=size.get)
            for key, cells in groups.items():
                if key == largest:
                    continue
                if key == clean_key:
                    cells += [c for c in members[k] if c not in dirty]
                rank += 1
                members.append(set(cells))
                members[k].difference_update(cells)
                for c in cells:
                    ids[c] = rank
                moved += cells
        live = not canonical and moved and rank < n
        yield (ids if live else _canonical(ids)), rank


def _converge(view: CodedNetwork, colors, rank: int) -> tuple[int, ...]:
    """The canonical fixed point of the sweep from ``colors``; a sweep of
    rank |C| ends the run, as the discrete coloring is a fixed point too.
    No round before the last is relabelled."""
    for colors, rank in _sweeps(view, colors, rank, canonical=False):
        if rank == view.n:
            break
    return colors


def cir_iteration(net: Network, partition: Partition) -> Partition:
    """One refinement sweep; balanced inputs are fixed points."""
    _color_types(net, partition)
    colors, _ = next(_sweeps(coded(net), partition.colors, partition.rank))
    return Partition._from_canonical(colors)


def cir(net: Network, seed: Partition) -> CirTrace:
    """Refine ``seed`` to the coarsest balanced partition finer than it.

    ``CirTrace.ops`` counts |C| + |E| per sweep, the cost of one full sweep
    of the paper's algorithm, which keys every row once and visits every
    edge once. It bounds what the engine does: a full sweep costs exactly
    that, and a round keys only the rows a moved cell feeds.
    """
    _color_types(net, seed)
    view = coded(net)
    iterations = tuple(
        (Partition._from_canonical(colors), rank)
        for colors, rank in _sweeps(view, seed.colors, seed.rank)
    )
    ops = (view.n + view.n_edges,) * len(iterations)
    return CirTrace(iterations=iterations, ops=ops)


def top(net: Network) -> Partition:
    """The maximal balanced partition: refinement of the type partition."""
    types = net.type_partition()
    return Partition._from_canonical(_converge(coded(net), types.colors, types.rank))
