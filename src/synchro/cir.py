"""Coarsest invariant refinement: the balanced partition finer than a seed.

Starting from a seed coloring, each sweep splits every color class by the
per-color parallel sums of its rows, keyed on (old color, sums) through a
hash table. Ranks strictly increase until one confirming sweep leaves the
coloring unchanged; the fixed point is balanced and is the coarsest
balanced partition finer than the seed. A coloring of rank |C| is always
such a fixed point: a sweep never merges classes, so it can only return
the same cells one per color, in the same first-occurrence order.

A row's key is its old color followed by the sorted (color, combined
weight code) pairs of its nonzero slots, so one sweep costs |C| + |E|
dictionary operations whatever the rank. Rows with at most two edges are
keyed inline; longer rows go through ``row_sums``. New colors are
numbered in first-occurrence row order, which makes every sweep's output
canonical. ``cir`` records every sweep, the confirming one included;
``top``, the meet and lattice enumeration run the converged-only loop on
plain int lists and build one Partition at the end. That loop skips the
confirming sweep once a sweep reaches rank |C|, whose confirming sweep
could only repeat it. Lattice enumeration also stops a seed as soon as a
sweep lands on a balanced coloring it already knows, and abandons one
once a sweep cuts its split class too finely (``synchro.lattice`` proves
that no cover is lost).

Every entry point that takes a coloring checks it in ``_color_types``.
"""
from __future__ import annotations

from collections.abc import Sequence, Set
from itertools import chain

from ._record import Record
from .coding import CodedNetwork, coded
from .errors import PartitionError
from .network import Network
from .partition import Partition


def kernel_name() -> str:
    """Which refinement engine is active; there is one, in pure Python."""
    return "pure"


class CirTrace(Record):
    """The sweeps of one refinement run and the work of each.

    ``iterations`` records the (partition, rank) output of every sweep,
    including the final confirming one, so ranks strictly increase and then
    repeat once; ``refining_iterations`` is the count the convergence bound
    |C| - rank(seed) applies to.
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


def _converge(
    view: CodedNetwork,
    colors,
    rank: int,
    known: Set[tuple[int, ...]] = frozenset(),
    split: tuple[Sequence[int], int] | None = None,
) -> tuple[int, ...] | None:
    """Sweep until the rank stops growing; the canonical fixed point.

    ``known`` holds canonical balanced colorings. Each is a fixed point of
    the sweep, so a sweep that lands on one has converged, and the
    confirming sweep is skipped. It is skipped too after a sweep that
    reaches rank |C|: the canonical discrete coloring is a fixed point of
    the sweep as well. ``split`` is a lattice seed's split class and its
    smaller side: the run is abandoned, returning None, once a sweep
    leaves a piece of that class smaller than the smaller side. The
    abandonment check comes before the discrete stop, as it came before
    the confirming sweep, so every seed returns what it would have
    returned after that sweep.
    """
    n = view.n
    while True:
        new, new_rank = _sweep(view, colors)
        colors = tuple(new)
        if new_rank == rank or colors in known:
            return colors
        if split is not None:
            cells, smaller = split
            sizes: dict[int, int] = {}
            for i in cells:
                sizes[new[i]] = sizes.get(new[i], 0) + 1
            if min(sizes.values()) < smaller:
                return None
        if new_rank == n:
            return colors
        rank = new_rank


def cir_iteration(net: Network, partition: Partition) -> Partition:
    """One refinement sweep; balanced inputs are fixed points."""
    _color_types(net, partition)
    new, _ = _sweep(coded(net), partition.colors)
    return Partition._from_canonical(tuple(new))


def cir(net: Network, seed: Partition) -> CirTrace:
    """Refine ``seed`` to the coarsest balanced partition finer than it.

    Each sweep keys every row once and visits every edge once, so its
    work, ``CirTrace.ops``, is |C| + |E| whatever the coloring.
    """
    _color_types(net, seed)
    view = coded(net)
    colors, rank = seed.colors, seed.rank
    iterations: list[tuple[Partition, int]] = []
    while True:
        new, new_rank = _sweep(view, colors)
        iterations.append((Partition._from_canonical(tuple(new)), new_rank))
        if new_rank == rank:
            break
        colors, rank = new, new_rank
    ops = (view.n + view.n_edges,) * len(iterations)
    return CirTrace(iterations=tuple(iterations), ops=ops)


def top(net: Network) -> Partition:
    """The maximal balanced partition: refinement of the type partition."""
    types = net.type_partition()
    return Partition._from_canonical(_converge(coded(net), types.colors, types.rank))
