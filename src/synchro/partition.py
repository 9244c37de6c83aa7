"""Partition algebra: canonical colorings, refinement order, lifting.

A partition of n cells is stored in vector form: one color per cell,
colors numbered 1..rank in first-occurrence order. That canonical form
makes equality, hashing and deduplication O(n), and matches the way
refinement traces are usually tabulated. Characteristic 0/1 matrices are
never materialized; everything that would be a matrix product is done by
color-indexed accumulation.
"""
from __future__ import annotations

from ._record import Record, _set
from .errors import PartitionError, SchemaError


def _canonical(colors) -> tuple[int, ...]:
    relabel: dict = {}
    out = []
    for c in colors:
        idx = relabel.get(c)
        if idx is None:
            idx = len(relabel) + 1
            relabel[c] = idx
        out.append(idx)
    return tuple(out)


class Partition(Record):
    """A canonical coloring of cells 0..n-1: ``colors``, a tuple of ints."""

    __slots__ = ("colors", "__weakref__")  # weakly held by the verdict memo

    def __init__(self, colors):
        colors = tuple(colors)
        if not colors:
            raise PartitionError("partition needs at least one cell")
        if colors != _canonical(colors):
            raise PartitionError(
                f"colors {colors} are not in first-occurrence canonical form; "
                "use Partition.from_colors"
            )
        _set(self, "colors", colors)

    @staticmethod
    def from_colors(colors) -> "Partition":
        """Canonicalize an arbitrary color vector (any hashable labels)."""
        return Partition._from_canonical(_canonical(colors))

    @staticmethod
    def _from_canonical(colors: tuple[int, ...]) -> "Partition":
        """Wrap colors already in canonical form, skipping the re-check."""
        if not colors:
            raise PartitionError("partition needs at least one cell")
        part = object.__new__(Partition)
        _set(part, "colors", colors)
        return part

    @staticmethod
    def from_classes(classes, n: int) -> "Partition":
        """Build from explicit cell-index classes covering 0..n-1 exactly once."""
        colors = [0] * n
        seen = set()
        for label, cls in enumerate(classes, start=1):
            for idx in cls:
                if not 0 <= idx < n:
                    raise PartitionError(f"cell index {idx} out of range 0..{n - 1}")
                if idx in seen:
                    raise PartitionError(f"cell index {idx} appears in two classes")
                seen.add(idx)
                colors[idx] = label
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise PartitionError(f"cells {missing} are not covered by any class")
        return Partition.from_colors(colors)

    @staticmethod
    def trivial(n: int) -> "Partition":
        """The finest partition: every cell its own color."""
        return Partition(tuple(range(1, n + 1)))

    @staticmethod
    def single(n: int) -> "Partition":
        """One color for everything."""
        return Partition((1,) * n)

    def __len__(self):
        return len(self.colors)

    @property
    def rank(self) -> int:
        return max(self.colors)

    def classes(self) -> list[list[int]]:
        """Cell indices grouped by color, in color order."""
        out: list[list[int]] = [[] for _ in range(self.rank)]
        for idx, c in enumerate(self.colors):
            out[c - 1].append(idx)
        return out

    def __str__(self):
        return format_partition(self, map(str, range(len(self))))


def is_finer(a: Partition, b: Partition) -> bool:
    """True iff every class of ``a`` sits inside a class of ``b``."""
    if len(a) != len(b):
        raise PartitionError(f"size mismatch: {len(a)} vs {len(b)} cells")
    image: dict[int, int] = {}
    for ca, cb in zip(a.colors, b.colors):
        known = image.get(ca)
        if known is None:
            image[ca] = cb
        elif known != cb:
            return False
    return True


def quotient_partition(a: Partition, b: Partition) -> Partition:
    """The coloring of ``a``'s colors that merges them into ``b``.

    Requires a <= b; the result q satisfies q[a(c)] = b(c) for every cell.
    """
    if not is_finer(a, b):
        raise PartitionError("first partition is not finer than the second")
    q = [0] * a.rank
    for ca, cb in zip(a.colors, b.colors):
        q[ca - 1] = cb
    return Partition.from_colors(q)


def compose(a: Partition, over_colors: Partition) -> Partition:
    """Merge ``a``'s colors according to a partition of its color set."""
    if len(over_colors) != a.rank:
        raise PartitionError(
            f"color partition has {len(over_colors)} entries, expected rank {a.rank}"
        )
    return Partition.from_colors(over_colors.colors[c - 1] for c in a.colors)


def common_refinement(a: Partition, b: Partition) -> Partition:
    """Coarsest partition finer than both: colors are pairs of colors."""
    if len(a) != len(b):
        raise PartitionError(f"size mismatch: {len(a)} vs {len(b)} cells")
    return Partition.from_colors(zip(a.colors, b.colors))


def lift(a: Partition, reduced):
    """Expand one value per color into one value per cell (x = P x̄)."""
    reduced = list(reduced)
    if len(reduced) != a.rank:
        raise PartitionError(f"expected {a.rank} reduced values, got {len(reduced)}")
    return [reduced[c - 1] for c in a.colors]


def project(a: Partition, full):
    """Collapse a cell vector constant on each class down to one value per color.

    Fails with the offending class when the vector is not synchronized.
    """
    full = list(full)
    if len(full) != len(a):
        raise PartitionError(f"expected {len(a)} values, got {len(full)}")
    reduced: list = [None] * a.rank
    seen = [False] * a.rank
    for idx, c in enumerate(a.colors):
        if not seen[c - 1]:
            reduced[c - 1] = full[idx]
            seen[c - 1] = True
        elif not (reduced[c - 1] == full[idx]):
            cells = [i for i, cc in enumerate(a.colors) if cc == c]
            raise PartitionError(
                f"vector is not constant on color {c} (cells {cells}): "
                f"{reduced[c - 1]!r} != {full[idx]!r}"
            )
    return reduced


class PolyPoint(Record):
    """A state on the polydiagonal of a partition: full = lift(reduced)."""

    __slots__ = ("partition", "reduced", "full")

    @staticmethod
    def from_reduced(partition: Partition, reduced) -> "PolyPoint":
        reduced = tuple(reduced)
        return PolyPoint(partition, reduced, tuple(lift(partition, reduced)))

    @staticmethod
    def from_full(partition: Partition, full) -> "PolyPoint":
        full = tuple(full)
        return PolyPoint(partition, tuple(project(partition, full)), full)


def parse_partition(text: str, cells) -> Partition:
    """Parse the CLI text form "1,2;3;4" against an ordered cell-id list."""
    cells = list(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    colors = [0] * len(cells)
    seen = set()
    for label, group in enumerate(text.split(";"), start=1):
        members = [m for m in map(str.strip, group.split(",")) if m]
        if not members:
            raise SchemaError(f"empty class in partition string {text!r}")
        for m in members:
            if m not in index:
                raise SchemaError(f"unknown cell {m!r} in partition string")
            if m in seen:
                raise SchemaError(f"cell {m!r} listed twice in partition string")
            seen.add(m)
            colors[index[m]] = label
    if len(seen) != len(cells):
        missing = [c for c in cells if c not in seen]
        raise SchemaError(f"partition string misses cells {missing}")
    return Partition.from_colors(colors)


def format_partition(partition: Partition, cells) -> str:
    """Render classes as semicolon-separated groups of cell ids."""
    cells = list(cells)
    if len(cells) != len(partition):
        raise PartitionError("cell list does not match partition size")
    groups: list[list] = [[] for _ in range(partition.rank)]
    for cell, c in zip(cells, partition.colors):
        groups[c - 1].append(cell)
    return ";".join(map(",".join, groups))
