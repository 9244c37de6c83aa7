"""The lattice of balanced partitions: join, meet, full enumeration.

All balanced colorings of a network form a lattice under refinement. The
join merges classes through chains across the two inputs (a union-find
pass) and is provably balanced; the meet refines the common refinement of
the inputs back to a balanced coloring. Enumeration walks down from the
maximal balanced partition, refining every single-class bipartition that
survives a screen of its first sweep, and reads the cover relation off the
same walk.

The join needs no check: two cells of one join class are linked by a
chain, and each link shares a class of ``a`` or of ``b``. That balanced
input gives the link equal sums over each of its classes, so also over
each join class, a union of them (commutativity and associativity suffice,
with nothing subtracted), and equal sums pass along the chain.

A seed (``_split``) splits one class K of a balanced parent p into A and
K - A; its smaller side is min(|A|, |K - A|), and a piece is a class of
a sweep's output restricted to K. The seed is abandoned, with no result,
once some sweep leaves a piece smaller than its smaller side. No lower
cover of p is lost, for any commutative monoid and without subtracting
weights:

1. Each sweep output is coarser than every balanced coloring finer than
   the seed: two cells in one class of such a coloring have equal sums
   over the colors of any coarser coloring, so no sweep separates them.
2. So if a cover q of p splits K, every union P of q-pieces of K gives a
   seed s_P whose refinement is q: that refinement is balanced, strictly
   finer than p and coarser than q, and nothing lies strictly between.
3. Take the P whose smaller side is smallest. Every piece its run sees is
   a union of q-pieces of K, so one smaller than that side would be a
   union with a smaller side still.
4. That seed therefore finishes and returns q, in any seed order.
5. What an abandoned seed would have returned is balanced and strictly
   finer than p, so it is a cover of p or lies below one, and every cover
   is found. The covers are still the maximal results, and the walk down
   the covers still reaches every element.

Most seeds never reach ``_refine_seed``: the walk screens them on their split
class alone (``_surviving_masks``), and the screen is exact for every
commutative monoid, again without subtracting weights:

1. The seed recolors only K, and p is balanced, so every row of K has
   equal sums over each class of p other than K. Two rows of K therefore
   share a class after the first sweep exactly when their keys (side, sum
   from A, sum from K - A) are equal: the screen's pieces are the pieces
   of the first sweep, and they depend on K alone, not on the rest of p.
2. A row's key is a function of its pattern: its own side and the sides of
   its sources in K, with its codes fixed. So a stored key is a function
   of the pattern and the codes, however it was computed: a row that reads
   it from a table shared by rows with its codes gets the key the merges
   would give, and nothing is subtracted.
3. So the screen drops exactly the seeds that the first sweep abandons,
   plus those whose first sweep lands on a known element with a piece
   below the smaller side. Such a seed only adds a known element to p's
   results, which cannot change the maximal results: each cover comes
   from the seed of step 3 of the first proof, whose pieces are unions of
   cover-pieces, and that seed passes the screen.
4. The survivors reach ``_refine_seed`` in ascending mask order, class by
   class, as every seed did before, and no dropped seed would have found
   a new element. The elements, their order, the covers and every
   partial lattice are unchanged.
5. The masks of a class are screened in blocks of 2^6, so a walk stopped
   by its budget screens at most one block past its last seed.
"""
from __future__ import annotations

from ._record import Record
from .balance import _require_balanced
from .cir import _converge, _sweeps, top
from .coding import CodedNetwork, coded
from .errors import DimensionMismatch
from .network import Network, _quote, _write_json
from .partition import Partition, common_refinement, format_partition, is_finer

DEFAULT_BUDGET = 100_000


def join(net: Network, a: Partition, b: Partition) -> Partition:
    """Least upper bound: merge cells connected by chains through a or b."""
    _require_balanced(net, a, "first partition is not balanced")
    _require_balanced(net, b, "second partition is not balanced")
    parent = list(range(net.n))

    def find(i: int) -> int:  # root of i's set, halving the path on the way
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for part in (a, b):
        first_of: dict[int, int] = {}
        for idx, color in enumerate(part.colors):
            if color in first_of:
                parent[find(idx)] = find(first_of[color])
            else:
                first_of[color] = idx
    return Partition.from_colors(find(i) for i in range(net.n))


def meet(net: Network, a: Partition, b: Partition) -> Partition:
    """Greatest lower bound: refine the common refinement until balanced."""
    _require_balanced(net, a, "first partition is not balanced")
    _require_balanced(net, b, "second partition is not balanced")
    seed = common_refinement(a, b)
    return Partition._from_canonical(_converge(coded(net), seed.colors, seed.rank))


def _split(parent, rank: int, cls: list[int], mask: int):
    """The seed of ``parent`` that splits off ``cls[i + 1]`` for each bit i of ``mask``.

    It is (colors, rank, class, smaller side): the split-off cells take the
    fresh color rank + 1, and the smaller side is the size of the smaller
    part. The refinement these seeds feed ignores how colors are labelled.
    """
    seed = list(parent)
    bits = mask
    while bits:  # bit i moves cls[i + 1]
        bit = bits & -bits
        bits ^= bit
        seed[cls[bit.bit_length()]] = rank + 1
    split_off = mask.bit_count()
    return seed, rank + 1, cls, min(split_off, len(cls) - split_off)


def _refine_seed(view: CodedNetwork, seed, rank: int, known, cls: list[int], smaller: int):
    """The fixed point of a ``_split`` seed, or None once it is abandoned.

    Each sweep is checked in turn: one that lands on a ``known`` balanced
    coloring has converged, one that leaves a piece of ``cls`` below the
    smaller side abandons the seed, and one of rank |C| has converged. The
    confirming sweep passes the second check: it repeats the previous
    output, which passed it, or the seed, whose pieces are its two sides.
    """
    for colors, new_rank in _sweeps(view, seed, rank):
        if colors in known:
            break
        sizes: dict[int, int] = {}
        for i in cls:
            sizes[colors[i]] = sizes.get(colors[i], 0) + 1
        if min(sizes.values()) < smaller:
            return None
        if new_rank == view.n:
            break
    return colors


_BLOCK_BITS = 6  # the screen visits the masks of a class 2^6 at a time
_TABLE_ENTRIES = 1 << 16  # the screen's key tables store at most this many patterns in all


def _surviving_masks(view: CodedNetwork, cls: list[int]):
    """The masks of a balanced coloring's class K whose split survives its first sweep, ascending.

    A row of K is keyed by (side, sum from side 0, sum from side 1) over its
    in-edges from K, and a mask survives when no key is held by fewer rows
    than its smaller side (the module docstring shows why). Masks are visited in
    Gray-code order within blocks of 2^6, so each step moves one cell and
    rekeys only the rows it touches, without subtracting; each block's
    survivors are yielded before the next block is screened.

    Each row keeps a pattern: bit 0 is its own side, bit j the side of its
    j-th source in K, and a move flips the moved cell's bits in the rows it
    touches. A stored key is a function of the pattern and the codes,
    however it was computed, so the rows with one sequence of codes share a
    table from pattern to key id. Pattern 0 holds the fold of the codes; a
    pattern the table lacks is rekeyed from the row's previous key, by
    merging the moved source into its new side and rebuilding the side it
    left, and stored while the tables hold fewer than 2^16 patterns in all.
    Keys are counted by id, with a histogram of those counts, and a mask
    survives when no count lies in 1..smaller - 1.
    """
    k = len(cls)
    merge = view.merge
    pos = {c: i for i, c in enumerate(cls)}
    ins = []  # per row of K: its in-edges from K, as (position in K, code)
    for c in cls:
        srcs, codes = view.rows[c]
        ins.append([(pos[s], w) for s, w in zip(srcs, codes) if s in pos])
    ids: dict[tuple[int, int, int], int] = {}  # key (side, sum from side 0, sum from side 1) -> id
    keys: list[tuple[int, int, int]] = []  # id -> key
    counts: list[int] = []  # id -> rows holding the key

    def key_id(key: tuple[int, int, int]) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
            counts.append(0)
        return i

    def moved_key(r: int, pattern: int, bits: int) -> int:  # the key id of row r after ``bits`` flipped
        old = keys[key_of[r]]
        j = bits.bit_length() - 1  # the moved source, or 0 if only the row's own cell moved
        if not j:
            return key_id((pattern & 1, *old[1:]))
        t = pattern >> j & 1
        rest = 0  # the sum from side 1 - t, rebuilt without the moved source
        for s, v in ins[r]:
            if side[s] != t:
                rest = merge(rest, v) if rest else v
        w = ins[r][j - 1][1]
        got = merge(old[1 + t], w) if old[1 + t] else w
        return key_id((pattern & 1, rest, got) if t else (pattern & 1, got, rest))

    tables: dict[tuple[int, ...], dict[int, int]] = {}  # codes of a row -> key id per stored pattern
    flips: list[list] = [[] for _ in cls]  # per cell: (row it touches, its bits there, its table)
    key_of = []  # per row of K: its key id
    for r, row in enumerate(ins):
        codes = tuple(w for _, w in row)
        table = tables.get(codes)
        if table is None:
            total = 0
            for w in codes:
                total = merge(total, w) if total else w
            table = tables[codes] = {0: key_id((0, total, 0))}
        own = 1
        for j, (s, _) in enumerate(row, 1):
            if s == r:  # a self-loop: moving r flips both bits
                own |= 1 << j
            else:
                flips[s].append((r, 1 << j, table))
        flips[r].append((r, own, table))
        key_of.append(table[0])
        counts[table[0]] += 1
    stored = len(tables)  # patterns held by all tables
    hist = [0] * (k + 1)  # ids per count of rows; hist[0] is never read
    for n in counts:
        hist[n] += 1
    pattern = [0] * k  # per row of K
    side = [0] * k  # 1 for the split-off cells

    smaller_of = [min(s, k - s) for s in range(k + 1)]  # smaller side per count of split-off cells
    n_masks = 1 << (k - 1)
    block = min(n_masks, 1 << _BLOCK_BITS)
    current = 0
    for high in range(0, n_masks, block):
        survivors = []
        for i in range(block):
            mask = high | i ^ (i >> 1)
            moved, current = mask ^ current, mask
            while moved:  # one cell within a block, more between blocks
                bit = moved & -moved
                moved ^= bit
                c = bit.bit_length()
                side[c] ^= 1
                for r, bits, table in flips[c]:
                    p = pattern[r] = pattern[r] ^ bits
                    new = table.get(p)
                    if new is None:
                        new = moved_key(r, p, bits)
                        if stored < _TABLE_ENTRIES:
                            table[p] = new
                            stored += 1
                    old = key_of[r]
                    if new != old:
                        key_of[r] = new
                        n = counts[old]
                        counts[old] = n - 1
                        hist[n] -= 1
                        hist[n - 1] += 1
                        n = counts[new]
                        counts[new] = n + 1
                        hist[n] -= 1
                        hist[n + 1] += 1
            smaller = smaller_of[mask.bit_count()]
            if smaller and not any(hist[1:smaller]):
                survivors.append(mask)
        yield from sorted(survivors)


def _screened_seeds(view: CodedNetwork, parent: tuple[int, ...], screened: dict):
    """The ``_split`` seeds of ``parent`` that survive their first sweep:
    classes in order of their first cell, masks ascending within each.

    ``parent`` must be balanced. The survivors depend on the class alone,
    so ``screened`` keeps them per class once a class is screened to its end.
    """
    rank = max(parent)
    for cls in Partition._from_canonical(parent).classes():
        masks = screened.get(tuple(cls))
        if masks is None:
            masks = []
            for mask in _surviving_masks(view, cls):
                masks.append(mask)
                yield _split(parent, rank, cls, mask)
            screened[tuple(cls)] = masks
        else:
            yield from (_split(parent, rank, cls, mask) for mask in masks)


def _lower_covers(results: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The maximal colorings in ``results``: those no other one is coarser than."""
    kept: list[tuple[int, Partition]] = []
    for rank, colors in sorted((max(c), c) for c in results):
        q = Partition._from_canonical(colors)
        if not any(r < rank and is_finer(q, m) for r, m in kept):
            kept.append((rank, q))
    return [q.colors for _, q in kept]


class BalancedLattice(Record):
    """All balanced partitions plus their covers, as (finer index, coarser index) pairs.

    ``elements`` ascend by rank, so ``elements[0]`` is the top; the last is
    the discrete coloring when the walk is ``complete``.
    """

    __slots__ = ("elements", "covers", "complete")

    def __contains__(self, partition: Partition) -> bool:
        return partition in self.elements


def enumerate_balanced(net: Network, budget: int = DEFAULT_BUDGET) -> BalancedLattice:
    """Walk the lattice top-down by splitting one class at a time.

    Every child of a known balanced partition is seeded as "split one class
    in two, keep the rest" and refined back to balanced; repeating to a
    fixed point finds the whole lattice. A seed's refinement stops as soon
    as a sweep lands on an element already found, since balanced colorings
    are fixed points of the sweep. Every lower cover of an element is
    the refinement of one of its seeds, so its covers are the maximal
    results of its seeds.

    Seeds are screened on their split class (``_surviving_masks``), and
    a seed is abandoned once a sweep cuts that class into a piece smaller
    than the seed's smaller side; the module docstring proves that
    neither loses a cover. Survivors are converged in ascending mask
    order, so the elements, covers and partial lattices are those of
    converging every seed, and a stopped walk screens at most one block
    of 2^6 masks past its last seed.

    A budget guards the worst case where essentially every partition is
    balanced; exceeding it returns the partial set flagged
    ``complete=False``, with the covers of those elements whose seeds all
    ran. A budget below 1 raises ``DimensionMismatch``.

    The budget counts distinct elements found, not seeds tried, so it
    bounds the size of the result but not the run time: between two new
    elements the walk screens every split and converges every survivor
    that only finds known ones or is abandoned. On the directed 16-ring
    with unit NaturalAdd weights, budget 4 still screens 21,887 splits and
    converges 1,350 of them, with 3,443 sweeps in all.
    """
    if budget < 1:
        raise DimensionMismatch(f"budget must be at least 1, got {budget}")
    view = coded(net)
    maximal = top(net).colors
    seen: set[tuple[int, ...]] = {maximal}
    below: dict[tuple[int, ...], set[tuple[int, ...]]] = {}  # element -> its seeds' results
    frontier = [maximal]
    screened: dict[tuple[int, ...], list[int]] = {}  # class -> masks that survive its screen
    complete = True
    while frontier and complete:
        next_frontier = []
        for parent in frontier:
            results = set()
            for seed, rank, cls, smaller in _screened_seeds(view, parent, screened):
                found = _refine_seed(view, seed, rank, seen, cls, smaller)
                if found is None:
                    continue
                results.add(found)
                if found in seen:
                    continue
                seen.add(found)
                next_frontier.append(found)
                if len(seen) > budget:
                    complete = False
                    break
            if not complete:
                break
            below[parent] = results
        frontier = next_frontier

    order = sorted(seen, key=lambda c: (max(c), c))
    index = {c: i for i, c in enumerate(order)}
    covers = sorted(
        (index[q], index[p]) for p, results in below.items() for q in _lower_covers(results)
    )
    return BalancedLattice(
        elements=tuple(Partition._from_canonical(c) for c in order),
        covers=tuple(covers),
        complete=complete,
    )


def lattice_to_json(lat: BalancedLattice, cells) -> dict:
    return {
        "elements": [format_partition(p, cells) for p in lat.elements],
        "covers": [list(pair) for pair in lat.covers],
        "complete": lat.complete,
    }


def lattice_json(lat: BalancedLattice, cells, pretty: bool = False) -> str:
    return _write_json(lattice_to_json(lat, cells), pretty)


def lattice_dot(lat: BalancedLattice, cells) -> str:
    """Hasse diagram, finer partitions below coarser ones."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for idx, p in enumerate(lat.elements):
        lines.append(f"  n{idx} [shape=box, label={_quote(format_partition(p, cells))}];")
    for i, j in lat.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
