"""Integer-coded storage of a network's merged weights.

Every distinct (spec, value) pair appearing in a network is interned to a
dense integer code. The pool is a dictionary keyed on that pair itself:
specs are frozen values that compare and hash structurally, and carrier
values compare with exact monoid equality, so two weights share a code
exactly when they are the same element of the same monoid. Code 0 always
stands for "no edge", i.e. the identity of whichever monoid a signature
slot lives in. Slots are only ever compared within one column of the
weighted adjacency structure, and one column lives in one monoid, so
sharing code 0 across monoids can never make unequal values look equal.

Code equality is exactly element equality, which is what lets the hot
refinement loop (and balance checking) run on plain ints. The pairwise
combine results are memoized; a memo miss falls back to the real monoid
operation and interns the result.

A ``CodedNetwork`` is the only weight storage a ``Network`` has. Both
constructors fill it in one pass over their edges: ``network_from_json``
interns each distinct wire weight of a type pair once, ``Network.build``
each distinct weight object, and both merge parallel edges through the
combine memo into the rows that ``set_rows`` stores. Every value-level
query decodes from the codes.

The view also remembers which partitions ``balance.is_balanced`` has found
balanced on it, in a weak set: a network never changes after it is built,
so a verdict stays true, and an entry lives only while some caller still
holds that partition. Pickles and copies leave the set out and start empty.
"""
from __future__ import annotations

import weakref


class CodedNetwork:
    """Per-row source and weight-code tuples of the non-identity entries, plus the
    intern pool, the combine memo and the balance-verdict memo."""

    __slots__ = (
        "n",
        "n_edges",
        "rows",
        "_pool",
        "specs",
        "values",
        "memo",
        "balanced",
    )

    def __init__(self):
        self._pool: dict[tuple, int] = {}
        self.specs: list = [None]  # spec per code; index 0 is the shared identity
        self.values: list = [None]
        self.memo: dict[tuple[int, int], int] = {}
        # rows[c] = (source indices, weight codes) of cell c, sources ascending
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.n = 0
        self.n_edges = 0
        self.balanced: weakref.WeakSet = weakref.WeakSet()  # partitions found balanced here

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if name != "balanced"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.balanced = weakref.WeakSet()

    def set_rows(self, rows: list[dict[int, int]]) -> None:
        """Store merged ``{source: code}`` rows; code-0 (identity) entries are dropped."""
        self.rows = []
        for row in rows:
            srcs = sorted(row)
            codes = tuple(map(row.__getitem__, srcs))
            if 0 in codes:
                srcs = [d for d in srcs if row[d]]
                codes = tuple(map(row.__getitem__, srcs))
            self.rows.append((tuple(srcs), codes))
        self.n = len(self.rows)
        self.n_edges = sum(len(srcs) for srcs, _ in self.rows)

    def code(self, spec, value) -> int:
        """Intern a carrier value; identities of every monoid map to 0.

        ``value`` must already be in the carrier of ``spec``: both network
        constructors check ``contains`` before they intern a weight, and
        combine results stay in the carrier. Only then does ``==`` mean
        monoid equality (a ``True`` would otherwise share the code of a ``1``).
        """
        if value == spec.identity:
            return 0
        key = (spec, value)
        code = self._pool.get(key)
        if code is None:
            code = len(self.values)
            self._pool[key] = code
            self.specs.append(spec)
            self.values.append(value)
        return code

    def merge(self, a: int, b: int) -> int:
        """The code of the parallel sum of two coded values, through the pair memo.

        Codes hold only carrier values checked at ingest, so the sum skips
        the carrier checks of ``MonoidSpec.combine``.
        """
        pair = (a, b) if a <= b else (b, a)
        c = self.memo.get(pair)
        if c is None:
            if a == 0 or b == 0:
                c = a or b
            else:
                spec = self.specs[a]
                c = self.code(spec, spec._combine(self.values[a], self.values[b]))
            self.memo[pair] = c
        return c

    def row_sums(self, colors, row: int) -> dict:
        """Per-color combined weight codes of one row, nonzero slots only.

        ``colors`` gives a label per cell; the result maps each label that
        feeds ``row`` to the code of the parallel sum of its edges. A slot
        whose sum is the identity (code 0) is dropped, exactly as if the
        color sent no edge.
        """
        acc: dict = {}
        merge = self.merge
        srcs, codes = self.rows[row]
        for d, w in zip(srcs, codes):
            k = colors[d]
            a = acc.get(k)
            if a is None:
                acc[k] = w
                continue
            c = merge(a, w)
            if c:
                acc[k] = c
            else:
                del acc[k]
        return acc


def coded(net) -> CodedNetwork:
    """The network's coded storage."""
    return net._coded
