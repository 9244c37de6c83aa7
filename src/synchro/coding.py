"""Integer-coded sparse view of a network for refinement and balance.

Every distinct (monoid, element) pair appearing in a network is interned
to a dense integer code; code 0 always stands for "no edge", i.e. the
identity of whichever monoid a signature slot lives in. Slots are only
ever compared within one column of the weighted adjacency structure, and
one column lives in one monoid, so sharing code 0 across monoids can
never make unequal values look equal.

Code equality is exactly element equality, which is what lets the hot
refinement loop (and balance checking) run on plain ints. The pairwise
combine results are memoized; a memo miss falls back to the real monoid
operation and interns the result.
"""
from __future__ import annotations

from .network import Network


class CodedNetwork:
    """Per-row source and weight-code tuples of the non-identity entries plus the intern pool."""

    __slots__ = (
        "n",
        "n_edges",
        "rows",
        "_pool",
        "_specs",
        "_values",
        "memo",
    )

    def __init__(self, net: Network):
        self.n = net.n
        self._pool: dict[tuple, int] = {}
        self._specs: list = [None]  # spec per code; index 0 is the shared identity
        self._values: list = [None]
        self.memo: dict[tuple[int, int], int] = {}

        # rows[c] = (source indices, weight codes) of cell c, sources ascending
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for c in range(net.n):
            i = net.cell_types[c]
            items = net.row_items(c)
            codes = tuple(
                self.code(net.registry.require(i, net.cell_types[d]), weight)
                for d, weight in items
            )
            self.rows.append((tuple(d for d, _ in items), codes))
        self.n_edges = sum(len(srcs) for srcs, _ in self.rows)

    def code(self, spec, value) -> int:
        """Intern a carrier value; identities of every monoid map to 0."""
        if value == spec.identity:
            return 0
        key = (spec.key(), spec.encode(value))
        code = self._pool.get(key)
        if code is None:
            code = len(self._values)
            self._pool[key] = code
            self._specs.append(spec)
            self._values.append(value)
        return code

    def decode(self, code: int, spec=None):
        """The carrier value behind a code; 0 decodes to the slot's identity."""
        if code == 0:
            return spec.identity if spec is not None else None
        return self._values[code]

    def combine_codes(self, a: int, b: int) -> int:
        """The code of the parallel sum of two coded values."""
        if a == 0:
            return b
        if b == 0:
            return a
        spec = self._specs[a]
        return self.code(spec, spec.combine(self._values[a], self._values[b]))

    def row_sums(self, colors, row: int) -> dict:
        """Per-color combined weight codes of one row, nonzero slots only.

        ``colors`` gives a label per cell; the result maps each label that
        feeds ``row`` to the code of the parallel sum of its edges. A slot
        whose sum is the identity (code 0) is dropped, exactly as if the
        color sent no edge.
        """
        acc: dict = {}
        memo = self.memo
        srcs, codes = self.rows[row]
        for d, w in zip(srcs, codes):
            k = colors[d]
            a = acc.get(k)
            if a is None:
                acc[k] = w
                continue
            pair = (a, w) if a <= w else (w, a)
            c = memo.get(pair)
            if c is None:
                c = memo[pair] = self.combine_codes(a, w)
            if c:
                acc[k] = c
            else:
                del acc[k]
        return acc


def coded(net: Network) -> CodedNetwork:
    """The per-network coded view, built once and cached on the network."""
    view = net._coded
    if view is None:
        view = CodedNetwork(net)
        net._coded = view
    return view
