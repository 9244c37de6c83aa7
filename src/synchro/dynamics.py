"""Admissible dynamics: oracle functions, simulation, invariance checks.

An oracle decides how a cell of each type reacts to any weighted bag of
neighbor states; restricting it to a concrete network gives the admissible
map or vector field. The family shipped here is the homomorphism-coupled
form

    output = g(own state) + sum over inputs of kappa(weight) * h(own, neighbor)

where kappa is additive over the parallel sum and kappa(identity) = 0 --
exactly the conditions under which merging same-state inputs and dropping
zero-weight inputs cannot change the value.

Evaluation first merges the incoming weights of equal-state neighbors in
the exact monoid and only then applies kappa, so cells with equal per-color
sums follow identical floating point paths: discrete trajectories started
synchronized stay synchronized bitwise. The merge is the coded ``row_sums``
that refinement and balance use, over (type, state) labels instead of
colors, and an ``OracleSpec`` resolves g per type and kappa and h per
registered type pair once, when it is built.

``simulate_map`` steps a linear oracle (g ``zero`` or ``scale``, h
``neighbor`` or ``diffusive``) through an array plan built once per call:
each step sorts the edges by (target, source type, state), merges every
run of equal-state inputs in the exact monoid before kappa and adds the
terms in the order ``admissible_eval`` does, so its floats are bitwise
equal to ``admissible_eval``. Any other oracle steps through
``admissible_eval`` itself.

ODE integration is classical fixed-step RK4. When the field is linear
(g is ``zero`` or ``scale``, h is ``neighbor`` or ``diffusive``), one RK4
step is exactly x -> Mx for the fixed propagator
M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so M is built once as sparse
rows from the coded edges (kappa evaluated once per distinct weight) and
each step costs O(nnz(M)); the floats differ from stage-by-stage RK4 only
in summation order. Any other field is evaluated stage by stage through
the merged-input evaluation. Exactness claims stop at the monoid algebra,
never float trajectories.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .balance import _color_types, quotient, row_signature, is_balanced
from .coding import coded
from .errors import (
    DimensionMismatch,
    MonoidMismatch,
    SchemaError,
    SimulationDiverged,
    SizeLimitError,
    WitnessError,
)
from .monoid import MonoidRegistry, MonoidSpec
from .network import Network
from .partition import Partition, lift

# -- oracle building blocks --------------------------------------------------


@dataclass(frozen=True)
class GFunc:
    """Internal dynamics of one cell type."""

    kind: str = "zero"  # zero | scale | custom
    a: float = 0.0
    fn: object = None

    def __call__(self, x: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale":
            return self.a * x
        return self.fn(x)  # type: ignore[operator]


@dataclass(frozen=True)
class Coupling:
    """How a neighbor state enters the sum; linear kinds unlock fast paths."""

    kind: str = "neighbor"  # neighbor | diffusive | custom
    fn: object = None

    def __call__(self, x: float, y: float) -> float:
        if self.kind == "neighbor":
            return y
        if self.kind == "diffusive":
            return y - x
        return self.fn(x, y)  # type: ignore[operator]


_ZERO_G = GFunc("zero")
_NEIGHBOR_H = Coupling("neighbor")


class Oracle:
    """Evaluation protocol shared by all oracle flavors.

    ``evaluate(type_i, x, inputs)`` receives the merged neighborhood as
    (source type, weight element, source state) triples and returns the
    output of a cell of type ``type_i`` in state ``x``. Oracles with real
    outputs form a vector space; + and scalar * build the sum and scaled
    oracles pointwise.
    """

    def evaluate(self, type_i: int, x: float, inputs) -> float:
        raise NotImplementedError

    def __add__(self, other: "Oracle") -> "Oracle":
        return SumOracle((self, other))

    def __mul__(self, alpha: float) -> "Oracle":
        return ScaledOracle(float(alpha), self)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SumOracle(Oracle):
    parts: tuple[Oracle, ...]

    def evaluate(self, type_i, x, inputs):
        return sum(p.evaluate(type_i, x, inputs) for p in self.parts)


@dataclass(frozen=True)
class ScaledOracle(Oracle):
    alpha: float
    inner: Oracle

    def evaluate(self, type_i, x, inputs):
        return self.alpha * self.inner.evaluate(type_i, x, inputs)


class OracleSpec(Oracle):
    """The homomorphism-coupled family bound to a monoid registry.

    ``g`` maps type index to a GFunc, ``kappa`` maps (target, source) type
    pairs to additive weight maps, ``h`` maps the same pairs to couplings.
    Missing entries default to zero internal dynamics, the natural kappa of
    the registered monoid, and plain neighbor coupling. All three are
    resolved once, here: ``_g`` holds a GFunc for every type below
    ``n_types``, ``_kappa`` and ``_h`` a weight map and a coupling for
    every registered pair, so evaluation is plain table reads. An input
    from a pair the registry lacks raises ``MonoidMismatch``.
    """

    def __init__(self, registry: MonoidRegistry, n_types: int, g=None, kappa=None, h=None):
        self.registry = registry
        self.n_types = n_types
        g, kappa, h = g or {}, kappa or {}, h or {}
        pairs = registry.pairs()
        self._g = {i: g.get(i, _ZERO_G) for i in range(n_types)}
        self._kappa = {p: kappa[p] if p in kappa else spec.default_kappa() for p, spec in pairs}
        self._h = {p: h.get(p, _NEIGHBOR_H) for p, _ in pairs}

    def weight_pairs(self):
        """(target type, source type, spec) triples this oracle can see."""
        return [(i, j, spec) for (i, j), spec in self.registry.pairs()]

    def evaluate(self, type_i, x, inputs):
        total = self._g[type_i](x)
        kappa, h = self._kappa, self._h
        try:
            for j, w, y in inputs:
                total += kappa[type_i, j](w) * h[type_i, j](x, y)
        except KeyError:
            self.registry.require(type_i, j)
            raise
        return total


def _scaled_kappa(spec: MonoidSpec, scale: float):
    """The natural kappa of ``spec`` times ``scale``."""
    natural = spec.default_kappa()
    return lambda w: scale * natural(w)


def coupling_oracle(
    registry: MonoidRegistry,
    n_types: int,
    *,
    kappa_scale: float = 1.0,
    coupling: str = "neighbor",
    self_scale: float = 0.0,
) -> OracleSpec:
    """Uniform oracle: g(x) = self_scale*x, natural kappa times a gain, one coupling kind."""
    g = {i: GFunc("scale", a=self_scale) for i in range(n_types)}
    kappa = {pair: _scaled_kappa(spec, kappa_scale) for pair, spec in registry.pairs()}
    h = {pair: Coupling(coupling) for pair, _ in registry.pairs()}
    return OracleSpec(registry, n_types, g=g, kappa=kappa, h=h)


def linear_oracle(net: Network, *, gain: float = 0.5, coupling: str = "neighbor") -> OracleSpec:
    """The canonical linear oracle for a network: decay plus scaled coupling.

    g(x) = -x and the natural kappa is rescaled so the largest absolute row
    sum of coupling gains is ``gain``; that keeps the vector field strictly
    stable and the iterated map inside float range over short horizons.
    """
    tgt, _, codes, pairs = _flat_edges(net)
    natural = {p: s.default_kappa() for p, s in net.registry.pairs()}
    gains = _kappa_values(natural, len(net.type_names), coded(net).values, pairs, codes, {})
    rowmax = float(np.bincount(tgt, weights=np.abs(gains), minlength=net.n).max())
    scale = gain / rowmax if math.isfinite(rowmax) and rowmax > 0 else 1.0
    return coupling_oracle(
        net.registry,
        len(net.type_names),
        kappa_scale=scale,
        coupling=coupling,
        self_scale=-1.0,
    )


@dataclass(frozen=True)
class IndicatorOracle(Oracle):
    """Two-valued oracle that fires iff the weight arriving from neighbors
    in one designated state equals a designated parallel sum.

    This is the constructive witness: for an unbalanced coloring there is a
    state on its polydiagonal that this oracle maps off the polydiagonal.
    """

    target_type: int
    source_type: int
    spec: MonoidSpec
    target_state: float
    target_sum: object
    y_hit: float = 1.0
    y_miss: float = 0.0

    def evaluate(self, type_i, x, inputs):
        if type_i != self.target_type:
            return self.y_miss
        total = self.spec.identity
        for j, w, y in inputs:
            if j == self.source_type and y == self.target_state:
                total = self.spec.combine(total, w)
        return self.y_hit if total == self.target_sum else self.y_miss


# -- admissible evaluation ---------------------------------------------------


def admissible_eval(net: Network, oracle: Oracle, x) -> list[float]:
    """Evaluate the network restriction of an oracle at a state vector.

    Each cell is labelled (type, state) and its inputs are merged per label
    by the same coded ``row_sums`` that refinement and balance use, so two
    cells with equal per-color sums evaluate through identical float
    operations. A label whose merged weight is the identity sends nothing.
    Input states are labelled with -0.0 normalised to 0.0 (adding 0.0
    changes no other float), so equal inputs are also bitwise equal; each
    cell's own state is passed as given.
    """
    x = [float(v) for v in x]
    if len(x) != net.n:
        raise DimensionMismatch(f"state has {len(x)} entries, network has {net.n} cells")
    types = net.cell_types
    labels = [(t, v + 0.0) for t, v in zip(types, x)]
    view = coded(net)
    values, row_sums, evaluate = view.values, view.row_sums, oracle.evaluate
    return [
        evaluate(
            types[c], x[c], [(j, values[k], s) for (j, s), k in sorted(row_sums(labels, c).items())]
        )
        for c in range(net.n)
    ]


# -- consistency fuzzing -----------------------------------------------------


@dataclass(frozen=True)
class ConsistencyViolation:
    law: str  # merge | zero_removal
    type_pair: tuple[int, int]
    raw_inputs: tuple
    reduced_inputs: tuple
    raw_value: float
    reduced_value: float


@dataclass(frozen=True)
class ConsistencyReport:
    trials: int
    skipped: int
    violations: tuple[ConsistencyViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def oracle_consistency_check(
    oracle: Oracle,
    trials: int = 1000,
    rng: random.Random | None = None,
    pairs=None,
) -> ConsistencyReport:
    """Fuzz the two self-consistency rules every oracle must obey.

    Random neighborhoods with deliberately repeated states are evaluated
    raw and with the repeats merged through the monoid; both must agree.
    Inserting zero-weight inputs must change nothing either. Trials whose
    outputs are non-finite carry no information and are skipped.
    """
    rng = rng or random.Random(0)
    if pairs is None:
        pairs = oracle.weight_pairs()  # type: ignore[attr-defined]
    violations: list[ConsistencyViolation] = []
    skipped = 0
    for _ in range(trials):
        i, j, spec = pairs[rng.randrange(len(pairs))]
        x_self = rng.uniform(-3, 3)
        states = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 3))]
        raw = []
        for _ in range(rng.randint(1, 4)):
            raw.append((j, spec.sample(rng), states[rng.randrange(len(states))]))

        merged: dict[float, object] = {}
        for _, w, y in raw:
            merged[y] = spec.combine(merged[y], w) if y in merged else w
        reduced = [(j, merged[y], y) for y in sorted(merged)]

        raw_value = oracle.evaluate(i, x_self, raw)
        reduced_value = oracle.evaluate(i, x_self, reduced)
        if not (math.isfinite(raw_value) and math.isfinite(reduced_value)):
            skipped += 1
        elif not _close(raw_value, reduced_value):
            violations.append(
                ConsistencyViolation(
                    "merge", (i, j), tuple(raw), tuple(reduced), raw_value, reduced_value
                )
            )

        padded = list(raw)
        for _ in range(rng.randint(1, 2)):
            pos = rng.randrange(len(padded) + 1)
            padded.insert(pos, (j, spec.identity, rng.uniform(-3, 3)))
        padded_value = oracle.evaluate(i, x_self, padded)
        if not (math.isfinite(padded_value) and math.isfinite(raw_value)):
            skipped += 1
        elif not _close(padded_value, raw_value):
            violations.append(
                ConsistencyViolation(
                    "zero_removal", (i, j), tuple(padded), tuple(raw), padded_value, raw_value
                )
            )
    return ConsistencyReport(trials=trials, skipped=skipped, violations=tuple(violations))


# -- simulation --------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled orbit: one state row per time point."""

    times: tuple
    states: tuple[tuple[float, ...], ...]
    kind: str  # map | ode

    def __len__(self):
        return len(self.states)


def simulate_map(net: Network, oracle: Oracle, x0, steps: int) -> Trajectory:
    """Iterate the admissible map; aborts on the first non-finite state.

    A linear ``OracleSpec`` steps through ``_linear_map_step``, any other
    oracle through ``admissible_eval``; both give the same floats.
    """
    if steps < 0:
        raise DimensionMismatch("steps must be non-negative")
    x = np.asarray([float(v) for v in x0], dtype=np.float64)
    if x.shape[0] != net.n:
        raise DimensionMismatch(f"x0 has {x.shape[0]} entries, network has {net.n} cells")
    if not np.isfinite(x).all():
        raise SimulationDiverged(0)
    step = _linear_map_step(net, oracle)
    if step is None:

        def step(state):
            return np.asarray(admissible_eval(net, oracle, state.tolist()), dtype=np.float64)

    states = [tuple(x.tolist())]
    for n in range(steps):
        x = step(x)
        if not np.isfinite(x).all():
            raise SimulationDiverged(n + 1)
        states.append(tuple(x.tolist()))
    return Trajectory(times=tuple(range(steps + 1)), states=tuple(states), kind="map")


def _flat_edges(net: Network):
    """Every coded edge as (target, source, weight code, type pair) arrays.

    Edges come in row order: targets ascending, then sources ascending.
    The type pair is the id target type * n_types + source type.
    """
    view = coded(net)
    types = np.asarray(net.cell_types, dtype=np.int64)
    lens = np.fromiter((len(srcs) for srcs, _ in view.rows), dtype=np.int64, count=net.n)
    tgt = np.repeat(np.arange(net.n, dtype=np.int64), lens)
    src = np.fromiter(
        (d for srcs, _ in view.rows for d in srcs), dtype=np.int64, count=view.n_edges
    )
    codes = np.fromiter(
        (k for _, ks in view.rows for k in ks), dtype=np.int64, count=view.n_edges
    )
    return tgt, src, codes, types[tgt] * len(net.type_names) + types[src]


def _kappa_values(kappa: dict, n_types: int, values: list, pairs, codes, memo: dict):
    """kappa[pair](values[code]) for every (type pair id, code), as an array.

    Each distinct (pair, code) is looked up in ``memo``, keyed on
    ((target type, source type), code), and evaluated on a miss; the
    array key below is local to one call, as merges intern new codes.
    """
    width = len(values)
    distinct, inverse = np.unique(pairs * width + codes, return_inverse=True)
    out = np.empty(len(distinct))
    for pos, key in enumerate(distinct.tolist()):
        pair_id, k = divmod(key, width)
        pair = divmod(pair_id, n_types)
        value = memo.get((pair, k))
        if value is None:
            value = memo[pair, k] = kappa[pair](values[k])
        out[pos] = value
    return out[inverse]


@dataclass(frozen=True)
class _LinearField:
    """The flat coded edges and the per-cell g of a linear admissible field.

    Edge arrays come in row order (targets ascending, then sources); a
    type pair is the id target type * n_types + source type, and ``gains``
    holds kappa of each edge's own weight. ``slope`` is the ``a`` of g
    ``scale`` and 0.0 for g ``zero``, which ``zero_g`` marks.
    """

    tgt: np.ndarray
    src: np.ndarray
    codes: np.ndarray
    pairs: np.ndarray
    gains: np.ndarray
    diffusive: np.ndarray
    slope: np.ndarray
    zero_g: np.ndarray


def _linear_field(net: Network, oracle: Oracle) -> _LinearField | None:
    """The linear field of ``oracle`` on ``net``, or None if it is not linear.

    The field is linear when ``oracle`` is an ``OracleSpec`` whose g is
    ``zero`` or ``scale`` on every type of a cell and whose h is
    ``neighbor`` or ``diffusive`` on every type pair that carries an edge.
    The RK4 propagator and the map step both decide here. A pair the
    oracle's registry lacks raises ``MonoidMismatch``.
    """
    if not isinstance(oracle, OracleSpec):
        return None
    n_types = len(net.type_names)
    gs = [oracle._g[i] for i in range(n_types)]
    if any(gs[i].kind not in ("zero", "scale") for i in set(net.cell_types)):
        return None
    tgt, src, codes, pairs = _flat_edges(net)
    diffusive_pairs = []
    for p in np.unique(pairs).tolist():
        pair = divmod(p, n_types)
        if pair not in oracle._h:
            oracle.registry.require(*pair)
        kind = oracle._h[pair].kind
        if kind not in ("neighbor", "diffusive"):
            return None
        if kind == "diffusive":
            diffusive_pairs.append(p)
    types = np.asarray(net.cell_types, dtype=np.int64)
    return _LinearField(
        tgt, src, codes, pairs,
        gains=_kappa_values(oracle._kappa, n_types, coded(net).values, pairs, codes, {}),
        diffusive=np.isin(pairs, diffusive_pairs),
        slope=np.asarray([g.a if g.kind == "scale" else 0.0 for g in gs])[types],
        zero_g=np.asarray([g.kind == "zero" for g in gs], dtype=bool)[types],
    )


def _by_position(rows, n: int):
    """(row, entry) index arrays of the p-th entry of every row, for each p.

    ``rows`` holds the row of each entry, ascending, so the entries of a
    row are contiguous and in order.
    """
    counts = np.bincount(rows, minlength=n)
    pos = np.arange(len(rows)) - (counts.cumsum() - counts)[rows]
    by_pos = pos.argsort(kind="stable")
    lo, out = 0, []
    for hi in np.bincount(pos).cumsum().tolist():
        at = by_pos[lo:hi]
        out.append((rows[at], at))
        lo = hi
    return out


def _linear_map_step(net: Network, oracle: Oracle):
    """One step of a linear admissible map on state arrays, or None.

    The plan is built once: the flat coded edges with their kappa values,
    a (target, source type) sort key, the diffusive edges and the per-cell
    g. A step sorts the edges by (target, source type, state) and so finds
    each row's runs of equal-state inputs; a run of several edges is
    merged in the exact monoid (``CodedNetwork.merge``, the memo
    ``row_sums`` uses) and kappa is applied to the merged code, memoised
    per (type pair, code); a run that merges to the identity adds -0.0,
    which leaves every float as it is. The terms kappa * h are then added
    to g(x) one in-row position at a time. That is the sequence of float
    operations of ``admissible_eval``, so the result is bitwise equal to it.
    """
    field = _linear_field(net, oracle)
    if field is None:
        return None
    tgt, src, codes, diffusive = field.tgt, field.src, field.codes, field.diffusive
    n_types, n_edges = len(net.type_names), len(tgt)
    any_diffusive = bool(diffusive.any())
    row_key = tgt * n_types + np.asarray(net.cell_types, dtype=np.int64)[src]
    view = coded(net)
    merge, values, kappa, memo = view.merge, view.values, oracle._kappa, {}
    unmerged = _by_position(tgt, net.n)
    boundary = np.ones(n_edges, dtype=bool)

    def merge_codes(a, b):
        width = len(values)
        distinct, inverse = np.unique(a * width + b, return_inverse=True)
        merged = [merge(*divmod(key, width)) for key in distinct.tolist()]
        return np.asarray(merged, dtype=np.int64)[inverse]

    def step(x):
        with np.errstate(over="ignore", invalid="ignore"):
            s = (x + 0.0)[src]
            order = np.lexsort((s, row_key))
            s, key = s[order], row_key[order]
            np.not_equal(key[1:], key[:-1], out=boundary[1:])
            boundary[1:] |= s[1:] != s[:-1]
            starts = boundary.nonzero()[0]
            edges = order[starts]
            h = s[starts]
            if any_diffusive:
                h = np.where(diffusive[edges], h - x[tgt[edges]], h)
            folds = unmerged
            if len(starts) < n_edges:
                sizes = np.append(starts[1:], n_edges) - starts
                long = (sizes > 1).nonzero()[0]
                first, sizes = starts[long], sizes[long]
                merged = codes[order[first]]
                for p in range(1, int(sizes.max())):
                    live = (sizes > p).nonzero()[0]
                    merged[live] = merge_codes(merged[live], codes[order[first[live] + p]])
                kv = field.gains[edges]
                sent = merged != 0
                kv[long[sent]] = _kappa_values(
                    kappa, n_types, values, field.pairs[edges[long[sent]]], merged[sent], memo
                )
                terms = kv * h
                terms[long[~sent]] = -0.0
                folds = _by_position(tgt[edges], net.n)
            else:
                terms = field.gains[edges] * h
            total = field.slope * x
            total[field.zero_g] = 0.0
            for rows, at in folds:
                total[rows] += terms[at]
        return total

    return step


def _linear_parts(net: Network, oracle: Oracle):
    """The matrix A of a linear admissible field, or None if it is not linear.

    Linearity is decided by ``_linear_field``. A is returned as (row,
    column, value) triples, repeats adding up, with one diagonal triple on
    every row.
    """
    field = _linear_field(net, oracle)
    if field is None:
        return None
    tgt, gains, diffusive = field.tgt, field.gains, field.diffusive
    diag = field.slope - np.bincount(tgt[diffusive], weights=gains[diffusive], minlength=net.n)
    cells = np.arange(net.n, dtype=np.int64)
    return (
        np.concatenate((tgt, cells)),
        np.concatenate((field.src, cells)),
        np.concatenate((gains, diag)),
    )


def _identity_plus(rows, cols, vals, n: int):
    """CSR arrays (indptr, indices, data) of I plus the summed triples."""
    cells = np.arange(n, dtype=np.int64)
    keys, inverse = np.unique(
        np.concatenate((rows, cells)) * n + np.concatenate((cols, cells)), return_inverse=True
    )
    data = np.bincount(inverse, weights=np.concatenate((vals, np.ones(n))))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n, data


def _product(rows, cols, vals, csr):
    """The triples of (triples) @ (CSR matrix), one per multiplied pair."""
    indptr, indices, data = csr
    counts = indptr[cols + 1] - indptr[cols]
    ends = np.cumsum(counts)
    pos = np.repeat(indptr[cols] - (ends - counts), counts) + np.arange(ends[-1])
    return np.repeat(rows, counts), indices[pos], np.repeat(vals, counts) * data[pos]


def _rk4_propagator(net: Network, oracle: Oracle, dt: float):
    """One RK4 step of a linear field as a CSR matrix, or None if not linear.

    For x' = Ax a classical RK4 step is exactly x -> Mx with
    M = I + hA(I + h/2 A(I + h/3 A(I + h/4 A))); the Horner form is built
    from sparse products, so nothing of size n x n is ever allocated and
    every row keeps its diagonal entry.
    """
    parts = _linear_parts(net, oracle)
    if parts is None:
        return None
    rows, cols, vals = parts
    with np.errstate(over="ignore", invalid="ignore"):
        m = _identity_plus(rows, cols, vals * (dt / 4.0), net.n)
        for h in (dt / 3.0, dt / 2.0, dt):
            m = _identity_plus(*_product(rows, cols, vals * h, m), net.n)
    return m


def _check_times(t_end: float, dt: float) -> int:
    """The number of RK4 steps to t_end; rejects times that name no grid."""
    if not dt > 0 or not math.isfinite(dt):
        raise DimensionMismatch("dt must be positive and finite")
    if not t_end >= 0 or not math.isfinite(t_end):
        raise DimensionMismatch("t_end must be finite and non-negative")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise SizeLimitError(f"t_end / dt = {t_end!r} / {dt!r} is beyond the float range")
    return int(round(steps))


def _integrate_rk4(net: Network, oracle: Oracle, x0, t_end: float, dt: float) -> np.ndarray:
    """RK4 sweep returning the whole orbit as a (steps+1, n) array.

    Linear fields step with their propagator, three array calls per step,
    and the orbit is checked for non-finite states once at the end; any
    other field is evaluated stage by stage through ``admissible_eval``.
    """
    steps = _check_times(t_end, dt)
    x = np.asarray([float(v) for v in x0], dtype=np.float64)
    if x.shape[0] != net.n:
        raise DimensionMismatch(f"x0 has {x.shape[0]} entries, network has {net.n} cells")
    if not np.isfinite(x).all():
        raise SimulationDiverged(0)
    try:
        out = np.empty((steps + 1, net.n), dtype=np.float64)
    except (MemoryError, OverflowError, ValueError):
        raise SizeLimitError(
            f"an orbit of {steps} steps of {net.n} cells does not fit in memory"
        ) from None
    out[0] = x
    prop = _rk4_propagator(net, oracle, dt)
    if prop is not None:
        indptr, cols, data = prop
        starts = indptr[:-1]
        buf = np.empty(len(cols))
        reduceat = np.add.reduceat
        with np.errstate(over="ignore", invalid="ignore"):
            for state, following in zip(out, out[1:]):
                state.take(cols, out=buf)
                buf *= data
                reduceat(buf, starts, out=following)
            finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise SimulationDiverged(int(finite.argmin()))
        return out

    def rhs(state):
        return np.asarray(admissible_eval(net, oracle, state.tolist()))

    half = dt / 2.0
    sixth = dt / 6.0
    for n in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise SimulationDiverged(n + 1)
        out[n + 1] = x
    return out


def simulate_ode(net: Network, oracle: Oracle, x0, t_end: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 with the admissible vector field."""
    orbit = _integrate_rk4(net, oracle, x0, t_end, dt)
    times = tuple(n * float(dt) for n in range(orbit.shape[0]))
    return Trajectory(times=times, states=tuple(map(tuple, orbit.tolist())), kind="ode")


def quotient_match(
    net: Network,
    partition: Partition,
    oracle: Oracle,
    reduced0,
    horizon: float = 10.0,
    dt: float = 1e-3,
    mode: str = "ode",
    steps: int = 100,
) -> float:
    """Max deviation between the full orbit from a synchronized start and
    the lifted orbit of the quotient network under the same oracle."""
    qres = quotient(net, partition)
    reduced0 = [float(v) for v in reduced0]
    x0 = lift(partition, reduced0)
    if mode == "map":
        full_arr = np.asarray(simulate_map(net, oracle, x0, steps).states)
        red_arr = np.asarray(simulate_map(qres.quotient, oracle, reduced0, steps).states)
    elif mode == "ode":
        full_arr = _integrate_rk4(net, oracle, x0, horizon, dt)
        red_arr = _integrate_rk4(qres.quotient, oracle, reduced0, horizon, dt)
    else:
        raise ValueError(f"mode must be 'map' or 'ode', got {mode!r}")
    lift_idx = [c - 1 for c in partition.colors]
    return float(np.max(np.abs(full_arr - red_arr[:, lift_idx])))


# -- witnesses and linearity -------------------------------------------------


def unbalance_witness(net: Network, partition: Partition):
    """A (oracle, state) pair proving an unbalanced coloring is not invariant.

    The state lies on the coloring's polydiagonal with the offending color's
    value distinct from all others; the indicator oracle separates the two
    cells whose per-color sums differ. Raises WitnessError when the coloring
    is balanced (then no admissible map can leave the polydiagonal).
    """
    result = is_balanced(net, partition)
    if result.balanced:
        raise WitnessError("partition is balanced; no witness exists")
    c_id, d_id, k = result.counterexample
    c = net.index(c_id)
    i = net.cell_types[c]
    j = _color_types(net, partition)[k - 1]
    spec = net.registry.require(i, j)
    target_sum = row_signature(net, partition, c_id).sums[k - 1]
    reduced = [1.0 + l for l in range(partition.rank)]
    oracle = IndicatorOracle(
        target_type=i,
        source_type=j,
        spec=spec,
        target_state=reduced[k - 1],
        target_sum=target_sum,
    )
    return oracle, lift(partition, reduced)


@dataclass(frozen=True)
class LinearityReport:
    additive_deviation: float
    homogeneous_deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return (
            self.additive_deviation <= self.tolerance
            and self.homogeneous_deviation <= self.tolerance
        )


def linearity_check(
    net: Network,
    oracle_a: Oracle,
    oracle_b: Oracle,
    samples: int = 20,
    rng: random.Random | None = None,
    tolerance: float = 1e-12,
) -> LinearityReport:
    """Evaluation at a network is linear in the oracle: sums and scalings
    of oracles evaluate to sums and scalings of the outputs."""
    rng = rng or random.Random(0)
    add_dev = 0.0
    hom_dev = 0.0
    for _ in range(samples):
        x = [rng.uniform(-2, 2) for _ in range(net.n)]
        alpha = rng.uniform(-3, 3)
        both = admissible_eval(net, oracle_a + oracle_b, x)
        fa = admissible_eval(net, oracle_a, x)
        fb = admissible_eval(net, oracle_b, x)
        add_dev = max(
            add_dev, max(abs(s - (p + q)) for s, p, q in zip(both, fa, fb))
        )
        scaled = admissible_eval(net, alpha * oracle_a, x)
        hom_dev = max(
            hom_dev, max(abs(s - alpha * p) for s, p in zip(scaled, fa))
        )
    return LinearityReport(add_dev, hom_dev, tolerance)


# -- CLI-facing plumbing -----------------------------------------------------


def trajectory_csv(traj: Trajectory, cells) -> str:
    """One row per time point: t (or step) followed by one column per cell."""
    head = "t" if traj.kind == "ode" else "n"
    lines = [",".join([head, *cells])]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join([repr(t) if traj.kind == "ode" else str(t), *[repr(v) for v in state]]))
    return "\n".join(lines) + "\n"


# Per oracle section: type-name fields, default kind, numeric parameters per kind.
_ORACLE_SECTIONS = {
    "g": (("type",), "zero", {"zero": (), "scale": ("a",)}),
    "kappa": (("target_type", "source_type"), "natural", {"natural": ("scale",)}),
    "h": (("target_type", "source_type"), "neighbor", {"neighbor": (), "diffusive": ()}),
}


def _oracle_entries(obj, net: Network, section: str):
    """Check each entry of one oracle section; yields (type key, kind, parameters)."""
    name_fields, default_kind, kinds = _ORACLE_SECTIONS[section]
    entries = obj.get(section, [])
    if not isinstance(entries, list):
        raise SchemaError(f"oracle field {section!r} must be a list")
    name_to_idx = {name: i for i, name in enumerate(net.type_names)}
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"{section}[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        kind = entry.get("kind", default_kind)
        if not isinstance(kind, str) or kind not in kinds:
            raise SchemaError(f"{where}: unknown kind {kind!r} (use {' or '.join(kinds)})")
        extra = entry.keys() - {"kind", *name_fields, *kinds[kind]}
        if extra:
            raise SchemaError(
                f"{where}: unexpected key(s) {', '.join(sorted(map(repr, extra)))} "
                f"for {section} kind {kind!r}"
            )
        names = [entry.get(field) for field in name_fields]
        for field, name in zip(name_fields, names):
            if not isinstance(name, str) or name not in name_to_idx:
                raise SchemaError(f"{where}.{field} must name a type, got {name!r}")
        key = tuple(name_to_idx[name] for name in names)
        if len(key) == 2 and net.registry.get(*key) is None:
            raise SchemaError(f"{where}: no monoid is registered for this type pair")
        if key in seen:
            what = f"type {names[0]!r}" if len(key) == 1 else f"pair ({names[0]!r}, {names[1]!r})"
            raise SchemaError(f"{where}: duplicate entry for {what}")
        seen.add(key)
        params = {field: entry[field] for field in kinds[kind] if field in entry}
        for field, value in params.items():  # bool is a subclass of int, not int itself
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise SchemaError(f"{where}.{field} must be a finite number, got {value!r}")
        yield key, kind, {field: float(value) for field, value in params.items()}


def parse_oracle_json(obj, net: Network) -> OracleSpec:
    """Build an OracleSpec from its JSON description.

    {"g": [{"type", "kind"?, "a"?}...],
     "kappa": [{"target_type", "source_type", "kind"?, "scale"?}...],
     "h": [{"target_type", "source_type", "kind"?}...]}

    Everything is optional; defaults are zero internal dynamics, natural
    kappa with scale 1 and neighbor coupling. An entry holds exactly the
    keys of its kind (``a`` only with g kind ``scale``), names a type or a
    registered type pair by strings, and gives finite numbers, not
    booleans; a type in ``g`` or a pair in ``kappa`` or ``h`` appears at
    most once. Anything else is one ``SchemaError`` naming the entry.
    """
    if not isinstance(obj, dict):
        raise SchemaError("oracle file must hold a JSON object")
    unknown = set(obj) - set(_ORACLE_SECTIONS)
    if unknown:
        raise SchemaError(f"unknown oracle fields {sorted(unknown)}")
    g = {i: GFunc(kind, a=p.get("a", 0.0)) for (i,), kind, p in _oracle_entries(obj, net, "g")}
    kappa = {
        pair: _scaled_kappa(net.registry.require(*pair), p.get("scale", 1.0))
        for pair, _, p in _oracle_entries(obj, net, "kappa")
    }
    h = {pair: Coupling(kind) for pair, kind, _ in _oracle_entries(obj, net, "h")}
    return OracleSpec(net.registry, len(net.type_names), g=g, kappa=kappa, h=h)


def parse_oracle(text: str, net: Network) -> OracleSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid oracle JSON: {exc.msg} (line {exc.lineno})") from None
    except (ValueError, RecursionError) as exc:  # over-long integer literal, too deep nesting
        raise SchemaError(f"invalid oracle JSON: {exc}") from None
    return parse_oracle_json(obj, net)
