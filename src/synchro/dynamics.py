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
terms with one ``np.add.at`` in that order, which is the order of
``admissible_eval``, so its floats are bitwise equal to it. Any other
oracle steps through ``admissible_eval`` itself. Every orbit is one array
allocated up front, so one too long to hold fails before its first step.
``simulate_map`` and map-mode ``quotient_match`` share that array loop,
``_iterate_map``, and a ``Trajectory`` holds the orbit array itself.

ODE integration is classical fixed-step RK4. When the field is linear
(g is ``zero`` or ``scale``, h is ``neighbor`` or ``diffusive``), the field
is x' = Ax and one RK4 step is exactly x -> Mx with
M = I + hA(I + h/2 A(I + h/3 A(I + h/4 A))). A is taken once as sparse
(row, column, value) triples from the coded edges, kappa evaluated once
per distinct weight (``_rk4_operator``). On networks of at most 45
cells (one dense n x n power within ``_STACK_ENTRIES``) with a finite M,
M is formed densely from a dense A and the orbit advances B steps per
``np.dot`` through its dense power stack [M; M^2; ...; M^B]
(``_power_stack``). Every other linear flow applies M to the state by
Horner on A, four scatter-adds over the triples per step, and never
forms M. The floats differ from stage-by-stage RK4 only in summation
order. Any other field is evaluated stage by stage through the
merged-input evaluation.
Exactness claims stop at the monoid algebra, never float trajectories.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from ._record import Record
from .balance import quotient, row_signature, is_balanced
from .cir import _color_types
from .coding import coded
from .errors import (
    DimensionMismatch,
    SchemaError,
    SimulationDiverged,
    SizeLimitError,
    WitnessError,
)
from .monoid import MonoidRegistry, MonoidSpec, _kind_of
from .network import Network, _read_json, _typed_entries
from .partition import Partition, lift

# -- oracle building blocks --------------------------------------------------


class GFunc(Record):
    """Internal dynamics of one cell type: ``kind`` zero | scale (``a * x``) | custom (``fn``)."""

    __slots__ = ("kind", "a", "fn")

    def __init__(self, kind="zero", a=0.0, fn=None):
        super().__init__(kind, a, fn)

    def __call__(self, x: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale":
            return self.a * x
        return self.fn(x)  # type: ignore[operator]


class Coupling(Record):
    """How a neighbor state enters the sum, ``kind`` neighbor | diffusive | custom (``fn``)."""

    __slots__ = ("kind", "fn")

    def __init__(self, kind="neighbor", fn=None):
        super().__init__(kind, fn)

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
    output of a cell of type ``type_i`` in state ``x``.
    """

    __slots__ = ()  # so that the record oracles hold no __dict__

    def evaluate(self, type_i: int, x: float, inputs) -> float:
        raise NotImplementedError


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


def linear_oracle(net: Network, *, coupling: str = "neighbor") -> OracleSpec:
    """The canonical linear oracle for a network: decay plus scaled coupling.

    g(x) = -x and the natural kappa is rescaled so the largest absolute row
    sum of coupling gains is the fixed gain 0.5. When every natural kappa is
    finite, that keeps the vector field strictly stable and the iterated map
    inside float range over short horizons. A weight whose natural kappa is ±inf
    (``SHORT``, ``ANNIHILATOR``, a NaturalMul 0) makes that row sum
    infinite: the kappa is then left unscaled, the field is not stable, and
    ``simulate_map`` raises ``SimulationDiverged`` at step 1 from any finite
    state, zero included (inf * 0 is nan).
    """
    field = _linear_field(net, coupling_oracle(net.registry, len(net.type_names)))
    rowmax = float(np.bincount(field.tgt, weights=np.abs(field.gains), minlength=net.n).max())
    scale = 0.5 / rowmax if math.isfinite(rowmax) and rowmax > 0 else 1.0
    return coupling_oracle(
        net.registry,
        len(net.type_names),
        kappa_scale=scale,
        coupling=coupling,
        self_scale=-1.0,
    )


class IndicatorOracle(Record, Oracle):
    """Two-valued oracle that fires iff the weight arriving from neighbors
    in one designated state equals a designated parallel sum.

    This is the constructive witness: for an unbalanced coloring there is a
    state on its polydiagonal that this oracle maps off the polydiagonal.
    """

    __slots__ = ("target_type", "source_type", "spec", "target_state", "target_sum")

    def evaluate(self, type_i, x, inputs):
        if type_i != self.target_type:
            return 0.0
        total = self.spec.identity
        for j, w, y in inputs:
            if j == self.source_type and y == self.target_state:
                total = self.spec.combine(total, w)
        return 1.0 if total == self.target_sum else 0.0


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


# -- simulation --------------------------------------------------------------


class Trajectory(Record):
    """A uniformly sampled orbit of ``kind`` map | ode: one state row per time in ``times``.

    ``states`` is the read-only (len, n) float64 orbit array; its
    ``tolist()`` gives the rows as lists of Python floats. Trajectories
    compare and hash by identity, as == on arrays has no single truth value.
    """

    __slots__ = ("times", "states", "kind")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self):
        return len(self.states)


def _orbit_buffer(net: Network, x0, rows: int, steps: int) -> np.ndarray:
    """A (rows, n) orbit array starting at x0, checked to hold one finite value
    per cell; an array too large to allocate is a ``SizeLimitError``."""
    x = np.asarray([float(v) for v in x0], dtype=np.float64)
    if x.shape[0] != net.n:
        raise DimensionMismatch(f"x0 has {x.shape[0]} entries, network has {net.n} cells")
    if not np.isfinite(x).all():
        raise SimulationDiverged(0)
    try:
        out = np.empty((rows, net.n), dtype=np.float64)
    except (MemoryError, OverflowError, ValueError):
        raise SizeLimitError(
            f"an orbit of {steps} steps of {net.n} cells does not fit in memory"
        ) from None
    out[0] = x
    return out


def _iterate_map(net: Network, oracle: Oracle, x0, steps: int) -> np.ndarray:
    """The (steps + 1, n) orbit of the admissible map from x0; aborts on the
    first non-finite state.

    A linear ``OracleSpec`` steps through ``_linear_map_step``, any other
    oracle through ``admissible_eval``; both give the same floats.
    """
    if steps < 0:
        raise DimensionMismatch("steps must be non-negative")
    out = _orbit_buffer(net, x0, steps + 1, steps)
    step = _linear_map_step(net, oracle) or (
        lambda state: admissible_eval(net, oracle, state.tolist())
    )
    for n in range(steps):
        out[n + 1] = step(out[n])
        if not np.isfinite(out[n + 1]).all():
            raise SimulationDiverged(n + 1)
    return out


def simulate_map(net: Network, oracle: Oracle, x0, steps: int) -> Trajectory:
    """Iterate the admissible map; aborts on the first non-finite state."""
    orbit = _iterate_map(net, oracle, x0, steps)
    orbit.flags.writeable = False
    return Trajectory(times=tuple(range(steps + 1)), states=orbit, kind="map")


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


class _LinearField(Record):
    """The flat coded edges and the per-cell g of a linear admissible field.

    Fields are arrays; edge arrays come in row order (targets ascending,
    then sources). A type pair is the id target type * n_types + source
    type, and ``gains`` holds kappa of each edge's own weight. ``slope`` is
    the ``a`` of g ``scale`` and 0.0 for g ``zero``, which ``zero_g`` marks.
    """

    __slots__ = ("tgt", "src", "codes", "pairs", "gains", "diffusive", "slope", "zero_g")


def _linear_field(net: Network, oracle: Oracle) -> _LinearField | None:
    """The linear field of ``oracle`` on ``net``, or None if it is not linear.

    The field is linear when ``oracle`` is an ``OracleSpec`` whose g is
    ``zero`` or ``scale`` on every type of a cell and whose h is
    ``neighbor`` or ``diffusive`` on every type pair that carries an edge.
    The RK4 operator and the map step both decide here. A pair the
    oracle's registry lacks raises ``MonoidMismatch``.
    """
    if not isinstance(oracle, OracleSpec):
        return None
    n_types = len(net.type_names)
    gs = [oracle._g[i] for i in range(n_types)]
    if any(gs[i].kind not in ("zero", "scale") for i in set(net.cell_types)):
        return None
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
    pairs = types[tgt] * n_types + types[src]
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
    return _LinearField(
        tgt, src, codes, pairs,
        gains=_kappa_values(oracle._kappa, n_types, view.values, pairs, codes, {}),
        diffusive=np.isin(pairs, diffusive_pairs),
        slope=np.asarray([g.a if g.kind == "scale" else 0.0 for g in gs])[types],
        zero_g=np.asarray([g.kind == "zero" for g in gs], dtype=bool)[types],
    )


def _linear_map_step(net: Network, oracle: Oracle):
    """One step of a linear admissible map on state arrays, or None.

    The plan is built once: the flat coded edges with their kappa values,
    a (target, source type) sort key, the diffusive edges and the per-cell
    g. A step sorts the edges by (target, source type, state) and so finds
    each row's runs of equal-state inputs; a run of several edges is
    merged in the exact monoid (``CodedNetwork.merge``, the memo
    ``row_sums`` uses) and kappa is applied to the merged code, memoised
    per (type pair, code); a run that merges to the identity adds -0.0,
    which leaves every float as it is. One ``np.add.at`` then adds the
    terms kappa * h to g(x) in that sorted order, as ``ufunc.at`` adds in
    index order. That is the sequence of float operations of
    ``admissible_eval``, so the result is bitwise equal to it.
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
            terms = field.gains[edges] * h
            if len(starts) < n_edges:
                sizes = np.append(starts[1:], n_edges) - starts
                long = (sizes > 1).nonzero()[0]
                first, sizes = starts[long], sizes[long]
                merged = codes[order[first]]
                for p in range(1, int(sizes.max())):
                    live = (sizes > p).nonzero()[0]
                    merged[live] = merge_codes(merged[live], codes[order[first[live] + p]])
                sent = merged != 0
                kv = _kappa_values(
                    kappa, n_types, values, field.pairs[edges[long[sent]]], merged[sent], memo
                )
                terms[long[sent]] = kv * h[long[sent]]
                terms[long[~sent]] = -0.0
            total = field.slope * x
            total[field.zero_g] = 0.0
            np.add.at(total, tgt[edges], terms)
        return total

    return step


def _rk4_operator(net: Network, oracle: Oracle):
    """A of a linear field x' = Ax as (row, column, value) triples, or None.

    Linearity is decided by ``_linear_field``. The triples are the coded
    edges with their kappa values, then one diagonal triple per row: the
    slope of g minus the diffusive gains of the row. Repeated (row, column)
    pairs add up.
    """
    field = _linear_field(net, oracle)
    if field is None:
        return None
    tgt, gains, diffusive = field.tgt, field.gains, field.diffusive
    cells = np.arange(net.n, dtype=np.int64)
    diag = field.slope - np.bincount(tgt[diffusive], weights=gains[diffusive], minlength=net.n)
    rows, cols = np.concatenate((tgt, cells)), np.concatenate((field.src, cells))
    return rows, cols, np.concatenate((gains, diag))


# The most entries the dense stack [M; M^2; ...; M^B] may hold. On 10,000-
# step corpus orbits under ``np.dot``, 1024 ran 1.1-1.3x slower and 8192
# 10-20 % faster, but 8192 stacks up to 90 cells and takes B to 512.
_STACK_ENTRIES = 2048


def _power_stack(a, n: int, dt: float):
    """The stack [M; M^2; ...; M^B] of one RK4 step of x' = Ax as a dense
    (B*n) x n array, or None (the flow steps on A itself) when one dense
    n x n power would exceed ``_STACK_ENTRIES`` or M has a non-finite entry.

    A comes as the triples of ``_rk4_operator``, scattered into a dense
    array. M - I = hA(I + h/2 A(I + h/3 A(I + h/4 A))) is formed by dense
    products; the stack doubles, S_2k = [S_k; S_k M^k], while every new
    power is finite and B * n * n stays within ``_STACK_ENTRIES``. The
    powers are carried as D_k = M^k - I, D_j+k = D_j + D_k + D_j D_k, so
    rounding scales with D and not with the unit diagonal. B depends on A
    and dt alone.
    """
    if n * n > _STACK_ENTRIES:
        return None
    rows, cols, vals = a
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    cells = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = dense * (dt / 4.0)
        for h in (dt / 3.0, dt / 2.0, dt):
            scaled = dense * h
            delta = scaled + scaled @ delta
        if not np.isfinite(delta).all():
            return None
        deltas = delta[np.newaxis]
        while 2 * deltas.size <= _STACK_ENTRIES:
            doubled = deltas + deltas[-1] + deltas @ deltas[-1]
            if not np.isfinite(doubled).all():
                break
            deltas = np.concatenate((deltas, doubled))
    deltas[:, cells, cells] += 1.0
    return deltas.reshape(-1, n)


def _check_times(t_end: float, dt: float) -> int:
    """The number of RK4 steps to t_end. A ``t_end / dt`` more than 1e-9 (relative)
    off a whole number is a ``DimensionMismatch`` naming the two nearest grid times."""
    if not dt > 0 or not math.isfinite(dt):
        raise DimensionMismatch("dt must be positive and finite")
    if not t_end >= 0 or not math.isfinite(t_end):
        raise DimensionMismatch("t_end must be finite and non-negative")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise SizeLimitError(f"t_end / dt = {t_end!r} / {dt!r} is beyond the float range")
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * steps:
        below = math.floor(steps)
        raise DimensionMismatch(
            f"t_end {t_end!r} is not a whole number of steps of dt {dt!r}; the nearest"
            f" grid times are {below * dt:.12g} and {(below + 1) * dt:.12g}"
        )
    return whole


def _integrate_rk4(net: Network, oracle: Oracle, x0, t_end: float, dt: float) -> np.ndarray:
    """RK4 sweep returning the whole orbit as a (steps+1, n) array.

    A linear field with a dense power stack writes each block of B rows
    with one ``np.dot`` of the stack and the state that ends the block
    before. Without one, each step applies M to the state x by Horner on
    A, x + hA(x + h/2 A(x + h/3 A(x + h/4 Ax))): each of the four stages
    gathers the previous stage at the columns of A, multiplies by the
    values of A times the stage's step, sums per row with ``np.bincount``
    and adds x, so nothing n x n is formed. The orbit array has room for
    a last whole block (B * n is at most ``_STACK_ENTRIES``) whose rows
    past the last step are dropped; B never depends on t_end, so the
    orbit to an earlier time is bitwise a prefix of the orbit to a later
    one. The kept rows are checked for non-finite states once at the end.
    Any other field is evaluated stage by stage through
    ``admissible_eval``.
    """
    steps = _check_times(t_end, dt)
    out = _orbit_buffer(net, x0, steps + max(1, _STACK_ENTRIES // net.n), steps)
    a = _rk4_operator(net, oracle)
    if a is not None:
        stack = _power_stack(a, net.n, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            if stack is None:
                rows, cols, vals = a
                stages = [vals * h for h in (dt / 4.0, dt / 3.0, dt / 2.0, dt)]
                terms = np.empty(len(vals))
                for state, nxt in zip(out[:steps], out[1 : steps + 1]):
                    acc = state
                    for scaled in stages:
                        np.multiply(acc.take(cols), scaled, out=terms)
                        acc = np.add(state, np.bincount(rows, terms, net.n), out=nxt)
            else:
                depth = len(stack) // net.n
                blocks = -(-steps // depth)
                sources = out[: blocks * depth : depth]
                following = out[1 : blocks * depth + 1].reshape(blocks, depth * net.n)
                for state, rows in zip(sources, following):
                    np.dot(stack, state, out=rows)
        out = out[: steps + 1]
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise SimulationDiverged(int(finite.argmin()))
        return out

    x = out[0]

    def rhs(state):
        return np.asarray(admissible_eval(net, oracle, state.tolist()))

    half, sixth = dt / 2.0, dt / 6.0
    for n in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise SimulationDiverged(n + 1)
        out[n + 1] = x
    return out[: steps + 1]


def simulate_ode(net: Network, oracle: Oracle, x0, t_end: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 with the admissible vector field."""
    orbit = _integrate_rk4(net, oracle, x0, t_end, dt)
    orbit.flags.writeable = False
    times = tuple(n * float(dt) for n in range(orbit.shape[0]))
    return Trajectory(times=times, states=orbit, kind="ode")


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
    if mode not in ("map", "ode"):
        raise ValueError(f"mode must be 'map' or 'ode', got {mode!r}")
    q = quotient(net, partition)
    reduced0 = [float(v) for v in reduced0]
    x0 = lift(partition, reduced0)
    if mode == "map":
        full_arr = _iterate_map(net, oracle, x0, steps)
        red_arr = _iterate_map(q, oracle, reduced0, steps)
    else:
        full_arr = _integrate_rk4(net, oracle, x0, horizon, dt)
        red_arr = _integrate_rk4(q, oracle, reduced0, horizon, dt)
    lift_idx = [c - 1 for c in partition.colors]
    return float(np.max(np.abs(full_arr - red_arr[:, lift_idx])))


# -- witnesses ---------------------------------------------------------------


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
    target_sum = row_signature(net, partition, c_id)[k - 1]
    reduced = [1.0 + l for l in range(partition.rank)]
    oracle = IndicatorOracle(
        target_type=i,
        source_type=j,
        spec=spec,
        target_state=reduced[k - 1],
        target_sum=target_sum,
    )
    return oracle, lift(partition, reduced)


# -- CLI-facing plumbing -----------------------------------------------------


def _csv_field(text: str) -> str:
    """A cell id as a CSV field: ids hold no ``,``, so only one that holds
    ``"``, CR or LF is quoted, the RFC 4180 way."""
    if '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def trajectory_csv(traj: Trajectory, cells):
    """Yields the CSV lines, newline included: a header, then per time point
    t (or step) and one column per cell, each value printed as its ``repr``.

    A row with at most half as many distinct values as cells, such as a
    row of a synchronized orbit, formats each distinct value once and maps
    the cells through that table: equal nonzero floats have the same bits,
    so the same ``repr``. 0.0 and -0.0 compare equal and share one key, so
    the cells holding a zero are then formatted on their own.
    """
    head, stamp = ("t", repr) if traj.kind == "ode" else ("n", str)
    yield ",".join([head, *map(_csv_field, cells)]) + "\n"
    for t, row in zip(traj.times, traj.states):
        state = row.tolist()
        distinct = dict.fromkeys(state)
        if 2 * len(distinct) <= len(state):
            text = dict(zip(distinct, map(repr, distinct)))
            cols = list(map(text.__getitem__, state))
            if 0.0 in text:  # one key for both zeros: print each zero itself
                for i in np.flatnonzero(row == 0.0).tolist():
                    cols[i] = repr(state[i])
        else:
            cols = map(repr, state)
        yield ",".join((stamp(t), *cols)) + "\n"


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
    for where, key, entry in _typed_entries(entries, section, net.type_names, name_fields):
        try:
            kind = _kind_of(entry, kinds, section, default_kind, name_fields)
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        if len(key) == 2 and net.registry.get(*key) is None:
            raise SchemaError(f"{where}: no monoid is registered for this type pair")
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
    return parse_oracle_json(_read_json(text), net)
