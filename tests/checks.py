"""Reference checkers: verdicts and reports about the package's own code.

Nothing in ``synchro`` runs these; the tests hold the package to them:
monoid law fuzzing, oracle self-consistency fuzzing, linearity of
evaluation in the oracle, transitivity of quotients, and brute-force
enumeration of balanced colorings over ``all_candidates``, every partition
below the type partition. Balance is decided there on carrier values
(``ref_sums``, ``ref_counterexample``), never on the engine's weight
codes. Random draws come from ``random.Random(0)``;
weights are drawn by ``sample_element`` and oracles are added and scaled
by ``Combination``.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from synchro import (
    ANNIHILATOR, Network, Oracle, Partition, SizeLimitError, admissible_eval, compose, quotient,
)

BRUTE_FORCE_LIMIT = 12
LINEARITY_TOLERANCE = 1e-12


# -- monoid laws -------------------------------------------------------------


def sample_element(spec, rng):
    """A random carrier element of a shipped ``spec``, drawn by ``rng``.

    Product parts are drawn in order and a ``with_annihilator`` element is
    the annihilator with probability 0.15, else an inner draw.
    """
    kind = spec.kind
    if kind == "resistor_parallel":
        pool = ["inf", "inf", 10, 15, 20, 30, 60, Fraction(1, 3), Fraction(45, 2), 0]
        return spec.from_resistance(pool[rng.randrange(len(pool))])
    if kind == "natural_add":
        return rng.randrange(0, 9)
    if kind == "natural_mul":
        return rng.choice([0, 1, 1, 2, 2, 3, 5, 7])
    if kind == "free_commutative":
        alphabet = spec.generators or ("a", "b", "c")
        counts = {}
        for _ in range(rng.randrange(0, 4)):
            label = alphabet[rng.randrange(len(alphabet))]
            counts[label] = counts.get(label, 0) + 1
        return spec.from_counts(counts)
    if kind == "product":
        return tuple(sample_element(p, rng) for p in spec.parts)
    if kind == "with_annihilator":
        if rng.random() < 0.15:
            return ANNIHILATOR
        return sample_element(spec.inner, rng)
    raise TypeError(f"no sampler for {spec.describe()}; pass samples= instead")


class LawViolation(NamedTuple):
    law: str
    operands: tuple
    left: object
    right: object


class LawCheckReport(NamedTuple):
    spec: object
    trials: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def law_check(spec, samples=None, trials: int = 1000) -> LawCheckReport:
    """Fuzz associativity, commutativity, identity and absorption.

    Operands come from ``samples`` or ``sample_element``. Shipped specs must
    come back clean; a broken spec (e.g. subtraction as combine) gets its
    violation reported with the operands.
    """
    rng = random.Random(0)

    def pick():
        if samples:
            return samples[rng.randrange(len(samples))]
        return sample_element(spec, rng)

    violations = []
    annihilator = spec.annihilator
    for _ in range(trials):
        a, b, c = pick(), pick(), pick()
        ab = spec._combine(a, b)
        ba = spec._combine(b, a)
        if ab != ba:
            violations.append(LawViolation("commutativity", (a, b), ab, ba))
        left = spec._combine(ab, c)
        right = spec._combine(a, spec._combine(b, c))
        if left != right:
            violations.append(LawViolation("associativity", (a, b, c), left, right))
        if spec._combine(a, spec.identity) != a:
            violations.append(
                LawViolation("identity", (a,), spec._combine(a, spec.identity), a)
            )
        if annihilator is not None and spec._combine(a, annihilator) != annihilator:
            violations.append(
                LawViolation("absorption", (a,), spec._combine(a, annihilator), annihilator)
            )
    return LawCheckReport(spec, trials, tuple(violations))


# -- oracles -----------------------------------------------------------------


class ConsistencyViolation(NamedTuple):
    """One broken rule, ``law`` merge | zero_removal, with both evaluations."""

    law: str
    type_pair: tuple
    raw_inputs: tuple
    reduced_inputs: tuple
    raw_value: float
    reduced_value: float


class ConsistencyReport(NamedTuple):
    trials: int
    skipped: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def oracle_consistency_check(oracle, trials: int = 1000, pairs=None) -> ConsistencyReport:
    """Fuzz the merge and zero-removal rules.

    Random neighborhoods with deliberately repeated states are evaluated
    raw and merged through the monoid; both must agree. Inserting
    zero-weight inputs must change nothing either. Trials with non-finite
    outputs are skipped as uninformative. ``pairs`` lists the (target type,
    source type, spec) triples to draw from; by default they are the
    oracle's registry pairs.
    """
    rng = random.Random(0)
    if pairs is None:
        pairs = [(i, j, spec) for (i, j), spec in oracle.registry.pairs()]
    violations: list[ConsistencyViolation] = []
    skipped = 0
    for _ in range(trials):
        i, j, spec = pairs[rng.randrange(len(pairs))]
        x_self = rng.uniform(-3, 3)
        states = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 3))]
        raw = []
        for _ in range(rng.randint(1, 4)):
            raw.append((j, sample_element(spec, rng), states[rng.randrange(len(states))]))

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
    return ConsistencyReport(trials, skipped, tuple(violations))


class Combination(Oracle):
    """The oracle ``sum(alpha * f)`` over its (alpha, f) ``terms``, pointwise."""

    __slots__ = ("terms",)

    def __init__(self, *terms):
        self.terms = terms

    def evaluate(self, type_i, x, inputs):
        return sum(alpha * f.evaluate(type_i, x, inputs) for alpha, f in self.terms)


class LinearityReport(NamedTuple):
    additive_deviation: float
    homogeneous_deviation: float

    @property
    def ok(self) -> bool:
        """Both deviations within ``LINEARITY_TOLERANCE``; a NaN one fails."""
        tol = LINEARITY_TOLERANCE
        return self.additive_deviation <= tol and self.homogeneous_deviation <= tol


def linearity_check(net: Network, oracle_a, oracle_b) -> LinearityReport:
    """Evaluation at a network is linear in the oracle: sums and scalings
    of oracles evaluate to sums and scalings of the outputs, at 20 states.

    Each deviation is the largest over all states and cells; a non-finite
    output makes it NaN or infinite, so ``ok`` is False.
    """
    rng = random.Random(0)
    additive, homogeneous = [], []
    for _ in range(20):
        x = [rng.uniform(-2, 2) for _ in range(net.n)]
        alpha = rng.uniform(-3, 3)
        both = admissible_eval(net, Combination((1.0, oracle_a), (1.0, oracle_b)), x)
        fa = admissible_eval(net, oracle_a, x)
        fb = admissible_eval(net, oracle_b, x)
        additive.extend(abs(s - (p + q)) for s, p, q in zip(both, fa, fb))
        scaled = admissible_eval(net, Combination((alpha, oracle_a)), x)
        homogeneous.extend(abs(s - alpha * p) for s, p in zip(scaled, fa))
    return LinearityReport(_worst(additive), _worst(homogeneous))


def _worst(deviations: list[float]) -> float:
    """The largest deviation, or NaN if one is NaN (``max`` may drop a NaN)."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations, default=0.0)


# -- quotients and balance ---------------------------------------------------


class TransitivityReport(NamedTuple):
    ok: bool
    via_two_steps: Network
    direct: Network
    composed: Partition


def check_transitivity(net: Network, first: Partition, second: Partition) -> TransitivityReport:
    """Quotient twice versus quotient once by the composed coloring.

    ``second`` colors the quotient cells of ``quotient(net, first)``. Both
    routes must give the same network cell-for-cell; quotient ids compose
    to identical strings by construction.
    """
    step2 = quotient(quotient(net, first), second)
    combined = compose(first, second)
    direct = quotient(net, combined)
    return TransitivityReport(step2 == direct, step2, direct, combined)


def _set_partitions(items: list[int]):
    """All set partitions of ``items`` as lists of classes (Bell-many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def all_candidates(net: Network):
    """Every partition below the type partition: products of the set
    partitions of each type class, so a product of Bell numbers many."""
    blocks = [list(_set_partitions(cls)) for cls in net.type_partition().classes()]
    for combo in itertools.product(*blocks):
        yield Partition.from_classes([cls for block in combo for cls in block], net.n)


def ref_sums(net: Network, colors, c: int) -> dict:
    """Per-color parallel sums of row c as actual values; identity sums dropped."""
    sums = {}
    for d, w in net.row_items(c):
        spec, acc = sums.get(colors[d], (net.spec_for(c, d), None))
        sums[colors[d]] = (spec, w if acc is None else spec.combine(acc, w))
    return {k: v for k, (spec, v) in sums.items() if not spec.is_identity(v)}


def ref_counterexample(net: Network, colors):
    """First cell whose sums differ from its class's first cell, with the first differing color."""
    first = {}  # color -> (its first cell, that cell's sums)
    for d in range(net.n):
        sd = ref_sums(net, colors, d)
        c, sc = first.setdefault(colors[d], (d, sd))
        if sc != sd:
            color = min(k for k in sc.keys() | sd.keys() if sc.get(k) != sd.get(k))
            return net.cells[c], net.cells[d], color
    return None


def brute_force_balanced(net: Network) -> set[Partition]:
    """The candidates of ``all_candidates`` whose classes hold rows of equal
    per-color sums, compared as values (``ref_counterexample``); refuses
    networks above ``BRUTE_FORCE_LIMIT`` cells."""
    if net.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force enumeration limited to {BRUTE_FORCE_LIMIT} cells, network has {net.n}"
        )
    return {p for p in all_candidates(net) if ref_counterexample(net, p.colors) is None}
