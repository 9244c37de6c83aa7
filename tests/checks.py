"""Reference checkers: verdicts and reports about the package's own code.

Nothing in ``synchro`` runs these; the tests hold the package to them:
monoid law fuzzing, oracle self-consistency fuzzing, linearity of
evaluation in the oracle, transitivity of quotients, and brute-force
enumeration of balanced colorings over ``all_candidates``, every partition
below the type partition. Random draws come from ``random.Random(0)``.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from synchro import Network, Partition, SizeLimitError, admissible_eval, compose, quotient
from synchro.cir import _sweep
from synchro.coding import coded

BRUTE_FORCE_LIMIT = 12
LINEARITY_TOLERANCE = 1e-12


# -- monoid laws -------------------------------------------------------------


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

    Operands come from ``samples`` or ``spec.sample``. Shipped specs must
    come back clean; a broken spec (e.g. subtraction as combine) gets its
    violation reported with the operands.
    """
    rng = random.Random(0)

    def pick():
        if samples:
            return samples[rng.randrange(len(samples))]
        return spec.sample(rng)

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
    return ConsistencyReport(trials, skipped, tuple(violations))


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
        both = admissible_eval(net, oracle_a + oracle_b, x)
        fa = admissible_eval(net, oracle_a, x)
        fb = admissible_eval(net, oracle_b, x)
        additive.extend(abs(s - (p + q)) for s, p, q in zip(both, fa, fb))
        scaled = admissible_eval(net, alpha * oracle_a, x)
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


def brute_force_balanced(net: Network) -> set[Partition]:
    """The candidates of ``all_candidates`` that one sweep splits no class of;
    refuses networks above ``BRUTE_FORCE_LIMIT`` cells."""
    if net.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force enumeration limited to {BRUTE_FORCE_LIMIT} cells, network has {net.n}"
        )
    view = coded(net)
    return {p for p in all_candidates(net) if _sweep(view, p.colors)[1] == p.rank}
