"""Commutative monoids used as edge-weight algebras.

Every carrier value is exact (rationals, integers, canonical multisets,
tuples); equality is structural, so deciding whether two weight sums agree
never touches floating point. Specs and elements are immutable values and
all operations are pure, so they are safe to share between threads.

Shipped kinds:

* ``ResistorParallel`` -- nonnegative rationals plus infinity under parallel
  composition, stored as conductances (``g = 1/r``, ``g = 0`` for the
  infinite "no edge" resistor). The zero-ohm short circuit is an annihilator.
* ``NaturalAdd`` / ``NaturalMul`` -- nonnegative integers under + and *.
* ``FreeCommutative`` -- finite multisets of string generators.
* ``ProductMonoid`` -- componentwise direct product of other specs.
* ``WithAnnihilator`` -- any spec extended with a fresh absorbing element.

A spec of another monoid subclasses ``MonoidSpec``. It states a constant
identity or annihilator as a class attribute, one that depends on its
fields as a property, and its natural kappa as a method ``_kappa``.

The convolution monoid of real functions is intentionally not shipped: its
equality is undecidable, which would make balance checking meaningless.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._record import Record
from .errors import MonoidMismatch, SchemaError, SizeLimitError


class _Named:
    """An element that is one module constant, printed, pickled and copied by its name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __reduce__(self):  # pickles and copies are the singleton itself
        return self.name


SHORT = _Named("SHORT")  # the zero-ohm resistor: infinite conductance, absorbs any parallel
ANNIHILATOR = _Named("ANNIHILATOR")  # the fresh absorbing element adjoined by WithAnnihilator


class MonoidSpec:
    """A computable commutative monoid: identity, combine, exact equality.

    A spec is a hashable value: equal specs describe the same monoid. Its
    carrier values are hashable too, and ``==`` on them is monoid equality,
    so a weight is identified by the pair (spec, value) and nothing else.
    """

    __slots__ = ()  # so that the shipped specs, slotted records, hold no __dict__
    kind: str = "abstract"
    identity: object  # the neutral element, which is also the weight of no edge
    annihilator = None  # the absorbing element, or None if this monoid has none

    def contains(self, value) -> bool:
        raise NotImplementedError

    def _combine(self, a, b):
        raise NotImplementedError

    def combine(self, a, b):
        """a ∥ b. Raises MonoidMismatch if either value is outside the carrier."""
        self.check(a)
        self.check(b)
        return self._combine(a, b)

    def check(self, value):
        if not self.contains(value):
            raise MonoidMismatch(f"{value!r} is not an element of {self.describe()}")

    def sum(self, items):
        """Fold of combine over ``items`` starting from the identity."""
        acc = self.identity
        for item in items:
            acc = self.combine(acc, item)
        return acc

    def is_identity(self, value) -> bool:
        self.check(value)
        return value == self.identity

    def describe(self) -> str:
        return self.kind

    def display(self, value) -> str:
        raise NotImplementedError

    def element_to_json(self, value):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def default_kappa(self):
        """The natural additive weight map kappa: carrier -> extended reals.

        Satisfies kappa(a ∥ b) = kappa(a) + kappa(b) and kappa(identity) = 0,
        which is exactly what makes the homomorphism-coupled oracle family
        admissible. It returns ``self._kappa``, the method each spec
        defines; products and annihilator extensions call their parts'
        ``default_kappa``, so a spec may override it instead.
        """
        return self._kappa

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return self.describe()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise MonoidMismatch(f"cannot interpret {x!r} as an exact rational")


def _natural_ok(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _printable(n: int) -> int:
    """``n`` itself, or SizeLimitError if it has more decimal digits than Python prints."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise SizeLimitError(
            f"a {n.bit_length()}-bit weight has more than {limit} decimal digits to print"
        )
    return n


def _as_float(x) -> float:
    """``float(x)``, or SizeLimitError if ``x`` is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise SizeLimitError("a weight is too large to convert to a float") from None


# Wire resistances with a larger decimal exponent are refused before Fraction
# expands them: the work grows faster than the exponent, and such values
# could not be printed back as decimal text anyway.
_MAX_EXPONENT = 4300


class ResistorParallel(Record, MonoidSpec):
    """Parallel composition of resistors, carried as exact conductances."""

    __slots__ = ()
    kind = "resistor_parallel"
    identity = Fraction(0)  # zero conductance = infinite resistance = no edge
    annihilator = SHORT

    def contains(self, value):
        if value is SHORT:
            return True
        return isinstance(value, Fraction) and value >= 0

    def _combine(self, a, b):
        if a is SHORT or b is SHORT:
            return SHORT
        return a + b

    def from_resistance(self, r):
        """Build an element from a resistance: Fraction/int/str or "inf"."""
        if r == "inf":
            return Fraction(0)
        r = _as_fraction(r)
        if r < 0:
            raise MonoidMismatch("resistance must be nonnegative")
        if r == 0:
            return SHORT
        return Fraction(1) / r

    def display(self, value) -> str:
        """The resistance as text; SizeLimitError if it has too many digits to print."""
        self.check(value)
        if value is SHORT:
            return "0"
        if value == 0:
            return "inf"
        _printable(value.numerator)
        _printable(value.denominator)
        return str(Fraction(1) / value)

    def element_to_json(self, value):
        return {"r": self.display(value)}

    def element_from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"r"} or not isinstance(obj["r"], str):
            raise SchemaError(f'resistor weight must be {{"r": "<value>"}}, got {obj!r}')
        text = obj["r"]
        try:
            _, e, exponent = text.lower().partition("e")
            if e and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
            value = self.from_resistance(text)
            self.display(value)  # must print back within the int digit limit
        except (ValueError, ZeroDivisionError, MonoidMismatch, SizeLimitError) as exc:
            raise SchemaError(f"bad resistance {text!r}: {exc}") from exc
        return value

    def _kappa(self, value):
        if value is SHORT:
            return math.inf
        return _as_float(value)


class _Natural(MonoidSpec):
    """The ``{"n": <int >= 0>}`` codec shared by both natural-number monoids."""

    __slots__ = ()

    def contains(self, value):
        return _natural_ok(value)

    def display(self, value):
        return str(_printable(value))

    def element_to_json(self, value):
        return {"n": _printable(value)}

    def element_from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"n"} or not _natural_ok(obj["n"]):
            raise SchemaError(f'natural weight must be {{"n": <int >= 0>}}, got {obj!r}')
        return obj["n"]


class NaturalAdd(Record, _Natural):
    """Nonnegative integers under addition; 0 means no edge."""

    __slots__ = ()
    kind = "natural_add"
    identity = 0
    _kappa = staticmethod(_as_float)

    def _combine(self, a, b):
        return a + b


class NaturalMul(Record, _Natural):
    """Nonnegative integers under multiplication; the identity is 1."""

    __slots__ = ()
    kind = "natural_mul"
    identity = 1
    annihilator = 0

    def _combine(self, a, b):
        return a * b

    def _kappa(self, value):
        if value == 0:
            return -math.inf
        return math.log(value)


class FreeCommutative(Record, MonoidSpec):
    """Finite multisets of string generators under multiset union.

    Elements are stored canonically as a tuple of (label, count) pairs sorted
    by label with counts >= 1, so structural equality is multiset equality.
    ``generators`` is stored sorted and deduplicated; None leaves it open.
    """

    __slots__ = ("generators",)
    kind = "free_commutative"
    identity = ()

    def __init__(self, generators=None):
        super().__init__(None if generators is None else tuple(sorted(set(generators))))

    def contains(self, value):
        if not isinstance(value, tuple):
            return False
        prev = None
        for pair in value:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return False
            label, count = pair
            if not isinstance(label, str) or not _natural_ok(count) or count == 0:
                return False
            if prev is not None and label <= prev:
                return False
            if self.generators is not None and label not in self.generators:
                return False
            prev = label
        return True

    def _combine(self, a, b):
        counts = dict(a)
        for label, count in b:
            counts[label] = counts.get(label, 0) + count
        return tuple(sorted(counts.items()))

    def from_counts(self, counts: dict) -> tuple:
        """Canonical element from a {label: multiplicity} mapping."""
        value = tuple(sorted((str(k), v) for k, v in counts.items() if v))
        self.check(value)
        return value

    def describe(self):
        if self.generators is None:
            return "free_commutative"
        return f"free_commutative({','.join(self.generators)})"

    def display(self, value):
        if not value:
            return "{}"
        return "{" + ",".join(f"{label}:{_printable(count)}" for label, count in value) + "}"

    def element_to_json(self, value):
        return {"gens": {label: _printable(count) for label, count in value}}

    def element_from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"gens"} or not isinstance(obj["gens"], dict):
            raise SchemaError(f'multiset weight must be {{"gens": {{...}}}}, got {obj!r}')
        try:
            return self.from_counts(obj["gens"])
        except MonoidMismatch as exc:
            raise SchemaError(str(exc)) from exc

    def _kappa(self, value):
        return _as_float(sum(count for _, count in value))

    def to_json(self):
        obj = {"kind": self.kind}
        if self.generators is not None:
            obj["generators"] = list(self.generators)
        return obj


class ProductMonoid(Record, MonoidSpec):
    """Direct product of other monoids, used to merge edge types; combine acts componentwise."""

    __slots__ = ("parts",)
    kind = "product"

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not parts:
            raise MonoidMismatch("product monoid needs at least one component")
        super().__init__(parts)

    @property
    def identity(self):
        return tuple(p.identity for p in self.parts)

    def contains(self, value):
        return (
            isinstance(value, tuple)
            and len(value) == len(self.parts)
            and all(p.contains(v) for p, v in zip(self.parts, value))
        )

    def _combine(self, a, b):
        return tuple(p._combine(x, y) for p, x, y in zip(self.parts, a, b))

    def describe(self):
        return "product(" + ", ".join(p.describe() for p in self.parts) + ")"

    def display(self, value):
        return "(" + ", ".join(p.display(v) for p, v in zip(self.parts, value)) + ")"

    def element_to_json(self, value):
        return {"tuple": [p.element_to_json(v) for p, v in zip(self.parts, value)]}

    def element_from_json(self, obj):
        if (
            not isinstance(obj, dict)
            or set(obj) != {"tuple"}
            or not isinstance(obj["tuple"], list)
            or len(obj["tuple"]) != len(self.parts)
        ):
            raise SchemaError(
                f'product weight must be {{"tuple": [... {len(self.parts)} entries]}}, got {obj!r}'
            )
        return tuple(p.element_from_json(v) for p, v in zip(self.parts, obj["tuple"]))

    def _kappa(self, value):
        return sum(p.default_kappa()(v) for p, v in zip(self.parts, value))

    def to_json(self):
        return {"kind": self.kind, "parts": [p.to_json() for p in self.parts]}


class WithAnnihilator(Record, MonoidSpec):
    """An existing monoid with a fresh absorbing element adjoined."""

    __slots__ = ("inner",)
    kind = "with_annihilator"
    annihilator = ANNIHILATOR

    def __init__(self, inner=NaturalAdd()):
        super().__init__(inner)

    @property
    def identity(self):
        return self.inner.identity

    def contains(self, value):
        return value is ANNIHILATOR or self.inner.contains(value)

    def _combine(self, a, b):
        if a is ANNIHILATOR or b is ANNIHILATOR:
            return ANNIHILATOR
        return self.inner._combine(a, b)

    def describe(self):
        return f"with_annihilator({self.inner.describe()})"

    def display(self, value):
        if value is ANNIHILATOR:
            return "annihilator"
        return self.inner.display(value)

    def element_to_json(self, value):
        if value is ANNIHILATOR:
            return {"annihilator": True}
        return self.inner.element_to_json(value)

    def element_from_json(self, obj):
        if isinstance(obj, dict) and "annihilator" in obj:
            if obj.keys() != {"annihilator"} or obj["annihilator"] is not True:
                raise SchemaError(f'annihilator weight must be {{"annihilator": true}}, got {obj!r}')
            return ANNIHILATOR
        return self.inner.element_from_json(obj)

    def _kappa(self, value):
        if value is ANNIHILATOR:
            return math.inf
        return self.inner.default_kappa()(value)

    def to_json(self):
        return {"kind": self.kind, "inner": self.inner.to_json()}


_KINDS = {
    "resistor_parallel": ResistorParallel,
    "natural_add": NaturalAdd,
    "natural_mul": NaturalMul,
}
# The keys each kind's JSON form may hold besides "kind".
_PARAMS = {
    **dict.fromkeys(_KINDS, frozenset()),
    "free_commutative": {"generators"},
    "product": {"parts"},
    "with_annihilator": {"inner"},
}


def _kind_of(obj: dict, params, what: str, default: str | None = None, names=()) -> str:
    """The ``kind`` tag of a tagged JSON object, ``default`` when it has none.

    ``params`` maps each allowed kind to the keys its object may hold
    besides ``kind`` and the type-name fields ``names``; any other kind or
    key is a ``SchemaError`` naming ``what`` the object describes.
    """
    kind = obj.get("kind", default)
    if not isinstance(kind, str) or kind not in params:
        raise SchemaError(f"{what} 'kind' must be one of {', '.join(params)}; got {kind!r}")
    extra = obj.keys() - {"kind", *names, *params[kind]}
    if extra:
        raise SchemaError(
            f"unexpected key(s) {', '.join(sorted(map(repr, extra)))} for {what} kind {kind!r}"
        )
    return kind


# The deepest nesting spec_from_json accepts: a product part or an inner
# spec is one level below its parent. Deeper specs would run the recursive
# methods of ProductMonoid and WithAnnihilator out of stack.
MAX_SPEC_DEPTH = 32


def spec_from_json(obj, where: str = "", depth: int = 0) -> MonoidSpec:
    """Rebuild a MonoidSpec from its tagged JSON form.

    A fault is a ``SchemaError`` whose message starts with the path to the
    spec at fault: ``where``, then ``.parts[i]`` or ``.inner`` for each
    level of nesting (no prefix for a fault in a top-level spec with an
    empty ``where``). ``depth`` is how many levels ``obj`` lies below the
    top spec; a spec more than ``MAX_SPEC_DEPTH`` levels down is refused.
    """

    def fault(message):
        return SchemaError(f"{where}: {message}" if where else message)

    def nested(part, step):
        return spec_from_json(part, f"{where}.{step}" if where else step, depth + 1)

    if depth > MAX_SPEC_DEPTH:
        raise fault(f"monoid spec nested more than {MAX_SPEC_DEPTH} levels deep")
    if not isinstance(obj, dict):
        raise fault(f"monoid spec must be an object with a 'kind', got {obj!r}")
    try:
        kind = _kind_of(obj, _PARAMS, "monoid")
    except SchemaError as exc:
        raise fault(exc) from None
    if kind in _KINDS:
        return _KINDS[kind]()
    if kind == "free_commutative":
        gens = obj.get("generators")
        if gens is not None and not (
            isinstance(gens, list) and all(isinstance(g, str) for g in gens)
        ):
            raise fault("'generators' must be a list of strings")
        return FreeCommutative(tuple(gens) if gens is not None else None)
    if kind == "product":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise fault("product monoid needs a nonempty 'parts' list")
        return ProductMonoid(tuple(nested(p, f"parts[{i}]") for i, p in enumerate(parts)))
    if "inner" not in obj:
        raise fault("with_annihilator monoid needs an 'inner' spec")
    return WithAnnihilator(nested(obj["inner"], "inner"))


class MonoidRegistry:
    """Monoid specs keyed by ordered (target type, source type) index pairs.

    Only pairs actually used by an edge must be present; a missing pair just
    means "no edges of that flavor can exist".
    """

    def __init__(self, table: dict[tuple[int, int], MonoidSpec]):
        self._table = dict(table)

    @classmethod
    def uniform(cls, spec: MonoidSpec, n_types: int) -> "MonoidRegistry":
        """The single-monoid case: one spec repeated for every type pair."""
        return cls({(i, j): spec for i in range(n_types) for j in range(n_types)})

    def get(self, i: int, j: int) -> MonoidSpec | None:
        return self._table.get((i, j))

    def require(self, i: int, j: int) -> MonoidSpec:
        spec = self._table.get((i, j))
        if spec is None:
            raise MonoidMismatch(f"no monoid registered for type pair ({i}, {j})")
        return spec

    def pairs(self):
        return sorted(self._table.items())

    def __eq__(self, other):
        if not isinstance(other, MonoidRegistry):
            return NotImplemented
        return self._table == other._table

    def __repr__(self):
        inner = ", ".join(f"{pair}: {spec.describe()}" for pair, spec in self.pairs())
        return f"MonoidRegistry({{{inner}}})"
