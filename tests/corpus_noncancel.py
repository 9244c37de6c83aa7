"""Deterministic corpus over non-cancellative monoids.

Same two network families as ``corpus`` (fully random sparse, and grown
from a planted balanced coloring), but every type pair carries a monoid
with an absorbing element: naturals under multiplication (0 absorbs),
additive naturals with an adjoined annihilator, and resistors whose
zero-ohm SHORT absorbs any parallel. Equal parallel sums there do not
imply equal summands (x ∥ SHORT = SHORT for every x), so an engine that
cancels or subtracts weights would disagree with exact evaluation.
"""
from __future__ import annotations

import corpus
from checks import sample_element
from synchro import NaturalAdd, NaturalMul, Network, ResistorParallel, WithAnnihilator

CORPUS_SIZE = 40

MONOIDS = (NaturalMul(), WithAnnihilator(NaturalAdd()), ResistorParallel())


def sample_weight(spec, rng):
    """A non-identity weight; absorbing elements come up often on purpose."""
    if rng.random() < 0.25:
        return spec.annihilator
    while True:
        weight = sample_element(spec, rng)
        if not spec.is_identity(weight):
            return weight


_networks: list[Network] | None = None


def corpus_networks() -> list[Network]:
    global _networks
    if _networks is None:
        _networks = [
            corpus.build_corpus_network(5000 + i, MONOIDS, sample_weight)
            for i in range(CORPUS_SIZE)
        ]
    return _networks
