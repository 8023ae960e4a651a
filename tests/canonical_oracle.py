"""Canonicity of order terms at every level, the test oracle for the pair
lemma.

`is_canonical_every_k` is the exhaustive check by the definition over
`dlo` and `pureset`: for each k = 1..`k_max` it enumerates the joint
order patterns of all n*k argument entries (its own weak-order
enumeration), realizes each pattern as `Fraction`s, evaluates the term
into trees of pairs through `pair_oracle.eval_pair`, types the images by
their `compare_values` ranks, and reports the first two argument lists
with equal per-argument patterns whose images differ in pattern.  The
library decides at min(`k_max`, 2) alone, by moving one coordinate at a
time; both must give the same verdict and `checked_up_to`.  The
grouping is spelled out here rather than shared with
`clonelab.canonical`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from clonelab.canonical import CanonicalCounterexample, CanonicalVerdict
from clonelab.orderterms import OrderTerm, require_pattern_determined, term_arity
from clonelab.structures import SymbolicStructure, pattern_of
from pair_oracle import eval_pair, materialize


def weak_orders(length: int):
    """Every rank vector of the given length, in lexicographic order: the
    vectors over range(length) whose values are 0..m for some m."""
    for codes in itertools.product(range(length), repeat=length):
        if set(codes) == set(range(max(codes, default=-1) + 1)):
            yield codes


def is_canonical_every_k(
    term: OrderTerm,
    structure: SymbolicStructure,
    k_max: int,
) -> CanonicalVerdict:
    core = require_pattern_determined(term)
    n = max(term_arity(core), 1)
    for k in range(1, k_max + 1):
        groups: dict[tuple, tuple[tuple, object]] = {}
        for codes in weak_orders(n * k):
            args = tuple(
                tuple(map(Fraction, codes[i * k : (i + 1) * k])) for i in range(n)
            )
            key = tuple(pattern_of(structure, a) for a in args)
            image = [eval_pair(core, [a[j] for a in args]) for j in range(k)]
            ranks = materialize(image)
            image_type = pattern_of(structure, [ranks[v] for v in image])
            first_args, first_type = groups.setdefault(key, (args, image_type))
            if image_type != first_type:
                return CanonicalVerdict(
                    False, k, CanonicalCounterexample(k, first_args, args)
                )
    return CanonicalVerdict(True, k_max)
