"""Canonicity of order terms at every level, the test oracle for the pair
lemma.

`is_canonical_every_k` is the exhaustive check the library used to run
over `dlo` and `pureset`: for each k = 1..`k_max` it enumerates the
joint order patterns of all n*k argument entries, realizes each pattern
as `Fraction`s, evaluates the term into trees of pairs through
`pair_oracle.eval_pair`, types the images by their `compare_values`
ranks, and reports the first two argument lists with equal per-argument
patterns whose images differ in pattern.  The library decides at
min(`k_max`, 2) alone; both must give the same verdict, with
counterexamples that compare equal.  The grouping is spelled out here
rather than shared with `clonelab.canonical`.
"""

from __future__ import annotations

from fractions import Fraction

from clonelab.canonical import CanonicalCounterexample, CanonicalVerdict
from clonelab.config import Caps, DEFAULT_CAPS
from clonelab.orderterms import OrderTerm, require_pattern_determined, term_arity
from clonelab.structures import SymbolicStructure, joint_order_patterns, pattern_of
from pair_oracle import eval_pair, materialize


def is_canonical_every_k(
    term: OrderTerm,
    structure: SymbolicStructure,
    k_max: int,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    core = require_pattern_determined(term)
    n = max(term_arity(core), 1)
    for k in range(1, k_max + 1):
        groups: dict[tuple, tuple[tuple, object]] = {}
        for codes in joint_order_patterns(n * k, caps):
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
