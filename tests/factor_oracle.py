"""Factor consistency of type actions, the test oracle for critical levels.

Restricting types from level k' down to level k (k <= k') maps the
level-k' action of every composed operation to its level-k action.
Level k determines level k' when that map is a bijection on the terms
of the generated clone: equal high tables must have equal low tables
("well-defined") and equal low tables equal high tables ("injective").
An "injective" violation is two terms that act alike at level k but
apart at level k', so level k is below the critical level.

Finite generators are closed by `clones.generate`; order terms by
substitution, one guarded round per depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

from clonelab.canonical import Operation, _require_matching, type_table
from clonelab.clones import Table, generate
from clonelab.config import Caps, DEFAULT_CAPS, guard
from clonelab.errors import InconsistentData
from clonelab.orderterms import Coord, OrderTerm, substitute, term_arity
from clonelab.structures import FiniteStructure, Structure, type_space


@dataclass(frozen=True)
class FactorViolation:
    term_a: object
    term_b: object
    direction: str  # "well-defined" or "injective"


@dataclass(frozen=True)
class FactorReport:
    consistent: bool
    k: int
    k_prime: int
    checked: int
    violations: tuple[FactorViolation, ...]


def check_table_correspondence(
    pairs: Sequence[tuple[object, Table, Table]], k: int, k_prime: int
) -> FactorReport:
    """Verify the map (level-k' table) -> (level-k table) is a bijection
    on the given (term, high table, low table) triples."""
    violations = []
    by_high: dict[Table, tuple[object, Table]] = {}
    by_low: dict[Table, tuple[object, Table]] = {}
    for term, high, low in pairs:
        if high in by_high:
            other_term, other_low = by_high[high]
            if other_low != low:
                violations.append(FactorViolation(other_term, term, "well-defined"))
        else:
            by_high[high] = (term, low)
        if low in by_low:
            other_term, other_high = by_low[low]
            if other_high != high:
                violations.append(FactorViolation(other_term, term, "injective"))
        else:
            by_low[low] = (term, high)
    return FactorReport(not violations, k, k_prime, len(pairs), tuple(violations))


def check_factor_isomorphism(
    generators: Sequence[Operation],
    structure: Structure,
    k: int,
    k_prime: int,
    depth_cap: int = 3,
    caps: Caps = DEFAULT_CAPS,
) -> FactorReport:
    """Desk-scale check that restriction from level k' to level k is a
    bijection between the type actions of all composed operations up to
    the depth cap (k <= k').  A composition round that would substitute
    more than `caps.catalog_cap` times raises CapExceeded first."""
    if k > k_prime:
        raise InconsistentData("restriction goes from the higher level down")
    if not generators:
        raise InconsistentData("need at least one generator")
    for g in generators:
        _require_matching(g.body, structure)
    n = max(g.arity for g in generators)
    if isinstance(structure, FiniteStructure):
        clone = generate(
            [(g.name, g.body) for g in generators],
            structure.domain_size,
            replace(caps, arity_cap=n, depth_cap=depth_cap),
        )
        labelled = (
            (str(entry.term), Operation("t", n, entry.table))
            for entry in clone.catalog(n)
        )
        return _type_correspondence(labelled, structure, k, k_prime, caps)
    layers: list[list[OrderTerm]] = [[Coord(i) for i in range(1, n + 1)]]
    seen: set[OrderTerm] = set(layers[0])
    for _ in range(depth_cap):
        previous = [t for layer in layers for t in layer]
        substitutions = sum(len(previous) ** g.arity for g in generators)
        guard(substitutions, caps.catalog_cap, "order-term closure round")
        fresh = []
        for g in generators:
            for children in itertools.product(previous, repeat=g.arity):
                candidate = substitute(g.body, children)
                if candidate not in seen:
                    seen.add(candidate)
                    fresh.append(candidate)
        layers.append(fresh)
    labelled = (
        (term, Operation("t", max(term_arity(term), 1), term))
        for term in sorted(seen, key=str)
    )
    return _type_correspondence(labelled, structure, k, k_prime, caps)


def _type_correspondence(labelled, structure, k, k_prime, caps):
    high_space = type_space(structure, k_prime, caps)
    low_space = type_space(structure, k, caps)
    pairs = []
    for label, op in labelled:
        high = type_table(op.body, op.arity, high_space, caps)
        low = type_table(op.body, op.arity, low_space, caps)
        pairs.append((label, high, low))
    return check_table_correspondence(pairs, k, k_prime)
