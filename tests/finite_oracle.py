"""Canonicity of finite tables at every level, the test oracle for the
generator-move reduction.

`enumerated_verdict` is the exhaustive check: for each k = 1..`k_max` it
runs through every argument list over the domain (one k-tuple per
argument), groups the lists by the orbits of their arguments, and
reports the first two lists of one group whose images differ in orbit,
with the lexicographically least automorphism per argument that moves
the first list onto the second.  The automorphisms are every permutation
of the domain that keeps each relation, and the orbit of a tuple is its
images under all of them, so no orbit, generator or extension search of
`clonelab.structures` is shared.  The library reads the least splitting
level off the moves of one argument by one generator; both must give
the same verdict, `checked_up_to` and counterexample level.
"""

from __future__ import annotations

import itertools

from clonelab.canonical import CanonicalCounterexample, CanonicalVerdict
from clonelab.structures import Permutation


def brute_automorphisms(structure) -> list[tuple[int, ...]]:
    """Every permutation of the domain that maps each relation into
    itself, in lexicographic order."""
    return [
        p
        for p in itertools.permutations(range(structure.domain_size))
        if all(
            tuple(p[v] for v in t) in rel.tuples
            for rel in structure.relations
            for t in rel.tuples
        )
    ]


def orbit_ids(structure, auts, k: int) -> dict[tuple[int, ...], int]:
    """Each k-tuple's orbit, numbered in order of its least member."""
    ids: dict[tuple[int, ...], int] = {}
    count = 0
    for t in itertools.product(range(structure.domain_size), repeat=k):
        if t not in ids:
            for p in auts:
                ids.setdefault(tuple(p[v] for v in t), count)
            count += 1
    return ids


def enumerated_verdict(table, structure, k_max: int) -> CanonicalVerdict:
    auts = brute_automorphisms(structure)
    n, size = table.arity, structure.domain_size
    for k in range(1, k_max + 1):
        orbit = orbit_ids(structure, auts, k)
        groups: dict[tuple, tuple[tuple, int]] = {}
        tuples = itertools.product(range(size), repeat=k)
        for args in itertools.product(tuples, repeat=n):
            key = tuple(orbit[a] for a in args)
            image = tuple(table.apply(column) for column in zip(*args))
            first_args, first_type = groups.setdefault(key, (args, orbit[image]))
            if orbit[image] != first_type:
                witnesses = tuple(
                    Permutation(next(p for p in auts if tuple(p[v] for v in a) == b))
                    for a, b in zip(first_args, args)
                )
                return CanonicalVerdict(
                    False, k, CanonicalCounterexample(k, first_args, args, witnesses)
                )
    return CanonicalVerdict(True, k_max)
