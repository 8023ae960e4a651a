"""The value order of order terms the slow way, the test oracle for the
sort keys that `orderterms.eval_term` returns.

A value is a rational or a `Pair(head, tail)`, the image lex(head, tail)
of the order-embedding of Q^2 into Q.  `compare_values` orders values by
the rule "a pair sits immediately above its head": two pairs compare
lexicographically, a pair against a rational compares by head with ties
resolved above.  `map_value` moves the head of a pair and leaves the
tail alone.  `eval_pair` evaluates a term into such a tree at `Fraction`
points, and `materialize` ranks a set of values by a sort that compares
them with `compare_values`.  The library evaluates straight into sort
keys and ranks them in Python's tuple order; both must order and
identify every finite set of values the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from clonelab.orderterms import Coord, Lex, Max, Min, OrderTerm
from clonelab.plmap import PLMap


@dataclass(frozen=True)
class Pair:
    head: Value
    tail: Value


Value = Fraction | Pair


def compare_values(u: Value, v: Value) -> int:
    """Total order on values; 0 only for structurally equal values."""
    if isinstance(u, Pair):
        if isinstance(v, Pair):
            c = compare_values(u.head, v.head)
            return c if c else compare_values(u.tail, v.tail)
        return compare_values(u.head, v) or 1
    if isinstance(v, Pair):
        return compare_values(u, v.head) or -1
    return (u > v) - (u < v)


def map_value(m: PLMap, v: Value) -> Value:
    """Increasing maps move the head of a pair and leave the tail alone."""
    if isinstance(v, Pair):
        return Pair(map_value(m, v.head), v.tail)
    return m.apply(v)


def eval_pair(term: OrderTerm, point: Sequence[Fraction]) -> Value:
    """The value of `term` at `point`, each coordinate made a `Fraction`."""
    args = tuple(Fraction(x) for x in point)

    def value(t: OrderTerm) -> Value:
        if isinstance(t, Coord):
            return args[t.index - 1]
        if isinstance(t, (Min, Max)):
            pick = min if isinstance(t, Min) else max
            return pick(map(value, t.items), key=functools.cmp_to_key(compare_values))
        if isinstance(t, Lex):
            return Pair(value(t.head), value(t.tail))
        return map_value(t.map, value(t.arg))

    return value(term)


def materialize(values: Iterable[Value]) -> dict[Value, Fraction]:
    """The i-th distinct value in `compare_values` order becomes i."""
    ordered = sorted(set(values), key=functools.cmp_to_key(compare_values))
    return {v: Fraction(i) for i, v in enumerate(ordered)}
