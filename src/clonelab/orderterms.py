"""Order terms over Q and their exact evaluation.

The term basis is: coordinate selectors, binary (or folded n-ary) min
and max, the binary order-embedding `lex`, and application of named
increasing piecewise maps.  `lex` embeds Q^2, ordered lexicographically,
into Q; it has no closed form, so evaluation works in a value algebra
instead of in Q directly:

  value ::= q                 a plain rational, a `Fraction`
          | Pair(head, tail)  the image lex(head, tail)

Values are linearly ordered by the rule "a pair sits immediately above
its head": two pairs compare lexicographically, a pair against a
rational compares by head with ties resolved above.  This amounts to
reading Pair(u, v) as u + eps * squash(v) for an infinitesimal eps; any
finite set of comparisons made this way is realized by an honest
order-embedding of Q^2 into Q (extend the finitely many constraints by
back-and-forth), and increasing maps act on a pair by acting on its
head.  Whole evaluation sets are ranked by `order_key`, into integers
(`rank`) or rationals (`materialize`), so downstream consumers see
ordinary exact numbers whose order agrees with the value order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import ParseError, UnsupportedTerm
from .plmap import PLMap
from .syntax import parse_prefix

# -- values --------------------------------------------------------------


@total_ordering
@dataclass(frozen=True)
class Pair:
    head: Value
    tail: Value

    def __lt__(self, other):
        return compare_values(self, other) < 0


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


def order_key(v: Value) -> tuple:
    """Sort key for the order of `compare_values`, which defines it.

    Follow the head chain ``Pair(...Pair(Pair(q, t1), t2)..., tk)`` down
    to its base rational q; the key is ``(q, k, key(t1), ..., key(tk))``,
    and a plain rational has key ``(q, 0)``.  The depth k comes before
    the tails because a pair sits above its head whatever its tail is:
    ``Pair(Pair(q, a), b) > Pair(q, c)`` for all a, b and c.  An
    integral q enters the key as an int, which compares much faster
    than a `Fraction`.
    """
    tails = []
    while isinstance(v, Pair):
        tails.append(v.tail)
        v = v.head
    q = v.numerator if v.denominator == 1 else v
    return (q, len(tails), *map(order_key, reversed(tails)))


def rank(values: Iterable[Value]) -> dict[Value, int]:
    """The i-th distinct value in value order gets the integer i."""
    return {v: i for i, v in enumerate(sorted(set(values), key=order_key))}


def materialize(values: Iterable[Value]) -> dict[Value, Fraction]:
    """Rank materialization of a whole finite evaluation set: the i-th
    distinct value in value order, sorted by `order_key`, becomes the
    rational i."""
    return {v: Fraction(i) for v, i in rank(values).items()}


# -- terms ---------------------------------------------------------------


class OrderTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Coord(OrderTerm):
    index: int  # 1-based

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Min(OrderTerm):
    items: tuple[OrderTerm, ...]

    def __str__(self):
        return "min(" + ", ".join(str(t) for t in self.items) + ")"


@dataclass(frozen=True)
class Max(OrderTerm):
    items: tuple[OrderTerm, ...]

    def __str__(self):
        return "max(" + ", ".join(str(t) for t in self.items) + ")"


@dataclass(frozen=True)
class Lex(OrderTerm):
    head: OrderTerm
    tail: OrderTerm

    def __str__(self):
        return f"lex({self.head}, {self.tail})"


@dataclass(frozen=True)
class MapApply(OrderTerm):
    map_name: str
    map: PLMap
    arg: OrderTerm

    def __str__(self):
        return f"{self.map_name}({self.arg})"


def term_arity(term: OrderTerm) -> int:
    """Smallest n such that the term only mentions x1..xn."""
    if isinstance(term, Coord):
        return term.index
    if isinstance(term, (Min, Max)):
        return max(term_arity(t) for t in term.items)
    if isinstance(term, Lex):
        return max(term_arity(term.head), term_arity(term.tail))
    return term_arity(term.arg)  # type: ignore[union-attr]


def eval_term(term: OrderTerm, args: Sequence[Value]) -> Value:
    if isinstance(term, Coord):
        return args[term.index - 1]
    if isinstance(term, Min):
        return min(eval_term(t, args) for t in term.items)
    if isinstance(term, Max):
        return max(eval_term(t, args) for t in term.items)
    if isinstance(term, Lex):
        return Pair(eval_term(term.head, args), eval_term(term.tail, args))
    return map_value(term.map, eval_term(term.arg, args))


def eval_rational(term: OrderTerm, point: Sequence[Fraction]) -> Value:
    return eval_term(term, tuple(Fraction(x) for x in point))


def substitute(term: OrderTerm, children: Sequence[OrderTerm]) -> OrderTerm:
    """Replace xi by children[i-1] throughout."""
    if isinstance(term, Coord):
        return children[term.index - 1]
    if isinstance(term, Min):
        return Min(tuple(substitute(t, children) for t in term.items))
    if isinstance(term, Max):
        return Max(tuple(substitute(t, children) for t in term.items))
    if isinstance(term, Lex):
        return Lex(substitute(term.head, children), substitute(term.tail, children))
    return MapApply(term.map_name, term.map, substitute(term.arg, children))


def peel_outer_maps(term: OrderTerm) -> tuple[list[PLMap], OrderTerm]:
    """Strip the outermost chain of map applications."""
    maps = []
    while isinstance(term, MapApply):
        maps.append(term.map)
        term = term.arg
    return maps, term


def contains_map(term: OrderTerm) -> bool:
    if isinstance(term, MapApply):
        return True
    if isinstance(term, (Min, Max)):
        return any(contains_map(t) for t in term.items)
    if isinstance(term, Lex):
        return contains_map(term.head) or contains_map(term.tail)
    return False


def require_pattern_determined(term: OrderTerm) -> OrderTerm:
    """Return the map-free core of a term whose output pattern depends
    only on the input pattern, or raise.

    Increasing maps applied outermost preserve output patterns and may be
    peeled off; maps in inner compared positions make the output pattern
    depend on how the map's breakpoints interleave with the inputs, which
    pattern enumeration cannot decide, so such terms are rejected.
    """
    _, core = peel_outer_maps(term)
    if contains_map(core):
        raise UnsupportedTerm(
            f"term {term} applies a map in an inner position; its output "
            "pattern is not determined by input patterns alone"
        )
    return core


# -- parsing -------------------------------------------------------------


def parse_order_term(text: str, maps: dict[str, PLMap] | None = None,
                     line: int | None = None) -> OrderTerm:
    """Parse prefix syntax such as `lex(x1, min(x2, x3))`.

    `maps` supplies named increasing maps usable as unary symbols.
    """
    maps = maps or {}

    def node(symbol: str, args: Sequence[OrderTerm]) -> OrderTerm:
        if symbol in ("min", "max"):
            if len(args) < 2:
                raise ParseError(f"{symbol} needs at least 2 arguments", line)
            return (Min if symbol == "min" else Max)(tuple(args))
        if symbol == "lex":
            if len(args) != 2:
                raise ParseError("lex takes exactly 2 arguments", line)
            return Lex(args[0], args[1])
        if symbol in maps:
            if len(args) != 1:
                raise ParseError(f"map {symbol!r} takes exactly 1 argument", line)
            return MapApply(symbol, maps[symbol], args[0])
        raise ParseError(f"unknown symbol {symbol!r} in term", line)

    return parse_prefix(text, line, Coord, node)
