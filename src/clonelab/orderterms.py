"""Order terms over Q and their exact evaluation.

The term basis is: coordinate selectors, binary (or folded n-ary) min
and max, the binary order-embedding `lex`, and application of named
increasing piecewise maps.  `lex` embeds Q^2, ordered lexicographically,
into Q; it has no closed form, so a term evaluates not to a rational but
to a sort key, a tuple whose native order is the order of the values:

  key(q)          = (q, 0)                      an argument, a rational
  key(lex(h, t))  = (q, k + 1, key(t1), ..., key(tk), key(t))
                    where key(h) = (q, k, key(t1), ..., key(tk))

So the key of a head chain ``lex(...lex(lex(q, t1), t2)..., tk)`` is
``(q, k, key(t1), ..., key(tk))``; min and max pick among keys, and an
increasing map replaces the base q by its image.  The order reads
lex(u, v) as u + eps * squash(v) for an infinitesimal eps: a value sits
immediately above its head whatever its tail, so over one base a deeper
head chain sits above a shallower one (the depth k comes before the
tails), chains of equal depth compare by their tails, innermost first,
and a smaller base wins over any depth.  Any finite set of comparisons
made this way is realized by an honest order-embedding of Q^2 into Q
(extend the finitely many constraints by back-and-forth), and increasing
maps act on lex(u, v) by acting on u, hence on the base.  A term is
compiled once (`compile_term`) into a function of its argument tuple,
so evaluating it at many points walks no term tree; `eval_term` is the
compiled term applied once.  Arguments may be ints or `Fraction`s, which
compare and hash alike; ints are faster.
Whole evaluation sets are ranked in key order into integers (`rank`) or
rationals (`materialize`), so downstream consumers see ordinary exact
numbers whose order agrees with the value order.  The value algebra of
nested pairs, the slow reading of the same order, is the test oracle
(`tests/pair_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InconsistentData, ParseError, UnsupportedTerm
from .plmap import PLMap
from .syntax import parse_prefix

# -- ranking -------------------------------------------------------------


def rank(keys: Iterable[tuple]) -> dict[tuple, int]:
    """The i-th distinct key in key order gets the integer i."""
    return {v: i for i, v in enumerate(sorted(set(keys)))}


def materialize(keys: Iterable[tuple]) -> dict[tuple, Fraction]:
    """Rank materialization of a whole finite evaluation set: the i-th
    distinct key in key order becomes the rational i."""
    return {v: Fraction(i) for v, i in rank(keys).items()}


# -- terms ---------------------------------------------------------------


class OrderTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Coord(OrderTerm):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise InconsistentData(f"coordinate index {self.index} is below 1")

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


def compile_term(term: OrderTerm) -> Callable[[Sequence[Fraction]], tuple]:
    """The term as a function from its argument tuple to the sort key of
    its value (module docstring), built once, so that evaluating it at
    many points walks no term tree."""
    if isinstance(term, Coord):
        i = term.index - 1
        return lambda args: (args[i], 0)
    if isinstance(term, (Min, Max)):
        pick = min if isinstance(term, Min) else max
        items = tuple(compile_term(t) for t in term.items)
        return lambda args: pick([item(args) for item in items])
    if isinstance(term, Lex):
        tail = compile_term(term.tail)
        if isinstance(term.head, Coord):
            # the common case, a coordinate head, builds one tuple
            i = term.head.index - 1
            return lambda args: (args[i], 1, tail(args))
        head = compile_term(term.head)

        def lex(args):
            key = head(args)
            return (key[0], key[1] + 1, *key[2:], tail(args))

        return lex
    inner, apply = compile_term(term.arg), term.map.apply

    def mapped(args):
        key = inner(args)
        return (apply(key[0]), *key[1:])

    return mapped


def eval_term(term: OrderTerm, args: Sequence[Fraction]) -> tuple:
    """The sort key of the term's value at the rational arguments `args`:
    the compiled term applied once."""
    return compile_term(term)(args)


def eval_rational(term: OrderTerm, point: Sequence[Fraction]) -> tuple:
    """`eval_term` with every argument converted to a `Fraction`."""
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
