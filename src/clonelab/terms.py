"""Terms over named operation symbols, shared by equation systems and
clone catalogs (where they serve as composition witnesses)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import InconsistentData, ParseError
from .syntax import parse_prefix


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise InconsistentData(f"variable index {self.index} is below 1")

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...]

    def __str__(self):
        return f"{self.symbol}(" + ",".join(str(a) for a in self.args) + ")"


def max_variable(term: Term) -> int:
    if isinstance(term, Var):
        return term.index
    return max(max_variable(a) for a in term.args)  # type: ignore[union-attr]


def collapse(term: Term, sigma: Mapping[str, int]) -> int:
    """Variable index the term collapses to when every symbol f is read
    as the selector of its sigma(f)-th argument."""
    while isinstance(term, App):
        term = term.args[sigma[term.symbol] - 1]
    return term.index  # type: ignore[union-attr]


def fold(term: Term, var: Callable, app: Callable):
    """Bottom-up evaluation: var(index) on leaves, app(symbol, values) inside."""
    if isinstance(term, Var):
        return var(term.index)
    return app(term.symbol, [fold(a, var, app) for a in term.args])


def parse_term(
    text: str, signature: Mapping[str, int], line: int | None = None
) -> Term:
    """Parse `f(x1,g(x2,x1))` checking symbol arities against `signature`."""

    def app(symbol: str, args: Sequence[Term]) -> Term:
        if symbol not in signature:
            raise ParseError(f"undeclared symbol {symbol!r}", line)
        if len(args) != signature[symbol]:
            raise ParseError(
                f"symbol {symbol!r} has arity {signature[symbol]}, "
                f"got {len(args)} arguments",
                line,
            )
        return App(symbol, tuple(args))

    return parse_prefix(text, line, Var, app)
