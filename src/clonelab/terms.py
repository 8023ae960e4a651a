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


def collapse(term: Term, sigma: Mapping[str, int]) -> int:
    """Variable index the term collapses to when every symbol f is read
    as the selector of its sigma(f)-th argument."""
    while isinstance(term, App):
        term = term.args[sigma[term.symbol] - 1]
    return term.index  # type: ignore[union-attr]


def fold(term: Term, var: Callable, app: Callable):
    """Bottom-up evaluation: var(index) on leaves, app(symbol, values)
    inside, in post-order, on a stack of open applications (any depth)."""
    if isinstance(term, Var):
        return var(term.index)
    stack = [(term.symbol, iter(term.args), [])]  # type: ignore[union-attr]
    while True:
        symbol, args, values = stack[-1]
        for arg in args:
            if isinstance(arg, Var):
                values.append(var(arg.index))
            else:
                stack.append((arg.symbol, iter(arg.args), []))  # type: ignore[union-attr]
                break
        else:
            stack.pop()
            value = app(symbol, values)
            if not stack:
                return value
            stack[-1][2].append(value)


def parse_term(
    text: str, signature: Mapping[str, int], line: int | None = None
) -> Term:
    """Parse `f(x1,g(x2,x1))` checking symbol arities against `signature`."""

    def app(symbol: str, args: Sequence[Term]) -> Term:
        arity = signature.get(symbol)
        if arity is None:
            raise ParseError(f"undeclared symbol {symbol!r}", line)
        if len(args) != arity:
            raise ParseError(
                f"symbol {symbol!r} has arity {arity}, got {len(args)} arguments", line
            )
        return App(symbol, tuple(args))

    return parse_prefix(text, line, Var, app)
