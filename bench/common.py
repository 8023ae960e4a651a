"""Reference evaluators shared by the workloads' correctness checks.

These re-derive answers without going through the library code under
measurement, so that a check cannot pass merely because the code it
checks agrees with itself.  Only clonelab's data classes (terms, tables,
reports) are read here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from clonelab.terms import App, Var


class CheckFailed(Exception):
    """A job's result is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def table_value(table, args: Sequence[int]) -> int:
    """Row-major lookup in a finite operation table."""
    index = 0
    for a in args:
        index = index * table.size + a
    return table.outputs[index]


def eval_point(term, tables: Mapping[str, object], args: Sequence[int]) -> int:
    """Value of a term at one argument tuple, symbols read as tables."""
    if isinstance(term, Var):
        return args[term.index - 1]
    assert isinstance(term, App)
    inner = [eval_point(a, tables, args) for a in term.args]
    return table_value(tables[term.symbol], inner)


def holds_pointwise(lhs, rhs, tables, arity: int, base: int) -> bool:
    return all(
        eval_point(lhs, tables, point) == eval_point(rhs, tables, point)
        for point in itertools.product(range(base), repeat=arity)
    )


def max_var(term) -> int:
    if isinstance(term, Var):
        return term.index
    return max(max_var(a) for a in term.args)


def collapse(term, sigma: Mapping[str, int]) -> int:
    """Variable a term reduces to when each symbol selects one argument."""
    while isinstance(term, App):
        term = term.args[sigma[term.symbol] - 1]
    return term.index


def all_selector_readings(signature):
    names = [name for name, _ in signature]
    for choice in itertools.product(*(range(1, a + 1) for _, a in signature)):
        yield dict(zip(names, choice))


def order_pattern(values: Sequence) -> tuple[int, ...]:
    """Rank vector of a tuple over a linear order."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def equality_pattern(values: Sequence) -> tuple[int, ...]:
    """First-occurrence block codes of a tuple over a bare set."""
    codes: dict = {}
    return tuple(codes.setdefault(v, len(codes)) for v in values)


def pattern(kind: str, values: Sequence) -> tuple[int, ...]:
    return order_pattern(values) if kind == "dlo" else equality_pattern(values)


def text(value) -> str:
    """Digest form of an exact number."""
    return str(Fraction(value))
