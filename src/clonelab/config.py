"""Resource caps for the enumerative procedures.

Everything here is explicit configuration: exhausting a cap is reported
as such and is never conflated with a mathematical negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded


@dataclass(frozen=True)
class Caps:
    """Limits for enumeration-heavy operations.

    tuple_cap      : largest product enumerated point by point, checked
                     by `guard` or `guard_power` as "tuple space size",
                     "argument space size", "type table size",
                     "canonicity grid size", "equation row space",
                     "assignment search space", "argument matrix width"
                     and "verification grid size", largest number of
                     unordered pairs compared, as "consistency pairs",
                     and largest arity of a table or of an order term
                     read into a type table, as "argument tuple length"
    k_cap          : largest tuple length for type spaces
    arity_cap      : largest operation arity kept in clone catalogs
    depth_cap      : composition depth for clone generation
    catalog_cap    : tables retained per arity in a clone catalog
    pattern_cap    : largest pattern family the symbolic type spaces
                     will enumerate, checked by `guard_weak_orders` as
                     "pattern family size" ("joint pattern family size"
                     in `structures.joint_order_patterns`)
    """

    tuple_cap: int = 1_000_000
    k_cap: int = 6
    arity_cap: int = 6
    depth_cap: int = 4
    catalog_cap: int = 100_000
    pattern_cap: int = 600_000


DEFAULT_CAPS = Caps()


def guard(value: int, cap: int, what: str) -> None:
    """Raise CapExceeded when `value` is over `cap`, with a sized message."""
    if value > cap:
        raise CapExceeded(f"{what} needs {value}, cap is {cap}", what, value, cap)


def guard_power(base: int, exponent: int, cap: int, what: str) -> None:
    """`guard` on base**exponent, without computing a power that is over
    `cap` by its exponent alone: for base >= 2 the power is at least
    2**exponent, so an exponent beyond the bit length of `cap` is over it.
    The message then names the power, which can have millions of digits."""
    if base >= 2 and exponent > cap.bit_length():
        raise CapExceeded(f"{what} needs {base}^{exponent}, cap is {cap}", what, None, cap)
    guard(base**exponent, cap, what)


def guard_weak_orders(length: int, cap: int, what: str) -> int:
    """The number of weak orders on `length` points, by the standard
    recurrence, sizing pattern enumerations before they run.  Raises
    CapExceeded as soon as a count passes `cap`: the counts increase, and
    the count at m is at least m!, so a long length is refused within a
    few steps, and the message bounds its count instead of naming it."""
    counts = [1]
    for m in range(1, length + 1):
        count = sum(comb(m, j) * counts[m - j] for j in range(1, m + 1))
        if count > cap and m < length:
            weak_orders = f"more than {count} (the weak orders of {length} points)"
            raise CapExceeded(f"{what} needs {weak_orders}, cap is {cap}", what, None, cap)
        counts.append(count)
    guard(counts[length], cap, what)
    return counts[length]
