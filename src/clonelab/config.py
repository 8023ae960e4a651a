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
                     by `guard` as "tuple space size", "argument space
                     size", "type table size", "equation row space",
                     "assignment search space", "argument matrix width"
                     and "verification grid size", and largest number of
                     unordered pairs compared, as "consistency pairs"
    k_cap          : largest tuple length for type spaces
    arity_cap      : largest operation arity kept in clone catalogs
    depth_cap      : composition depth for clone generation
    catalog_cap    : tables retained per arity in a clone catalog
    pattern_cap    : largest joint-pattern family size the canonicity
                     checker will enumerate
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


# Number of weak orders on an n-element set (used to size canonicity
# enumerations before running them).  Computed by the standard recurrence.
def ordered_set_partition_count(n: int) -> int:
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, j) * counts[m - j] for j in range(1, m + 1)))
    return counts[n]
