"""Equation systems and where they can be satisfied.

Three satisfaction notions over a common signature of operation symbols:

* in projections -- every symbol becomes a selector of one argument, so
  a term collapses to a single variable and an equation holds when both
  sides collapse to the same one;
* in a generated clone -- symbols range over catalog entries and the
  equations must hold as table identities;
* in a clone modulo outside unaries -- each side of an equation may be
  post-composed with a unary function from a supplied family before the
  comparison, which makes equations "up to outside noise" satisfiable.

Plain clone search is modulo search without modifiers: one loop runs
through the catalog assignments for both, and the plain search compares
each equation's side values directly.  Each side is compiled once per
search into a gather plan over the rows of the variable space that reads
each symbol at its signature position, so an assignment is checked on
the catalog keys (each entry's outputs) the product of the catalogs
yields, with no table, entry or dict built; a symbol applied to
variables alone is one `itemgetter` over its outputs.  Every hit,
modulo hits included, is re-verified pointwise before it is returned.

Before the loop, height-1 equations rule out entries across a whole
catalog.  An equation whose sides are each a variable or one symbol on
variables alone compares fixed rows of that symbol's table, so on a base
of at most 256 points it is tested on every entry at once, one integer
per row with one byte per entry (`FiniteClone.catalog_rows`).  Each
catalog keeps the entries that pass the equations on its symbol alone,
and the loop runs over those, in the same product order.

The projective-homomorphism search runs the first notion against the
equations a clone generation discovered (its collisions): an assignment
of selectors consistent with every collision, or a small set of
collisions that together rule out all assignments.  One selector scan
serves it and `satisfiable_in_projections`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

from .clones import CatalogEntry, FiniteClone, Table
from .config import Caps, guard, guard_power
from .errors import InconsistentData, ParseError
from .syntax import natural, records
from .terms import App, Term, Var, collapse, fold, max_variable, parse_term

Sigma = tuple[tuple[str, int], ...]


def format_sigma(sigma: Sigma) -> str:
    """A selector assignment as `f->1 g->2`."""
    return " ".join(f"{name}->{i}" for name, i in sigma)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class EquationSystem:
    """Equations over a signature.  Every term is read as an operation in
    the variables x1..xn, n = `ambient_arity`.  A wider n would only add
    dummy variables, which change no answer."""

    signature: tuple[tuple[str, int], ...]
    equations: tuple[Equation, ...]

    def __post_init__(self):
        names = [name for name, _ in self.signature]
        if len(set(names)) != len(names):
            raise InconsistentData("duplicate symbol in signature")
        for name, arity in self.signature:
            if arity < 1:
                raise InconsistentData(f"symbol {name!r} has arity {arity}, below 1")
        sig = dict(self.signature)
        for eq in self.equations:
            _check_term(eq.lhs, sig)
            _check_term(eq.rhs, sig)

    def arity_of(self, name: str) -> int:
        for n, a in self.signature:
            if n == name:
                return a
        raise InconsistentData(f"undeclared symbol {name!r}")

    @cached_property
    def ambient_arity(self) -> int:
        """The largest variable index, or 1 for a system without variables."""
        widths = [
            max(max_variable(eq.lhs), max_variable(eq.rhs)) for eq in self.equations
        ]
        return max(widths, default=1)


def pad_to_common_arity(system: EquationSystem) -> EquationSystem:
    """The system itself: its variable space is always x1..`ambient_arity`."""
    return system


def _check_term(term: Term, signature: Mapping[str, int]) -> None:
    if isinstance(term, Var):
        return
    assert isinstance(term, App)
    if term.symbol not in signature:
        raise InconsistentData(f"undeclared symbol {term.symbol!r}")
    if len(term.args) != signature[term.symbol]:
        raise InconsistentData(
            f"symbol {term.symbol!r} used with {len(term.args)} arguments, "
            f"declared with {signature[term.symbol]}"
        )
    for a in term.args:
        _check_term(a, signature)


def parse_equation_system(text: str) -> EquationSystem:
    """Read `sig f 2` declarations followed by `eq <term> = <term>` lines."""
    signature: dict[str, int] = {}
    equations: list[Equation] = []
    for number, (head, *rest) in records(text):
        if head == "sig":
            if len(rest) != 2:
                raise ParseError("expected `sig <name> <arity>`", number)
            name = rest[0]
            arity = natural(rest[1], number, "a symbol arity of at least 1", 1)
            if name in signature:
                raise ParseError(f"symbol {name!r} declared twice", number)
            signature[name] = arity
        elif head == "eq":
            sides = " ".join(rest).split("=")
            if len(sides) != 2:
                raise ParseError("expected `eq <term> = <term>`", number)
            equations.append(
                Equation(
                    parse_term(sides[0], signature, number),
                    parse_term(sides[1], signature, number),
                )
            )
        else:
            raise ParseError(f"unknown directive {head!r}", number)
    return EquationSystem(tuple(signature.items()), tuple(equations))


# -- projections --------------------------------------------------------------


def projection_assignments(
    signature: Sequence[tuple[str, int]],
) -> Iterator[Sigma]:
    """All selector assignments, lexicographic in signature order."""
    names = [name for name, _ in signature]
    for choice in itertools.product(*(range(1, a + 1) for _, a in signature)):
        yield tuple(zip(names, choice))


@dataclass(frozen=True)
class ProjectionReport:
    satisfiable: bool
    sigma: Sigma | None
    # one entry per failed assignment: (assignment, index of first bad equation)
    failures: tuple[tuple[Sigma, int], ...]


def _selector_scan(
    signature: Sequence[tuple[str, int]], pairs: Sequence[tuple[Term, Term]]
) -> tuple[Sigma | None, list[tuple[Sigma, int]]]:
    """Selector assignments in order until one collapses both sides of
    every pair alike: that assignment (None if none does), and each
    assignment before it with the index of the first pair it breaks."""
    failures = []
    for sigma in projection_assignments(signature):
        mapping = dict(sigma)
        for i, (s, t) in enumerate(pairs):
            if collapse(s, mapping) != collapse(t, mapping):
                failures.append((sigma, i))
                break
        else:
            return sigma, failures
    return None, failures


def satisfiable_in_projections(system: EquationSystem) -> ProjectionReport:
    """First selector assignment satisfying every equation, or a failure
    table covering all assignments."""
    sigma, failures = _selector_scan(
        system.signature, [(eq.lhs, eq.rhs) for eq in system.equations]
    )
    if sigma is not None:
        return ProjectionReport(True, sigma, ())
    return ProjectionReport(False, None, tuple(failures))


# -- generated clones ----------------------------------------------------------

# an outside unary with its name; None stands for no post-composition
Modifier = tuple[str, Table] | None
# a side's values on every row, from the output tuples in signature order
Side = Callable[[Sequence[tuple[int, ...]]], tuple[int, ...]]
# a side that reads one catalog row per point: (the symbol's signature
# position, the row each point reads) for a symbol on variables alone,
# (None, each point's value) for a variable
Reads = tuple[int | None, tuple[int, ...]]


def _compile_side(
    term: Term,
    columns: Sequence[tuple[int, ...]],
    base_size: int,
    positions: Mapping[str, int],
) -> tuple[Side, Reads | None]:
    """A term's values on the rows of {0..base_size-1}^n, in row-major
    order, as a gather plan: a variable is a fixed column (`columns`
    holds x1..xn's), and a symbol reads its outputs at the row-wise
    indices its arguments spell.  The indices contributed by variable
    arguments are fixed once, so a symbol applied to variables alone is
    one `itemgetter` over its outputs.  Returned with the side's `Reads`
    when it is a variable or a symbol on variables alone, else None."""
    points = len(columns[0])
    reads = None

    def var(index: int) -> tuple[int, ...]:
        return columns[index - 1]

    def app(symbol: str, parts: list) -> Side:
        nonlocal reads
        pos = positions[symbol]
        fixed = [0] * points
        nested = []
        for j, part in enumerate(parts):
            weight = base_size ** (len(parts) - 1 - j)
            if isinstance(part, tuple):
                fixed = [i + weight * v for i, v in zip(fixed, part)]
            else:
                nested.append((weight, part))
        # the fold applies the root last, so this ends as the root's reads
        reads = None if nested else (pos, tuple(fixed))
        # on one row an itemgetter gives a bare value, not a 1-tuple
        if not nested and points > 1:
            read = operator.itemgetter(*fixed)
            return lambda outputs: read(outputs[pos])
        fixed = tuple(fixed)

        def gather(outputs):
            index = fixed
            for weight, child in nested:
                index = [i + weight * v for i, v in zip(index, child(outputs))]
            return tuple(map(outputs[pos].__getitem__, index))

        return gather

    plan = fold(term, var, app)
    if callable(plan):
        return plan, reads
    return (lambda outputs: plan), (None, plan)


def _compile(
    system: EquationSystem, base_size: int, caps: Caps
) -> tuple[list[tuple[Side, Side]], list[tuple[Reads | None, Reads | None]]]:
    """Both sides of every equation compiled against the signature order,
    and their reads, after refusing a row space over `tuple_cap`."""
    n = system.ambient_arity
    guard_power(base_size, n, caps.tuple_cap, "equation row space")
    positions = {name: i for i, (name, _) in enumerate(system.signature)}
    columns = list(zip(*itertools.product(range(base_size), repeat=n)))
    compiled = [
        [_compile_side(t, columns, base_size, positions) for t in (eq.lhs, eq.rhs)]
        for eq in system.equations
    ]
    sides = [(left[0], right[0]) for left, right in compiled]
    reads = [(left[1], right[1]) for left, right in compiled]
    return sides, reads


def _post(modifier: tuple[str, Table], values: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(modifier[1].outputs.__getitem__, values))


def _first_broken(
    sides: Sequence[tuple[Side, Side]],
    outputs: Sequence[tuple[int, ...]],
    outside: Sequence[Modifier],
) -> tuple[int | None, list[tuple[Modifier, Modifier]]]:
    if outside == (None,):  # plain equality: compare the side values
        for i, (left, right) in enumerate(sides):
            if left(outputs) != right(outputs):
                return i, [(None, None)] * i
        return None, [(None, None)] * len(sides)
    agreements = []
    for i, (left, right) in enumerate(sides):
        lhs, rhs = left(outputs), right(outputs)
        lefts = [(a, _post(a, lhs)) for a in outside]
        rights = [(b, _post(b, rhs)) for b in outside]
        pick = next(((a, b) for a, l in lefts for b, r in rights if l == r), None)
        if pick is None:
            return i, agreements
        agreements.append(pick)
    return None, agreements


def first_broken(
    system: EquationSystem,
    tables: Mapping[str, Table],
    base_size: int,
    caps: Caps,
) -> int | None:
    """Whether the system holds on tables: the index of the first equation
    whose side tables do not agree, None when all agree.  A row space
    over `caps.tuple_cap` is refused before any table is read."""
    outputs = [tables[name].outputs for name, _ in system.signature]
    return _first_broken(_compile(system, base_size, caps)[0], outputs, (None,))[0]


def _eval_pointwise(
    term: Term, tables: Mapping[str, Table], args: Sequence[int]
) -> int:
    if isinstance(term, Var):
        return args[term.index - 1]
    assert isinstance(term, App)
    inner = tuple(_eval_pointwise(a, tables, args) for a in term.args)
    return tables[term.symbol].apply(inner)


def _verify_pointwise(
    system: EquationSystem,
    tables: Mapping[str, Table],
    base_size: int,
    agreements: Sequence[tuple[Modifier, Modifier]],
) -> None:
    """Replay a hit point by point, without composing tables."""
    n = system.ambient_arity
    for eq, (left, right) in zip(system.equations, agreements):
        for point in itertools.product(range(base_size), repeat=n):
            lhs = _eval_pointwise(eq.lhs, tables, point)
            rhs = _eval_pointwise(eq.rhs, tables, point)
            if (left[1].apply((lhs,)) if left else lhs) != (
                right[1].apply((rhs,)) if right else rhs
            ):
                raise InconsistentData(
                    "table evaluation and pointwise evaluation disagree"
                )


@dataclass(frozen=True)
class CloneSearchReport:
    found: bool
    assignment: tuple[tuple[str, CatalogEntry], ...] | None
    # assignments in product order of the catalogs up to and including the
    # hit, or all of them on a miss; those ruled out in bulk by their
    # height-1 equations count as checked
    checked: int
    # whether a negative answer is definitive: every catalog the symbols
    # draw from is saturated
    exhaustive: bool
    # modulo search hits: (left, right) outside unary names per equation
    modifiers: tuple[tuple[str, str], ...] | None = None


# translate table: a zero byte to 1, every other byte to 0
_ZERO_LANES = b"\1" + bytes(255)


def _survivors(
    rows: tuple[int, ...],
    count: int,
    base_size: int,
    reads: Sequence[tuple[Reads, Reads]],
    outside: Sequence[Modifier],
) -> list[int]:
    """The ids of the `count` catalog entries that satisfy every equation
    in `reads` modulo the outside family, for the whole catalog at once.
    Lane e of a row is entry e's output there, and a variable's value
    stands in every lane, so the two sides of an equation agree on entry
    e at a point exactly where `left ^ right` is zero in lane e."""
    ones = int.from_bytes(b"\1" * count, "little")
    posted = []  # per modifier: the rows and each value's lanes, post-composed
    for modifier in outside:
        if modifier is None:
            posted.append((rows, [v * ones for v in range(base_size)]))
            continue
        lut = bytes(modifier[1].outputs).ljust(256, b"\0")
        posted.append((
            [int.from_bytes(r.to_bytes(count, "little").translate(lut), "little") for r in rows],
            [v * ones for v in modifier[1].outputs],
        ))
    alive = ones
    for (left, lreads), (right, rreads) in reads:
        held = 0  # lanes where some pair of modifiers makes the sides agree
        for a, b in itertools.product(posted, repeat=2):
            lhs, rhs = a[left is None], b[right is None]
            differ = functools.reduce(
                operator.or_,
                map(operator.xor, map(lhs.__getitem__, lreads), map(rhs.__getitem__, rreads)),
            )
            zero = differ.to_bytes(count, "little").translate(_ZERO_LANES)
            held |= int.from_bytes(zero, "little")
        alive &= held
    return list(itertools.compress(range(count), alive.to_bytes(count, "little")))


def _search(
    system: EquationSystem, clone: FiniteClone, outside: Sequence[Modifier]
) -> CloneSearchReport:
    """The one catalog-assignment loop behind both clone searches.

    First each symbol's catalog is read row by row across all its entries
    (`FiniteClone.catalog_rows`), and the entries that break a height-1
    equation on that symbol alone -- each side a variable or the symbol
    on variables alone, not both variables -- are ruled out at once.  The
    loop then runs over the survivors' catalog keys in product order and
    checks every equation; only a hit's entries are built, and a hit is
    re-verified pointwise.  A base over 256 points has no rows, and there
    every entry stays."""
    catalogs = [clone.catalog(arity) for _, arity in system.signature]
    guard(
        math.prod(len(c) for c in catalogs) * len(outside) ** 2,
        clone.caps.tuple_cap,
        "assignment search space",
    )
    sides, reads = _compile(system, clone.base_size, clone.caps)
    names = [name for name, _ in system.signature]
    exhaustive = all(clone.saturated[arity] for _, arity in system.signature)
    kept = []
    for c, (catalog, (_, arity)) in enumerate(zip(catalogs, system.signature)):
        own = [(l, r) for l, r in reads if l and r and {l[0], r[0]} - {None} == {c}]
        rows = clone.catalog_rows(arity) if own else None
        kept.append(
            range(len(catalog))
            if rows is None
            else _survivors(rows, len(catalog), clone.base_size, own, outside)
        )
    columns = [list(map(c.keys.__getitem__, ids)) for c, ids in zip(catalogs, kept)]
    for picks, outputs in zip(itertools.product(*kept), itertools.product(*columns)):
        bad, agreements = _first_broken(sides, outputs, outside)
        if bad is None:
            entries = [c[i] for c, i in zip(catalogs, picks)]
            tables = {name: entry.table for name, entry in zip(names, entries)}
            _verify_pointwise(system, tables, clone.base_size, agreements)
            modifiers = None
            if None not in outside:
                modifiers = tuple((a[0], b[0]) for a, b in agreements)
            checked = 0  # the hit's place in the product order
            for c, i in zip(catalogs, picks):
                checked = checked * len(c) + i
            return CloneSearchReport(
                True, tuple(zip(names, entries)), checked + 1, exhaustive, modifiers
            )
    return CloneSearchReport(False, None, math.prod(map(len, catalogs)), exhaustive)


def satisfiable_in_clone(
    system: EquationSystem, clone: FiniteClone
) -> CloneSearchReport:
    """Search symbol assignments over the clone's catalogs.

    A hit is re-verified pointwise before it is returned.  A miss is
    definitive only if every involved catalog is saturated.
    """
    return _search(system, clone, (None,))


def satisfiable_modulo_outside(
    system: EquationSystem,
    clone: FiniteClone,
    outside: Sequence[tuple[str, Table]],
) -> CloneSearchReport:
    """Like `satisfiable_in_clone`, but each side of an equation may be
    post-composed with a unary function from `outside` (supplied as
    (name, table) pairs; include the identity to allow plain equality).
    Names must be distinct, since a hit reports its modifiers by name.
    """
    if not outside:
        raise InconsistentData("the outside family must not be empty")
    seen: set[str] = set()
    for name, table in outside:
        if name in seen:
            raise InconsistentData(f"outside family names {name!r} twice")
        seen.add(name)
        if table.arity != 1 or table.size != clone.base_size:
            raise InconsistentData(
                f"outside function {name!r} must be unary on the clone's base"
            )
    return _search(system, clone, tuple(outside))


# -- homomorphisms onto the projections -----------------------------------------


@dataclass(frozen=True)
class ProjHomReport:
    status: str  # "found" | "refuted" | "undecided"
    sigma: Sigma | None
    signature: tuple[tuple[str, int], ...]
    # refutations: a small set of discovered equations such that every
    # selector assignment breaks at least one of them
    witness: tuple[tuple[Term, Term], ...]
    # (assignment, index into witness of an equation it breaks)
    coverage: tuple[tuple[Sigma, int], ...]
    exhaustive: bool
    collisions_checked: int

    def witness_system(self) -> EquationSystem:
        """The refutation as an equation system: it holds in the clone
        that produced it and fails in every projection reading."""
        return EquationSystem(
            self.signature, tuple(Equation(s, t) for s, t in self.witness)
        )

    def describe(self) -> str:
        """The reading, and what makes it exact or leaves it open."""
        lines = [f"projection reading: {self.status}"]
        if self.status == "found":
            lines.append(f"  assignment: {format_sigma(self.sigma)}")
            if not self.exhaustive:
                lines.append(
                    "  note: catalogs not saturated; deeper compositions "
                    "could still add obstructions"
                )
        elif self.status == "refuted":
            lines.append("  witness identities:")
            lines.extend(f"    {left} = {right}" for left, right in self.witness)
            lines.append(
                f"  every one of {len(self.coverage)} selector assignments "
                f"fails a witness ({self.collisions_checked} collisions examined)"
            )
        else:
            lines.append("  a generator's arity exceeds the cap; nothing was observed")
        return "\n".join(lines)


def has_projective_homomorphism(clone: FiniteClone) -> ProjHomReport:
    """Search for a selector reading of the generators consistent with
    every equation discovered while generating the clone.

    A refutation is exact.  A positive answer is exact only when every
    catalog saturated; otherwise deeper compositions could still add
    obstructions.  When a generator's arity exceeds the arity cap its
    own equations were never observed, so nothing can be concluded.
    """
    signature = [(name, table.arity) for name, table in clone.generators]
    if any(arity > clone.caps.arity_cap for _, arity in signature):
        return ProjHomReport("undecided", None, tuple(signature), (), (), False, 0)
    collisions = [
        pair for arity in sorted(clone.collisions) for pair in clone.collisions[arity]
    ]
    exhaustive = all(clone.saturated[a] for a in clone.saturated)
    surviving, failures = _selector_scan(signature, collisions)
    if surviving is not None:
        return ProjHomReport(
            "found", surviving, tuple(signature), (), (), exhaustive, len(collisions)
        )
    # greedy cover: prefer collisions that break many assignments at once
    mappings = [dict(sigma) for sigma, _ in failures]
    full_kill: dict[int, set[int]] = {}
    for ci in sorted({bad for _, bad in failures}):
        s, t = collisions[ci]
        full_kill[ci] = {
            si for si, m in enumerate(mappings) if collapse(s, m) != collapse(t, m)
        }
    remaining = set(range(len(failures)))
    chosen: list[int] = []
    while remaining:
        best = max(full_kill, key=lambda ci: (len(full_kill[ci] & remaining), -ci))
        chosen.append(best)
        remaining -= full_kill[best]
    chosen.sort()
    coverage = []
    for si, (sigma, _) in enumerate(failures):
        wi = next(i for i, ci in enumerate(chosen) if si in full_kill[ci])
        coverage.append((sigma, wi))
    return ProjHomReport(
        "refuted",
        None,
        tuple(signature),
        tuple(collisions[ci] for ci in chosen),
        tuple(coverage),
        exhaustive,
        len(collisions),
    )
