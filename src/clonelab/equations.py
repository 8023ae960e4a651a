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
yields, with no table, entry or dict built; the rows a symbol reads for
its variable arguments are one linear form of their columns, so a symbol
applied to variables alone is one `itemgetter` over its outputs.  Every
hit, modulo hits included, is replayed before it is returned, apart from
the plan: node by node over every point, through `Table.apply`.

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
collisions that together rule out all assignments.  It reads the
collision records that generation kept, not terms: under an assignment
a side collapses by following, from composition to composition, the
argument its generator is read at, until a selector gives the variable.
Terms are built only for a refutation's witnesses.  One selector scan,
`_selector_scan`, runs through the assignments for this search and for
`satisfiable_in_projections`, each reading its own equations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from .clones import CatalogEntry, FiniteClone, Table
from .config import Caps, guard, guard_power
from .errors import InconsistentData, ParseError
from .syntax import natural, records, symbol_name
from .terms import Term, Var, collapse, fold, parse_term

Sigma = tuple[tuple[str, int], ...]
Broken = TypeVar("Broken")  # how a selector scan names an equation


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
    the variables x1..xn, n = `ambient_arity` (1 without equations), which
    the one walk that checks every symbol and arity sets at construction.
    A wider n would only add dummy variables, which change no answer."""

    signature: tuple[tuple[str, int], ...]
    equations: tuple[Equation, ...]

    def __post_init__(self):
        sig = dict(self.signature)
        if len(sig) != len(self.signature):
            raise InconsistentData("duplicate symbol in signature")
        for name, arity in self.signature:
            if arity < 1:
                raise InconsistentData(f"symbol {name!r} has arity {arity}, below 1")
        width = 1
        # one pre-order walk over every side, left to right: a variable
        # is read where it stands, an application waits on the stack
        stack = [side for eq in reversed(self.equations) for side in (eq.rhs, eq.lhs)]
        while stack:
            term = stack.pop()
            if isinstance(term, Var):
                if term.index > width:
                    width = term.index
                continue
            arity = sig.get(term.symbol)
            if arity is None:
                raise InconsistentData(f"undeclared symbol {term.symbol!r}")
            if len(term.args) != arity:
                raise InconsistentData(
                    f"symbol {term.symbol!r} used with {len(term.args)} arguments, "
                    f"declared with {arity}"
                )
            for arg in reversed(term.args):
                if isinstance(arg, Var):
                    if arg.index > width:
                        width = arg.index
                else:
                    stack.append(arg)
        object.__setattr__(self, "ambient_arity", width)

    def arity_of(self, name: str) -> int:
        for n, a in self.signature:
            if n == name:
                return a
        raise InconsistentData(f"undeclared symbol {name!r}")


def catalog_caps(system: EquationSystem, caps: Caps) -> Caps:
    """`caps` with `arity_cap` lowered to the system's widest symbol: a
    search for the system reads only the catalogs of its symbols'
    arities, and no catalog depends on a wider one."""
    widest = max((arity for _, arity in system.signature), default=1)
    return replace(caps, arity_cap=min(caps.arity_cap, widest))


def pad_to_common_arity(system: EquationSystem) -> EquationSystem:
    """The system itself: its variable space is always x1..`ambient_arity`."""
    return system


def parse_equation_system(text: str) -> EquationSystem:
    """Read `sig f 2` declarations followed by `eq <term> = <term>` lines."""
    signature: dict[str, int] = {}
    equations: list[Equation] = []
    for number, (head, *rest) in records(text):
        if head == "sig":
            if len(rest) != 2:
                raise ParseError("expected `sig <name> <arity>`", number)
            name = symbol_name(rest[0], number)
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
    signature: Sequence[tuple[str, int]], first_broken: Callable[[Sigma], Broken | None]
) -> tuple[Sigma | None, list[tuple[Sigma, Broken]]]:
    """Selector assignments in order until one breaks no equation: that
    assignment (None if none does), and each assignment before it with
    the first equation it breaks, as `first_broken` names it (None when
    the assignment breaks none)."""
    failures = []
    for sigma in projection_assignments(signature):
        bad = first_broken(sigma)
        if bad is None:
            return sigma, failures
        failures.append((sigma, bad))
    return None, failures


def satisfiable_in_projections(system: EquationSystem) -> ProjectionReport:
    """First selector assignment satisfying every equation, or a failure
    table covering all assignments."""

    def first_broken(sigma: Sigma) -> int | None:
        mapping = dict(sigma)
        return next(
            (
                i
                for i, eq in enumerate(system.equations)
                if collapse(eq.lhs, mapping) != collapse(eq.rhs, mapping)
            ),
            None,
        )

    sigma, failures = _selector_scan(system.signature, first_broken)
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
    indices its arguments spell.  Those of its variable arguments are one
    linear form, each variable's column weighted by the places it fills,
    so a symbol applied to variables alone is one `itemgetter` over its
    outputs.  Symbols are steps in post-order, run in one loop at any
    depth, each reading its nested arguments from the values of earlier
    steps.  Returned with the side's `Reads` when it is a variable or a
    symbol on variables alone, else None."""
    reads = None
    steps: list[Callable[..., tuple[int, ...]]] = []  # (outputs, earlier values)

    def app(symbol: str, parts: list) -> tuple[int]:
        nonlocal reads
        pos = positions[symbol]
        weights: dict[int, int] = {}  # variable index -> its weight
        nested = []  # (weight, step); a symbol folds to (its step,), a variable to its index
        weight = base_size ** len(parts)
        for part in parts:
            weight //= base_size
            if isinstance(part, int):
                weights[part] = weights.get(part, 0) + weight
            else:
                nested.append((weight, part[0]))
        fixed = [0] * len(columns[0])
        for index, weight in weights.items():
            fixed = [i + weight * v for i, v in zip(fixed, columns[index - 1])]
        # the fold applies the root last, so this ends as the root's reads
        reads = None if nested else (pos, tuple(fixed))
        # on one row an itemgetter gives a bare value, not a 1-tuple
        if not nested and len(fixed) > 1:
            read = operator.itemgetter(*fixed)
            steps.append(lambda outputs, values=None: read(outputs[pos]))
        else:

            def gather(outputs, values=None):
                index = fixed
                for weight, step in nested:
                    index = [i + weight * v for i, v in zip(index, values[step])]
                return tuple(map(outputs[pos].__getitem__, index))

            steps.append(gather)
        return (len(steps) - 1,)

    plan = fold(term, int, app)
    if isinstance(plan, int):
        values = columns[plan - 1]
        return (lambda outputs: values), (None, values)
    if len(steps) == 1:
        return steps[0], reads

    def run(outputs):
        values: list[tuple[int, ...]] = []
        for step in steps:
            values.append(step(outputs, values))
        return values[-1]

    return run, reads


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


def _verify_pointwise(
    system: EquationSystem,
    tables: Mapping[str, Table],
    base_size: int,
    agreements: Sequence[tuple[Modifier, Modifier]],
) -> None:
    """Replay a hit without composing tables or reading a gather plan:
    each side node by node over every point, a symbol by `Table.apply`."""
    points = list(itertools.product(range(base_size), repeat=system.ambient_arity))

    def var(index: int) -> list[int]:
        return [point[index - 1] for point in points]

    def app(symbol: str, parts: list[list[int]]) -> list[int]:
        return list(map(tables[symbol].apply, zip(*parts)))

    def values(term: Term, modifier: Modifier) -> list[int]:
        result = fold(term, var, app)
        if modifier is None:
            return result
        return [modifier[1].apply((v,)) for v in result]

    for eq, (left, right) in zip(system.equations, agreements):
        if values(eq.lhs, left) != values(eq.rhs, right):
            raise InconsistentData("table evaluation and pointwise evaluation disagree")


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

    The equations are the collisions, read in arity order on their
    records: under an assignment, each side collapses by following the
    assigned argument of each composition until it reaches a selector.
    Terms are built only for a refutation's witnesses.

    A refutation is exact.  A positive answer is exact only when every
    catalog saturated; otherwise deeper compositions could still add
    obstructions.  When a generator's arity exceeds the arity cap its
    own equations were never observed, so nothing can be concluded.
    """
    signature = [(name, table.arity) for name, table in clone.generators]
    if any(arity > clone.caps.arity_cap for _, arity in signature):
        return ProjHomReport("undecided", None, tuple(signature), (), (), False, 0)
    # a collision is named by (its arity's place in arity order, its index)
    blocks = [clone.collisions[arity] for arity in sorted(clone.collisions)]
    exhaustive = all(clone.saturated[a] for a in clone.saturated)

    def first_broken(sigma: Sigma) -> tuple[int, int] | None:
        picks = [i for _, i in sigma]
        return next(
            (
                (b, j)
                for b, block in enumerate(blocks)
                for j in range(len(block))
                if block.apart(j, picks)
            ),
            None,
        )

    surviving, failures = _selector_scan(signature, first_broken)
    checked = sum(map(len, blocks))
    if surviving is not None:
        return ProjHomReport("found", surviving, tuple(signature), (), (), exhaustive, checked)
    # greedy cover: prefer collisions that break many assignments at once,
    # and the earliest among those
    readings = [[i for _, i in sigma] for sigma, _ in failures]
    full_kill = {
        (b, j): {si for si, picks in enumerate(readings) if blocks[b].apart(j, picks)}
        for b, j in sorted({bad for _, bad in failures})
    }
    remaining = set(range(len(failures)))
    chosen: list[tuple[int, int]] = []
    while remaining:
        best = min(full_kill, key=lambda ci: (-len(full_kill[ci] & remaining), ci))
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
        tuple(blocks[b][j] for b, j in chosen),
        tuple(coverage),
        exhaustive,
        checked,
    )
