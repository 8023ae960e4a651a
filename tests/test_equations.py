"""Equation satisfiability in projections, in generated clones, and
modulo outside unaries.

The projection search is cross-checked against an independent reading:
selectors form a clone, so collapsing symbols to argument indices must
agree with an honest catalog search over a selector-only clone.  The
clone search is cross-checked against `table_oracle`, which builds
every side's table by composition.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from clonelab import equations
from clonelab.clones import Table, generate, selector
from clonelab.config import Caps
from clonelab.equations import (
    Equation,
    EquationSystem,
    _compile_side,
    first_broken,
    has_projective_homomorphism,
    pad_to_common_arity,
    parse_equation_system as parse_system,
    projection_assignments,
    satisfiable_in_clone,
    satisfiable_in_projections,
    satisfiable_modulo_outside,
)
from clonelab.errors import CapExceeded, InconsistentData, ParseError
from clonelab.terms import App, Term, Var, collapse

from table_oracle import eval_term_table, reference_search

MIN2 = Table(2, 2, (0, 0, 0, 1))


def min_clone(**caps):
    return generate([("min", MIN2)], 2, Caps(**caps) if caps else Caps())


def siggers_system():
    return parse_system(
        "sig s 6\n"
        "eq s(x1,x2,x1,x3,x2,x3) = s(x2,x1,x3,x1,x3,x2)\n"
    )


# -- parsing -------------------------------------------------------------------


def test_parse_and_print_roundtrip():
    system = parse_system(
        "# toy system\n"
        "sig f 2\n"
        "sig g 3\n"
        "eq f(x1,x2) = g(x2,x1,x1)\n"
        "eq f(x1,x1) = x1\n"
    )
    assert system.signature == (("f", 2), ("g", 3))
    assert [str(eq) for eq in system.equations] == [
        "f(x1,x2) = g(x2,x1,x1)",
        "f(x1,x1) = x1",
    ]
    assert system.ambient_arity == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("sig f\n", 1),
        ("sig f 2\nnope f\n", 2),
        ("sig f 2\neq f(x1,x2) = f(x2,x1) = x1\n", 2),
        ("eq f(x1) = x1\n", 1),
        ("sig f 2\neq f(x1) = x1\n", 2),
        ("sig f 0\n", 1),
        ("sig f ²\n", 1),
        ("sig f 2\neq f(x1,x²) = x1\n", 2),
        ("sig f 2\neq f(x1,x١) = x1\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert f"line {line}:" in str(err.value)


def test_padding_fixes_one_variable_space():
    system = parse_system("sig f 1\nsig g 2\neq f(x1) = g(x1,x2)\n")
    assert system.ambient_arity == 2
    assert pad_to_common_arity(system) is system


def test_system_validation_rejects_wrong_arities():
    with pytest.raises(InconsistentData):
        EquationSystem(
            (("f", 2),), (Equation(App("f", (Var(1),)), Var(1)),)
        )
    with pytest.raises(InconsistentData):
        EquationSystem((("f", 2), ("f", 2)), ())


# -- projections ----------------------------------------------------------------


def test_commutativity_has_no_projection_model():
    system = parse_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")
    report = satisfiable_in_projections(system)
    assert not report.satisfiable
    assert len(report.failures) == 2
    assert {dict(sig)["f"] for sig, _ in report.failures} == {1, 2}
    assert all(bad == 0 for _, bad in report.failures)


def test_two_symbol_system_finds_first_assignment():
    system = parse_system("sig f 3\nsig g 3\neq f(x1,x2,x3) = g(x2,x1,x3)\n")
    report = satisfiable_in_projections(system)
    assert report.satisfiable
    assert report.sigma == (("f", 1), ("g", 2))


def test_siggers_fails_in_all_six_projections():
    report = satisfiable_in_projections(siggers_system())
    assert not report.satisfiable
    assert len(report.failures) == 6
    assert [dict(sig)["s"] for sig, _ in report.failures] == [1, 2, 3, 4, 5, 6]


def symbol_terms(signature, leaf):
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            [
                st.tuples(*([children] * arity)).map(
                    lambda args, name=name: App(name, args)
                )
                for name, arity in signature
            ]
        ),
        max_leaves=5,
    )


SIG = (("f", 2), ("g", 3))
TERMS = symbol_terms(SIG, st.integers(1, 3).map(Var))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TERMS, TERMS), min_size=1, max_size=2))
def test_projection_search_agrees_with_selector_clone(pairs):
    system = EquationSystem(SIG, tuple(Equation(l, r) for l, r in pairs))
    selectors_only = generate([], 2, Caps(arity_cap=3, depth_cap=1))
    assert (
        satisfiable_in_projections(system).satisfiable
        == satisfiable_in_clone(system, selectors_only).found
    )


@settings(max_examples=60, deadline=None)
@given(TERMS, st.integers(1, 2), st.integers(1, 3))
def test_collapse_matches_selector_evaluation(term, pf, pg):
    sigma = {"f": pf, "g": pg}
    tables = {"f": selector(2, 2, pf), "g": selector(2, 3, pg)}
    assert eval_term_table(term, tables, 3, 2) == selector(2, 3, collapse(term, sigma))


# -- catalog search ---------------------------------------------------------------


def test_commutativity_holds_in_the_min_clone():
    clone = min_clone(arity_cap=2, depth_cap=2)
    system = parse_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")
    report = satisfiable_in_clone(system, clone)
    assert report.found
    # selectors are not commutative, so the search lands on min itself
    assert dict(report.assignment)["f"].table == MIN2


def test_idempotence_is_witnessed_by_the_first_selector():
    clone = min_clone(arity_cap=2, depth_cap=2)
    system = parse_system("sig f 2\neq f(x1,x1) = x1\n")
    report = satisfiable_in_clone(system, clone)
    assert report.found
    assert dict(report.assignment)["f"].table == selector(2, 2, 1)


def test_contradictory_selector_demands_fail_exhaustively():
    clone = min_clone(arity_cap=2, depth_cap=2)
    system = parse_system("sig f 2\neq f(x1,x2) = x1\neq f(x1,x2) = x2\n")
    report = satisfiable_in_clone(system, clone)
    assert not report.found
    assert report.exhaustive
    assert report.checked == 3  # both selectors and min


def test_siggers_is_satisfiable_in_the_min_clone():
    clone = min_clone()
    report = satisfiable_in_clone(siggers_system(), clone)
    assert report.found
    table = dict(report.assignment)["s"].table
    # replay the identity pointwise on the witness
    for x, y, z in itertools.product(range(2), repeat=3):
        assert table.apply((x, y, x, z, y, z)) == table.apply((y, x, z, x, z, y))


# -- compiled sides against the table oracle -------------------------------------------

SIG3 = (("f", 1), ("g", 2), ("h", 3))


def terms_to_depth(depth, arity):
    leaf = st.integers(1, arity).map(Var)
    if depth == 0:
        return leaf
    sub = terms_to_depth(depth - 1, arity)
    return st.one_of(
        leaf,
        *(
            st.tuples(*([sub] * k)).map(lambda args, name=name: App(name, args))
            for name, k in SIG3
        ),
    )


@st.composite
def sides_with_tables(draw):
    base = draw(st.integers(2, 3))
    arity = draw(st.integers(1, 3))
    term = draw(terms_to_depth(3, arity))
    tables = {
        name: Table(
            base,
            k,
            tuple(draw(st.lists(st.integers(0, base - 1), min_size=base**k, max_size=base**k))),
        )
        for name, k in SIG3
    }
    return term, tables, arity, base


@settings(max_examples=200, deadline=None)
@given(sides_with_tables())
def test_compiled_side_matches_the_composed_table(case):
    # repeated, unused and nested variables, variables as whole sides
    term, tables, arity, base = case
    positions = {name: i for i, (name, _) in enumerate(SIG3)}
    outputs = tuple(tables[name].outputs for name, _ in SIG3)
    expected = eval_term_table(term, tables, arity, base).outputs
    columns = list(zip(*itertools.product(range(base), repeat=arity)))
    side, reads = _compile_side(term, columns, base, positions)
    assert side(outputs) == expected
    # a variable, or a symbol on variables alone, also names what each
    # point reads: its value, or the row of the symbol's table
    flat = isinstance(term, Var) or all(isinstance(a, Var) for a in term.args)
    assert (reads is not None) == flat
    if reads is not None:
        symbol, points = reads
        values = points if symbol is None else [outputs[symbol][r] for r in points]
        assert tuple(values) == expected
        assert symbol == (None if isinstance(term, Var) else positions[term.symbol])


CONDITIONS = {
    "majority": "sig m 3\neq m(x1,x1,x2) = x1\neq m(x1,x2,x1) = x1\neq m(x2,x1,x1) = x1\n",
    "maltsev": "sig p 3\neq p(x1,x2,x2) = x1\neq p(x2,x2,x1) = x1\n",
    "symmetric": "sig f 2\neq f(x1,x2) = f(x2,x1)\n",
    "weak-nu": (
        "sig w 3\neq w(x1,x1,x1) = x1\n"
        "eq w(x1,x1,x2) = w(x1,x2,x1)\neq w(x1,x2,x1) = w(x2,x1,x1)\n"
    ),
    "semilattice": (
        "sig s 2\neq s(x1,x2) = s(x2,x1)\n"
        "eq s(x1,s(x2,x3)) = s(s(x1,x2),x3)\neq s(x1,x1) = x1\n"
    ),
}


def test_clone_search_matches_the_table_oracle():
    rng = random.Random(20261018)
    systems = [parse_system(text) for text in CONDITIONS.values()]
    found = 0
    for _ in range(40):
        # one point: every side is a 1-tuple, a lone itemgetter index a scalar
        base = rng.choice([1, 2, 3])
        generators = [
            (f"g{i}", Table(base, k, tuple(rng.randrange(base) for _ in range(base**k))))
            for i, k in enumerate(rng.choice([(1,), (2,), (1, 2), (2, 2)]))
        ]
        clone = generate(generators, base, Caps(arity_cap=3, depth_cap=2))
        perm = list(range(base))
        while perm == list(range(base)) and base > 1:
            rng.shuffle(perm)
        identity = ("id", Table(base, 1, tuple(range(base))))
        swap = ("swap", Table(base, 1, tuple(perm)))
        squash = ("squash", Table(base, 1, tuple(rng.randrange(base) for _ in range(base))))
        # the last family has no identity, so its hits need modifiers
        families = [[identity, swap], [identity], [swap, squash]]
        for system in systems:
            report = satisfiable_in_clone(system, clone)
            assert report == reference_search(system, clone)
            found += report.found
            for family in families:
                modulo = satisfiable_modulo_outside(system, clone, family)
                assert modulo == reference_search(system, clone, family)
            for _ in range(5):
                tables = {
                    name: rng.choice(clone.catalog(arity)).table
                    for name, arity in system.signature
                }
                assert first_broken(system, tables, base, clone.caps) == first_unequal(
                    system, tables, base
                )
    assert 0 < found < 40 * len(systems)


SYSTEMS = {
    **CONDITIONS,
    "variables": "sig f 2\neq f(x1,x2) = f(x2,x1)\neq x1 = x2\n",
    "nested": "sig f 2\neq f(x1,x2) = f(x2,x1)\neq f(x1,f(x1,x2)) = f(x1,x2)\n",
    "two-symbol": (
        "sig f 2\nsig g 3\neq f(x1,x2) = f(x2,x1)\neq g(x1,x1,x1) = x1\n"
        "eq g(x1,x1,x2) = g(x2,x1,x1)\neq f(x1,x2) = g(x1,x2,x2)\n"
    ),
}


def random_generators(rng, base, arities):
    return [
        (f"g{i}", Table(base, k, tuple(rng.randrange(base) for _ in range(base**k))))
        for i, k in enumerate(arities)
    ]


def last_entry_clone(rng):
    """A base-3 clone cut at the catalog cap right after its first
    commutative binary entry, so the symmetric search hits its last."""
    system = parse_system(CONDITIONS["symmetric"])
    while True:
        generators = random_generators(rng, 3, (2,))
        report = reference_search(system, generate(generators, 3, Caps(arity_cap=2, depth_cap=2)))
        if report.found and report.checked > 2:
            caps = Caps(arity_cap=2, depth_cap=2, catalog_cap=report.checked)
            return generate(generators, 3, caps)


def masked_cases():
    """(clone, names of the systems to search in it)."""
    rng = random.Random(20261020)
    arity3 = ["majority", "maltsev", "weak-nu", "nested"]
    every = [*SYSTEMS]
    # base 3, arity-3 catalogs at depth 2
    yield generate(random_generators(rng, 3, (2,)), 3, Caps(arity_cap=3, depth_cap=2)), arity3
    yield last_entry_clone(rng), ["symmetric"]
    # a median and a Maltsev operation among the depth-1 entries, after
    # a random binary's: hits in mid-catalog
    median = Table(3, 3, tuple(sorted(p)[1] for p in itertools.product(range(3), repeat=3)))
    maltsev = Table(3, 3, tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3)))
    generators = [*random_generators(rng, 3, (2,)), ("m", median), ("p", maltsev)]
    yield generate(generators, 3, Caps(arity_cap=3, depth_cap=1)), arity3
    # catalogs cut at the catalog cap
    yield generate(random_generators(rng, 3, (2, 2)), 3, Caps(arity_cap=3, depth_cap=2, catalog_cap=40)), every
    for _ in range(3):
        clone = generate(random_generators(rng, 2, (2,)), 2, Caps(arity_cap=3, depth_cap=2))
        yield clone, every
    # one point, where every system holds, `x1 = x2` included
    yield generate(random_generators(rng, 1, (2,)), 1, Caps(arity_cap=3, depth_cap=2)), every
    # a ternary generator too wide to translate through
    wide = generate(random_generators(rng, 7, (3,)), 7, Caps(arity_cap=2, depth_cap=1))
    yield wide, ["symmetric", "variables", "nested"]


UNARY_SYSTEMS = [
    "sig u 1\neq u(x1) = x1\n",
    "sig u 1\nsig v 1\neq u(u(x1)) = v(x1)\neq v(x1) = u(v(x1))\n",
]


def search_families(rng, base):
    """The plain search and the three outside families of the oracle
    test: the last one has no identity, so its hits need modifiers."""
    perm = list(range(base))
    while perm == list(range(base)) and base > 1:
        rng.shuffle(perm)
    identity = ("id", Table(base, 1, tuple(range(base))))
    swap = ("swap", Table(base, 1, tuple(perm)))
    squash = ("squash", Table(base, 1, tuple(rng.randrange(base) for _ in range(base))))
    return [(None,), [identity, swap], [identity], [swap, squash]]


def test_masked_search_matches_the_table_oracle(monkeypatch):
    # entries ruled out in bulk by their height-1 equations still count
    # in `checked`, and the hit, its modifiers and its count are the ones
    # the oracle's full product finds
    pruned = []
    survivors = equations._survivors

    def recorded(rows, count, *rest):
        kept = survivors(rows, count, *rest)
        pruned.append(len(kept) < count)
        return kept

    monkeypatch.setattr(equations, "_survivors", recorded)
    rng = random.Random(33)
    cases = [(clone, [parse_system(SYSTEMS[name]) for name in names]) for clone, names in masked_cases()]
    # a base over 256 points has no catalog rows, and nothing is masked
    shift = ("s", Table(257, 1, tuple((v + 1) % 257 for v in range(257))))
    big = generate([shift], 257, Caps(arity_cap=1, depth_cap=3))
    cases.append((big, [parse_system(text) for text in UNARY_SYSTEMS]))
    last_hits = found = 0
    for clone, systems in cases:
        for system in systems:
            for family in search_families(rng, clone.base_size):
                if family == (None,):
                    report = satisfiable_in_clone(system, clone)
                else:
                    report = satisfiable_modulo_outside(system, clone, family)
                assert report == reference_search(system, clone, family)
                found += report.found
                last_hits += report.found and report.checked == math.prod(
                    len(clone.catalog(arity)) for _, arity in system.signature
                )
        rows = clone.catalog_rows(1)
        assert (rows is None) == (clone.base_size > 256)
    assert last_hits and found
    assert any(pruned) and not all(pruned)


def test_each_symbol_is_masked_by_its_own_equations(monkeypatch):
    # in a two-symbol system, each catalog is cut down by the equations on
    # its symbol alone; the linking equation is left to the loop
    masked = []
    survivors = equations._survivors

    def recorded(rows, count, base_size, reads, outside):
        masked.append((count, len(reads)))
        return survivors(rows, count, base_size, reads, outside)

    monkeypatch.setattr(equations, "_survivors", recorded)
    rng = random.Random(5)
    system = parse_system(SYSTEMS["two-symbol"])
    clone = generate(random_generators(rng, 2, (2,)), 2, Caps(arity_cap=3, depth_cap=2))
    assert satisfiable_in_clone(system, clone) == reference_search(system, clone)
    assert masked == [(len(clone.catalog(2)), 1), (len(clone.catalog(3)), 2)]


def first_unequal(system, tables, base):
    """The index of the first equation whose side tables differ."""
    n = system.ambient_arity
    return next(
        (
            i
            for i, eq in enumerate(system.equations)
            if eval_term_table(eq.lhs, tables, n, base)
            != eval_term_table(eq.rhs, tables, n, base)
        ),
        None,
    )


# -- caps on the search -------------------------------------------------------------


def test_oversized_row_space_is_refused_up_front():
    clone = generate([("g", Table(2, 2, (0, 1, 1, 1)))], 2, Caps(arity_cap=2, depth_cap=1))
    system = parse_system("sig f 2\neq f(x1,x20) = f(x20,x1)\n")
    family = [("id", IDENTITY1)]
    for search in (
        lambda: satisfiable_in_clone(system, clone),
        lambda: satisfiable_modulo_outside(system, clone, family),
    ):
        with pytest.raises(CapExceeded) as err:
            search()
        assert str(err.value) == "equation row space needs 1048576, cap is 1000000"
        assert (err.value.what, err.value.needed, err.value.cap) == (
            "equation row space", 2**20, 1_000_000
        )
    # one variable fewer fits under the cap
    narrow = parse_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")
    assert satisfiable_in_clone(narrow, clone).found


def test_oversized_assignment_space_carries_its_numbers():
    clone = min_clone(arity_cap=2, depth_cap=2, tuple_cap=2)
    system = parse_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")
    with pytest.raises(CapExceeded) as err:
        satisfiable_in_clone(system, clone)
    assert str(err.value) == "assignment search space needs 3, cap is 2"
    assert (err.value.what, err.value.needed, err.value.cap) == (
        "assignment search space", 3, 2
    )


# -- modulo outside unaries ---------------------------------------------------------


IDENTITY1 = Table(2, 1, (0, 1))
ZERO1 = Table(2, 1, (0, 0))


def test_identity_family_reduces_to_plain_satisfiability():
    clone = min_clone(arity_cap=2, depth_cap=2)
    for text in [
        "sig f 2\neq f(x1,x2) = f(x2,x1)\n",
        "sig f 2\neq f(x1,x2) = x1\neq f(x1,x2) = x2\n",
    ]:
        system = parse_system(text)
        plain = satisfiable_in_clone(system, clone)
        modulo = satisfiable_modulo_outside(system, clone, [("id", IDENTITY1)])
        assert plain.found == modulo.found


def test_collapsing_unaries_rescue_an_unsatisfiable_equation():
    clone = min_clone(arity_cap=2, depth_cap=2)
    system = EquationSystem((), (Equation(Var(1), Var(2)),))
    assert not satisfiable_in_clone(system, clone).found
    report = satisfiable_modulo_outside(
        system, clone, [("id", IDENTITY1), ("zero", ZERO1)]
    )
    assert report.found
    assert report.modifiers == (("zero", "zero"),)


def test_outside_family_must_be_unary():
    clone = min_clone(arity_cap=2, depth_cap=2)
    with pytest.raises(InconsistentData):
        satisfiable_modulo_outside(
            EquationSystem((), ()), clone, [("bad", MIN2)]
        )


def test_outside_family_names_are_distinct():
    clone = min_clone(arity_cap=2, depth_cap=2)
    family = [("id", IDENTITY1), ("id", Table(2, 1, (1, 0)))]
    with pytest.raises(InconsistentData, match="names 'id' twice"):
        satisfiable_modulo_outside(EquationSystem((), ()), clone, family)


# -- homomorphisms onto projections ---------------------------------------------------


def test_selector_generator_admits_a_projective_reading():
    clone = generate([("f", selector(2, 2, 1))], 2, Caps(arity_cap=3, depth_cap=2))
    report = has_projective_homomorphism(clone)
    assert report.status == "found"
    assert report.sigma == (("f", 1),)
    assert report.exhaustive


def test_min_clone_refutation_is_small_and_replays():
    clone = min_clone(arity_cap=3, depth_cap=3)
    report = has_projective_homomorphism(clone)
    assert report.status == "refuted"
    assert report.exhaustive
    assert len(report.witness) == 1
    s, t = report.witness[0]
    # the witness is a true equation of the clone ...
    tables = {"min": MIN2}
    n = 3
    assert eval_term_table(s, tables, n, 2) == eval_term_table(t, tables, n, 2)
    # ... that no selector assignment satisfies, covering both choices
    for sigma in projection_assignments([("min", 2)]):
        assert collapse(s, dict(sigma)) != collapse(t, dict(sigma))
    assert len(report.coverage) == 2
    assert all(wi == 0 for _, wi in report.coverage)
    # consistency triangle: the refuting system holds in the clone that
    # produced it and has no projection model
    system = report.witness_system()
    assert satisfiable_in_clone(system, clone).found
    assert not satisfiable_in_projections(system).satisfiable


def test_one_element_clone_has_no_projective_reading():
    # all selectors coincide on a one-element base, so any homomorphism
    # onto the projections would have to merge distinct selectors
    clone = generate([], 1, Caps(arity_cap=2, depth_cap=1))
    report = has_projective_homomorphism(clone)
    assert report.status == "refuted"
    assert report.witness == ((Var(1), Var(2)),)


def test_oversized_generators_leave_the_question_open():
    wide = selector(2, 7, 1)
    clone = generate([("s", wide)], 2, Caps(arity_cap=2, depth_cap=2))
    report = has_projective_homomorphism(clone)
    assert report.status == "undecided"
    assert report.sigma is None
