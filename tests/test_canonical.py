"""Canonicity decisions checked against the raw definition, plus the
induced actions on type spaces.

The finite oracle below spells out the definition with no shared
machinery: for every list of argument tuples and every choice of one
automorphism per argument, moving the arguments must keep the image in
its orbit, with orbit membership decided by filtering all permutations.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from canonical_oracle import is_canonical_every_k, weak_orders
from factor_oracle import check_factor_isomorphism, check_table_correspondence
from pair_oracle import eval_pair, materialize
from clonelab import canonical, structures
from clonelab.canonical import (
    Operation,
    _enumerated_verdict,
    _moves,
    _moves_are_undone,
    critical_level,
    default_k_max,
    is_canonical,
    is_canonical_finite,
    is_canonical_symbolic,
    type_image,
    type_table,
    xi_infty,
)
from clonelab.clones import Table, selector
from clonelab.config import DEFAULT_CAPS, Caps
from clonelab.errors import (
    CapExceeded,
    InconsistentData,
    NonCanonicalOperation,
    UnsupportedTerm,
)
from clonelab.orderterms import (
    Coord,
    Lex,
    MapApply,
    Max,
    Min,
    eval_rational,
)
from clonelab.plmap import translation
from clonelab.structures import (
    DLO,
    PURE_SET,
    FiniteStructure,
    Relation,
    pattern_of,
    type_space,
)

F = Fraction


# -- oracle ----------------------------------------------------------------


def ranks(values):
    """Rank vector of a value list: the order pattern it realizes."""
    order = sorted(set(values))
    return tuple(order.index(v) for v in values)


def brute_automorphisms(structure):
    found = []
    for p in itertools.permutations(range(structure.domain_size)):
        if all(
            tuple(p[v] for v in t) in rel.tuples
            for rel in structure.relations
            for t in rel.tuples
        ):
            found.append(p)
    return found


def same_orbit(auts, s, t):
    return any(tuple(p[v] for v in s) == tuple(t) for p in auts)


def definition_says_canonical(table, structure, k_max):
    auts = brute_automorphisms(structure)
    size = structure.domain_size
    n = table.arity
    for k in range(1, k_max + 1):
        for args in itertools.product(
            itertools.product(range(size), repeat=k), repeat=n
        ):
            image = tuple(table.apply(tuple(a[j] for a in args)) for j in range(k))
            for choice in itertools.product(auts, repeat=n):
                moved = tuple(tuple(p[v] for v in a) for p, a in zip(choice, args))
                moved_image = tuple(
                    table.apply(tuple(a[j] for a in moved)) for j in range(k)
                )
                if not same_orbit(auts, image, moved_image):
                    return False
    return True


def binary_mod3(f):
    return Table(3, 2, tuple(f(x, y) % 3 for x in range(3) for y in range(3)))


SUM_MOD3 = binary_mod3(lambda x, y: x + y)
PROD_MOD3 = binary_mod3(lambda x, y: x * y)
CONSTANT = Operation("c", 1, Table(3, 1, (0, 0, 0)))


# -- finite structures -------------------------------------------------------


def test_sum_mod3_canonical_over_directed_triangle():
    cycle = corpus.directed_cycle(3)
    assert definition_says_canonical(SUM_MOD3, cycle, 3)
    verdict = is_canonical_finite(SUM_MOD3, cycle)
    assert verdict.canonical
    assert verdict.checked_up_to == 3
    assert verdict.counterexample is None


def test_product_mod3_rejected_with_checkable_witness():
    cycle = corpus.directed_cycle(3)
    assert not definition_says_canonical(PROD_MOD3, cycle, 2)
    verdict = is_canonical_finite(PROD_MOD3, cycle)
    assert not verdict.canonical
    ce = verdict.counterexample
    auts = brute_automorphisms(cycle)
    # the witness automorphisms move args_a onto args_b ...
    for p, a, b in zip(ce.automorphisms, ce.args_a, ce.args_b):
        assert p.images in [tuple(q) for q in auts]
        assert p.apply(a) == b
    # ... so both argument lists have the same types, but the images differ
    image_a = tuple(PROD_MOD3.apply(tuple(a[j] for a in ce.args_a)) for j in range(ce.k))
    image_b = tuple(PROD_MOD3.apply(tuple(b[j] for b in ce.args_b)) for j in range(ce.k))
    assert not same_orbit(auts, image_a, image_b)


def test_rigid_structure_makes_everything_canonical():
    # a linear order has no automorphisms besides the identity, so tuple
    # types separate all tuples and any operation is canonical
    order = corpus.linear_order(3)
    reverse = Table(3, 1, (2, 1, 0))
    assert definition_says_canonical(reverse, order, 3)
    assert is_canonical_finite(reverse, order).canonical


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_finite_check_matches_definition(outputs):
    cycle = corpus.directed_cycle(3)
    table = Table(3, 2, tuple(outputs))
    expected = definition_says_canonical(table, cycle, 2)
    assert is_canonical_finite(table, cycle, k_max=2).canonical == expected


def undone_by_brute_force(table, structure):
    """Every (α_1, …, α_n) in Aut^n is undone by some β in Aut:
    f(α_1x_1, …, α_nx_n) = β f(x) at every point x."""
    auts = brute_automorphisms(structure)
    points = list(itertools.product(range(table.size), repeat=table.arity))
    images = [table.apply(x) for x in points]
    for choice in itertools.product(auts, repeat=table.arity):
        moved = [table.apply(tuple(p[v] for p, v in zip(choice, x))) for x in points]
        if not any(
            all(beta[out] == new for out, new in zip(images, moved)) for beta in auts
        ):
            return False
    return True


REDUCTION_CASES = [
    (structure, Table(size, arity, outputs))
    for size, arity in ((2, 2), (3, 1))
    for structure in (
        corpus.directed_cycle(size),
        corpus.empty_structure(size),
        corpus.marked_point(size),
    )
    for outputs in itertools.product(range(size), repeat=size**arity)
]


def test_generator_moves_decide_what_all_of_aut_n_decides():
    # every binary table on two elements and every unary one on three,
    # over a directed cycle, a relation-free set and a marked point
    canonical = 0
    for structure, table in REDUCTION_CASES:
        undone = undone_by_brute_force(table, structure)
        assert _moves_are_undone(table, structure) == undone
        # the reduction: all of Aut^n undone iff canonical at k = |D|^n
        level = table.size**table.arity
        assert definition_says_canonical(table, structure, level) == undone
        canonical += undone
    assert 0 < canonical < len(REDUCTION_CASES)


def _relation(name, arity, size):
    cube = list(itertools.product(range(size), repeat=arity))
    return st.sets(st.sampled_from(cube)).map(
        lambda tuples: Relation(name, arity, frozenset(tuples))
    )


def _random_structure(size):
    shapes = [
        corpus.directed_cycle(size),
        corpus.linear_order(size),
        corpus.path(size),
        corpus.complete(size),
        corpus.complete_bipartite(1, size - 1),
        corpus.empty_structure(size),
        corpus.marked_point(size),
    ]
    if size == 2:
        shapes.append(corpus.disjoint_edges(1))
    relations = st.lists(
        st.one_of(
            _relation("P", 1, size), _relation("E", 2, size), _relation("R", 3, size)
        ),
        max_size=2,
        unique_by=lambda rel: rel.name,
    )
    return st.sampled_from(shapes) | relations.map(
        lambda rels: FiniteStructure(size, tuple(rels))
    )


@st.composite
def _table_over_structure(draw):
    size = draw(st.integers(2, 3))
    arity = draw(st.integers(1, 2))
    cells = size**arity
    outputs = draw(st.lists(st.integers(0, size - 1), min_size=cells, max_size=cells))
    return Table(size, arity, tuple(outputs)), draw(_random_structure(size))


@settings(max_examples=300, deadline=None)
@given(_table_over_structure(), st.sampled_from([None, 1, 2]))
def test_finite_verdict_equals_the_enumeration_alone(case, k_max):
    table, structure = case
    verdict = is_canonical_finite(table, structure, k_max)
    k = default_k_max(structure) if k_max is None else k_max
    enumerated = _enumerated_verdict(table, structure, k, DEFAULT_CAPS)
    assert verdict == enumerated


def test_large_relation_free_set_is_decided_by_generators():
    # Aut has n! elements and n - 1 generators, the transpositions of
    # neighbours; the enumeration at k <= 3 would run through n^6 argument
    # lists per level
    for n in (8, 10):
        start = time.monotonic()
        verdict = is_canonical_finite(selector(n, 2, 1), corpus.empty_structure(n))
        assert time.monotonic() - start < 2
        assert verdict.canonical
        assert verdict.checked_up_to == 3


def test_non_canonical_table_on_a_large_set_carries_witnesses():
    # sum mod 10 on the relation-free 10-element set: the witnesses are the
    # lexicographically least automorphisms, found without listing 10! of them
    table = Table(10, 2, tuple((a + b) % 10 for a in range(10) for b in range(10)))
    start = time.monotonic()
    verdict = is_canonical_finite(table, corpus.empty_structure(10))
    assert time.monotonic() - start < 2
    ce = verdict.counterexample
    assert (ce.k, ce.args_a, ce.args_b) == (2, ((0, 1), (0, 1)), ((0, 1), (0, 9)))
    assert [p.images for p in ce.automorphisms] == [
        tuple(range(10)),
        (0, 9, 1, 2, 3, 4, 5, 6, 7, 8),
    ]
    for p, a, b in zip(ce.automorphisms, ce.args_a, ce.args_b):
        assert p.apply(a) == b


def test_generating_set_is_built_once_per_structure(monkeypatch):
    # Only the generating set searches for automorphisms from inside
    # `structures`, so those searches count its builds.  The sum mod 9
    # verdict needs it for the generator test and for the orbits at k = 1
    # and 2; xi_infty needs it for two canonicity checks and the orbits.
    searches = []
    search = structures.extensions

    def counted(structure, pairs):
        searches.append(structure)
        return search(structure, pairs)

    monkeypatch.setattr(structures, "extensions", counted)
    structures.orbits(corpus.empty_structure(9), 1)
    one_build = len(searches)
    assert one_build == 8
    sum_mod9 = Table(9, 2, tuple((a + b) % 9 for a in range(9) for b in range(9)))
    unary = [
        Operation("id", 1, Table(9, 1, tuple(range(9)))),
        Operation("c", 1, Table(9, 1, (0,) * 9)),
    ]
    for decide in (
        lambda s: is_canonical_finite(sum_mod9, s, 3),
        lambda s: xi_infty(unary, s),
    ):
        searches.clear()
        decide(corpus.empty_structure(9))
        assert len(searches) == one_build


# -- order terms --------------------------------------------------------------


def test_lex_is_canonical_over_the_dense_order():
    verdict = is_canonical_symbolic(Lex(Coord(1), Coord(2)), DLO)
    assert verdict.canonical
    assert verdict.checked_up_to == 3


def test_min_is_not_canonical_and_the_witness_replays():
    verdict = is_canonical_symbolic(Min((Coord(1), Coord(2))), DLO)
    assert not verdict.canonical
    ce = verdict.counterexample
    assert ce.automorphisms is None
    # same per-argument patterns ...
    for a, b in zip(ce.args_a, ce.args_b):
        assert pattern_of(DLO, a) == pattern_of(DLO, b)
    # ... different image patterns
    term = Min((Coord(1), Coord(2)))
    out_a = [eval_rational(term, tuple(a[j] for a in ce.args_a)) for j in range(ce.k)]
    out_b = [eval_rational(term, tuple(b[j] for b in ce.args_b)) for j in range(ce.k)]
    assert ranks(out_a) != ranks(out_b)


def test_min_fails_over_the_pure_set_too():
    # min of (0,0) and (1,2) has equal entries, min of (5,5) and (1,2)
    # has distinct ones, yet the equality patterns of the arguments match
    verdict = is_canonical_symbolic(Min((Coord(1), Coord(2))), PURE_SET)
    assert not verdict.canonical
    ce = verdict.counterexample
    for a, b in zip(ce.args_a, ce.args_b):
        assert pattern_of(PURE_SET, a) == pattern_of(PURE_SET, b)


def test_lex_is_canonical_over_the_pure_set():
    assert is_canonical_symbolic(Lex(Coord(1), Coord(2)), PURE_SET).canonical


def test_coordinate_projections_are_canonical():
    assert is_canonical_symbolic(Coord(2), DLO).canonical
    assert is_canonical_symbolic(Coord(1), PURE_SET).canonical


def _replays(term, structure, cx):
    """A symbolic counterexample re-checked outside the library: its
    argument lists agree in type argument by argument, and the images
    that `pair_oracle.eval_pair` gives them differ in type."""
    assert cx.k == 2 and cx.automorphisms is None
    for a, b in zip(cx.args_a, cx.args_b):
        assert pattern_of(structure, a) == pattern_of(structure, b)
    images = [
        [eval_pair(term, [a[j] for a in args]) for j in range(cx.k)]
        for args in (cx.args_a, cx.args_b)
    ]
    ranks = materialize(v for image in images for v in image)
    types = [pattern_of(structure, [ranks[v] for v in image]) for image in images]
    assert types[0] != types[1]


_LEAVES = st.sampled_from([Coord(1), Coord(2)])


def _binary_nodes(children):
    pairs = st.tuples(children, children)
    return st.one_of(pairs.map(Min), pairs.map(Max), pairs.map(lambda p: Lex(*p)))


_DEPTH_ONE = _LEAVES | _binary_nodes(_LEAVES)
_DEPTH_TWO = _DEPTH_ONE | _binary_nodes(_DEPTH_ONE)


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
@settings(max_examples=20, deadline=None)
@given(_DEPTH_TWO, st.booleans())
def test_pair_level_agrees_with_the_exhaustive_check(structure, term, wrap):
    # both structures are homogeneous in a binary language, so a split
    # at k = 3 implies one at k <= 2
    if wrap:
        term = MapApply("shift", translation(F(7, 2)), term)
    verdict = is_canonical_symbolic(term, structure)
    oracle = is_canonical_every_k(term, structure, 3)
    assert verdict.canonical == oracle.canonical
    assert verdict.checked_up_to == oracle.checked_up_to
    if not verdict.canonical:
        _replays(term, structure, verdict.counterexample)


_THREE_LEAVES = st.sampled_from([Coord(1), Coord(2), Coord(3)])
_THREE_DEPTH_ONE = _THREE_LEAVES | _binary_nodes(_THREE_LEAVES)
_THREE_DEPTH_TWO = _THREE_DEPTH_ONE | _binary_nodes(_THREE_DEPTH_ONE)


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
@settings(max_examples=25, deadline=None)
@given(_THREE_DEPTH_TWO, st.booleans(), st.sampled_from([1, 2]))
def test_the_rank_table_check_agrees_with_the_exhaustive_check(
    structure, term, wrap, k_max
):
    # ternary terms, and the levels below and at the pair level
    if wrap:
        term = MapApply("shift", translation(F(7, 2)), term)
    verdict = is_canonical_symbolic(term, structure, k_max)
    oracle = is_canonical_every_k(term, structure, k_max)
    assert verdict.canonical == oracle.canonical
    assert verdict.checked_up_to == oracle.checked_up_to
    if not verdict.canonical:
        _replays(term, structure, verdict.counterexample)


def test_outer_map_chains_do_not_change_the_verdict():
    shift = translation(F(7, 2))
    wrapped = MapApply("shift", shift, Lex(Coord(1), Coord(2)))
    assert is_canonical_symbolic(wrapped, DLO).canonical
    wrapped_min = MapApply("shift", shift, Min((Coord(1), Coord(2))))
    assert not is_canonical_symbolic(wrapped_min, DLO).canonical


def test_inner_map_applications_are_rejected():
    shift = translation(F(1))
    inner = Min((MapApply("shift", shift, Coord(1)), Coord(2)))
    with pytest.raises(UnsupportedTerm):
        is_canonical_symbolic(inner, DLO)



def _count_evaluations(monkeypatch):
    """The list of points that `canonical` evaluates a term at."""
    points = []
    compile_term = canonical.compile_term

    def counted(term):
        evaluate = compile_term(term)

        def recorded(args):
            points.append(args)
            return evaluate(args)

        return recorded

    monkeypatch.setattr(canonical, "compile_term", counted)
    return points


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
def test_a_binary_check_evaluates_each_grid_point_once(monkeypatch, structure):
    points = _count_evaluations(monkeypatch)
    term = Lex(Coord(1), Lex(Coord(2), Coord(1)))
    assert is_canonical_symbolic(term, structure).canonical
    # the grid {0, 2, 4}^2 and its 18 points with one coordinate raised by 1
    assert len(points) == len(set(points)) == 27


def test_below_the_pair_level_nothing_is_evaluated(monkeypatch):
    points = _count_evaluations(monkeypatch)
    term = Min((Coord(1), Coord(2)))
    verdict = is_canonical_symbolic(term, DLO, k_max=1)
    assert (verdict.canonical, verdict.checked_up_to) == (True, 1)
    assert points == []
    # the grid of 3^2 points: its guard still runs
    with pytest.raises(CapExceeded) as err:
        is_canonical_symbolic(term, DLO, k_max=1, caps=Caps(tuple_cap=8))
    assert (err.value.what, err.value.needed, err.value.cap) == (
        "canonicity grid size",
        9,
        8,
    )
    assert points == []


def _joint_type(structure, a, b):
    """The per-argument types of the argument lists of pairs (a_i, b_i)."""
    return tuple(pattern_of(structure, pair) for pair in zip(a, b))


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
def test_moves_on_the_grid_connect_each_per_argument_type(structure):
    # the reduction behind the check, for binary terms: joining the joint
    # pattern of two grid points with that of their images under each
    # move leaves one class per per-argument type, and meets every joint
    # order pattern of the 4 entries.  With the points' own indices as
    # ranks, each move's ranks name its moved points.
    values, raised = range(0, 5, 2), range(1, 6, 2)
    grid = list(itertools.product(values, repeat=2))
    points = [*grid, *itertools.product(raised, values), *itertools.product(values, raised)]
    moves = []
    for moved, move in _moves(structure, grid, range(len(points))):
        assert [points[t] for t in moved] == list(map(move, grid))
        moves.append(move)
    assert len(moves) == (6 if structure is DLO else 8)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in itertools.product(grid, repeat=2):
        for move in moves:
            moved_a, moved_b = move(a), move(b)
            assert _joint_type(structure, a, b) == _joint_type(structure, moved_a, moved_b)
            parent[find(ranks(a + b))] = find(ranks(moved_a + moved_b))
    classes = {}
    for codes in weak_orders(4):
        assert codes in parent
        classes.setdefault(find(codes), set()).add(
            _joint_type(structure, codes[:2], codes[2:])
        )
    assert all(len(types) == 1 for types in classes.values())
    assert len(classes) == (9 if structure is DLO else 4)


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
def test_four_ary_terms_are_decided_and_six_ary_ones_refused(monkeypatch, structure):
    # 5 * 7^4 = 12,005 points for a 4-ary term, where the joint patterns
    # of its 8 entries were 545,835; a 6-ary term's grid is 11^6 points
    lex4 = Lex(Coord(1), Lex(Coord(2), Lex(Coord(3), Coord(4))))
    min4 = Min((Coord(1), Lex(Coord(2), Lex(Coord(3), Coord(4)))))
    start = time.monotonic()
    assert is_canonical_symbolic(lex4, structure).canonical
    verdict = is_canonical_symbolic(min4, structure)
    assert time.monotonic() - start < 2
    assert not verdict.canonical
    _replays(min4, structure, verdict.counterexample)
    lex6 = Lex(Coord(1), Lex(Coord(2), Lex(Coord(3), Lex(Coord(4), Lex(Coord(5), Coord(6))))))
    points = _count_evaluations(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        is_canonical_symbolic(lex6, structure)
    assert (err.value.what, err.value.needed) == ("canonicity grid size", 11**6)
    assert points == []


# -- type tables ---------------------------------------------------------------


def lex_op():
    return Operation("lex", 2, Lex(Coord(1), Coord(2)))


def test_lex_level2_table_prefers_the_first_argument():
    image = type_image(lex_op(), DLO, 2)
    space = image.space
    # level-2 patterns in code order: x1=x2, x1<x2, x1>x2
    assert [space.describe(i) for i in range(3)] == ["x1=x2", "x1 < x2", "x2 < x1"]
    equal = space.classify((F(0), F(0)))
    for ta, tb in itertools.product(range(3), repeat=2):
        expected = tb if ta == equal else ta
        assert image.table.apply((ta, tb)) == expected


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-30, 30) for _ in range(4)]))
def test_lex_table_predicts_random_evaluations(structure, raw):
    a = (F(raw[0]), F(raw[1]))
    b = (F(raw[2]), F(raw[3]))
    space = type_space(structure, 2)
    table = type_table(lex_op().body, 2, space, DEFAULT_CAPS)
    term = Lex(Coord(1), Coord(2))
    outs = [eval_rational(term, (a[j], b[j])) for j in range(2)]
    predicted = table.apply((space.classify(a), space.classify(b)))
    actual = space.classify(ranks(outs))
    assert predicted == actual


def test_ternary_type_image_checks_on_pairs():
    # k <= 3 would enumerate 7,087,261 joint patterns, over pattern_cap
    op = Operation("f", 3, Lex(Coord(1), Lex(Coord(2), Coord(3))))
    image = type_image(op, DLO, 3)
    assert image.space.size == 13
    assert image.table == type_table(op.body, 3, image.space, DEFAULT_CAPS)


def test_type_image_refuses_non_canonical_operations():
    op = Operation("min", 2, Min((Coord(1), Coord(2))))
    with pytest.raises(NonCanonicalOperation) as err:
        type_image(op, DLO, 2)
    assert err.value.counterexample is not None


def test_type_image_of_finite_operation():
    cycle = corpus.directed_cycle(3)
    image = type_image(Operation("add", 2, SUM_MOD3), cycle, 2)
    space = image.space
    auts = brute_automorphisms(cycle)
    for ta, tb in itertools.product(range(space.size), repeat=2):
        ra, rb = space.representative(ta), space.representative(tb)
        out = tuple(SUM_MOD3.apply((ra[j], rb[j])) for j in range(2))
        rep = space.representative(image.table.apply((ta, tb)))
        assert same_orbit(auts, out, rep)


def test_xi_infty_collects_critical_level_tables():
    xi = xi_infty([lex_op()], DLO)
    assert xi.space.k == 2
    assert xi.named_tables()[0][0] == "lex"
    assert xi.named_tables()[0][1] == type_image(lex_op(), DLO, 2).table

    xi_pure = xi_infty([lex_op()], PURE_SET)
    assert xi_pure.space.k == 1
    assert xi_pure.space.size == 1
    assert xi_pure.named_tables()[0][1].outputs == (0,)


def test_xi_infty_refuses_min_over_the_pure_set():
    # level 1 over the pure set has one type, so only a check at every
    # level sees that min splits equality patterns
    op = Operation("min", 2, Min((Coord(1), Coord(2))))
    with pytest.raises(
        NonCanonicalOperation, match="operation 'min' is not canonical at level 2"
    ) as err:
        xi_infty([op], PURE_SET)
    assert err.value.counterexample.k == 2


def test_xi_infty_refuses_sum_mod3_over_a_relation_free_set():
    with pytest.raises(NonCanonicalOperation) as err:
        xi_infty([Operation("add", 2, SUM_MOD3)], FiniteStructure(3))
    assert err.value.counterexample.k == 2


def _binary_operation(term, wrap):
    if wrap:
        term = MapApply("shift", translation(F(7, 2)), term)
    return Operation("f", 2, term)


def _table_operation(case):
    table, structure = case
    return Operation("f", table.arity, table), structure


_OPERATION_OVER_A_STRUCTURE = st.tuples(
    st.builds(_binary_operation, _DEPTH_TWO, st.booleans()),
    st.sampled_from([DLO, PURE_SET]),
) | _table_over_structure().map(_table_operation)


@settings(max_examples=200, deadline=None)
@given(_OPERATION_OVER_A_STRUCTURE, st.integers(1, 3))
def test_type_image_and_xi_infty_share_one_gate(case, k):
    # type_image refuses exactly what is_canonical refuses up to the
    # default bound, at any k, and xi_infty is type_image at the critical
    # level
    op, structure = case
    verdict = is_canonical(op, structure, max(k, default_k_max(structure)))
    try:
        image = type_image(op, structure, k)
    except NonCanonicalOperation as exc:
        assert not verdict.canonical
        assert exc.counterexample == verdict.counterexample
    else:
        assert verdict.canonical
        assert image.space.k == k
    level = critical_level(structure)
    try:
        xi = xi_infty([op], structure)
    except NonCanonicalOperation as exc:
        with pytest.raises(NonCanonicalOperation) as err:
            type_image(op, structure, level)
        assert err.value.counterexample == exc.counterexample
    else:
        assert xi.images[0][1] == type_image(op, structure, level)


@pytest.mark.parametrize(
    "generators, structure",
    [
        ([lex_op(), Operation("m", 1, Coord(1))], DLO),
        ([Operation("add", 2, SUM_MOD3), CONSTANT], corpus.directed_cycle(3)),
    ],
    ids=["dlo", "cycle"],
)
def test_xi_infty_images_share_one_space(generators, structure):
    xi = xi_infty(generators, structure)
    assert len(xi.images) == 2
    assert all(image.space is xi.space for _, image in xi.images)


# -- factor consistency --------------------------------------------------------


def test_level_collapse_for_lex_terms():
    report = check_factor_isomorphism([lex_op()], DLO, 2, 3, depth_cap=2)
    assert report.consistent
    assert report.checked == 38  # 2 projections, then 4, then 32 new terms
    assert report.violations == ()


@pytest.mark.parametrize(
    "generator, structure, injective, checked",
    [
        (lex_op(), DLO, 19, 38),
        (lex_op(), PURE_SET, 5, 38),
        (CONSTANT, corpus.empty_structure(3), 1, 2),
    ],
    ids=["dlo", "pureset", "constant"],
)
def test_level_two_determines_level_three_and_level_one_does_not(
    generator, structure, injective, checked
):
    low = check_factor_isomorphism([generator], structure, 1, 2, depth_cap=2)
    assert not low.consistent
    assert [v.direction for v in low.violations] == ["injective"] * injective
    high = check_factor_isomorphism([generator], structure, 2, 3, depth_cap=2)
    assert high.consistent
    assert high.checked == checked


def test_constant_shares_the_level_one_action_of_a_selector():
    low = check_factor_isomorphism([CONSTANT], corpus.empty_structure(3), 1, 2)
    assert [(v.term_a, v.term_b) for v in low.violations] == [("x1", "c(x1)")]


def test_level_one_does_not_determine_level_two_over_a_marked_point():
    # merging the two unmarked points acts on level-1 types as x1 does
    merge = Operation("u", 1, Table(3, 1, (0, 1, 1)))
    low = check_factor_isomorphism([merge], corpus.marked_point(3), 1, 2)
    assert [(v.term_a, v.term_b) for v in low.violations] == [("x1", "u(x1)")]


def test_factor_closure_refuses_an_oversized_round():
    # round 3 of [lex, min, max] would substitute 3 * 590**2 times
    x = (Coord(1), Coord(2))
    ops = [lex_op(), Operation("min", 2, Min(x)), Operation("max", 2, Max(x))]
    start = time.monotonic()
    with pytest.raises(CapExceeded):
        check_factor_isomorphism(ops, DLO, 2, 3)
    assert time.monotonic() - start < 1


def test_factor_check_refuses_a_table_over_a_symbolic_structure():
    table = Operation("min", 2, Table(2, 2, (0, 0, 0, 1)))
    with pytest.raises(InconsistentData):
        check_factor_isomorphism([table], DLO, 1, 2)


def test_correspondence_detects_planted_defects():
    t1 = Table(2, 1, (0, 1))
    t2 = Table(2, 1, (1, 0))
    t3 = Table(2, 1, (0, 0))
    collapse = check_table_correspondence(
        [("a", t1, t3), ("b", t1, t2)], 1, 2
    )
    assert not collapse.consistent
    assert collapse.violations[0].direction == "well-defined"
    merge = check_table_correspondence(
        [("a", t1, t3), ("b", t2, t3)], 1, 2
    )
    assert not merge.consistent
    assert merge.violations[0].direction == "injective"


def test_factor_check_on_finite_tables():
    cycle = corpus.directed_cycle(3)
    add = Operation("add", 2, SUM_MOD3)
    # above the largest relation arity the actions determine each other
    report = check_factor_isomorphism([add], cycle, 2, 3, depth_cap=2)
    assert report.consistent
    assert report.checked == 9  # all tables ax+by mod 3
    # below it they do not: every term acts trivially on the single
    # vertex orbit, so distinct level-2 actions share a level-1 action
    low = check_factor_isomorphism([add], cycle, 1, 2, depth_cap=2)
    assert not low.consistent
    assert all(v.direction == "injective" for v in low.violations)


def test_operation_validation():
    with pytest.raises(InconsistentData):
        Operation("bad", 3, SUM_MOD3)
    with pytest.raises(InconsistentData):
        Operation("bad", 1, Lex(Coord(1), Coord(2)))
