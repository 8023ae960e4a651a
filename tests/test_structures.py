import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from clonelab.errors import CapExceeded, ParseError
from clonelab.config import Caps
from clonelab.plmap import from_point_pairs
from clonelab.structures import (
    DLO,
    PURE_SET,
    FiniteStructure,
    Pattern,
    Permutation,
    Relation,
    StructureKind,
    automorphisms,
    enumerate_patterns,
    extensions,
    generators,
    orbits,
    parse_structure,
    pattern_of,
)

F = Fraction


# -- oracles -------------------------------------------------------------


def brute_force_automorphisms(structure):
    """Filter all permutations; independent of the backtracking search."""
    n = structure.domain_size
    result = []
    for images in permutations(range(n)):
        ok = all(
            tuple(images[v] for v in t) in rel.tuples
            for rel in structure.relations
            for t in rel.tuples
        )
        if ok:
            result.append(Permutation(images))
    return result


def orbit_closure_oracle(structure, k, auts):
    """Partition tuples by repeated application of the listed maps."""
    pending = set(product(range(structure.domain_size), repeat=k))
    blocks = []
    while pending:
        seed = min(pending)
        block, frontier = {seed}, [seed]
        while frontier:
            t = frontier.pop()
            for aut in auts:
                image = aut.apply(t)
                if image not in block:
                    block.add(image)
                    frontier.append(image)
        pending -= block
        blocks.append(frozenset(block))
    return set(blocks)


def valid_rank_vector(codes):
    used = set(codes)
    return used == set(range(len(used)))


def first_occurrence_form(codes):
    seen = {}
    out = []
    for c in codes:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


# -- pattern counting ------------------------------------------------------


def test_order_pattern_counts_match_filter_oracle():
    expected = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}
    for k, count in expected.items():
        oracle = [
            codes for codes in product(range(k), repeat=k) if valid_rank_vector(codes)
        ]
        assert len(oracle) == count
        assert [p.codes for p in enumerate_patterns(DLO, k).patterns] == oracle


def test_equality_pattern_counts_match_filter_oracle():
    expected = {1: 1, 2: 2, 3: 5, 4: 15}
    for k, count in expected.items():
        oracle = len(
            {first_occurrence_form(codes) for codes in product(range(k), repeat=k)}
        )
        assert oracle == count
        assert enumerate_patterns(PURE_SET, k).size == count


def test_pattern_of_examples():
    assert pattern_of(DLO, (F(3), F(1), F(3))).codes == (1, 0, 1)
    assert pattern_of(PURE_SET, (F(7), F(7), F(9))).codes == (0, 0, 1)
    assert pattern_of(DLO, (F(1, 2),)).codes == (0,)


def test_pattern_describe():
    assert pattern_of(DLO, (F(3), F(1), F(3))).describe() == "x2 < x1=x3"
    assert pattern_of(PURE_SET, (F(7), F(7), F(9))).describe() == "x1=x2 | x3"


@given(st.lists(st.fractions(max_denominator=30), min_size=1, max_size=6))
def test_pattern_representative_realizes_pattern(values):
    p = pattern_of(DLO, values)
    assert pattern_of(DLO, tuple(F(c) for c in p.codes)) == p
    q = pattern_of(PURE_SET, values)
    assert pattern_of(PURE_SET, tuple(F(c) for c in q.codes)) == q


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=5),
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
        ),
        max_size=4,
    ),
)
def test_pattern_of_invariant_under_increasing_maps(values, raw_pairs):
    pairs = {}
    for x, y in sorted(raw_pairs):
        if pairs and (x <= max(pairs) or y <= pairs[max(pairs)]):
            continue
        pairs[x] = y
    m = from_point_pairs(pairs.items())
    mapped = [m.apply(F(v)) for v in values]
    assert pattern_of(DLO, mapped) == pattern_of(DLO, values)
    assert pattern_of(PURE_SET, mapped) == pattern_of(PURE_SET, values)


# -- parsing ---------------------------------------------------------------


CYCLE3_TEXT = """\
# a directed triangle
domain 3
relation E 2
0 1
1 2
2 0
"""


def test_parse_structure_roundtrip():
    s = parse_structure(CYCLE3_TEXT)
    assert s == corpus.directed_cycle(3)


def test_parse_structure_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_structure("relation E 2\n0 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_structure("domain 2\nrelation E 2\n0 1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_structure("domain 2\nrelation E 2\n0 5\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_structure("domain 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_structure("domain 2\nrelation R 0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_structure("domain ²\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_structure("domain ٣\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_structure("domain 2\nrelation E 2\n0 ١\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_structure("domain 2\nrelation E 1\nrelation E 1\n")
    with pytest.raises(ParseError):
        parse_structure("")


# -- automorphisms ----------------------------------------------------------


def test_automorphisms_match_brute_force_on_small_corpus():
    for structure in corpus.corpus10():
        if structure.domain_size > 6:
            continue
        fast = automorphisms(structure)
        slow = brute_force_automorphisms(structure)
        assert fast == sorted(slow, key=lambda p: p.images)


def test_automorphism_counts():
    assert len(automorphisms(corpus.directed_cycle(3))) == 3
    assert len(automorphisms(corpus.linear_order(3))) == 1
    assert len(automorphisms(corpus.empty_structure(3))) == 6
    assert len(automorphisms(corpus.complete(4))) == 24
    assert len(automorphisms(corpus.complete_bipartite(2, 3))) == 12
    assert len(automorphisms(corpus.marked_point(3))) == 2


def test_petersen_automorphism_group():
    auts = automorphisms(corpus.petersen())
    assert len(auts) == 120
    # closure under composition and inverses: a genuine group
    as_set = set(auts)
    sample = auts[:10] + auts[-10:]
    for a in sample:
        inverse = sorted(range(len(a.images)), key=a.images.__getitem__)
        assert Permutation(tuple(inverse)) in as_set
        for b in sample:
            assert Permutation(tuple(a.images[v] for v in b.images)) in as_set


def test_automorphisms_are_sorted_deterministically():
    auts = automorphisms(corpus.empty_structure(3))
    assert [a.images for a in auts] == sorted(a.images for a in auts)


def _assert_search_matches(structure, pair_lists):
    """`extensions` yields the brute-force automorphisms that satisfy the
    pairs, in the same order, and `generators` closes to the whole group
    with fewer than 2n elements."""
    group = [p.images for p in brute_force_automorphisms(structure)]
    for pairs in pair_lists:
        expected = [g for g in group if all(g[a] == b for a, b in pairs)]
        assert list(extensions(structure, pairs)) == expected
    n = structure.domain_size
    gens = generators(structure)
    assert len(gens) < 2 * n
    closure, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        e = frontier.pop()
        for g in gens:
            composed = tuple(g[v] for v in e)
            if composed not in closure:
                closure.add(composed)
                frontier.append(composed)
    assert closure == set(group)


def test_search_matches_brute_force_on_small_corpus():
    # the graph is one where generators chosen from point 0 upward, rather
    # than from the last point down, miss part of Aut
    lopsided = corpus.graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (4, 5)])
    for structure in corpus.corpus10() + [lopsided]:
        n = structure.domain_size
        if n > 6:
            continue
        points = range(n)
        pair_lists = [()] + [[(a, b)] for a, b in product(points, repeat=2)]
        pair_lists += [[(0, 1), (2, 2)], [(1, 1), (2, 0)]]
        # inconsistent (a->b, a->c) and non-injective (a->c, b->c) pairs
        pair_lists += [[(0, 1), (0, 2)], [(0, 2), (1, 2)], [(1, 0), (2, 0)]]
        _assert_search_matches(structure, pair_lists)
        assert list(extensions(structure, [(0, 1), (0, 2)])) == []
        assert list(extensions(structure, [(0, 2), (1, 2)])) == []


def test_pairs_that_are_not_an_injective_map_stop_before_the_search():
    # the search alone would place points 1..10 in 10! ways before point 11
    # found its image taken
    start = time.monotonic()
    assert list(extensions(corpus.empty_structure(12), [(0, 5), (11, 5)])) == []
    assert time.monotonic() - start < 1


@st.composite
def _structure_and_pairs(draw):
    n = draw(st.integers(1, 5))
    relations = []
    for name, arity in (("P", 1), ("E", 2), ("R", 3)):
        if draw(st.booleans()):
            cube = list(product(range(n), repeat=arity))
            tuples = draw(st.sets(st.sampled_from(cube), max_size=6))
            relations.append(Relation(name, arity, frozenset(tuples)))
    point = st.integers(0, n - 1)
    pair_lists = draw(st.lists(st.lists(st.tuples(point, point), max_size=3), max_size=4))
    a, b, c = draw(point), draw(point), draw(point)
    pair_lists += [[(a, b), (a, c)], [(a, c), (b, c)]]
    return FiniteStructure(n, tuple(relations)), pair_lists


@settings(max_examples=200, deadline=None)
@given(_structure_and_pairs())
def test_search_matches_brute_force_on_random_structures(case):
    structure, pair_lists = case
    _assert_search_matches(structure, pair_lists)


# -- orbits ------------------------------------------------------------------


def test_orbits_match_closure_oracle_small():
    for structure in corpus.corpus10():
        if structure.domain_size > 6:
            continue
        auts = automorphisms(structure)
        for k in (1, 2, 3):
            space = orbits(structure, k)
            blocks = {
                frozenset(
                    t
                    for t in product(range(structure.domain_size), repeat=k)
                    if space.classify(t) == i
                )
                for i in range(space.size)
            }
            assert blocks == orbit_closure_oracle(structure, k, auts)


def test_orbit_representatives_are_lex_least():
    space = orbits(corpus.directed_cycle(3), 2)
    for i, rep in enumerate(space.reps):
        members = [t for t in product(range(3), repeat=2) if space.classify(t) == i]
        assert rep == min(members)


def test_orbits_of_directed_cycle():
    space = orbits(corpus.directed_cycle(3), 2)
    assert space.size == 3
    assert space.reps == ((0, 0), (0, 1), (0, 2))


def test_orbit_transitivity_witnessed_by_some_automorphism():
    structure = corpus.path(4)
    auts = automorphisms(structure)
    space = orbits(structure, 2)
    for a in product(range(4), repeat=2):
        for b in product(range(4), repeat=2):
            if space.classify(a) == space.classify(b):
                assert any(aut.apply(a) == b for aut in auts)


def test_orbits_of_a_large_relation_free_set():
    # 10! automorphisms; the orbits of triples are the equality patterns
    start = time.monotonic()
    space = orbits(corpus.empty_structure(10), 3)
    assert time.monotonic() - start < 2
    assert space.reps == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2))
    assert space.orbit_sizes == (10, 90, 90, 90, 720)


def test_orbits_caps():
    with pytest.raises(CapExceeded):
        orbits(corpus.empty_structure(3), 2, Caps(tuple_cap=5))
    with pytest.raises(CapExceeded):
        orbits(corpus.empty_structure(3), 7)
