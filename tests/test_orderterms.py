from fractions import Fraction
from functools import reduce
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from clonelab.errors import ParseError, UnsupportedTerm
from clonelab.orderterms import (
    Coord,
    Lex,
    MapApply,
    Max,
    Min,
    eval_rational,
    eval_term,
    materialize,
    parse_order_term,
    peel_outer_maps,
    rank,
    require_pattern_determined,
    substitute,
    term_arity,
)
from clonelab.plmap import affine, from_point_pairs, translation
from pair_oracle import Pair, compare_values, eval_pair, map_value
from pair_oracle import materialize as oracle_materialize

F = Fraction

# increasing maps: affine ones and one that bends at 0 and 1
MAPS = {
    "shift": translation(10),
    "scale": affine(F(3), F(-7)),
    "bend": from_point_pairs([(F(0), F(0)), (F(1), F(5))]),
}


def key(text, *point):
    """The sort key `eval_term` gives the term `text` at `point`."""
    return eval_term(parse_order_term(text, MAPS), point)


def ranks(values):
    """Rank vector of a value list: the order pattern it realizes."""
    order = sorted(set(values))
    return tuple(order.index(v) for v in values)


def _compound(children):
    items = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        items.map(Min),
        items.map(Max),
        # a head chain lex(...lex(base, t1)..., tk) of depth 1 to 3
        st.tuples(children, st.lists(children, min_size=1, max_size=3)).map(
            lambda p: reduce(Lex, p[1], p[0])
        ),
        st.tuples(st.sampled_from(sorted(MAPS)), children).map(
            lambda p: MapApply(p[0], MAPS[p[0]], p[1])
        ),
    )


# ternary terms over min, max, lex and the maps; few distinct points, so
# that bases tie and chains of several depths share a base
terms = st.recursive(st.integers(1, 3).map(Coord), _compound, max_leaves=8)
int_points = st.tuples(*[st.sampled_from([0, 1, 2])] * 3)
rational_points = st.tuples(*[st.sampled_from([F(0), F(1), F(1, 2), F(-3, 2)])] * 3)
# every term at every permutation of a point or two, so that a head chain
# meets itself with its tails swapped
evaluations = st.builds(
    lambda ts, ps: [(t, q) for t in ts for p in ps for q in permutations(p)],
    st.lists(terms, min_size=1, max_size=4),
    st.lists(st.one_of(int_points, rational_points), min_size=1, max_size=2),
)


def keys_and_values(evals):
    """Each term at its point, as the library's key and the oracle's value."""
    return [eval_term(t, p) for t, p in evals], [eval_pair(t, p) for t, p in evals]


# -- value order ----------------------------------------------------------


def test_pair_sits_just_above_its_head():
    assert key("x1", 5) < key("lex(x1, x2)", 5, -100) < key("x1", F(11, 2))
    assert key("lex(x1, x2)", 5, 3) < key("x1", 6)
    assert key("lex(x1, x2)", 4, 100) < key("x1", 5)


def test_pairs_compare_lexicographically():
    assert key("lex(x1, x2)", 0, 5) < key("lex(x1, x2)", 1, -5)
    assert key("lex(x1, x2)", 0, 1) < key("lex(x1, x2)", 0, 2)
    # an int point and the equal `Fraction` give one key
    assert key("lex(x1, x2)", 0, 1) == key("lex(x1, x2)", F(0), F(1))


def test_a_deeper_head_chain_sits_above():
    deep = key("lex(lex(x1, x2), x3)", 1, 9, -9)
    shallow = [key("lex(x1, x2)", 1, 100), key("lex(x1, lex(x2, x2))", 1, 100),
               key("x1", 1)]
    for low in shallow:
        assert deep > low
        assert rank([deep, low]) == {low: 0, deep: 1}
    # a smaller base wins over any depth
    assert key("lex(lex(x1, x2), x2)", 0, 100) < key("x1", F(1, 2))
    # equal depths compare by their tails, innermost first
    chain = "lex(lex(x1, x2), x3)"
    assert key(chain, 1, 9, -9) < key(chain, 1, 9, 100)
    assert key(chain, 1, -9, 100) < key(chain, 1, 9, -9)


@given(evaluations)
def test_keys_order_and_identify_as_the_oracle(evals):
    keys, values = keys_and_values(evals)
    for (k, u), (l, v) in product(zip(keys, values), repeat=2):
        assert (k > l) - (k < l) == compare_values(u, v)
        assert (k == l) == (u == v)
        assert k != l or hash(k) == hash(l)


@given(evaluations)
def test_value_order_antisymmetric(evals):
    keys, values = keys_and_values(evals)
    for (k, u), (l, v) in product(zip(keys, values), repeat=2):
        cu, cv = compare_values(u, v), compare_values(v, u)
        assert cu == -cv
        assert (cu == 0) == (u == v)
        # the keys' own operators agree, in both argument orders
        assert (k < l) == (cu < 0) == (l > k)
        assert (k <= l) == (cu <= 0) == (l >= k)


@given(evaluations)
def test_value_order_transitive(evals):
    keys, values = map(set, keys_and_values(evals))
    for items, le in ((keys, lambda a, b: a <= b),
                      (values, lambda a, b: compare_values(a, b) <= 0)):
        # u <= v and v <= w give u <= w: whatever is at or above v is at
        # or above every u below v
        above = {u: {w for w in items if le(u, w)} for u in items}
        for u in items:
            for v in above[u]:
                assert above[v] <= above[u]


@given(evaluations, st.sampled_from(sorted(MAPS)))
def test_increasing_maps_preserve_value_order(evals, name):
    # a map moves the base of every key as the oracle moves pair heads
    m = MAPS[name]
    keys, values = keys_and_values(evals)
    moved = [eval_term(MapApply(name, m, t), p) for t, p in evals]
    for (k, km, u), (l, lm, v) in product(zip(keys, moved, values), repeat=2):
        c = compare_values(map_value(m, u), map_value(m, v))
        assert c == compare_values(u, v)
        assert (km > lm) - (km < lm) == c == (k > l) - (k < l)
        assert (km == lm) == (k == l)


@given(evaluations)
def test_materialize_ranks_as_compare_values_orders(evals):
    keys, values = keys_and_values(evals)
    expected = oracle_materialize(values)
    mat, ranked = materialize(keys), rank(keys)
    assert len(mat) == len(ranked) == len(expected)
    for k, v in zip(keys, values):
        assert mat[k] == ranked[k] == expected[v]


def test_materialize_is_order_preserving():
    points = [(3, 0), (3, 0), (0, 0), (2, 9)]
    texts = ["x1", "lex(x1, x2)", "x1", "lex(x1, x2)"]
    keys = [key(t, *p) for t, p in zip(texts, points)]
    mat = materialize(keys)
    assert sorted(mat.values()) == [F(0), F(1), F(2), F(3)]
    assert [mat[k] for k in keys] == [F(2), F(3), F(0), F(1)]


# -- evaluation -------------------------------------------------------------


def test_min_max_selection():
    t = Min((Coord(1), Coord(2)))
    assert eval_rational(t, (F(3), F(1))) == (1, 0)
    t = Max((Coord(1), Coord(2), Coord(3)))
    assert eval_rational(t, (F(3), F(1), F(7))) == (7, 0)


def test_lex_builds_pairs():
    t = Lex(Coord(1), Coord(2))
    assert eval_pair(t, (1, 2)) == Pair(F(1), F(2))
    assert eval_rational(t, (1, 2)) == (1, 1, (2, 0))


def test_lex_output_pattern_is_lex_order_of_pairs():
    t = Lex(Coord(1), Coord(2))
    points = [(F(0), F(1)), (F(0), F(0)), (F(1), F(-5)), (F(0), F(2))]
    outs = [eval_rational(t, p) for p in points]
    assert ranks(outs) == (1, 0, 3, 2)


def test_associativity_of_lex_up_to_pattern():
    left = Lex(Coord(1), Lex(Coord(2), Coord(3)))
    right = Lex(Lex(Coord(1), Coord(2)), Coord(3))
    points = list(product((0, 1, 2), repeat=3))
    l_out = [eval_term(left, p) for p in points]
    r_out = [eval_term(right, p) for p in points]
    assert ranks(l_out) == ranks(r_out)
    # but not pointwise equal as values: the sides differ by an outside map
    assert l_out != r_out


def test_map_application_is_exact_on_rationals():
    assert key("shift(x1)", F(5)) == (15, 0)
    assert key("scale(x1)", F(1, 3)) == (-6, 0)


def test_map_pushes_through_pair_heads():
    t = parse_order_term("shift(lex(lex(x1, x2), x3))", MAPS)
    assert eval_term(t, (0, 1, 2)) == (10, 2, (1, 0), (2, 0))
    assert eval_pair(t, (0, 1, 2)) == Pair(Pair(F(10), F(1)), F(2))


# -- structure helpers ---------------------------------------------------------


def test_term_arity_and_substitute():
    t = parse_order_term("lex(x1, min(x2, x3))")
    assert term_arity(t) == 3
    s = substitute(t, (Coord(2), Coord(1), Coord(1)))
    assert str(s) == "lex(x2, min(x1, x1))"


def test_peel_outer_maps():
    m = translation(1)
    t = parse_order_term("a(b(lex(x1, x2)))", {"a": m, "b": m})
    maps, core = peel_outer_maps(t)
    assert len(maps) == 2
    assert str(core) == "lex(x1, x2)"


def test_require_pattern_determined():
    m = translation(1)
    ok = parse_order_term("a(lex(x1, x2))", {"a": m})
    assert str(require_pattern_determined(ok)) == "lex(x1, x2)"
    bad = parse_order_term("min(a(x1), x2)", {"a": m})
    with pytest.raises(UnsupportedTerm):
        require_pattern_determined(bad)


# -- parser ---------------------------------------------------------------------


def test_parse_round_trips():
    for text in ("x1", "min(x1, x2)", "lex(x1, min(x2, x3))", "max(x1, x2, x3)"):
        assert str(parse_order_term(text)) == text


def test_parse_errors():
    for bad in ("", "x0", "lex(x1)", "min(x1)", "wat(x1)", "min(x1, x2) x3", "min(x1",
                "min(x1, x²)", "min(x1, x١)"):
        with pytest.raises(ParseError):
            parse_order_term(bad)
