"""Lifting type-table identities to order terms via equalizing maps.

The associativity runs below replay the produced witnesses column by
column through an independent re-evaluation, so a witness pair is never
trusted on the construction's say-so.  The expected map images and
accumulation pattern were derived by hand from the rank materialization
of the first stages and are asserted as frozen values.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from clonelab import lifting
from clonelab.canonical import Operation
from clonelab.clones import Table, generate
from clonelab.config import Caps
from clonelab.equations import (
    EquationSystem,
    parse_equation_system as parse_system,
    satisfiable_in_clone,
)
from clonelab.errors import (
    CapExceeded,
    EqualizerFailure,
    InconsistentData,
    NonCanonicalOperation,
    UnsatisfiableSystem,
)
from clonelab.lifting import (
    LiftInstance,
    PointInjection,
    _generator_reading,
    WitnessTuple,
    analyze_transfer,
    approximate_accumulation,
    build_instance,
    describe_lift,
    enumerate_argument_matrix,
    find_equalizers,
    lift,
)
from clonelab.orderterms import (
    Coord,
    Lex,
    MapApply,
    Max,
    Min,
    compile_term,
    eval_rational,
    materialize,
    parse_order_term,
    substitute,
)
from clonelab.plmap import PLMap, from_point_pairs, identity, translation
from clonelab.structures import DLO, PURE_SET, parse_structure
from clonelab.terms import App, Var, fold

import lift_oracle

SMALL = Caps(arity_cap=3, depth_cap=2)


def lex_op():
    return Operation("lex", 2, Lex(Coord(1), Coord(2)))


def associativity():
    return parse_system("sig f 2\neq f(f(x1,x2),x3) = f(x1,f(x2,x3))\n")


def commutativity():
    return parse_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")


def replay_exactly(instance, witness):
    """Independent re-check: both sides of every equation, evaluated and
    ranked from scratch, must be equalized by the stored maps."""
    bodies = dict(instance.order_terms)
    n = instance.system.ambient_arity
    rows = enumerate_argument_matrix(witness.universe, n)
    assert witness.columns == len(rows[0])
    evaluations = []
    for eq in instance.system.equations:
        lt = fold(eq.lhs, Coord, lambda s, parts: substitute(bodies[s], parts))
        rt = fold(eq.rhs, Coord, lambda s, parts: substitute(bodies[s], parts))
        lv = [eval_rational(lt, [r[c] for r in rows]) for c in range(witness.columns)]
        rv = [eval_rational(rt, [r[c] for r in rows]) for c in range(witness.columns)]
        evaluations.append((lv, rv))
    ranks = materialize(v for lv, rv in evaluations for v in lv + rv)
    for (w_l, w_r), (lv, rv) in zip(witness.pairs, evaluations):
        for c in range(witness.columns):
            assert w_l.apply(ranks[lv[c]]) == w_r.apply(ranks[rv[c]])


# -- argument matrices ---------------------------------------------------------


def test_argument_matrix_two_points_two_rows():
    rows = enumerate_argument_matrix([Fraction(0), Fraction(1)], 2)
    assert rows == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_argument_matrix_single_point():
    rows = enumerate_argument_matrix([Fraction(5)], 3)
    assert rows == [(5,), (5,), (5,)]


def test_argument_matrix_matches_product_enumeration():
    pts = [Fraction(0), Fraction(1), Fraction(2)]
    rows = enumerate_argument_matrix(pts, 2)
    columns = [tuple(row[c] for row in rows) for c in range(9)]
    assert columns == list(itertools.product(pts, repeat=2))


def test_argument_matrix_rejects_bad_shapes():
    with pytest.raises(InconsistentData):
        enumerate_argument_matrix([], 2)
    with pytest.raises(InconsistentData):
        enumerate_argument_matrix([Fraction(0)], 0)
    with pytest.raises(CapExceeded):
        enumerate_argument_matrix(range(10), 7)


# -- equalizers ----------------------------------------------------------------


def test_equalizers_over_the_order():
    left = [Fraction(1), Fraction(5), Fraction(5)]
    right = [Fraction(-2), Fraction(0), Fraction(0)]
    found = find_equalizers(left, right, DLO)
    assert found is not None
    w_l, w_r = found
    assert isinstance(w_l, PLMap) and isinstance(w_r, PLMap)
    for a, b, code in zip(left, right, (0, 1, 1)):
        assert w_l.apply(a) == Fraction(code)
        assert w_r.apply(b) == Fraction(code)


def test_equalizers_refuse_order_reversal():
    assert find_equalizers([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)], DLO) is None


def test_equalizers_on_identical_sides():
    vals = [Fraction(3), Fraction(1), Fraction(3)]
    w_l, w_r = find_equalizers(vals, vals, DLO)
    for v in vals:
        assert w_l.apply(v) == w_r.apply(v)


def test_equalizers_over_the_pure_set_may_reverse_order():
    # equality patterns match even though the right side is reversed
    left = [Fraction(3), Fraction(3), Fraction(7)]
    right = [Fraction(5), Fraction(5), Fraction(2)]
    w_l, w_r = find_equalizers(left, right, PURE_SET)
    assert isinstance(w_l, PointInjection) and isinstance(w_r, PointInjection)
    for a, b in zip(left, right):
        assert w_l.apply(a) == w_r.apply(b)
    assert w_r.apply(Fraction(2)) > w_r.apply(Fraction(5))


def test_equalizers_refuse_equality_pattern_mismatch():
    left = [Fraction(0), Fraction(0), Fraction(1)]
    right = [Fraction(0), Fraction(1), Fraction(2)]
    assert find_equalizers(left, right, PURE_SET) is None


def test_point_injection_validation():
    with pytest.raises(InconsistentData):
        PointInjection(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))))
    with pytest.raises(InconsistentData):
        PointInjection(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))))
    inj = PointInjection(((Fraction(0), Fraction(1)),))
    with pytest.raises(InconsistentData):
        inj.apply(Fraction(9))


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "string"])
def test_point_injection_refuses_inexact_points(bad):
    # 1/2 is in the domain, so only the gate can refuse it
    inj = PointInjection(((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(3))))
    assert inj.apply(Fraction(1, 2)) == 1 and inj.apply(2) == 3
    with pytest.raises(InconsistentData, match=f"argument {bad!r} is not an int or a Fraction"):
        inj.apply(bad)


# -- building and lifting ------------------------------------------------------


def test_forced_assignment_interprets_the_symbol_as_the_generator():
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=SMALL, assign={"f": "lex"}
    )
    assert instance.order_term_of("f") == Lex(Coord(1), Coord(2))
    assert instance.system.ambient_arity == 3
    assert instance.universe(2) == (0, 1, 2)


def test_associativity_witnesses_verify_on_every_column():
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=SMALL, assign={"f": "lex"}
    )
    witnesses = lift(instance, 4, caps=SMALL)
    assert len(witnesses) == 5
    for j, witness in enumerate(witnesses):
        assert witness.columns == (j + 1) ** 3
        assert len(witness.pairs) == 1
        replay_exactly(instance, witness)


def test_associativity_stages_accumulate_on_one_pattern():
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=SMALL, assign={"f": "lex"}
    )
    witnesses = lift(instance, 4, caps=SMALL)
    report = approximate_accumulation(witnesses, 2)
    # stage 0 has a single column and degenerates to (0,1,1,2); from the
    # two-point stage on, both maps of the pair keep the same mutual
    # position: w_s sends 0,1 below everything w_t does
    assert report.pattern == (0, 1, 2, 3)
    assert report.indices == (1, 2, 3, 4)
    assert report.stable
    assert "tail" in report.describe()


def test_a_lift_builds_catalogs_only_up_to_its_widest_symbol():
    # SMALL allows arity 3; associativity has one binary symbol
    for assign in ({"f": "lex"}, None):
        instance = build_instance(
            DLO, [lex_op()], associativity(), caps=SMALL, assign=assign
        )
        assert max(instance.type_clone.catalogs) == 2


def test_searched_assignment_may_settle_on_a_selector():
    # without a forced assignment the catalog search is free to satisfy
    # associativity with a plain selector, which lifts trivially
    instance = build_instance(DLO, [lex_op()], associativity(), caps=SMALL)
    assert instance.order_term_of("f") in (Coord(1), Coord(2))
    replay_exactly(instance, lift(instance, 2, caps=SMALL)[-1])


def test_commutativity_is_rejected_on_the_type_tables():
    with pytest.raises(UnsatisfiableSystem):
        build_instance(DLO, [lex_op()], commutativity(), caps=SMALL)
    with pytest.raises(UnsatisfiableSystem):
        build_instance(
            DLO, [lex_op()], commutativity(), caps=SMALL, assign={"f": "lex"}
        )


def test_commutativity_fails_at_the_two_point_stage():
    # skipping the satisfaction check exposes where the construction breaks
    instance = build_instance(
        DLO, [lex_op()], commutativity(), caps=SMALL, assign={"f": "lex"},
        recheck=False,
    )
    with pytest.raises(UnsatisfiableSystem):
        lift(instance, 2, caps=SMALL)
    with pytest.raises(EqualizerFailure) as err:
        lift(instance, 2, caps=SMALL, recheck=False)
    assert err.value.j == 1
    assert err.value.equation == "f(x1,x2) = f(x2,x1)"
    assert "stage 1" in str(err.value)


def _recording_evaluators(monkeypatch):
    """Make `lift` compile each side into an evaluator that records the
    argument columns it is called at; one list per side, in order."""
    calls = []

    def recording(term):
        evaluate, seen = compile_term(term), []
        calls.append(seen)

        def recorded(args):
            seen.append(args)
            return evaluate(args)

        return recorded

    monkeypatch.setattr(lifting, "compile_term", recording)
    return calls


def test_a_lift_evaluates_each_column_once(monkeypatch):
    # stages 0 to 3 have 1 + 8 + 27 + 64 = 100 columns, 64 of them distinct
    op = Operation("f", 2, Lex(Coord(2), Coord(1)))
    instance = build_instance(DLO, [op], associativity(), caps=SMALL, assign={"f": "f"})
    calls = _recording_evaluators(monkeypatch)
    witnesses = lift(instance, 3, caps=SMALL)
    assert sum(w.columns for w in witnesses) == 100
    assert [len(seen) for seen in calls] == [64, 64]
    assert all(len(set(seen)) == 64 for seen in calls)


def test_a_failed_stage_evaluates_no_column_of_the_next(monkeypatch):
    instance = build_instance(
        DLO, [lex_op()], commutativity(), caps=SMALL, assign={"f": "lex"},
        recheck=False,
    )
    calls = _recording_evaluators(monkeypatch)
    with pytest.raises(EqualizerFailure) as err:
        lift(instance, 3, caps=SMALL, recheck=False)
    assert err.value.j == 1
    # stage 1 has the four columns over {0, 1}; every column of stage 2 holds a 2
    assert [sorted(seen) for seen in calls] == [list(itertools.product((0, 1), repeat=2))] * 2


def test_a_failed_stage_renders_with_its_stage_named_once():
    instance = build_instance(
        DLO, [lex_op()], commutativity(), caps=SMALL, assign={"f": "lex"},
        recheck=False,
    )
    with pytest.raises(EqualizerFailure) as err:
        lift(instance, 2, caps=SMALL, recheck=False)
    (line,) = describe_lift(None, None, str(err.value))
    assert line.startswith("lift failed: stage 1: sides of f(x1,x2) = f(x2,x1) ")
    assert line.count("stage") == 1


def test_forced_assignments_refuse_an_oversized_row_space():
    # 3**13 rows per side over the three level-2 types, over tuple_cap
    wide = parse_system("sig f 2\neq f(x1,x13) = f(x13,x1)\n")
    with pytest.raises(CapExceeded) as err:
        build_instance(DLO, [lex_op()], wide, caps=SMALL, assign={"f": "lex"})
    assert (err.value.what, err.value.needed) == ("equation row space", 3**13)
    instance = build_instance(
        DLO, [lex_op()], wide, caps=SMALL, assign={"f": "lex"}, recheck=False
    )
    with pytest.raises(CapExceeded) as err:
        lift(instance, 1, caps=SMALL, recheck=True)
    assert err.value.what == "equation row space"


def test_lift_refuses_a_stage_wider_than_tuple_cap():
    caps = Caps(tuple_cap=40, arity_cap=3, depth_cap=2)
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=caps, assign={"f": "lex"}
    )
    assert [w.columns for w in lift(instance, 2, caps=caps)] == [1, 8, 27]
    with pytest.raises(CapExceeded) as err:
        lift(instance, 3, caps=caps)
    assert (err.value.what, err.value.needed, err.value.cap) == (
        "argument matrix width", 64, 40
    )


def test_empty_system_lifts_vacuously():
    system = EquationSystem((("f", 2),), ())
    instance = build_instance(DLO, [lex_op()], system, caps=SMALL)
    witnesses = lift(instance, 2, caps=SMALL)
    assert all(w.pairs == () for w in witnesses)
    assert [w.columns for w in witnesses] == [1, 2, 3]


def test_a_generator_a_cap_keeps_out_of_the_catalog_is_read_as_itself():
    # at arity cap 1 the binary catalog is never built; the symbol is read
    # as lex(x1,x2), whose table the recheck still verifies
    caps = Caps(arity_cap=1, depth_cap=2)
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=caps, assign={"f": "lex"}
    )
    assert instance.assignment[0][1].term == App("lex", (Var(1), Var(2)))
    assert instance.order_term_of("f") == Lex(Coord(1), Coord(2))
    replay_exactly(instance, lift(instance, 2, caps=caps)[-1])


def test_the_reading_falls_back_to_the_generator_term_past_the_catalog_cap():
    # min on {0,1}: the binary catalog fills with x1, x2 before min(x1,x2)
    clone = generate([("min", Table(2, 2, (0, 0, 0, 1)))], 2, Caps(catalog_cap=2))
    assert not clone.saturated[2]
    system = parse_system("sig f 2\neq f(x1,x1) = x1\n")
    ((_, entry),) = _generator_reading(system, clone, {"f": "min"})
    assert (entry.table.outputs, entry.term) == ((0, 0, 0, 1), App("min", (Var(1), Var(2))))
    # a table the catalog holds is read as its first entry, a selector here
    clone = generate([("left", Table(2, 2, (0, 0, 1, 1)))], 2, Caps(catalog_cap=2))
    ((_, entry),) = _generator_reading(system, clone, {"f": "left"})
    assert entry.term == Var(1)


def test_a_lift_instance_holds_no_generators_or_xi():
    fields = {field.name for field in dataclasses.fields(LiftInstance)}
    assert not fields & {"generators", "xi"}


def test_build_instance_rejects_bad_generators():
    with pytest.raises(NonCanonicalOperation):
        build_instance(DLO, [Operation("min", 2, Min((Coord(1), Coord(2))))],
                       associativity(), caps=SMALL, assign={"f": "min"})
    with pytest.raises(InconsistentData):
        build_instance(DLO, [lex_op()], associativity(), caps=SMALL, assign={})
    with pytest.raises(InconsistentData):
        build_instance(DLO, [lex_op(), lex_op()], associativity(), caps=SMALL)
    with pytest.raises(InconsistentData, match="'typo', not a symbol"):
        build_instance(DLO, [lex_op()], associativity(), caps=SMALL,
                       assign={"f": "lex", "typo": "lex"})


def test_finite_structures_are_refused_before_the_canonicity_check():
    # min is not canonical on a bare two-element set, but the structure
    # kind is refused first
    two = parse_structure("domain 2\n")
    gens = [Operation("min", 2, Table(2, 2, (0, 0, 0, 1)))]
    with pytest.raises(InconsistentData):
        build_instance(two, gens, commutativity(), caps=SMALL)
    with pytest.raises(InconsistentData):
        analyze_transfer(two, gens, caps=SMALL)


# -- accumulation --------------------------------------------------------------


def stage(*maps):
    pairs = tuple((maps[i], maps[i + 1]) for i in range(0, len(maps), 2))
    return WitnessTuple(universe=(Fraction(0),), pairs=pairs, columns=1)


def test_accumulation_flags_alternating_patterns_as_unstable():
    calm = stage(identity(), identity())
    shifted = stage(translation(10), identity())
    report = approximate_accumulation([calm, shifted, calm, shifted, calm], 2)
    assert report.indices == (0, 2, 4)
    assert not report.stable
    assert "subsequence" in report.describe()


def test_accumulation_breaks_ties_toward_the_latest_stage():
    calm = stage(identity(), identity())
    shifted = stage(translation(10), identity())
    report = approximate_accumulation([calm, calm, shifted, shifted], 2)
    assert report.indices == (2, 3)
    assert report.stable


def test_accumulation_input_validation():
    calm = stage(identity(), identity())
    with pytest.raises(InconsistentData):
        approximate_accumulation([calm], 2)
    with pytest.raises(InconsistentData):
        approximate_accumulation([calm, calm], 0)


@st.composite
def increasing_maps(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    xs = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size, unique=True))
    ys = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size, unique=True))
    return from_point_pairs(zip(sorted(xs), sorted(ys)))


@given(increasing_maps())
def test_accumulation_ignores_outer_increasing_maps(gamma):
    calm = stage(identity(), identity())
    shifted = stage(translation(10), identity())
    stages = [calm, shifted, calm, calm]
    composed = [
        WitnessTuple(
            w.universe,
            tuple((gamma.compose(a), gamma.compose(b)) for a, b in w.pairs),
            w.columns,
        )
        for w in stages
    ]
    plain = approximate_accumulation(stages, 2)
    twisted = approximate_accumulation(composed, 2)
    assert twisted.pattern == plain.pattern
    assert twisted.indices == plain.indices
    assert twisted.stable == plain.stable


# -- the full pipeline ---------------------------------------------------------


def test_analyze_lex_over_the_order_finds_a_projection_reading():
    report = analyze_transfer(DLO, [lex_op()], caps=SMALL)
    assert report.homomorphism.status == "found"
    assert dict(report.homomorphism.sigma)["lex"] == 1
    assert report.system is None and report.witnesses is None
    assert "projection reading: found" in report.describe()


def test_analyze_accepts_a_ternary_generator():
    # decided on pairs: k <= 3 would enumerate 7,087,261 joint patterns
    lex3 = Operation("f", 3, Lex(Coord(1), Lex(Coord(2), Coord(3))))
    report = analyze_transfer(DLO, [lex3], caps=SMALL)
    assert report.homomorphism.status == "found"
    assert report.xi.space.size == 3
    assert dict(report.homomorphism.sigma)["f"] == 1


def test_transfer_report_describes_stages_and_accumulation():
    # over dlo the reading is always "found", so the lifted part of the
    # report comes from an associativity lift of lex
    instance = build_instance(
        DLO, [lex_op()], associativity(), caps=SMALL, assign={"f": "lex"}
    )
    witnesses = lift(instance, 2, caps=SMALL)
    report = dataclasses.replace(
        analyze_transfer(DLO, [lex_op()], caps=SMALL),
        witnesses=witnesses,
        accumulation=approximate_accumulation(witnesses, 2),
    )
    assert report.describe().splitlines()[-6:] == [
        "  assignment: lex->1",
        "  note: catalogs not saturated; deeper compositions could still add obstructions",
        "stage 0: points {0}, 1 columns, 1 equation(s) equalized exactly",
        "stage 1: points {0,1}, 8 columns, 1 equation(s) equalized exactly",
        "stage 2: points {0,1,2}, 27 columns, 1 equation(s) equalized exactly",
        "accumulation: depth 2: pattern (0, 1, 2, 3) on tail [1,2] across 3 stages",
    ]


def test_analyze_without_generators_is_trivial():
    report = analyze_transfer(DLO, [], caps=SMALL)
    assert report.homomorphism.status == "found"
    assert report.homomorphism.sigma == ()


def test_analyze_lex_over_the_pure_set_hits_an_honest_obstruction():
    report = analyze_transfer(PURE_SET, [lex_op()], caps=SMALL)
    assert report.homomorphism.status == "refuted"
    assert [str(eq) for eq in report.system.equations] == ["x1 = x2"]
    assert report.triangle == (True, True)
    assert report.witnesses is None and report.accumulation is None
    assert "stage 1" in report.failure
    assert "lift failed" in report.describe()


TRANSFER_TERMS = [
    "lex(x1, x2)", "lex(x2, x1)", "m(lex(x1, x2))", "m(lex(x2, x1))",
    "lex(x1, lex(x2, x1))", "lex(lex(x2, x1), x2)",
]


@pytest.mark.parametrize("structure", [DLO, PURE_SET], ids=["dlo", "pureset"])
def test_analyze_reads_each_generator_as_build_instance_does(structure):
    # the term kinds of the transfer-repeat pool, alone and beside a
    # unary m(x1); only the level-1 type clone of the bare set refutes
    maps = {"m": from_point_pairs([(-2, -5), (1, 0), (4, 9)])}
    refuted = 0
    for text, unary in itertools.product(TRANSFER_TERMS, (False, True)):
        ops = [Operation("f", 2, parse_order_term(text, maps))]
        if unary:
            ops.append(Operation("u", 1, parse_order_term("m(x1)", maps)))
        report = analyze_transfer(structure, ops, caps=SMALL)
        if report.homomorphism.status != "refuted":
            assert report.instance is None
            continue
        refuted += 1
        forced = build_instance(
            structure, ops, report.system, caps=SMALL,
            assign={op.name: op.name for op in ops},
        )
        assert report.instance.assignment == forced.assignment
        # the same entries the catalog search used to settle on
        search = satisfiable_in_clone(report.system, report.type_clone)
        assert report.instance.assignment == search.assignment
        assert report.triangle == (True, True)
    assert refuted == (0 if structure is DLO else 2 * len(TRANSFER_TERMS))


def test_analyze_rejects_non_canonical_generators():
    with pytest.raises(NonCanonicalOperation):
        analyze_transfer(DLO, [Operation("min", 2, Min((Coord(1), Coord(2))))], caps=SMALL)


# -- the slow stage loop as oracle ------------------------------------------


NODES = {
    "lex": lambda a, b: Lex(a, b),
    "min": lambda a, b: Min((a, b)),
    "max": lambda a, b: Max((a, b)),
}


def binary_terms():
    # lex is drawn as often as min and max together: min and max make
    # most terms non-canonical, and those never reach the lift
    return st.recursive(
        st.sampled_from([Coord(1), Coord(2)]),
        lambda children: st.tuples(
            st.sampled_from(["lex", "lex", "min", "max"]), children, children
        ).map(lambda node: NODES[node[0]](node[1], node[2])),
        max_leaves=4,
    )


@settings(max_examples=100, deadline=None)
@given(
    binary_terms(),
    st.one_of(st.none(), increasing_maps()),
    st.sampled_from([DLO, PURE_SET]),
    st.sampled_from([associativity, commutativity]),
    st.sampled_from(range(5)),
)
def test_lift_agrees_with_the_slow_stage_loop(body, outer, structure, system, stages):
    if outer is not None:
        body = MapApply("m", outer, body)
    try:
        instance = build_instance(
            structure, [Operation("f", 2, body)], system(), caps=SMALL,
            assign={"f": "f"}, recheck=False,
        )
    except NonCanonicalOperation:
        assume(False)
    try:
        expected = lift_oracle.lift_stages(instance, stages)
    except EqualizerFailure as exc:
        with pytest.raises(EqualizerFailure) as err:
            lift(instance, stages, caps=SMALL, recheck=False)
        assert (err.value.j, err.value.equation) == (exc.j, exc.equation)
        assert str(err.value) == str(exc)
    else:
        got = lift(instance, stages, caps=SMALL, recheck=False)
        assert got == expected
        # the oracle's point injections hold `Fraction`s where the library
        # keeps the int ranks; its increasing maps are the library's own
        if structure is DLO:
            assert repr(got) == repr(expected)
