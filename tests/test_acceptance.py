"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each criterion re-derives its expected answers from scratch — brute
force enumerations, independent evaluators, hand-checkable identities —
and holds the package to exact equality within a stated time budget.
Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import clonelab
from clonelab.canonical import (
    Operation,
    is_canonical_symbolic,
    type_image,
    type_table,
)
from clonelab.clones import Table, generate
from clonelab.config import DEFAULT_CAPS, Caps
from clonelab.equations import (
    Equation,
    EquationSystem,
    has_projective_homomorphism,
    pad_to_common_arity,
    parse_equation_system,
    satisfiable_in_clone,
    satisfiable_in_projections,
    satisfiable_modulo_outside,
)
from clonelab.lifting import (
    approximate_accumulation,
    build_instance,
    enumerate_argument_matrix,
    lift,
)
from clonelab.orderterms import (
    Coord,
    Lex,
    Min,
    eval_rational,
    materialize,
    substitute,
)
from clonelab.plmap import affine, identity, translation
from clonelab.qclone import (
    evaluate,
    extend_restriction,
    make_member,
    noncontinuity_demo,
    selector_member,
    uniqueness_witnesses,
    compose_members,
    xi,
)
from clonelab.structures import DLO, PURE_SET, enumerate_patterns, orbits, pattern_of
from clonelab.terms import App, Var, fold

from corpus import corpus10
from table_oracle import eval_term_table

LEX = Lex(Coord(1), Coord(2))
SMALL = Caps(arity_cap=3, depth_cap=2)

SIGGERS = """
sig s 6
eq s(x1,x2,x1,x3,x2,x3) = s(x2,x1,x3,x1,x3,x2)
"""


class Budget:
    """Asserts the criterion finished inside its stated wall-clock bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, kind, value, tb):
        if kind is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"criterion took {elapsed:.1f}s, budget is {self.seconds}s"
            )


# -- criterion 1: type-space counts against brute force ----------------------


def brute_rank_vectors(k):
    """All order-and-tie patterns of length k: maps onto an initial
    segment of ranks."""
    return {
        c
        for c in itertools.product(range(k), repeat=k)
        if set(c) == set(range(max(c) + 1))
    }


def brute_partition_codes(k):
    """All first-occurrence codes of length k: c[0] = 0 and each entry
    at most one above the running maximum."""
    return {
        c
        for c in itertools.product(range(k), repeat=k)
        if c[0] == 0 and all(c[i] <= max(c[:i]) + 1 for i in range(1, k))
    }


def test_criterion_01_type_space_counts():
    with Budget(1):
        for k, expected in [(1, 1), (2, 3), (3, 13)]:
            space = enumerate_patterns(DLO, k)
            oracle = brute_rank_vectors(k)
            assert space.size == len(oracle) == expected
            assert set(space.patterns) == oracle
        for k, expected in [(1, 1), (2, 2), (3, 5)]:
            space = enumerate_patterns(PURE_SET, k)
            oracle = brute_partition_codes(k)
            assert space.size == len(oracle) == expected
            assert set(space.patterns) == oracle


# -- criterion 2: orbits against a naive closure oracle ----------------------


def brute_automorphisms(structure):
    """Filter all domain permutations; forward preservation of every
    relation suffices since permutations act injectively on tuples."""
    found = []
    for perm in itertools.permutations(range(structure.domain_size)):
        if all(
            tuple(perm[v] for v in t) in rel.tuples
            for rel in structure.relations
            for t in rel.tuples
        ):
            found.append(perm)
    return found


def brute_orbit_reps(structure, k, perms):
    rep_of = {}
    for t in itertools.product(range(structure.domain_size), repeat=k):
        if t in rep_of:
            continue
        orbit = {tuple(p[v] for v in t) for p in perms}
        least = min(orbit)
        for u in orbit:
            rep_of[u] = least
    return rep_of


def test_criterion_02_orbit_oracle_equivalence():
    with Budget(30):
        for structure in corpus10():
            perms = brute_automorphisms(structure)
            for k in (1, 2, 3):
                space = orbits(structure, k)
                rep_of = brute_orbit_reps(structure, k, perms)
                assert space.size == len(set(rep_of.values()))
                for t, least in rep_of.items():
                    assert space.classify(t) == space.classify(least)
                    assert space.representative(space.classify(t)) == least


# -- criterion 3: canonicity verdicts with a re-checkable counterexample -----


def test_criterion_03_canonicity_verdicts():
    with Budget(5):
        good = is_canonical_symbolic(LEX, DLO, 3)
        assert good.canonical and good.checked_up_to == 3

        bad = is_canonical_symbolic(Min((Coord(1), Coord(2))), DLO, 3)
        assert not bad.canonical
        cx = bad.counterexample
        for left, right in zip(cx.args_a, cx.args_b):
            assert pattern_of(DLO, left) == pattern_of(DLO, right)
        image_a = tuple(min(cx.args_a[0][c], cx.args_a[1][c]) for c in range(cx.k))
        image_b = tuple(min(cx.args_b[0][c], cx.args_b[1][c]) for c in range(cx.k))
        assert pattern_of(DLO, image_a) != pattern_of(DLO, image_b)


# -- criterion 4: the type map respects composition ---------------------------


def composed_terms(depth):
    """Terms over one binary symbol and two variables, nested up to the
    given depth: 2, 6, 38, 1446 terms for depth 0..3."""
    terms = [Var(1), Var(2)]
    for _ in range(depth):
        terms = [Var(1), Var(2)] + [App("f", (s, t)) for s in terms for t in terms]
    return terms


def as_order_term(term):
    return fold(term, Coord, lambda _, parts: substitute(LEX, parts))


def test_criterion_04_type_map_is_a_homomorphism():
    with Budget(10):
        lex_image = type_image(Operation("lex", 2, LEX), DLO, 2)
        lex_table = lex_image.table
        terms = composed_terms(3)
        assert len(terms) == 1446
        for term in terms:
            direct = type_table(as_order_term(term), 2, lex_image.space, DEFAULT_CAPS)
            composed = eval_term_table(term, {"f": lex_table}, 2, lex_table.size)
            assert direct == composed


# -- criterion 5: projection-clone decisions ----------------------------------


def eval_under_selectors(term, sigma, point):
    if isinstance(term, Var):
        return point[term.index - 1]
    return eval_under_selectors(term.args[sigma[term.symbol] - 1], sigma, point)


def assert_failures_genuine(system, report):
    n = system.ambient_arity
    for sigma, index in report.failures:
        mapping = dict(sigma)
        eq = system.equations[index]
        assert any(
            eval_under_selectors(eq.lhs, mapping, point)
            != eval_under_selectors(eq.rhs, mapping, point)
            for point in itertools.product(range(3), repeat=n)
        )


def test_criterion_05_projection_decisions():
    with Budget(1):
        siggers = parse_equation_system(SIGGERS)
        report = satisfiable_in_projections(siggers)
        assert not report.satisfiable and len(report.failures) == 6
        assert_failures_genuine(siggers, report)

        symmetry = parse_equation_system("sig f 2\neq f(x1,x2) = f(x2,x1)\n")
        report = satisfiable_in_projections(symmetry)
        assert not report.satisfiable and len(report.failures) == 2
        assert_failures_genuine(symmetry, report)

        braided = parse_equation_system(
            "sig f 3\nsig g 3\neq f(x1,x2,x3) = g(x2,x1,x3)\n"
        )
        report = satisfiable_in_projections(braided)
        assert report.satisfiable
        mapping = dict(report.sigma)
        for eq in braided.equations:
            for point in itertools.product(range(3), repeat=braided.ambient_arity):
                assert eval_under_selectors(
                    eq.lhs, mapping, point
                ) == eval_under_selectors(eq.rhs, mapping, point)


# -- criterion 6: refutation closes its own triangle ---------------------------


def test_criterion_06_projective_homomorphism_refutation():
    with Budget(5):
        clone = generate([("min", Table(2, 2, (0, 0, 0, 1)))], 2)
        report = has_projective_homomorphism(clone)
        assert report.status == "refuted"
        system = pad_to_common_arity(report.witness_system())
        assert satisfiable_in_clone(system, clone).found
        assert not satisfiable_in_projections(system).satisfiable


# -- criterion 7: associativity lifts stage by stage ---------------------------


def replay_witness(instance, witness):
    bodies = dict(instance.order_terms)
    n = instance.system.ambient_arity
    rows = enumerate_argument_matrix(witness.universe, n)
    evaluations = []
    for eq in instance.system.equations:
        lhs = fold(eq.lhs, Coord, lambda s, parts: substitute(bodies[s], parts))
        rhs = fold(eq.rhs, Coord, lambda s, parts: substitute(bodies[s], parts))
        lv = [eval_rational(lhs, [r[c] for r in rows]) for c in range(witness.columns)]
        rv = [eval_rational(rhs, [r[c] for r in rows]) for c in range(witness.columns)]
        evaluations.append((lv, rv))
    ranks = materialize(v for lv, rv in evaluations for v in lv + rv)
    for (w_l, w_r), (lv, rv) in zip(witness.pairs, evaluations):
        for c in range(witness.columns):
            assert w_l.apply(ranks[lv[c]]) == w_r.apply(ranks[rv[c]])


def test_criterion_07_lift_and_accumulate():
    with Budget(60):
        system = parse_equation_system(
            "sig f 2\neq f(f(x1,x2),x3) = f(x1,f(x2,x3))\n"
        )
        instance = build_instance(
            DLO, [Operation("lex", 2, LEX)], system, caps=SMALL, assign={"f": "lex"}
        )
        witnesses = lift(instance, 4, caps=SMALL)
        assert len(witnesses) == 5
        for j, witness in enumerate(witnesses):
            assert witness.universe == tuple(Fraction(i) for i in range(j + 1))
            assert witness.columns == (j + 1) ** 3
            replay_witness(instance, witness)
        report = approximate_accumulation(witnesses, 2)
        assert report.stable


# -- criterion 8: the identity-only outside family changes nothing --------------


def random_term(rng, signature, n_vars, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randint(1, n_vars))
    name, arity = rng.choice(signature)
    return App(
        name, tuple(random_term(rng, signature, n_vars, depth - 1) for _ in range(arity))
    )


def random_instance(rng):
    base = rng.choice([2, 3])
    gens = [
        (
            "g0",
            Table(
                base, 2, tuple(rng.randrange(base) for _ in range(base**2))
            ),
        )
    ]
    if rng.random() < 0.5:
        gens.append(
            ("g1", Table(base, 1, tuple(rng.randrange(base) for _ in range(base))))
        )
    clone = generate(gens, base, SMALL)
    signature = [(f"f{i}", rng.choice([1, 2])) for i in range(rng.choice([1, 2]))]
    equations = tuple(
        Equation(
            random_term(rng, signature, 3, 2), random_term(rng, signature, 3, 2)
        )
        for _ in range(rng.choice([1, 2]))
    )
    return EquationSystem(tuple(signature), equations), clone


def test_criterion_08_modulo_identity_matches_plain_search():
    with Budget(60):
        rng = random.Random(20260819)
        for _ in range(50):
            system, clone = random_instance(rng)
            plain = satisfiable_in_clone(system, clone)
            outside = [("id", Table(clone.base_size, 1, tuple(range(clone.base_size))))]
            modulo = satisfiable_modulo_outside(system, clone, outside)
            assert modulo.found == plain.found
            assert modulo.assignment == plain.assignment
            assert modulo.checked == plain.checked
            if plain.found:
                assert all(left == "id" == right for left, right in modulo.modifiers)


# -- criterion 9: the rational-order model ---------------------------------------


def member_pool():
    pool = {1: [], 2: [], 3: []}
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            pool[n].append(selector_member(n, i))
    pool[1].append(make_member(1, 1, 0, translation(3), {(-1,): -5}))
    pool[1].append(make_member(1, 1, 2, affine(2, 1), {}))
    pool[2].append(make_member(2, 1, 0, identity(), {}))
    pool[2].append(make_member(2, 2, 1, translation(2), {(0, 1): -3}))
    pool[3].append(make_member(3, 2, 2, translation(1), {}))
    pool[3].append(make_member(3, 3, 0, affine(3, -1), {}))
    return pool


def test_criterion_09_rational_order_model():
    with Budget(60):
        # (a) the eventual coordinate of a composite collapses like a
        # selector chain, and the value at large inputs agrees pointwise
        rng = random.Random(4)
        pool = member_pool()
        added = 0
        for step in range(1000):
            outer_arity = rng.choice([1, 2, 3])
            inner_arity = rng.choice([1, 2, 3])
            f = rng.choice(pool[outer_arity])
            gs = [rng.choice(pool[inner_arity]) for _ in range(outer_arity)]
            comp = compose_members(f, gs)
            assert xi(comp) == xi(gs[xi(f) - 1])
            u = tuple(comp.threshold + 1 + j for j in range(inner_arity))
            assert evaluate(comp, u) == evaluate(
                f, tuple(evaluate(g, u) for g in gs)
            )
            if step % 50 == 0 and added < 15:
                pool[inner_arity].append(comp)
                added += 1

        # (b) one finite restriction, one extension per coordinate
        for n in (2, 3, 4):
            report = noncontinuity_demo(n, 5, seed=n)
            assert report.coordinates() == tuple(range(1, n + 1))
            for g in report.extensions:
                for point, value in report.restriction:
                    assert evaluate(g, point) == value

        # (c) uniqueness witnesses: symbolic range bound, grid identity
        f = make_member(
            2, 1, 3, translation(5), {(0, 1): 1, (-2, -4): -1}
        )
        witnesses, report = uniqueness_witnesses(f)
        assert report.range_inf == Fraction(3)
        assert report.checked == 100 and report.coordinate == 1
        g = witnesses[0]
        graph = g.below
        assert graph.range_inf() == Fraction(3) and graph.range_sup() is None
        for x in (Fraction(-1000), Fraction(-1), Fraction(0), Fraction(17, 3)):
            assert evaluate(g, (x,)) > 3
        for u1, u2 in [(-4, -4), (-4, 9), (0, -7), (5, 5)]:
            pushed = (evaluate(g, (Fraction(u1),)), evaluate(g, (Fraction(u2),)))
            assert evaluate(f, pushed) == pushed[0] + 5

        # (d) five-point restrictions of the pointwise minimum extend
        min_points = {
            (0, 1): 0,
            (0, 2): 0,
            (1, 0): 0,
            (2, 3): 2,
            (-1, -2): -2,
        }
        for target in (1, 2):
            member = extend_restriction(min_points, target, 2)
            assert xi(member) == target
            for point, value in min_points.items():
                args = tuple(Fraction(x) for x in point)
                assert evaluate(member, args) == Fraction(value)
                assert evaluate(member, args) == min(args)


# -- criterion 10: runs are byte-identical ----------------------------------------


def cli_bytes(argv):
    # the child runs the package this process imported, installed or not
    source = str(Path(clonelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "clonelab.cli", *argv],
        capture_output=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.returncode, done.stdout


def test_criterion_10_cli_determinism(tmp_path):
    siggers = tmp_path / "six.eqs"
    siggers.write_text(SIGGERS)
    lex_ops = tmp_path / "lex.ops"
    lex_ops.write_text("op lex 2\nterm lex(x1, x2)\n")
    runs = [
        ["qdemo", "--n", "3", "--samples", "4", "--seed", "13"],
        ["sat1", str(siggers)],
        ["analyze", str(lex_ops), "dlo", "--arity-cap", "3", "--depth-cap", "2"],
        ["orbits", "dlo", "--k", "3"],
    ]
    for argv in runs:
        first = cli_bytes(argv)
        second = cli_bytes(argv)
        assert first == second
        assert first[1] != b""
