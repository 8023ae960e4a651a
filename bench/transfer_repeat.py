"""transfer-repeat: the symbolic transfer pipeline on a small repeating pool.

The seed builds a pool of 25 binary generator sets over the dense order
(`dlo`) and the bare set (`pureset`): non-canonical sets that the
canonicity check rejects, canonical sets whose type clone has a selector
reading, and sets whose reading is refuted.  Every job runs
`analyze_transfer`; five pool entries also build a lift instance and
lift a system over 3 to 7 stages.  Jobs walk the pool in shuffled
rounds, so every input repeats and memoisation has something to hit.

The pool has fixed slots (kind, structure and stage count), and the
seed picks the terms and the increasing map that fill them, so every
seed's cost mix is alike.  A run covers whole rounds, four at least, so
every slot contributes the same number of latencies.  The quotas (5
cheap, 15 analysed, 5 lifted) put the median in the middle of the
analysed slots and p90 in the middle of the lifted ones, each a cluster
of similar costs, rather than on the edge between two clusters.
Generators are binary: ternary order terms exceed `pattern_cap` at the
default `k_max` of 3."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import clonelab as cl
from clonelab.lifting import enumerate_argument_matrix
from clonelab.orderterms import Coord, eval_rational, materialize, substitute
from clonelab.terms import fold

from common import (
    all_selector_readings,
    collapse,
    holds_pointwise,
    max_var,
    pattern,
    require,
)

NAME = "transfer-repeat"
ROUND = 25  # the pool size
ROUNDS = 160
DIGEST_JOBS = ROUND

# Every cap stated.  With DEFAULT_CAPS (arity 6, depth 4) analyze_transfer
# on lex over dlo did not finish in 10 minutes: arity 5-6 catalogs blow up.
CAPS = cl.Caps(tuple_cap=1_000_000, k_cap=6, arity_cap=3, depth_cap=2,
               catalog_cap=100_000, pattern_cap=600_000)
ANALYZE_STAGES = 3
ANALYZE_DEPTH = 2

NONCANONICAL = (
    "min(x1, x2)", "max(x1, x2)", "lex(min(x1, x2), max(x1, x2))",
    "lex(max(x1, x2), min(x1, x2))", "lex(max(x1, x2), x1)", "lex(x1, min(x1, x2))",
    "lex(min(x1, x2), x1)", "m(min(x1, x2))", "lex(x1, max(x1, x2))",
    "lex(x2, min(x1, x2))",
)
LEX = ("lex(x1, x2)", "lex(x2, x1)")  # equal cost by symmetry
MAPPED = ("m(lex(x1, x2))", "m(lex(x2, x1))")
NESTED = (
    "lex(x1, lex(x2, x1))", "lex(lex(x1, x2), x1)",
    "lex(x2, lex(x1, x2))", "lex(lex(x2, x1), x2)",
)
ASSOCIATIVE = "sig f 2\neq f(f(x1,x2),x3) = f(x1,f(x2,x3))\n"
COMMUTATIVE = "sig f 2\neq f(x1,x2) = f(x2,x1)\n"


@dataclass(frozen=True)
class Job:
    slot: int
    structure: str  # "dlo" or "pureset"
    generators: tuple[tuple[str, int, str], ...]  # name, arity, term text
    maps: tuple[tuple[str, object], ...]  # named increasing maps the terms use
    canonical: bool  # what the pool slot expects
    lift_system: str | None = None
    lift_stages: int = 0
    recheck: bool = True


@dataclass(frozen=True)
class Outcome:
    report: object = None
    rejected: object = None  # NonCanonicalOperation
    instance: object = None
    witnesses: tuple | None = None
    accumulation: object = None
    lift_failure: object = None  # EqualizerFailure


def _random_map(rng: random.Random):
    xs = sorted(rng.sample(range(-6, 7), 3))
    ys = sorted(rng.sample(range(-12, 13), 3))
    return cl.from_point_pairs(zip(xs, ys))


def _pool(rng: random.Random) -> list[Job]:
    """25 slots with fixed kinds, structures and stage counts; the seed
    picks the terms and the map that fill them."""
    maps = (("m", _random_map(rng)),)

    def job(structure, term, canonical=True, system=None, stages=0, recheck=True, unary=False):
        generators = (("f", 2, term),) + ((("u", 1, "m(x1)"),) if unary else ())
        return Job(0, structure, generators, maps, canonical, system, stages, recheck)

    dlo, pure = "dlo", "pureset"
    nested = rng.sample(NESTED, 2)
    # 5 cheap slots: rejected at k <= 2, or a term in one argument
    pool = [
        job(structure, term, canonical=False)
        for structure, term in zip([dlo, pure, dlo, pure], rng.sample(NONCANONICAL, 4))
    ]
    pool.append(job(dlo, "x1"))  # declared binary, depends on one argument
    # 15 analysed slots, each dominated by one binary canonicity check
    pool += [job(dlo, rng.choice(LEX)) for _ in range(7)]
    pool += [job(pure, rng.choice(LEX)) for _ in range(2)]
    pool += [job(dlo, nested[0]), job(pure, nested[1])]
    pool += [job(dlo, rng.choice(MAPPED)), job(pure, rng.choice(MAPPED))]
    pool += [job(dlo, rng.choice(LEX), unary=True), job(pure, rng.choice(MAPPED), unary=True)]
    # 5 lifted slots, each about two canonicity checks plus the lift.
    # Commutativity fails for lex; without the recheck the lift meets the
    # obstruction as an equalizer failure.
    pool.append(job(dlo, rng.choice(LEX), system=COMMUTATIVE, stages=3, recheck=False))
    pool.append(job(pure, rng.choice(MAPPED), system=ASSOCIATIVE, stages=7))
    pool += [job(dlo, rng.choice(LEX), system=ASSOCIATIVE, stages=n) for n in (3, 4, 5)]
    assert len(pool) == ROUND
    return [replace(j, slot=i) for i, j in enumerate(pool)]


def make_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    pool = _pool(rng)
    jobs = []
    for _ in range(ROUNDS):
        order = list(pool)
        rng.shuffle(order)
        jobs.extend(order)
    return jobs


def _structure(name: str):
    return cl.DLO if name == "dlo" else cl.PURE_SET


def run(job: Job) -> Outcome:
    structure = _structure(job.structure)
    maps = dict(job.maps)
    ops = [
        cl.Operation(name, arity, cl.parse_order_term(term, maps))
        for name, arity, term in job.generators
    ]
    try:
        report = cl.analyze_transfer(structure, ops, CAPS, ANALYZE_STAGES, ANALYZE_DEPTH)
    except cl.NonCanonicalOperation as exc:
        return Outcome(rejected=exc)
    if job.lift_system is None:
        return Outcome(report=report)
    system = cl.parse_equation_system(job.lift_system)
    instance = cl.build_instance(
        structure, ops, system, CAPS, assign={"f": "f"}, recheck=job.recheck
    )
    try:
        witnesses = cl.lift(instance, job.lift_stages, CAPS, recheck=job.recheck)
    except cl.EqualizerFailure as exc:
        return Outcome(report=report, instance=instance, lift_failure=exc)
    accumulation = None
    if structure is cl.DLO:
        # over the bare set the witnesses are point injections, defined
        # only on each stage's ranks, so there is nothing to sample
        accumulation = cl.approximate_accumulation(witnesses, ANALYZE_DEPTH)
    return Outcome(report, None, instance, witnesses, accumulation)


# -- checks -------------------------------------------------------------------


def _sides(instance):
    bodies = dict(instance.order_terms)
    return [
        tuple(
            fold(side, Coord, lambda s, parts: substitute(bodies[s], parts))
            for side in (eq.lhs, eq.rhs)
        )
        for eq in instance.system.equations
    ]


def _evaluate_stage(instance, universe):
    rows = enumerate_argument_matrix(universe, instance.system.ambient_arity)
    columns = len(rows[0])
    evaluations = []
    for lhs, rhs in _sides(instance):
        lv = [eval_rational(lhs, [r[c] for r in rows]) for c in range(columns)]
        rv = [eval_rational(rhs, [r[c] for r in rows]) for c in range(columns)]
        evaluations.append((lv, rv))
    ranks = materialize(v for lv, rv in evaluations for v in lv + rv)
    return columns, [([ranks[v] for v in lv], [ranks[v] for v in rv]) for lv, rv in evaluations]


def _replay(instance, witnesses) -> list[int]:
    """Re-evaluate every stage and apply each equalizing pair column by column."""
    columns_per_stage = []
    for j, witness in enumerate(witnesses):
        require(witness.universe == instance.universe(j), f"stage {j} universe differs")
        columns, sides = _evaluate_stage(instance, witness.universe)
        require(columns == witness.columns, f"stage {j} column count differs")
        for (w_l, w_r), (left, right) in zip(witness.pairs, sides):
            for c in range(columns):
                require(w_l.apply(left[c]) == w_r.apply(right[c]), f"stage {j} column {c} not equalized")
        columns_per_stage.append(columns)
    return columns_per_stage


def _check_rejection(job: Job, exc) -> int:
    cx = exc.counterexample
    require(len(job.generators) == 1, "rejected slots hold one generator")
    term = cl.parse_order_term(job.generators[0][2], dict(job.maps))
    kind = job.structure
    for a, b in zip(cx.args_a, cx.args_b):
        require(pattern(kind, a) == pattern(kind, b), "counterexample arguments differ in type")
    images = []
    for args in (cx.args_a, cx.args_b):
        images.append(pattern(kind, [eval_rational(term, [a[j] for a in args]) for j in range(cx.k)]))
    require(images[0] != images[1], "counterexample images share a type")
    return cx.k


def _check_report(report) -> list:
    clone = report.type_clone
    hom = report.homomorphism
    tables = {name: table for name, table in clone.generators}
    if hom.status == "found":
        sigma = dict(hom.sigma)
        for arity in clone.collisions:
            for s, t in clone.collisions[arity]:
                require(collapse(s, sigma) == collapse(t, sigma), "reading breaks a collision")
        require(report.system is None, "a found reading carries an obstruction")
        return [hom.status]
    require(hom.status == "refuted", f"unexpected status {hom.status}")
    system = report.system
    for eq in system.equations:
        require(
            holds_pointwise(eq.lhs, eq.rhs, tables, system.ambient_arity, clone.base_size),
            f"obstruction {eq} fails in the type clone",
        )
    for sigma in all_selector_readings(system.signature):
        require(
            any(collapse(eq.lhs, sigma) != collapse(eq.rhs, sigma) for eq in system.equations),
            "obstruction holds in a projection",
        )
    require(report.triangle == (True, True), "triangle is not closed")
    columns = None
    if report.witnesses is not None:
        columns = _replay(report.instance, report.witnesses)
    return [hom.status, len(system.equations), max(max_var(e.lhs) for e in system.equations),
            columns, report.failure is not None]


def _check_lift_failure(instance, exc) -> int:
    _, sides = _evaluate_stage(instance, instance.universe(exc.j))
    kind = instance.structure.name
    require(
        any(pattern(kind, left) != pattern(kind, right) for left, right in sides),
        f"stage {exc.j} reported as an obstruction but both sides agree",
    )
    return exc.j


def check(job: Job, out: Outcome) -> list:
    """Verify a job's results; return its semantic summary for the digest."""
    if out.rejected is not None:
        require(not job.canonical, f"slot {job.slot}: canonical generator rejected")
        return [job.slot, "noncanonical", _check_rejection(job, out.rejected)]
    require(job.canonical, f"slot {job.slot}: non-canonical generator accepted")
    report = out.report
    summary = [job.slot, report.xi.space.size,
               {a: len(c) for a, c in sorted(report.type_clone.catalogs.items())},
               _check_report(report)]
    if out.lift_failure is not None:
        require(not job.recheck, "a rechecked system failed to lift")
        summary.append(["equalizer-failure", _check_lift_failure(out.instance, out.lift_failure)])
    elif out.witnesses is not None:
        require(len(out.witnesses) == job.lift_stages + 1, "wrong number of stages")
        stable = None if out.accumulation is None else out.accumulation.stable
        summary.append([_replay(out.instance, out.witnesses), stable])
    return summary


def repeat_key(job: Job) -> int:
    """Jobs of one pool slot repeat one input, so they must agree."""
    return job.slot
