"""finite-mix: every job builds a fresh finite clone and questions it.

A job draws one or two random generator tables of arity 1 or 2 on a
base of 2 or 3 elements and a small finite structure of an assorted shape.  It then
generates the clone, looks for a selector reading, searches the clone
for five named conditions, searches modulo an outside symmetry, and
computes orbits and a finite canonicity verdict.  No two jobs share
inputs, so cross-job caches get no hits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import clonelab as cl

from common import (
    all_selector_readings,
    collapse,
    eval_point,
    holds_pointwise,
    max_var,
    require,
    table_value,
)

NAME = "finite-mix"
JOB_COUNT = 4000
DIGEST_JOBS = 100

# Every cap stated.  Depth 3 gives arity-3 catalogs of 10-100k tables on
# base 3 and a heavy tail of slow generations on base 2, so both stop at 2.
CAPS = cl.Caps(tuple_cap=1_000_000, k_cap=6, arity_cap=3, depth_cap=2,
               catalog_cap=100_000, pattern_cap=600_000)
ORBIT_K = 3
CANONICAL_K_MAX = 4
# Job costs differ by orders of magnitude between generator shapes, so
# shapes are drawn in shuffled blocks with fixed quotas: every run sees
# the same mix, and only the tables inside each shape are random.  The
# quotas put the median among the one-binary-generator jobs on base 2
# and p90 among the two-binary-generator jobs on base 3, each a shape
# whose costs cluster, rather than in a gap between shapes.
BLOCK = (  # (base, generator arities)
    (2, (1,)), (2, (2,)), (2, (2,)), (2, (2,)), (2, (2,)),
    (2, (1, 2)), (3, (2,)), (3, (1, 2)), (3, (2, 2)), (3, (2, 2)),
)
ROUND = len(BLOCK)  # runs end on a whole block

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
MODULO_CONDITION = "symmetric"
SHAPES = ("cycle", "order", "path", "complete", "empty", "marked", "random", "ternary")


@dataclass(frozen=True)
class Job:
    base: int
    generators: tuple[tuple[str, int, tuple[int, ...]], ...]
    structure: str
    outside: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Outcome:
    clone: object
    homomorphism: object
    searches: tuple
    modulo: object
    structure: object
    orbits: object
    verdict: object


def _structure_text(rng: random.Random, n: int) -> str:
    shape = rng.choice(SHAPES)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if shape == "cycle":
        rels = [("E", 2, [(i, (i + 1) % n) for i in range(n)])]
    elif shape == "order":
        rels = [("lt", 2, [(i, j) for i, j in pairs if i < j])]
    elif shape == "path":
        rels = [("E", 2, [(i, j) for i, j in pairs if abs(i - j) == 1])]
    elif shape == "complete":
        rels = [("E", 2, pairs)]
    elif shape == "empty":
        rels = []
    elif shape == "marked":
        rels = [("P", 1, [(0,)])]
    elif shape == "random":
        rels = [("E", 2, [p for p in pairs if rng.random() < 0.4])]
    else:
        cube = list(itertools.product(range(n), repeat=3))
        rels = [("R", 3, rng.sample(cube, 3))]
    lines = [f"# {shape}", f"domain {n}"]
    for name, arity, tuples in rels:
        lines.append(f"relation {name} {arity}")
        lines.extend(" ".join(map(str, t)) for t in tuples)
    return "\n".join(lines) + "\n"


def _job(rng: random.Random, base: int, arities: tuple[int, ...]) -> Job:
    generators = []
    for g, arity in enumerate(arities):
        outputs = tuple(rng.randrange(base) for _ in range(base**arity))
        generators.append((f"g{g}", arity, outputs))
    perm = list(range(base))
    while perm == list(range(base)):
        rng.shuffle(perm)
    outside = (("id", tuple(range(base))), ("swap", tuple(perm)))
    return Job(base, tuple(generators), _structure_text(rng, base), outside)


def make_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    while len(jobs) < JOB_COUNT:
        block = list(BLOCK)
        rng.shuffle(block)
        jobs.extend(_job(rng, base, arities) for base, arities in block)
    return jobs[:JOB_COUNT]


def run(job: Job) -> Outcome:
    tables = [(name, cl.Table(job.base, arity, out)) for name, arity, out in job.generators]
    clone = cl.generate(tables, job.base, CAPS)
    hom = cl.has_projective_homomorphism(clone)
    searches = []
    for name, text in CONDITIONS.items():
        system = cl.pad_to_common_arity(cl.parse_equation_system(text))
        searches.append((name, system, cl.satisfiable_in_clone(system, clone)))
    outside = [(name, cl.Table(job.base, 1, out)) for name, out in job.outside]
    system = cl.pad_to_common_arity(cl.parse_equation_system(CONDITIONS[MODULO_CONDITION]))
    modulo = (system, cl.satisfiable_modulo_outside(system, clone, outside))
    structure = cl.parse_structure(job.structure)
    space = cl.orbits(structure, ORBIT_K, CAPS)
    name, table = max(tables, key=lambda nt: nt[1].arity)
    op = cl.Operation(name, table.arity, table)
    verdict = cl.is_canonical(op, structure, CANONICAL_K_MAX, CAPS)
    return Outcome(clone, hom, tuple(searches), modulo, structure, space, verdict)


# -- checks -------------------------------------------------------------------


def _check_clone(job: Job, clone) -> None:
    gens = {name: clone.generator_table(name) for name, _, _ in job.generators}
    for arity, entries in clone.catalogs.items():
        outputs = [e.table.outputs for e in entries]
        require(len(set(outputs)) == len(outputs), f"arity {arity} catalog repeats a table")
        # spot-check witness terms: the first and last entries of each arity
        for entry in entries[:10] + entries[-10:]:
            for point in itertools.product(range(job.base), repeat=arity):
                require(
                    eval_point(entry.term, gens, point) == table_value(entry.table, point),
                    f"catalog term {entry.term} does not produce its table",
                )


def _check_homomorphism(job: Job, clone, hom) -> None:
    gens = {name: clone.generator_table(name) for name, _, _ in job.generators}
    if hom.status == "found":
        sigma = dict(hom.sigma)
        for arity in clone.collisions:
            for s, t in clone.collisions[arity]:
                require(collapse(s, sigma) == collapse(t, sigma), "selector reading breaks a collision")
        return
    require(hom.status == "refuted", f"unexpected status {hom.status}")
    for s, t in hom.witness:
        n = max(max_var(s), max_var(t))
        require(holds_pointwise(s, t, gens, n, job.base), f"witness {s} = {t} fails in the clone")
    for sigma in all_selector_readings(hom.signature):
        require(
            any(collapse(s, sigma) != collapse(t, sigma) for s, t in hom.witness),
            f"selector reading {sigma} survives the refutation",
        )


def _check_found(system, report, base: int, outside=None) -> None:
    if not report.found:
        return
    tables = {name: entry.table for name, entry in report.assignment}
    n = system.ambient_arity
    modifiers = report.modifiers if outside is not None else [None] * len(system.equations)
    for eq, mods in zip(system.equations, modifiers):
        for point in itertools.product(range(base), repeat=n):
            left = eval_point(eq.lhs, tables, point)
            right = eval_point(eq.rhs, tables, point)
            if mods is not None:
                left = outside[mods[0]][left]
                right = outside[mods[1]][right]
            require(left == right, f"assignment breaks {eq} at {point}")


def _automorphisms(structure) -> list[tuple[int, ...]]:
    n = structure.domain_size
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(
            tuple(perm[v] for v in t) in rel.tuples
            for rel in structure.relations
            for t in rel.tuples
        )
    ]


def _check_orbits(structure, space) -> None:
    n = structure.domain_size
    require(sum(space.orbit_sizes) == n**ORBIT_K, "orbit sizes do not cover the tuple space")
    auts = _automorphisms(structure)
    for t in itertools.product(range(n), repeat=ORBIT_K):
        orbit = {tuple(p[v] for v in t) for p in auts}
        rep = space.reps[space.classify(t)]
        require(rep == min(orbit), f"orbit representative of {t} is not its least member")


def _check_verdict(structure, verdict, tables) -> None:
    if verdict.canonical:
        require(verdict.checked_up_to == CANONICAL_K_MAX, "canonical verdict stops early")
        return
    cx = verdict.counterexample
    auts = _automorphisms(structure)
    for perm, a, b in zip(cx.automorphisms, cx.args_a, cx.args_b):
        require(perm.images in auts, "counterexample map is not an automorphism")
        require(tuple(perm.images[v] for v in a) == tuple(b), "counterexample map misses")
    table = max(tables, key=lambda t: t.arity)
    image_a = tuple(table_value(table, [a[j] for a in cx.args_a]) for j in range(cx.k))
    image_b = tuple(table_value(table, [b[j] for b in cx.args_b]) for j in range(cx.k))
    require(
        all(tuple(p[v] for v in image_a) != image_b for p in auts),
        "counterexample images lie in one orbit",
    )


def check(job: Job, out: Outcome) -> list:
    """Verify a job's results; return its semantic summary for the digest."""
    clone = out.clone
    _check_clone(job, clone)
    _check_homomorphism(job, clone, out.homomorphism)
    for _, system, report in out.searches:
        _check_found(system, report, job.base)
    outside = {name: out_ for name, out_ in job.outside}
    _check_found(out.modulo[0], out.modulo[1], job.base, outside)
    _check_orbits(out.structure, out.orbits)
    tables = [clone.generator_table(name) for name, _, _ in job.generators]
    _check_verdict(out.structure, out.verdict, tables)
    return [
        job.base,
        {a: len(c) for a, c in sorted(clone.catalogs.items())},
        {a: s for a, s in sorted(clone.saturated.items())},
        out.homomorphism.status,
        {name: report.found for name, _, report in out.searches},
        out.modulo[1].found,
        sorted(out.orbits.orbit_sizes),
        out.verdict.canonical,
        out.verdict.checked_up_to,
    ]
