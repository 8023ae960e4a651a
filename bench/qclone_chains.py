"""qclone-chains: members of the rational-order model, composed in chains.

Each job builds two members from finite data with `make_member`, restricts
one to a few points and rebuilds it with `extend_restriction` under
another eventual coordinate, composes a two-level chain with
`compose_members`, then reads the chain's eventual coordinate with `xi`,
spot-checks it for monotonicity, builds uniqueness witnesses for a member
and round-trips that member through its file form.  This is the only
workload that exercises `qclone` and the exact arithmetic of `plmap`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import clonelab as cl

from common import require, text

NAME = "qclone-chains"
JOB_COUNT = 2100
DIGEST_JOBS = 100

# Every cap and size stated.
CAPS = cl.Caps(tuple_cap=1_000_000, k_cap=6, arity_cap=6, depth_cap=4,
               catalog_cap=100_000, pattern_cap=600_000)
SPOT_CHECK_PAIRS = 40
GRID_SIDE = 4
RESTRICTION_POINTS = 4
# Arity-3 jobs take about twice as long as arity-2 ones.  Arities are
# drawn in shuffled blocks with fixed quotas so every run sees the same
# mix, and the 2:1 quota keeps the median and p90 off the gap between
# the two modes.
ARITY_BLOCK = (2, 2, 3)
ROUND = len(ARITY_BLOCK)  # runs end on a whole block


@dataclass(frozen=True)
class MemberSpec:
    coordinate: int
    threshold: Fraction
    alpha: tuple[tuple[Fraction, Fraction], ...]  # increasing point pairs
    data: tuple[tuple[tuple[Fraction, ...], Fraction], ...]


@dataclass(frozen=True)
class Job:
    arity: int
    members: tuple[MemberSpec, MemberSpec]
    restriction_points: tuple[tuple[Fraction, ...], ...]
    extension_coordinate: int
    selector_coordinate: int
    # leaves: 0, 1 = members, 2 = extension, 3 = selector, 4 = first level
    first_level: tuple[int, tuple[int, ...]]
    second_level: tuple[int, tuple[int, ...]]
    spot_seed: int
    sample_points: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Outcome:
    leaves: tuple
    extension_coordinate: int
    chain: object
    chain_coordinate: int
    spot_checked: int
    witnesses: tuple
    uniqueness: object
    text: str
    parsed: object
    restriction: dict


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * 4, hi * 4), rng.randint(1, 4))


def _member_spec(rng: random.Random, n: int) -> MemberSpec:
    threshold = Fraction(rng.randint(0, 6))
    xs = sorted(rng.sample(range(-8, 9), 3))
    ys = sorted(rng.sample(range(-8, 9), 3))
    alpha_pairs = tuple((Fraction(x), Fraction(y)) for x, y in zip(xs, ys))
    # alpha has slope-1 tails and the threshold is at least 0, so
    # alpha(threshold) >= ys[0] - 8 whatever the breakpoints are
    ceiling = Fraction(ys[0] - 8)
    count = rng.randint(2, 4)
    points = set()
    while len(points) < count:
        point = [_rational(rng, -6, 8) for _ in range(n)]
        point[rng.randrange(n)] = min(point[0], threshold)  # not all above
        points.add(tuple(point))
    # a positive multiple of the coordinate sum increases along weak
    # domination, and the offset keeps every value below the ceiling
    slope = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    top = max(sum(p) for p in points)
    offset = ceiling - 1 - slope * top - rng.randint(0, 3)
    data = tuple(sorted((p, slope * sum(p) + offset) for p in points))
    return MemberSpec(rng.randint(1, n), threshold, alpha_pairs, data)


def _job(rng: random.Random, n: int) -> Job:
    members = (_member_spec(rng, n), _member_spec(rng, n))
    restriction = set()
    while len(restriction) < RESTRICTION_POINTS:
        restriction.add(tuple(_rational(rng, -6, 6) for _ in range(n)))
    first = (rng.choice((0, 1, 2)), tuple(rng.choice((0, 1, 2, 3)) for _ in range(n)))
    inner = [4] + [rng.choice((0, 1, 2, 3)) for _ in range(n - 1)]
    rng.shuffle(inner)
    second = (rng.choice((0, 1, 2)), tuple(inner))
    samples = tuple(tuple(_rational(rng, -10, 10) for _ in range(n)) for _ in range(3))
    return Job(
        n, members, tuple(sorted(restriction)), rng.randint(1, n), rng.randint(1, n),
        first, second, rng.randrange(1 << 30), samples,
    )


def make_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    while len(jobs) < JOB_COUNT:
        block = list(ARITY_BLOCK)
        rng.shuffle(block)
        jobs.extend(_job(rng, n) for n in block)
    return jobs[:JOB_COUNT]


def _build(spec: MemberSpec, n: int):
    alpha = cl.from_point_pairs(spec.alpha)
    return cl.make_member(n, spec.coordinate, spec.threshold, alpha, dict(spec.data))


def run(job: Job) -> Outcome:
    n = job.arity
    a = _build(job.members[0], n)
    b = _build(job.members[1], n)
    restriction = {p: cl.evaluate(a, p) for p in job.restriction_points}
    extension = cl.extend_restriction(restriction, job.extension_coordinate, n)
    extension_coordinate = cl.xi(extension)
    leaves = [a, b, extension, cl.selector_member(n, job.selector_coordinate)]
    outer, inners = job.first_level
    leaves.append(cl.compose_members(leaves[outer], [leaves[i] for i in inners]))
    outer, inners = job.second_level
    chain = cl.compose_members(leaves[outer], [leaves[i] for i in inners])
    coordinate = cl.xi(chain)
    checked = cl.spot_check_polymorphism(chain, SPOT_CHECK_PAIRS, job.spot_seed)
    witnesses, uniqueness = cl.uniqueness_witnesses(a, GRID_SIDE, CAPS)
    file_text = cl.serialize_member(a)
    parsed = cl.parse_member(file_text)
    return Outcome(tuple(leaves), extension_coordinate, chain, coordinate, checked,
                   witnesses, uniqueness, file_text, parsed, restriction)


# -- checks -------------------------------------------------------------------


def _expected_coordinate(job: Job, index: int) -> int:
    """Eventual coordinate of a leaf or chain, by collapsing the recipe."""
    if index in (0, 1):
        return job.members[index].coordinate
    if index == 2:
        return job.extension_coordinate
    if index == 3:
        return job.selector_coordinate
    outer, inners = job.first_level if index == 4 else job.second_level
    return _expected_coordinate(job, inners[_expected_coordinate(job, outer) - 1])


def _nested_value(job: Job, leaves, index: int, point) -> Fraction:
    """Value of a leaf or chain, composing the leaves' values by hand."""
    if index < 4:
        return cl.evaluate(leaves[index], point)
    outer, inners = job.first_level if index == 4 else job.second_level
    inner_values = tuple(_nested_value(job, leaves, i, point) for i in inners)
    return _nested_value(job, leaves, outer, inner_values)


def check(job: Job, out: Outcome) -> list:
    """Verify a job's results; return its semantic summary for the digest."""
    n = job.arity
    a, b, extension = out.leaves[:3]
    for leaf, spec in ((a, job.members[0]), (b, job.members[1])):
        for point, value in spec.data:
            require(cl.evaluate(leaf, point) == value, f"member misses its data at {point}")
    for point, value in out.restriction.items():
        require(cl.evaluate(extension, point) == value, f"extension misses {point}")
    require(out.extension_coordinate == job.extension_coordinate, "extension has the wrong coordinate")
    expected = _expected_coordinate(job, 5)
    require(out.chain_coordinate == expected, f"xi gives {out.chain_coordinate}, collapse gives {expected}")
    require(out.chain.coordinate == expected, "chain records the wrong coordinate")
    chain_index = 5
    leaves = list(out.leaves) + [out.chain]
    values = []
    high = out.chain.threshold + 1
    above = tuple(high + j for j in range(n))
    for point in job.sample_points + (above,):
        value = cl.evaluate(out.chain, point)
        require(value == _nested_value(job, leaves, chain_index, point), f"chain differs from its composition at {point}")
        values.append(value)
    require(values[-1] == out.chain.eventual.apply(above[expected - 1]), "chain is not eventually its coordinate")
    require(out.spot_checked == SPOT_CHECK_PAIRS, "spot check skipped pairs")
    report = out.uniqueness
    require(report.checked == GRID_SIDE**n, "uniqueness grid incomplete")
    require(report.coordinate == a.coordinate and report.range_inf == a.threshold, "uniqueness report is off")
    require(len(out.witnesses) == n, "one uniqueness witness per coordinate")
    require(out.parsed == a, "member changed in its file round trip")
    require(cl.serialize_member(out.parsed) == out.text, "file form is not stable")
    return [n, expected, [text(v) for v in values[:-1]], report.checked]
