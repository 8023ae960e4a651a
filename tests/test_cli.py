"""End-to-end runs of the command line: exit codes, report shape,
determinism, and the operation-file parser."""

from __future__ import annotations

import re
import time

import pytest

from clonelab.cli import main, parse_operations
from clonelab.canonical import Operation, xi_infty
from clonelab.clones import Table
from clonelab.config import Caps
from clonelab.errors import ParseError
from clonelab.orderterms import Coord, Lex
from clonelab.structures import DLO, PURE_SET, pattern_of

CYCLE3 = """
domain 3
relation edge 2
0 1
1 2
2 0
"""

SIGGERS = """
sig s 6
eq s(x1,x2,x1,x3,x2,x3) = s(x2,x1,x3,x1,x3,x2)
"""

LEX_OPS = "op lex 2\nterm lex(x1, x2)\n"
MIN_OPS = "op min 2\ntable 0 0 0 1\n"
ASSOC = "sig f 2\neq f(f(x1,x2),x3) = f(x1,f(x2,x3))\n"
COMM = "sig f 2\neq f(x1,x2) = f(x2,x1)\n"
TRIVIAL = "sig f 2\neq f(x1,x2) = f(x1,x2)\n"

SMALL = ["--arity-cap", "3", "--depth-cap", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# -- orbits ----------------------------------------------------------------


def test_orbits_concrete_structure(files, capsys):
    path = files("cycle3.struct", CYCLE3)
    code, out, _ = run(capsys, "orbits", path, "--k", "2")
    assert code == 0
    assert "3 orbit classes at level k=2" in out
    assert "type 0: rep (0,0) size 3" in out
    assert out.startswith("command: orbits\n")
    assert f"inputs: {path}" in out


def test_orbits_symbolic_structures(capsys):
    code, out, _ = run(capsys, "orbits", "dlo", "--k", "2")
    assert code == 0
    assert "3 patterns at level k=2 over dlo" in out

    code, out, _ = run(capsys, "orbits", "pureset", "--k", "3")
    assert code == 0
    assert "5 patterns at level k=3 over pureset" in out


def test_orbits_defaults_to_critical_level(capsys):
    code, out, _ = run(capsys, "orbits", "pureset")
    assert code == 0
    assert "1 patterns at level k=1" in out


def test_orbits_past_the_level_cap(capsys):
    code, out, err = run(capsys, "orbits", "dlo", "--k", "9")
    assert code == 3
    assert out == ""
    assert "cap exceeded" in err


# -- canonicity and type tables ---------------------------------------------


def test_canonical_reports_both_verdicts(files, capsys):
    path = files("mixed.ops", LEX_OPS + "op mn 2\nterm min(x1, x2)\n")
    code, out, _ = run(capsys, "canonical", path, "dlo")
    assert code == 1
    assert "lex: canonical at every level up to k=3" in out
    assert "mn: not canonical at k=2" in out


def test_canonical_all_good_exits_zero(files, capsys):
    code, out, _ = run(capsys, "canonical", files("lex.ops", LEX_OPS), "dlo")
    assert code == 0
    assert "canonical at every level" in out


@pytest.mark.parametrize("structure", ["dlo", "pureset"])
def test_canonical_answers_ternary_terms(files, capsys, structure):
    # every k up to 3 would enumerate 7,087,261 joint patterns, over
    # pattern_cap; pairs decide every level
    start = time.perf_counter()
    path = files("t.ops", "op t 3\nterm lex(x1, lex(x2, x3))\n")
    code, out, _ = run(capsys, "canonical", path, structure)
    assert code == 0
    assert "t: canonical at every level up to k=3" in out
    path = files("m3.ops", "op m3 3\nterm min(x1, x2, x3)\n")
    code, out, _ = run(capsys, "canonical", path, structure)
    assert code == 1
    assert "m3: not canonical at k=2" in out
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "command, ops, message",
    [
        # the canonicity grid of 1999^1000 points, refused by its exponent
        (
            "canonical",
            "op f 1000\nterm lex(x1, x1000)\n",
            "canonicity grid size needs 1999^1000, cap is 1000000",
        ),
        # 3^10000000000 type table rows: the power never finished
        (
            "type-image",
            "op f 10000000000\nterm x1\n",
            "type table size needs 3^10000000000, cap is 1000000",
        ),
    ],
    ids=["canonicity-grid", "type-table"],
)
def test_huge_sizes_are_refused_without_computing_them(files, capsys, command, ops, message):
    start = time.perf_counter()
    code, out, err = run(capsys, command, files("f.ops", ops), "dlo")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"cap exceeded: {message}\n"


HUGE_EQS = "sig f 2\neq f(x1,x10000000000) = x1\n"


@pytest.mark.parametrize(
    "command, ops, extra, base",
    [
        ("sat", MIN_OPS, [], 2),
        ("sat-mod", MIN_OPS, [], 2),
        # the type clone of lex over dlo has the 3 level-2 types as points
        ("lift", LEX_OPS, ["dlo", "--assign", "f=lex"], 3),
    ],
    ids=["sat", "sat-mod", "lift"],
)
def test_a_huge_variable_index_is_refused_without_its_row_space(
    files, capsys, command, ops, extra, base
):
    # x10000000000 makes the equations' row space base^10000000000; the
    # power itself ran until memory was exhausted
    eqs, ops = files("huge.eqs", HUGE_EQS), files("f.ops", ops)
    argv = [ops, eqs, *extra] if command == "lift" else [eqs, ops]
    start = time.perf_counter()
    code, out, err = run(capsys, command, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == (
        f"cap exceeded: equation row space needs {base}^10000000000, cap is 1000000\n"
    )


ONE_POINT_OPS = "op f 10000000000\ntable 0\n"
COMMUTATIVE_EQS = "sig f 2\neq f(x1,x2) = f(x2,x1)\n"


@pytest.mark.parametrize("command", ["canonical", "type-image", "proj-hom", "sat", "sat-mod"])
def test_a_one_point_table_of_huge_arity_is_refused(files, capsys, command):
    # one output fits every arity on one point; the selectors built each
    # row as a tuple of 10^10 points, and generation 10^10 columns, until
    # memory ran out
    ops = files("onepoint.ops", ONE_POINT_OPS)
    if command in ("canonical", "type-image"):
        argv = [ops, files("one.struct", "domain 1\n")]
    elif command == "proj-hom":
        argv = [ops]
    else:
        argv = [files("comm.eqs", COMMUTATIVE_EQS), ops]
    start = time.perf_counter()
    code, out, err = run(capsys, command, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "cap exceeded: argument tuple length needs 10000000000, cap is 1000000\n"


HUGE_TERM_OPS = "op f 10000000000\nterm x1\n"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("type-image", ["dlo", "--k", "1"]),
        ("analyze", ["pureset", "--arity-cap", "2", "--depth-cap", "1"]),
    ],
    ids=["type-image", "analyze"],
)
def test_an_order_term_of_huge_declared_arity_is_refused(files, capsys, command, extra):
    # level 1 has one type, so the type table has one row, whose argument
    # tuple has 10^10 entries: building it ran out of memory
    start = time.perf_counter()
    code, out, err = run(capsys, command, files("x1.ops", HUGE_TERM_OPS), *extra)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "cap exceeded: argument tuple length needs 10000000000, cap is 1000000\n"


def test_canonical_kmax_four_is_decided_on_pairs(files, capsys):
    # the same text the every-k check printed after a minute
    path = files("mixed.ops", LEX_OPS + "op mn 2\nterm min(x1, x2)\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "canonical", path, "dlo", "--kmax", "4")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == (
        "command: canonical\n"
        f"inputs: {path} dlo\n"
        "options: kmax=4\n"
        "\n"
        "lex: canonical at every level up to k=4\n"
        "mn: not canonical at k=2\n"
        "  args (4,0) (0,2) and (4,1) (0,2)\n"
        "  agree in type argument by argument; the images differ\n"
    )


@pytest.mark.parametrize("kmax", ["6", "7"])
def test_canonical_table_needs_no_enumeration(files, capsys, kmax):
    # sum mod 3 over the directed triangle: every move of one argument by
    # an automorphism is undone on the output, so no level is enumerated;
    # k = 7 would need 3^14 argument lists, over tuple_cap
    ops = files("add.ops", "op add 2\ntable 0 1 2 1 2 0 2 0 1\n")
    cycle = files("cycle3.struct", CYCLE3)
    start = time.perf_counter()
    code, out, _ = run(capsys, "canonical", ops, cycle, "--kmax", kmax)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert f"add: canonical at every level up to k={kmax}" in out


def test_non_canonical_table_on_a_nine_element_set(files, capsys):
    # Aut has 9! elements; generators and the witnesses are found without
    # listing them.  On the relation-free set two tuples share an orbit
    # iff they share an equality pattern, so the printed argument lists
    # are checked by their patterns and those of their images
    table = " ".join(str((a + b) % 9) for a in range(9) for b in range(9))
    ops = files("sum9.ops", f"op s 2\ntable {table}\n")
    nine = files("nine.struct", "domain 9\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "canonical", ops, nine, "--kmax", "2")
    assert time.perf_counter() - start < 2
    assert code == 1
    found = re.search(r"\ns: not canonical at k=2\n  args (.*) and (.*)\n", out)
    args_a, args_b = (
        [tuple(map(int, t.strip("()").split(","))) for t in side.split()]
        for side in found.groups()
    )
    equality = lambda t: pattern_of(PURE_SET, t)
    assert list(map(equality, args_a)) == list(map(equality, args_b))
    image_a, image_b = (
        tuple(sum(column) % 9 for column in zip(*args)) for args in (args_a, args_b)
    )
    assert len(image_a) == 2 and equality(image_a) != equality(image_b)


def test_type_image_rows(files, capsys):
    path = files("lex.ops", LEX_OPS)
    code, out, _ = run(capsys, "type-image", path, "dlo", "--k", "2")
    assert code == 0
    assert "type table of lex at k=2 (3 types):" in out
    assert "(x1 < x2, x2 < x1) -> x1 < x2" in out


def test_type_image_refuses_non_canonical(files, capsys):
    path = files("mn.ops", "op mn 2\nterm min(x1, x2)\n")
    code, out, _ = run(capsys, "type-image", path, "dlo")
    assert code == 1
    assert "mn: not canonical" in out


@pytest.mark.parametrize(
    "ops, structure, flags",
    [
        ("op mn 2\nterm min(x1, x2)\n", "pureset", []),
        ("op mn 2\nterm min(x1, x2)\n", "pureset", ["--k", "1"]),
        ("op mn 2\ntable 0 1 2 1 2 0 2 0 1\n", "domain 3\n", []),
    ],
    ids=["min-pureset", "min-pureset-k1", "sum-mod3-three-points"],
)
def test_type_image_refuses_what_canonical_refuses(
    files, capsys, ops, structure, flags
):
    # level 1 has a single type here, so a check at k = 1 alone lets
    # the operation through with a one-row table
    if structure != "pureset":
        structure = files("three.struct", structure)
    args = (files("mn.ops", ops), structure, *flags)
    code, out, _ = run(capsys, "type-image", *args)
    assert code == 1
    refusal = out.split("\n\n", 1)[1]
    assert refusal.startswith("mn: not canonical at k=2\n")
    code, out, _ = run(capsys, "canonical", *args[:2])
    assert code == 1
    assert out.split("\n\n", 1)[1] == refusal


def test_type_image_of_lex_over_the_pure_set(files, capsys):
    code, out, _ = run(capsys, "type-image", files("lex.ops", LEX_OPS), "pureset")
    assert code == 0
    assert out.endswith(
        "\ntype table of lex at k=1 (1 types):\n  (x1, x1) -> x1\n"
    )


# -- equation solving --------------------------------------------------------


def test_sat_finds_a_witness(files, capsys):
    code, out, _ = run(
        capsys, "sat", files("comm.eqs", COMM), files("min.ops", MIN_OPS)
    )
    assert code == 0
    assert "satisfiable: yes" in out
    assert "f := min(x1,x2)" in out
    assert "catalogs: 1:yes" in out


def test_sat_exhaustive_negative(files, capsys):
    contradictory = "sig f 2\neq f(x1,x2) = x1\neq f(x1,x2) = x2\n"
    code, out, _ = run(
        capsys, "sat", files("bad.eqs", contradictory), files("min.ops", MIN_OPS)
    )
    assert code == 1
    assert "satisfiable: no" in out
    assert "catalogs saturated" in out


def test_sat_undecided_when_catalogs_truncated(files, capsys):
    cyclic = "sig h 3\neq h(x1,x2,x3) = h(x2,x3,x1)\n"
    code, out, _ = run(
        capsys,
        "sat",
        files("cyc.eqs", cyclic),
        files("min.ops", MIN_OPS),
        "--arity-cap",
        "3",
        "--depth-cap",
        "1",
    )
    assert code == 3
    assert "undecided" in out
    assert "not saturated" in out


def test_sat_refuses_an_oversized_row_space(files, capsys):
    # 2**20 rows per side is over the default tuple cap of 1,000,000
    wide = "sig f 2\neq f(x1,x20) = f(x20,x1)\n"
    ors = "op g 2\ntable 0 1 1 1\n"
    start = time.perf_counter()
    code, out, err = run(capsys, "sat", files("wide.eqs", wide), files("or.ops", ors))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "cap exceeded: equation row space needs 1048576, cap is 1000000" in err


G3_OPS = "op g 2\ntable 1 2 0 2 0 1 0 1 2\n"
MAJORITY = "sig m 3\neq m(x1,x1,x2) = x1\neq m(x1,x2,x1) = x1\neq m(x2,x1,x1) = x1\n"


@pytest.mark.parametrize(
    "command, system, code, catalogs",
    [
        ("sat", COMM, 0, "1:yes 2:yes"),
        ("sat-mod", COMM, 0, "1:yes 2:yes"),
        ("sat", MAJORITY, 1, "1:yes 2:yes 3:yes"),
    ],
    ids=["sat", "sat-mod", "sat-majority"],
)
def test_sat_builds_catalogs_only_up_to_the_widest_symbol(
    files, capsys, command, system, code, catalogs
):
    # at the default caps this base-3 clone's catalogs of arities 4 to 6
    # take seconds to build, and no search for these systems reads them
    found, out, _ = run(capsys, command, files("s.eqs", system), files("g.ops", G3_OPS))
    assert found == code
    assert f"catalogs: {catalogs}" in out.splitlines()


def test_sat1_rejects_the_six_ary_system(files, capsys):
    code, out, _ = run(capsys, "sat1", files("siggers.eqs", SIGGERS))
    assert code == 1
    assert "unsatisfiable in projections, 6/6 assignments fail" in out
    assert out.count("fails s(") == 6


def test_sat1_finds_selectors(files, capsys):
    system = "sig f 3\nsig g 3\neq f(x1,x2,x3) = g(x2,x1,x3)\n"
    code, out, _ = run(capsys, "sat1", files("perm.eqs", system))
    assert code == 0
    assert "satisfiable in projections: f->1 g->2" in out


def test_sat_mod_with_identity_family(files, capsys):
    code, out, _ = run(
        capsys, "sat-mod", files("comm.eqs", COMM), files("min.ops", MIN_OPS)
    )
    assert code == 0
    assert "outside family: id" in out
    assert "equation 0: left side under id, right side under id" in out


def test_sat_mod_with_a_unary_family(files, capsys):
    family = files("swap.ops", "op swap 1\ntable 1 0\n")
    code, out, _ = run(
        capsys, "sat-mod", files("comm.eqs", COMM), files("min.ops", MIN_OPS), "--family", family
    )
    assert code == 0
    assert f"options: family={family}" in out.splitlines()
    assert "outside family: id swap" in out.splitlines()
    assert "satisfiable modulo the family (3 combinations)" in out
    assert "  f := min(x1,x2)" in out.splitlines()


def test_sat_mod_family_base_mismatch(files, capsys):
    family = "op u 1\ntable 2 0 1\n"
    code, out, err = run(
        capsys,
        "sat-mod",
        files("comm.eqs", COMM),
        files("min.ops", MIN_OPS),
        "--family",
        files("u3.ops", family),
    )
    assert code == 2
    assert "base size" in err


# -- projection readings ------------------------------------------------------


def test_proj_hom_refutes_min(files, capsys):
    code, out, _ = run(capsys, "proj-hom", files("min.ops", MIN_OPS))
    assert code == 1
    assert "projection reading: refuted" in out
    assert "min(x1,x2) = min(x2,x1)" in out
    assert "every one of 2 selector assignments fails a witness" in out


def test_proj_hom_accepts_a_permutation(files, capsys):
    swap = "op swap 1\ntable 1 0\n"
    code, out, _ = run(capsys, "proj-hom", files("swap.ops", swap), *SMALL)
    assert code == 0
    assert "projection reading: found" in out
    assert "assignment: swap->1" in out


# -- lift ---------------------------------------------------------------------


def test_lift_associativity_over_the_order(files, capsys):
    code, out, _ = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("assoc.eqs", ASSOC),
        "dlo",
        "--assign",
        "f=lex",
        "--depth",
        "4",
        *SMALL,
    )
    assert code == 0
    assert "order term for f: lex(x1, x2)" in out
    assert "stage 4: points {0,1,2,3,4}, 125 columns" in out
    assert "pattern (0, 1, 2, 3) on tail [1,2,3,4] across 5 stages" in out


@pytest.mark.parametrize("system", [TRIVIAL, ASSOC], ids=["trivial", "assoc"])
def test_lift_over_the_pure_set_reports_accumulation_as_undefined(
    files, capsys, system
):
    code, out, _ = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("system.eqs", system),
        "pureset",
        "--assign",
        "f=lex",
        *SMALL,
    )
    assert code == 0
    assert "stage 3: points {0,1,2,3}" in out
    assert out.endswith("accumulation: not defined for point injections\n")


@pytest.mark.parametrize(
    "assigns, message",
    [
        (["f=lex", "f=rev"], "--assign names symbol 'f' twice"),
        (["f=rev", "typo=lex"], "'typo', not a symbol of the system"),
    ],
    ids=["twice", "stray"],
)
def test_lift_refuses_an_assignment_it_would_ignore(files, capsys, assigns, message):
    ops = files("lex.ops", LEX_OPS + "op rev 2\nterm lex(x2, x1)\n")
    flags = [flag for a in assigns for flag in ("--assign", a)]
    code, out, err = run(
        capsys, "lift", ops, files("assoc.eqs", ASSOC), "dlo", *flags, *SMALL
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_lift_at_the_default_caps_finishes_with_the_narrow_body(files, capsys):
    # the binary symbol reads only the arity-2 catalog, so no wider one
    # is built under the default arity cap of 6
    argv = [
        "lift",
        files("lex.ops", LEX_OPS),
        files("assoc.eqs", ASSOC),
        "dlo",
        "--assign",
        "f=lex",
        "--depth",
        "3",
    ]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    narrow_code, narrow, _ = run(capsys, *argv, "--arity-cap", "2")
    assert code == narrow_code == 0
    assert "caps: arity<=6 " in out
    assert out.split("\n\n", 1)[1] == narrow.split("\n\n", 1)[1]
    assert "stage 3: points {0,1,2,3}, 64 columns" in out


def test_lift_reads_a_generator_past_the_arity_cap_as_itself(files, capsys):
    # no binary catalog is built at --arity-cap 1; f is read as lex(x1,x2)
    code, out, err = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("assoc.eqs", ASSOC),
        "dlo",
        "--assign",
        "f=lex",
        "--arity-cap",
        "1",
        "--depth",
        "2",
    )
    assert (code, err) == (0, "")
    assert "order term for f: lex(x1, x2)" in out
    assert "stage 2: points {0,1,2}, 27 columns, 1 equation(s) equalized exactly" in out


def test_lift_unsatisfiable_assignment(files, capsys):
    code, out, _ = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("comm.eqs", COMM),
        "dlo",
        "--assign",
        "f=lex",
        *SMALL,
    )
    assert code == 1
    assert "no assignment to lift" in out


def test_lift_reports_a_failed_stage_once(files, capsys):
    # over pureset lex is read as x1, which no injections equalize with x2
    code, out, _ = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("proj.eqs", "sig f 2\neq f(x1,x2) = x2\n"),
        "pureset",
        "--assign",
        "f=lex",
        *SMALL,
    )
    assert code == 1
    assert out.endswith(
        "\norder term for f: x1\nlift failed: stage 1: sides of f(x1,x2) = x2 "
        "equate columns 0 and 1 differently; no injections can equalize them\n"
    )


def test_lift_refuses_an_oversized_row_space_for_a_forced_assignment(files, capsys):
    # 3**13 rows per side over the three level-2 types of dlo
    wide = "sig f 2\neq f(x1,x13) = f(x13,x1)\n"
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("wide.eqs", wide),
        "dlo",
        "--assign",
        "f=lex",
        *SMALL,
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "cap exceeded: equation row space needs 1594323, cap is 1000000" in err


def test_lift_needs_a_symbolic_structure(files, capsys):
    code, _, err = run(
        capsys,
        "lift",
        files("lex.ops", LEX_OPS),
        files("assoc.eqs", ASSOC),
        files("cycle3.struct", CYCLE3),
    )
    assert code == 2
    assert "dlo/pureset" in err


LEX_MIN_OPS = LEX_OPS + "op mn 2\nterm min(x1, x2)\n"


def refuses_as_type_image_does(capsys, ops, code, out, err):
    # a non-canonical generator is a negative answer, exit 1, printed as
    # `type-image` prints it, not an error about the input
    assert (code, err) == (1, "")
    body = out.split("\n\n", 1)[1]
    assert body.startswith("mn: not canonical at k=2\n")
    _, image, _ = run(capsys, "type-image", ops, "dlo")
    assert image.endswith("\n" + body)


def test_lift_answers_a_non_canonical_generator(files, capsys):
    ops = files("two.ops", LEX_MIN_OPS)
    code, out, err = run(capsys, "lift", ops, files("assoc.eqs", ASSOC), "dlo", *SMALL)
    refuses_as_type_image_does(capsys, ops, code, out, err)


# -- analyze -------------------------------------------------------------------


def test_analyze_lex_over_the_order(files, capsys):
    code, out, _ = run(capsys, "analyze", files("lex.ops", LEX_OPS), "dlo", *SMALL)
    assert code == 0
    assert "projection reading: found" in out
    assert "assignment: lex->1" in out


def test_analyze_lex_over_the_pure_set(files, capsys):
    code, out, _ = run(capsys, "analyze", files("lex.ops", LEX_OPS), "pureset", *SMALL)
    assert code == 1
    assert "projection reading: refuted" in out
    assert out.endswith(
        "lift failed: stage 1: sides of x1 = x2 equate columns 0 and 1 "
        "differently; no injections can equalize them\n"
    )


def test_analyze_notes_a_reading_its_catalogs_did_not_exhaust(files, capsys):
    code, out, _ = run(capsys, "analyze", files("lex.ops", LEX_OPS), "dlo", *SMALL)
    assert code == 0
    assert "catalogs: 1:yes 2:yes 3:no\n" in out
    assert out.endswith(
        "projection reading: found\n  assignment: lex->1\n"
        "  note: catalogs not saturated; deeper compositions "
        "could still add obstructions\n"
    )


def test_analyze_says_why_a_reading_is_undecided(files, capsys):
    code, out, _ = run(
        capsys, "analyze", files("lex.ops", LEX_OPS), "dlo", "--arity-cap", "1"
    )
    assert code == 3
    assert out.endswith(
        "projection reading: undecided\n"
        "  a generator's arity exceeds the cap; nothing was observed\n"
    )


@pytest.mark.parametrize("structure", ["dlo", "pureset"])
def test_analyze_reads_its_type_tables_as_proj_hom_does(files, capsys, structure):
    # the type tables, written to a table file, give proj-hom the same
    # clone; both commands print its catalogs and reading alike
    caps = Caps(arity_cap=3, depth_cap=2)
    op = Operation("lex", 2, Lex(Coord(1), Coord(2)))
    xi = xi_infty([op], {"dlo": DLO, "pureset": PURE_SET}[structure], caps)
    tables = "".join(
        f"op {name} {t.arity}\ntable {' '.join(map(str, t.outputs))}\n"
        for name, t in xi.named_tables()
    )
    code, out, _ = run(capsys, "analyze", files("lex.ops", LEX_OPS), structure, *SMALL)
    hom_code, hom, _ = run(capsys, "proj-hom", files("types.ops", tables), *SMALL)
    assert code == hom_code
    reading = hom.split("\n\n", 1)[1].splitlines()[1:]
    assert reading[0].startswith("catalogs: ")
    lines = out.splitlines()
    start = lines.index(reading[0])
    assert lines[start : start + len(reading)] == reading
    rest = lines[start + len(reading) :]
    assert all(line.startswith(("stage ", "accumulation: ", "lift failed: ")) for line in rest)


def test_analyze_answers_a_non_canonical_generator(files, capsys):
    ops = files("two.ops", LEX_MIN_OPS)
    code, out, err = run(capsys, "analyze", ops, "dlo", *SMALL)
    refuses_as_type_image_does(capsys, ops, code, out, err)


def test_analyze_lifts_at_a_small_catalog_cap(files, capsys):
    ops = files("two.ops", LEX_OPS + "op u 1\nterm x1\n")
    code, out, _ = run(capsys, "analyze", ops, "pureset", *SMALL, "--catalog-cap", "1")
    assert code == 1
    assert "lift failed: stage 1" in out
    assert "not satisfied" not in out


# -- qdemo ---------------------------------------------------------------------


def test_qdemo_report(capsys):
    code, out, _ = run(capsys, "qdemo", "--n", "2", "--samples", "5")
    assert code == 0
    assert "restriction of 5 points" in out
    assert "extension with eventual coordinate 1" in out
    assert "extension with eventual coordinate 2" in out
    assert "no finite restriction determines the eventual coordinate" in out


def test_qdemo_is_deterministic_per_seed(capsys):
    argv = ("qdemo", "--n", "3", "--samples", "4", "--seed", "9")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second

    _, other, _ = run(capsys, "qdemo", "--n", "3", "--samples", "4", "--seed", "10")
    assert other != first


def test_qdemo_accepts_an_empty_restriction(capsys):
    code, out, _ = run(capsys, "qdemo", "--samples", "0")
    assert code == 0
    assert "restriction of 0 points" in out


def test_qdemo_refuses_an_oversized_consistency_check_up_front(capsys):
    # 16641 samples is the most the sampler can draw at n = 2, but
    # checking all their pairs would take minutes; 1415 samples is the
    # least count with more than the 1,000,000 pairs of the tuple cap
    for samples, pairs in (("16641", 138453120), ("1415", 1000405)):
        start = time.perf_counter()
        code, out, err = run(capsys, "qdemo", "--n", "2", "--samples", samples)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert f"consistency pairs needs {pairs}, cap is 1000000" in err


# -- plumbing --------------------------------------------------------------------


def test_out_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "orbits", "dlo", "--k", "3", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_usage_errors_exit_two(files, capsys):
    assert run(capsys, "orbits", "dlo", "--k", "0")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "sat1", "/nowhere/missing.eqs")[0] == 2
    mins = files("min.ops", MIN_OPS)
    assert run(capsys, "proj-hom", mins)[0] == 1
    assert run(capsys, "proj-hom", mins, "--arity-cap", "-3")[0] == 2
    assert run(capsys, "orbits", files("sup.struct", "domain ²\n"))[0] == 2
    assert run(capsys, "sat1", files("sup.eqs", "sig f ²\n"))[0] == 2
    assert run(capsys, "sat1", files("var.eqs", "sig f 2\neq f(x1,x²) = x1\n"))[0] == 2
    assert run(capsys, "orbits", "dlo", "--k", "١")[0] == 2
    assert run(capsys, "qdemo", "--samples", "٣")[0] == 2
    assert run(capsys, "qdemo", "--samples", "1", "--seed", "-10")[0] == 0
    assert run(capsys, "qdemo", "--samples", "1", "--seed", "1_0")[0] == 2
    named_id = files("id.ops", "op id 1\ntable 1 0\n")
    comm = files("comm.eqs", COMM)
    assert run(capsys, "sat-mod", comm, mins, "--family", named_id)[0] == 2
    # a term of any depth parses and checks without recursion
    nested = "f(" * 1200 + "x1" + ")" * 1200
    deep_eqs = files("deep.eqs", f"sig f 1\neq {nested} = x1\n")
    code, out, _ = run(capsys, "sat1", deep_eqs)
    assert code == 0
    assert out.endswith("\nsatisfiable in projections: f->1\n")
    nested = "lex(x1, " * 1200 + "x1" + ")" * 1200
    deep = files("deep.ops", f"op f 2\nterm {nested}\n")
    assert run(capsys, "canonical", deep, "dlo")[0] == 2
    assert run(capsys, "qdemo", "--n", "2", "--samples", "16642")[0] == 2


def test_a_deep_system_is_checked_in_a_clone_without_recursion(files, capsys):
    # the 1,200-deep system `sat1` answers: the clone searches evaluate
    # each side in one loop over its symbols, not one call per level
    nested = "f(" * 1200 + "x1" + ")" * 1200
    deep_eqs = files("deep.eqs", f"sig f 1\neq {nested} = x1\n")
    perm = files("perm.ops", "op p 1\ntable 1 0\n")
    code, out, _ = run(capsys, "sat", deep_eqs, perm)
    assert code == 0
    assert out.endswith("\nsatisfiable: yes (1 assignments examined)\n  f := x1\n")
    code, out, _ = run(capsys, "sat-mod", deep_eqs, perm)
    assert code == 0
    assert "\nsatisfiable modulo the family (1 combinations)\n  f := x1\n" in out


def test_a_symbol_name_reads_back_in_a_term(files, capsys):
    # a declared name that is a variable, or not one word, could not be
    # read back from a witness that names it
    for name in ("x2", "f("):
        eqs = files("named.eqs", f"# a name\nsig {name} 2\neq f(x1,x2) = x1\n")
        ops = files("named.ops", f"\nop {name} 2\ntable 0 1 1 0\n")
        for command, path in (("sat1", eqs), ("proj-hom", ops)):
            assert run(capsys, command, path) == (
                2,
                "",
                f"error: line 2: expected a symbol name (a word that is not x<n>), "
                f"got {name!r}\n",
            )


def test_a_deep_lex_chain_is_decided(files, capsys):
    # the values of a 400-deep lex are nested keys, compared natively
    nested = "lex(x1, " * 400 + "x1" + ")" * 400
    deep = files("deep.ops", f"op f 2\nterm {nested}\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "canonical", deep, "dlo")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "f: canonical at every level" in out


def test_structure_too_large_to_search_is_not_blamed_on_a_term(files, capsys):
    # the automorphism search recurses once per element
    code, out, err = run(capsys, "orbits", files("big.struct", "domain 1500\n"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too deep")
    assert "a structure with too many elements" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_report_embeds_configuration(files, capsys):
    # the header echoes the settings its command reads, and no others
    mins = files("min.ops", MIN_OPS)
    _, out, _ = run(capsys, "proj-hom", mins, "--arity-cap", "4")
    assert out.splitlines()[:4] == [
        "command: proj-hom",
        f"inputs: {mins}",
        "caps: arity<=4 depth<=4 catalog<=100000",
        "",
    ]
    _, out, _ = run(capsys, "qdemo", "--samples", "1", "--seed", "5")
    assert out.splitlines()[:4] == [
        "command: qdemo",
        "options: samples=1",
        "seed: 5",
        "",
    ]
    _, out, _ = run(capsys, "orbits", "dlo", "--k", "2")
    assert out.splitlines()[:4] == ["command: orbits", "inputs: dlo", "options: k=2", ""]


CLONE_BUILDERS = {"sat", "sat-mod", "proj-hom", "lift", "analyze"}


def _valid_runs(files):
    """One quick invocation of each subcommand that exits other than 2."""
    lex, assoc = files("lex.ops", LEX_OPS), files("assoc.eqs", ASSOC)
    comm, mins = files("comm.eqs", COMM), files("min.ops", MIN_OPS)
    return {
        "orbits": ["orbits", "dlo", "--k", "1"],
        "canonical": ["canonical", lex, "dlo"],
        "type-image": ["type-image", lex, "dlo"],
        "sat": ["sat", comm, mins],
        "sat1": ["sat1", assoc],
        "sat-mod": ["sat-mod", comm, mins],
        "proj-hom": ["proj-hom", mins],
        "lift": ["lift", lex, assoc, "dlo", "--depth", "1"],
        "analyze": ["analyze", lex, "pureset", *SMALL, "--depth", "1"],
        "qdemo": ["qdemo", "--samples", "1"],
    }


@pytest.mark.parametrize("flag", ["--arity-cap", "--depth-cap", "--catalog-cap", "--seed"])
def test_a_flag_is_refused_where_nothing_reads_it(files, capsys, flag):
    # the caps change only what the clone-building commands build, and
    # the seed only what qdemo draws; elsewhere a flag is a usage error
    takes = {"qdemo"} if flag == "--seed" else CLONE_BUILDERS
    for command, argv in _valid_runs(files).items():
        assert run(capsys, *argv)[0] != 2, command
        code, out, _ = run(capsys, *argv, flag, "2")
        assert (code == 2) == (command not in takes), command
        if command not in takes:
            assert out == ""


def test_only_the_documented_literals_name_symbolic_structures(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pure-set").write_text("domain 2\n")
    code, out, _ = run(capsys, "orbits", "pure-set", "--k", "1")
    assert code == 0
    assert "1 orbit classes at level k=1" in out
    for token in ("DLO", "pure_set", "Pure_Set"):
        code, out, err = run(capsys, "orbits", token)
        assert (code, out) == (2, "")
        assert f"No such file or directory: '{token}'" in err


# -- operation files ---------------------------------------------------------------


def test_parse_operations_table_and_term():
    ops = parse_operations("op f 2\ntable 0 0 0 1\nop g 2\nterm lex(x1, x2)\n")
    assert ops[0] == Operation("f", 2, Table(2, 2, (0, 0, 0, 1)))
    assert ops[1] == Operation("g", 2, Lex(Coord(1), Coord(2)))


def test_parse_operations_table_rows_may_wrap():
    text = "op maj 3\ntable 0 0 0 1\n0 1 1 1\n"
    (op,) = parse_operations(text)
    assert op.body == Table(2, 3, (0, 0, 0, 1, 0, 1, 1, 1))


def test_parse_operations_comments_and_blanks():
    text = "# binary min\nop f 2\n\ntable 0 0 0 1  # row-major\n"
    (op,) = parse_operations(text)
    assert op.body.outputs == (0, 0, 0, 1)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("op f 2\ntable 0 0 0\n", "not a power"),
        ("op f 2\ntable 0 0 0 2\n", "maps into 0..1"),
        ("op f 2\ntable 0 0 0 x\n", "expected an integer"),
        ("op f 2\n", "has no body"),
        ("op f 2\nterm lex(x1, x2)\nop f 2\nterm lex(x1, x2)\n", "duplicate"),
        ("op f 1\nterm lex(x1, x2)\n", "term uses x2"),
        ("table 0 1\n", "needs a fresh `op` block"),
        ("frob 0 1\n", "unknown directive"),
        ("op f 0\nterm x1\n", "op <name> <arity>"),
        ("op f ²\nterm x1\n", "line 1: expected `op <name> <arity>`"),
        ("op f 2\ntable 0 1_0 0 1\n", "line 2: expected an integer"),
        ("op f 2\ntable 0 0\n0 ١\n", "line 3: expected an integer"),
        ("op f 1\nterm x١\n", "line 2: expected a variable index"),
        ("", "no operations"),
    ],
)
def test_parse_operations_rejects(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_operations(text)
    assert fragment in str(info.value)


def test_a_table_arity_past_its_outputs_is_refused_without_a_power(files, capsys):
    # four outputs fit no arity of 3 or more, so no size is searched
    text = "op f 10000000000\ntable 0 0 0 1\n"
    with pytest.raises(ParseError, match="line 1: .* not a power with exponent"):
        parse_operations(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "proj-hom", files("huge.ops", text))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "has 4 outputs, not a power with exponent 10000000000" in err
