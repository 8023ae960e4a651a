import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from clonelab.config import Caps
from clonelab.equations import (
    parse_equation_system,
    satisfiable_in_clone,
    satisfiable_modulo_outside,
)
from clonelab.errors import CapExceeded, InconsistentData
from clonelab.clones import (
    CatalogEntry,
    Table,
    generate,
    selector,
)
from clonelab.terms import App, Var

from table_oracle import eval_term_table, reference_generate


def term_depth(term):
    return 0 if isinstance(term, Var) else 1 + max(map(term_depth, term.args))


def table_from(fn, size, arity):
    outputs = tuple(
        fn(*args) for args in itertools.product(range(size), repeat=arity)
    )
    return Table(size, arity, outputs)


MIN2 = table_from(min, 2, 2)
MAX2 = table_from(max, 2, 2)


def test_selector_laws():
    for size, arity in itertools.product((1, 2, 3), (1, 2, 3)):
        for i in range(1, arity + 1):
            sel = selector(size, arity, i)
            for args in itertools.product(range(size), repeat=arity):
                assert sel.apply(args) == args[i - 1]


def test_compose_matches_pointwise_definition():
    for args in itertools.product(range(2), repeat=2):
        composed = MIN2.compose([MAX2, selector(2, 2, 1)])
        assert composed.apply(args) == min(max(*args), args[0])


def test_compose_validates_arities():
    with pytest.raises(InconsistentData):
        MIN2.compose([MIN2])
    with pytest.raises(InconsistentData):
        MIN2.compose([MIN2, selector(3, 2, 1)])


@given(st.integers(0, 2 ** 8 - 1), st.integers(1, 2))
def test_selector_composition_identity(bits, i):
    # f composed with selectors is f itself, for arbitrary binary f on {0,1}
    outputs = tuple((bits >> k) & 1 for k in range(4))
    f = Table(2, 2, outputs)
    sels = [selector(2, 2, 1), selector(2, 2, 2)]
    assert f.compose(sels) == f
    # and a selector composed with tables picks the right one
    assert selector(2, 2, i).compose([f, MAX2]) == (f if i == 1 else MAX2)


def test_min_clone_binary_catalog():
    clone = generate([("min", MIN2)], 2, Caps(arity_cap=3, depth_cap=3))
    tables = [e.table for e in clone.catalog(2)]
    assert len(tables) == 3  # two selectors and min itself
    assert selector(2, 2, 1) in tables
    assert selector(2, 2, 2) in tables
    assert MIN2 in tables
    assert clone.saturated[2]


def test_min_clone_at_arity_6_is_subset_lattice():
    clone = generate([("min", MIN2)], 2, Caps(arity_cap=6, depth_cap=6))
    # terms are exactly "min over a nonempty subset of coordinates"
    assert len(clone.catalog(6)) == 2**6 - 1 + 6 - 6  # 63 tables, selectors included
    assert clone.saturated[6]


def test_witnesses_reevaluate_to_their_tables():
    clone = generate([("min", MIN2), ("max", MAX2)], 2, Caps(arity_cap=3, depth_cap=2))
    assignment = {"min": MIN2, "max": MAX2}
    for arity, entries in clone.catalogs.items():
        for entry in entries:
            assert eval_term_table(entry.term, assignment, arity, 2) == entry.table
            assert term_depth(entry.term) == entry.depth


def test_collisions_are_true_equations():
    clone = generate([("min", MIN2)], 2, Caps(arity_cap=2, depth_cap=3))
    assignment = {"min": MIN2}
    seen = 0
    for arity, pairs in clone.collisions.items():
        for left, right in pairs:
            seen += 1
            assert eval_term_table(left, assignment, arity, 2) == \
                eval_term_table(right, assignment, arity, 2)
    assert seen > 0
    # the symmetry collision is among them
    sym = (App("min", (Var(1), Var(2))), App("min", (Var(2), Var(1))))
    assert sym in clone.collisions[2] or (sym[1], sym[0]) in clone.collisions[2]


def test_catalog_deterministic_and_monotone_in_caps():
    small = generate([("min", MIN2), ("max", MAX2)], 2, Caps(arity_cap=2, depth_cap=1))
    big = generate([("min", MIN2), ("max", MAX2)], 2, Caps(arity_cap=3, depth_cap=3))
    again = generate([("min", MIN2), ("max", MAX2)], 2, Caps(arity_cap=2, depth_cap=1))
    assert small.catalogs == again.catalogs
    for arity, entries in small.catalogs.items():
        prefix = big.catalogs[arity][: len(entries)]
        assert prefix == entries  # bigger caps extend, never reorder


def test_catalog_cap_clears_saturation():
    clone = generate([("min", MIN2), ("max", MAX2)], 2, Caps(arity_cap=3, depth_cap=4, catalog_cap=4))
    assert not clone.saturated[3]
    assert len(clone.catalog(3)) == 4


def test_lookup_by_table(monkeypatch):
    clone = generate([("min", MIN2)], 2, Caps(arity_cap=2, depth_cap=2))
    built = []
    init = CatalogEntry.__init__

    def counted_entry(entry, *args):
        built.append(args)
        init(entry, *args)

    monkeypatch.setattr(CatalogEntry, "__init__", counted_entry)
    entry = clone.lookup_by_table(MIN2)
    assert entry is not None and entry.term == App("min", (Var(1), Var(2)))
    assert len(built) == 1  # the entry returned, and no other
    assert clone.lookup_by_table(MAX2) is None
    # tables of another size: outputs of another length, or past one byte
    assert clone.lookup_by_table(table_from(min, 3, 2)) is None
    assert clone.lookup_by_table(Table(257, 1, tuple(range(257)))) is None
    assert len(built) == 1
    # tuple keys over 256 points
    shift = Table(257, 1, tuple((v + 1) % 257 for v in range(257)))
    wide = generate([("s", shift)], 257, Caps(arity_cap=1, depth_cap=1))
    assert wide.lookup_by_table(shift).term == App("s", (Var(1),))
    assert wide.lookup_by_table(Table(257, 1, tuple(range(257)))).term == Var(1)
    with pytest.raises(CapExceeded) as err:
        clone.catalog(5)
    assert str(err.value) == "no catalog for arity 5 (cap 2)"
    assert (err.value.what, err.value.needed, err.value.cap) == ("catalog arity", 5, 2)


def test_one_element_base_identifies_selectors():
    clone = generate([], 1, Caps(arity_cap=3, depth_cap=1))
    assert len(clone.catalog(3)) == 1
    assert clone.catalog(3)[0].term == Var(1)
    assert (Var(1), Var(2)) in clone.collisions[2]
    assert (Var(1), Var(3)) in clone.collisions[3]



def assert_same_clone(clone, reference):
    assert clone.catalogs == reference.catalogs  # tables, terms and depths
    assert clone.collisions == reference.collisions  # in order
    assert clone.saturated == reference.saturated


def assert_reads_as_the_tuple(catalog, entries):
    # a catalog keeps keys, terms and depths; read back, it is the tuple
    # of entries the oracle built, by length, index, slice and iteration
    assert type(entries) is tuple
    assert len(catalog) == len(entries)
    assert list(catalog) == list(entries)
    for i in (0, len(entries) - 1, -1, -len(entries)):
        assert catalog[i] == entries[i]
    with pytest.raises(IndexError):
        catalog[len(entries)]
    with pytest.raises(IndexError):
        catalog[-len(entries) - 1]
    for window in (slice(None), slice(1, None), slice(None, -1), slice(-3, None), slice(None, None, 2)):
        assert type(catalog[window]) is tuple
        assert catalog[window] == entries[window]
    assert catalog[:10] + catalog[-10:] == entries[:10] + entries[-10:]
    assert catalog == entries and entries == catalog
    assert catalog != entries[:-1] and catalog != list(entries)


def random_table(rng, size, arity):
    return Table(size, arity, tuple(rng.randrange(size) for _ in range(size**arity)))


def random_clones():
    """(generators, base, caps) on bases 1-3, some catalogs cut at the
    catalog cap."""
    rng = random.Random(20261019)
    for _ in range(60):
        base = rng.choice([1, 2, 3])
        arities = rng.choice([(1,), (2,), (3,), (1, 2), (2, 2), (1, 3)])
        generators = [(f"g{i}", random_table(rng, base, k)) for i, k in enumerate(arities)]
        caps = Caps(arity_cap=3, depth_cap=2, catalog_cap=rng.choice([5, 40, 1000]))
        yield generators, base, caps
    # the cap three entries past the depth-1 catalog: depth 2 composes a
    # whole row of last arguments per prefix, and the cut falls inside it
    generators = [("f", random_table(rng, 3, 2)), ("g", random_table(rng, 3, 2))]
    first = generate(generators, 3, Caps(arity_cap=2, depth_cap=1))
    yield generators, 3, Caps(arity_cap=2, depth_cap=2, catalog_cap=len(first.catalog(2)) + 3)


def wide_clones():
    """(generators, base, caps) with generators too wide to pack."""
    # a ternary table on 7 points has 343 entries, over one byte of index
    rng = random.Random(7)
    wide = ("t", random_table(rng, 7, 3))
    binary = ("b", random_table(rng, 7, 2))
    yield [wide], 7, Caps(arity_cap=2, depth_cap=2)
    yield [binary, wide], 7, Caps(arity_cap=3, depth_cap=2, catalog_cap=150)
    yield [wide, binary], 7, Caps(arity_cap=2, depth_cap=3, catalog_cap=300)
    # outputs past one byte: a base over 256 points
    shift = ("s", Table(257, 1, tuple((v + 1) % 257 for v in range(257))))
    yield [shift], 257, Caps(arity_cap=1, depth_cap=3)


def test_generation_matches_the_tuple_oracle():
    capped = 0
    for generators, base, caps in random_clones():
        clone = generate(generators, base, caps)
        reference = reference_generate(generators, base, caps)
        assert_same_clone(clone, reference)
        for arity, catalog in clone.catalogs.items():
            assert_reads_as_the_tuple(catalog, reference.catalogs[arity])
        capped += any(len(c) == caps.catalog_cap for c in clone.catalogs.values())
    assert capped > 0  # some catalogs were cut at the catalog cap


def test_the_catalog_cap_cuts_inside_a_composed_row():
    *_, (generators, base, caps) = random_clones()
    first = generate(generators, base, Caps(arity_cap=2, depth_cap=1)).catalog(2)
    clone = generate(generators, base, caps)
    assert_same_clone(clone, reference_generate(generators, base, caps))
    # cut at the cap, three entries into depth 2, one prefix's row of
    # compositions short of its end
    catalog = clone.catalog(2)
    assert len(catalog) == len(first) + 3 == caps.catalog_cap
    assert [e.depth for e in catalog[-4:]] == [1, 2, 2, 2]
    assert not clone.saturated[2]
    # the last entry's last argument is not the round's last entry, so
    # its prefix's row went on past the cut
    last = [e.term for e in first].index(catalog[-1].term.args[-1])
    assert last < len(first) - 1


def test_generators_too_wide_to_pack_match_the_tuple_oracle():
    for generators, base, caps in wide_clones():
        clone = generate(generators, base, caps)
        reference = reference_generate(generators, base, caps)
        assert_same_clone(clone, reference)
        # the gather path on 7 points, and tuple keys on 257
        for arity, catalog in clone.catalogs.items():
            assert_reads_as_the_tuple(catalog, reference.catalogs[arity])


def test_every_catalog_table_is_a_valid_table():
    # generation builds catalog tables without `Table`'s checks; each must
    # pass them, and equal the table the checked constructor builds
    for generators, base, caps in [*random_clones(), *wide_clones()]:
        clone = generate(generators, base, caps)
        for arity, entries in clone.catalogs.items():
            for entry in entries:
                table = entry.table
                assert (table.size, table.arity) == (base, arity)
                assert type(table.outputs) is tuple
                assert Table(table.size, table.arity, table.outputs) == table


def test_generation_checks_no_catalog_entry(monkeypatch):
    # a count, not a timing: `Table`'s checks run on the selectors alone,
    # never once per catalog entry; and generation builds no entry at all,
    # a search that misses none, and a hit one per symbol
    rng = random.Random(3)
    generators = [("f", random_table(rng, 3, 2)), ("g", random_table(rng, 3, 2))]
    caps = Caps(arity_cap=3, depth_cap=2)
    selectors = [selector(3, a, i) for a in (1, 2, 3) for i in range(1, a + 1)]
    checked, built = [], []
    post_init, init = Table.__post_init__, CatalogEntry.__init__

    def counted(table):
        checked.append(table)
        post_init(table)

    def counted_entry(entry, *args):
        built.append(args)
        init(entry, *args)

    monkeypatch.setattr(Table, "__post_init__", counted)
    monkeypatch.setattr(CatalogEntry, "__init__", counted_entry)
    clone = generate(generators, 3, caps)
    assert checked == selectors
    assert sum(map(len, clone.catalogs.values())) > 100
    assert built == []
    # `x1 = x2` rules out nothing in bulk, so the loop reads every pair
    miss = parse_equation_system("sig f 3\nsig g 2\neq f(x1,x2,x1) = g(x2,x1)\neq x1 = x2\n")
    report = satisfiable_in_clone(miss, clone)
    assert not report.found and report.checked == len(clone.catalog(3)) * len(clone.catalog(2))
    outside = [("id", Table(3, 1, (0, 1, 2))), ("swap", Table(3, 1, (1, 0, 2)))]
    assert not satisfiable_modulo_outside(miss, clone, outside).found
    assert built == []
    hit = parse_equation_system("sig f 3\nsig g 2\neq f(x1,x2,x1) = g(x2,x1)\n")
    report = satisfiable_in_clone(hit, clone)
    assert report.found and report.checked > 1
    assert built == [(e.table, e.term, e.depth) for _, e in report.assignment]
    assert len(built) == 2


def test_a_huge_arity_is_refused_without_computing_the_power():
    # 3^10000000 has millions of digits: computing and printing it took
    # seconds and ended in a ValueError
    start = time.perf_counter()
    with pytest.raises(InconsistentData, match=r"table needs 3\^10000000 outputs, got 3"):
        Table(3, 10**7, (0, 1, 2))
    assert time.perf_counter() - start < 1


def test_a_huge_size_is_refused_by_its_bit_length():
    # printing 10^5000 exceeds the integer-to-string digit limit, which
    # raised a ValueError instead of InconsistentData
    with pytest.raises(InconsistentData, match="table needs more than 1 outputs: its size has 16610 bits"):
        Table(10**5000, 1, (0,))
    with pytest.raises(InconsistentData, match="table needs more than 3 outputs: its size has 16610 bits"):
        Table(10**5000, 10**7, (0, 1, 2))
    with pytest.raises(InconsistentData, match="table needs 9 outputs, got 8"):
        Table(3, 2, (0,) * 8)
