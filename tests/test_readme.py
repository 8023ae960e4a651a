"""The file formats the README documents are the ones the parsers read,
and every parser refuses a mangled example with a `ClonelabError`."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clonelab import (
    ClonelabError,
    parse_equation_system,
    parse_member,
    parse_order_term,
    parse_plmap,
    parse_structure,
    serialize_member,
)
from clonelab.cli import parse_operations

README = Path(__file__).resolve().parent.parent / "README.md"


def example(format_name: str) -> str:
    """The first `text` block after the format's bold heading."""
    text = README.read_text()
    start = text.index(f"**{format_name}**")
    block = re.compile(r"^```text\n(.*?)^```$", re.M | re.S).search(text, start)
    return block.group(1)


@pytest.mark.parametrize(
    "format_name, parse",
    [
        ("Structures", parse_structure),
        ("Equations", parse_equation_system),
        ("Operations", parse_operations),
        ("Members", parse_member),
    ],
)
def test_each_documented_format_example_parses(format_name, parse):
    assert parse(example(format_name)) is not None


def test_the_documented_member_is_what_serialize_member_writes():
    block = example("Members")
    assert serialize_member(parse_member(block)) == block


# -- mutations of the documented examples ---------------------------------------

# every parser that reads a documented syntax; each takes any text
PARSERS = (
    parse_structure,
    parse_equation_system,
    parse_operations,
    parse_member,
    parse_plmap,
    parse_order_term,
)
# a token is a line break, a punctuation mark, or a run of anything else
_TOKEN = re.compile(r"\n|[(),=]|[^\s(),=]+")


# the four format examples, the order term of the operations example and
# the member example's pieces, which `parse_plmap` reads alone, as tokens
SEEDS = [
    _TOKEN.findall(text)
    for text in (
        *(example(name) for name in ("Structures", "Equations", "Operations", "Members")),
        re.search(r"^term (.*)$", example("Operations"), re.M).group(1),
        "\n".join(re.findall(r"^piece .*$", example("Members"), re.M)),
    )
]
# the grammar's tokens: every token of the examples, every keyword and
# symbol of the formats, and numerals of every shape and size
GRAMMAR = st.one_of(
    st.sampled_from(sorted({t for seed in SEEDS for t in seed})),
    st.sampled_from([
        "domain", "relation", "sig", "eq", "op", "term", "table", "arity", "eventual",
        "piece", "affine", "mobius", "data", "inf", "-inf", "lex", "min", "max", "x0",
        "x1", "x3", "#", "\n", "(", ")", ",", "=",
    ]),
    st.integers(0, 10**13).map(str),
    st.integers(-(10**13), 10**13).map(lambda v: f"x{v}"),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
)


@st.composite
def mutated(draw) -> str:
    """A documented example after a few grammar-token edits: replace,
    delete, insert or duplicate."""
    parts = list(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 6))):
        edit = draw(st.sampled_from(("replace", "delete", "insert", "duplicate")))
        if edit == "insert" or not parts:
            parts.insert(draw(st.integers(0, len(parts))), draw(GRAMMAR))
            continue
        i = draw(st.integers(0, len(parts) - 1))
        if edit == "replace":
            parts[i] = draw(GRAMMAR)
        elif edit == "delete":
            del parts[i]
        else:
            parts.insert(i, parts[i])
    return " ".join(parts)  # a line break stays a token of its own


@settings(max_examples=600, deadline=None)
@given(mutated())
def test_a_mutated_example_is_read_or_refused_with_a_clonelab_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ClonelabError:
            pass
