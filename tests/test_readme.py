"""The file formats the README documents are the ones the parsers read."""

import re
from pathlib import Path

import pytest

from clonelab import parse_equation_system, parse_member, parse_structure, serialize_member
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
