"""Lexical rules shared by every text format of the package.

Line formats are read through `records`: '#' starts a comment, blank
lines are skipped, and every other line arrives as its whitespace-separated
fields with its 1-based number.  Integer fields are ASCII decimal
numerals read by `natural`.  Terms in the prefix syntax `sym(arg, ...)`
with `x<n>` leaves are read by `parse_prefix`, which leaves the meaning
of each symbol to its caller, and declared symbol names by `symbol_name`.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import ParseError

T = TypeVar("T")

# a token is a punctuation mark or a maximal run of word characters
# (str.isalnum or '_'); whitespace separates tokens, anything else is an error
_WORD = re.compile(r"\w+")
_BAD_CHARACTER = re.compile(r"[^\s(),\w]")


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for every line that is not blank or a comment."""
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield number, fields


def natural(token: str, line: int | None, expected: str, minimum: int = 0) -> int:
    """The value of an ASCII decimal numeral that is at least `minimum`.

    Other digit characters (superscripts, Arabic-Indic digits) and what
    `int` accepts beyond digits (signs, underscores) are rejected, so a
    number reads the same in every format.
    """
    if token.isascii() and token.isdigit():
        value = int(token)
        if value >= minimum:
            return value
    raise ParseError(f"expected {expected}, got {token!r}", line)


def symbol_name(token: str, line: int | None) -> str:
    """A declared name: one word, not `x<n>`, so a term printing it reads back."""
    if _WORD.fullmatch(token) and not _is_variable(token):
        return token
    raise ParseError(f"expected a symbol name (a word that is not x<n>), got {token!r}", line)


def parse_prefix(
    text: str,
    line: int | None,
    leaf: Callable[[int], T],
    node: Callable[[str, Sequence[T]], T],
) -> T:
    """Parse a prefix term such as `f(x1, g(x2, x1))` in one pass over its
    tokens, keeping open applications on a stack, so any depth parses.
    `leaf(n)` builds the variable `x<n>` (n >= 1), one leaf for all its
    occurrences; `node(symbol, args)` builds an application at its `)`
    and raises ParseError for a symbol or argument count it refuses."""
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in term", line)
    # no bad character is left: the marks and the runs between spaces are the tokens
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    tokens.append("")  # the end marker
    leaves: dict[str, T] = {}
    stack: list[tuple[str, list[T]]] = []  # open applications
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        value = leaves.get(tok)
        if value is None:
            if _is_variable(tok):
                value = leaves[tok] = leaf(natural(tok[1:], line, "a variable index from 1", 1))
            elif tok in "(),":
                raise ParseError(
                    f"expected a term, got {tok!r}" if tok else "unexpected end of term", line
                )
            elif tokens[pos] != "(":
                raise ParseError(f"expected '(' after {tok!r}", line)
            else:
                pos += 1
                stack.append((tok, []))
                continue
        # a whole term: it closes every application whose last argument it is
        while stack:
            stack[-1][1].append(value)
            tok = tokens[pos]
            pos += 1
            if tok == ",":
                break
            if tok != ")":
                got = f"expected ',' or ')', got {tok!r}"
                raise ParseError(got if tok else "unterminated argument list", line)
            value = node(*stack.pop())
        else:
            if pos != len(tokens) - 1:
                raise ParseError(f"trailing input after term: {text!r}", line)
            return value


def _is_variable(token: str) -> bool:
    return token[:1] == "x" and token[1:].isdigit()
