"""The recursive prefix-term parser, the test oracle for `syntax.parse_prefix`.

`parse_prefix` here reads a term by recursive descent, one call per
node, over the tokens of one `findall`.  The library reads the same
tokens with an explicit stack instead; on every text both must build
equal terms, or raise `ParseError`s with the same message and line.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence, TypeVar

from clonelab.errors import ParseError

T = TypeVar("T")

# a token is a punctuation mark or a maximal run of word characters
# (str.isalnum or '_'); whitespace separates tokens, anything else is an error
TOKEN = re.compile(r"[(),]|\w+")
_BAD_CHARACTER = re.compile(r"[^\s(),\w]")


def natural(token: str, line: int | None, expected: str, minimum: int = 0) -> int:
    """The value of an ASCII decimal numeral that is at least `minimum`."""
    if token.isascii() and token.isdigit():
        value = int(token)
        if value >= minimum:
            return value
    raise ParseError(f"expected {expected}, got {token!r}", line)


def parse_prefix(
    text: str,
    line: int | None,
    leaf: Callable[[int], T],
    node: Callable[[str, Sequence[T]], T],
) -> T:
    """Parse a prefix term such as `f(x1, g(x2, x1))`.

    `leaf(n)` builds the variable `x<n>` (n >= 1); `node(symbol, args)`
    builds an application and raises ParseError for a symbol or an
    argument count it does not accept.
    """
    tokens = _tokenize(text, line)
    tokens.append("")  # the end marker
    pos = 0

    def term() -> T:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok[:1] == "x" and tok[1:].isdigit():
            return leaf(natural(tok[1:], line, "a variable index from 1", 1))
        if tok in "(),":
            raise ParseError(
                f"expected a term, got {tok!r}" if tok else "unexpected end of term", line
            )
        if tokens[pos] != "(":
            raise ParseError(f"expected '(' after {tok!r}", line)
        pos += 1
        args = [term()]
        while tokens[pos] == ",":
            pos += 1
            args.append(term())
        if tokens[pos] != ")":
            raise ParseError(
                f"expected ',' or ')', got {tokens[pos]!r}"
                if tokens[pos]
                else "unterminated argument list",
                line,
            )
        pos += 1
        return node(tok, args)

    result = term()
    if pos != len(tokens) - 1:
        raise ParseError(f"trailing input after term: {text!r}", line)
    return result


def _tokenize(text: str, line: int | None) -> list[str]:
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in term", line)
    return TOKEN.findall(text)
