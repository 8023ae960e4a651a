"""Exception types shared across the package.

The CLI maps these onto exit codes: input and validation problems exit
with 2, resource-cap exhaustion exits with 3.  Most negative answers are
return values, but three are exceptions that a command answers with exit
1: `EqualizerFailure` in `lift` and `analyze`, `UnsatisfiableSystem` in
`lift`, and `NonCanonicalOperation` in `type-image`, `lift` and `analyze`.
"""

from __future__ import annotations


class ClonelabError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ClonelabError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(ClonelabError):
    """A configured resource cap would be exceeded; raised before the work
    starts.  Carries the quantity's name (`what`), the size it `needed`
    and the `cap` it exceeds; `needed` is None for a size too large to
    compute, which the message then names or bounds."""

    def __init__(self, message: str, what: str, needed: int | None, cap: int):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(message)


class InconsistentData(ClonelabError):
    """Input data violates a stated precondition (monotonicity, arity, ...)."""


class NonCanonicalOperation(ClonelabError):
    """An operation required to be canonical is not; carries its name and
    the counterexample."""

    def __init__(self, name: str, counterexample):
        self.name = name
        self.counterexample = counterexample
        super().__init__(f"operation {name!r} is not canonical at level {counterexample.k}")


class UnsupportedTerm(ClonelabError):
    """Term shape outside the fragment an exact decision procedure covers."""


class UnsatisfiableSystem(ClonelabError):
    """No assignment into the searched clone satisfies the equation system."""


class EqualizerFailure(ClonelabError):
    """Two term evaluations disagree in type, so no symmetries of the
    structure can equalize them (increasing maps over dlo, injections
    over pureset); carries the stage and the offending equation."""

    def __init__(self, message: str, j: int, equation: str):
        self.j = j
        self.equation = equation
        super().__init__(message)
