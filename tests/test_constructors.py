"""The API's own boundary checks, reached by building objects directly.

The parsers refuse these inputs with a line number before any
constructor sees them, so tests that go through text never run the
constructors' checks.  Each case here builds the object itself and
expects `InconsistentData`.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from clonelab.canonical import Operation
from clonelab.clones import Table
from clonelab.equations import Equation, EquationSystem
from clonelab.errors import InconsistentData
from clonelab.orderterms import Coord
from clonelab.plmap import PLMap, Piece, identity
from clonelab.qclone import QFunction
from clonelab.structures import FiniteStructure, Relation
from clonelab.terms import App, Var

ID = (1, 0, 0, 1)


def relation(name="r", arity=1, tuples=()):
    return Relation(name, arity, frozenset(tuples))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteStructure(0), "domain must be nonempty"),
        (lambda: FiniteStructure(2, (relation(), relation())), "duplicate relation name"),
        (lambda: FiniteStructure(2, (relation(arity=0),)), "has arity < 1"),
        (lambda: FiniteStructure(2, (relation(arity=2, tuples=[(0,)]),)), "wrong arity"),
        (lambda: FiniteStructure(2, (relation(tuples=[(2,)]),)), "out of domain"),
        (lambda: Table(2, 0, (0,)), "size >= 1 and arity >= 1"),
        (lambda: Table(2, 1, (0,)), "table needs 2 outputs, got 1"),
        (lambda: Table(2, 1, (0, 2)), "output out of range"),
        (lambda: Piece(None, None, (1, 0, 0, 0)), "degenerate piece matrix"),
        (lambda: Piece(F(1), F(1), ID), "piece interval is empty"),
        (lambda: PLMap((Piece(F(0), None, ID),)), "cover the whole line"),
        (lambda: PLMap((Piece(None, F(0), ID), Piece(F(1), None, ID))), "adjacent"),
        (lambda: QFunction(0, 1, F(0), identity(), identity()), "arity must be at least 1"),
    ],
    ids=[
        "empty-domain", "relation-name", "relation-arity", "tuple-arity", "tuple-domain",
        "table-arity", "table-outputs", "table-range", "degenerate-piece", "empty-piece",
        "map-cover", "map-adjacency", "member-arity",
    ],
)
def test_constructors_refuse_what_the_parsers_refuse(build, message):
    with pytest.raises(InconsistentData, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        # x0 would read the last variable, so f := x1 "satisfied" the system
        (
            lambda: EquationSystem(
                (("f", 2),), (Equation(App("f", (Var(0), Var(1))), Var(1)),)
            ),
            "variable index 0 is below 1",
        ),
        (lambda: Var(-1), "variable index -1 is below 1"),
        # x0 would get the type table of x2
        (lambda: Operation("f", 2, Coord(0)), "coordinate index 0 is below 1"),
        # a 0-ary symbol would end the clone search at a cap
        (lambda: EquationSystem((("c", 0),), ()), "symbol 'c' has arity 0, below 1"),
    ],
    ids=["variable-zero", "variable-negative", "coordinate-zero", "nullary-symbol"],
)
def test_indices_and_symbol_arities_start_at_1(build, message):
    with pytest.raises(InconsistentData, match=message):
        build()
