"""The answer path: ``match_rows`` fast projection against general matching.

``match_rows`` builds a binding straight from each row when every query
argument is a distinct variable or an already-canonical ground term,
and falls back to one-way matching otherwise.  The property below holds
the fast path to the general path — same bindings, same spellings, same
order — over random databases and query shapes, and the unit tests pin
which shapes take which path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.evaluator as evaluator
from repro.engine.database import Database
from repro.engine.evaluator import (
    _match_rows_general,
    _projection,
    _query_tuples,
    answer_query,
    match_rows,
)
from repro.program.rule import Atom, Query
from repro.terms.term import (
    Const,
    Func,
    SetPattern,
    SetVal,
    Var,
    evaluate_ground,
)

ARITY = {"p": 2, "q": 1, "r": 0}

VALUES = [
    Const(1),
    Const(1.0),
    Const(2),
    Const("a"),
    Const("a", quoted=True),
    Const("b"),
    SetVal((Const(1), Const(2))),
    SetVal(),
    Func("f", (Const(1),)),
]

values = st.sampled_from(VALUES)


@st.composite
def databases(draw):
    facts = []
    for pred, arity in ARITY.items():
        facts += draw(
            st.lists(st.tuples(*[values] * arity).map(lambda a, p=pred: Atom(p, a)))
        )
    return Database(facts)


#: query argument shapes: variables (names repeat freely), canonical ground
#: terms, and ground or non-ground shapes that need matching
arguments = st.one_of(
    st.sampled_from(["X", "Y", "Z"]).map(Var),
    values.map(evaluate_ground),
    st.sampled_from(
        [
            SetPattern((Const(2), Const(1))),
            SetPattern((Var("X"),)),
            Func("+", (Const(1), Const(1))),
            Func("-", (Const(2), Const(1.0))),
            Func("f", (Var("Y"),)),
        ]
    ),
)


@st.composite
def queries(draw):
    pred = draw(st.sampled_from(sorted(ARITY)))
    # occasionally query with the wrong arity: no row may match
    arity = draw(st.sampled_from([ARITY[pred], ARITY[pred], 1]))
    return Atom(pred, tuple(draw(arguments) for _ in range(arity)))


def _spelled(bindings):
    """Bindings with key order and the exact spelling of every value."""
    return [
        [(name, value, getattr(value, "quoted", None)) for name, value in b.items()]
        for b in bindings
    ]


@given(databases(), queries())
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_general_path(db, pattern):
    arity = ARITY[pattern.pred]
    if any(a.is_ground() for a in pattern.args[arity:]):
        return  # a ground position past the relation's arity has no index
    rows = list(_query_tuples(db, Query(pattern)))
    expected = _spelled(_match_rows_general(pattern, rows))
    assert _spelled(match_rows(pattern, rows)) == expected
    assert _spelled(answer_query(db, Query(pattern))) == expected


def _db():
    one, two = Const(1), Const(2)
    return Database(
        [
            Atom("p", (one, two)),
            Atom("p", (two, one)),
            Atom("p", (one, one)),
            Atom("p", (Const("a", quoted=True), SetVal((one, two)))),
            Atom("p", (Const("a"), one)),
            Atom("q", (two,)),
            Atom("q", (one,)),
            Atom("r", ()),
        ]
    )


ONE, TWO = evaluate_ground(Const(1)), evaluate_ground(Const(2))
QUOTED_A = evaluate_ground(Const("a", quoted=True))

FAST = {
    "all variables": Atom("p", (Var("X"), Var("Y"))),
    "ground argument": Atom("p", (ONE, Var("Y"))),
    "all ground": Atom("p", (ONE, TWO)),
    "quoted ground": Atom("p", (QUOTED_A, Var("S"))),
    "zero-ary": Atom("r", ()),
}

DECLINED = {
    "repeated variable": Atom("p", (Var("X"), Var("X"))),
    "set pattern": Atom("p", (Var("X"), SetPattern((Const(2), Const(1))))),
    "set pattern with variable": Atom(
        "p", (Var("X"), SetPattern((Var("Y"), Const(2))))
    ),
    "uninterned ground": Atom("p", (Const(1), Var("Y"))),
    "arithmetic": Atom("p", (Func("+", (Const(0), Const(1))), Var("Y"))),
    "compound with variable": Atom("q", (Func("f", (Var("X"),)),)),
}


@pytest.mark.parametrize("name", sorted(FAST))
def test_fast_shapes_skip_general_matching(name, monkeypatch):
    db, pattern = _db(), FAST[name]
    rows = list(_query_tuples(db, Query(pattern)))
    expected = _spelled(_match_rows_general(pattern, rows))
    assert _projection(pattern) is not None

    def refuse(*args, **kwargs):
        raise AssertionError("general matching ran on a fast-path shape")

    monkeypatch.setattr(evaluator, "match_atom", refuse)
    assert _spelled(match_rows(pattern, rows)) == expected
    assert _spelled(answer_query(db, Query(pattern))) == expected


@pytest.mark.parametrize("name", sorted(DECLINED))
def test_declined_shapes_use_general_matching(name):
    db, pattern = _db(), DECLINED[name]
    assert _projection(pattern) is None
    rows = list(_query_tuples(db, Query(pattern)))
    assert answer_query(db, Query(pattern)) == _match_rows_general(pattern, rows)


def test_expected_answers_per_shape():
    db = _db()
    one, two, pair = Const(1), Const(2), SetVal((Const(1), Const(2)))
    assert answer_query(db, Query(FAST["zero-ary"])) == [{}]
    assert answer_query(db, Query(FAST["all ground"])) == [{}]
    assert answer_query(db, Query(FAST["ground argument"])) == [
        {"Y": one}, {"Y": two}
    ]
    # a quoted constant matches the bare spelling too (one class)
    assert answer_query(db, Query(FAST["quoted ground"])) == [
        {"S": one}, {"S": pair}
    ]
    assert answer_query(db, Query(DECLINED["repeated variable"])) == [{"X": one}]
    assert answer_query(db, Query(DECLINED["arithmetic"])) == [
        {"Y": one}, {"Y": two}
    ]
    # answers carry the stored spelling
    assert _spelled(answer_query(db, Query(DECLINED["set pattern"]))) == [
        [("X", Const("a"), True)]
    ]


def test_wrong_arity_query_has_no_answers():
    db = _db()
    pattern = Atom("p", (Var("X"),))
    assert _projection(pattern) is not None
    assert answer_query(db, Query(pattern)) == []
