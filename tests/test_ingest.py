"""Bulk EDB ingest: ``Database(facts)`` against atom-at-a-time adds.

The constructor loads facts set-at-a-time (one pass, one bulk insert per
predicate).  The differential property below holds it to the reference
it replaced — ``Database.add(canonical_atom(a))`` per atom, in input
order — on the rows it stores, the spelling and order of the verbatim
term lane, the model, and the dense IDs it appends to the process-wide
term table.

Dense IDs are process-global, so each run builds its constants in a
fresh namespace (a unique prefix on every symbol) and compares
namespace-normalized terms.  Namespace-independent terms (numbers and
what is built from numbers alone) are interned by a warm-up run first,
so both runs append exactly their own namespace's terms.  Sets hold at
most one symbol: the element order in which a set's new subterms get
their IDs follows ``frozenset`` iteration, which differs across
namespaces.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.evaluator as evaluator
from repro.engine import evaluate
from repro.engine.database import Database
from repro.engine.relation import encode_args
from repro.errors import EvaluationError, NotInUniverseError
from repro.parser import parse_rules
from repro.program.rule import Atom, canonical_atom
from repro.terms.term import (
    _ID_TABLE,
    Const,
    Func,
    SetPattern,
    SetVal,
    Var,
    evaluate_ground,
    id_table_size,
)

_namespaces = itertools.count()

ARITY = {"p": 2, "q": 1, "r": 0}

numbers = st.sampled_from([0, 1, 2, 1.0, 2.5]).map(lambda v: ("num", v))
symbols = st.builds(
    lambda name, quoted: ("sym", name, quoted),
    st.sampled_from(["a", "b"]),
    st.booleans(),
)
leaves = numbers | symbols
arithmetic = st.builds(
    lambda op, x, y: ("arith", op, x, y), st.sampled_from(["+", "*"]), numbers, numbers
)
set_patterns = st.builds(
    lambda nums, sym: ("set", tuple(nums + sym)),
    st.lists(numbers, max_size=3),
    st.lists(symbols, max_size=1),
)
functions = st.builds(
    lambda args: ("func", tuple(args)), st.lists(leaves | set_patterns, min_size=1, max_size=2)
)
arg_specs = leaves | arithmetic | set_patterns | functions


@st.composite
def atom_specs(draw):
    pred = draw(st.sampled_from(sorted(ARITY)))
    return pred, tuple(draw(arg_specs) for _ in range(ARITY[pred]))


def _respelled(spec):
    """The atom spec with every symbol's quoting flipped: the same row."""
    if spec[:1] == ("sym",):
        return ("sym", spec[1], not spec[2])
    return tuple(_respelled(s) if isinstance(s, tuple) else s for s in spec)


@st.composite
def ingest_scripts(draw):
    """A pool of atom specs (each with its respelled twin) and a fact
    list drawn from it with repeats.  Each fact is built ``fresh``,
    ``shared`` (the same Atom object at every occurrence), ``reused``
    (a new Atom over leaf terms shared across facts, numbers interned,
    so interned and new arguments mix), or ``row`` (pre-canonicalized with its
    ``_row``, as a derivation would hand it over)."""
    pool = draw(st.lists(atom_specs(), min_size=1, max_size=5))
    pool += [(pred, _respelled(args)) for pred, args in pool]
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.sampled_from(["fresh", "shared", "reused", "row"]),
            ),
            max_size=14,
        ).map(lambda picks: [(pool[i], mode) for i, mode in picks])
    )


def _term(spec, ns, leaves=None):
    kind = spec[0]
    if kind in ("sym", "num"):
        if leaves is not None and spec in leaves:
            return leaves[spec]
        if kind == "sym":
            term = Const(ns + spec[1], quoted=spec[2])
        else:
            term = Const(spec[1])
        if leaves is not None:
            # shared leaves: numbers come interned, symbols get interned
            # by the first fact that carries them
            if kind == "num":
                term = evaluate_ground(term)
            leaves[spec] = term
        return term
    if kind == "arith":
        return Func(spec[1], (_term(spec[2], ns, leaves), _term(spec[3], ns, leaves)))
    args = tuple(_term(s, ns, leaves) for s in spec[1])
    return SetPattern(args) if kind == "set" else Func("f", args)


def _facts(script, ns):
    """The script's atoms in namespace ``ns`` (interning the ``row``
    ones before the caller's watermark)."""
    shared: dict = {}
    leaves: dict = {}
    facts = []
    for spec, mode in script:
        pred, args = spec
        if mode == "shared":
            atom = shared.get(spec)
            if atom is None:
                atom = shared[spec] = Atom(pred, [_term(a, ns) for a in args])
        else:
            cache = leaves if mode == "reused" else None
            atom = Atom(pred, [_term(a, ns, cache) for a in args])
            if mode == "row":
                atom = canonical_atom(atom)
                atom._row = encode_args(atom.args)
        facts.append(atom)
    return facts


def _norm(term, ns):
    if isinstance(term, Const):
        if isinstance(term.value, str):
            return ("s", term.value.removeprefix(ns), term.quoted)
        return ("n", type(term.value).__name__, term.value)
    if isinstance(term, Func):
        return ("f", term.functor, tuple(_norm(a, ns) for a in term.args))
    assert isinstance(term, SetVal)
    return ("set", frozenset(_norm(e, ns) for e in term.elements))


def _load(script, build):
    """Build ``script`` in a fresh namespace; returns a comparable
    summary of the database and of the dense IDs the build appended."""
    ns = f"ingest{next(_namespaces)}_"
    facts = _facts(script, ns)
    start = id_table_size()
    db = build(facts)
    end = id_table_size()

    def rid(i):
        return ("new", i - start) if i >= start else ("old", _norm(_ID_TABLE[i], ns))

    relations = {}
    for pred in db.predicates():
        rel = db.relation(pred)
        relations[pred] = (
            [tuple(map(rid, row)) for row in rel.id_rows()],
            [tuple(_norm(t, ns) for t in args) for args in rel],
        )
    model = {
        (atom.pred, tuple(_norm(t, ns) for t in atom.args))
        for atom in db.as_set()
    }
    appended = [_norm(t, ns) for t in _ID_TABLE[start:end]]
    return relations, model, appended


def _one_at_a_time(facts):
    db = Database()
    for atom in facts:
        db.add(canonical_atom(atom))
    return db


@given(ingest_scripts())
@settings(max_examples=120, deadline=None)
def test_bulk_ingest_matches_atom_at_a_time(script):
    _load(script, Database)  # warm-up: intern namespace-free terms
    bulk = _load(script, Database)
    reference = _load(script, _one_at_a_time)
    assert bulk == reference


def test_first_spelling_wins_the_term_lane():
    for first in (True, False):
        ns = f"ingest{next(_namespaces)}_"
        db = Database(
            [Atom("p", (Const(ns, quoted=first),)),
             Atom("p", (Const(ns, quoted=not first),))]
        )
        (stored,) = db.tuples("p")
        assert db.count("p") == 1
        assert stored[0].quoted is first


def test_dense_ids_follow_input_order_subterms_first():
    ns = f"ingest{next(_namespaces)}_"
    x, y, z = (Const(ns + s) for s in "xyz")
    start = id_table_size()
    Database([Atom("p", (Func("g", (x, y)), z)), Atom("p", (y, x))])
    assert _ID_TABLE[start:] == [x, y, Func("g", (x, y)), z]


def test_interned_args_and_rows_are_reused():
    ns = f"ingest{next(_namespaces)}_"
    atom = canonical_atom(Atom("p", (Const(ns + "a"), Const(1))))
    atom._row = encode_args(atom.args)
    db = Database([atom, Atom("p", atom.args)])
    (stored,) = db.tuples("p")
    assert stored is atom.args
    assert list(db.id_rows("p")) == [atom._row]


PROGRAM = parse_rules("out(X) <- p(X).")


class TestIngestErrors:
    def test_non_ground_fact(self):
        fact = Atom("p", (Var("X"),))
        with pytest.raises(EvaluationError):
            Database([fact])
        with pytest.raises(EvaluationError):
            evaluate(PROGRAM, [fact])

    def test_fact_outside_the_universe(self):
        fact = Atom("p", (Func("scons", (Const(1), Const(2))),))
        with pytest.raises(NotInUniverseError):
            Database([fact])
        with pytest.raises(NotInUniverseError):
            evaluate(PROGRAM, [fact])

    def test_arity_mismatch(self):
        facts = [Atom("p", (Const(1),)), Atom("p", (Const(1), Const(2)))]
        with pytest.raises(ValueError, match="arity 1 but got 2"):
            Database(facts)
        with pytest.raises(ValueError):
            evaluate(PROGRAM, facts)

    def test_single_fact_add_still_rejects_non_ground(self):
        with pytest.raises(ValueError):
            Database().add(Atom("p", (Var("X"),)))


def test_evaluate_ingests_inside_one_database_call(monkeypatch):
    """The EDB is loaded by the one ``Database(...)`` call the evaluator
    makes through its module attribute — the hook timing tools wrap."""
    calls = []
    real = evaluator.Database

    def traced(*args, **kwargs):
        db = real(*args, **kwargs)
        calls.append(db.count())
        return db

    monkeypatch.setattr(evaluator, "Database", traced)
    result = evaluate(
        parse_rules("out(X) <- p(X). p(3)."),
        [Atom("p", (Const(1),)), Atom("p", (Const(2),))],
    )
    assert calls == [3]
    assert result.database.count("out") == 3
