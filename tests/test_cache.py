"""Tests for the server answer cache (repro.server.cache)."""

from hypothesis import given, settings

from repro import LDL
from repro.engine.maintain import Invalidation
from repro.parser.parser import parse_query
from repro.program.rule import Atom, Query
from repro.server import LDLServer
from repro.server.cache import AnswerCache, cache_enabled
from repro.terms.term import Var
from repro.terms.pretty import format_program
from tests.strategies import update_scripts
from tests.test_server import ServerThread

TWO_FAMILIES = """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    s(X) <- f(X).
"""


def tc_session():
    db = LDL(TWO_FAMILIES)
    db.facts("e", [(1, 2), (2, 3)])
    db.facts("f", [(7,), (8,)])
    return db


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = AnswerCache().bind_session(tc_session())
        q = parse_query("? t(1, X).")
        first, how = cache.answers(q)
        assert how == "miss"
        assert [b["X"].value for b in first] == [2, 3]
        again, how = cache.answers(q)
        assert how == "hit"
        assert again == first

    def test_relaxed_patterns_share_one_entry(self):
        """``? t(X, Y)`` and ``? t(X, X)`` differ only in filtering."""
        db = tc_session()
        db.facts("e", [(5, 5)])
        cache = AnswerCache().bind_session(db)
        assert cache.answers(parse_query("? t(X, Y)."))[1] == "miss"
        diagonal, how = cache.answers(parse_query("? t(X, X)."))
        assert how == "hit"  # same key, different match pattern
        assert [b["X"].value for b in diagonal] == [5]

    def test_subsumption_serves_bound_from_free(self):
        cache = AnswerCache().bind_session(tc_session())
        assert cache.answers(parse_query("? t(X, Y)."))[1] == "miss"
        bound, how = cache.answers(parse_query("? t(1, X)."))
        assert how == "hit-subsumed"
        assert [b["X"].value for b in bound] == [2, 3]
        # the fully bound query is subsumed too, and answers by {} match
        check, how = cache.answers(parse_query("? t(1, 3)."))
        assert how == "hit-subsumed"
        assert check == [{}]
        assert cache.report()["subsumed"] == 2

    def test_no_false_subsumption_across_bound_values(self):
        cache = AnswerCache().bind_session(tc_session())
        assert cache.answers(parse_query("? t(1, X)."))[1] == "miss"
        # a differently-bound query cannot be served from that entry
        assert cache.answers(parse_query("? t(2, X)."))[1] == "miss"

    def test_lru_eviction(self):
        cache = AnswerCache(capacity=2).bind_session(tc_session())
        q1, q2, q3 = (
            parse_query("? t(1, X)."),
            parse_query("? t(2, X)."),
            parse_query("? s(X)."),
        )
        cache.answers(q1)
        cache.answers(q2)
        cache.answers(q1)  # refresh q1: q2 is now least recent
        cache.answers(q3)  # evicts q2
        assert cache.answers(q1)[1] == "hit"
        assert cache.answers(q2)[1] == "miss"

    def test_answers_match_uncached_strategies(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        for text in ("? t(1, X).", "? t(X, Y).", "? s(X).", "? e(1, X)."):
            q = parse_query(text)
            cached, _ = cache.answers(q)
            assert cached == db.model().answers(q)
            if q.atom.pred in db.program.idb_predicates():
                assert cached == db.query_magic(q).answers()

    def test_bound_query_fills_on_demand_without_fallback(self):
        cache = AnswerCache().bind_session(tc_session())
        assert cache.answers(parse_query("? t(1, X)."))[1] == "miss"
        assert cache.report()["magic_fallbacks"] == {}

    def test_magic_failure_falls_back_to_the_model_and_is_counted(
        self, monkeypatch
    ):
        session = tc_session()

        def broken(query):
            raise RuntimeError("magic evaluation failed")

        monkeypatch.setattr(session, "on_demand_rows", broken)
        cache = AnswerCache().bind_session(session)
        answers, how = cache.answers(parse_query("? t(1, X)."))
        assert how == "miss"
        assert [b["X"].value for b in answers] == [2, 3]
        assert cache.answers(parse_query("? t(2, X)."))[1] == "miss"
        assert cache.report()["magic_fallbacks"] == {"RuntimeError": 2}

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANSWER_CACHE", "off")
        assert not cache_enabled()
        assert LDLServer(LDL(TWO_FAMILIES), port=0).cache is None
        monkeypatch.setenv("REPRO_ANSWER_CACHE", "on")
        assert cache_enabled()
        monkeypatch.delenv("REPRO_ANSWER_CACHE")
        assert cache_enabled()
        assert LDLServer(LDL(TWO_FAMILIES), port=0).cache is not None


class TestInvalidation:
    def test_writes_invalidate_only_affected_predicates(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        qt, qs = parse_query("? t(1, X)."), parse_query("? s(X).")
        cache.answers(qt)
        cache.answers(qs)
        db.facts("f", [(9,)])  # touches the s-family only
        assert cache.answers(qt)[1] == "hit"
        assert cache.answers(qs)[1] == "miss"
        answers, _ = cache.answers(qs)  # refill
        db.facts("e", [(3, 4)])  # touches the t-family only
        assert cache.answers(qs)[1] == "hit"
        assert cache.answers(qt)[1] == "miss"
        assert [b["X"].value for b in cache.answers(qt)[0]] == [2, 3, 4]

    def test_rule_load_clears_wholesale(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        cache.answers(parse_query("? t(1, X)."))
        cache.answers(parse_query("? s(X)."))
        db.load("s(X) <- e(X, _).")  # rules changed: everything suspect
        assert len(cache) == 0
        got, how = cache.answers(parse_query("? s(X)."))
        assert how == "miss"
        assert sorted(b["X"].value for b in got) == [1, 2, 7, 8]

    def test_removals_invalidate(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        q = parse_query("? t(1, X).")
        cache.answers(q)
        db.remove("e", 2, 3)
        got, how = cache.answers(q)
        assert how == "miss"
        assert [b["X"].value for b in got] == [2]

    def test_durable_delta_invalidation_is_precise(self, tmp_path):
        with LDL(TWO_FAMILIES, path=str(tmp_path / "db")) as db:
            db.facts("e", [(1, 2)])
            db.facts("f", [(7,)])
            cache = AnswerCache().bind_session(db)
            qt, qs = parse_query("? t(1, X)."), parse_query("? s(X).")
            cache.answers(qt)
            cache.answers(qs)
            db.facts("f", [(8,)])  # delta batch names f/s only
            assert cache.answers(qt)[1] == "hit"
            assert cache.answers(qs)[1] == "miss"

    def test_lsn_stamps_make_invalidation_precise_in_time(self, tmp_path):
        with LDL(TWO_FAMILIES, path=str(tmp_path / "db")) as db:
            db.facts("e", [(1, 2)])
            cache = AnswerCache().bind_session(db)
            q = parse_query("? t(1, X).")
            cache.answers(q)
            filled_at = db.store.model.maintenance.last_lsn
            assert filled_at is not None
            # a delta at (or before) the fill LSN is already reflected
            stale = Invalidation(lsn=filled_at, preds=frozenset({"e"}))
            assert cache.apply_invalidation(stale) == 0
            assert cache.answers(q)[1] == "hit"
            # a later mutation's delta drops the entry
            fresh = Invalidation(lsn=filled_at + 1, preds=frozenset({"e"}))
            assert cache.apply_invalidation(fresh) == 1
            assert cache.answers(q)[1] == "miss"

    def test_unstamped_entries_always_drop_on_intersection(self):
        cache = AnswerCache().bind_session(tc_session())
        cache.answers(parse_query("? t(1, X)."))
        event = Invalidation(lsn=10_000, preds=frozenset({"e"}))
        assert cache.apply_invalidation(event) == 1


class TestCachedServer:
    def test_hit_invalidate_hit_cycle_end_to_end(self):
        session = tc_session()
        cache = AnswerCache()
        with ServerThread(session, cache=cache) as st, st.client() as client:
            ask = {"q": "? t(1, X)."}
            assert client.call("query", **ask)["cache"] == "miss"
            assert client.call("query", **ask)["cache"] == "hit"
            client.add_facts("f", [(9,)])  # unrelated family
            assert client.call("query", **ask)["cache"] == "hit"
            client.add_facts("e", [(3, 4)])  # invalidates the t-family
            response = client.call("query", **ask)
            assert response["cache"] == "miss"
            assert response["count"] == 3
            # per-request bypass, and the uncached answers agree
            assert client.call("query", **ask, cache=False)["cache"] == "off"
            assert client.query("? t(1, X).") == client.query(
                "? t(1, X).", cache=False
            )
            stats = client.stats()
            assert stats["answer_cache"]["hits"] >= 2
            assert stats["answer_cache"]["entries_invalidated"] >= 1
            assert stats["server"]["cache"]["hit"] >= 2
            assert stats["server"]["cache"]["invalidation_events"] >= 2


def _query_pool(generated):
    """Deterministic queries covering the generated program's shapes."""
    arities: dict[str, int] = {}
    for rule in generated.program:
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            arities.setdefault(atom.pred, len(atom.args))
    for atom in generated.edb:
        arities.setdefault(atom.pred, len(atom.args))
    queries = []
    for pred, arity in sorted(arities.items())[:6]:
        queries.append(
            Query(Atom(pred, tuple(Var(f"Q{i}") for i in range(arity))))
        )
        if arity >= 2:  # a repeated-variable pattern
            queries.append(Query(Atom(pred, tuple(Var("Q") for _ in range(arity)))))
    for atom in list(dict.fromkeys(generated.edb))[:3]:
        queries.append(Query(atom))  # fully bound
        if len(atom.args) >= 2:  # partially bound
            queries.append(
                Query(
                    Atom(
                        atom.pred,
                        (atom.args[0],)
                        + tuple(Var(f"Q{i}") for i in range(1, len(atom.args))),
                    )
                )
            )
    return queries


@given(update_scripts())
@settings(max_examples=20, deadline=None)
def test_cached_answers_equal_uncached_oracle(script):
    """Random add/remove/query interleavings: a cached session must
    answer exactly like an uncached oracle at every step — any missed
    invalidation or over-broad subsumption shows up as a stale answer."""
    generated, initial, ops = script
    text = format_program(generated.program)
    cached_session = LDL(text).add_atoms(initial)
    oracle = LDL(text).add_atoms(initial)
    cache = AnswerCache().bind_session(cached_session)
    queries = _query_pool(generated)

    def check():
        for query in queries:
            got, _ = cache.answers(query)
            assert got == oracle.model().answers(query)

    check()
    for kind, atoms in ops:
        if kind == "add":
            cached_session.add_atoms(atoms)
            oracle.add_atoms(atoms)
        else:
            cached_session.remove_atoms(atoms)
            oracle.remove_atoms(atoms)
        check()
    # the workload must actually exercise the cache, not just miss
    report = cache.report()
    assert report["hits"] + report["misses"] > 0
    assert report["magic_fallbacks"] == {}
