"""Tests for the vector-kernel layer (repro.engine.exec.kernels).

Unit tests exercise each whole-column kernel on the edge shapes the
generated code can feed it (empty columns, all-filtered masks,
duplicate join keys, lanes read after a swap-remove discard), and a
four-way Hypothesis differential holds the vector lane to the exact
model of the specialized, batch, and tuple executors on random
admissible programs.
"""

import operator

import pytest
from hypothesis import given, settings

from repro.engine import evaluate
from repro.engine.exec import (
    derive_rows,
    kernels,
    set_vectorization,
    vectorization,
)
from repro.engine.relation import Relation, encode_args
from repro.parser import parse_rules
from repro.program.rule import Atom
from repro.terms.term import Const, SetVal, intern_term, row_id

from tests.strategies import generated_programs


def t(*values):
    return tuple(Const(v) for v in values)


def rid(value):
    return row_id(intern_term(Const(value)))


class TestScalarKernels:
    def test_number_rid_matches_interner(self):
        assert kernels.number_rid(7) == rid(7)

    def test_number_rid_distinguishes_int_from_float(self):
        # 2 == 2.0 and they hash alike, but they intern to distinct
        # constants — the memo key must keep them apart.
        assert kernels.number_rid(2) != kernels.number_rid(2.0)
        assert kernels.number_rid(2) == rid(2)
        assert kernels.number_rid(2.0) == rid(2.0)

    def test_union_rid_disjoint_parts(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1), Const(2)})))
        right = row_id(intern_term(SetVal.from_ground({Const(3)})))
        whole = row_id(
            intern_term(SetVal.from_ground({Const(1), Const(2), Const(3)}))
        )
        assert kernels.union_rid(left, right) == whole
        # memoized second call
        assert kernels.union_rid(left, right) == whole

    def test_union_rid_overlap_is_false(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1), Const(2)})))
        right = row_id(intern_term(SetVal.from_ground({Const(2)})))
        assert kernels.union_rid(left, right) == -1

    def test_union_rid_non_set_operand_is_false(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1)})))
        assert kernels.union_rid(left, rid(5)) == -1
        assert kernels.union_rid(rid(5), left) == -1


class TestColumnKernels:
    def test_probe_buckets_empty_keys(self):
        assert kernels.probe_buckets({}.get, []) == []

    def test_probe_buckets_duplicate_keys_probe_independently(self):
        index = {1: {"a"}, 2: {"b"}}
        got = kernels.probe_buckets(index.get, [1, 2, 1, 3, 1])
        assert got == [{"a"}, {"b"}, {"a"}, None, {"a"}]

    def test_gather_and_scatter_roundtrip(self):
        from array import array

        rows = [(1, 10), (2, 20), (3, 30)]
        col = array("q")
        kernels.scatter_column(col, rows, 1)
        assert list(col) == [10, 20, 30]
        assert kernels.gather(rows, 0) == [1, 2, 3]

    def test_gather_empty(self):
        assert kernels.gather([], 0) == []

    def test_dedupe_preserves_first_occurrence_order(self):
        rows = [(2,), (1,), (2,), (3,), (1,)]
        assert kernels.dedupe_rows(rows) == [(2,), (1,), (3,)]

    def test_fresh_rows_drops_stored_and_duplicates(self):
        rowpos = {(1,): 0, (2,): 1}
        rows = [(2,), (3,), (3,), (1,), (4,)]
        assert kernels.fresh_rows(rows, rowpos) == [(3,), (4,)]

    def test_fresh_rows_empty(self):
        assert kernels.fresh_rows([], {}) == []

    def test_antijoin_keep(self):
        stored = {(1,), (3,)}
        assert kernels.antijoin_keep([(1,), (2,), (3,), (4,)], stored) == [
            (2,),
            (4,),
        ]

    def test_eq_mask_all_filtered(self):
        # a mask with no survivors must still have one entry per row
        assert kernels.eq_mask([1, 2, 3], 9) == [False, False, False]
        assert kernels.ne_mask([9, 9], 9) == [False, False]

    def test_masks_on_empty_lane(self):
        assert kernels.eq_mask([], 1) == []
        assert kernels.compare_mask(operator.lt, [], []) == []

    def test_numeric_lane_reads_interned_numbers(self):
        lane = [rid(5), rid("word"), rid(2.5)]
        assert kernels.numeric_lane(lane) == [5, None, 2.5]

    def test_compare_mask_none_marks_slow_path_rows(self):
        got = kernels.compare_mask(operator.lt, [1, None, 3], [2, 2, None])
        assert got == [True, None, None]

    def test_arith_lane(self):
        got = kernels.arith_lane(operator.add, [1, None, 3], [10, 10, None])
        assert got == [11, None, None]

    def test_materialize_rows(self):
        rows = [(rid(1),), (rid(2),)]
        from repro.engine.relation import decode_row

        assert kernels.materialize_rows(rows, decode_row) == [t(1), t(2)]


class TestLaneAfterDiscard:
    def test_lane_reflects_swap_remove(self):
        # discard swap-removes mid-lane: the last row's IDs move into
        # the hole, and a lane read afterwards must see the moved row.
        rel = Relation("p", 2)
        rel.add_all([t(1, 10), t(2, 20), t(3, 30)])
        assert rel.discard(t(2, 20))
        lane0 = list(rel.lane(0))
        lane1 = list(rel.lane(1))
        assert len(lane0) == len(lane1) == 2
        got = {(a, b) for a, b in zip(lane0, lane1)}
        assert got == {encode_args(t(1, 10)), encode_args(t(3, 30))}

    def test_lane_is_zero_copy_view(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        view = rel.lane(0)
        # the relation's buffer is pinned while the view is alive
        with pytest.raises(BufferError):
            rel.add(t(2))
        view.release()
        assert rel.add(t(2))


class TestRowBatch:
    def test_iterates_as_argument_tuples(self):
        batch = kernels.RowBatch("p", 2)
        batch.add(encode_args(t(1, 2)), t(1, 2))
        batch.extend_pairs([(encode_args(t(3, 4)), t(3, 4))])
        assert len(batch) == 2
        assert list(batch) == [t(1, 2), t(3, 4)]
        assert batch.rows == [encode_args(t(1, 2)), encode_args(t(3, 4))]


TC = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""


def _edges(pairs):
    return [Atom("e", (Const(a), Const(b))) for a, b in pairs]


class TestVectorToggle:
    def test_knob_roundtrip(self):
        assert vectorization() in ("on", "off")
        prev = vectorization()
        try:
            set_vectorization("off")
            assert vectorization() == "off"
            assert not kernels.enabled()
            set_vectorization("on")
            assert vectorization() == "on"
            assert kernels.enabled()
        finally:
            set_vectorization(prev)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            set_vectorization("sometimes")

    def test_derive_rows_none_when_off(self):
        """Only the vector knob decides: the executor and specialization
        are pinned, so REPRO_EXECUTOR/REPRO_SPECIALIZE legs agree."""
        from repro.engine.context import ensure_context
        from repro.engine.database import Database
        from repro.engine.exec import set_specialization, specialization

        program = parse_rules(TC)
        db = Database(_edges([(1, 2), (2, 3)]))
        ctx = ensure_context(None, db, "sized-once")
        plan = ctx.plan_for(program.rules[0])
        prev = vectorization()
        prev_spec = specialization()
        try:
            set_specialization("on")
            set_vectorization("off")
            assert derive_rows(db, plan, executor="batch") is None
            set_vectorization("on")
            dr = derive_rows(db, plan, executor="batch")
            assert dr is not None
            assert dr.pred == "t" and dr.arity == 2
            assert {dr.decode(row) for row in dr.rows} == {
                t(1, 2),
                t(2, 3),
            }
        finally:
            set_vectorization(prev)
            set_specialization(prev_spec)

    def test_same_model_both_settings(self):
        program = parse_rules(TC)
        edb = _edges([(1, 2), (2, 3), (3, 4), (2, 5)])
        prev = vectorization()
        try:
            set_vectorization("on")
            on = evaluate(program, edb=edb)
            set_vectorization("off")
            off = evaluate(program, edb=edb)
        finally:
            set_vectorization(prev)
        assert on.database == off.database
        assert on.total_firings == off.total_firings


def _model(generated, **kwargs):
    return evaluate(generated.program, edb=generated.edb, **kwargs)


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_vector_equals_specialized_equals_batch_equals_tuple(generated):
    """The vector kernels are an optimization, not a semantics.

    On random admissible programs — negation and grouping included —
    all four executor configurations must produce exactly the same
    model: vector (everything on), specialized (vector off), batch
    (specialization and vector off), and the one-binding-at-a-time
    tuple recursion.
    """
    from repro.engine.exec import set_specialization, specialization

    prev_spec = specialization()
    prev_vec = vectorization()
    try:
        set_specialization("on")
        set_vectorization("on")
        vector = _model(generated, executor="batch")
        set_vectorization("off")
        specialized = _model(generated, executor="batch")
        set_specialization("off")
        batch = _model(generated, executor="batch")
        tup = _model(generated, executor="tuple")
    finally:
        set_specialization(prev_spec)
        set_vectorization(prev_vec)
    assert vector.database == specialized.database
    assert specialized.database == batch.database
    assert batch.database == tup.database
