"""Partitioned parallel evaluation: sharding, exchange, worker pool.

Covers the ``engine/shard`` subsystem bottom-up — the consistent hash
partitioner, relation split/merge, the row-batch wire framing, the
intern-table handshake (including a forked child replaying the full
table after a clear), exchange re-sharding — and top-down: parallel
evaluation must produce exactly the serial model on fixed programs
with negation, grouping, and recursion, and a dead worker must surface
as a clean :class:`EvaluationError`.
"""

import itertools
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.database import Database
from repro.engine.exec import RowBatch
from repro.engine.relation import Relation, encode_args
from repro.engine.shard import (
    default_workers,
    resolve_workers,
    set_default_workers,
)
from repro.engine.shard.exchange import Exchange
from repro.engine.shard.partition import Partitioner, id_hash
from repro.engine.shard.pool import WorkerPool, fork_available
from repro.errors import EvaluationError
from repro.parser import parse_program, parse_rules
from repro.program.dependency import scc_schedule
from repro.program.stratify import stratify
from repro.storage.codec import (
    StorageError,
    decode_row_batch,
    encode_row_batch,
    intern_table_lines,
    row_batch_bytes,
    sync_intern_lines,
)
from repro.terms.term import (
    Const,
    Func,
    SetVal,
    id_table_size,
    intern_term,
    sync_intern_terms,
    term_id,
)
from repro.workloads import chain_family

from tests.strategies import generated_programs

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

TC_RULES = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""

#: Negation + grouping + recursion in one program: the shapes the
#: parallel gate must route through grouping-on-coordinator, sharded
#: rounds, and stratum ordering at once.
MIXED_SRC = """
e(a, b). e(b, c). e(c, d). e(a, d). e(d, e).
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
succ(X, <Y>) <- t(X, Y).
root(X) <- e(X, _), ~t(a, X).
"""


def _rows(count, width=2, stride=1):
    return [
        encode_args(tuple(Const(f"v{i * stride + j}") for j in range(width)))
        for i in range(count)
    ]


# -- partitioner -------------------------------------------------------------


def test_partitioner_rejects_zero_parts():
    with pytest.raises(ValueError):
        Partitioner(0)


def test_partitioner_covers_disjointly():
    rows = _rows(200)
    for nparts in (1, 2, 3, 7):
        parts = Partitioner(nparts).split_rows(rows, 2)
        assert len(parts) == nparts
        recovered = [row for part in parts for row in part]
        assert sorted(recovered) == sorted(rows)
        seen = set()
        for part in parts:
            assert not (seen & set(part))
            seen |= set(part)


def test_partitioner_is_stable_and_key_based():
    p = Partitioner(4, key=0)
    rows = _rows(50)
    assert p.split_rows(rows, 2) == p.split_rows(rows, 2)
    # same key id => same partition, independent of the other columns
    a = encode_args((Const("k"), Const("x1")))
    b = encode_args((Const("k"), Const("x2")))
    (part_a,) = [i for i, part in enumerate(p.split_rows([a], 2)) if part]
    (part_b,) = [i for i, part in enumerate(p.split_rows([b], 2)) if part]
    assert part_a == part_b


def test_id_hash_is_content_based():
    # equal terms hash equal even through distinct objects — the
    # property that makes partitions agree across processes.
    t1 = intern_term(Func("f", (Const(1), Const("x"))))
    assert id_hash(term_id(t1)) == id_hash(term_id(intern_term(Func("f", (Const(1), Const("x"))))))


def test_partitioner_clamps_key_and_handles_arity_zero():
    p = Partitioner(3, key=5)
    rows = _rows(20, width=1)
    parts = p.split_rows(rows, 1)  # key clamps to column 0
    assert sorted(r for part in parts for r in part) == sorted(rows)
    zero = p.split_rows([()], 0)
    assert zero[0] == [()] and all(not part for part in zero[1:])


def test_split_batch_keeps_lanes_parallel():
    batch = RowBatch("p", 2)
    for i in range(40):
        args = (Const(f"a{i}"), Const(i))
        batch.add(encode_args(args), args)
    parts = Partitioner(3).split_batch(batch)
    total = 0
    for part in parts:
        assert len(part.rows) == len(part.args)
        for row, args in zip(part.rows, part.args):
            assert encode_args(args) == row
        total += len(part.rows)
    assert total == 40


# -- relation split / merge --------------------------------------------------


def test_relation_split_merge_roundtrip():
    rel = Relation("p", 2)
    for i in range(100):
        rel.add((Const(f"k{i % 7}"), Const(i)))
    parts = rel.split(Partitioner(4))
    assert sum(len(p) for p in parts) == len(rel)
    for idx, part in enumerate(parts):
        assert part.partition == (0, 4, idx)
    merged = Relation.merge(parts)
    assert set(merged.id_rows()) == set(rel.id_rows())


def test_relation_merge_rejects_mixed_predicates():
    with pytest.raises(ValueError):
        Relation.merge([Relation("p", 2), Relation("q", 2)])
    with pytest.raises(ValueError):
        Relation.merge([])


# -- wire framing ------------------------------------------------------------


def test_row_batch_roundtrip_below_watermark():
    rows = _rows(30)
    watermark = id_table_size()
    payload = encode_row_batch("p", 2, rows, watermark)
    assert payload[3] == []  # everything in the raw lane
    pred, arity, decoded = decode_row_batch(payload)
    assert (pred, arity) == ("p", 2)
    assert decoded == rows
    assert row_batch_bytes(payload) == 8 * 2 * 30


def test_row_batch_fresh_terms_take_coded_lane():
    watermark = id_table_size()
    fresh = encode_args((Const("zz_fresh_shard_term"), Const(1)))
    old = _rows(3)
    payload = encode_row_batch("p", 2, old + [fresh], watermark)
    assert len(payload[3]) == 1  # only the fresh row is coded
    _, _, decoded = decode_row_batch(payload)
    assert sorted(decoded) == sorted(old + [fresh])


def test_row_batch_rejects_mismatched_lines():
    watermark = id_table_size()
    payload = encode_row_batch("p", 2, _rows(2), watermark)
    alien = encode_row_batch("q", 1, [], 0)
    with pytest.raises(StorageError):
        decode_row_batch(("p", 2, payload[2], list(
            encode_row_batch("q", 2, [encode_args((Const("zq"), Const("zr")))], 0)[3]
        )))
    assert decode_row_batch(alien) == ("q", 1, [])


def test_arity_zero_raw_lane_rejected():
    with pytest.raises(StorageError):
        decode_row_batch(("p", 0, [1], []))


# -- intern-table handshake --------------------------------------------------


def test_sync_intern_terms_accepts_existing_prefix():
    intern_term(Const("handshake_a"))
    size = id_table_size()
    from repro.terms.term import intern_snapshot

    # replaying our own table is a no-op at any start point
    sync_intern_terms(intern_snapshot(0), 0)
    assert id_table_size() == size


def test_sync_intern_terms_rejects_divergence():
    intern_term(Const("handshake_b"))
    size = id_table_size()
    with pytest.raises(ValueError):
        sync_intern_terms([Const("zz_not_that_term")], size - 1)
    with pytest.raises(ValueError):
        sync_intern_terms([Const("zz_any")], size + 10)


def test_sync_intern_lines_wraps_divergence():
    intern_term(Const("handshake_c"))
    size = id_table_size()
    lines = intern_table_lines(size - 1)
    sync_intern_lines(lines, size - 1)  # replaying ourselves: fine
    with pytest.raises(StorageError):
        sync_intern_lines(lines, size + 5)


def _child_replays_table(conn, lines, expected_ids):
    """Forked child: wipe the table, replay the parent's fragments, and
    report whether every probe term lands on the parent's ID."""
    try:
        from repro.storage.codec import sync_intern_lines as replay
        from repro.terms.term import clear_intern_table

        clear_intern_table()
        replay(lines, 0)
        results = {
            name: term_id(intern_term(Const(name)))
            for name in expected_ids
        }
        conn.send(("ok", results))
    except Exception as exc:  # pragma: no cover - failure reporting
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def _replayed(probes=()):
    """``(status, payload)`` from a forked child that replays this
    process's whole intern table (see :func:`_child_replays_table`)."""
    lines = intern_table_lines(0)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_child_replays_table, args=(child, lines, probes)
    )
    proc.start()
    child.close()
    try:
        assert parent.poll(30), "child never replied"
        return parent.recv()
    finally:
        proc.join(timeout=10)
        parent.close()


@needs_fork
def test_fresh_process_replays_intern_table():
    """The spawn-style handshake: a process with an empty intern table
    replays the coordinator's codec fragments and ends up assigning the
    same dense IDs."""
    probes = ("replay_x", "replay_y")
    expected = {
        name: term_id(intern_term(Const(name))) for name in probes
    }
    status, payload = _replayed(probes)
    assert status == "ok", payload
    assert payload == expected


@needs_fork
def test_replay_after_a_differently_spelled_subterm():
    """``f(g("b"))`` interned after ``g(b)`` collapses its argument to
    the earlier ``g(b)`` but is encoded as spelled: the quoted ``"b"``
    must have its own earlier entry, or the replay hands it f's ID
    (the table used to diverge here: local ``Const('b')`` vs remote
    ``Func('f', ...)``).  Sets collapse spellings the same way."""
    intern_term(Func("g", (Const("spelled_b"),)))
    inner = Func("g", (Const("spelled_b", quoted=True),))
    intern_term(Func("f", (inner, inner)))
    intern_term(SetVal([Const("spelled_c")]))
    intern_term(Func("h", (SetVal([Const("spelled_c", quoted=True)]),)))
    status, payload = _replayed()
    assert status == "ok", payload


_replay_namespaces = itertools.count()

spelled_terms = st.recursive(
    st.tuples(st.just("c"), st.sampled_from("ab"), st.booleans()),
    lambda inner: st.tuples(
        st.just("f"), st.just("g"), st.lists(inner, min_size=1, max_size=2)
    )
    | st.tuples(st.just("s"), st.lists(inner, max_size=2)),
    max_leaves=6,
)


def _spelled(spec, ns):
    if spec[0] == "c":
        return Const(ns + spec[1], quoted=spec[2])
    if spec[0] == "f":
        return Func(spec[1], tuple(_spelled(s, ns) for s in spec[2]))
    return SetVal([_spelled(s, ns) for s in spec[1]])


@needs_fork
@given(st.lists(spelled_terms, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_replay_of_any_interned_history_is_exact(history):
    """Any sequence of raw ground terms — nested functions and sets
    of one functor over two symbols quoted at random, so equal terms
    spelled apart are common — interned in order leaves a table that a
    fresh process replays exactly."""
    ns = f"hist{next(_replay_namespaces)}_"
    for spec in history:
        intern_term(_spelled(spec, ns))
    status, payload = _replayed()
    assert status == "ok", payload


# -- exchange ----------------------------------------------------------------


def test_exchange_reshard_partitions_batch():
    batch = RowBatch("p", 2)
    for i in range(30):
        args = (Const(f"r{i}"), Const(i))
        batch.add(encode_args(args), args)
    parts = Exchange.reshard(batch, Partitioner(3))
    assert sum(len(p.rows) for p in parts) == 30
    assert {row for p in parts for row in p.rows} == set(batch.rows)


# -- worker defaults ---------------------------------------------------------


def test_worker_count_resolution():
    prev = default_workers()
    try:
        set_default_workers(3)
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        with pytest.raises(ValueError):
            set_default_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(1000)
    finally:
        set_default_workers(prev)


# -- parallel == serial ------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_equals_serial_on_tc(workers):
    program = parse_rules(TC_RULES)
    edb = [
        atom
        for atom in chain_family(60)
    ]
    # chain_family produces parent/2 facts; rename to e/2 for TC_RULES
    from repro.program.rule import Atom

    edb = [Atom("e", atom.args) for atom in edb]
    serial = evaluate(program, edb=edb)
    parallel = evaluate(program, edb=edb, workers=workers)
    assert parallel.database == serial.database
    assert parallel.total_facts == serial.total_facts


@needs_fork
def test_parallel_equals_serial_with_negation_and_grouping():
    program, facts = parse_program(MIXED_SRC)
    serial = evaluate(program, edb=facts)
    parallel = evaluate(program, edb=facts, workers=3)
    assert parallel.database == serial.database


@needs_fork
def test_api_session_accepts_workers():
    from repro.api import LDL

    serial = LDL(MIXED_SRC).database()
    parallel = LDL(MIXED_SRC, workers=2).database()
    assert parallel == serial


@needs_fork
def test_workers_fall_back_to_serial_under_observation():
    """Hook-observed runs stay serial (per-fact hook order is a serial
    contract), silently — same model either way."""
    from repro.observe import TraceRecorder

    program, facts = parse_program(MIXED_SRC)
    trace = TraceRecorder()
    observed = evaluate(program, edb=facts, workers=2, hooks=trace)
    plain = evaluate(program, edb=facts)
    assert observed.database == plain.database
    assert trace.events  # the trace actually ran


@needs_fork
@given(generated=generated_programs)
@settings(max_examples=12, deadline=None)
def test_parallel_equals_serial_on_generated_programs(generated):
    """The partitioned evaluator is an optimization, not a semantics.

    On random admissible programs — negation, grouping, and recursive
    SCCs included — every worker count must produce exactly the serial
    model."""
    serial = evaluate(generated.program, edb=generated.edb)
    for workers in (2, 4):
        parallel = evaluate(
            generated.program, edb=generated.edb, workers=workers
        )
        assert parallel.database == serial.database


# -- failure surfacing -------------------------------------------------------


@needs_fork
def test_dead_worker_raises_evaluation_error():
    program = parse_rules(TC_RULES)
    from repro.program.rule import Atom

    db = Database(
        Atom("e", (Const(f"n{i}"), Const(f"n{i + 1}"))) for i in range(5)
    )
    layering = stratify(program)
    schedule = scc_schedule(program, layering)
    pool = WorkerPool(2, db, schedule)
    try:
        pool.procs[1].terminate()
        pool.procs[1].join(timeout=10)
        with pytest.raises(EvaluationError, match="worker 1"):
            pool.handshake()
    finally:
        pool.terminate()


def test_pool_rejects_single_worker():
    with pytest.raises(ValueError):
        WorkerPool(1, Database(), [])
