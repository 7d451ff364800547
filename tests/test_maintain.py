"""Tests for the differential maintenance engine (repro.engine.maintain).

Unit coverage for the mode knob, the published :class:`DeltaBatch`,
LSN stamping through the durable store, and the trace event — plus a
hypothesis differential: random interleaved insert/delete scripts
(deletion-heavy, through grouping and negation cones) must leave the
delta-maintained model, the recompute-maintained model, and a
from-scratch evaluation in exact agreement.
"""

import pytest

from hypothesis import given, settings

from repro.engine import evaluate
from repro.engine.incremental import IncrementalModel
from repro.engine.maintain import (
    MAINTAIN_MODES,
    maintain_mode,
    set_maintain_mode,
)
from repro.errors import EvaluationError
from repro.observe import TraceRecorder
from repro.parser import parse_atom, parse_rules
from repro.storage.store import DurableStore
from repro.workloads.generator import GeneratorConfig, random_program
from tests.strategies import update_scripts

ANCESTOR = parse_rules(
    """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    """
)

STRATIFIED = parse_rules(
    """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    person(X) <- parent(X, _).
    person(Y) <- parent(_, Y).
    has_kid(X) <- parent(X, _).
    childless(X) <- person(X), ~has_kid(X).
    kids(P, <C>) <- parent(P, C).
    """
)


def atoms(*sources):
    return [parse_atom(s) for s in sources]


def scratch_set(program, edb):
    return evaluate(program, edb=list(edb)).database.as_set()


class TestModeKnob:
    def test_modes_are_closed(self):
        assert maintain_mode() in MAINTAIN_MODES

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown maintenance mode"):
            set_maintain_mode("bogus")

    def test_model_pin_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown maintenance mode"):
            IncrementalModel(ANCESTOR, maintain="bogus")

    def test_process_default_round_trips(self):
        before = maintain_mode()
        try:
            set_maintain_mode("recompute")
            assert maintain_mode() == "recompute"
            model = IncrementalModel(ANCESTOR, atoms("parent(a, b)"))
            stats = model.remove_facts(atoms("parent(a, b)"))
            assert stats.mode == "recompute"
        finally:
            set_maintain_mode(before)

    def test_model_pin_beats_process_default(self):
        before = maintain_mode()
        try:
            set_maintain_mode("recompute")
            model = IncrementalModel(
                ANCESTOR, atoms("parent(a, b)"), maintain="delta"
            )
            stats = model.remove_facts(atoms("parent(a, b)"))
            assert stats.mode == "maintain"
        finally:
            set_maintain_mode(before)

    def test_mode_switch_mid_stream_stays_correct(self):
        # flipping the process default between updates must invalidate
        # the maintainer's counts (the legacy paths mutate the model
        # behind its back) and rebuild them on the next delta update.
        before = maintain_mode()
        edb = atoms(
            "parent(a, b)", "parent(b, c)", "parent(c, d)", "parent(a, d)"
        )
        try:
            set_maintain_mode("delta")
            model = IncrementalModel(STRATIFIED, edb[:2])
            model.add_facts([edb[2]])
            assert model._maintainer is not None
            set_maintain_mode("recompute")
            model.remove_facts([edb[1]])
            assert model._maintainer is None  # invalidated, not stale
            set_maintain_mode("delta")
            stats = model.add_facts([edb[3]])
            assert stats.mode == "maintain"
            expected = scratch_set(STRATIFIED, [edb[0], edb[2], edb[3]])
            assert model.as_set() == expected
        finally:
            set_maintain_mode(before)


class TestDeltaBatch:
    def test_insert_publishes_net_insertions(self):
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)"), maintain="delta"
        )
        model.add_facts(atoms("parent(b, c)"))
        batch = model.last_delta
        assert batch is not None
        assert batch.mode == "delta"
        assert batch.lsn is None  # not a durable-store mutation
        inserted = {
            pred: set(facts) for pred, facts in batch.inserted.items()
        }
        assert inserted == {
            "parent": {parse_atom("parent(b, c)")},
            "anc": {parse_atom("anc(b, c)"), parse_atom("anc(a, c)")},
        }
        assert batch.deleted == {}
        assert len(batch) == 3

    def test_delete_publishes_net_deletions(self):
        model = IncrementalModel(
            ANCESTOR,
            atoms("parent(a, b)", "parent(b, c)", "parent(a, c)"),
            maintain="delta",
        )
        model.remove_facts(atoms("parent(b, c)"))
        batch = model.last_delta
        deleted = {pred: set(facts) for pred, facts in batch.deleted.items()}
        # anc(a, c) survives via the direct edge: a *net* batch never
        # mentions an overdeleted-then-rederived fact.
        assert deleted == {
            "parent": {parse_atom("parent(b, c)")},
            "anc": {parse_atom("anc(b, c)")},
        }
        assert batch.inserted == {}

    def test_negation_flip_spans_both_sides(self):
        model = IncrementalModel(
            STRATIFIED, atoms("parent(a, b)", "parent(b, c)"),
            maintain="delta",
        )
        model.remove_facts(atoms("parent(b, c)"))
        batch = model.last_delta
        # deleting below the negation inserts above it
        assert parse_atom("childless(b)") in batch.inserted["childless"]
        assert parse_atom("childless(c)") in batch.deleted["childless"]

    def test_trace_event_emitted(self):
        recorder = TraceRecorder()
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)"),
            hooks=recorder, maintain="delta",
        )
        model.add_facts(atoms("parent(b, c)"))
        events = [e for e in recorder.events if e.kind == "delta_batch"]
        assert len(events) == 1
        payload = events[0].payload
        assert payload["mode"] == "delta"
        assert payload["lsn"] is None
        assert payload["inserted"] == 3
        assert payload["deleted"] == 0

    def test_idb_insert_still_rejected(self):
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)"), maintain="delta"
        )
        with pytest.raises(EvaluationError):
            model.add_facts(atoms("anc(x, y)"))


class TestDurableLSN:
    def test_mutations_stamp_wal_lsn(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path, maintain="delta") as store:
            first = store.add_facts(atoms("parent(a, b)"))
            second = store.add_facts(atoms("parent(b, c)"))
            assert first.lsn is not None
            assert second.lsn is not None
            assert second.lsn > first.lsn  # log offsets grow
            assert store.model.last_delta.lsn == second.lsn
            removal = store.remove_facts(atoms("parent(b, c)"))
            assert removal.lsn > second.lsn
            last_lsn = removal.lsn
        # replayed updates carry the original records' LSNs
        with DurableStore(ANCESTOR, tmp_path, maintain="delta") as store:
            assert store.stats.wal_records_replayed == 3
            assert store.model.last_update.lsn == last_lsn
            assert store.model.maintenance.last_lsn == last_lsn

    def test_recompute_mode_stamps_lsn_too(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path, maintain="recompute") as store:
            store.add_facts(atoms("parent(a, b)", "parent(b, c)"))
            stats = store.remove_facts(atoms("parent(b, c)"))
            assert stats.mode == "recompute"
            assert stats.lsn is not None


@given(update_scripts())
@settings(max_examples=15, deadline=None)
def test_property_delta_recompute_and_scratch_agree(script):
    generated, initial, ops = script
    delta = IncrementalModel(generated.program, initial, maintain="delta")
    oracle = IncrementalModel(
        generated.program, initial, maintain="recompute"
    )
    current = dict.fromkeys(initial)
    for op, batch in ops:
        if op == "add":
            delta.add_facts(batch)
            oracle.add_facts(batch)
            current.update(dict.fromkeys(batch))
        else:
            delta.remove_facts(batch)
            oracle.remove_facts(batch)
            for atom in batch:
                current.pop(atom, None)
        expected = scratch_set(generated.program, current)
        assert delta.as_set() == expected
        assert oracle.as_set() == expected


def test_group_emptied_while_negation_flip_inserts_body_fact():
    """Removing e0(5,4) empties p9's group for X=5 while the negation
    flip in p4 inserts p4(5,4) — the group's support must go to zero,
    not be clamped at zero by the deletion term and re-added by the
    insertion term."""
    generated = random_program(
        107,
        GeneratorConfig(negation_probability=0.4, grouping_probability=0.35),
    )
    initial = atoms(
        "e0(5,4)", "e1(2,0)", "e0(3,5)", "e2(4,4)", "e1(2,3)", "e1(5,5)",
        "e1(5,4)",
    )
    delta = IncrementalModel(generated.program, initial, maintain="delta")
    assert parse_atom("p9(5, {4})") in delta.as_set()
    delta.remove_facts(atoms("e0(5,4)"))
    expected = scratch_set(generated.program, initial[1:])
    assert parse_atom("p9(5, {4})") not in expected
    assert delta.as_set() == expected
