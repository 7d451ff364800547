"""The cyclic garbage collector around bulk evaluations.

``evaluate`` and ``evaluate_magic`` run with CPython's cyclic collector
paused (:func:`repro.util.collector_paused`).  These tests hold the
pause to its contract: the collector's enabled state after a call
equals its state before (returning or raising, nested, across
overlapping threads, in a forked child), the engine leaves no cyclic
garbage behind for the deferred collector to find, and an evaluation's
metrics count the collections that ran during it.
"""

from __future__ import annotations

import gc
import os
import threading

import pytest

import repro.util as util
from repro.engine import evaluate
from repro.errors import EvaluationError
from repro.magic.evaluate import evaluate_magic
from repro.observe import MetricsCollector
from repro.parser import parse_query, parse_rules
from repro.program.rule import Atom
from repro.terms.term import Const
from repro.util import collector_paused
from repro.workloads import TC_SCOPED_PROGRAM, bom

TC = parse_rules(
    """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    """
)
EDGES = [Atom("e", (Const(a), Const(b))) for a, b in [(1, 2), (2, 3), (3, 4)]]


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and no pause open, and
    leaves it that way even when it fails."""
    assert util._collector_depth == 0
    gc.enable()
    yield
    gc.enable()


class _Gate:
    """Engine hooks that park the evaluation at its first layer until
    released; every other event is ignored."""

    def __init__(self) -> None:
        self.inside = threading.Event()
        self.release = threading.Event()

    def on_layer_start(self, layer, rules) -> None:
        self.inside.set()
        assert self.release.wait(30)

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class TestEnabledStateRestored:
    def test_paused_inside_evaluate_and_restored_after(self):
        seen = []

        class Probe(_Gate):
            def on_layer_start(self, layer, rules) -> None:
                seen.append(gc.isenabled())

        evaluate(TC, EDGES, hooks=Probe())
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_when_evaluate_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(TC, EDGES, strategy="bogus")
        assert gc.isenabled()
        with pytest.raises(ValueError):  # arity mismatch, inside ingest
            evaluate(TC, [Atom("e", (Const(1), Const(2), Const(3)))] + EDGES)
        assert gc.isenabled()

    def test_evaluate_magic_pauses_and_restores(self):
        seen = []

        class Probe(_Gate):
            def on_plan_built(self, plan) -> None:
                seen.append(gc.isenabled())

        result = evaluate_magic(TC, parse_query("? t(1, Y)."), EDGES, hooks=Probe())
        assert [b["Y"].value for b in result.answers()] == [2, 3, 4]
        assert seen and not any(seen)
        assert gc.isenabled()
        with pytest.raises(ValueError):  # arity mismatch, inside ingest
            evaluate_magic(
                TC, parse_query("? t(1, Y)."), EDGES + [Atom("e", (Const(1),))]
            )
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        evaluate(TC, EDGES)
        assert not gc.isenabled()
        with pytest.raises(EvaluationError):
            evaluate(TC, EDGES, strategy="bogus")
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                evaluate(TC, EDGES)
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert util._collector_depth == 1
        assert gc.isenabled()
        assert util._collector_depth == 0


def test_overlapping_evaluations_in_two_threads():
    """The collector comes back only when the last evaluation exits,
    whichever thread started first."""
    gates = [_Gate(), _Gate()]
    threads = [
        threading.Thread(target=evaluate, args=(TC, EDGES), kwargs={"hooks": g})
        for g in gates
    ]
    try:
        threads[0].start()
        assert gates[0].inside.wait(30)
        threads[1].start()
        assert gates[1].inside.wait(30)
        assert not gc.isenabled()
        gates[0].release.set()
        threads[0].join(30)
        assert not threads[0].is_alive()
        assert not gc.isenabled()  # the second evaluation is still running
        gates[1].release.set()
        threads[1].join(30)
        assert not threads[1].is_alive()
    finally:
        for gate in gates:
            gate.release.set()
        for thread in threads:
            thread.join(30)
    assert gc.isenabled()
    assert util._collector_depth == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("caller_enabled", [True, False])
def test_child_forked_inside_a_pause(caller_enabled):
    """A child forked while paused starts with no pause open and the
    collector as it was before the pause; the parent stays paused."""
    if not caller_enabled:
        gc.disable()
    with collector_paused():
        pid = os.fork()
        if pid == 0:  # child: report through the exit status only
            ok = (
                util._collector_depth == 0
                and gc.isenabled() == caller_enabled
            )
            with collector_paused():
                ok = ok and not gc.isenabled()
                evaluate(TC, EDGES)
            ok = ok and gc.isenabled() == caller_enabled
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert not gc.isenabled()
        assert util._collector_depth == 1
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert gc.isenabled() == caller_enabled
    assert util._collector_depth == 0


def test_evaluation_leaves_no_cyclic_garbage():
    """Compiled plans, their closures and builtin memos are freed by
    reference counting, so pausing the collector holds no memory: with
    the collector off for the whole evaluation, a collection afterwards
    finds almost nothing (64,541 objects when each compiled plan and
    its closure namespace formed reference cycles)."""
    facts, expected = bom(4, 2, seed=1)
    program = parse_rules(TC_SCOPED_PROGRAM)
    evaluate(program, facts)  # warm: code cache, interned terms
    gc.collect()
    gc.disable()
    try:
        result = evaluate(program, facts)
        answers = {
            b["X"].value: b["C"].value
            for b in result.answers(parse_query("? result(X, C)."))
        }
        del result
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert answers == expected
    assert unreachable < 1000


class TestCollectionCounters:
    def test_evaluation_under_a_collector_reports_zero(self):
        metrics = MetricsCollector()
        evaluate(TC, EDGES, metrics=metrics)
        counts = {
            name: value
            for name, value in metrics.counters.items()
            if name.startswith("gc_")
        }
        assert counts == {
            f"gc_gen{gen}_collections": 0 for gen in range(len(gc.get_stats()))
        }

    def test_collections_during_the_evaluation_are_counted(self):
        class Collecting(_Gate):
            def on_layer_start(self, layer, rules) -> None:
                gc.collect()

        metrics = MetricsCollector()
        evaluate(TC, EDGES, metrics=metrics, hooks=Collecting())
        last = len(gc.get_stats()) - 1
        assert metrics.counters[f"gc_gen{last}_collections"] == len(
            metrics.layers
        )
