"""Layer-by-layer bottom-up evaluation (paper Theorem 1).

Given an admissible program P with layering ``L1, ..., Ln`` and a set
of U-facts ``M0``, computes ``Mn = Ln(...L1(M0))``: each layer first
applies its grouping rules once over the facts from below (the R1 step
of Lemma 3.2.3), then runs its remaining rules to fixpoint (R2).  The
result is a minimal model of P w.r.t. M0; for positive programs it is
the unique minimal model.

Within a layer the default scheduler goes further than Theorem 1's
single fixpoint: the layer's predicates are condensed into strongly
connected components (:func:`repro.program.dependency.scc_schedule`),
evaluated in dependency order — non-recursive components in one
semi-naive-free pass, genuinely recursive components as their own
(much smaller) fixpoint.  Theorem 2 guarantees the model is the same;
``scheduler="layer"`` recovers the one-fixpoint-per-stratum behaviour
for differential testing.

The run is driven through an :class:`~repro.engine.context.EvalContext`
shared by every layer: rule plans compile once and are reused across
iterations, ``hooks`` observe layer/iteration/firing/derivation events
(:mod:`repro.observe`), and ``metrics`` attributes wall-clock time to
the plan / match / grouping phases, to individual layers, and to
individual SCCs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Literal as TypingLiteral

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.fixpoint import (
    FixpointStats,
    naive_fixpoint,
    seminaive_fixpoint,
    single_pass,
)
from repro.engine.grouping import apply_grouping_rules
from repro.engine.match import Binding, match_atom
from repro.errors import EvaluationError, NotInUniverseError
from repro.observe import EngineHooks, MetricsCollector, emit_event
from repro.program.dependency import SCCComponent, scc_schedule
from repro.program.rule import Atom, Program, Query, Rule
from repro.program.stratify import Layering, stratify, validate_layering
from repro.program.wellformed import check_program
from repro.terms.term import Term, Var, evaluate_ground, id_table_size
from repro.util import collections_run, collector_paused

Strategy = TypingLiteral["naive", "seminaive"]
Scheduler = TypingLiteral["scc", "layer"]


@dataclass
class SCCStats:
    """Work counters and wall time for one scheduled SCC."""

    preds: frozenset[str]
    recursive: bool
    grouping_facts: int = 0
    fixpoint: FixpointStats = field(default_factory=FixpointStats)
    seconds: float = 0.0


@dataclass
class LayerStats:
    """Per-layer work counters."""

    layer: int
    grouping_facts: int = 0
    fixpoint: FixpointStats = field(default_factory=FixpointStats)
    sccs: list[SCCStats] = field(default_factory=list)


@dataclass
class EvaluationResult:
    """The computed minimal model plus bookkeeping."""

    database: Database
    layering: Layering
    layer_stats: list[LayerStats]
    strategy: Strategy
    metrics: MetricsCollector | None = None
    #: the EvalContext the model was computed under; explanation reuses
    #: its plan cache so explain and evaluation always agree on plans.
    context: EvalContext | None = None

    @property
    def total_facts(self) -> int:
        return len(self.database)

    @property
    def total_iterations(self) -> int:
        return sum(s.fixpoint.iterations for s in self.layer_stats)

    @property
    def total_firings(self) -> int:
        return sum(s.fixpoint.rule_firings for s in self.layer_stats)

    def answers(self, query: Query) -> list[Binding]:
        """All bindings of the query's variables against the model."""
        return answer_query(self.database, query)

    def answer_atoms(self, query: Query) -> list[Atom]:
        """Matching facts, deterministically ordered."""
        out = []
        for args in _query_tuples(self.database, query):
            for _ in match_atom(query.atom, args, {}):
                out.append(Atom(query.atom.pred, args))
                break
        return sorted(out, key=lambda a: a.sort_key())


def evaluate_component(
    db: Database,
    component: SCCComponent,
    ctx: EvalContext,
    run_fixpoint=seminaive_fixpoint,
    layer: int | None = None,
    rules: Iterable[Rule] | None = None,
) -> SCCStats:
    """Evaluate one scheduled SCC against ``db``.

    Grouping rules apply once over the facts from below (the R1 step —
    their bodies read strictly lower predicates, so component order
    cannot starve them), then the remaining rules run as a fixpoint
    when the component is recursive or as a single pass when it is not.
    ``rules`` restricts the component's rules (incremental cones);
    ``layer`` tags the emitted SCC events and timings.
    """
    stats = SCCStats(component.preds, component.recursive)
    effective = component.rules if rules is None else tuple(rules)
    grouping = [r for r in effective if r.is_grouping()]
    other = [r for r in effective if not r.is_grouping()]
    if ctx.observing:
        emit_event(
            ctx.hooks,
            "on_scc_start",
            layer=layer,
            preds=component.preds,
            recursive=component.recursive,
        )
    start = time.perf_counter()
    for rule in grouping:
        for fact in apply_grouping_rules([rule], db, context=ctx):
            if db.add(fact):
                stats.grouping_facts += 1
                if ctx.observing:
                    ctx.hooks.on_fact_derived(fact, rule)
    if other:
        if component.recursive:
            stats.fixpoint = run_fixpoint(db, other, context=ctx)
        else:
            stats.fixpoint = single_pass(db, other, context=ctx)
    stats.seconds = time.perf_counter() - start
    if ctx.observing:
        emit_event(
            ctx.hooks,
            "on_scc_end",
            layer=layer,
            preds=component.preds,
            new_facts=stats.grouping_facts + stats.fixpoint.facts_derived,
            seconds=stats.seconds,
        )
    if ctx.timing:
        ctx.metrics.add_scc_time(
            layer, component.preds, component.recursive, stats.seconds
        )
    return stats


@collector_paused()
def evaluate(
    program: Program,
    edb: Iterable[Atom] = (),
    strategy: Strategy = "seminaive",
    layering: Layering | None = None,
    check: bool = True,
    planner: str = "sized-once",
    hooks: EngineHooks | None = None,
    metrics: MetricsCollector | None = None,
    scheduler: Scheduler = "scc",
    executor: str | None = None,
    workers: int | None = None,
) -> EvaluationResult:
    """Compute the standard minimal model of ``program`` over ``edb``.

    ``layering`` overrides the canonical stratification (it is validated
    first); Theorem 2 guarantees the result does not depend on the
    choice.  ``strategy`` selects the fixpoint algorithm within layers;
    ``planner`` picks the join-ordering policy (``"sized-once"`` —
    cardinality-aware, plans cached; ``"sized"`` — re-plans on size
    change; ``"static"`` — syntactic heuristic only).
    ``scheduler`` selects how each layer is driven: ``"scc"`` (default)
    condenses the layer into strongly connected components evaluated in
    dependency order, ``"layer"`` runs the layer's rules as one fixpoint
    (the Theorem 1 formulation — kept for differential testing).
    ``executor`` picks the body executor (``"batch"`` set-at-a-time /
    ``"tuple"`` one-binding-at-a-time; None uses the process default).
    ``hooks`` receives engine events (:class:`repro.observe.EngineHooks`
    — e.g. a :class:`~repro.observe.TraceRecorder`); ``metrics``
    collects per-phase, per-layer, and per-SCC wall-clock timings.

    ``workers`` selects partitioned parallel evaluation (None reads the
    process default — ``REPRO_WORKERS``, normally 1).  ``workers=1`` IS
    the serial engine: the code path below is byte-for-byte the
    single-process evaluator.  With ``workers > 1`` the SCC schedule is
    driven through a forked :class:`~repro.engine.shard.pool.WorkerPool`
    — the model computed is the same (the differential suite holds this)
    but per-fact hook events and iteration counts are not part of the
    contract, so the parallel path only engages for the default
    observable surface: semi-naive strategy, SCC scheduler, no hooks,
    and a fork-capable platform; anything else falls back to serial.

    The whole call runs with the cyclic garbage collector paused
    (:func:`repro.util.collector_paused`); ``metrics`` counts the
    collections that still ran per generation (``gc_gen0_collections``
    and so on), which is 0 unless something collects explicitly.
    """
    if metrics is not None:
        collections_before = collections_run()
    if check:
        check_program(program)
    if layering is None:
        layering = stratify(program)
    elif not validate_layering(program, layering):
        raise EvaluationError("supplied layering violates the layering conditions")
    if strategy not in ("naive", "seminaive"):
        raise EvaluationError(f"unknown strategy {strategy!r}")
    if scheduler not in ("scc", "layer"):
        raise EvaluationError(f"unknown scheduler {scheduler!r}")

    # one bulk ingest of the EDB and then the program's facts; it
    # canonicalizes args exactly as IncrementalModel does, so a session
    # computes the same model in-memory and durably.
    db = Database(chain(edb, (rule.head for rule in program.facts())))
    ctx = EvalContext(
        db, planner=planner, hooks=hooks, metrics=metrics, executor=executor
    )

    run_fixpoint = naive_fixpoint if strategy == "naive" else seminaive_fixpoint
    schedule = scc_schedule(program, layering) if scheduler == "scc" else None

    from repro.engine.shard import resolve_workers

    nworkers = resolve_workers(workers)
    if (
        nworkers > 1
        and strategy == "seminaive"
        and scheduler == "scc"
        and not ctx.observing
    ):
        from repro.engine.shard.pool import (
            WorkerPool,
            fork_available,
            run_schedule,
        )

        if fork_available():
            with WorkerPool(
                nworkers,
                db,
                schedule,
                planner=planner,
                executor=executor,
                metrics=metrics,
            ) as pool:
                layer_stats = run_schedule(db, schedule, ctx, pool, layering)
            if metrics is not None:
                _record_totals(metrics, collections_before)
            return EvaluationResult(
                db, layering, layer_stats, strategy, metrics, ctx
            )

    layer_stats: list[LayerStats] = []
    for i in range(len(layering)):
        stats = LayerStats(layer=i)
        rules = [
            r for r in layering.rules_in_layer(program, i) if not r.is_fact()
        ]
        if ctx.observing:
            ctx.hooks.on_layer_start(i, rules)
        if ctx.timing:
            layer_start = ctx.metrics.now()
        if schedule is not None:
            for component in schedule[i]:
                scc = evaluate_component(
                    db, component, ctx, run_fixpoint, layer=i
                )
                stats.sccs.append(scc)
                stats.grouping_facts += scc.grouping_facts
                stats.fixpoint.merge(scc.fixpoint)
        else:
            grouping_rules = [r for r in rules if r.is_grouping()]
            other_rules = [r for r in rules if not r.is_grouping()]
            for rule in grouping_rules:
                for fact in apply_grouping_rules([rule], db, context=ctx):
                    if db.add(fact):
                        stats.grouping_facts += 1
                        if ctx.observing:
                            ctx.hooks.on_fact_derived(fact, rule)
            if other_rules:
                stats.fixpoint = run_fixpoint(db, other_rules, context=ctx)
        if ctx.timing:
            ctx.metrics.add_layer_time(i, ctx.metrics.now() - layer_start)
        if ctx.observing:
            ctx.hooks.on_layer_end(
                i, stats.grouping_facts + stats.fixpoint.facts_derived
            )
        layer_stats.append(stats)
    if metrics is not None:
        _record_totals(metrics, collections_before)
    return EvaluationResult(db, layering, layer_stats, strategy, metrics, ctx)


def _record_totals(
    metrics: MetricsCollector, collections_before: tuple[int, ...]
) -> None:
    """Per-evaluation tallies: the ID-table high-water mark and the
    cyclic-collector passes run since ``collections_before``."""
    metrics.record_id_table(id_table_size())
    for gen, (after, before) in enumerate(
        zip(collections_run(), collections_before)
    ):
        metrics.incr(f"gc_gen{gen}_collections", after - before)


def _query_tuples(db: Database, query: Query) -> Iterable[tuple[Term, ...]]:
    """Candidate tuples for a query atom, probed by ground positions.

    Ground query arguments form an index signature routed through
    :meth:`Database.lookup` instead of scanning the whole relation.  An
    argument that evaluates outside U makes the query unsatisfiable.
    """
    positions: list[int] = []
    key_parts: list[Term] = []
    for i, arg in enumerate(query.atom.args):
        if arg.is_ground():
            try:
                key_parts.append(evaluate_ground(arg))
            except (NotInUniverseError, EvaluationError):
                return ()
            positions.append(i)
    return db.lookup(query.atom.pred, tuple(positions), tuple(key_parts))


def answer_query(db: Database, query: Query) -> list[Binding]:
    """Match a query atom against the database; sorted distinct bindings."""
    return match_rows(query.atom, _query_tuples(db, query))


def _projection(pattern: Atom):
    """The fast-path shape of ``pattern``, or None to decline.

    Returns ``(variables, constants)`` — ``(name, position)`` of each
    variable in argument order and ``(position, term)`` of each ground
    argument — when every argument is either a variable occurring once
    or an already-canonical (interned) ground term.  Repeated variables,
    compound or set patterns with variables, and ground terms that
    still need evaluating (set patterns, arithmetic) decline.
    """
    variables: list[tuple[str, int]] = []
    constants: list[tuple[int, Term]] = []
    for i, arg in enumerate(pattern.args):
        if type(arg) is Var:
            if any(name == arg.name for name, _ in variables):
                return None
            variables.append((arg.name, i))
        elif arg._interned:
            constants.append((i, arg))
        else:
            return None
    return variables, constants


def match_rows(pattern: Atom, rows: Iterable[tuple[Term, ...]]) -> list[Binding]:
    """Sorted distinct bindings of ``pattern`` over candidate ``rows``.

    ``rows`` must be distinct — a relation's extension or a slice of
    it, as both the engine and the answer cache supply.  This is the
    one answer function behind :func:`answer_query` and the server's
    answer cache, so cached and engine answers cannot drift apart.

    When :func:`_projection` accepts the pattern, each binding is built
    straight from its row: a row matches when its arity and ground
    positions agree, and distinct rows project to distinct bindings
    (the pattern's variables cover every other position once), so no
    dedupe is needed.  Every other shape goes through
    :func:`_match_rows_general`.  Both paths sort by the variables'
    values in name order and return the same bindings in the same
    order.
    """
    shape = _projection(pattern)
    if shape is None:
        return _match_rows_general(pattern, rows)
    variables, constants = shape
    arity = len(pattern.args)
    if constants:
        matched = [
            row for row in rows
            if len(row) == arity and all(row[i] == c for i, c in constants)
        ]
    else:
        matched = [row for row in rows if len(row) == arity]
    if len(variables) == 1:
        ((name, pos),) = variables
        matched.sort(key=lambda row: row[pos].sort_key())
        return [{name: row[pos]} for row in matched]
    order = [pos for _, pos in sorted(variables)]
    matched.sort(key=lambda row: tuple(row[i].sort_key() for i in order))
    return [{name: row[pos] for name, pos in variables} for row in matched]


def _match_rows_general(
    pattern: Atom, rows: Iterable[tuple[Term, ...]]
) -> list[Binding]:
    """:func:`match_rows` for any pattern: one-way matching of every
    row (repeated variables, compound and set patterns, ground terms
    still to evaluate), deduplicated, sorted."""
    answers: list[Binding] = []
    seen: set[frozenset] = set()
    for args in rows:
        for binding in match_atom(pattern, args, {}):
            key = frozenset(binding.items())
            if key not in seen:
                seen.add(key)
                answers.append(binding)
    answers.sort(
        key=lambda b: tuple(
            (name, value.sort_key()) for name, value in sorted(b.items())
        )
    )
    return answers
