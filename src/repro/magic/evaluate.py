"""Constrained bottom-up evaluation of magic-rewritten programs (§6).

The rewritten program is *not* layered (magic predicates cycle with the
rules they guard), so plain stratified evaluation does not apply.  Per
the paper, grouping rules and rules with negation on derived predicates
must see fully evaluated bodies *for each magic tuple*; the evaluation
therefore alternates:

1. **saturation** — semi-naive fixpoint of all magic rules and
   non-deferred modified rules (all positive, so order-free);
2. **deferred step** — one application of each deferred rule
   (grouping / negation on derived predicates) against the saturated
   database;

repeating until the deferred step derives nothing new.  A final
validation recomputes every deferred rule and checks it derives exactly
the facts recorded during the run — catching any violation of the
saturation argument (e.g. a group that grew after it was formed) and
raising :class:`UnstableMagicEvaluationError`.

The saturation step itself is SCC-condensed
(:func:`repro.program.dependency.condense_program`): the rewritten
rules' dependency graph is condensed once, and each sweep evaluates the
components in dependency order — non-recursive components with a single
rule application, recursive ones as their own small fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from repro.engine.context import EvalContext, ensure_context
from repro.engine.database import Database
from repro.engine.evaluator import answer_query
from repro.engine.fixpoint import FixpointStats, seminaive_fixpoint, single_pass
from repro.program.dependency import condense_program
from repro.engine.exec import derive_facts
from repro.engine.grouping import apply_grouping_rule
from repro.engine.match import Binding
from repro.errors import UnstableMagicEvaluationError
from repro.observe import EngineHooks
from repro.magic.rewrite import MagicProgram, magic_rewrite
from repro.program.rule import Atom, Program, Query, Rule
from repro.program.wellformed import check_program
from repro.terms.term import evaluate_ground


@dataclass
class MagicStats:
    """Work counters for a constrained magic evaluation."""

    phases: int = 0
    saturation: FixpointStats = field(default_factory=FixpointStats)
    deferred_facts: int = 0


@dataclass
class MagicResult:
    """Outcome of evaluating a query by magic sets."""

    database: Database
    magic_program: MagicProgram
    stats: MagicStats

    @property
    def total_facts(self) -> int:
        return len(self.database)

    def answers(self) -> list[Binding]:
        """Bindings of the query's variables."""
        query = self.magic_program.adorned.query
        adorned_query = Query(
            Atom(self.magic_program.answer_pred, query.atom.args)
        )
        return answer_query(self.database, adorned_query)

    def answer_atoms(self) -> list[Atom]:
        """Matching answer facts under the *original* predicate name."""
        query = self.magic_program.adorned.query
        out = []
        for binding in self.answers():
            atom = query.atom.substitute(binding)
            args = tuple(evaluate_ground(a) for a in atom.args)
            out.append(Atom(query.atom.pred, args))
        return sorted(set(out), key=lambda a: a.sort_key())


def _apply_deferred(
    rule: Rule, db: Database, context: EvalContext | None = None
) -> list[Atom]:
    ctx = ensure_context(context, db)
    if rule.is_grouping():
        return list(apply_grouping_rule(rule, db, context=ctx))
    return derive_facts(db, ctx.plan_for(rule), executor=ctx.executor)


def evaluate_magic(
    program: Program,
    query: Query,
    edb: Iterable[Atom] = (),
    check: bool = True,
    max_phases: int = 10_000,
    rewrite=magic_rewrite,
    hooks: EngineHooks | None = None,
) -> MagicResult:
    """Answer ``query`` over ``program`` + ``edb`` via magic sets.

    Equivalent (Theorem 4) to computing the full minimal model and
    matching the query, but restricted to facts relevant to the query's
    constants.  ``rewrite`` selects the rewriting algorithm (default:
    Generalized Magic Sets; see
    :func:`repro.magic.supplementary.supplementary_rewrite`).
    """
    if check:
        check_program(program)
    mp = rewrite(program, query)

    idb = mp.adorned.idb_predicates
    db = Database(
        chain(
            edb,
            (r.head for r in program.facts() if r.head.pred not in idb),
            (mp.seed,),
        )
    )

    phase1_rules = list(mp.magic_rules) + list(mp.modified_rules)
    # condensed once: the saturation sweep walks the rewritten rules'
    # SCCs in dependency order instead of one global fixpoint.
    phase1_schedule = [
        c for c in condense_program(Program(phase1_rules)) if c.rules
    ]
    derived_by_rule: dict[Rule, set[Atom]] = {r: set() for r in mp.deferred_rules}
    stats = MagicStats()
    # one context across all saturation/deferred phases: every rule in
    # the rewritten program is planned exactly once for the whole run.
    ctx = EvalContext(db, hooks=hooks)

    while True:
        stats.phases += 1
        if stats.phases > max_phases:
            raise UnstableMagicEvaluationError(
                f"no fixpoint after {max_phases} phases"
            )
        for component in phase1_schedule:
            if component.recursive:
                stats.saturation.merge(
                    seminaive_fixpoint(db, component.rules, context=ctx)
                )
            else:
                stats.saturation.merge(
                    single_pass(db, component.rules, context=ctx)
                )
        changed = False
        for rule in mp.deferred_rules:
            for fact in _apply_deferred(rule, db, context=ctx):
                derived_by_rule[rule].add(fact)
                if db.add(fact):
                    stats.deferred_facts += 1
                    changed = True
        if not changed:
            break

    # stability validation: every deferred rule, recomputed now, must
    # derive exactly what it derived during the run.
    for rule in mp.deferred_rules:
        final = set(_apply_deferred(rule, db, context=ctx))
        if final != derived_by_rule[rule]:
            raise UnstableMagicEvaluationError(
                "deferred rule derivations changed after fixpoint: "
                f"{rule!r}"
            )

    return MagicResult(db, mp, stats)


def on_demand_rows(
    program: Program,
    query: Query,
    edb: Iterable[Atom] = (),
    hooks: EngineHooks | None = None,
) -> tuple[tuple, ...]:
    """Ground argument rows answering ``query``, computed on demand.

    The magic pipeline as a demand-driven *row* producer: evaluate the
    rewritten program (so only facts relevant to the query's bound
    arguments are derived) and return the full argument tuples of the
    matching answer atoms, sorted.  This is the population entry point
    of the server's answer cache — rows for a relaxed pattern can
    answer any more-bound query later by re-matching, which variable
    bindings cannot.
    """
    result = evaluate_magic(program, query, edb=edb, hooks=hooks)
    return tuple(atom.args for atom in result.answer_atoms())
