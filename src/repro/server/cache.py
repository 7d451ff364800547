"""The serving tier's subsumption-aware answer cache.

One :class:`AnswerCache` sits between :class:`repro.server.LDLServer`
and its session and memoizes query answers across clients:

* **Keying.**  A query is canonicalized to ``(pred, adornment, bound
  arguments)``: every ground argument is evaluated to its U-value and
  recorded with its position, every non-ground argument is *relaxed* to
  a fresh, distinct variable.  ``? p(f(X), a)`` and ``? p(Y, a)`` thus
  share one entry — the cache stores full ground argument **rows** for
  the relaxed pattern and re-derives each caller's bindings by matching
  the caller's own atom against the rows with the engine's own answer
  function, :func:`repro.engine.evaluator.match_rows` (repeated
  variables, compound patterns, and arithmetic in ground positions all
  fall out of it), so a cached answer is indistinguishable from an
  engine answer.

* **Subsumption.**  A miss on the exact key scans the predicate's other
  entries for a *broader* one — same predicate, bound positions a
  subset of ours with equal values.  Its rows are a superset of the
  answer set, so filtering them through the query pattern serves the
  query without touching the engine (counted as ``hit-subsumed``).

* **Population.**  Misses with at least one bound argument on an IDB
  predicate are computed *on demand* through the §6 magic-set pipeline
  (:func:`repro.magic.evaluate.on_demand_rows` via
  :meth:`repro.api.LDL.on_demand_rows`), so a bound query on a large
  database never materializes the full model.  Free queries and EDB
  predicates read the session's (already materialized or memoized)
  model directly; any magic-side failure falls back to the model too,
  counted per exception type under ``magic_fallbacks`` in
  :meth:`AnswerCache.report`.

* **Invalidation.**  Writes invalidate *precisely*: the session's
  delta listeners deliver an :class:`repro.engine.maintain.Invalidation`
  naming the predicates whose extensions (may have) changed, and an
  entry is dropped only when its **support set** — the query predicate
  plus everything it transitively depends on in the rule dependency
  graph — intersects them.  Entries and invalidations both carry WAL
  LSNs when the session is durable, so an entry filled at or after the
  mutation that triggered an invalidation survives it.  A wholesale
  event (``preds=None``, e.g. rules changed) clears everything.

The cache is thread-safe (one internal mutex) but relies on its caller
for read/write ordering: the server fills entries while holding the
read side of its lock and invalidates under the write side, so a fill
can never interleave with the mutation it would go stale against.

``REPRO_ANSWER_CACHE=off`` (or ``0``/``false``/``no``) disables the
cache process-wide — the differential-testing leg CI runs for the
server suite.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import networkx as nx

from repro.engine.evaluator import _query_tuples, match_rows
from repro.errors import EvaluationError, NotInUniverseError
from repro.program.dependency import dependency_graph
from repro.program.rule import Atom, Query
from repro.terms.term import Term, Var, evaluate_ground

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import LDL
    from repro.engine.maintain import Invalidation

#: A cache key: predicate, b/f adornment, ((position, value), ...).
Key = tuple[str, str, tuple[tuple[int, Term], ...]]


def cache_enabled(default: bool = True) -> bool:
    """Whether ``REPRO_ANSWER_CACHE`` allows answer caching."""
    value = os.environ.get("REPRO_ANSWER_CACHE", "").strip().lower()
    if value in ("off", "0", "false", "no"):
        return False
    if value in ("on", "1", "true", "yes"):
        return True
    return default


class _Entry:
    """Rows for one relaxed pattern, stamped with their fill LSN."""

    __slots__ = ("key", "rows", "lsn")

    def __init__(
        self, key: Key, rows: tuple[tuple[Term, ...], ...], lsn: int | None
    ) -> None:
        self.key = key
        self.rows = rows
        self.lsn = lsn


class AnswerCache:
    """An LRU answer cache with subsumption and LSN invalidation."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._mutex = threading.Lock()
        self._entries: OrderedDict[Key, _Entry] = OrderedDict()
        self._session: "LDL | None" = None
        # support-set memo, rebuilt whenever the program object changes
        self._support: dict[str, frozenset[str]] = {}
        self._graph = None
        self._graph_program = None
        self.hits = 0
        self.misses = 0
        self.subsumed = 0
        self.invalidation_events = 0
        self.entries_invalidated = 0
        #: on-demand magic failures answered by a model scan instead,
        #: per exception type name.
        self.magic_fallbacks: dict[str, int] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    # -- wiring ------------------------------------------------------------

    def bind_session(self, session: "LDL", register: bool = True) -> "AnswerCache":
        """Attach the session answering misses; optionally self-register
        :meth:`apply_invalidation` as its delta listener (the server
        registers a metrics-counting wrapper instead)."""
        self._session = session
        if register:
            add = getattr(session, "add_delta_listener", None)
            if add is not None:
                add(self.apply_invalidation)
        return self

    # -- answering ---------------------------------------------------------

    def answers(self, query: Query) -> tuple[list[dict], str]:
        """Answer ``query``; returns ``(bindings, how)`` where ``how``
        is ``"hit"``, ``"hit-subsumed"``, ``"miss"``, or
        ``"unsatisfiable"`` (a ground argument fell outside U)."""
        try:
            key, pattern, relaxed = self._analyze(query)
        except (NotInUniverseError, EvaluationError):
            return [], "unsatisfiable"
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return match_rows(pattern, entry.rows), "hit"
            donor = self._subsuming_entry(key)
            if donor is not None:
                self._entries.move_to_end(donor.key)
                self.hits += 1
                self.subsumed += 1
                return match_rows(pattern, donor.rows), "hit-subsumed"
        # miss: evaluate outside the mutex (possibly slow), then insert.
        rows, lsn = self._load(key, relaxed)
        with self._mutex:
            self.misses += 1
            if key not in self._entries:
                self._entries[key] = _Entry(key, rows, lsn)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        return match_rows(pattern, rows), "miss"

    def _subsuming_entry(self, key: Key) -> _Entry | None:
        """A broader entry able to answer ``key`` by filtering, if any.

        Broader means: same predicate, and every bound position of the
        candidate is bound in ``key`` to the same value — its rows are
        then a superset of the rows ``key`` would store.
        """
        pred, _, bound = key
        values = dict(bound)
        for other in reversed(self._entries):  # most recently used first
            if other[0] != pred or other == key:
                continue
            if all(values.get(i) == t for i, t in other[2]):
                return self._entries[other]
        return None

    @staticmethod
    def _analyze(query: Query) -> tuple[Key, Atom, Query]:
        """Key, match pattern, and relaxed load query for ``query``.

        Ground arguments are evaluated to U-values (raising when one
        falls outside U — the query then has no answers); non-ground
        arguments relax to fresh distinct variables in the load query
        while the match pattern keeps them (preserving repeated
        variables and compound shapes for filtering).
        """
        atom = query.atom
        bound: list[tuple[int, Term]] = []
        adornment: list[str] = []
        pattern_args: list[Term] = []
        relaxed_args: list[Term] = []
        for i, arg in enumerate(atom.args):
            if arg.is_ground():
                value = evaluate_ground(arg)
                bound.append((i, value))
                adornment.append("b")
                pattern_args.append(value)
                relaxed_args.append(value)
            else:
                adornment.append("f")
                pattern_args.append(arg)
                relaxed_args.append(Var(f"_Ans{i}"))
        key: Key = (atom.pred, "".join(adornment), tuple(bound))
        return (
            key,
            Atom(atom.pred, tuple(pattern_args)),
            Query(Atom(atom.pred, tuple(relaxed_args))),
        )

    def _load(
        self, key: Key, relaxed: Query
    ) -> tuple[tuple[tuple[Term, ...], ...], int | None]:
        """Rows for the relaxed pattern plus the LSN they reflect."""
        session = self._session
        if session is None:
            raise EvaluationError("AnswerCache.answers needs a bound session")
        lsn = self._current_lsn(session)
        pred, adornment, _ = key
        if "b" in adornment and pred in session.program.idb_predicates():
            try:
                return tuple(session.on_demand_rows(relaxed)), lsn
            except Exception as exc:  # noqa: BLE001 - model fallback is always valid
                name = type(exc).__name__
                with self._mutex:
                    self.magic_fallbacks[name] = (
                        self.magic_fallbacks.get(name, 0) + 1
                    )
        return self._rows_from_model(session, relaxed), lsn

    @staticmethod
    def _rows_from_model(
        session: "LDL", relaxed: Query
    ) -> tuple[tuple[Term, ...], ...]:
        """Matching rows straight off the session's materialized model."""
        db = session.model().database
        rows = {tuple(args) for args in _query_tuples(db, relaxed)}
        return tuple(
            sorted(rows, key=lambda r: tuple(t.sort_key() for t in r))
        )

    @staticmethod
    def _current_lsn(session: "LDL") -> int | None:
        store = getattr(session, "store", None)
        if store is not None:
            return store.model.maintenance.last_lsn
        return None

    # -- invalidation ------------------------------------------------------

    def apply_invalidation(self, event: "Invalidation") -> int:
        """Drop entries the update behind ``event`` may have staled.

        Returns how many entries were dropped.  An entry survives when
        its support set misses the changed predicates, or when its LSN
        shows it was filled at or after the invalidating mutation.
        """
        with self._mutex:
            self.invalidation_events += 1
            if event.preds is None:  # wholesale: rules changed
                dropped = len(self._entries)
                self._entries.clear()
                self._support.clear()
                self._graph = None
                self._graph_program = None
                self.entries_invalidated += dropped
                return dropped
            changed = frozenset(event.preds)
            if not changed:
                return 0
            victims = [
                key
                for key, entry in self._entries.items()
                if not (
                    event.lsn is not None
                    and entry.lsn is not None
                    and entry.lsn >= event.lsn
                )
                and self._support_of(key[0]) & changed
            ]
            for key in victims:
                del self._entries[key]
            self.entries_invalidated += len(victims)
            return len(victims)

    def _support_of(self, pred: str) -> frozenset[str]:
        """``pred`` plus everything it transitively depends on."""
        program = self._session.program if self._session is not None else None
        if program is not self._graph_program:
            self._graph_program = program
            self._support.clear()
            self._graph = (
                dependency_graph(program) if program is not None else None
            )
        support = self._support.get(pred)
        if support is None:
            if self._graph is None or pred not in self._graph:
                support = frozenset((pred,))
            else:
                # dependency edges run head -> body, so descendants are
                # the predicates pred's derivations can read.
                support = frozenset(nx.descendants(self._graph, pred)) | {pred}
            self._support[pred] = support
        return support

    def clear(self) -> int:
        """Drop everything (counted as one wholesale invalidation)."""
        from repro.engine.maintain import Invalidation

        return self.apply_invalidation(Invalidation(preds=None, precise=False))

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """JSON-friendly counters for the ``stats`` op and benchmarks."""
        with self._mutex:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "subsumed": self.subsumed,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "invalidation_events": self.invalidation_events,
                "entries_invalidated": self.entries_invalidated,
                "magic_fallbacks": dict(self.magic_fallbacks),
            }

    def __repr__(self) -> str:
        return (
            f"AnswerCache({len(self)} entries, {self.hits} hits, "
            f"{self.misses} misses)"
        )


__all__ = ["AnswerCache", "cache_enabled"]
