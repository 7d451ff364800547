"""A database of U-facts: one :class:`Relation` per predicate.

The database is the ``M`` of the paper's ``R(M)`` operator — a set of
U-facts — organized per predicate for indexed access.  Predicates are
keyed by name only; the first fact fixes the arity and later arity
mismatches raise.

Facts enter set-at-a-time: the constructor is the one ingest path for
base facts (EDBs, snapshots, interpretations), canonicalizing and
encoding them in a single pass and loading each predicate with one bulk
insert.  :meth:`Database.add` remains for single-fact updates.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from repro.engine.relation import ArgTuple, IdRow, Relation, encode_args
from repro.errors import EvaluationError
from repro.program.rule import Atom, canonical_atom
from repro.terms.term import Const, intern_term

_rid_of = attrgetter("_rid")
_PLAIN_CONST = frozenset({Const})


class Database:
    """Mutable set of ground atoms with per-predicate indexed storage."""

    __slots__ = ("_relations",)

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        """Load ``facts`` in one pass, in input order.

        An atom whose arguments are all interned already is encoded by
        reading their row IDs; one whose arguments are all plain
        :class:`~repro.terms.term.Const` interns them directly, left to
        right (exactly what canonicalizing them would do); any other
        atom goes through
        :func:`~repro.program.rule.canonical_atom` (which interns it,
        subterms first, and raises ``EvaluationError`` or
        ``NotInUniverseError`` on a fact outside U), so dense IDs are
        assigned in input order.  Rows are deduplicated per predicate,
        keeping the first spelling (a quoted ``"a"`` and a bare ``a``
        share a row), then each predicate is loaded with one
        :meth:`Relation.load`.  The first fact of a predicate fixes its
        arity; a mismatch raises ``ValueError``.
        """
        self._relations: dict[str, Relation] = {}
        pending: dict[str, dict[IdRow, ArgTuple]] = {}
        for atom in facts:
            args = atom.args
            row = tuple(map(_rid_of, args))
            if None in row:
                if _PLAIN_CONST.issuperset(map(type, args)):
                    # plain constants: canonical_atom would only intern
                    # them, so intern directly, left to right
                    args = tuple(map(intern_term, args))
                    row = tuple(map(_rid_of, args))
                else:
                    atom = canonical_atom(atom)
                    args = atom.args
                    row = encode_args(args)
            rows = pending.get(atom.pred)
            if rows is None:
                rows = pending[atom.pred] = {}
            rows.setdefault(row, args)
        for pred, rows in pending.items():
            self.relation(pred, len(next(iter(rows)))).load(rows)

    def relation(self, pred: str, arity: int | None = None) -> Relation:
        """The relation for ``pred``, creating it when ``arity`` given."""
        rel = self._relations.get(pred)
        if rel is None:
            if arity is None:
                raise EvaluationError(f"unknown predicate {pred!r}")
            rel = Relation(pred, arity)
            self._relations[pred] = rel
        return rel

    def has_relation(self, pred: str) -> bool:
        return pred in self._relations

    def get_relation(self, pred: str) -> Relation | None:
        """The relation for ``pred``, or None when unknown (no create)."""
        return self._relations.get(pred)

    def add(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when new."""
        if not atom.is_ground():
            raise ValueError(f"cannot store non-ground atom {atom!r}")
        args = atom.args
        rel = self._relations.get(atom.pred)
        if rel is None:
            rel = self.relation(atom.pred, len(args))
        row = getattr(atom, "_row", None)
        if row is not None:
            # the specialized executor derived this fact in ID space
            # and attached the row: skip re-encoding the arguments
            return rel.add_row(row, args)
        return rel.add(args)

    def add_tuple(self, pred: str, args: ArgTuple) -> bool:
        return self.relation(pred, len(args)).add(args)

    def add_rows(self, pred: str, arity: int, rows, decode):
        """Bulk-insert derived ID rows for one predicate; returns the
        (row, args) pairs that were new.  See :meth:`Relation.add_rows`
        — this is the vectorized fixpoint's scatter entry point."""
        rel = self._relations.get(pred)
        if rel is None:
            rel = self.relation(pred, arity)
        return rel.add_rows(rows, decode)

    def discard(self, atom: Atom) -> bool:
        """Remove a ground atom; returns True when it was present.

        The symmetric counterpart of :meth:`add` — WAL replay and other
        update paths rely on add/discard round-tripping exactly.
        """
        rel = self._relations.get(atom.pred)
        return rel is not None and rel.discard(atom.args)

    def remove(self, atom: Atom) -> None:
        """Remove a ground atom that must be present.

        Raises :class:`~repro.errors.EvaluationError` when the fact is
        not stored; use :meth:`discard` for remove-if-present.
        """
        if not self.discard(atom):
            raise EvaluationError(f"fact not in database: {atom!r}")

    def __contains__(self, atom: Atom) -> bool:
        rel = self._relations.get(atom.pred)
        return rel is not None and atom.args in rel

    def contains_tuple(self, pred: str, args: ArgTuple) -> bool:
        """Membership test without building an :class:`Atom` (the batch
        executor's anti-join probes by raw argument tuple)."""
        rel = self._relations.get(pred)
        return rel is not None and args in rel

    def tuples(self, pred: str) -> Iterable[ArgTuple]:
        rel = self._relations.get(pred)
        return iter(rel) if rel is not None else ()

    def lookup(
        self, pred: str, positions: tuple[int, ...], key: ArgTuple
    ) -> Iterable[ArgTuple]:
        rel = self._relations.get(pred)
        if rel is None:
            return ()
        return rel.lookup(positions, key)

    def probe_index(
        self, pred: str, positions: tuple[int, ...]
    ) -> dict[object, set[ArgTuple]] | None:
        """The predicate's hash index for ``positions`` (built on first
        use), or None for an unknown predicate.  See
        :meth:`Relation.probe_index`."""
        rel = self._relations.get(pred)
        return None if rel is None else rel.probe_index(positions)

    def id_rows(self, pred: str):
        """The predicate's stored ID rows (a set-like view), or None for
        an unknown predicate.  See :meth:`Relation.id_rows`."""
        rel = self._relations.get(pred)
        return None if rel is None else rel.id_rows()

    def id_index(self, pred: str, positions: tuple[int, ...]):
        """The predicate's ID-space hash index for ``positions`` (built
        on first use), or None for an unknown predicate.  The
        specialized executors probe this dict directly.  See
        :meth:`Relation.id_index`."""
        rel = self._relations.get(pred)
        return None if rel is None else rel.id_index(positions)

    def count(self, pred: str | None = None) -> int:
        """Number of facts for one predicate, or in total."""
        if pred is not None:
            rel = self._relations.get(pred)
            return len(rel) if rel is not None else 0
        return sum(len(rel) for rel in self._relations.values())

    def predicates(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def atoms(self, pred: str | None = None) -> Iterator[Atom]:
        """Iterate stored facts as atoms, optionally for one predicate."""
        preds = (pred,) if pred is not None else self.predicates()
        for name in preds:
            rel = self._relations.get(name)
            if rel is None:
                continue
            for args in rel:
                yield Atom(name, args)

    def sorted_atoms(self, pred: str | None = None) -> list[Atom]:
        """Deterministically ordered facts (for printing and tests)."""
        return sorted(self.atoms(pred), key=lambda a: a.sort_key())

    def copy(self) -> "Database":
        clone = Database()
        clone._relations = {
            pred: rel.copy() for pred, rel in self._relations.items()
        }
        return clone

    def as_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Database) and self.as_set() == other.as_set()

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{pred}:{len(rel)}" for pred, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
