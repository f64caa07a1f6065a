"""Database instances: named relations + constraint verification.

A :class:`Database` maps atom names to :class:`~repro.relational.relation.Relation`
objects and knows how to check that it *satisfies* a
:class:`~repro.core.constraints.ConstraintSet` (every constraint has a guard
among the relations, Def. 2.10) and how to *extract* the tightest degree
constraints it actually satisfies (§2.2: "degree constraints come from more
refined statistics of the input relations").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.core.hypergraph import Hypergraph
from repro.exceptions import SchemaError
from repro.relational.relation import Relation

__all__ = ["Database"]


class Database:
    """A named collection of relations (one per atom)."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: Relation) -> None:
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        return list(self._relations)

    def updated(self, replacements: Iterable[Relation]) -> "Database":
        """A new database with some relations replaced (same name order).

        The change-feed primitive of the incremental subsystem
        (:mod:`repro.incremental`): each replacement swaps in for the
        resident relation of the same name, every other relation is shared
        untouched, and the original database is never mutated — callers
        holding bindings or digests keyed on the old instance stay valid.

        Raises:
            SchemaError: if a replacement names a relation not present.
        """
        by_name = {}
        for relation in replacements:
            if relation.name not in self._relations:
                raise SchemaError(
                    f"cannot replace unknown relation {relation.name!r}"
                )
            by_name[relation.name] = relation
        fresh = Database()
        for name, relation in self._relations.items():
            fresh._relations[name] = by_name.get(name, relation)
        return fresh

    @property
    def max_relation_size(self) -> int:
        """``N`` of Eq. (27): the largest materialized relation size."""
        return max((len(r) for r in self._relations.values()), default=0)

    # -- constraints ------------------------------------------------------------------

    def satisfies(self, constraints: ConstraintSet) -> bool:
        """True if every constraint has a guard among the relations."""
        return all(self.find_guard(c) is not None for c in constraints)

    def find_guard(self, constraint: DegreeConstraint) -> Relation | None:
        """A relation guarding ``constraint``, or None.

        Prefers the relation whose attribute set matches ``Y`` exactly, then
        any superset relation with a satisfying degree.
        """
        candidates = sorted(
            (
                r
                for r in self._relations.values()
                if constraint.y <= r.attributes
            ),
            key=lambda r: (len(r.attributes), r.name),
        )
        for relation in candidates:
            if relation.guards(constraint):
                return relation
        return None

    def extract_cardinalities(self) -> ConstraintSet:
        """The cardinality constraints ``|R| <= len(R)`` of every relation."""
        return ConstraintSet(
            DegreeConstraint.make((), r.schema, max(1, len(r)))
            for r in self._relations.values()
        )

    def extract_degree_constraints(
        self, include_projections: bool = True
    ) -> ConstraintSet:
        """The tightest degree constraints each relation satisfies.

        For every relation ``R`` and every pair ``X ⊂ Y ⊆ attrs(R)`` (or just
        cardinalities when ``include_projections`` is False) emit
        ``(X, Y, deg_R(Y|X))``; the per-relation profiling is
        :func:`repro.relational.stats.relation_statistics` — pairs enumerated
        on the mask kernel, degrees as run scans over sorted code columns.
        """
        from repro.relational.stats import relation_statistics

        constraints: list[DegreeConstraint] = []
        for relation in self._relations.values():
            attrs = tuple(sorted(relation.attributes))
            constraints.append(
                DegreeConstraint.make((), attrs, max(1, len(relation)))
            )
            if include_projections:
                constraints.extend(relation_statistics(relation))
        return ConstraintSet(constraints)

    # -- hypergraph view -----------------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        """The multi-hypergraph whose edges are the relations' attribute sets."""
        return Hypergraph.from_edges(
            [tuple(sorted(r.attributes)) for r in self._relations.values()]
        )
