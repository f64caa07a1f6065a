"""Disjunctive datalog rules (Eq. 4) and their models (Eq. 5).

A rule ``P : \\/_{B in B} T_B(A_B)  <-  /\\_{F in E} R_F(A_F)`` maps a database
``D`` to *models*: tuples of target tables ``T = (T_B)`` such that every
body-satisfying tuple ``t`` lands in some target, ``Π_B(t) ∈ T_B``.  The
*output size* ``|P(D)|`` is the minimum over models of ``max_B |T_B|``.

This module provides model checking, the trivial model, the greedy scan model
used in the entropic-bound proof (Lemma 4.1) — whose targets all have the
same size ``|T|`` with ``log |T| = h(B)`` for the scan entropy ``h`` — and a
brute-force minimal model size for small instances (used only in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.hypergraph import Hypergraph
from repro.datalog.atoms import Atom
from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.operators import difference, semijoin
from repro.relational.relation import Relation
from repro.relational.wcoj import generic_join

__all__ = ["DisjunctiveRule", "TargetModel"]


@dataclass(frozen=True)
class TargetModel:
    """A candidate model: one relation per target variable-set."""

    tables: tuple[Relation, ...]

    def by_attributes(self) -> dict[frozenset, Relation]:
        return {t.attributes: t for t in self.tables}

    @property
    def max_size(self) -> int:
        """The model's size ``max_B |T_B|`` (Eq. 5)."""
        return max((len(t) for t in self.tables), default=0)


@dataclass(frozen=True)
class DisjunctiveRule:
    """A single disjunctive datalog rule.

    Attributes:
        targets: the head variable-sets ``B`` (each a frozenset), in order.
        body: the body atoms.
        name: display name.
    """

    targets: tuple[frozenset, ...]
    body: tuple[Atom, ...]
    name: str = "P"

    def __post_init__(self) -> None:
        if not self.targets:
            raise QueryError("disjunctive rule needs at least one target")
        if not self.body:
            raise QueryError("disjunctive rule needs at least one body atom")
        body_vars = self.variable_set
        for target in self.targets:
            if not target <= body_vars:
                raise QueryError(
                    f"target {sorted(target)} uses variables outside the body"
                )

    @classmethod
    def single_target(
        cls, head: Iterable[str], body: Iterable[Atom], name: str = "P"
    ) -> "DisjunctiveRule":
        """The single-target rule of a conjunctive query."""
        return cls((frozenset(head),), tuple(body), name)

    @property
    def variable_set(self) -> frozenset:
        out: set[str] = set()
        for atom in self.body:
            out |= atom.variable_set
        return frozenset(out)

    def hypergraph(self) -> Hypergraph:
        return Hypergraph(
            tuple(sorted(self.variable_set)),
            tuple(atom.variable_set for atom in self.body),
        )

    # -- semantics -----------------------------------------------------------------

    def body_join(self, database: Database) -> Relation:
        """All tuples satisfying the body (the set ``T`` of Lemma 4.1)."""
        return generic_join(
            [atom.bind(database) for atom in self.body], name=f"body({self.name})"
        )

    def is_model(self, model: TargetModel, database: Database) -> bool:
        """Check ``T |= P``: every body tuple is covered by some target table.

        An anti-semijoin chain over the relational operators: each target
        removes the still-uncovered body tuples whose projection it holds
        (``uncovered - (uncovered ⋉ T_B)``), so the check runs on columns
        past the ``vectorize`` gate.
        """
        tables = model.by_attributes()
        if any(target not in tables for target in self.targets):
            return False
        uncovered = self.body_join(database)
        for target in self.targets:
            if not len(uncovered):
                break
            covered = semijoin(uncovered, tables[target])
            uncovered = difference(uncovered, covered)
        return not len(uncovered)

    def trivial_model(self, database: Database) -> TargetModel:
        """The cross-product-of-active-domains model (always valid)."""
        domains: dict[str, set] = {v: set() for v in self.variable_set}
        for atom in self.body:
            relation = atom.bind(database)
            atom_domains = [domains[var] for var in atom.variables]
            for row in relation:
                for value, domain in zip(row, atom_domains):
                    domain.add(value)
        tables = []
        for target in self.targets:
            attrs = tuple(sorted(target))
            rows = [()]
            for var in attrs:
                rows = [r + (v,) for r in rows for v in sorted(domains[var], key=repr)]
            tables.append(Relation(f"T_{''.join(attrs)}", attrs, rows))
        return TargetModel(tuple(tables))

    def scan_model(self, database: Database) -> TargetModel:
        """The Lemma 4.1 greedy scan model.

        Scans body tuples; a tuple is *kept* iff none of its target projections
        is already present, in which case all its projections are added.  The
        resulting tables all have size ``|T|`` (the number of kept tuples) and
        the uniform distribution over kept tuples has ``h(B) = log |T|`` for
        every target ``B`` — the construction behind the entropic upper bound.
        """
        body = self.body_join(database)
        target_attrs = [tuple(sorted(t)) for t in self.targets]
        seen: list[set] = [set() for _ in self.targets]
        kept: list[tuple] = []
        for row in sorted(body.tuples, key=repr):
            projections = [body.key_of(row, attrs) for attrs in target_attrs]
            if any(p in s for p, s in zip(projections, seen)):
                continue
            kept.append(row)
            for p, s in zip(projections, seen):
                s.add(p)
        tables = tuple(
            Relation(f"T_{''.join(attrs)}", attrs, s)
            for attrs, s in zip(target_attrs, seen)
        )
        return TargetModel(tables)

    def minimal_model_size(self, database: Database, limit: int = 1 << 16) -> int:
        """Exact ``|P(D)|`` by brute force (tests/tiny instances only).

        Exhaustively assigns every body tuple to one of its target
        projections and takes the assignment minimizing the largest target
        table — ``|targets|^|body join|`` assignments, so only feasible for
        tiny instances.

        Raises:
            QueryError: if the search space exceeds ``limit``.
        """
        body = self.body_join(database)
        rows = sorted(body.tuples, key=repr)
        target_attrs = [tuple(sorted(t)) for t in self.targets]
        if not rows:
            return 0
        # Each body tuple can be covered by any of its |targets| projections:
        # minimizing max table size is a covering problem.  Brute force over
        # assignments of tuples to targets, with memoized projections.
        projections = [
            [body.key_of(row, attrs) for attrs in target_attrs] for row in rows
        ]
        n_targets = len(self.targets)
        if n_targets ** len(rows) > limit:
            raise QueryError(
                f"minimal_model_size: {n_targets}^{len(rows)} assignments exceed limit"
            )
        best = len(rows)
        from itertools import product as iproduct

        for assignment in iproduct(range(n_targets), repeat=len(rows)):
            sizes = [set() for _ in range(n_targets)]
            for row_idx, t_idx in enumerate(assignment):
                sizes[t_idx].add(projections[row_idx][t_idx])
            best = min(best, max(len(s) for s in sizes))
        return best

    def __str__(self) -> str:
        head = " ∨ ".join(
            f"T{''.join(sorted(t))}({','.join(sorted(t))})" for t in self.targets
        )
        body = ", ".join(str(a) for a in self.body)
        return f"{self.name}: {head} :- {body}"
