"""FAQ-SS queries: sum-product form over one semiring (§8; [2]).

An FAQ-SS query over hypergraph ``H = ([n], E)`` with free variables
``F ⊆ [n]`` computes

    φ(A_F) = ⊕_{A_{[n]−F}} ⊗_{S∈E} R_S(A_S)

where each input ``R_S`` is a semiring-annotated relation.  ``F = ∅`` gives a
scalar (e.g. a Boolean query or a total count), ``F = [n]`` an annotated full
join, and anything in between a "proper" aggregate query with group-by
columns ``A_F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.hypergraph import Hypergraph
from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import QueryError
from repro.faq.annotated import AnnotatedRelation, first_appearance_schema
from repro.faq.semiring import Semiring
from repro.relational.columns import ColumnSet, Dictionary
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = ["FAQQuery"]


@dataclass(frozen=True)
class FAQQuery:
    """An FAQ-SS query: free variables + body atoms + semiring.

    Attributes:
        free: ordered free (group-by) variables; empty means scalar output.
        body: atoms naming the annotated input factors.
        semiring: the single semiring of the query.
        name: display name for the output.
    """

    free: tuple[str, ...]
    body: tuple[Atom, ...]
    semiring: Semiring
    name: str = "φ"

    def __post_init__(self) -> None:
        if not self.body:
            raise QueryError("FAQ query needs at least one body atom")
        missing = frozenset(self.free) - self.variable_set
        if missing:
            raise QueryError(
                f"free variables {sorted(missing)} do not occur in the body"
            )
        if len(set(self.free)) != len(self.free):
            raise QueryError(f"duplicate free variables in {self.free}")

    @classmethod
    def from_conjunctive(
        cls, query: ConjunctiveQuery, semiring: Semiring
    ) -> "FAQQuery":
        """Lift a conjunctive query: its head becomes the free variables."""
        return cls(query.head, query.body, semiring, query.name)

    @property
    def variable_set(self) -> frozenset:
        out: set[str] = set()
        for atom in self.body:
            out |= atom.variable_set
        return frozenset(out)

    @property
    def bound(self) -> frozenset:
        """The aggregated-away variables ``[n] − F``."""
        return self.variable_set - frozenset(self.free)

    def hypergraph(self) -> Hypergraph:
        return Hypergraph(
            tuple(sorted(self.variable_set)),
            [atom.variable_set for atom in self.body],
        )

    def bind(
        self,
        database: Database,
        annotations: Mapping[str, Mapping[tuple, object]] | None = None,
    ) -> list[AnnotatedRelation]:
        """Resolve body atoms to annotated factors.

        Args:
            database: supplies each atom's set relation.
            annotations: optional per-relation-name tuple weights; relations
                not listed get the all-``one`` lifting.

        Raises:
            QueryError: if a listed relation has a tuple with no weight.
        """
        factors = []
        for atom in self.body:
            relation = atom.bind(database)
            weights = _checked_weights(relation, annotations)
            factors.append(
                AnnotatedRelation.from_relation(
                    relation,
                    self.semiring,
                    None if weights is None else weights.__getitem__,
                )
            )
        return factors

    def evaluate_naive(
        self,
        database: Database,
        annotations: Mapping[str, Mapping[tuple, object]] | None = None,
    ) -> AnnotatedRelation:
        """Brute force: a hash-join loop over the atoms' decoded tuples, then
        a dict ⊕-fold over the free variables.

        The oracle for every smarter evaluator, so it shares no FAQ code
        with them: it neither binds factors nor calls either kernel of
        :mod:`repro.faq.annotated`, reads each weight straight from
        ``annotations``, and sorts its own result rows.  Exponential in the
        worst case.

        Raises:
            QueryError: if a listed relation has a tuple with no weight.
        """
        semiring = self.semiring
        bindings: list[tuple[dict, object]] = [({}, semiring.one)]
        schemas = []
        for atom in self.body:
            relation = atom.bind(database)
            weights = _checked_weights(relation, annotations)
            seen = set().union(*schemas)
            shared = [a for a in relation.schema if a in seen]
            index: dict[tuple, list] = {}
            for row in map(relation.decode_row, relation.code_rows):
                assignment = dict(zip(relation.schema, row))
                weight = semiring.one if weights is None else weights[row]
                key = tuple(assignment[a] for a in shared)
                index.setdefault(key, []).append((assignment, weight))
            bindings = [
                ({**binding, **assignment}, semiring.mul(value, weight))
                for binding, value in bindings
                for assignment, weight in index.get(
                    tuple(binding[a] for a in shared), ()
                )
            ]
            schemas.append(relation.schema)
        schema = first_appearance_schema(schemas, self.free)
        totals: dict[tuple, object] = {}
        for binding, value in bindings:
            key = tuple(binding[a] for a in schema)
            totals[key] = semiring.add(totals[key], value) if key in totals else value
        encoders = [Dictionary.of(attr).encode for attr in schema]
        coded = sorted(
            (tuple([enc(v) for enc, v in zip(encoders, key)]), value)
            for key, value in totals.items()
            if value != semiring.zero
        )
        return AnnotatedRelation.from_column_set(
            self.name,
            ColumnSet(schema, [row for row, _ in coded], presorted=True),
            [value for _, value in coded],
            semiring,
        )

    def __str__(self) -> str:
        head = ", ".join(self.free)
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.name}({head}) = ⊕[{self.semiring}] {body}"


def _checked_weights(
    relation: Relation, annotations: Mapping[str, Mapping] | None
) -> Mapping | None:
    """``relation``'s tuple weights from ``annotations`` (``None``: all
    ``one``), checked to weigh every tuple."""
    weights = (annotations or {}).get(relation.name)
    if weights is not None:
        rows = map(relation.decode_row, relation.code_rows)
        missing = next((row for row in rows if row not in weights), None)
        if missing is not None:
            raise QueryError(
                f"annotations for {relation.name} give no weight for its "
                f"tuple {missing}"
            )
    return weights
