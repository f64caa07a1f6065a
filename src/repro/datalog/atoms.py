"""Atoms: predicate symbols applied to variable tuples.

An :class:`Atom` ties a relation name to an ordered tuple of query variables.
When evaluated against a :class:`~repro.relational.database.Database`, the
stored relation's columns are realigned to the atom's variable names, so the
same base relation can be used under several variable bindings (e.g. the two
occurrences of an edge relation in a path query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.exceptions import QueryError, SchemaError
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = ["Atom", "binding_cardinalities"]


@dataclass(frozen=True)
class Atom:
    """A predicate ``name(variables...)``.

    Attributes:
        name: the relation name this atom refers to.
        variables: ordered, distinct query variables.
    """

    name: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise QueryError(
                f"atom {self.name} repeats a variable: {self.variables}"
            )

    @property
    def variable_set(self) -> frozenset:
        return frozenset(self.variables)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def bind(self, database: Database) -> Relation:
        """The database relation realigned to this atom's variable names."""
        relation = database[self.name]
        if len(relation.schema) != self.arity:
            raise SchemaError(
                f"atom {self} has arity {self.arity} but relation "
                f"{relation.name} has arity {len(relation.schema)}"
            )
        if relation.schema == self.variables:
            return relation
        # Positional rename: per-column code translation between the stored
        # attributes' dictionaries and the variables' dictionaries — no
        # decode/re-encode of whole tuples.
        return relation.relabeled(self.name, self.variables)

    def __str__(self) -> str:
        return f"{self.name}({','.join(self.variables)})"


def binding_cardinalities(atoms: Iterable[Atom], database: Database) -> ConstraintSet:
    """The default degree constraints of a body: ``|R| <= len(R)`` per atom.

    Each constraint is over the atom's own variables, whatever the stored
    schema, so a self-join or a relation bound under other names is
    constrained as the query uses it, and relations no atom names add
    nothing.  Atoms over one variable set share the tightest bound.
    """
    return ConstraintSet(
        DegreeConstraint.make((), atom.variables, max(1, len(database[atom.name])))
        for atom in atoms
    )
