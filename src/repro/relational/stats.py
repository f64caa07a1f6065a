"""Degree-statistics extraction (§2.2).

Helpers that turn a concrete database into the degree-constraint sets the
bound/width machinery consumes: full per-relation statistics and
functional-dependency discovery.

Profiling a relation ranges over every pair ``X ⊂ Y ⊆ attrs(R)``; the pairs
are enumerated on the bitmask kernel (:class:`~repro.core.varmap.VarMap` —
submask loops over machine ints in the canonical size-lexicographic order)
instead of hashing ``4^n`` frozenset pairs, and each ``deg_R(Y|X)`` is one
linear run scan over the sorted code columns (:meth:`Relation.degree`), so
wide relations profile without any per-tuple hashing.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.core.varmap import VarMap
from repro.relational.relation import Relation

__all__ = [
    "relation_statistics",
    "discover_functional_dependencies",
]


def relation_statistics(
    relation: Relation,
    pairs: Iterable[tuple[frozenset, frozenset]] | None = None,
) -> ConstraintSet:
    """All degree constraints a single relation satisfies tightly.

    Args:
        relation: the relation to profile.
        pairs: restrict to the given ``(X, Y)`` pairs; default is every pair
            ``X ⊂ Y ⊆ attrs(R)`` with ``X`` possibly empty, enumerated over
            masks in the canonical size-lexicographic order.
    """
    attrs = tuple(sorted(relation.attributes))
    constraints: list[DegreeConstraint] = []
    if pairs is None:
        varmap = VarMap.of(attrs)
        for y_mask in varmap.subset_masks():
            if not y_mask:
                continue
            y_set = varmap.set_of(y_mask)
            for x_mask in varmap.subset_masks(y_mask):
                if x_mask == y_mask:
                    continue
                x_set = varmap.set_of(x_mask)
                bound = max(1, relation.degree(y_set, x_set))
                constraints.append(DegreeConstraint.make(x_set, y_set, bound))
        return ConstraintSet(constraints)
    for x, y in pairs:
        bound = max(1, relation.degree(y, x))
        constraints.append(DegreeConstraint.make(x, y, bound))
    return ConstraintSet(constraints)


def discover_functional_dependencies(relation: Relation) -> list[DegreeConstraint]:
    """All minimal single-step FDs ``X -> Y`` that hold in ``relation``.

    Returns constraints with bound 1 for every pair ``X ⊂ Y`` where each
    ``X``-value determines the ``Y``-value, keeping only the inclusion-minimal
    left-hand sides per ``Y``.  Minimality tests are single ``&`` ops on the
    candidate masks.
    """
    attrs = tuple(sorted(relation.attributes))
    varmap = VarMap.of(attrs)
    found: list[DegreeConstraint] = []
    for y_mask in varmap.subset_masks():
        if not y_mask:
            continue
        y_set = varmap.set_of(y_mask)
        minimal_lhs: list[int] = []
        # Canonical submask order is size-lexicographic, matching the
        # historical sorted-by-len scan.
        for x_mask in varmap.subset_masks(y_mask):
            if x_mask == y_mask:
                continue
            if any(m & x_mask == m for m in minimal_lhs):
                continue
            x_set = varmap.set_of(x_mask)
            if relation.degree(y_set, x_set) <= 1:
                minimal_lhs.append(x_mask)
                found.append(DegreeConstraint.make(x_set, y_set, 1))
    return found
