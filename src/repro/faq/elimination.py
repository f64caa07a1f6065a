"""InsideOut-style variable elimination for FAQ-SS queries (§8; [2, 23]).

The classic sum-product / bucket-elimination algorithm: process bound
variables one at a time — multiply every factor mentioning the variable,
⊕-marginalize it out, and put the resulting message back — then combine what
remains over the free variables.  The per-step intermediate is the bag
``{v} ∪ N(v)`` of the elimination ordering, so the runtime exponent is that
ordering's induced width, tying the evaluator to the width machinery of §7
(a bound-first ordering realizes a free-connex decomposition's width).

Each elimination step is one :func:`~repro.faq.annotated.sum_product`: the
one join over the touching factors, their annotations multiplied, and one
⊕-fold to the message's variables; annotation values stay exact
``Fraction``/``int`` end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import QueryError
from repro.faq.annotated import AnnotatedRelation, sum_product
from repro.faq.query import FAQQuery
from repro.relational.database import Database

__all__ = ["EliminationResult", "variable_elimination"]


@dataclass
class EliminationResult:
    """Output and execution trace of one variable-elimination run.

    Attributes:
        result: the annotated output over the free variables.
        order: the elimination order actually used (bound variables only).
        bags: the variable set touched at each elimination step — the bags
            of the induced decomposition; ``max(len(bag))−1`` is the induced
            treewidth the run paid.
        max_intermediate: the largest bag product materialized — the join
            rows of one elimination step (its message is never larger).
    """

    result: AnnotatedRelation
    order: tuple[str, ...]
    bags: list[frozenset] = field(default_factory=list)
    max_intermediate: int = 0

    @property
    def induced_width(self) -> int:
        return max((len(bag) for bag in self.bags), default=1) - 1


def _default_bound_order(query: FAQQuery) -> tuple[str, ...]:
    """Min-degree heuristic over the moral graph of the bound variables."""
    adjacency: dict[str, set[str]] = {v: set() for v in query.variable_set}
    for atom in query.body:
        for a in atom.variable_set:
            adjacency[a] |= atom.variable_set - {a}
    bound = set(query.bound)
    order: list[str] = []
    while bound:
        v = min(bound, key=lambda u: (len(adjacency[u] & bound), u))
        order.append(v)
        neighbours = adjacency[v]
        for a in neighbours:
            adjacency[a] |= neighbours - {a}
            adjacency[a].discard(v)
        bound.discard(v)
    return tuple(order)


def variable_elimination(
    query: FAQQuery,
    database: Database,
    annotations: Mapping[str, Mapping[tuple, object]] | None = None,
    order: Sequence[str] | None = None,
) -> EliminationResult:
    """Evaluate an FAQ-SS query by eliminating its bound variables.

    Args:
        query: the FAQ query.
        database: input relations for the body atoms.
        annotations: optional per-relation tuple weights (see
            :meth:`FAQQuery.bind`).
        order: elimination order for the *bound* variables; defaults to the
            min-degree heuristic.  Free variables are never eliminated.

    Returns:
        An :class:`EliminationResult` whose ``result`` equals
        ``query.evaluate_naive(...)`` (the tests enforce this equality).

    Raises:
        QueryError: if ``order`` is not a permutation of the bound variables.
    """
    if order is None:
        order = _default_bound_order(query)
    order = tuple(order)
    if set(order) != set(query.bound):
        raise QueryError(
            f"elimination order {order} must cover exactly the bound "
            f"variables {sorted(query.bound)}"
        )

    factors = query.bind(database, annotations)
    trace = EliminationResult(
        result=None,  # type: ignore[arg-type] - set below
        order=order,
    )

    for variable in order:
        touching, rest = [], []
        for factor in factors:
            (touching if variable in factor.attributes else rest).append(factor)
        if not touching:
            continue
        bag = frozenset().union(*(factor.attributes for factor in touching))
        trace.bags.append(bag)
        message, product_rows = sum_product(
            touching, bag - {variable}, name=f"m[{variable}]"
        )
        trace.max_intermediate = max(trace.max_intermediate, product_rows)
        rest.append(message)
        factors = rest

    # Combine the residual factors (all over free variables) and project to
    # the declared free schema.
    trace.result, product_rows = sum_product(factors, query.free, name=query.name)
    trace.max_intermediate = max(trace.max_intermediate, product_rows)
    return trace
