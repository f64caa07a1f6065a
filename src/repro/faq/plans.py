"""FAQ evaluation over free-connex tree decompositions (§8).

The §8 recipe for proper conjunctive and FAQ-SS queries: pick a *free-connex*
tree decomposition, aggregate bound variables bottom-up below the connex
core (junction-tree message passing — each ⊕ happens at the top of the
variable's connected region, each ⊗ inside a bag), then evaluate the core —
an acyclic query mentioning only free variables — without any aggregation.
The per-node intermediates stay within the decomposition's bag sizes, which
is exactly the da-fhtw-over-free-connex-decompositions runtime the paper
states for FAQ-SS queries (end of §8).  Each node is one
:func:`~repro.faq.annotated.sum_product` of its factors and inbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.exceptions import DecompositionError, QueryError
from repro.faq.annotated import AnnotatedRelation, sum_product
from repro.faq.freeconnex import connex_core, free_connex_decompositions
from repro.faq.query import FAQQuery
from repro.relational.database import Database

__all__ = ["FaqPlanResult", "faq_decomposition_plan"]


@dataclass
class FaqPlanResult:
    """Output and trace of a decomposition-based FAQ evaluation.

    Attributes:
        result: the annotated output over the free variables.
        decomposition: the free-connex decomposition used.
        core: bag indices of its connex core.
        max_intermediate: the largest bag product materialized — the join
            rows of one node's factors and inbox (its message is never
            larger).
        messages: number of junction-tree messages passed.
    """

    result: AnnotatedRelation
    decomposition: TreeDecomposition
    core: frozenset
    max_intermediate: int = 0
    messages: int = 0


def _pick_decomposition(
    query: FAQQuery, decomposition: TreeDecomposition | None
) -> tuple[TreeDecomposition, frozenset]:
    if decomposition is not None:
        core = connex_core(decomposition, query.free)
        if core is None:
            raise DecompositionError(
                f"decomposition {decomposition} is not free-connex for "
                f"free variables {sorted(query.free)}"
            )
        return decomposition, core
    candidates = free_connex_decompositions(query.hypergraph(), query.free)
    if not candidates:
        raise DecompositionError(
            f"no free-connex decomposition found for {query}"
        )
    best = min(candidates, key=lambda td: (td.max_bag_size(), len(td.bags)))
    return best, connex_core(best, query.free)


def faq_decomposition_plan(
    query: FAQQuery,
    database: Database,
    annotations: Mapping[str, Mapping[tuple, object]] | None = None,
    decomposition: TreeDecomposition | None = None,
) -> FaqPlanResult:
    """Evaluate an FAQ-SS query by message passing on a free-connex TD.

    Args:
        query: the FAQ query.
        database: input relations for the body atoms.
        annotations: optional per-relation tuple weights.
        decomposition: a free-connex decomposition to use; the smallest-bag
            candidate from bound-first elimination orders is chosen when
            omitted.

    Returns:
        A :class:`FaqPlanResult`; its ``result`` equals the brute-force
        ``query.evaluate_naive(...)``.

    Raises:
        DecompositionError: if the given (or no discoverable) decomposition
            is free-connex for the query's free variables.
    """
    td, core = _pick_decomposition(query, decomposition)
    bags = td.bags
    parent = td.junction_tree()
    plan = FaqPlanResult(
        result=None,  # type: ignore[arg-type] - set below
        decomposition=td,
        core=core,
    )

    # Re-root so that a core bag (when one exists) is the tree root: the
    # whole core is then an ancestor-closed region (it is connected), and
    # upward messages never cross it.
    root = next(iter(sorted(core))) if core else 0
    parent = _reroot(parent, root)

    # Assign every factor to one bag covering it.
    factors = query.bind(database, annotations)
    assigned: dict[int, list[AnnotatedRelation]] = {i: [] for i in range(len(bags))}
    for factor in factors:
        home = next(
            (i for i, bag in enumerate(bags) if factor.attributes <= bag), None
        )
        if home is None:
            raise QueryError(
                f"decomposition {td} does not cover factor {factor.name}"
            )
        assigned[home].append(factor)

    # Bottom-up message passing.  keep = χ(node) ∩ χ(parent): the running-
    # intersection property guarantees no free variable dies early (its
    # connected region always reaches the core through the parent).
    children: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for node, p in enumerate(parent):
        if p >= 0:
            children[p].append(node)

    order: list[int] = []

    def visit(node: int) -> None:
        for child in children[node]:
            visit(child)
        order.append(node)

    visit(root)

    inbox: dict[int, list[AnnotatedRelation]] = {i: [] for i in range(len(bags))}
    unit = AnnotatedRelation("1", (), query.semiring, {(): query.semiring.one})
    free = frozenset(query.free)
    core_results: list[AnnotatedRelation] = []
    for node in order:
        parts = assigned[node] + inbox[node] or [unit]
        attrs = frozenset().union(*(part.attributes for part in parts))
        if node in core:
            # Core bags are never aggregated; they join at the end.
            keep = attrs
        elif node == root:
            # The coreless (scalar) case aggregates everything at the root.
            keep = free
        else:
            keep = attrs & (bags[parent[node]] | free)
        result, product_rows = sum_product(parts, keep, name=f"m[{node}->{parent[node]}]")
        plan.max_intermediate = max(plan.max_intermediate, product_rows)
        if node in core or node == root:
            core_results.append(result)
        else:
            plan.messages += 1
            inbox[parent[node]].append(result)

    # Core phase: an acyclic join over free-only bags, no aggregation.
    plan.result, product_rows = sum_product(core_results, free, name=query.name)
    plan.max_intermediate = max(plan.max_intermediate, product_rows)
    return plan


def _reroot(parent: list[int], new_root: int) -> list[int]:
    """Reverse the parent pointers along the path from ``new_root`` up."""
    out = list(parent)
    node = new_root
    previous = -1
    while node != -1:
        next_up = out[node]
        out[node] = previous
        previous = node
        node = next_up
    return out
