"""Yannakakis' algorithm for acyclic joins [48].

Given a join tree — a tree whose nodes carry relations such that every
attribute's occurrences form a connected subtree — the algorithm:

1. performs a *full reduction* (two semijoin sweeps: leaves-to-root, then
   root-to-leaves), after which every remaining tuple participates in at
   least one output tuple;
2. answers Booleanly (any node non-empty after reduction) or materializes the
   full join bottom-up in time ``O(input + output)``.

The PANDA query drivers (Corollaries 7.11 and 7.13) call this on the tree
decomposition whose bags were materialized by PANDA.

The semijoin sweeps and the bottom-up join run on the columnar engine: each
semijoin is a membership test of shared-attribute keys against the
neighbour's, and each join is a sort-merge over the shared sorted-trie
layout (:mod:`repro.relational.operators`).  Since every sweep preserves
schemas, the intermediate trees reuse :meth:`JoinTree.with_relations` and
skip re-validating the running-intersection property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import DecompositionError
from repro.relational.operators import natural_join, semijoin
from repro.relational.relation import Relation

__all__ = ["JoinTree", "full_reduce", "acyclic_join", "acyclic_boolean"]


@dataclass
class JoinTree:
    """A rooted join tree: node ``i`` holds ``relations[i]``; ``parent[i]`` is
    the parent index (root has parent ``-1``).

    The running-intersection property is validated on construction.
    """

    relations: list[Relation]
    parent: list[int]

    def __post_init__(self) -> None:
        n = len(self.relations)
        if len(self.parent) != n:
            raise DecompositionError("parent array length mismatch")
        roots = [i for i, p in enumerate(self.parent) if p == -1]
        if n and len(roots) != 1:
            raise DecompositionError(f"join tree must have exactly 1 root, got {len(roots)}")
        self._validate_running_intersection()

    def _validate_running_intersection(self) -> None:
        """Every attribute's node set must be connected in the tree."""
        attr_nodes: dict[str, list[int]] = {}
        for i, relation in enumerate(self.relations):
            for attr in relation.attributes:
                attr_nodes.setdefault(attr, []).append(i)
        for attr, nodes in attr_nodes.items():
            if not _is_connected_in_tree(set(nodes), self.parent):
                raise DecompositionError(
                    f"attribute {attr!r} violates the running-intersection "
                    f"property (occurs at nodes {sorted(nodes)})"
                )

    def with_relations(self, relations: list[Relation]) -> "JoinTree":
        """A same-shape tree over schema-compatible replacement relations.

        Skips the running-intersection re-validation: semijoin sweeps only
        shrink node contents, never schemas, so the property is inherited.
        """
        if len(relations) != len(self.relations):
            raise DecompositionError("replacement relation count mismatch")
        clone = JoinTree.__new__(JoinTree)
        clone.relations = relations
        clone.parent = list(self.parent)
        return clone

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self, node: int) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p == node]

    def bottom_up_order(self) -> list[int]:
        """Node indices with every node after all of its children."""
        order: list[int] = []
        visited: set[int] = set()

        def visit(node: int) -> None:
            if node in visited:
                return
            visited.add(node)
            for child in self.children(node):
                visit(child)
            order.append(node)

        visit(self.root)
        if len(order) != len(self.relations):
            raise DecompositionError("join tree is disconnected")
        return order


def _is_connected_in_tree(nodes: set[int], parent: list[int]) -> bool:
    """Check that ``nodes`` induces a connected subgraph of the tree."""
    if not nodes:
        return True
    nodes = set(nodes)
    # Climb from every node, marking the paths; nodes is connected iff there is
    # a single "highest" node: every other node's parent-path reaches the set
    # again immediately (its parent in the induced forest exists).
    tops = 0
    for node in nodes:
        p = parent[node]
        if p == -1 or p not in nodes:
            tops += 1
    return tops == 1


def full_reduce(tree: JoinTree) -> JoinTree:
    """Two semijoin sweeps producing a fully reduced join tree."""
    order = tree.bottom_up_order()
    relations = list(tree.relations)
    # Leaves to root.
    for node in order:
        for child in tree.children(node):
            relations[node] = semijoin(relations[node], relations[child])
    # Root to leaves.
    for node in reversed(order):
        parent = tree.parent[node]
        if parent != -1:
            relations[node] = semijoin(relations[node], relations[parent])
    return tree.with_relations(relations)


def acyclic_boolean(tree: JoinTree) -> bool:
    """Is the acyclic join non-empty?  (Boolean query answer.)"""
    if not tree.relations:
        return True
    reduced = full_reduce(tree)
    return not reduced.relations[reduced.root].is_empty()


def acyclic_join(tree: JoinTree, name: str = "Q") -> Relation:
    """Materialize the full acyclic join in ``O(input + output)`` time.

    Joins fully reduced nodes bottom-up; because every partial join after full
    reduction extends to at least one output tuple, no intermediate exceeds
    the output size times the tree size.
    """
    if not tree.relations:
        return Relation(name, ())
    reduced = full_reduce(tree)
    relations = list(reduced.relations)
    for node in reduced.bottom_up_order():
        parent = reduced.parent[node]
        if parent != -1:
            relations[parent] = natural_join(relations[parent], relations[node])
    return relations[reduced.root].renamed(name)


def join_tree_from_bags(
    bag_relations: Iterable[Relation],
) -> JoinTree:
    """Build a join tree over bag relations greedily (maximum-overlap spanning tree).

    Raises:
        DecompositionError: if no valid join tree exists (the bags are not
            acyclic / do not admit a running-intersection arrangement).
    """
    relations = list(bag_relations)
    n = len(relations)
    if n == 0:
        return JoinTree([], [])
    # Maximum spanning tree on pairwise attribute overlaps satisfies the
    # running-intersection property whenever one exists (standard fact).
    parent = [-1] * n
    in_tree = {0}
    while len(in_tree) < n:
        best = None
        for i in in_tree:
            for j in range(n):
                if j in in_tree:
                    continue
                overlap = len(relations[i].attributes & relations[j].attributes)
                key = (overlap, -j)
                if best is None or key > best[0]:
                    best = (key, i, j)
        _, i, j = best
        parent[j] = i
        in_tree.add(j)
    return JoinTree(relations, parent)
