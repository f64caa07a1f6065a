"""Tree decompositions (Definition 2.5).

A tree decomposition of ``H = ([n], E)`` is a pair ``(T, χ)`` with (1) every
hyperedge inside some bag ``χ(t)`` and (2) every vertex's bags forming a
connected subtree.  Because all width computations in this package only need
the *bag set* (Def. 2.6: widths are functions of the bags), the class stores
the bags; the actual junction tree is recovered on demand by a maximum-overlap
spanning tree, which satisfies the running-intersection property whenever any
tree arrangement does (the classical junction-tree theorem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.hypergraph import Hypergraph
from repro.exceptions import DecompositionError

__all__ = ["TreeDecomposition"]


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree decomposition, represented by its bag set.

    Attributes:
        bags: the bags ``χ(t)``, deduplicated, in a deterministic order.
    """

    bags: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if not self.bags:
            raise DecompositionError("tree decomposition needs at least one bag")

    @classmethod
    def from_bags(cls, bags: Iterable[Iterable[str]]) -> "TreeDecomposition":
        unique: dict[frozenset, None] = {}
        for bag in bags:
            unique.setdefault(frozenset(bag), None)
        ordered = tuple(
            sorted(unique, key=lambda b: (len(b), tuple(sorted(b))))
        )
        return cls(ordered)

    @property
    def bag_set(self) -> frozenset:
        return frozenset(self.bags)

    def vertices(self) -> frozenset:
        out: set[str] = set()
        for bag in self.bags:
            out |= bag
        return frozenset(out)

    # -- validity ------------------------------------------------------------------

    def covers(self, hypergraph: Hypergraph) -> bool:
        """Condition (1): every hyperedge is inside some bag."""
        return all(
            any(edge <= bag for bag in self.bags) for edge in hypergraph.edges
        )

    def junction_tree(self) -> list[int]:
        """Parent array of a junction tree over the bags (root has -1).

        Built as a maximum-overlap spanning tree, then verified against the
        running-intersection property.

        Raises:
            DecompositionError: if no junction tree exists (the bags are not a
                valid tree decomposition of anything).
        """
        n = len(self.bags)
        parent = [-1] * n
        if n <= 1:
            return parent
        in_tree = {0}
        while len(in_tree) < n:
            best = None
            for i in in_tree:
                for j in range(n):
                    if j in in_tree:
                        continue
                    key = (len(self.bags[i] & self.bags[j]), -j, -i)
                    if best is None or key > best[0]:
                        best = (key, i, j)
            _, i, j = best
            parent[j] = i
            in_tree.add(j)
        self._check_running_intersection(parent)
        return parent

    def _check_running_intersection(self, parent: list[int]) -> None:
        for v in self.vertices():
            holders = {i for i, bag in enumerate(self.bags) if v in bag}
            tops = 0
            for i in holders:
                if parent[i] == -1 or parent[i] not in holders:
                    tops += 1
            if tops != 1:
                raise DecompositionError(
                    f"vertex {v!r} does not induce a connected subtree "
                    f"(bags {sorted(holders)})"
                )

    def is_valid_for(self, hypergraph: Hypergraph) -> bool:
        """Full Definition 2.5 check."""
        if self.vertices() != hypergraph.vertex_set:
            return False
        if not self.covers(hypergraph):
            return False
        try:
            self.junction_tree()
        except DecompositionError:
            return False
        return True

    # -- structure relations -----------------------------------------------------------

    def is_non_redundant(self) -> bool:
        """No bag contained in another (§2.1.3)."""
        for a in self.bags:
            for b in self.bags:
                if a is not b and a <= b:
                    return False
        return True

    def is_dominated_by(self, other: "TreeDecomposition") -> bool:
        """Every bag of ``self`` is a subset of some bag of ``other``.

        When this holds, ``self`` is at least as good as ``other`` for every
        monotone width measure, so ``other`` is redundant in min-over-TD
        computations.
        """
        return all(
            any(bag <= other_bag for other_bag in other.bags) for bag in self.bags
        )

    def max_bag_size(self) -> int:
        return max(len(bag) for bag in self.bags)

    def __str__(self) -> str:
        bags = ", ".join("{" + ",".join(sorted(b)) + "}" for b in self.bags)
        return f"TD[{bags}]"
