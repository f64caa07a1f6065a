"""Multi-hypergraphs of conjunctive queries (paper §2).

A query ``Q(A_[n]) <- /\\_{F in E} R_F(A_F)`` is associated with the
multi-hypergraph ``H = ([n], E)``; several atoms may share the same variable
set, so edges are stored as an ordered sequence, not a set.  Vertices are
arbitrary strings (the paper's ``A_1 ... A_n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from repro.core.varmap import VarMap
from repro.exceptions import QueryError

__all__ = ["Hypergraph", "VarSet", "powerset", "nonempty_subsets"]

#: A set of query variables.  Used pervasively as LP-variable names and bag ids.
VarSet = frozenset


def powerset(universe: Iterable[str]) -> Iterator[frozenset]:
    """Yield all subsets of ``universe`` (including the empty set)."""
    items = tuple(universe)
    return (
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


def nonempty_subsets(universe: Iterable[str]) -> Iterator[frozenset]:
    """Yield all non-empty subsets of ``universe``."""
    return (s for s in powerset(universe) if s)


@dataclass(frozen=True)
class Hypergraph:
    """A multi-hypergraph ``H = (V, E)`` with ordered, possibly repeated edges.

    Attributes:
        vertices: the query variables, in a fixed display order.
        edges: the atom variable-sets, one per atom, in atom order.
    """

    vertices: tuple[str, ...]
    edges: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise QueryError("duplicate vertices in hypergraph")
        for edge in self.edges:
            extra = edge - vertex_set
            if extra:
                raise QueryError(f"edge {sorted(edge)} uses unknown vertices {sorted(extra)}")

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[str]]) -> "Hypergraph":
        """Build a hypergraph whose vertex order is first-appearance order."""
        edge_sets = [frozenset(edge) for edge in edges]
        seen: dict[str, None] = {}
        for edge in edge_sets:
            for v in sorted(edge):
                seen.setdefault(v, None)
        return cls(tuple(seen), tuple(edge_sets))

    # -- basic accessors --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    # -- mask helpers (the bitmask set-function kernel) ---------------------------

    @property
    def varmap(self) -> VarMap:
        """The interned vertex-name ↔ bit-position map for this vertex order."""
        return VarMap.of(self.vertices)

    def mask_of(self, subset: Iterable[str]) -> int:
        """The bit mask of a vertex subset (see :class:`~repro.core.varmap.VarMap`)."""
        return self.varmap.mask_of(subset)

    def set_of(self, mask: int) -> frozenset:
        """The vertex subset of a bit mask."""
        return self.varmap.set_of(mask)

    def edge_masks(self) -> tuple[int, ...]:
        """The edges as bit masks, in atom order."""
        vm = self.varmap
        return tuple(vm.mask_of(edge) for edge in self.edges)

    def edge_multiset(self) -> dict[frozenset, int]:
        """Edge multiplicities (a hyperedge may support several atoms)."""
        counts: dict[frozenset, int] = {}
        for edge in self.edges:
            counts[edge] = counts.get(edge, 0) + 1
        return counts

    def distinct_edges(self) -> tuple[frozenset, ...]:
        """Distinct hyperedges, in first-appearance order."""
        seen: dict[frozenset, None] = {}
        for edge in self.edges:
            seen.setdefault(edge, None)
        return tuple(seen)

    def neighbours(self, vertex: str) -> frozenset:
        """All vertices sharing an edge with ``vertex`` (excluding itself)."""
        joined: set[str] = set()
        for edge in self.edges:
            if vertex in edge:
                joined |= edge
        joined.discard(vertex)
        return frozenset(joined)

    # -- derived hypergraphs ------------------------------------------------------

    def restrict(self, subset: Iterable[str]) -> "Hypergraph":
        """The restriction ``H_B = (B, {F ∩ B | F in E})`` of Definition 2.7.

        Empty intersections are dropped (they cover nothing).
        """
        bag = frozenset(subset)
        order = tuple(v for v in self.vertices if v in bag)
        restricted = tuple(
            edge & bag for edge in self.edges if edge & bag
        )
        return Hypergraph(order, restricted)

    def is_connected(self) -> bool:
        """True if the hypergraph has a single connected component."""
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for u in self.neighbours(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(self.vertices)

    def covers(self, subset: frozenset) -> bool:
        """True if some edge contains ``subset``."""
        return any(subset <= edge for edge in self.edges)

    def restrict_mask(self, mask: int) -> "Hypergraph":
        """Mask-native :meth:`restrict`: ``H_B`` for ``B`` given as a bit mask."""
        vm = self.varmap
        order = tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)
        restricted = tuple(
            vm.set_of(edge_mask & mask)
            for edge_mask in self.edge_masks()
            if edge_mask & mask
        )
        return Hypergraph(order, restricted)

    def __str__(self) -> str:
        edges = ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.edges)
        return f"Hypergraph(V={{{','.join(self.vertices)}}}, E=[{edges}])"
