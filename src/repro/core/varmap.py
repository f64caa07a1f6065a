"""Interning of variable names ↔ bit positions (the mask kernel's base).

Every set-indexed structure in this package ultimately ranges over subsets of
a fixed, ordered universe of query variables.  A :class:`VarMap` fixes a
bijection between the universe and bit positions of a machine integer, so a
subset ``S ⊆ U`` becomes the *mask* ``sum(1 << position(v) for v in S)``:

* membership, union, intersection, difference are single int ops;
* ``h(S)`` lookups become O(1) list indexing by mask;
* iteration over ``2^U`` is ``range(1 << n)`` — no hashing, no frozensets.

``VarMap`` instances are interned per universe tuple (:meth:`VarMap.of`), so
every structure over the same universe shares one map and mask values are
directly comparable.  The canonical *size-lexicographic* enumeration order of
subsets (``subset_masks``) matches the historical ``powerset()`` order, which
keeps LP row/column ordering — and therefore exact simplex pivoting — stable
across the frozenset-to-mask migration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

__all__ = ["VarMap"]


class VarMap:
    """A bijection between variable names and bit positions.

    Attributes:
        names: the universe, in interning order; ``names[i]`` ↔ bit ``1 << i``.
        full_mask: the mask of the full universe, ``2^n - 1``.
    """

    __slots__ = ("names", "index", "full_mask", "_sets", "_sorted_bits")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError(f"duplicate names in universe {self.names}")
        self.full_mask: int = (1 << len(self.names)) - 1
        #: lazily filled mask -> frozenset cache (shared by all consumers).
        self._sets: dict[int, frozenset] = {0: frozenset()}
        #: bit masks of the universe ordered by *name* (for display/sorting).
        self._sorted_bits: tuple[int, ...] = tuple(
            1 << self.index[v] for v in sorted(self.names)
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def _interned(names: tuple[str, ...]) -> "VarMap":
        return VarMap(names)

    @classmethod
    def of(cls, names: Iterable[str]) -> "VarMap":
        """The interned map for this universe (same tuple -> same instance)."""
        return cls._interned(tuple(names))

    # -- basic conversions ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        """Number of subsets, ``2^n``."""
        return self.full_mask + 1

    def mask_of(self, subset: Iterable[str]) -> int:
        """The mask of a subset given as any iterable of names.

        Raises:
            KeyError: if a name is not in the universe.
        """
        if isinstance(subset, int):
            return subset
        index = self.index
        mask = 0
        for v in subset:
            mask |= 1 << index[v]
        return mask

    def set_of(self, mask: int) -> frozenset:
        """The subset for a mask, as an (interned) frozenset."""
        cached = self._sets.get(mask)
        if cached is None:
            names = self.names
            cached = frozenset(
                names[i] for i in range(len(names)) if mask >> i & 1
            )
            self._sets[mask] = cached
        return cached

    # -- iteration --------------------------------------------------------------

    def bits(self, mask: int) -> Iterator[int]:
        """Yield the single-bit masks of ``mask``, lowest bit first."""
        while mask:
            bit = mask & -mask
            yield bit
            mask ^= bit

    def bits_by_name(self, mask: int) -> Iterator[int]:
        """Yield the single-bit masks of ``mask`` in *name-sorted* order.

        This mirrors the historical ``for v in sorted(subset)`` loops.
        """
        for bit in self._sorted_bits:
            if mask & bit:
                yield bit

    def subset_masks(self, mask: int | None = None) -> tuple[int, ...]:
        """All submasks of ``mask`` (default: full universe) in canonical order.

        Canonical order is size-lexicographic over bit positions — exactly the
        order of :func:`repro.core.hypergraph.powerset` over ``self.names``.
        """
        if mask is None or mask == self.full_mask:
            return _canonical_masks(self.n)
        positions = [i for i in range(self.n) if mask >> i & 1]
        return tuple(
            sum(1 << p for p in combo)
            for r in range(len(positions) + 1)
            for combo in combinations(positions, r)
        )

    def submasks_iter(self, mask: int) -> Iterator[int]:
        """All submasks of ``mask`` in decreasing numeric order (fast loop).

        The classic ``s = (s - 1) & mask`` walk; includes ``mask`` and ``0``.
        """
        s = mask
        while True:
            yield s
            if s == 0:
                return
            s = (s - 1) & mask

    def __repr__(self) -> str:
        return f"VarMap({self.names})"


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """All masks over ``n`` bits in size-lexicographic (powerset) order."""
    return tuple(
        sum(1 << p for p in combo)
        for r in range(n + 1)
        for combo in combinations(range(n), r)
    )
