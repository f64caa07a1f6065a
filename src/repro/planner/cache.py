"""A bounded, statistics-keeping cache of PANDA plans.

:class:`PlanCache` maps canonical signatures (:mod:`repro.planner.signature`)
to fully-built plans — bound result, flow inequality, proof sequence steps
with their Case-4b witness snapshots, and the supporting degree
constraints.  Entries are evicted least-recently-used beyond ``maxsize``.

Beside the canonical entries, an instance memo maps each exact instance
encoding to the plan already re-keyed to it, so repeated planning of the
textually identical instance (the common case — the same query re-evaluated
against fresh data) skips both the signature search and the renaming.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.constraints import DegreeConstraint
from repro.planner.signature import rule_signature

__all__ = ["PlanCache", "PlanCacheStats"]


@dataclass
class PlanCacheStats:
    """Hit/miss counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es) "
            f"(hit rate {self.hit_rate:.1%}), {self.evictions} eviction(s)"
        )


@dataclass
class _Entry:
    """A cached plan plus the canonical labelling it was stored under."""

    plan: object
    canonical_to_instance: tuple[str, ...]


class PlanCache:
    """LRU cache: canonical signature -> plan (with hit/miss statistics)."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        #: exact instance encoding -> (plan already re-keyed to that
        #: instance, the signature key of the entry behind it), so repeated
        #: planning of the textually identical instance skips both the
        #: signature search and the renaming pass while still touching that
        #: entry's LRU slot.  Plans are immutable values, so this never
        #: needs invalidation — only the size bound below.
        self._instance_memo: dict[Hashable, tuple[object, Hashable]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def instance_key(
        self,
        universe: Sequence[str],
        targets: Iterable[frozenset],
        constraints: Iterable[DegreeConstraint],
    ) -> tuple:
        """The exact (order-normalized, rename-*sensitive*) instance encoding."""
        return (
            tuple(universe),
            tuple(sorted(tuple(sorted(t)) for t in targets)),
            tuple(sorted((c.x_key, c.y_key, c.bound) for c in constraints)),
        )

    def seed(
        self,
        universe: Sequence[str],
        targets: Iterable[frozenset],
        constraints: Iterable[DegreeConstraint],
        plan: object,
    ) -> None:
        """Store ``plan``, built for exactly this instance, under both keys."""
        targets = tuple(targets)
        sig_key, canonical_to_instance = rule_signature(universe, targets, constraints)
        self.put(sig_key, plan, canonical_to_instance)
        self.store_instance(
            self.instance_key(universe, targets, constraints), plan, sig_key
        )

    def lookup_instance(self, key: Hashable) -> object | None:
        """An instance-memo probe; counts a hit when it lands (never a miss —
        the canonical lookup that follows does the miss accounting) and
        touches the LRU order of the canonical entry behind the plan, so a
        shape served only from the memo is not the first one evicted."""
        found = self._instance_memo.get(key)
        if found is None:
            return None
        plan, sig_key = found
        if sig_key in self._entries:
            self._entries.move_to_end(sig_key)
        self.stats.hits += 1
        return plan

    def store_instance(self, key: Hashable, plan: object, sig_key: Hashable) -> None:
        if len(self._instance_memo) >= 8 * self.maxsize:
            self._instance_memo.clear()
        self._instance_memo[key] = (plan, sig_key)

    def get(self, key: Hashable) -> _Entry | None:
        """Look up a plan entry, counting the hit/miss and touching LRU order."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(
        self, key: Hashable, plan: object, canonical_to_instance: tuple[str, ...]
    ) -> None:
        self._entries[key] = _Entry(plan, canonical_to_instance)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._instance_memo.clear()
        self.stats = PlanCacheStats()
