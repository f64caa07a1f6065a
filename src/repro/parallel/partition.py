"""Shard planning: range-partition a query on its first global-order attribute.

A shard is a restriction of the whole query to a *code range* of the first
variable ``v0`` of the global variable order (plus, for heavy keys, a
sub-range of the second variable ``v1``).  Because every relation stores its
rows sorted under the global order restricted to its attributes, a shard's
portion of each relation is one contiguous row range, located by binary
search — no data is touched to plan a partition.

Why this is correct: any output tuple's ``v0`` value lies in exactly one
shard's range, and a relation restricted to that range retains every tuple
that can join into the shard's outputs (relations not mentioning ``v0`` are
kept whole).  Shard outputs are therefore pairwise disjoint, their union is
the full answer, and — since the ranges ascend — concatenating the sorted
per-shard outputs in shard order *is* the globally sorted answer.

Heavy hitters: a single ``v0`` key whose row weight exceeds the balanced
per-shard share would serialize its shard.  The split reuses the Lemma 6.1
product test — a key ``c`` is heavy when ``weight(c) · k > total`` for ``k``
shards, the analogue of a partition piece violating
``x_count · y_degree <= |T|`` — and such keys are split further into
sub-shards by ranges of ``v1``, so a star-shaped skew (one hub joined to
everything) still spreads across the pool.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.relational.columns import ColumnSet

__all__ = ["ShardSpec", "ShardTable", "plan_shards", "slice_bounds"]

#: Open upper bound for the last range of a partition: any code is below it,
#: so trailing shards cover codes the planner never saw (they simply match
#: nothing).
TOP_CODE = 1 << 62


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a ``v0`` code range, plus a ``v1`` sub-range for heavy keys.

    Attributes:
        index: position in the shard plan (shard outputs concatenate in this
            order).
        v0: half-open code range ``[lo, hi)`` on the first order variable.
        v1: for heavy-key sub-shards (where ``v0`` pins a single code), the
            half-open code range on the second order variable; ``None``
            otherwise.
    """

    index: int
    v0: tuple[int, int]
    v1: tuple[int, int] | None = None

    @property
    def is_heavy(self) -> bool:
        return self.v1 is not None


@dataclass(frozen=True)
class ShardTable:
    """A relation (or factor) as the partitioner sees it.

    Attributes:
        attrs: the global order restricted to the table's attributes — the
            sort order of ``column_set``.
        column_set: the rows sorted under ``attrs``.
    """

    attrs: tuple[str, ...]
    column_set: ColumnSet


def key_runs(column, lo: int = 0, hi: int | None = None) -> list[tuple[int, int]]:
    """The ``(code, run_length)`` pairs of a sorted column range.

    Counted with :class:`collections.Counter` (a C-level loop over the
    column's codes) rather than a Python run scan — shard planning
    touches every anchored row once, so this is the partitioner's only
    data-sized cost.
    """
    if hi is None:
        hi = len(column)
    counts = Counter(memoryview(column)[lo:hi])
    return sorted(counts.items())


def _merged_weights(run_lists: Sequence[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Sum run lists into one ascending ``(code, total_weight)`` list."""
    weights: Counter = Counter()
    for runs in run_lists:
        weights.update(dict(runs))
    return sorted(weights.items())


def split_ranges(
    weights: list[tuple[int, int]], parts: int
) -> list[tuple[int, int]]:
    """Split a weighted, ascending code list into ``<= parts`` balanced ranges.

    Ranges are contiguous, ascending, and cover ``[0, TOP_CODE)``; a range is
    closed once it holds at least a ``1/parts`` share of the total weight.
    """
    if parts <= 1 or len(weights) <= 1:
        return [(0, TOP_CODE)]
    total = sum(w for _, w in weights)
    ranges: list[tuple[int, int]] = []
    cursor = 0
    acc = 0
    for code, weight in weights:
        acc += weight
        if acc * parts >= total and len(ranges) < parts - 1:
            ranges.append((cursor, code + 1))
            cursor = code + 1
            acc = 0
    ranges.append((cursor, TOP_CODE))
    return ranges


def _v1_weights(
    tables: Sequence[ShardTable], order: tuple[str, ...], heavy_code: int
) -> list[tuple[int, int]]:
    """The ``v1`` code weights relevant under ``v0 = heavy_code``."""
    v0, v1 = order[0], order[1]
    run_lists = []
    for table in tables:
        attrs = table.attrs
        if not attrs:
            continue
        column_set = table.column_set
        if attrs[0] == v0:
            if len(attrs) >= 2 and attrs[1] == v1:
                lo, hi = column_set.code_range(heavy_code, heavy_code + 1)
                run_lists.append(key_runs(column_set.columns[1], lo, hi))
        elif attrs[0] == v1:
            run_lists.append(key_runs(column_set.columns[0]))
    return _merged_weights(run_lists)


def plan_shards(
    tables: Sequence[ShardTable],
    order: tuple[str, ...],
    shards: int,
    v1_weights: Callable[[int], list[tuple[int, int]]] | None = None,
) -> list[ShardSpec]:
    """Plan ``~shards`` disjoint, covering shard specs for the query.

    Light keys are grouped into contiguous ``v0`` code ranges of roughly
    equal total row weight; a heavy key (Lemma 6.1 test:
    ``weight · shards > total``) gets its own spec(s), sub-split on ``v1``
    proportionally to its share of the weight.  The returned specs ascend in
    ``(v0, v1)`` range order — the merge order of the parallel engine.
    """
    order = tuple(order)
    if not order:
        return [ShardSpec(0, (0, TOP_CODE))]
    v0 = order[0]
    anchored = [t for t in tables if t.attrs and t.attrs[0] == v0]
    weights = _merged_weights(
        [key_runs(t.column_set.columns[0]) for t in anchored]
    )
    if shards <= 1 or not weights:
        return [ShardSpec(0, (0, TOP_CODE))]
    # A single distinct v0 key is the pure-hub case: it always passes the
    # heavy test below (weight == total), so it flows into the v1 sub-split
    # rather than serializing onto one shard.
    if v1_weights is None:
        v1_weights = lambda code: _v1_weights(tables, order, code)  # noqa: E731

    total = sum(w for _, w in weights)
    specs: list[ShardSpec] = []
    cursor = 0
    acc = 0

    def close_light(hi_code: int) -> None:
        nonlocal cursor, acc
        if acc > 0:
            specs.append(ShardSpec(len(specs), (cursor, hi_code)))
        cursor = hi_code
        acc = 0

    for code, weight in weights:
        if weight * shards > total:
            close_light(code)
            parts = min(shards, -(-weight * shards // total))
            sub = (
                split_ranges(v1_weights(code), parts)
                if len(order) >= 2 and parts > 1
                else [None]
            )
            for v1_range in sub:
                specs.append(
                    ShardSpec(len(specs), (code, code + 1), v1_range)
                )
            cursor = code + 1
        else:
            acc += weight
            if acc * shards >= total:
                close_light(code + 1)
    if acc > 0:
        specs.append(ShardSpec(len(specs), (cursor, TOP_CODE)))
    elif specs:
        # Extend the final spec's v0 range to the open top so trailing codes
        # (unseen by the planner) fall into *some* shard.
        last = specs[-1]
        if last.v1 is None:
            specs[-1] = ShardSpec(last.index, (last.v0[0], TOP_CODE))
        else:
            specs.append(ShardSpec(len(specs), (last.v0[1], TOP_CODE)))
    return specs


def slice_bounds(
    table: ShardTable, order: tuple[str, ...], spec: ShardSpec
) -> tuple[int, int]:
    """The row range of ``table`` belonging to ``spec`` (binary searches only).

    Tables anchored on ``v0`` restrict to the spec's ``v0`` code range (and,
    inside a heavy key's run, to the ``v1`` sub-range); tables led by ``v1``
    restrict to the ``v1`` sub-range of heavy specs; all other tables are
    kept whole.
    """
    attrs = table.attrs
    column_set = table.column_set
    if not attrs or not order:
        return 0, column_set.nrows
    v0 = order[0]
    v1 = order[1] if len(order) > 1 else None
    if attrs[0] == v0:
        lo, hi = column_set.code_range(spec.v0[0], spec.v0[1])
        if spec.v1 is not None and len(attrs) >= 2 and attrs[1] == v1:
            # Heavy specs pin v0 to one code, so rows [lo, hi) agree on it
            # and their v1 column is sorted — a nested binary search.
            lo, hi = column_set.code_range(spec.v1[0], spec.v1[1], lo, hi, depth=1)
        return lo, hi
    if spec.v1 is not None and attrs[0] == v1:
        return column_set.code_range(spec.v1[0], spec.v1[1])
    return 0, column_set.nrows
