"""Leapfrog Triejoin — the sorted-iterator WCOJ algorithm of Veldhuizen [47].

The second worst-case optimal baseline of §2.1.1, distinct from Generic Join
(:mod:`repro.relational.wcoj`) in mechanism: per variable, the unary
iterators of the participating tries are intersected by *leapfrogging* —
repeatedly seeking the lagging iterator to the current maximum with a
galloping binary search.  The total work is within a log factor of the AGM
bound ``2^{ρ*}`` [47, Thm 3.4]; the bench cross-checks both baselines
against the naive join and against each other.

The tries are the *implicit* sorted tries of the columnar storage: every
relation contributes one shared
:class:`~repro.relational.trie.SortedTrieIterator` keyed by the global
variable order restricted to its attributes.  Per inner level the active
tries' cached sorted key runs are intersected with the §3.1 leapfrog loop
(:func:`_leapfrog_intersection`, memoized per node combination); the leaf
level — with nothing left to descend into — intersects whole blocks over the
cached per-node key sets and emits them at C speed.
:func:`~repro.relational.trie.leapfrog_search` is the pipelined
iterator-protocol form of the same loop; tests use it as an oracle for the
columnar path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.exceptions import QueryError
from repro.relational.execution import execute_join
from repro.relational.operators import current_counter
from repro.relational.relation import Relation

__all__ = ["leapfrog_triejoin"]


def _leapfrog_intersection(key_lists: list[list]) -> list:
    """Intersect sorted lists by leapfrogging (galloping seeks) [47, §3.1].

    The inner-level intersection of the triejoin: repeatedly binary-search
    the lagging list to the current maximum.  Each seek charges one scan to
    the current work counter.
    """
    counter = current_counter()
    if any(not keys for keys in key_lists):
        return []
    if len(key_lists) == 1:
        counter.tuples_scanned += len(key_lists[0])
        return list(key_lists[0])
    positions = [0] * len(key_lists)
    out = []
    # Start from the list with the largest first element.
    current = max(keys[0] for keys in key_lists)
    index = 0
    while True:
        keys = key_lists[index]
        pos = bisect_left(keys, current, positions[index])
        counter.tuples_scanned += 1
        if pos >= len(keys):
            return out
        positions[index] = pos
        value = keys[pos]
        if value == current:
            index += 1
            if index == len(key_lists):
                out.append(current)
                # Advance the last-checked list past the match.
                last = key_lists[-1]
                pos = positions[-1] + 1
                if pos >= len(last):
                    return out
                positions[-1] = pos
                current = last[pos]
                index = 0
        else:
            current = value
            index = 0


def leapfrog_triejoin(
    relations: Sequence[Relation],
    variable_order: Sequence[str] | None = None,
    name: str = "Q",
    root_ranges: Sequence[tuple[int, int] | None] | None = None,
) -> Relation:
    """Compute the full natural join with Leapfrog Triejoin [47].

    Args:
        relations: the input atoms.
        variable_order: global variable order shared by all tries; defaults
            to sorted.  Any order is worst-case optimal.
        name: output relation name.
        root_ranges: optional per-relation trie-root row bounds — computes
            one shard of the join (see
            :func:`repro.relational.execution.execute_join`).

    Returns:
        The join result with schema in the variable order.
    """
    if not relations:
        raise QueryError("leapfrog triejoin needs at least one relation")
    return execute_join(
        relations, variable_order, name, _leapfrog_inner, root_ranges
    )


def _leapfrog_inner(active: list, counter) -> list[int]:
    """Inner-level intersection by leapfrogging the sorted key runs.

    The algorithm-specific half of the shared
    :func:`~repro.relational.execution.execute_join` driver: where Generic
    Join hash-intersects candidate sets, the triejoin leapfrogs the active
    levels' sorted unary iterators per [47, §3.1] (seek charging happens
    inside :func:`_leapfrog_intersection`, which reads the current work
    counter itself).  Under the numpy backend the seek loop becomes the
    galloping ``searchsorted`` probe of the block executor, which computes
    the same intersection.
    """
    return _leapfrog_intersection(
        [iterator.child_keys() for iterator in active]
    )
