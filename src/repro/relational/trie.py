"""The one shared sorted-trie iterator every join algorithm drives.

A sorted :class:`~repro.relational.columns.ColumnSet` *is* a trie: fixing the
first ``d`` codes of a row selects a contiguous index range, the distinct
codes at depth ``d`` within that range are its children, and each child's
subtree is again a contiguous sub-range.  :class:`SortedTrieIterator` exposes
that implicit trie through the Leapfrog-Triejoin iterator protocol
[47, §3.2]:

=============  ==============================================================
``open()``     descend to the first child of the current node
``up()``       return to the parent node
``key()``      the code at the current position
``next()``     advance to the next sibling (``False`` when exhausted)
``seek(c)``    advance to the least sibling ``>= c`` (``False`` when none)
``at_end()``   whether the current level is exhausted
=============  ==============================================================

``seek`` gallops on the level's ``array('q')`` column — ``O(log(distance
moved))``, the property Veldhuizen's analysis needs for the ``O~(2^rho*)``
worst-case-optimality bound — while ``open``/``next``/``open_at`` are
C-level binary searches over the node's range.

Both WCOJ baselines (:mod:`repro.relational.wcoj` Generic Join and
:mod:`repro.relational.leapfrog` Leapfrog Triejoin), the Yannakakis semijoin
sweeps, and the FAQ semiring folds run over this single iterator (or over the
same sorted runs directly); there is no per-algorithm trie anymore.

Iteration is over *codes* (see :mod:`repro.relational.columns`); all
relations sharing an attribute share its dictionary, so codes are directly
comparable across iterators and the intersection of levels is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.relational.columns import ColumnSet, gallop_left

try:  # numpy accelerates node key-run materialization for both backends
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

__all__ = ["SortedTrieIterator", "leapfrog_search"]

#: Node ranges at least this wide materialize their key run via numpy
#: (below it the fixed ndarray overhead loses to the bisect loop).
_NP_KEYS_MIN_SPAN = 64


class SortedTrieIterator:
    """Cursor over the implicit sorted trie of one :class:`ColumnSet`.

    The iterator starts at the (virtual) root; ``open()`` enters depth 0.
    A level's state is ``(lo, hi, blo, bhi, key)``: the parent's index range,
    the current key's run ``[blo, bhi)`` inside it, and the key itself.
    ``None`` keys mark an exhausted level (``at_end``).

    ``lo``/``hi`` bound the virtual root to the row range ``[lo, hi)`` —
    zero-copy shard restriction for partition-parallel execution
    (:mod:`repro.parallel`): the iterator then walks only the sub-trie of
    that contiguous slice, with no row or column data materialized.
    """

    __slots__ = (
        "_cset",
        "_cols",
        "_root_lo",
        "_root_hi",
        "_stack",
        "_keys_cache",
        "_sets_cache",
    )

    def __init__(
        self, column_set: ColumnSet, lo: int = 0, hi: int | None = None
    ) -> None:
        self._cset = column_set
        self._cols = column_set.columns
        if hi is None:
            hi = column_set.nrows
        if not 0 <= lo <= hi <= column_set.nrows:
            raise IndexError(
                f"root bounds [{lo}, {hi}) outside 0..{column_set.nrows}"
            )
        self._root_lo = lo
        self._root_hi = hi
        #: stack of [lo, hi, blo, bhi, key] per open depth.
        self._stack: list[list] = []
        # (depth, lo, hi) -> that node's distinct child keys (list) / the
        # same keys as a frozenset.  Shared across every iterator over the
        # column set (see :meth:`ColumnSet.trie_caches`), so concurrent or
        # repeated walks — shard tasks, repeated executes — materialize each
        # node once.
        self._keys_cache, self._sets_cache = column_set.trie_caches()

    # -- position ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current depth; ``-1`` at the root."""
        return len(self._stack) - 1

    def key(self) -> int:
        """The code at the current position (undefined when ``at_end``)."""
        return self._stack[-1][4]

    def at_end(self) -> bool:
        """Whether the current level is exhausted."""
        return self._stack[-1][4] is None

    # -- movement ---------------------------------------------------------------

    def open(self) -> bool:
        """Descend to the first key one level down; ``False`` on empty trie.

        From the root the child range is the whole relation; from a key it is
        that key's run.  Only an empty relation can make ``open`` fail.
        """
        if self._stack:
            frame = self._stack[-1]
            lo, hi = frame[2], frame[3]
        else:
            lo, hi = self._root_lo, self._root_hi
        if lo >= hi:
            self._stack.append([lo, hi, lo, lo, None])
            return False
        column = self._cols[len(self._stack)]
        code = column[lo]
        end = bisect_right(column, code, lo, hi)
        self._stack.append([lo, hi, lo, end, code])
        return True

    def up(self) -> None:
        """Return to the parent node."""
        self._stack.pop()

    def next(self) -> bool:
        """Advance to the next distinct key at this level; ``False`` at end."""
        frame = self._stack[-1]
        hi = frame[1]
        start = frame[3]
        if start >= hi:
            frame[2] = frame[3] = hi
            frame[4] = None
            return False
        column = self._cols[len(self._stack) - 1]
        code = column[start]
        frame[2] = start
        frame[3] = bisect_right(column, code, start, hi)
        frame[4] = code
        return True

    def seek(self, code: int) -> bool:
        """Advance to the least key ``>= code``; ``False`` when none remains.

        Never moves backwards (codes sought must be non-decreasing within a
        level, as in [47]); a no-op when already at or past ``code``.  The
        search gallops from the current run's end
        (:func:`~repro.relational.columns.gallop_left`), so the cost is
        logarithmic in the *distance moved* — the property [47, Thm 3.4]'s
        amortized analysis needs.
        """
        frame = self._stack[-1]
        current = frame[4]
        if current is None:
            return False
        if current >= code:
            return True
        hi = frame[1]
        column = self._cols[len(self._stack) - 1]
        start = gallop_left(column, code, frame[3], hi)
        if start >= hi:
            frame[2] = frame[3] = hi
            frame[4] = None
            return False
        found = column[start]
        frame[2] = start
        frame[3] = bisect_right(column, found, start, hi)
        frame[4] = found
        return True

    def open_at(self, code: int) -> None:
        """Descend directly to child ``code`` (which must be present).

        The fast descent for callers that already intersected the child key
        sets: two binary searches locate the child's run, with no iterator
        state touched in between.
        """
        if self._stack:
            frame = self._stack[-1]
            lo, hi = frame[2], frame[3]
        else:
            lo, hi = self._root_lo, self._root_hi
        column = self._cols[len(self._stack)]
        start = bisect_left(column, code, lo, hi)
        end = bisect_right(column, code, start, hi)
        self._stack.append([lo, hi, start, end, code])

    # -- level views ------------------------------------------------------------

    def _node_keys(self, depth: int, lo: int, hi: int) -> list[int]:
        if lo >= hi:
            # Exhausted ranges are not cached: real (non-empty) nodes at one
            # depth have pairwise-distinct ranges, but an exhausted level
            # (``lo == hi``) may coincide with a sibling's start index and
            # must not poison its cache entry.
            return []
        # ``hi`` is part of the key: root bounds can truncate a node's range
        # to the same ``lo`` with a different ``hi``.
        cache_key = (depth, lo, hi)
        cached = self._keys_cache.get(cache_key)
        if cached is not None:
            return cached
        if _np is not None and hi - lo >= _NP_KEYS_MIN_SPAN:
            # Run-boundary unique over the (already sorted) node slice —
            # one vectorized pass, shared with the vectorized backend
            # through the column set's numpy cache.  ``tolist`` yields
            # plain Python ints, so the cached list is indistinguishable
            # from the bisect-built one.
            keys = self._np_node_keys(depth, lo, hi).tolist()
        else:
            column = self._cols[depth]
            keys = []
            index = lo
            while index < hi:
                code = column[index]
                keys.append(code)
                index = bisect_right(column, code, index, hi)
        self._keys_cache[cache_key] = keys
        return keys

    def _np_node_keys(self, depth: int, lo: int, hi: int):
        """The node's distinct-key run as a cached int64 ndarray."""
        np_cache = self._cset.np_trie_cache()
        cache_key = (depth, lo, hi)
        run = np_cache.get(cache_key)
        if run is None:
            block = self._cset.np_columns()[depth][lo:hi]
            keep = _np.empty(hi - lo, dtype=bool)
            keep[0] = True
            _np.not_equal(block[1:], block[:-1], out=keep[1:])
            run = block[keep]
            np_cache[cache_key] = run
        return run

    def level_keys(self) -> list[int]:
        """All distinct keys of the *current level*, from its beginning.

        Materialized once per trie node and cached — the candidate lists of
        Generic Join; each distinct prefix's extension list is charged once,
        like the dict-trie memo it replaces.  Does not move the iterator.
        """
        frame = self._stack[-1]
        return self._node_keys(len(self._stack) - 1, frame[0], frame[1])

    def child_keys(self) -> list[int]:
        """The sorted distinct keys one level below, without descending.

        At the root these are the depth-0 keys; on a key they are its
        extensions.  Cached per node, shared with :meth:`level_keys`.
        """
        if self._stack:
            frame = self._stack[-1]
            lo, hi = frame[2], frame[3]
        else:
            lo, hi = self._root_lo, self._root_hi
        return self._node_keys(len(self._stack), lo, hi)

    def child_span(self) -> int:
        """Row count of the child range — an O(1) upper bound on child keys.

        Lets intersections pick a driver *without* materializing any key
        list: the node with the smallest span is never larger than the node
        with the smallest key set.
        """
        if self._stack:
            frame = self._stack[-1]
            return frame[3] - frame[2]
        return self._root_hi - self._root_lo

    def contains_child(self, code: int) -> bool:
        """Whether ``code`` is a child key, by one binary search — no
        materialization of the node's key list/set (the probe side of the
        delta-term intersections in :mod:`repro.incremental.ivm`)."""
        if self._stack:
            frame = self._stack[-1]
            lo, hi = frame[2], frame[3]
        else:
            lo, hi = self._root_lo, self._root_hi
        column = self._cols[len(self._stack)]
        pos = bisect_left(column, code, lo, hi)
        return pos < hi and column[pos] == code

    def node_token(self) -> int:
        """Cheap identity of the *child* node this iterator stands over.

        Node ranges at a fixed depth are disjoint, so the child range's start
        index identifies the node; joins key their per-depth intersection
        memos on the tuple of active tokens (the columnar analogue of the
        bound-prefix memo of the dict-trie engines).
        """
        if self._stack:
            return self._stack[-1][2]
        return self._root_lo

    def child_key_set(self) -> frozenset:
        """:meth:`child_keys` as a frozenset (cached; C-speed intersections)."""
        if self._stack:
            frame = self._stack[-1]
            lo = frame[2]
            hi = frame[3]
        else:
            lo, hi = self._root_lo, self._root_hi
        if lo >= hi:
            return frozenset()
        depth = len(self._stack)
        cache_key = (depth, lo, hi)
        cached = self._sets_cache.get(cache_key)
        if cached is None:
            cached = frozenset(self._node_keys(depth, lo, hi))
            self._sets_cache[cache_key] = cached
        return cached


def leapfrog_search(iterators: list, counter=None) -> Iterator[int]:
    """Yield the intersection of the iterators' current levels by leapfrogging.

    The classic leapfrog join [47, §3.1]: keep the iterators sorted by key,
    repeatedly seek the smallest to the current maximum; every time all agree
    a match is yielded with *every* iterator positioned on it (so callers can
    ``open()`` them, recurse, and ``up()`` between yields).

    Args:
        iterators: :class:`SortedTrieIterator`\\ s positioned at a level.
        counter: optional work counter; each seek/next bumps
            ``tuples_scanned`` by one (machine-independent cost accounting).
    """
    if not iterators:
        return
    for iterator in iterators:
        if iterator.at_end():
            return
    if len(iterators) == 1:
        iterator = iterators[0]
        while True:
            if counter is not None:
                counter.tuples_scanned += 1
            yield iterator.key()
            if not iterator.next():
                return
    its = sorted(iterators, key=lambda it: it.key())
    k = len(its)
    p = 0
    x_max = its[-1].key()
    while True:
        iterator = its[p]
        x = iterator.key()
        if x == x_max:
            # All k iterators sit on x_max (each was seeked to >= the
            # previous max and none overshot): a match.
            yield x
            if counter is not None:
                counter.tuples_scanned += 1
            if not iterator.next():
                return
        else:
            if counter is not None:
                counter.tuples_scanned += 1
            if not iterator.seek(x_max):
                return
        x_max = iterator.key()
        p = (p + 1) % k
