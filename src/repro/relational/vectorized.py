"""The numpy block-at-a-time join executor (the ``"vectorized"`` backend).

This module mirrors :func:`repro.relational.execution.execute_join` — the
recursion both WCOJ baselines, the Yannakakis sweeps, and the delta-rule
terms share — but replaces the tuple-at-a-time depth-first recursion with a
breadth-first **frontier** over the zero-copy read-only int64 numpy views of
the sorted code columns (:meth:`ColumnSet.np_columns`), in the
EmptyHeaded/LevelHeaded tradition of vectorized execution over sorted
columnar tries:

* **the frontier** — all partial bindings of length ``depth`` live at once
  as dense columns, with one ``(lo, hi)`` node-range pair per binding per
  relation; one level of the trie walk is a handful of whole-frontier numpy
  passes instead of ``frontier``-many Python iterations;
* **ragged candidate gather** — the block analogue of the per-node
  smallest-candidate-set choice that keeps Generic Join worst-case
  optimal: one relation drives the whole frontier while its total key-run
  span stays within a small factor of the per-row-minimum sum, and on
  skewed frontiers — where a whole-level driver would gather
  Θ(frontier·heavy-run) candidates — each row gathers from its *own*
  argmin relation instead; the selected runs are gathered in one
  ``repeat``/``arange`` indexing pass and deduplicated by a run-boundary
  mask (the last local column is strictly increasing per node, so
  leaf-level runs need no dedup at all);
* **direct addressing, whole-tuple bit tables, then segmented binary
  search** — every other active relation answers membership for *all*
  candidates at once: at its first trie level, when its code space is
  dense, by two gathers from a cached offsets array
  (:func:`_level0_starts`; codes are dictionary indices, so ``starts[v] ..
  starts[v + 1]`` *is* value ``v``'s node); at the last variable, when its
  packed keys pass the same density gate and its root range holds no more
  rows than the segments a gather would touch, as whole tuples — bound
  prefix plus candidate — in a bit table over its own rows
  (:func:`_tuple_probe`); when the frontier's segments are candidate-sized,
  by one flat search over them all gathered (:func:`_ragged_probe`); and
  everywhere else with a bounded vectorized bisection (``log₂(max node
  span)`` whole-array steps), the block twin of the leapfrog seek; the
  surviving candidates' child ranges fall out of the same lookups;
* **columnar emission** — after the last level the frontier's binding
  columns *are* the result columns; :meth:`Relation.from_columns` adopts
  the arrays themselves as read-only column views (no copy), and the
  O(N · arity) transpose back into Python row tuples is deferred until a
  consumer actually asks for rows.

The contract (ROADMAP Architecture layer 9): **code-domain only** (int64
codes; exact-``Fraction`` annotation/witness/proof paths never enter this
module), **bit-identical outputs** (candidates are enumerated ascending
within a lexicographically sorted frontier, so the output columns hold the
same canonical sorted duplicate-free code rows as the interpreted driver),
and **truthful counters** (``tuples_emitted`` equals the interpreted
driver's exactly; scan charges are the per-level candidate-block sizes,
which may differ from the interpreted driver's per-seek charges the same
way the PR 4 shard counters may differ from serial ones).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import QueryError
from repro.relational.operators import current_counter
from repro.relational.relation import Relation

__all__ = [
    "membership_mask",
    "pack_keys",
    "run_start_mask",
    "sorted_unique",
    "vectorized_execute_join",
]


def run_start_mask(block):
    """Boolean mask of the positions where a new run of equal values starts
    in an already-sorted (or at least run-grouped) array."""
    starts = np.ones(len(block), dtype=bool)
    np.not_equal(block[1:], block[:-1], out=starts[1:])
    return starts


def sorted_unique(block):
    """Distinct values of an already-sorted array (run-boundary mask)."""
    return block[run_start_mask(block)]


#: The one density gate of this module (:func:`_dense`): a direct-address
#: structure over a sorted key range — the level-0 offsets index (``last code
#: + 2`` slots) and :func:`membership_mask`'s bit table (``(last key >> 6) +
#: 2`` words) — is built only when its size is at most this multiple of the
#: rows it serves, so its O(D) build and size stay bounded by the operands'
#: own; a few rows over a large key range fail it and keep the search path.
#: A worst-case guard, not a tuned threshold.
_DENSE_CODE_FACTOR = 4


def _dense(slots, rows):
    """The density gate: may a ``slots``-entry direct-address structure serve
    ``rows`` rows?"""
    return slots <= _DENSE_CODE_FACTOR * rows


def membership_mask(values, block):
    """Boolean membership of ``values`` in the sorted ``block``.

    Dictionary codes and :func:`pack_keys` keys are small non-negative
    integers, so when ``block``'s key range passes the density gate —
    ``(top >> 6) + 2 <= _DENSE_CODE_FACTOR * (len(block) + len(values))``
    words for its last (largest) key ``top`` — the block becomes a bit table
    for the call: one ``bitwise_or.reduceat`` over its 64-key word runs
    builds it, and each probe, clipped into the table's last word (never
    set), is one gather and one shift, both done in place so the call holds
    two probe-sized blocks at once.  Sparser blocks, and negative keys,
    keep one ``searchsorted`` of the (unsorted) probes.
    """
    n = len(block)
    if n == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    top = int(block[-1])
    if block[0] >= 0 and _dense((top >> 6) + 2, n + len(values)):
        return _bit_table_mask(values, block, top)
    pos = np.searchsorted(block, values)
    inside = pos < n
    pos[~inside] = 0
    return inside & (block[pos] == values)


def _bit_table_mask(values, block, top):
    """:func:`membership_mask` of the non-negative sorted ``block`` (largest
    key ``top``) as a ``(top >> 6) + 2``-word bit table.

    Word ``top >> 6`` is the last one a key can set, so the final word is
    always zero: probes clipped into it — and negative probes, which the
    unsigned view sends past ``top`` — read a clear bit whatever their shift.
    """
    high = block >> 6
    starts = np.flatnonzero(run_start_mask(high))
    bits = (block & 63).view(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    table = np.zeros((top >> 6) + 2, dtype=np.uint64)
    table[high[starts]] = np.bitwise_or.reduceat(bits, starts)
    del high, bits
    values = np.asarray(values, dtype=np.int64)
    probes = np.minimum(values.view(np.uint64), (len(table) - 1) << 6)
    probes >>= 6
    words = table[probes.view(np.int64)]  # small after the clip; no index cast
    # The word indices are spent: their buffer takes the in-word shifts.
    shift = np.bitwise_and(values, 63, out=probes.view(np.int64))
    words >>= shift.view(np.uint64)
    words &= 1
    return words.astype(bool)


def pack_keys(*operands):
    """One order-preserving int64 key per row, for each operand.

    Each operand is a sequence of ``k >= 1`` aligned int64 code columns, the
    same ``k`` attributes in the same order for every operand.  Rows compare
    by their keys exactly as they compare lexicographically by their codes —
    *across* operands too, so the keys of one operand can be searched,
    merged or masked against another's.  This is what lets the k-attribute
    operators of :mod:`repro.relational.operators` run as single-column
    numpy passes.

    The key is mixed radix: attribute ``i`` gets base ``max code + 1`` over
    all operands (codes are dense dictionary indices, so the bases are
    small).  When the next digit would push the key past int63, the running
    key and the digit are first re-ranked to dense ``0..distinct-1`` values
    (``np.unique(..., return_inverse=True)`` over all operands together) —
    both are then at most the total row count, so their product fits and no
    input is ever too large or too sparse for the column path.

    Each operand's key is built in one buffer of its own (the first digit
    times its base, then ``+=`` / ``*=`` in place per further digit), never
    in per-digit temporaries; a single-column operand's key is its column.
    """
    sizes = [len(operand[0]) for operand in operands]
    splits = np.cumsum(sizes)[:-1]

    def base_of(digits):
        return 1 + max((int(d.max()) for d in digits if len(d)), default=0)

    def rerank(parts):
        distinct, ranks = np.unique(np.concatenate(parts), return_inverse=True)
        return np.split(ranks, splits), len(distinct)

    keys = [operand[0] for operand in operands]
    owned = False  # the keys are still the operands' first columns
    span = base_of(keys)
    for position in range(1, len(operands[0])):
        digits = [operand[position] for operand in operands]
        base = base_of(digits)
        if span * base >= 1 << 63:
            keys, span = rerank(keys)  # fresh ranks: owned buffers
            digits, base = rerank(digits)
            owned = True
        if owned:
            for key in keys:
                key *= base
        else:
            keys = [key * base for key in keys]
            owned = True
        for key, digit in zip(keys, digits):
            key += digit
        span *= base
    return keys


#: Probes-per-distinct-node threshold above which the grouped flat-search
#: strategy beats the all-probes-bisect-together strategy (one C-level
#: ``searchsorted`` per node amortizes its Python dispatch over the batch).
_GROUP_MIN_BATCH = 32


def _segmented_searchsorted(col, probes, lo, hi, side="left"):
    """``searchsorted`` with per-probe bounds: probe ``i`` within
    ``col[lo[i]:hi[i])``.

    ``col`` is sorted within each segment (a trie node's run), not
    globally, so one flat ``np.searchsorted`` cannot answer.  Two block
    strategies, chosen by batch shape:

    * **grouped** — consecutive probes sharing one segment (a frontier run
      descending one node) resolve with one flat C-level ``searchsorted``
      per distinct node; wins when nodes are few and batches long;
    * **bisect-together** — all probes binary-search simultaneously in
      ``log₂(max segment span)`` whole-array steps; wins when nearly every
      probe has its own (small) segment.

    Entries with empty segments come back as ``lo`` unchanged.
    """
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    n = len(col)
    m = len(probes)
    if n == 0 or m == 0:
        return lo.copy()
    change = np.empty(m, dtype=bool)
    change[0] = True
    np.logical_or(lo[1:] != lo[:-1], hi[1:] != hi[:-1], out=change[1:])
    run_starts = np.flatnonzero(change)
    if m >= _GROUP_MIN_BATCH * len(run_starts):
        run_ends = np.append(run_starts[1:], m)
        out = np.empty(m, dtype=np.int64)
        for start, end in zip(run_starts.tolist(), run_ends.tolist()):
            base = lo[start]
            out[start:end] = base + np.searchsorted(
                col[base : hi[start]], probes[start:end], side=side
            )
        return out
    lo = lo.copy()
    hi = hi.copy()
    top = n - 1
    open_mask = lo < hi
    while open_mask.any():
        mid = np.minimum((lo + hi) >> 1, top)
        if side == "left":
            go_right = open_mask & (col[mid] < probes)
        else:
            go_right = open_mask & (col[mid] <= probes)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(open_mask & ~go_right, mid, hi)
        open_mask = lo < hi
    return lo


def _ragged_probe(col, seg_lo, seg_hi, row_id, values, m, need_bounds):
    """Membership (and child bounds) via composite-key flat search.

    ``seg_lo``/``seg_hi`` hold one segment of ``col`` per frontier row;
    ``values`` are candidate keys with frontier ``row_id``.  When the total
    segment span is comparable to the candidate count, gathering every
    segment once and flat-searching the composite ``(row, value)`` keys —
    both sides are lexicographically sorted by construction — beats the
    per-segment bisection: two C-level ``searchsorted`` passes, no Python
    loop.  Returns ``(found, child_lo, child_hi)`` (bounds ``None`` unless
    requested), or ``None`` when the composite key would overflow int64.
    """
    lengths = seg_hi - seg_lo
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(len(values), dtype=bool), None, None
    starts = np.cumsum(lengths) - lengths
    gidx = np.arange(total, dtype=np.int64) - np.repeat(starts - seg_lo, lengths)
    keys = np.repeat(np.arange(m, dtype=np.int64), lengths)
    vals = col[gidx]
    base = max(int(vals.max()), int(values.max()) if len(values) else 0) + 1
    if m * base >= 1 << 62:  # pragma: no cover - would need ~2^62 codes
        return None
    # Every block here is candidate-sized (16 MB at a 10^5-tuple triangle's
    # leaf), and the first touch of fresh pages is the one cost of this
    # kernel that varies from run to run: build the keys in place and drop
    # each block at its last use rather than at return.
    if not need_bounds:
        del gidx
    keys *= base
    keys += vals
    del vals
    probes = row_id * base
    probes += values
    pos = np.searchsorted(keys, probes)
    found = pos < total
    safe = np.minimum(pos, total - 1, out=pos)
    found &= keys[safe] == probes
    if not need_bounds:
        return found, None, None
    # The run of equal composite keys is one segment's key run, so its
    # first/last gather positions are the child node's absolute bounds.
    child_lo = gidx[safe]
    pos_right = np.searchsorted(keys, probes, side="right")
    child_hi = gidx[np.maximum(pos_right, 1) - 1] + 1
    return found, child_lo, child_hi


#: Total-segment-span budget (as a multiple of the candidate count) under
#: which :func:`_ragged_probe` is preferred over the segmented bisection.
_RAGGED_SPAN_FACTOR = 4


def _tuple_probe(cols, root_lo, root_hi, prefix, row_id, values, span):
    """Leaf membership of whole tuples, or ``None`` when a guard fails.

    At the last variable a relation's frontier-row segment holds exactly the
    rows of ``cols[:, root_lo:root_hi]`` whose leading codes are the row's
    bound ``prefix`` (frontier-aligned columns, one per earlier attribute),
    so candidate ``values[i]`` is in its segment iff the tuple
    ``(prefix[..][row_id[i]], values[i])`` is one of those rows: one
    :func:`pack_keys` of both sides and one :func:`membership_mask` answer
    it without gathering a single segment.  Two guards, decided from row
    counts and code maxima before anything probe-sized is allocated:

    * **rows** — the root range holds at most ``span`` rows (the segment
      entries :func:`_ragged_probe` would gather), so packing them never
      exceeds the work it replaces;
    * **density** — the bit table over the packed keys passes
      :func:`_dense`.  Digit bases from the maxima of both sides bound
      :func:`pack_keys`' own, so the predicted last key bounds the real
      one and :func:`membership_mask` takes its bit-table arm; the
      relation's bases alone are tried first, so a sparse range is
      rejected without a pass over the candidates.
    """
    rows = root_hi - root_lo
    if not 0 < rows <= span:
        return None
    block = [col[root_lo:root_hi] for col in cols]

    def dense(bases):
        top, width = 0, 1
        for column, base in zip(block, bases):
            top = top * base + int(column[-1])  # the last row has the largest key
            width *= base
        return width < 1 << 63 and _dense((top >> 6) + 2, rows + len(values))

    # The relation's own bases understate the packed keys, so a range that
    # fails on them fails for sure — before any pass over the candidates.
    bases = [1 + int(column.max()) for column in block]
    if not dense(bases):
        return None
    probe_tops = [int(column.max()) for column in prefix] + [int(values.max())]
    if not dense([max(base, 1 + top) for base, top in zip(bases, probe_tops)]):
        return None
    probe = [column[row_id] for column in prefix] + [values]
    block_key, probe_key = pack_keys(block, probe)
    del probe  # the gathered prefix codes, now folded into the keys
    return membership_mask(probe_key, block_key), None, None


def _level0_starts(column_set):
    """The column set's level-0 offsets array, or ``None`` when sparse.

    ``starts[v]`` is the first row whose column-0 code is ``>= v`` (``v`` in
    ``0 .. last code + 1``): value ``v``'s trie node, with no search.  Built
    once in O(n + D) and kept in the set's :meth:`ColumnSet.np_trie_cache`.
    """
    col0 = column_set.np_columns()[0]
    n = len(col0)
    if n == 0 or not _dense(int(col0[-1]) + 2, n):
        return None
    cache = column_set.np_trie_cache()
    starts = cache.get("level0_starts")
    if starts is None:
        starts = np.zeros(int(col0[-1]) + 2, dtype=np.int64)
        np.cumsum(np.bincount(col0), out=starts[1:])
        cache["level0_starts"] = starts
    return starts


def _direct_probe(column_set, root_lo, root_hi, values):
    """``(present, lo, hi)`` by direct addressing, or ``None`` when sparse.

    A value is present when its level-0 child range, clipped to the root
    range ``[root_lo, root_hi)`` (which may cut inside a key's run), is
    non-empty — so codes past the column's last miss.
    """
    starts = _level0_starts(column_set)
    if starts is None:
        return None
    top = len(starts) - 1
    lo = np.maximum(starts[np.minimum(values, top)], root_lo)
    hi = np.minimum(starts[np.minimum(values + 1, top)], root_hi)
    return lo < hi, lo, hi


#: A single whole-level driver is kept (skipping per-row bookkeeping and
#: its own membership probe) while its total key-run span stays within
#: this multiple of the per-row-minimum sum; the gathered candidate block
#: is then within the same factor of the Generic-Join-optimal size, so
#: the worst-case-optimality slope is preserved.
_DRIVER_SPAN_SLACK = 2


def vectorized_execute_join(
    relations: Sequence[Relation],
    order: tuple[str, ...],
    name: str,
    root_ranges: Sequence[tuple[int, int] | None] | None = None,
) -> Relation:
    """Block-at-a-time twin of :func:`~repro.relational.execution.execute_join`.

    ``order`` is the already-validated global variable order; the algorithm
    parameterization collapses here because every registered intersection
    (hash-set, leapfrog, delta-probe) computes the same set and the block
    kernel subsumes all three: the smallest-span relation drives, the
    others answer by segmented binary search.
    """
    counter = current_counter()
    if not order:
        counter.tuples_emitted += 1
        return Relation.from_codes(name, order, [()], presorted=True, distinct=True)

    count = len(relations)
    attrs_of: list[tuple[str, ...]] = []
    sets_of: list = []
    cols_of: list[tuple] = []
    lo_of: list = []
    hi_of: list = []
    roots: list[tuple[int, int]] = []
    for index, relation in enumerate(relations):
        attrs = tuple(v for v in order if v in relation.attributes)
        column_set = relation.column_set(attrs)
        bounds = root_ranges[index] if root_ranges is not None else None
        lo, hi = bounds if bounds is not None else (0, column_set.nrows)
        attrs_of.append(attrs)
        sets_of.append(column_set)
        cols_of.append(column_set.np_columns())
        lo_of.append(np.array([lo], dtype=np.int64))
        hi_of.append(np.array([hi], dtype=np.int64))
        roots.append((lo, hi))

    #: Per level: the active ``(relation index, local depth)`` pairs.  A
    #: relation's attrs follow the global order, so when ``var`` is its
    #: local attr number ``d``, its first ``d`` attrs are already resolved.
    active_at: list[list[tuple[int, int]]] = []
    for var in order:
        active = [
            (i, attrs.index(var))
            for i, attrs in enumerate(attrs_of)
            if var in attrs
        ]
        if not active:
            raise QueryError(f"variable {var!r} appears in no relation")
        active_at.append(active)

    bind_cols: list = []  # resolved variable columns, frontier-aligned
    m = 1  # frontier size (the nullary root binding)
    last = len(order) - 1
    for depth in range(len(order)):
        active = active_at[depth]
        # At the last variable every active relation sits on its *final*
        # attribute (attrs follow the global order), so each node's key run
        # is already strictly increasing and nothing descends further: the
        # leaf level skips the dedup mask and the child-range bookkeeping.
        leaf = depth == last
        # Driver: the per-node smallest-candidate-set choice that keeps
        # Generic Join worst-case optimal, blockwise.  The cheap common
        # case is one relation driving the whole frontier (it skips the
        # per-row bookkeeping *and* its own membership probe); it is sound
        # as long as its total span stays within ``_DRIVER_SPAN_SLACK`` of
        # the per-row-minimum sum.  Beyond that — skewed instances where
        # the heavy node's best driver differs from the light nodes' — a
        # whole-level driver would gather Θ(frontier · heavy-run)
        # candidates, a quadratic blowup the interpreted driver never
        # pays, so each row gathers from its own argmin relation instead.
        lens = np.stack([hi_of[i] - lo_of[i] for i, _ in active])
        totals = lens.sum(axis=1)
        min_lens = lens.min(axis=0)
        best_single = int(totals.argmin())
        single = int(totals[best_single]) <= _DRIVER_SPAN_SLACK * int(
            min_lens.sum()
        )
        child_lo: dict[int, object] = {}  # absolute child bounds, where known
        child_hi: dict[int, object] = {}
        if single:
            driver, d_local = active[best_single]
            lengths = lens[best_single]
            total = int(lengths.sum())
            if total == 0:
                m = 0
                break
            # Ragged gather: every row's key run, in one indexing pass.
            row_starts = np.cumsum(lengths) - lengths
            gidx = np.arange(total, dtype=np.int64) - np.repeat(
                row_starts - lo_of[driver], lengths
            )
            row_id = np.repeat(np.arange(m, dtype=np.int64), lengths)
            values = cols_of[driver][d_local][gidx]
            if leaf:
                del gidx  # only the child ranges below the leaf need it
        else:
            # Mixed drivers: gather each row's run from its argmin relation
            # (ties break to the first active, deterministically).  Rows
            # stay in frontier order and runs ascend within a row, so the
            # candidate block is lex-sorted exactly as in the uniform path.
            driver = None
            drv_pos = lens.argmin(axis=0)
            lengths = min_lens
            total = int(lengths.sum())
            if total == 0:
                m = 0
                break
            sel_lo = np.empty(m, dtype=np.int64)
            for p, (i, _) in enumerate(active):
                rows = drv_pos == p
                if rows.any():
                    sel_lo[rows] = lo_of[i][rows]
            row_starts = np.cumsum(lengths) - lengths
            gidx = np.arange(total, dtype=np.int64) - np.repeat(
                row_starts - sel_lo, lengths
            )
            row_id = np.repeat(np.arange(m, dtype=np.int64), lengths)
            drv_of = np.repeat(drv_pos, lengths)
            values = np.empty(total, dtype=np.int64)
            for p, (i, local) in enumerate(active):
                sel = drv_of == p
                if sel.any():
                    values[sel] = cols_of[i][local][gidx[sel]]
        if not leaf:
            # Dedup within each row (run-boundary mask); under a single
            # driver the kept index also yields each value run's absolute
            # ``[lo, hi)`` — the driver's child ranges — for free.
            keep = np.empty(total, dtype=bool)
            keep[0] = True
            np.logical_or(
                row_id[1:] != row_id[:-1], values[1:] != values[:-1],
                out=keep[1:],
            )
            keep_idx = np.flatnonzero(keep)
            if single:
                run_ends = np.append(keep_idx[1:], total)
                child_lo[driver] = gidx[keep_idx]
                child_hi[driver] = child_lo[driver] + (run_ends - keep_idx)
            row_id = row_id[keep_idx]
            values = values[keep_idx]
        counter.tuples_scanned += len(values)

        # Every non-driving active relation answers membership for the whole
        # candidate block (under mixed drivers that is *all* of them — a
        # relation's own rows probe as trivial hits): by direct addressing
        # at its first trie level when its code space is dense, else — when
        # its total segment span is candidate-sized — at the leaf by
        # whole-tuple membership if its guards pass, otherwise by one
        # composite-key flat search over the gathered segments, else by
        # segmented bisection.
        mask = None
        first: dict[int, object] = {}  # first occurrence (bisect path)
        for i, local in active:
            if i == driver:
                continue
            col = cols_of[i][local]
            probed = None
            if local == 0:
                # Every frontier row still holds the relation's root range.
                probed = _direct_probe(
                    sets_of[i], lo_of[i][0], hi_of[i][0], values
                )
            if probed is None and len(col):
                span = int((hi_of[i] - lo_of[i]).sum())
                if span <= _RAGGED_SPAN_FACTOR * len(values) + 1024:
                    if leaf:
                        probed = _tuple_probe(
                            cols_of[i], *roots[i],
                            [bind_cols[order.index(a)] for a in attrs_of[i][:local]],
                            row_id, values, span,
                        )
                    if probed is None:
                        probed = _ragged_probe(
                            col, lo_of[i], hi_of[i], row_id, values, m,
                            need_bounds=not leaf,
                        )
            if probed is not None:
                found, child_lo[i], child_hi[i] = probed
                if leaf:
                    del child_lo[i], child_hi[i]
            else:
                node_lo = lo_of[i][row_id]
                node_hi = hi_of[i][row_id]
                left = _segmented_searchsorted(col, values, node_lo, node_hi)
                found = left < node_hi
                if len(col):
                    found &= col[np.minimum(left, len(col) - 1)] == values
                if not leaf:
                    first[i] = left
            mask = found if mask is None else mask & found
        if mask is not None and not mask.all():
            row_id = row_id[mask]
            values = values[mask]
            for ranges in (child_lo, child_hi, first):
                for i in ranges:
                    ranges[i] = ranges[i][mask]
        m = len(values)
        if m == 0:
            break

        # Advance the frontier: extend the bindings and (below the leaf)
        # open every surviving candidate's child node in each relation.
        bind_cols = [column[row_id] for column in bind_cols]
        bind_cols.append(values)
        if leaf:
            break
        opened = {i for i, _ in active}
        for i, local in active:
            if local == len(attrs_of[i]) - 1:
                # The relation's attrs are exhausted; it is never active
                # (nor consulted) again — stop tracking its ranges.
                lo_of[i] = hi_of[i] = None
                continue
            if i in child_lo:
                # Both run bounds are already located.
                lo_of[i], hi_of[i] = child_lo[i], child_hi[i]
            else:
                # The run end needs one more bisection over the survivors —
                # within the whole *node*, so rows sharing one search as a group.
                hi_of[i] = _segmented_searchsorted(
                    cols_of[i][local], values, lo_of[i][row_id],
                    hi_of[i][row_id], side="right",
                )
                lo_of[i] = first[i]
        for i in range(count):
            if i not in opened and lo_of[i] is not None:
                lo_of[i] = lo_of[i][row_id]
                hi_of[i] = hi_of[i][row_id]

    if m == 0:
        return Relation.from_codes(name, order, [], presorted=True, distinct=True)
    counter.tuples_emitted += m
    return Relation.from_columns(name, order, bind_cols)
