"""Dictionary encoding and sorted columnar code storage (the relation kernel).

This is the storage layer the whole relational engine sits on, mirroring what
the bitmask kernel (``core/varmap.py``) did for the entropy/LP layers: replace
per-operation hashing of arbitrary Python objects with dense machine integers
fixed once at ingestion time.

* A :class:`Dictionary` interns the values of one *attribute* to dense integer
  codes.  Dictionaries are shared per attribute name (:meth:`Dictionary.of`),
  so two relations mentioning the same attribute always agree on codes and
  every join/semijoin/intersection can run directly on the integers — no
  decode, no value hashing, no cross-relation translation.
* A :class:`ColumnSet` materializes one relation's code-tuples *sorted
  lexicographically* under a chosen attribute order, with one ``array('q')``
  per attribute built on demand.  Sorted columns are what the shared
  :class:`~repro.relational.trie.SortedTrieIterator` walks: a trie level is a
  contiguous code range, descents are C-level binary searches, and seeks
  gallop (:func:`gallop_left`) instead of probing dicts.

Codes order values by *first appearance*, not by ``<`` on the values — the
engine only ever needs a total order that all participating relations share,
which the per-attribute sharing guarantees.  Anything user-facing (CSV dumps,
``as_dicts``) decodes back to values at the boundary.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.exceptions import DeltaError, SchemaError
from repro.relational.backend import vectorize

__all__ = [
    "Dictionary",
    "ColumnSet",
    "apply_plan_to_columns",
    "apply_signed_rows",
    "canonical_codes",
    "concat_columns",
    "decode_row",
    "encode_columns",
    "gallop_left",
    "merge_runs",
    "merge_violation",
    "signed_merge_plan",
]


class Dictionary:
    """Interns one attribute's values to dense integer codes.

    Attributes:
        attribute: the attribute name this dictionary encodes.

    The code space is append-only: ``encode`` assigns ``0, 1, 2, ...`` in
    first-appearance order and never re-assigns, so codes handed out earlier
    stay valid for the lifetime of the process.  Values must be hashable
    (exactly the constraint tuple-set relations already imposed).
    """

    __slots__ = ("attribute", "_codes", "_values", "_tables")

    #: shared per-attribute-name instances (see :meth:`of`).
    _registry: dict = {}

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._codes: dict = {}
        self._values: list = []
        #: per target dictionary *object*: this dictionary's code -> the
        #: target's code of the same value, ``-1`` until first translated.
        self._tables: dict = {}

    @classmethod
    def of(cls, attribute: str) -> "Dictionary":
        """The shared dictionary for ``attribute`` (one per name per process).

        The registry is append-only and retains every value ever encoded, so
        a long-lived process cycling through many unrelated datasets should
        call :meth:`reset_registry` at workload boundaries.
        """
        found = cls._registry.get(attribute)
        if found is None:
            found = cls(attribute)
            cls._registry[attribute] = found
        return found

    @classmethod
    def reset_registry(cls) -> None:
        """Drop all shared dictionaries (reclaiming their interned values).

        Only safe at a workload boundary: relations built *before* the reset
        keep their (still-valid) dictionary objects, but they no longer share
        codes with relations built afterwards, so mixing the two in one join
        is undefined.  Intended for long-running processes and test harnesses
        that churn through many unrelated datasets.
        """
        cls._registry.clear()

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value) -> int:
        """The code of ``value``, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def encode_existing(self, value) -> int | None:
        """The code of ``value`` if already interned, else ``None``."""
        return self._codes.get(value)

    def decode(self, code: int):
        """The value behind ``code``."""
        return self._values[code]

    @property
    def values(self) -> list:
        """The interned values, indexable by code (do not mutate)."""
        return self._values

    def translate(self, target: "Dictionary", codes: Sequence[int]):
        """One column of this dictionary's ``codes`` as ``target``'s codes.

        The one owner of "re-code column *i* from attribute A to B" (atom
        binding, relabeled deltas).  Each ``(source, target)`` pair keeps one
        ``array('q')`` table, keyed on the target *object* (a dictionary
        from before :meth:`reset_registry` shares nothing with its
        successor) and extended with ``-1`` as the source grows: a value
        costs one ``target.encode`` the first time a column mentions it — in
        first-appearance order of the column, so the target interns exactly
        as a per-row pass would — and one table read after that.  The result
        type depends on the gate alone: an int64 ndarray on the numpy arm
        (``vectorize(len(codes))``; when ``target is self`` a zero-copy view
        of an array or buffer column), a list below it.
        """
        wide = vectorize(len(codes))
        if wide:
            import numpy

            codes = numpy.asarray(codes, dtype=numpy.int64)
        if target is self:
            return codes if wide else list(codes)
        values, encode = self.values, target.encode
        table = self._tables.setdefault(target, array("q"))
        table.extend([-1] * (len(values) - len(table)))  # the source grew
        if not wide:
            for code in codes:
                if table[code] < 0:
                    table[code] = encode(values[code])
            return [table[code] for code in codes]
        lookup = numpy.frombuffer(table, dtype=numpy.int64)
        unseen = lookup[codes] < 0
        if unseen.any():
            pending, first = numpy.unique(codes[unseen], return_index=True)
            for code in pending[numpy.argsort(first)].tolist():
                table[code] = encode(values[code])
        return lookup[codes]

    def __repr__(self) -> str:
        return f"Dictionary({self.attribute!r}: {len(self)} values)"


def decode_row(dictionaries: Sequence[Dictionary], code_row: tuple) -> tuple:
    """Decode one code tuple through its aligned dictionaries."""
    return tuple(d.values[c] for d, c in zip(dictionaries, code_row))


def encode_columns(attrs: tuple[str, ...], columns: Iterable[Sequence]) -> "ColumnSet":
    """The canonical column set of aligned, unsorted value ``columns``.

    The one encoder of ``Relation(...)`` and the CSV loader.  Repeated
    ``attrs`` are rejected before anything is interned.  Each column's
    distinct values are interned once into its attribute's shared
    dictionary in first-appearance order (what a per-row pass does, since
    distinct attributes have distinct dictionaries) and coded by one
    ``map``; :func:`canonical_codes` sorts and deduplicates the codes.
    ``attrs`` must be non-empty: columns cannot carry a nullary row count.
    """
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate attributes in schema {attrs}")
    codes = []
    for attr, values in zip(attrs, columns):
        table = dict.fromkeys(values)
        encode = Dictionary.of(attr).encode
        for value in table:
            table[value] = encode(value)
        codes.append(array("q", list(map(table.__getitem__, values))))
    return canonical_codes(attrs, codes)


def canonical_codes(attrs: tuple[str, ...], codes: Sequence[Sequence]) -> "ColumnSet":
    """The canonical column set of aligned, unsorted code columns over the
    non-empty ``attrs``, sorted and deduplicated: one ``np.unique`` of their
    ``pack_keys`` keys past the ``vectorize`` gate (the set holds columns
    only), ``sorted(set(zip(...)))`` below it."""
    if vectorize(len(codes[0])):
        import numpy as np

        from repro.relational.vectorized import np_to_column, pack_keys

        arrays = [np.asarray(column, dtype=np.int64) for column in codes]
        first = np.unique(pack_keys(arrays)[0], return_index=True)[1]
        return ColumnSet(attrs, columns=[np_to_column(a[first]) for a in arrays])
    return ColumnSet(attrs, sorted(set(zip(*codes))), presorted=True)


def concat_columns(blocks: Sequence[Sequence], nrows: int) -> list:
    """Blocks of aligned code columns (``nrows`` rows in all) as one column
    per position: int64 ndarrays past the ``vectorize`` gate, ``array('q')``
    below it."""
    if vectorize(nrows):
        import numpy as np

        return [
            np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
            for parts in zip(*blocks)
        ]
    return [array("q", chain.from_iterable(parts)) for parts in zip(*blocks)]


class ColumnSet:
    """Code-tuples over an ordered attribute list, lexicographically sorted.

    ``rows`` is the full multiset of the owning relation's tuples projected
    onto ``attrs`` (duplicates preserved, one entry per relation tuple), kept
    sorted so that

    * every trie level (a fixed prefix) is a contiguous index range,
    * distinct prefixes are run boundaries (projection/degree = linear scan),
    * per-attribute ``array('q')`` columns support C-speed binary search.

    The set holds its sorted tuples as row tuples, as aligned columns, or as
    both; whichever form is missing is derived on first use and cached —
    operators that only need row tuples (merge joins, partitions) never pay
    for the arrays, and a set built from columns (the vectorized join-output
    path, ``mmap``-ed column files, range views) never pays the O(N · arity)
    transpose back into Python tuples unless something asks for
    :attr:`rows`.  This class is the only place the two forms convert.
    """

    __slots__ = (
        "attrs",
        "_rows",
        "_nrows",
        "_columns",
        "_trie_keys",
        "_trie_sets",
        "_np_cols",
        "_np_keys",
        "_digest",
        "_backing",
    )

    def __init__(
        self,
        attrs: Sequence[str],
        rows: list | None = None,
        presorted: bool = False,
        columns: Sequence | None = None,
    ) -> None:
        """Adopt code tuples given as ``rows``, as ``columns``, or as both.

        ``rows`` are sorted here unless ``presorted``; ``columns`` are one
        ``array('q')`` / ``memoryview`` per attribute, already sorted-aligned
        (and, when both forms are given, aligned with the sorted ``rows`` —
        the signed merge produces exactly that pair).  A set without
        attributes needs ``rows``: a column tuple cannot carry its row count.
        """
        self.attrs: tuple[str, ...] = tuple(attrs)
        if columns is not None:
            columns = tuple(columns)
        if rows is not None:
            if not presorted:
                rows = sorted(rows)
            nrows = len(rows)
        elif columns:
            nrows = len(columns[0])
        else:
            raise ValueError(
                f"a column set over {self.attrs} needs rows or one column "
                f"per attribute"
            )
        if columns is not None and (
            len(columns) != len(self.attrs)
            or any(len(col) != nrows for col in columns)
        ):
            raise ValueError(
                f"columns do not match {len(self.attrs)} attrs x {nrows} rows"
            )
        self._rows: list | None = rows
        self._nrows: int = nrows
        self._columns: tuple | None = columns
        self._trie_keys: dict | None = None
        self._trie_sets: dict | None = None
        self._np_cols: tuple | None = None
        self._np_keys: dict | None = None
        self._digest: str | None = None
        self._backing = None

    @classmethod
    def from_columns(cls, attrs: Sequence[str], columns: Sequence) -> "ColumnSet":
        """``ColumnSet(attrs, columns=columns)``: row tuples stay lazy."""
        return cls(attrs, columns=columns)

    @property
    def rows(self) -> list:
        """The sorted code tuples (transposed from the columns on demand)."""
        rows = self._rows
        if rows is None:
            rows = list(zip(*self._columns)) if self._nrows else []
            self._rows = rows
        return rows

    def trie_caches(self) -> tuple[dict, dict]:
        """The shared per-node key-run/key-set caches of this column set.

        Every :class:`~repro.relational.trie.SortedTrieIterator` over this
        column set shares them (keys are ``(depth, lo, hi)`` node ranges), so
        a node's distinct-key list materializes once per *relation*, not once
        per iterator — the difference between O(shards · nodes) and O(nodes)
        when partition-parallel workers walk many shard iterators over one
        shared relation.
        """
        if self._trie_keys is None:
            self._trie_keys = {}
            self._trie_sets = {}
        return self._trie_keys, self._trie_sets

    def np_trie_cache(self) -> dict:
        """The shared ``(depth, lo, hi) -> int64 ndarray`` node key-run cache.

        The vectorized backend's twin of :meth:`trie_caches`: each trie
        node's distinct-key run materializes once per column set as a numpy
        array and is shared by every block kernel (and, via ``tolist``, with
        the interpreted caches) instead of being rebuilt per iterator.  The
        vectorized join keeps its level-0 offsets array here too (key
        ``"level0_starts"``): it lives exactly as long as this column set.
        """
        if self._np_keys is None:
            self._np_keys = {}
        return self._np_keys

    def np_columns(self) -> tuple:
        """Zero-copy ``int64`` numpy views of :attr:`columns` (cached).

        Only callable when numpy is importable (the vectorized backend
        guarantees it); the views share the ``array('q')`` buffers through
        ``np.frombuffer``, so no column data is copied.
        """
        cols = self._np_cols
        if cols is None:
            import numpy

            cols = tuple(
                numpy.frombuffer(col, dtype=numpy.int64) for col in self.columns
            )
            self._np_cols = cols
        return cols

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def columns(self) -> tuple:
        """One sorted-aligned ``array('q')`` per attribute (built on demand).

        Materialized by one C-level ``zip(*rows)`` transpose instead of one
        Python generator pass per column — relations are rebuilt per version
        under incremental maintenance, so this runs often enough to matter.
        """
        cols = self._columns
        if cols is None:
            rows = self.rows
            if rows:
                cols = tuple(array("q", column) for column in zip(*rows))
            else:
                cols = tuple(array("q") for _ in self.attrs)
            self._columns = cols
        return cols

    @property
    def materialized_columns(self) -> tuple | None:
        """The column arrays if already built, without forcing the build.

        Incremental maintenance advances materialized columns by array
        splicing (:func:`apply_plan_to_columns`) — but only for versions
        that actually built them; unmaterialized columns stay lazy.
        """
        return self._columns

    @property
    def materialized_rows(self) -> list | None:
        """The row tuples if already built (see :attr:`materialized_columns`)."""
        return self._rows

    def find_row(self, row: tuple, lo: int = 0) -> tuple[int, bool]:
        """Where ``row`` sorts among rows ``[lo, nrows)``, and whether it is there.

        One bisection of the row tuples if they are held, else two column
        binary searches per level — a columns-only set is never transposed
        to answer membership or to place a small delta.
        """
        rows = self._rows
        if rows is not None:
            at = bisect_left(rows, row, lo)
            return at, at < self._nrows and rows[at] == row
        hi = self._nrows
        for depth, code in enumerate(row):
            lo, hi = self.code_range(code, code + 1, lo, hi, depth)
        return lo, lo < hi

    def content_digest(self) -> str:
        """A content fingerprint of this column set (cached per version).

        SHA-1 over the attribute list and the column-major code buffers:
        two column sets over the same attributes digest equal exactly when
        they hold the same rows.  Immutable column sets cache it, which is
        what makes *per-relation* digest tokens cheap — the parallel pool
        (:mod:`repro.parallel.pool`) and the incremental engine's delta-aware
        shipping (:mod:`repro.incremental`) compare digests relation by
        relation, so an unchanged relation is recognized (and never
        reshipped) without rescanning its rows.

        The canonical byte stream is always column-major.  When only the
        row tuples exist, each column position is hashed in bounded chunks
        straight off the rows instead of materializing (and caching) the
        full ``array('q')`` transpose just to fingerprint it; file-backed
        sets (:mod:`repro.relational.storage`) carry their manifest digest
        and never rescan at all.
        """
        digest = self._digest
        if digest is None:
            hasher = hashlib.sha1()
            hasher.update(",".join(self.attrs).encode())
            columns = self._columns
            if columns is not None:
                for column in columns:
                    hasher.update(memoryview(column))
            else:
                rows = self.rows
                for position in range(len(self.attrs)):
                    for start in range(0, self._nrows, 65536):
                        chunk = rows[start : start + 65536]
                        hasher.update(
                            memoryview(array("q", [row[position] for row in chunk]))
                        )
            digest = hasher.hexdigest()
            self._digest = digest
        return digest

    @property
    def backing(self):
        """The persisted artifact behind this column set, if file-backed.

        ``None`` for ordinary in-heap sets; a
        :class:`~repro.relational.storage.ColumnBacking` (digest +
        column-file paths) for sets opened from — or persisted into — a
        database directory.  The parallel pool ships backed sets as *paths*
        instead of buffers (:func:`repro.parallel.pool._pack_entry`).
        """
        return self._backing

    def attach_backing(self, backing, digest: str | None = None) -> None:
        """Bind this column set to its persisted artifact.

        ``digest`` (the manifest digest of the artifact bytes) pre-seeds the
        cached :meth:`content_digest` so a file-backed set fingerprints
        without ever touching its data.
        """
        self._backing = backing
        if digest is not None:
            self._digest = digest

    def code_range(
        self,
        code_lo: int,
        code_hi: int,
        lo: int = 0,
        hi: int | None = None,
        depth: int = 0,
    ) -> tuple[int, int]:
        """Row-index range of rows with ``column[depth]`` in ``[code_lo, code_hi)``.

        Searched within rows ``[lo, hi)``, which must already fix the first
        ``depth`` codes (so the depth column is sorted there); ``depth`` 0 is
        the whole sorted row list.  Two binary searches — the shard-boundary
        primitive of :mod:`repro.parallel.partition`.
        """
        if hi is None:
            hi = self._nrows
        column = self.columns[depth]
        start = bisect_left(column, code_lo, lo, hi)
        end = bisect_left(column, code_hi, start, hi)
        return start, end

    def restrict_range(self, lo: int, hi: int) -> "ColumnSet":
        """A zero-copy view of rows ``[lo, hi)`` (same attrs, same sort order).

        The view shares this set's column buffers through ``memoryview``
        slices, so restricting costs O(arity) regardless of the range size;
        its row tuples stay lazy, and it owns its caches and digest — row
        indices are shifted, so nothing derived from the base carries over.
        A plan driver's shard slices each resident relation this way
        (:meth:`repro.core.query_plans.Driver.run`); trie
        iterators restrict through their root bounds instead.
        """
        if not 0 <= lo <= hi <= self._nrows:
            raise IndexError(f"range [{lo}, {hi}) outside 0..{self._nrows}")
        if not self.attrs:
            return ColumnSet((), self.rows[lo:hi], presorted=True)
        return ColumnSet(
            self.attrs, columns=[memoryview(col)[lo:hi] for col in self.columns]
        )

    def distinct_prefix_count(self, depth: int) -> int:
        """Number of distinct length-``depth`` prefixes among the rows."""
        if depth == 0:
            return 1 if self._nrows else 0
        if vectorize(self._nrows):
            import numpy

            change = numpy.zeros(self._nrows, dtype=bool)
            change[0] = True
            for col in self.np_columns()[:depth]:
                change[1:] |= col[1:] != col[:-1]
            return int(change.sum())
        rows = self.rows
        count = 0
        previous = None
        for row in rows:
            head = row[:depth]
            if head != previous:
                count += 1
                previous = head
        return count

    def __repr__(self) -> str:
        return f"ColumnSet({self.attrs}: {self.nrows} rows)"


def gallop_left(column, code: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` with ``column[i] >= code``.

    Exponential (galloping) probe from ``lo`` followed by a binary search in
    the located bracket — the LFTJ seek primitive [47, §3.1]: cost is
    logarithmic in the *distance moved*, not in the range size, which is what
    keeps leapfrogging within the AGM bound.
    """
    step = 1
    probe = lo
    while probe < hi and column[probe] < code:
        lo = probe + 1
        probe += step
        step <<= 1
    return bisect_left(column, code, lo, min(probe, hi))


def merge_violation(row: tuple, present: bool) -> DeltaError:
    """The strict-merge error both arms of the signed merge raise."""
    if present:
        return DeltaError(f"insert of already-present row {row}")
    return DeltaError(f"delete of absent row {row}")


def signed_merge_plan(
    base: "ColumnSet | Sequence", delta_rows: Iterable, signs: Sequence[int]
) -> list:
    """The splice plan merging a sorted signed delta into the sorted ``base``.

    ``base`` is a list of code tuples or the :class:`ColumnSet` holding
    them (searched by :meth:`ColumnSet.find_row`, in whichever form it has).
    Returns a delta-sized list of instructions — ``slice(lo, hi)`` objects
    for kept stretches of the base, interleaved with inserted row tuples
    (the two are type-distinguishable) — that :func:`apply_signed_rows`
    materializes as a row list and :func:`apply_plan_to_columns` as
    per-attribute ``array('q')`` columns.  Each delta row costs one search;
    everything between delta rows moves as one C-speed slice.  This
    is the interpreted arm of the signed merge: a delta on the numpy arm
    never builds a plan (:func:`repro.incremental.delta.advance_relation`).

    An insert of a present row or a delete of an absent row raises
    :class:`DeltaError`; the incremental engine validates batches up front,
    so a failure here means a maintenance bug, not bad user input.
    """
    if not isinstance(base, ColumnSet):
        base = ColumnSet((), base, presorted=True)  # row search reads no attrs
    find, n = base.find_row, base.nrows
    plan: list = []
    prev = 0
    for row, sign in zip(delta_rows, signs):
        pos, present = find(row, prev)
        if pos > prev:
            plan.append(slice(prev, pos))
        if present == (sign > 0):
            raise merge_violation(row, present)
        if present:
            prev = pos + 1
        else:
            plan.append(row)
            prev = pos
    if n > prev:
        plan.append(slice(prev, n))
    return plan


def apply_signed_rows(
    rows: Sequence,
    delta_rows: Sequence,
    signs: Sequence[int],
    plan: list | None = None,
) -> list:
    """Merge a sorted signed delta into sorted, duplicate-free ``rows``.

    The sorted-run merge of the log-structured storage
    (:mod:`repro.incremental.delta`): ``delta_rows`` are ascending distinct
    code tuples with aligned ``signs`` (``+1`` insert, ``-1`` delete), and
    the result is the new sorted row list — built by C-speed slices from
    the :func:`signed_merge_plan` (pass ``plan`` to reuse one already
    computed; the delta is not read then), so merging a small batch into a
    large base never pays a per-row Python pass.
    """
    if not isinstance(rows, list):
        rows = list(rows)
    if plan is None:
        plan = signed_merge_plan(rows, delta_rows, signs)
    out: list = []
    for step in plan:
        if type(step) is slice:
            out.extend(rows[step])
        else:
            out.append(step)
    return out


def apply_plan_to_columns(columns: Sequence, plan: list) -> tuple:
    """Apply a :func:`signed_merge_plan` to materialized ``array('q')`` columns.

    The column-side twin of :func:`apply_signed_rows`: kept stretches move
    as C-level array slices, inserted rows contribute one code per column —
    so a relation version's columns advance in O(|delta| + memcpy) instead
    of a fresh O(N · arity) transpose per batch.
    """
    # array-slice extends hit the C same-typecode fast path; a memoryview
    # here would fall back to per-item iteration.
    out = [array("q") for _ in columns]
    for step in plan:
        if type(step) is slice:
            for target, column in zip(out, columns):
                target.extend(column[step])
        else:
            for target, code in zip(out, step):
                target.append(code)
    return tuple(out)


def merge_runs(left: Sequence, right: Sequence, key) -> Iterator[tuple[int, int, int, int]]:
    """Pair up matching key runs of two ``key``-sorted sequences.

    The inner loop of the sort-merge ⋈ in
    :mod:`repro.relational.operators`: for each key present on both sides, yields
    the half-open index ranges ``(i, i_end, j, j_end)`` of its left and
    right runs; the caller cross-combines the two blocks however it likes.
    """
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left and j < n_right:
        left_key = key(left[i])
        right_key = key(right[j])
        if left_key < right_key:
            i += 1
            continue
        if left_key > right_key:
            j += 1
            continue
        i_end = i + 1
        while i_end < n_left and key(left[i_end]) == left_key:
            i_end += 1
        j_end = j + 1
        while j_end < n_right and key(right[j_end]) == left_key:
            j_end += 1
        yield i, i_end, j, j_end
        i, j = i_end, j_end
