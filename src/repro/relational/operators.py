"""Relational operators: join, semijoin, project, select, union, partition.

These are the only operations PANDA performs (§1.3: "join, horizontal
partition, union" — plus the projections of monotonicity steps and the
semijoins of the query drivers).  Every operand is a lexicographically
sorted set of integer code rows (:mod:`repro.relational.columns`; shared
dictionaries make codes directly comparable across relations), so each
operator is a scan or a merge, and each has exactly two paths:

* the **column path**, taken when :func:`repro.relational.backend.vectorize`
  says the input (the size named in each operator's docstring) is worth an
  ndarray: operands stay int64 code columns end to end and results are
  adopted by :meth:`Relation.from_columns` without ever materializing row
  tuples.  Multi-attribute keys are packed into one order-preserving int64
  per row (:func:`repro.relational.vectorized.pack_keys`), so a semijoin or
  difference is one ``searchsorted`` membership mask, a union one merging
  argsort plus a run-boundary mask, the join a run-pairing index
  computation, and the partition run lengths of one key argsort.  The one
  step still made of row tuples is outside this module: a non-canonical
  sort order an operator asks of :meth:`Relation.column_set`;
* the **interpreted path** (small inputs, and installs without numpy):
  run scans and merges over the sorted row tuples, hash probes of the right
  side's cached distinct-key set for the semijoin, set algebra on code
  tuples for union/difference.

Both paths return the same canonical rows and charge the same counters.

Every operator counts the tuple-level work it performs into the *current*
:class:`WorkCounter`, so benchmarks can report machine-independent work
alongside wall-clock time.  The counter is scoped through a
:class:`~contextvars.ContextVar` — concurrent or interleaved runs (parallel
pytest, async drivers) each see their own counter under
:func:`scoped_work_counter`.

The heavy/light partition implements Lemma 6.1: a table ``T(A_Y)`` with
``X ⊂ Y`` splits into ``O(log |T|)`` pieces ``T^(j)`` with

    |Π_X(T^(j))| * deg_{T^(j)}(Y | X)  <=  |T|.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import SchemaError
from repro.relational.backend import vectorize
from repro.relational.columns import decode_row, merge_runs
from repro.relational.relation import Relation

__all__ = [
    "WorkCounter",
    "current_counter",
    "scoped_work_counter",
    "project",
    "select_equal",
    "natural_join",
    "semijoin",
    "union",
    "difference",
    "heavy_light_partition",
    "PartitionPiece",
]


@dataclass
class WorkCounter:
    """Counts tuple-level operations for machine-independent cost reporting."""

    tuples_scanned: int = 0
    tuples_emitted: int = 0
    joins: int = 0
    partitions: int = 0
    history: list = field(default_factory=list)

    def reset(self) -> None:
        self.tuples_scanned = 0
        self.tuples_emitted = 0
        self.joins = 0
        self.partitions = 0
        self.history.clear()

    @property
    def total(self) -> int:
        """Total work units (scans + emissions): the benchmarks' cost metric."""
        return self.tuples_scanned + self.tuples_emitted

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict — the wire format worker processes
        report back through (:mod:`repro.parallel.pool`)."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "tuples_emitted": self.tuples_emitted,
            "joins": self.joins,
            "partitions": self.partitions,
        }

    def absorb(self, counts: "WorkCounter | dict") -> None:
        """Add another counter's numbers into this one.

        The parent-scope aggregation of partition-parallel execution: each
        worker runs its shard under its own scoped counter and ships the
        totals home, so ``repro run --stats`` stays truthful about the work
        actually performed regardless of the worker count.
        """
        if isinstance(counts, WorkCounter):
            counts = counts.as_dict()
        self.tuples_scanned += counts.get("tuples_scanned", 0)
        self.tuples_emitted += counts.get("tuples_emitted", 0)
        self.joins += counts.get("joins", 0)
        self.partitions += counts.get("partitions", 0)


#: Process-wide fallback counter (what un-scoped code observes).
_DEFAULT_COUNTER = WorkCounter()

_counter_var: ContextVar[WorkCounter] = ContextVar(
    "repro_work_counter", default=_DEFAULT_COUNTER
)


def current_counter() -> WorkCounter:
    """The :class:`WorkCounter` active in the current context."""
    return _counter_var.get()


@contextmanager
def scoped_work_counter(counter: WorkCounter | None = None) -> Iterator[WorkCounter]:
    """Run the body against its own work counter.

    Every operator inside the ``with`` block charges the scoped counter
    instead of the process-wide one, so interleaved runs cannot corrupt each
    other's scan/emit counts.  Scoping follows :mod:`contextvars` semantics:
    asyncio tasks spawned inside the block inherit the counter, but worker
    *threads* start from a fresh context and see the process-wide default —
    to count inside a thread, enter ``scoped_work_counter(counter)`` in the
    thread body (or run it under ``contextvars.copy_context()``)::

        with scoped_work_counter() as counter:
            generic_join(relations)
            print(counter.total)
    """
    if counter is None:
        counter = WorkCounter()
    token = _counter_var.set(counter)
    try:
        yield counter
    finally:
        _counter_var.reset(token)


def _np_keys(*operands):
    """:func:`~repro.relational.vectorized.pack_keys` over ``(columns,
    nrows)`` operands; the empty key (no attribute to compare) packs to 0."""
    import numpy as np

    from repro.relational.vectorized import pack_keys

    if not operands[0][0]:
        return [np.zeros(nrows, dtype=np.int64) for _, nrows in operands]
    return pack_keys(*(columns for columns, _ in operands))


def _realigned_rows(relation: Relation, schema: tuple[str, ...]) -> list:
    """``relation``'s code rows laid out under ``schema`` (a permutation of
    its own); the canonical list itself when the two already agree."""
    if relation.schema == schema:
        return relation.code_rows
    positions = tuple(relation.position(a) for a in schema)
    return [tuple(row[p] for p in positions) for row in relation.code_rows]


def project(relation: Relation, attrs: Iterable[str], name: str | None = None) -> Relation:
    """``Π_attrs(relation)``; output schema order follows the input schema.

    A run scan over the column set sorted by the kept attributes: distinct
    projections are exactly the run starts, so no hashing is needed and the
    output rows come out pre-sorted.  Column path gated on the input rows.
    """
    attr_set = frozenset(attrs)
    if not attr_set <= relation.attributes:
        raise SchemaError(
            f"cannot project {relation.schema} onto {sorted(attr_set)}"
        )
    out_schema = tuple(a for a in relation.schema if a in attr_set)
    column_set = relation.column_set(out_schema)
    counter = _counter_var.get()
    counter.tuples_scanned += len(relation)
    name = name or f"Π({relation.name})"
    if out_schema and vectorize(column_set.nrows):
        # Run starts as one boolean change mask over the sorted columns;
        # the distinct rows gather straight into output columns.
        import numpy as np

        cols = column_set.np_columns()
        keep = np.zeros(column_set.nrows, dtype=bool)
        keep[0] = True
        for col in cols:
            keep[1:] |= col[1:] != col[:-1]
        out_cols = tuple(col[keep] for col in cols)
        counter.tuples_emitted += len(out_cols[0])
        return Relation.from_columns(name, out_schema, out_cols)
    out_rows: list[tuple] = []
    previous = None
    for row in column_set.rows:
        if row != previous:
            out_rows.append(row)
            previous = row
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name, out_schema, out_rows, presorted=True, distinct=True
    )


def select_equal(relation: Relation, attr: str, value, name: str | None = None) -> Relation:
    """``σ_{attr = value}(relation)`` via binary search on the sorted column."""
    position = relation.position(attr)
    code = relation.dictionaries[position].encode_existing(value)
    counter = _counter_var.get()
    if code is None or relation.is_empty():
        return Relation.from_codes(
            name or f"σ({relation.name})", relation.schema, [], presorted=True,
            distinct=True,
        )
    order = (attr,) + tuple(a for a in relation.schema if a != attr)
    column_set = relation.column_set(order)
    column = column_set.columns[0]
    lo = bisect_left(column, code)
    hi = bisect_right(column, code, lo)
    selected = column_set.rows[lo:hi]
    # Reorder each row back to schema layout; with the selected attribute
    # constant, sortedness under `order` implies sortedness under the schema.
    inverse = tuple(order.index(a) for a in relation.schema)
    out_rows = [tuple(row[i] for i in inverse) for row in selected]
    counter.tuples_scanned += len(out_rows)
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name or f"σ({relation.name})",
        relation.schema,
        out_rows,
        presorted=True,
        distinct=True,
    )


def natural_join(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """``left ⋈ right`` via sort-merge join on the shared attributes.

    Both sides are sorted shared-attributes-major; matching key runs are
    paired by a linear merge and their row blocks cross-multiplied.  The
    output schema is left's schema followed by right's private attributes.
    A cross product (no shared attributes) is supported but counted at full
    cost, as it should be.  Column path gated on the two inputs' rows.
    """
    shared = tuple(sorted(left.attributes & right.attributes))
    right_private = tuple(a for a in right.schema if a not in left.attributes)
    out_schema = left.schema + right_private

    k = len(shared)
    left_order = shared + tuple(a for a in left.schema if a not in shared)
    right_order = shared + right_private
    left_set = left.column_set(left_order)
    right_set = right.column_set(right_order)

    counter = _counter_var.get()
    counter.tuples_scanned += left_set.nrows + right_set.nrows
    counter.joins += 1
    name = name or f"({left.name}⋈{right.name})"
    if vectorize(left_set.nrows + right_set.nrows):
        out_columns = _np_merge_join(left_set, right_set, k, out_schema)
        counter.tuples_emitted += len(out_columns[0])
        return Relation.from_columns(name, out_schema, out_columns)
    left_rows = left_set.rows
    right_rows = right_set.rows
    # Positions mapping a left-order row back to left-schema layout.
    left_inverse = tuple(left_order.index(a) for a in left.schema)

    out_rows: list[tuple] = []
    for i, i_end, j, j_end in merge_runs(
        left_rows, right_rows, lambda row: row[:k]
    ):
        for a in range(i, i_end):
            realigned = tuple(left_rows[a][p] for p in left_inverse)
            for b in range(j, j_end):
                out_rows.append(realigned + right_rows[b][k:])
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(name, out_schema, out_rows, distinct=True)


def _np_merge_join(left_set, right_set, k, out_schema):
    """The sort-merge ⋈ on the first ``k`` (shared) columns as numpy block
    kernels.

    The shared columns pack into one composite key per side; matching key
    runs are located with vectorized ``searchsorted`` over the (key-sorted)
    packed keys, the per-run cross products expand with one
    ``repeat``/``tile``-style indexing pass, and the result columns are
    sorted into the canonical ``out_schema`` row order — exactly the rows
    the interpreted merge emits after its ``from_codes`` sort.
    """
    import numpy as np

    from repro.relational.vectorized import membership_mask, pack_keys, sorted_unique

    left_cols = left_set.np_columns()
    right_cols = right_set.np_columns()
    left_key, right_key = _np_keys(
        (left_cols[:k], left_set.nrows), (right_cols[:k], right_set.nrows)
    )
    shared_keys = sorted_unique(left_key)
    shared_keys = shared_keys[membership_mask(shared_keys, right_key)]
    left_lo = np.searchsorted(left_key, shared_keys, side="left")
    left_hi = np.searchsorted(left_key, shared_keys, side="right")
    right_lo = np.searchsorted(right_key, shared_keys, side="left")
    right_hi = np.searchsorted(right_key, shared_keys, side="right")
    right_counts = right_hi - right_lo
    pair_counts = (left_hi - left_lo) * right_counts
    total = int(pair_counts.sum())
    # Per output slot: which key run, and the (left, right) offsets inside
    # its cross product — all index arithmetic, no per-run Python loop.
    slots = np.arange(total, dtype=np.int64)
    run = np.repeat(np.arange(len(shared_keys), dtype=np.int64), pair_counts)
    local = slots - np.repeat(np.cumsum(pair_counts) - pair_counts, pair_counts)
    left_index = left_lo[run] + local // right_counts[run]
    right_index = right_lo[run] + local % right_counts[run]
    columns = []
    for attr in out_schema:
        if attr in left_set.attrs:
            columns.append(left_cols[left_set.attrs.index(attr)][left_index])
        else:
            columns.append(right_cols[right_set.attrs.index(attr)][right_index])
    # Output rows are distinct, so the packed-key argsort has no ties.
    by_row = np.argsort(pack_keys(columns)[0])
    return tuple(column[by_row] for column in columns)


def semijoin(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """``left ⋉ right``: the left tuples with a join partner in right.

    The left side streams in canonical order, so the output is pre-sorted.
    Column path (gated on the two inputs' rows — a small left side still
    pays for the right side's keys): one
    :func:`~repro.relational.vectorized.membership_mask` of the left rows'
    packed shared-attribute keys in the right side's key-sorted ones — a
    bit-table lookup per row when the key range is dense, a
    ``searchsorted`` otherwise.  Interpreted path: probes of the right
    side's cached distinct-key set with code tuples.
    """
    shared = tuple(sorted(left.attributes & right.attributes))
    positions = tuple(left.position(a) for a in shared)
    counter = _counter_var.get()
    counter.tuples_scanned += len(left)
    name = name or left.name
    if left.schema and vectorize(len(left) + len(right)):
        from repro.relational.vectorized import membership_mask

        left_cols = left.column_set(left.schema).np_columns()
        right_set = right.column_set(shared)
        left_key, right_key = _np_keys(
            ([left_cols[p] for p in positions], len(left)),
            (right_set.np_columns(), right_set.nrows),
        )
        mask = membership_mask(left_key, right_key)
        columns = tuple(col[mask] for col in left_cols)
        counter.tuples_emitted += len(columns[0])
        return Relation.from_columns(name, left.schema, columns)
    keys = right.key_set(shared)
    if shared == left.schema:
        out_rows = [row for row in left.code_rows if row in keys]
    else:
        out_rows = [
            row
            for row in left.code_rows
            if tuple(row[p] for p in positions) in keys
        ]
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name, left.schema, out_rows, presorted=True, distinct=True
    )


def union(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set union of two relations over the same attribute set.

    Schemas may order attributes differently; the left order wins.  Shared
    dictionaries make codes directly comparable.  Column path (gated on the
    two inputs' rows): both sides sorted under the left schema are two
    ascending runs of packed row keys — one stable (merging) argsort of
    their concatenation, a run-boundary mask to drop the right rows already
    present, and the surviving positions gather the output columns.
    """
    if left.attributes != right.attributes:
        raise SchemaError(
            f"union needs equal attribute sets, got {left.schema} vs {right.schema}"
        )
    counter = _counter_var.get()
    counter.tuples_scanned += len(left) + len(right)
    name = name or f"({left.name}∪{right.name})"
    if vectorize(len(left) + len(right)):
        import numpy as np

        from repro.relational.vectorized import pack_keys, run_start_mask

        left_cols = left.column_set(left.schema).np_columns()
        right_cols = right.column_set(left.schema).np_columns()
        keys = np.concatenate(pack_keys(left_cols, right_cols))
        merged = np.argsort(keys, kind="stable")
        merged = merged[run_start_mask(keys[merged])]
        columns = tuple(
            np.concatenate(pair)[merged] for pair in zip(left_cols, right_cols)
        )
        counter.tuples_emitted += len(merged)
        return Relation.from_columns(name, left.schema, columns)
    rows = set(left.code_rows)
    rows.update(_realigned_rows(right, left.schema))
    counter.tuples_emitted += len(rows)
    return Relation.from_codes(name, left.schema, list(rows), distinct=True)


def difference(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set difference ``left - right`` over the same attribute set.

    Column path (gated on the two inputs' rows): the left rows whose packed
    key is absent from the right side's sorted ones, by one
    :func:`~repro.relational.vectorized.membership_mask` (bit table or
    ``searchsorted``, by the keys' density).
    """
    if left.attributes != right.attributes:
        raise SchemaError(
            f"difference needs equal attribute sets, got {left.schema} vs {right.schema}"
        )
    counter = _counter_var.get()
    counter.tuples_scanned += len(left) + len(right)
    name = name or f"({left.name}-{right.name})"
    if vectorize(len(left) + len(right)):
        from repro.relational.vectorized import membership_mask, pack_keys

        left_cols = left.column_set(left.schema).np_columns()
        right_cols = right.column_set(left.schema).np_columns()
        left_key, right_key = pack_keys(left_cols, right_cols)
        mask = ~membership_mask(left_key, right_key)
        columns = tuple(col[mask] for col in left_cols)
        counter.tuples_emitted += len(columns[0])
        return Relation.from_columns(name, left.schema, columns)
    removed = set(_realigned_rows(right, left.schema))
    out_rows = [row for row in left.code_rows if row not in removed]
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name, left.schema, out_rows, presorted=True, distinct=True
    )


@dataclass(frozen=True)
class PartitionPiece:
    """One piece of a Lemma 6.1 heavy/light partition.

    Attributes:
        relation: the sub-table ``T^(j)``.
        x_count: ``N^(j)_{X|∅} = |Π_X(T^(j))|``.
        y_degree: ``N^(j)_{Y|X} = max deg_{T^(j)}(Y | t_X)``.
    """

    relation: Relation
    x_count: int
    y_degree: int


def heavy_light_partition(
    relation: Relation, x: Iterable[str]
) -> list[PartitionPiece]:
    """Partition ``relation`` by the degree of its ``X``-projection (Lemma 6.1).

    Groups tuples into log-degree buckets ``[2^j, 2^{j+1})`` and then halves
    any bucket whose ``x_count * y_degree`` product still exceeds ``|T|``, so
    every returned piece satisfies

        piece.x_count * piece.y_degree <= len(relation).

    Returns at most ``2·log2|T| + O(1)`` pieces whose union is ``relation``.
    The ``X``-groups are the runs of the ``X``-major sorted rows — no
    hashing.  Column path gated on the input rows.
    """
    x_attrs = tuple(sorted(frozenset(x)))
    if not frozenset(x_attrs) < relation.attributes:
        raise SchemaError(
            f"partition needs X ⊂ schema, got {x_attrs} vs {relation.schema}"
        )
    total = len(relation)
    if total == 0:
        return []
    counter = _counter_var.get()
    counter.tuples_scanned += total
    counter.partitions += 1
    if vectorize(total):
        x_codes, sizes, buckets, piece_of = _np_x_groups(relation, x_attrs)
    else:
        x_codes, sizes, buckets, piece_of = _x_groups(relation, x_attrs)

    # Bucket halving sorts by decoded x-*values*, not codes: codes order by
    # process-global first-appearance, so splitting on them would make the
    # partition (and every PANDA run built on it) depend on interning
    # history rather than on the relation's contents.
    x_dicts = tuple(relation.dictionaries[relation.position(a)] for a in x_attrs)

    def decoded_x(group: int) -> tuple:
        return decode_row(x_dicts, x_codes(group))

    pieces: list[PartitionPiece] = []
    for j in sorted(buckets):
        # Each entry in the stack is a list of X-groups (by index) sharing
        # log-degree bucket j; halve until the Lemma 6.1 product bound holds.
        stack = [buckets[j]]
        while stack:
            members = stack.pop()
            x_count = len(members)
            y_degree = max(sizes[group] for group in members)
            if x_count * y_degree > total and x_count > 1:
                members = sorted(members, key=decoded_x)
                half = x_count // 2
                stack.append(members[:half])
                stack.append(members[half:])
                continue
            piece = piece_of(f"{relation.name}[{len(pieces) + 1}]", members)
            counter.tuples_emitted += len(piece)
            pieces.append(PartitionPiece(piece, x_count, y_degree))
    return pieces


def _x_groups(relation: Relation, x_attrs: tuple[str, ...]):
    """The ``X``-groups of ``relation``, numbered in ``X``-code order.

    Returns ``(x_codes, sizes, buckets, piece_of)``: the code tuple and row
    count of each group, the group numbers by log-degree bucket, and a
    builder of the sub-relation holding a given list of groups.
    """
    k = len(x_attrs)
    order = x_attrs + tuple(a for a in relation.schema if a not in x_attrs)
    rows = relation.column_set(order).rows
    inverse = tuple(order.index(a) for a in relation.schema)

    # X-groups = runs of the X-prefix; rows realigned back to schema layout.
    keys: list[tuple] = []
    groups: list[list[tuple]] = []
    buckets: dict[int, list[int]] = {}
    i = 0
    n = len(rows)
    while i < n:
        key = rows[i][:k]
        i_end = i + 1
        while i_end < n and rows[i_end][:k] == key:
            i_end += 1
        buckets.setdefault((i_end - i).bit_length() - 1, []).append(len(keys))
        keys.append(key)
        groups.append([tuple(row[p] for p in inverse) for row in rows[i:i_end]])
        i = i_end

    def piece_of(name: str, members: list[int]) -> Relation:
        piece_rows = [row for group in members for row in groups[group]]
        return Relation.from_codes(
            name, relation.schema, piece_rows, distinct=True
        )

    return keys.__getitem__, [len(group) for group in groups], buckets, piece_of


def _np_x_groups(relation: Relation, x_attrs: tuple[str, ...]):
    """:func:`_x_groups` on code columns.

    One argsort of the packed ``X`` key gives the ``X``-major order; group
    sizes are the gaps between its run boundaries, log-degree buckets the
    binary exponents of the size vector, and every canonical row learns its
    group number — so a piece is one boolean mask over the canonical
    columns, already sorted and duplicate-free.
    """
    import numpy as np

    from repro.relational.vectorized import run_start_mask

    total = len(relation)
    columns = relation.column_set(relation.schema).np_columns()
    x_columns = [columns[relation.position(a)] for a in x_attrs]
    (keys,) = _np_keys((x_columns, total))
    by_key = np.argsort(keys)
    starts = run_start_mask(keys[by_key])
    group_of = np.empty(total, dtype=np.int64)
    group_of[by_key] = np.cumsum(starts) - 1
    first_rows = by_key[starts]
    sizes = np.diff(np.append(np.flatnonzero(starts), total))
    # ``frexp`` exponents are bit lengths (exact below 2^53 rows).
    bucket_of = np.frexp(sizes)[1] - 1
    buckets = {
        int(j): np.flatnonzero(bucket_of == j).tolist()
        for j in np.unique(bucket_of)
    }

    def x_codes(group: int) -> tuple:
        return tuple(column[first_rows[group]] for column in x_columns)

    def piece_of(name: str, members: list[int]) -> Relation:
        chosen = np.zeros(len(sizes), dtype=bool)
        chosen[members] = True
        mask = chosen[group_of]
        return Relation.from_columns(
            name, relation.schema, [column[mask] for column in columns]
        )

    return x_codes, sizes.tolist(), buckets, piece_of
