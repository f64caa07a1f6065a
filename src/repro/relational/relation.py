"""Columnar, dictionary-encoded in-memory relations.

A :class:`Relation` is a named set of tuples over a fixed schema (an ordered
tuple of attribute names).  Internally the tuples live as *code* tuples —
each attribute's values interned to dense integers by the shared
per-attribute :class:`~repro.relational.columns.Dictionary` — kept in one
canonical sorted :class:`~repro.relational.columns.ColumnSet` per requested
attribute order.  Every operator, join algorithm, degree computation, and
statistic runs on those sorted integer columns (via the shared
:class:`~repro.relational.trie.SortedTrieIterator` or direct run scans);
values cross the API boundary a column at a time, in by
:func:`~repro.relational.columns.encode_columns`, out by :attr:`tuples`.

The historical tuple-facing API survives as thin adapters: ``__iter__`` /
``tuples`` / ``key_of`` decode on demand (and cache), so
bounds/width/PANDA consumers are unchanged.  Relations remain immutable once
constructed — every operator in :mod:`repro.relational.operators` returns a
new relation — which keeps sharing across PANDA's recursive branches safe.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.exceptions import SchemaError
from repro.relational.backend import vectorize
from repro.relational.columns import (
    ColumnSet,
    Dictionary,
    canonical_codes,
    decode_row,
    encode_columns,
)
from repro.relational.trie import SortedTrieIterator

__all__ = ["Relation"]


def _np_degree(column_set: ColumnSet, split: int) -> int:
    """``max`` distinct-row count per ``X``-group, as numpy run boundaries.

    The vectorized twin of the :meth:`Relation.degree` run scan: group
    boundaries are change points of the first ``split`` columns, distinct
    ``Y``-extensions change points of all columns, and the degree is the
    largest gap between consecutive group boundaries measured in extension
    boundaries.  Only called under the vectorized backend (numpy present).
    """
    import numpy as np

    cols = column_set.np_columns()
    n = column_set.nrows
    full_change = np.zeros(n, dtype=bool)
    full_change[0] = True
    for col in cols:
        full_change[1:] |= col[1:] != col[:-1]
    group_change = np.zeros(n, dtype=bool)
    group_change[0] = True
    for col in cols[:split]:
        group_change[1:] |= col[1:] != col[:-1]
    full_starts = np.flatnonzero(full_change)
    group_starts = np.flatnonzero(group_change)
    # Every group boundary is also a full-row boundary, so the per-group
    # extension count is the index gap between consecutive group starts.
    positions = np.searchsorted(full_starts, group_starts)
    counts = np.diff(np.append(positions, len(full_starts)))
    return int(counts.max())


class Relation:
    """A named set of tuples over an ordered schema, stored columnar.

    Attributes:
        name: display name (targets are ``T_...``, inputs ``R_...``).
        schema: ordered attribute names; ``len(schema)`` is the arity.
    """

    __slots__ = (
        "name",
        "schema",
        "_positions",
        "_dicts",
        "_row_set",
        "_column_sets",
        "_key_sets",
        "_decoded",
        "_store",
    )

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        tuples: Iterable[tuple] = (),
    ) -> None:
        schema = tuple(schema)
        arity = len(schema)
        rows = list(map(tuple, tuples))  # every row validated before any encode
        if set(map(len, rows)) - {arity}:
            row = next(row for row in rows if len(row) != arity)
            raise SchemaError(
                f"tuple {row} has arity {len(row)}, schema {schema} "
                f"expects {arity}"
            )
        if schema:
            # One itemgetter pass per column: ``zip(*rows)`` would allocate a
            # GC-tracked iterator per row, whose collections dominate at 10^6.
            columns = [list(map(itemgetter(i), rows)) for i in range(arity)]
            self._adopt(name, encode_columns(schema, columns))
        else:
            self._adopt(name, ColumnSet((), rows[:1], presorted=True))

    def _adopt(self, name: str, canonical: ColumnSet) -> None:
        """Install ``canonical`` — the schema-order sorted distinct code
        tuples, in whichever form it holds them — as this relation's storage.
        """
        self.name = name
        self.schema: tuple[str, ...] = canonical.attrs
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"duplicate attributes in schema {self.schema}")
        self._positions = {attr: i for i, attr in enumerate(self.schema)}
        self._dicts: tuple[Dictionary, ...] = tuple(
            Dictionary.of(attr) for attr in self.schema
        )
        self._row_set: frozenset | None = None
        self._column_sets: dict[tuple[str, ...], ColumnSet] = {
            self.schema: canonical
        }
        self._key_sets: dict[tuple[str, ...], frozenset] = {}
        self._decoded: frozenset | None = None
        self._store = None

    @classmethod
    def from_column_set(cls, name: str, canonical: ColumnSet) -> "Relation":
        """Build a relation over an existing canonical column set.

        ``canonical`` must hold the sorted duplicate-free code tuples under
        the schema ``canonical.attrs``, codes from those attributes' shared
        dictionaries; the relation shares it (buffers, caches, backing)
        rather than copying.  Every other constructor ends here.
        """
        relation = cls.__new__(cls)
        relation._adopt(name, canonical)
        return relation

    @classmethod
    def from_codes(
        cls,
        name: str,
        schema: Iterable[str],
        code_rows: Iterable[tuple],
        presorted: bool = False,
        distinct: bool = False,
    ) -> "Relation":
        """Build a relation directly from already-encoded code tuples.

        The fast path for operators and join outputs: codes must come from
        the schema attributes' shared dictionaries.  ``presorted`` asserts
        the rows are already in ascending order, ``distinct`` that they are
        duplicate-free; both skip the corresponding normalization pass.
        """
        rows = code_rows if isinstance(code_rows, list) else list(code_rows)
        if not distinct:
            rows = sorted(set(rows))
        elif not presorted:
            rows = sorted(rows)
        return cls.from_column_set(name, ColumnSet(schema, rows, presorted=True))

    @classmethod
    def from_columns(
        cls, name: str, schema: Iterable[str], columns: Sequence
    ) -> "Relation":
        """Build a relation from sorted-aligned code columns (int64 buffers).

        The emission path of the vectorized backend
        (:mod:`repro.relational.vectorized`) and the bind path of pool
        workers and ``mmap``-ed stores: the data arrives columnar and
        *stays* columnar — the row-tuple transpose is deferred until
        something asks for ``code_rows``.  The columns must hold the
        canonical sorted duplicate-free rows, exactly what
        ``from_codes(..., presorted=True, distinct=True)`` would store.
        """
        return cls.from_column_set(name, ColumnSet(schema, columns=columns))

    # -- columnar internals -------------------------------------------------------

    @property
    def dictionaries(self) -> tuple[Dictionary, ...]:
        """The shared per-attribute dictionaries, schema-aligned."""
        return self._dicts

    @property
    def store(self):
        """The persisted column store this relation is bound to, or None.

        Set by :mod:`repro.relational.storage` when a relation is saved
        into — or opened from — a database directory, and carried across
        versions by incremental maintenance
        (:func:`repro.incremental.delta.advance_relation`), so compaction
        knows where to persist the fresh base artifact.
        """
        return self._store

    def attach_store(self, store) -> None:
        """Bind this relation to a persisted column store."""
        self._store = store

    @property
    def code_rows(self) -> list:
        """Canonical sorted code rows in schema order (do not mutate)."""
        return self._column_sets[self.schema].rows

    def column_set(self, order: Sequence[str]) -> ColumnSet:
        """The rows sorted under ``order`` (any distinct schema attributes).

        Cached per order; the schema-order set exists from construction.
        Partial orders keep one row per relation tuple (duplicates under the
        projection preserved) so run boundaries give exact distinct counts.
        Past the ``vectorize`` gate any non-empty order, full or partial, is
        one argsort of the picked canonical columns' ``pack_keys`` key,
        taken into a columns-only set: rows with equal keys are equal under
        the projection, so any argsort yields the columns the row sort
        would.  The nullary order (``pack_keys`` needs a column) and every
        order below the gate sort projected row tuples.
        """
        order = tuple(order)
        cached = self._column_sets.get(order)
        if cached is not None:
            return cached
        positions = tuple(self.position(a) for a in order)
        if len(set(positions)) != len(positions):
            raise SchemaError(f"column order {order} repeats an attribute")
        canonical = self._column_sets[self.schema]
        if order and vectorize(canonical.nrows):
            from repro.relational.vectorized import pack_keys

            picked = [canonical.np_columns()[p] for p in positions]
            by_row = pack_keys(picked)[0].argsort()
            cached = ColumnSet.from_columns(
                order, [column.take(by_row) for column in picked]
            )
        else:
            rows = sorted([tuple(row[p] for p in positions) for row in canonical.rows])
            cached = ColumnSet(order, rows, presorted=True)
        self._column_sets[order] = cached
        return cached

    def cached_full_orders(self) -> list[tuple[tuple[str, ...], ColumnSet]]:
        """The non-canonical full-arity sorted orders materialized so far.

        The incremental subsystem (:mod:`repro.incremental`) carries these
        forward across versions: a delta-first join order needs the big
        relations sorted under permuted attribute orders, and re-sorting
        them per batch would dominate maintenance — instead the signed
        delta merges into each cached order, so a sort is paid once per
        order per *relation lifetime*, not per batch.
        """
        arity = len(self.schema)
        return [
            (order, column_set)
            for order, column_set in self._column_sets.items()
            if len(order) == arity and order != self.schema
        ]

    def install_order(self, column_set: ColumnSet) -> None:
        """Adopt an externally maintained sorted order of this relation.

        ``column_set`` must be exactly what :meth:`column_set` would compute
        for ``column_set.attrs`` — the relation's tuples permuted into that
        order and sorted — which is what a signed merge into the previous
        version's order produces.
        """
        order = column_set.attrs
        if sorted(order) != sorted(self.schema):
            raise SchemaError(
                f"order {order} is not a permutation of schema {self.schema}"
            )
        self._column_sets[order] = column_set

    def trie_iterator(
        self, order: Sequence[str], bounds: tuple[int, int] | None = None
    ) -> SortedTrieIterator:
        """A :class:`SortedTrieIterator` over the rows sorted under ``order``.

        ``bounds`` restricts the virtual root to the row range ``[lo, hi)``
        of that order's column set — the zero-copy shard restriction of the
        partition-parallel subsystem.
        """
        column_set = self.column_set(tuple(order))
        if bounds is None:
            return SortedTrieIterator(column_set)
        return SortedTrieIterator(column_set, bounds[0], bounds[1])

    def key_set(self, attrs: Sequence[str]) -> frozenset:
        """The distinct code-tuples of the ``attrs`` projection (cached).

        The probe side of semijoins: one frozenset of small int tuples per
        attribute order, shared across sweeps.
        """
        attrs = tuple(attrs)
        cached = self._key_sets.get(attrs)
        if cached is None:
            positions = tuple(self.position(a) for a in attrs)
            cached = frozenset(
                tuple(row[p] for p in positions) for row in self.code_rows
            )
            self._key_sets[attrs] = cached
        return cached

    def encode_key(self, attrs: Sequence[str], values: tuple) -> tuple | None:
        """Encode a value tuple for ``attrs``; ``None`` if any value is unseen."""
        out = []
        for attr, value in zip(attrs, values):
            code = self._dicts[self.position(attr)].encode_existing(value)
            if code is None:
                return None
            out.append(code)
        return tuple(out)

    def decode_row(self, code_row: tuple) -> tuple:
        """Decode one schema-aligned code tuple back to values."""
        return decode_row(self._dicts, code_row)

    def _code_set(self) -> frozenset:
        row_set = self._row_set
        if row_set is None:
            row_set = frozenset(self.code_rows)
            self._row_set = row_set
        return row_set

    # -- basic protocol ---------------------------------------------------------

    def __len__(self) -> int:
        # Through the canonical column set so columnar-born relations
        # (:meth:`from_columns`) answer without transposing rows.
        return self._column_sets[self.schema].nrows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tuples)

    def __contains__(self, row: tuple) -> bool:
        row = tuple(row)
        if len(row) != len(self.schema):
            return False
        coded = self.encode_key(self.schema, row)
        return coded is not None and coded in self._code_set()

    def __eq__(self, other: object) -> bool:
        """Content equality over the same attribute set (order-insensitive).

        Two relations are equal when they have the same attributes and the
        same tuples once columns are aligned; names are display only.  The
        comparison runs on codes — shared dictionaries make code equality
        coincide with value equality.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if self.attributes != other.attributes:
            return False
        if len(self) != len(other):
            return False
        if self.schema == other.schema:
            return self.code_rows == other.code_rows
        positions = tuple(other.position(a) for a in self.schema)
        realigned = {tuple(row[p] for p in positions) for row in other.code_rows}
        return self._code_set() == realigned

    def __hash__(self) -> int:
        canonical = tuple(sorted(self.schema))
        positions = tuple(self._positions[a] for a in canonical)
        rows = frozenset(tuple(row[p] for p in positions) for row in self.code_rows)
        return hash((canonical, rows))

    def __repr__(self) -> str:
        return f"Relation({self.name}({', '.join(self.schema)}): {len(self)} tuples)"

    @property
    def attributes(self) -> frozenset:
        """The schema as an (unordered) variable set."""
        return frozenset(self.schema)

    @property
    def tuples(self) -> frozenset:
        """The decoded value tuples (adapter boundary; cached), decoded one
        ``map`` per attribute over the canonical columns and one ``zip`` —
        a columns-only relation is never transposed into code rows."""
        decoded = self._decoded
        if decoded is None:
            canonical = self._column_sets[self.schema]
            columns = canonical.materialized_columns or [
                map(itemgetter(i), canonical.rows) for i in range(len(self.schema))
            ]
            values = [map(d.values.__getitem__, c) for d, c in zip(self._dicts, columns)]
            decoded = frozenset(zip(*values) if values else canonical.rows)
            self._decoded = decoded
        return decoded

    def is_empty(self) -> bool:
        return not len(self)

    # -- tuple access -------------------------------------------------------------

    def position(self, attr: str) -> int:
        try:
            return self._positions[attr]
        except KeyError:
            raise SchemaError(
                f"attribute {attr!r} not in schema {self.schema}"
            ) from None

    def value_of(self, row: tuple, attr: str):
        """The value of ``attr`` in a tuple of this relation."""
        return row[self.position(attr)]

    def key_of(self, row: tuple, attrs: tuple[str, ...]) -> tuple:
        """Project a tuple onto an ordered attribute list."""
        return tuple(row[self._positions[a]] for a in attrs)

    def as_dicts(self) -> list[dict[str, object]]:
        """Human-friendly dump: each tuple as an attr->value dict."""
        return [dict(zip(self.schema, row)) for row in sorted(self.tuples)]

    # -- keys ------------------------------------------------------------------------

    def distinct_keys(self, attrs: Iterable[str]) -> int:
        """Number of distinct ``attrs``-projections (``|Π_attrs(R)|``).

        A run count over the sorted code columns — no hashing.
        """
        key_attrs = tuple(sorted(frozenset(attrs)))
        column_set = self.column_set(key_attrs)
        return column_set.distinct_prefix_count(len(key_attrs))

    # -- degrees (Definition 2.10) -----------------------------------------------------

    def degree(self, y: Iterable[str], x: Iterable[str]) -> int:
        """``deg_R(Y | X) = max_t |Π_Y(σ_{X=t}(R))|`` (0 for an empty relation).

        ``X`` may be empty, in which case this is ``|Π_Y(R)|``.  Requires
        ``X ⊆ Y ⊆ schema``.  Computed as one linear scan over the rows
        sorted ``X``-major: group boundaries are ``X``-prefix changes,
        distinct ``Y``-extensions are row changes inside a group.
        """
        x_set = frozenset(x)
        y_set = frozenset(y)
        if not x_set <= y_set:
            raise SchemaError(
                f"degree needs X ⊆ Y, got {sorted(x_set)} vs {sorted(y_set)}"
            )
        if not y_set <= self.attributes:
            raise SchemaError(
                f"degree attrs {sorted(y_set)} not all in schema {self.schema}"
            )
        if not len(self):
            return 0
        order = tuple(sorted(x_set)) + tuple(sorted(y_set - x_set))
        split = len(x_set)
        if split == 0:
            return self.column_set(order).distinct_prefix_count(len(order))
        column_set = self.column_set(order)
        if vectorize(column_set.nrows):
            return _np_degree(column_set, split)
        rows = column_set.rows
        best = 0
        count = 0
        previous = None
        for row in rows:
            if previous is None or row[:split] != previous[:split]:
                if count > best:
                    best = count
                count = 1
            elif row != previous:
                count += 1
            previous = row
        return best if best >= count else count

    def guards(self, constraint) -> bool:
        """True if this relation guards a degree constraint (Def. 2.10)."""
        if not constraint.y <= self.attributes:
            return False
        return self.degree(constraint.y, constraint.x) <= constraint.bound

    # -- convenience constructors --------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, name: str, a: str, b: str, pairs: Iterable[tuple]
    ) -> "Relation":
        """A binary relation (the common case in the paper's examples)."""
        return cls(name, (a, b), pairs)

    def renamed(self, name: str) -> "Relation":
        """The same content under a different display name (storage shared)."""
        clone = Relation.__new__(Relation)
        clone.name = name
        clone.schema = self.schema
        clone._positions = self._positions
        clone._dicts = self._dicts
        clone._row_set = self._row_set
        clone._column_sets = self._column_sets
        clone._key_sets = self._key_sets
        clone._decoded = self._decoded
        clone._store = self._store
        return clone

    def relabeled(self, name: str, schema: Sequence[str]) -> "Relation":
        """The same rows under positionally renamed attributes.

        Used by atom binding (``R(x, y)`` read as ``R(A, B)``): column ``i``
        keeps its data but is re-coded into attribute ``schema[i]``'s
        dictionary by :meth:`Dictionary.translate` (the cached per-pair
        code table), then the rows are re-sorted under the new codes.
        """
        schema = tuple(schema)
        if len(schema) != len(self.schema):
            raise SchemaError(
                f"relabel needs {len(self.schema)} attributes, got {schema}"
            )
        if schema == self.schema:
            return self.renamed(name)
        columns = [
            old.translate(Dictionary.of(attr), column)
            for old, attr, column in zip(
                self._dicts, schema, self._column_sets[self.schema].columns
            )
        ]
        return Relation.from_column_set(name, canonical_codes(schema, columns))
