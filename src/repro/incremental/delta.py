"""Signed, dictionary-encoded change batches and log-structured storage.

A :class:`SignedDelta` is one validated batch of changes against a relation:
ascending distinct code tuples with an aligned ``+1``/``-1`` multiplicity
per row.  Validation happens at construction (:meth:`SignedDelta.from_changes`):

* a delete of a row that is neither present nor inserted in the same batch
  is rejected (:class:`~repro.exceptions.DeltaError`);
* an insert of an already-present row is a no-op (set semantics);
* an insert and delete of the same row cancel to no change (present or
  absent — a batch is an unordered request set), so a batch that only
  shuffles a row in and out is *empty*;
* inserts may carry values never seen before — they are interned into the
  shared per-attribute dictionaries exactly like ingestion, so dictionary
  growth mid-stream is the ordinary code-append path.

A :class:`VersionedRelation` gives the storage layer a log-structured view:
an immutable base :class:`~repro.relational.relation.Relation` (whose column
set is what worker pools hold resident) plus the pending delta runs applied
since.  The *current* relation is materialized by the sorted-run merge
(:func:`advance_relation`: array merges for a delta past the
``backend.vectorize`` gate, the splice plan of
:func:`~repro.relational.columns.signed_merge_plan` below it) —
`restrict_range`, trie caches, and every join algorithm work on it
unchanged, because it is an ordinary sorted column set.  Once the pending
runs outgrow a size threshold the log compacts: the merged relation becomes
the new base and the runs clear (pool baselines then recycle, exactly like
a database rebind).  A :class:`PredicateStore` keeps one such log per
relation name and one per atom binding — the storage of both maintained
engines.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from repro.exceptions import DeltaError, IncrementalError
from repro.relational.backend import vectorize
from repro.relational.columns import (
    ColumnSet,
    Dictionary,
    apply_plan_to_columns,
    apply_signed_rows,
    append_column,
    as_column,
    concat_columns,
    merge_violation,
    signed_merge_plan,
)
from repro.relational.relation import Relation

__all__ = [
    "PredicateStore",
    "SignedDelta",
    "VersionedRelation",
    "advance_relation",
]


def advance_relation(
    previous: Relation, delta: "SignedDelta", name: str | None = None
) -> Relation:
    """The relation one signed batch after ``previous``, orders carried.

    Builds the new version by the sorted merge of ``delta`` into the
    canonical order, and merges the same batch — its columns permuted and
    re-sorted (:meth:`SignedDelta.reordered`) — into every *full-arity*
    sorted order the previous version had materialized, so the delta-first
    join orders of :mod:`repro.incremental.ivm` never pay a fresh
    O(N log N) sort per batch: each order is sorted once per relation
    lifetime and maintained by merges after that.  Partial (projection)
    orders are not carried — their rows are multisets, outside the signed
    merge's distinct-row contract — and rebuild on demand.
    """
    schema = previous.schema
    advanced = Relation.from_column_set(
        name or previous.name,
        _advance_column_set(previous.column_set(schema), delta),
    )
    for order, column_set in previous.cached_full_orders():
        advanced.install_order(
            _advance_column_set(column_set, delta.reordered(order))
        )
    advanced.attach_store(previous.store)
    return advanced


def _advance_column_set(column_set: ColumnSet, delta: "SignedDelta") -> ColumnSet:
    """One column set advanced by a signed batch over the same attributes.

    A delta below the gate (or no numpy) takes the interpreted arm: one
    :func:`signed_merge_plan` — located in whichever form the previous
    version holds, so a small round never transposes a columns-only version
    — spliced into the rows and the columns it had built.  On the numpy arm
    (``vectorize(len(delta))``: a semi-naïve round, a serving batch) the
    merge is one ``searchsorted`` over :func:`pack_keys`, the strict
    contract one comparison of the membership mask with the signs, then one
    mask delete and one ``np.insert`` per column — a columns-only set, row
    tuples lazy.  Same :class:`DeltaError`, same first offending row.
    """
    if not vectorize(len(delta)):
        # The plan reads each delta row once: off the columns of a batch
        # held only as columns (an operator's output), never transposed.
        held = delta.column_set.materialized_rows
        delta_rows = zip(*delta.column_set.columns) if held is None else held
        plan = signed_merge_plan(column_set, delta_rows, delta.signs)
        rows, columns = column_set.materialized_rows, column_set.materialized_columns
        return ColumnSet(
            column_set.attrs,
            None if rows is None else apply_signed_rows(rows, held, delta.signs, plan=plan),
            presorted=True,
            columns=None if columns is None else apply_plan_to_columns(columns, plan),
        )
    import numpy as np

    from repro.relational.vectorized import pack_keys

    base, fresh = column_set.np_columns(), delta.code_columns()
    base_key, delta_key = pack_keys(base, fresh)
    at = np.searchsorted(base_key, delta_key)
    present = at < len(base_key)
    present[present] = base_key[at[present]] == delta_key[present]
    inserted = np.frombuffer(delta.signs, dtype=np.int64) > 0
    wrong = np.flatnonzero(present == inserted)
    if len(wrong):
        raise merge_violation(delta.rows[wrong[0]], present[wrong[0]])
    gone = at[~inserted]
    keep = np.ones(len(base_key), dtype=bool)
    keep[gone] = False
    # np.insert addresses the array the deletes left behind.
    at = at[inserted] - np.searchsorted(gone, at[inserted])
    return ColumnSet(
        column_set.attrs,
        columns=[
            np.insert(column[keep], at, new[inserted])
            for column, new in zip(base, fresh)
        ],
    )


class SignedDelta:
    """One validated change batch: sorted code rows + ±1 multiplicities.

    Attributes:
        attrs: the attribute (or variable) names the codes are encoded
            under — each column's codes live in ``Dictionary.of(attr)``.
        column_set: the ascending, duplicate-free code tuples, held the way
            a relation's are — as row tuples, as code columns, or both.
            Join output, the fixpoint and the pool wire hand over columns;
            :attr:`rows` is derived on first use, which only a mixed-sign
            split below the gate, :meth:`decoded` and the wording of a
            :class:`DeltaError` do.
        signs: the aligned column (:func:`~repro.relational.columns.as_column`)
            of ``+1`` (insert) / ``-1`` (delete).
    """

    __slots__ = ("column_set", "signs")

    def __init__(
        self,
        attrs: Sequence[str],
        rows: list | None,
        signs: Sequence[int],
        columns: Sequence | None = None,
    ) -> None:
        self.column_set = ColumnSet(attrs, rows, presorted=True, columns=columns)
        self.signs = as_column(signs)
        if self.column_set.nrows != len(self.signs):
            raise IncrementalError(
                f"{self.column_set.nrows} delta rows vs {len(self.signs)} signs"
            )

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.column_set.attrs

    @property
    def rows(self) -> list:
        """The ascending code tuples (transposed from columns on first use)."""
        return self.column_set.rows

    @classmethod
    def from_changes(
        cls,
        relation: Relation,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[tuple] = (),
    ) -> "SignedDelta":
        """Encode and validate one batch of value-level changes.

        ``inserts``/``deletes`` are value tuples over ``relation.schema``.
        Inserts intern unseen values (the dictionary-growth path); deletes
        of rows that are neither present nor inserted in this same batch
        raise :class:`DeltaError`.  A row requested both inserted and
        deleted in one batch nets to **no change** whether it is currently
        present or absent (a batch is an unordered set of requests, not a
        sequence); inserting a present row alone is a no-op (set
        semantics); duplicate requests collapse.
        """
        schema = relation.schema
        arity = len(schema)
        encoders = tuple(d.encode for d in relation.dictionaries)
        existing = tuple(d.encode_existing for d in relation.dictionaries)
        base = relation.column_set(schema)

        inserted: set[tuple] = set()
        for row in inserts:
            row = tuple(row)
            if len(row) != arity:
                raise DeltaError(
                    f"insert {row} has arity {len(row)}, schema {schema} "
                    f"expects {arity}"
                )
            inserted.add(tuple(enc(v) for enc, v in zip(encoders, row)))

        removed: set[tuple] = set()
        for row in deletes:
            row = tuple(row)
            if len(row) != arity:
                raise DeltaError(
                    f"delete {row} has arity {len(row)}, schema {schema} "
                    f"expects {arity}"
                )
            coded = []
            for enc, value in zip(existing, row):
                code = enc(value)
                if code is None:
                    raise DeltaError(
                        f"delete of row {row} never inserted into "
                        f"{relation.name} (value {value!r} unseen)"
                    )
                coded.append(code)
            removed.add(tuple(coded))

        # Insert+delete of the same row cancels outright — the batch is an
        # unordered request set, so neither reading ("delete wins" vs
        # "re-insert wins") is privileged and net-zero is the only
        # presence-independent answer.
        cancelled = inserted & removed
        inserted -= cancelled
        removed -= cancelled

        entries: list[tuple[tuple, int]] = []
        for row in removed:
            if base.find_row(row)[1]:
                entries.append((row, -1))
            else:
                raise DeltaError(
                    f"delete of row never inserted into {relation.name}: "
                    f"{relation.decode_row(row)}"
                )
        for row in inserted:
            if not base.find_row(row)[1]:
                entries.append((row, +1))
        entries.sort()
        return cls(
            schema,
            [row for row, _ in entries],
            array("q", (sign for _, sign in entries)),
        )

    # -- protocol ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def is_empty(self) -> bool:
        return not self.signs

    @property
    def insert_only(self) -> bool:
        """Whether every row is an insert (one numpy ``min`` past the gate)."""
        if not vectorize(len(self)):
            return min(self.signs, default=1) > 0
        import numpy as np

        return bool(np.frombuffer(self.signs, dtype=np.int64).min() > 0)

    def __repr__(self) -> str:
        pos = sum(1 for s in self.signs if s > 0)
        return f"SignedDelta({self.attrs}: +{pos}/-{len(self) - pos} rows)"

    def relation(self, sign: int, name: str) -> Relation:
        """The rows of one sign as a set relation — a delta-join input: the
        batch's own column set when every row has that sign, else (on the
        numpy arm) one mask over the code columns, adopted as columns."""
        if not vectorize(len(self)):
            if all(s == sign for s in self.signs):
                return Relation.from_column_set(name, self.column_set)
            rows = [row for row, s in zip(self.rows, self.signs) if s == sign]
            return Relation.from_codes(
                name, self.attrs, rows, presorted=True, distinct=True
            )
        import numpy as np

        chosen = np.frombuffer(self.signs, dtype=np.int64) == sign
        if chosen.all():
            return Relation.from_column_set(name, self.column_set)
        return Relation.from_columns(
            name, self.attrs, [column[chosen] for column in self.code_columns()]
        )

    def code_columns(self) -> tuple:
        """One code column per attribute: the column buffers below the gate,
        their zero-copy int64 views on the numpy arm."""
        if vectorize(len(self)):
            return self.column_set.np_columns()
        return self.column_set.columns

    @classmethod
    def sorted_from(
        cls, attrs: Sequence[str], columns: Sequence, signs: Sequence[int]
    ) -> "SignedDelta":
        """The net batch of ``signs`` over the aligned, unsorted ``columns``.

        Equal rows sum their signs, rows netting to zero drop out, and a net
        outside ``±1`` raises :class:`IncrementalError`: set relations change
        by at most one copy of a row per batch.  One ``pack_keys`` argsort
        and one ``np.add.reduceat`` over its runs on the numpy arm (row
        tuples stay lazy), a dict fold and ``sorted`` below the gate.
        """
        if not vectorize(len(signs)):
            net: dict[tuple, int] = {}
            for row, sign in zip(zip(*columns), signs):
                net[row] = net.get(row, 0) + sign
            rows = sorted(row for row, count in net.items() if count)
            delta = cls(attrs, rows, array("q", map(net.__getitem__, rows)))
            wrong = rows and not -1 <= min(delta.signs) <= max(delta.signs) <= 1
        else:
            import numpy as np

            from repro.relational.vectorized import pack_keys, run_start_mask

            columns = [np.asarray(column, dtype=np.int64) for column in columns]
            keys = pack_keys(columns)[0]
            by_row = np.argsort(keys)
            net = np.frombuffer(signs, dtype=np.int64)[by_row]
            starts = run_start_mask(keys[by_row])
            if not starts.all():  # equal rows: one net count per run
                first = np.flatnonzero(starts)
                net = np.add.reduceat(net, first)
                kept = net != 0
                by_row, net = by_row[first][kept], net[kept]
            wrong = np.abs(net).max(initial=0) > 1
            columns = [column[by_row] for column in columns]
            delta = cls(attrs, None, net, columns=columns)
        if wrong:
            signs = delta.signs
            at = next(i for i, count in enumerate(signs) if not -1 <= count <= 1)
            raise IncrementalError(
                f"net multiplicity {signs[at]} for row {delta.rows[at]}: a batch "
                f"changes a set relation by at most one copy of a row"
            )
        return delta

    @classmethod
    def merged(cls, runs: Sequence["SignedDelta"]) -> "SignedDelta":
        """Batches over the same attributes as their one net batch — a
        stratum's rounds as its net change."""
        if len(runs) == 1:
            return runs[0]
        signs = array("q")
        for run in runs:
            append_column(signs, run.signs)
        blocks = [run.code_columns() for run in runs]
        return cls.sorted_from(runs[0].attrs, concat_columns(blocks, len(signs)), signs)

    def reordered(self, order: Sequence[str]) -> "SignedDelta":
        """The same changes with the columns permuted into ``order``."""
        columns = self.code_columns()
        return self.sorted_from(
            order, [columns[self.attrs.index(a)] for a in order], self.signs
        )

    def relabeled(self, variables: Sequence[str]) -> "SignedDelta":
        """The same changes under positionally renamed attributes.

        Mirrors :meth:`Relation.relabeled` for atom binding: column ``i`` is
        re-coded into ``variables[i]``'s dictionary through the cached table
        of :meth:`Dictionary.translate` — a semi-naïve round relabels
        thousands of rows per binding; it pays one table gather per column.
        """
        variables = tuple(variables)
        if len(variables) != len(self.attrs):
            raise IncrementalError(
                f"relabel needs {len(self.attrs)} attributes, got {variables}"
            )
        if variables == self.attrs:
            return self
        pairs = zip(self.attrs, variables, self.code_columns())
        return self.sorted_from(
            variables,
            [Dictionary.of(a).translate(Dictionary.of(v), col) for a, v, col in pairs],
            self.signs,
        )

    def decoded(self) -> list[tuple[tuple, int]]:
        """``(value tuple, sign)`` pairs (boundary/debugging adapter)."""
        values = tuple(Dictionary.of(a).values for a in self.attrs)
        return [
            (tuple(col[c] for col, c in zip(values, row)), sign)
            for row, sign in zip(self.rows, self.signs)
        ]


class VersionedRelation:
    """A relation as a log: immutable base + pending signed delta runs.

    ``current`` is always materialized (maintenance needs it), incrementally:
    each :meth:`apply` merges the newest run into the previous current with
    one delta-sized sorted merge.  The *base* stays fixed between
    compactions — it is the version worker pools hold resident, so a pending
    run is exactly "what must ship" to bring a worker up to a given version
    (:mod:`repro.parallel.pool` caches the reconstructions by version).

    Attributes:
        name: the relation name.
        version: monotone version counter (0 = the relation as constructed).
        base_version: the version the base column set reflects.
    """

    #: Compact when pending delta rows exceed this fraction of the base size.
    COMPACT_RATIO = 0.25
    #: ... but never before this many pending rows (small logs are cheap).
    COMPACT_MIN = 64

    def __init__(
        self,
        relation: Relation,
        compact_ratio: float | None = None,
        compact_min: int | None = None,
    ) -> None:
        self.name = relation.name
        self.base: Relation = relation
        self.current: Relation = relation
        self.runs: list[SignedDelta] = []
        self.version = 0
        self.base_version = 0
        self.compact_ratio = (
            self.COMPACT_RATIO if compact_ratio is None else compact_ratio
        )
        self.compact_min = (
            self.COMPACT_MIN if compact_min is None else compact_min
        )
        # MVCC pinning (the serving layer's snapshot contract): pinned
        # versions stay answerable across compactions.  ``_pins`` counts
        # readers per version; ``_retained`` holds each pinned version's
        # materialized relation, captured at pin time, so ``compact()``
        # never has to reconstruct history and a pin after compaction is
        # a dict lookup, not a replay.
        self._pins: dict[int, int] = {}
        self._retained: dict[int, Relation] = {}

    @property
    def schema(self) -> tuple[str, ...]:
        return self.base.schema

    @property
    def pending_rows(self) -> int:
        """Total rows across the pending runs (the log length)."""
        return sum(len(run) for run in self.runs)

    def apply(self, delta: SignedDelta, compact: bool = True) -> Relation:
        """Append one run, materialize the new current, maybe compact.

        Returns the new current relation.  The merge is the sorted-run
        merge of :func:`advance_relation`; validation already happened in
        :meth:`SignedDelta.from_changes`, so a strict merge failure here is
        an internal inconsistency, not user error.

        ``compact=False`` defers the threshold check — the incremental
        engine compacts only after a batch's maintenance is done, so the
        pooled delta terms can still replay this batch's runs from the base
        the workers hold resident.
        """
        if delta.attrs != self.schema:
            raise IncrementalError(
                f"delta over {delta.attrs} applied to {self.name}"
                f"({', '.join(self.schema)})"
            )
        if delta.is_empty:
            return self.current
        self.current = advance_relation(self.current, delta, name=self.name)
        self.runs.append(delta)
        self.version += 1
        if compact and self.should_compact:
            self.compact()
        return self.current

    @property
    def should_compact(self) -> bool:
        """Whether the pending log has outgrown its threshold."""
        return self.pending_rows >= max(
            self.compact_min, int(len(self.base) * self.compact_ratio)
        )

    def compact(self) -> None:
        """Promote the current relation to the new base; clear the log.

        Equivalent to rebuilding the relation from scratch at this version
        (same sorted distinct code rows — the compaction-equivalence tests
        pin this), but reached by the merges already paid.  Pool baselines
        keyed on the old base's content digest recycle on next bind.

        A base bound to a persisted column store writes the promoted
        relation as a fresh digest-named artifact in place — the old
        artifact stays (a live pool baseline may still map it), and the
        next pool bind ships the new base as a file reference instead of
        a buffer.

        Pinned versions (:meth:`pin`) survive compaction: their relations
        were retained at pin time, so dropping the old base here cannot
        invalidate a reader — the pinned object lives until :meth:`unpin`.
        """
        self.base = self.current
        self.runs = []
        self.base_version = self.version
        store = self.base.store
        if store is not None:
            store.ensure(self.base.column_set(self.base.schema))

    # -- MVCC pinning (serving snapshots) ----------------------------------------

    def pin(self, version: int | None = None) -> int:
        """Pin ``version`` (default: current) against compaction.

        While a version is pinned, :meth:`snapshot` keeps answering for it
        even after :meth:`compact` promotes a newer version to the base —
        the pinned relation object is retained until the matching
        :meth:`unpin` (the *compaction liveness* contract: a pinned base
        stays alive until its last reader drops).  Pinning the current or
        base version is zero-copy; pinning an interior logged version pays
        one delta-sized replay, once.

        Not thread-safe: call from the thread that owns the log (the
        serving layer funnels pin/unpin through its single writer thread).
        """
        if version is None:
            version = self.version
        retained = self._retained.get(version)
        if retained is None:
            retained = self.snapshot(version)
            self._retained[version] = retained
        self._pins[version] = self._pins.get(version, 0) + 1
        return version

    def unpin(self, version: int) -> None:
        """Drop one pin on ``version``; the last drop releases its retention."""
        count = self._pins.get(version)
        if count is None:
            raise IncrementalError(
                f"{self.name}: version {version} is not pinned"
            )
        if count > 1:
            self._pins[version] = count - 1
        else:
            del self._pins[version]
            del self._retained[version]

    def snapshot(self, version: int | None = None) -> Relation:
        """The immutable relation as of ``version`` — an MVCC read view.

        The current and base versions are served by reference (zero copy);
        a pinned version by its retained reference; any other version still
        inside the log ``[base_version, version]`` is reconstructed from
        ``(base, run-prefix)`` by delta-sized merges.  Versions compacted
        away without a pin raise :class:`IncrementalError`.  The returned
        relation is an ordinary immutable :class:`Relation` — every column,
        trie, and join contract holds on it unchanged, and it stays valid
        (bit-identical to a frozen copy at ``version``) no matter how far
        the log advances afterwards.
        """
        if version is None:
            version = self.version
        if version == self.version:
            return self.current
        retained = self._retained.get(version)
        if retained is not None:
            return retained
        if not self.base_version <= version <= self.version:
            raise IncrementalError(
                f"{self.name}: version {version} compacted away unpinned "
                f"(retained log [{self.base_version}, {self.version}])"
            )
        relation = self.base
        for run in self.runs[: version - self.base_version]:
            relation = advance_relation(relation, run, name=self.name)
        return relation

    @property
    def pinned_versions(self) -> tuple[int, ...]:
        """The distinct pinned versions, ascending (introspection/tests)."""
        return tuple(sorted(self._pins))

    def runs_since(self, version: int) -> list[SignedDelta]:
        """The pending runs that lift ``version`` to the current version.

        ``version`` must be between ``base_version`` and ``version``; runs
        older than the base were already compacted away and cannot be
        replayed.
        """
        if not self.base_version <= version <= self.version:
            raise IncrementalError(
                f"{self.name}: version {version} outside the retained log "
                f"[{self.base_version}, {self.version}]"
            )
        return self.runs[version - self.base_version :]

    def __repr__(self) -> str:
        return (
            f"VersionedRelation({self.name}: v{self.version}, "
            f"{len(self.current)} rows, {self.pending_rows} pending)"
        )


class PredicateStore:
    """Versioned storage for every relation: name-level + per-binding logs.

    One :class:`VersionedRelation` per relation name and one per distinct
    ``(name, variables)`` binding — a binding whose variables equal the
    stored schema shares the name-level log outright.  :meth:`apply`
    advances the name log and every binding log by one relabeled delta, so
    the delta-first sort orders each binding has materialized carry across
    versions by delta-sized merges.  The one store of both maintained
    engines: the incremental engine's base relations and query atoms, the
    datalog engine's predicates and rule atoms.  ``compact_ratio`` /
    ``compact_min`` go to every log it creates.
    """

    def __init__(
        self, compact_ratio: float | None = None, compact_min: int | None = None
    ) -> None:
        self._thresholds = (compact_ratio, compact_min)
        self._names: dict[str, VersionedRelation] = {}
        self._bindings: dict[tuple[str, tuple[str, ...]], VersionedRelation] = {}

    @staticmethod
    def binding_key(atom) -> tuple[str, tuple[str, ...]]:
        return (atom.name, atom.variables)

    def adopt(self, relation: Relation) -> None:
        """(Re)install ``relation`` as the current version of its name."""
        self._names[relation.name] = VersionedRelation(relation, *self._thresholds)
        stale = [
            key for key in sorted(self._bindings) if key[0] == relation.name
        ]
        for key in stale:
            del self._bindings[key]

    def register(self, atom) -> VersionedRelation:
        """Ensure a binding log exists for ``atom``; returns it."""
        key = self.binding_key(atom)
        found = self._bindings.get(key)
        if found is None:
            name_log = self._names[atom.name]
            if atom.variables == name_log.schema:
                found = name_log
            else:
                found = VersionedRelation(
                    name_log.current.relabeled(atom.name, atom.variables),
                    *self._thresholds,
                )
            self._bindings[key] = found
        return found

    def versioned(self, name: str) -> VersionedRelation:
        return self._names[name]

    def relation(self, name: str) -> Relation:
        return self._names[name].current

    def binding(self, atom) -> VersionedRelation:
        return self._bindings[self.binding_key(atom)]

    def binding_by_key(
        self, key: tuple[str, tuple[str, ...]]
    ) -> VersionedRelation:
        return self._bindings[key]

    def binding_keys(self, name: str) -> list[tuple[str, tuple[str, ...]]]:
        return [key for key in sorted(self._bindings) if key[0] == name]

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._names))

    def apply(self, deltas: Mapping[str, SignedDelta]) -> tuple[dict, dict]:
        """Advance each named log and all its binding logs by its delta.

        Returns the pre-apply ``{key: (relation, version)}`` of every
        binding log it advanced — the old side of the delta rule — and the
        per-binding relabeled deltas, both keyed by binding key.
        Compaction is deferred (``compact=False``) so pooled delta terms
        can replay these runs against the bases workers hold resident;
        call :meth:`compact` at a safe boundary.
        """
        old: dict[tuple, tuple[Relation, int]] = {}
        relabeled: dict[tuple, SignedDelta] = {}
        for name in sorted(deltas):
            delta = deltas[name]
            name_log = self._names[name]
            before = (name_log.current, name_log.version)
            name_log.apply(delta, compact=False)
            for key in self.binding_keys(name):
                log = self._bindings[key]
                if log is name_log:
                    old[key], relabeled[key] = before, delta
                    continue
                old[key] = (log.current, log.version)
                relabeled[key] = delta.relabeled(key[1])
                log.apply(relabeled[key], compact=False)
        return old, relabeled

    def compact(self, names: Iterable[str] | None = None) -> int:
        """Threshold-compact the logs of ``names`` (default: all); count them."""
        selected = self.names() if names is None else tuple(sorted(set(names)))
        compacted = 0
        seen: set[int] = set()
        for name in selected:
            logs = [self._names[name]] + [
                self._bindings[key] for key in self.binding_keys(name)
            ]
            for log in logs:
                if id(log) in seen:
                    continue
                seen.add(id(log))
                if log.should_compact:
                    log.compact()
                    compacted += 1
        return compacted
