"""File-backed columnar storage: persisted database directories.

The out-of-core twin of :mod:`repro.relational.io`: where the CSV loader
streams *values* into heap relations, this module persists and reopens the
engine's own storage format — the sorted, dictionary-encoded code columns of
:class:`~repro.relational.columns.ColumnSet` — as flat files the OS pages in
on demand.  Nothing above the storage layer needs the data on a heap: every
join algorithm, shard restriction, and signed-splice merge consumes the
columns through the sequence/buffer protocols, which an ``mmap``-backed
``memoryview(...).cast('q')`` satisfies bit-for-bit — the same view
:func:`~repro.relational.columns.as_column` adopts a numpy kernel's output
as (MonetDB/X100 lineage; the PODS'17 algorithms only ever walk sorted
integer columns).

A *persisted database directory* looks like::

    <dir>/
        manifest.json           format, per-relation schema/nrows/digest,
                                per-attribute dictionary metadata
        columns/<digest>.c<i>   one fixed-width little-endian int64 file per
                                column of each relation's canonical
                                (schema-order) column set
        dicts/<attr>.json       the attribute's interned values, code order

Artifacts are **content-addressed** by the relation's existing
:meth:`~repro.relational.columns.ColumnSet.content_digest` — the digest *is*
the filename stem, so the manifest digest can seed the in-memory digest
cache at open (no rescan), the parallel pool can ship paths + digests
instead of buffers (workers ``mmap`` the named artifacts), and incremental
compaction can drop a fresh base next to the old one without invalidating
anything.

Entry points:

* :func:`save_database_dir` — persist a database (beside the CSV
  :func:`~repro.relational.io.load_database_dir`);
* :func:`open_database_dir` — reopen it with ``mmap``-backed columns and
  lazily hydrated dictionaries (a cold start touches no column bytes);
* :class:`ColumnStore` — the content-addressed ``columns/`` directory, with
  a streaming :meth:`~ColumnStore.writer` for ingests too large to sort (or
  even hold) in one heap.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import sys
from array import array
from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import StorageError
from repro.relational.columns import ColumnSet, Dictionary, as_column
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = [
    "ColumnBacking",
    "ColumnFileWriter",
    "ColumnStore",
    "LazyDictionary",
    "load_dictionary_file",
    "open_database_dir",
    "open_file_columns",
    "read_manifest",
    "save_database_dir",
    "write_dictionary_file",
    "write_manifest",
]

#: Manifest format tag; bump on any incompatible layout change.
MANIFEST_FORMAT = "repro-db/1"
MANIFEST_NAME = "manifest.json"
COLUMNS_SUBDIR = "columns"
DICTS_SUBDIR = "dicts"
#: Chunk size for streaming reads (digest verification, writer finalize).
_READ_CHUNK = 1 << 20


def _require_little_endian() -> None:
    if sys.byteorder != "little":
        raise StorageError(
            "persisted database directories are little-endian int64; this "
            "host is big-endian"
        )


class ColumnBacking:
    """Where a file-backed column set's bytes live on disk.

    ``mmaps`` holds the open maps (empty for sets that were *written* from
    heap columns rather than opened from files) — the backing keeps them
    alive for exactly as long as the column set's views need them.
    """

    __slots__ = ("digest", "paths", "nrows", "mmaps")

    def __init__(
        self,
        digest: str | None,
        paths: tuple[str, ...],
        nrows: int,
        mmaps: tuple = (),
    ) -> None:
        self.digest = digest
        self.paths = paths
        self.nrows = nrows
        self.mmaps = mmaps

    def __repr__(self) -> str:
        return (
            f"ColumnBacking({self.digest and self.digest[:12]}..., "
            f"{len(self.paths)} file(s), {self.nrows} rows)"
        )


def open_file_columns(
    paths: Sequence[str | Path], nrows: int, digest: str | None = None
) -> tuple[tuple, ColumnBacking]:
    """``mmap`` the named column files read-only as ``'q'``-cast views.

    Returns ``(columns, backing)``; the backing object owns the maps.  File
    sizes are validated against ``nrows`` up front — a truncated artifact
    fails here, not mid-join.
    """
    _require_little_endian()
    paths = tuple(Path(p) for p in paths)
    expected = nrows * 8
    columns: list = []
    maps: list = []
    for path in paths:
        try:
            size = path.stat().st_size
        except OSError as error:
            raise StorageError(f"missing column artifact {path}") from error
        if size != expected:
            raise StorageError(
                f"column artifact {path} holds {size} bytes, expected "
                f"{expected} ({nrows} rows x 8)"
            )
        if nrows == 0:
            columns.append(array("q"))
            continue
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        maps.append(mapped)
        columns.append(memoryview(mapped).cast("q"))
    backing = ColumnBacking(
        digest, tuple(str(p) for p in paths), nrows, tuple(maps)
    )
    return tuple(columns), backing


class ColumnFileWriter:
    """Stream one relation's sorted code columns into digest-named files.

    The out-of-core ingest path: blocks of already-sorted, duplicate-free
    rows (as per-attribute int64 buffers) append to per-column temp files —
    the writer never holds more than one block — and :meth:`finalize`
    streams the temp files through one SHA-1 (the exact
    :meth:`~repro.relational.columns.ColumnSet.content_digest` byte stream)
    before renaming them into the content-addressed store.  Blocks must
    arrive in ascending row order; the block boundary is validated (last
    row of one block < first row of the next), the *interior* of a block is
    the caller's contract, exactly like ``presorted=True`` construction.
    """

    def __init__(self, store: "ColumnStore", attrs: Sequence[str]) -> None:
        _require_little_endian()
        self.store = store
        self.attrs = tuple(attrs)
        if not self.attrs:
            raise StorageError("cannot stream a nullary relation to files")
        store.root.mkdir(parents=True, exist_ok=True)
        token = f"tmp-{os.getpid()}-{id(self):x}"
        self._temp_paths = tuple(
            store.root / f"{token}.c{i}" for i in range(len(self.attrs))
        )
        self._handles = [open(path, "wb") for path in self._temp_paths]
        self._nrows = 0
        self._last_row: tuple | None = None
        self._result: tuple | None = None

    @property
    def nrows(self) -> int:
        return self._nrows

    def append_block(self, columns: Sequence) -> None:
        """Append one sorted block (per-attribute aligned int64 buffers)."""
        if self._handles is None:
            raise StorageError("writer already finalized")
        views = [as_column(column) for column in columns]
        if len(views) != len(self.attrs):
            raise StorageError(
                f"block has {len(views)} columns, schema {self.attrs} "
                f"expects {len(self.attrs)}"
            )
        length = len(views[0])
        if any(len(view) != length for view in views):
            raise StorageError("block columns must be equal-length")
        if length == 0:
            return
        first = tuple(int(view[0]) for view in views)
        if self._last_row is not None and first <= self._last_row:
            raise StorageError(
                f"blocks must ascend: first row {first} does not follow "
                f"{self._last_row}"
            )
        self._last_row = tuple(int(view[-1]) for view in views)
        for handle, view in zip(self._handles, views):
            handle.write(view)
        self._nrows += length

    def finalize(self) -> tuple[str, tuple[str, ...], int]:
        """Seal the artifact: hash, rename, return ``(digest, paths, nrows)``."""
        if self._result is not None:
            return self._result
        if self._handles is None:
            raise StorageError("writer already aborted")
        for handle in self._handles:
            handle.close()
        self._handles = None
        hasher = hashlib.sha1()
        hasher.update(",".join(self.attrs).encode())
        for path in self._temp_paths:
            with open(path, "rb") as handle:
                while True:
                    chunk = handle.read(_READ_CHUNK)
                    if not chunk:
                        break
                    hasher.update(chunk)
        digest = hasher.hexdigest()
        paths = self.store.paths(digest, len(self.attrs))
        for temp, final in zip(self._temp_paths, paths):
            os.replace(temp, final)
        self._result = (digest, tuple(str(p) for p in paths), self._nrows)
        return self._result

    def abort(self) -> None:
        """Discard the partial artifact (close + unlink the temp files)."""
        if self._handles is not None:
            for handle in self._handles:
                handle.close()
            self._handles = None
        if self._result is None:
            for temp in self._temp_paths:
                try:
                    os.unlink(temp)
                except OSError:
                    pass

    def __enter__(self) -> "ColumnFileWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self.abort()


class ColumnStore:
    """The content-addressed ``columns/`` directory of a database dir.

    Artifact naming is pure content addressing: relation ``R``'s canonical
    column set with digest ``d`` lives in ``<root>/d.c0, d.c1, ...`` — so
    writing is idempotent, compaction never overwrites the artifact a live
    pool baseline may still be mapping, and "is this relation already
    persisted?" is a stat call.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def paths(self, digest: str, arity: int) -> tuple[Path, ...]:
        """The column-file paths of the ``digest`` artifact."""
        return tuple(
            self.root / f"{digest}.c{i}" for i in range(arity)
        )

    def contains(self, digest: str, arity: int) -> bool:
        return all(path.is_file() for path in self.paths(digest, arity))

    def writer(self, attrs: Sequence[str]) -> ColumnFileWriter:
        """A streaming writer for one relation's sorted code columns."""
        return ColumnFileWriter(self, attrs)

    def ensure(self, column_set: ColumnSet) -> str:
        """Persist ``column_set`` (idempotently); bind it to the artifact.

        Returns the content digest naming the artifact.  The column set
        comes back file-*bound* — its :attr:`~ColumnSet.backing` carries the
        paths — so the parallel pool ships it as paths from here on; the
        in-heap columns it already holds stay untouched.
        """
        _require_little_endian()
        digest = column_set.content_digest()
        arity = len(column_set.attrs)
        paths = self.paths(digest, arity)
        if not self.contains(digest, arity):
            self.root.mkdir(parents=True, exist_ok=True)
            token = f"tmp-{os.getpid()}-{id(column_set):x}"
            columns = column_set.columns
            for position, (column, final) in enumerate(zip(columns, paths)):
                temp = self.root / f"{token}.c{position}"
                with open(temp, "wb") as handle:
                    handle.write(column)
                os.replace(temp, final)
        if column_set.backing is None:
            column_set.attach_backing(
                ColumnBacking(
                    digest, tuple(str(p) for p in paths), column_set.nrows
                ),
                digest,
            )
        return digest

    def open_column_set(
        self, attrs: Sequence[str], nrows: int, digest: str, verify: bool = False
    ) -> ColumnSet:
        """The ``digest`` artifact as an ``mmap``-backed :class:`ColumnSet`."""
        attrs = tuple(attrs)
        paths = self.paths(digest, len(attrs))
        if verify:
            self.verify_digest(attrs, digest)
        columns, backing = open_file_columns(paths, nrows, digest=digest)
        column_set = ColumnSet.from_columns(attrs, columns)
        column_set.attach_backing(backing, digest)
        return column_set

    def verify_digest(self, attrs: Sequence[str], digest: str) -> None:
        """Re-hash the artifact bytes and compare against ``digest``."""
        hasher = hashlib.sha1()
        hasher.update(",".join(attrs).encode())
        for path in self.paths(digest, len(attrs)):
            try:
                with open(path, "rb") as handle:
                    while True:
                        chunk = handle.read(_READ_CHUNK)
                        if not chunk:
                            break
                        hasher.update(chunk)
            except OSError as error:
                raise StorageError(f"missing column artifact {path}") from error
        actual = hasher.hexdigest()
        if actual != digest:
            raise StorageError(
                f"column artifact {digest} re-hashes to {actual}: the "
                f"persisted bytes were corrupted"
            )


# -- dictionaries -------------------------------------------------------------------


def write_dictionary_file(path: str | Path, values: Iterable) -> int:
    """Persist one attribute's interned values (code order) as a JSON array.

    Streams in bounded batches — an out-of-core ingest can pass a generator
    over a domain that never exists as one Python list.  Values must be
    ``int`` or ``str`` (the two types CSV ingestion produces); anything else
    does not round-trip JSON bit-for-bit and is rejected.

    Returns the value count.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + f".tmp-{os.getpid()}")
    count = 0
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("[")
            batch: list[str] = []
            for value in values:
                kind = type(value)
                if kind is int:
                    batch.append(str(value))
                elif kind is str:
                    batch.append(json.dumps(value))
                else:
                    raise StorageError(
                        f"dictionary value {value!r} ({kind.__name__}) is "
                        f"not persistable; only int and str survive a JSON "
                        f"round trip exactly"
                    )
                count += 1
                if len(batch) >= 8192:
                    handle.write(("," if count > len(batch) else "")
                                 + ",".join(batch))
                    batch.clear()
            if batch:
                handle.write(("," if count > len(batch) else "")
                             + ",".join(batch))
            handle.write("]")
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return count


def load_dictionary_file(path: str | Path) -> list:
    """Load one attribute's persisted values (inverse of the writer)."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            values = json.load(handle)
    except OSError as error:
        raise StorageError(f"cannot read dictionary file {path}") from error
    except json.JSONDecodeError as error:
        raise StorageError(f"corrupt dictionary file {path}: {error}") from error
    if not isinstance(values, list):
        raise StorageError(f"dictionary file {path} is not a JSON array")
    return values


class LazyDictionary(Dictionary):
    """A shared per-attribute dictionary hydrated from its file on demand.

    Installed into the :class:`Dictionary` registry by
    :func:`open_database_dir`: the join pipeline runs entirely on codes, so
    a cold start that never decodes pays nothing for million-value
    dictionaries.  The first ``encode``/``decode``/``values`` access loads
    the persisted value list; new values interned afterwards append on top
    of the persisted code space exactly like ordinary ingestion.
    """

    __slots__ = ("_source", "_count", "_hydrated")

    def __init__(self, attribute: str, source: str | Path, count: int) -> None:
        super().__init__(attribute)
        self._source = Path(source)
        self._count = int(count)
        self._hydrated = False

    def _hydrate(self) -> None:
        if self._hydrated:
            return
        stored = load_dictionary_file(self._source)
        if len(stored) < self._count:
            raise StorageError(
                f"dictionary file {self._source} holds {len(stored)} "
                f"values, manifest promises {self._count}"
            )
        codes = {value: code for code, value in enumerate(stored)}
        if len(codes) != len(stored):
            raise StorageError(
                f"dictionary file {self._source} repeats a value"
            )
        self._codes = codes
        self._values = stored
        self._hydrated = True

    def encode(self, value) -> int:
        self._hydrate()
        return Dictionary.encode(self, value)

    def encode_existing(self, value) -> int | None:
        self._hydrate()
        return Dictionary.encode_existing(self, value)

    def decode(self, code: int):
        self._hydrate()
        return Dictionary.decode(self, code)

    @property
    def values(self) -> list:
        self._hydrate()
        return self._values

    def __len__(self) -> int:
        return len(self._values) if self._hydrated else self._count

    def __repr__(self) -> str:
        state = "hydrated" if self._hydrated else "lazy"
        return f"LazyDictionary({self.attribute!r}: {len(self)} values, {state})"


def _install_dictionary(attribute: str, source: Path, count: int) -> None:
    """Bind ``attribute``'s registry slot to the persisted dictionary.

    An empty (or absent) slot takes a :class:`LazyDictionary`.  A non-empty
    dictionary is compatible exactly when the persisted values are a prefix
    of its interned values — then the artifact's codes are already valid —
    with a shorter live dictionary extended in place.  Anything else means
    the process interned conflicting codes for this attribute, and joining
    the two code spaces would silently mismatch values: fail loudly.
    """
    existing = Dictionary._registry.get(attribute)
    if (
        isinstance(existing, LazyDictionary)
        and not existing._hydrated
        and existing._source == source
    ):
        return
    if existing is None or len(existing) == 0:
        Dictionary._registry[attribute] = LazyDictionary(
            attribute, source, count
        )
        return
    stored = load_dictionary_file(source)
    current = existing.values
    prefix = current[: len(stored)]
    if prefix != stored[: len(prefix)]:
        raise StorageError(
            f"attribute {attribute!r} already holds interned values that "
            f"conflict with the persisted dictionary {source}; open the "
            f"database at a workload boundary (after "
            f"Dictionary.reset_registry()) or in a fresh process"
        )
    if len(current) < len(stored):
        encode = existing.encode
        for value in stored[len(current):]:
            encode(value)


# -- manifest -----------------------------------------------------------------------


def write_manifest(
    directory: str | Path, relations: dict, attributes: dict
) -> Path:
    """Write the directory manifest (atomically).

    ``relations`` maps name to ``{"schema": [...], "nrows": n, "digest": d}``;
    ``attributes`` maps attribute to ``{"count": n, "file": relpath}``.
    """
    directory = Path(directory)
    manifest = {
        "format": MANIFEST_FORMAT,
        "byte_order": "little",
        "relations": relations,
        "attributes": attributes,
    }
    path = directory / MANIFEST_NAME
    temp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)
    return path


def read_manifest(directory: str | Path) -> dict:
    """Read and validate a directory manifest.

    Raises :class:`StorageError` on anything short of a well-formed,
    current-format manifest — a truncated or hand-edited file fails here
    with a message naming the defect, never as a downstream type error.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise StorageError(
            f"{directory} is not a persisted database directory "
            f"(no readable {MANIFEST_NAME})"
        ) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(f"corrupt manifest {path}: {error}") from error
    if not isinstance(manifest, dict):
        raise StorageError(f"corrupt manifest {path}: not a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise StorageError(
            f"manifest {path} has format {manifest.get('format')!r}, "
            f"this build reads {MANIFEST_FORMAT!r}"
        )
    if manifest.get("byte_order") != "little":
        raise StorageError(
            f"manifest {path} declares byte order "
            f"{manifest.get('byte_order')!r}; only little-endian artifacts "
            f"are supported"
        )
    relations = manifest.get("relations")
    attributes = manifest.get("attributes")
    if not isinstance(relations, dict) or not isinstance(attributes, dict):
        raise StorageError(
            f"manifest {path} is missing its relations/attributes tables"
        )
    for name, meta in relations.items():
        if (
            not isinstance(meta, dict)
            or not isinstance(meta.get("schema"), list)
            or not all(isinstance(a, str) for a in meta["schema"])
            or not isinstance(meta.get("nrows"), int)
            or meta["nrows"] < 0
            or not isinstance(meta.get("digest"), str)
        ):
            raise StorageError(
                f"manifest {path}: relation {name!r} entry is malformed "
                f"(need schema/nrows/digest)"
            )
    for attribute, meta in attributes.items():
        if (
            not isinstance(meta, dict)
            or not isinstance(meta.get("count"), int)
            or meta["count"] < 0
        ):
            raise StorageError(
                f"manifest {path}: attribute {attribute!r} entry is "
                f"malformed (need count)"
            )
    return manifest


def _dictionary_filename(attribute: str) -> str:
    if not attribute or any(c in attribute for c in "/\\\0"):
        raise StorageError(
            f"attribute name {attribute!r} cannot name a dictionary file"
        )
    return f"{DICTS_SUBDIR}/{attribute}.json"


# -- save / open --------------------------------------------------------------------


def save_database_dir(database: Database, directory: str | Path) -> Path:
    """Persist every relation of ``database`` into a database directory.

    The file-backed twin of the CSV loader's directory convention: each
    relation's canonical column set becomes a digest-named column artifact,
    each attribute's dictionary one JSON value file, and the manifest ties
    them together.  Saving is idempotent per content (unchanged relations
    re-use their artifacts) and leaves every saved relation *bound* to the
    store, so a parallel bind right after a save already ships paths.
    """
    _require_little_endian()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store = ColumnStore(directory / COLUMNS_SUBDIR)
    relations_meta: dict = {}
    dictionaries: dict[str, Dictionary] = {}
    for relation in sorted(database, key=lambda r: r.name):
        if not relation.schema:
            raise StorageError(
                f"cannot persist nullary relation {relation.name!r}"
            )
        column_set = relation.column_set(relation.schema)
        digest = store.ensure(column_set)
        relations_meta[relation.name] = {
            "schema": list(relation.schema),
            "nrows": column_set.nrows,
            "digest": digest,
        }
        for attribute, dictionary in zip(
            relation.schema, relation.dictionaries
        ):
            dictionaries[attribute] = dictionary
        relation.attach_store(store)
    attributes_meta: dict = {}
    for attribute, dictionary in sorted(dictionaries.items()):
        filename = _dictionary_filename(attribute)
        count = write_dictionary_file(directory / filename, dictionary.values)
        attributes_meta[attribute] = {"count": count, "file": filename}
    write_manifest(directory, relations_meta, attributes_meta)
    return directory


def open_database_dir(
    directory: str | Path, verify: bool = False
) -> Database:
    """Open a persisted database directory as ``mmap``-backed relations.

    The cold-start path: columns are read-only maps of the digest-named
    artifacts (the OS pages them in as joins touch them), content digests
    come straight from the manifest, and dictionaries hydrate lazily on
    first decode — opening touches metadata only.  ``verify=True`` re-hashes
    every artifact against its manifest digest first (reads all bytes).

    Raises:
        StorageError: on a missing/corrupt manifest, missing or truncated
            artifacts, or dictionary state conflicting with this process's
            interned codes.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    for attribute, meta in sorted(manifest["attributes"].items()):
        source = directory / meta.get("file", _dictionary_filename(attribute))
        if not source.is_file():
            raise StorageError(f"missing dictionary file {source}")
        _install_dictionary(attribute, source, meta["count"])
    store = ColumnStore(directory / COLUMNS_SUBDIR)
    relations = []
    for name, meta in sorted(manifest["relations"].items()):
        schema = tuple(meta["schema"])
        nrows = meta["nrows"]
        digest = meta["digest"]
        if not schema:
            raise StorageError(
                f"manifest relation {name!r} has an empty schema"
            )
        relation = Relation.from_column_set(
            name, store.open_column_set(schema, nrows, digest, verify=verify)
        )
        relation.attach_store(store)
        relations.append(relation)
    return Database(relations)
