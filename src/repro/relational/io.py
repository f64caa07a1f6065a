"""CSV import/export for relations and databases.

Plain-text interchange so the CLI (``python -m repro``) and downstream users
can run the paper's machinery on their own data.  One CSV file per relation:
the header row is the schema, every following row a tuple.  Values are
integer-coerced when every cell of the column is the canonical text of an
integer (``-3``, ``0``, ``17``; not ``01``, ``+7``, ``1_0`` or `` 7``, which
``int()`` would merge with another cell), so coercion never changes which
cells are equal (the bounds and PANDA are domain-agnostic; coercion only
normalizes equality).

Ingestion works a column at a time: the file's rows are checked against the
header, split into columns by one ``itemgetter`` pass per column
(``zip(*body)`` would allocate a GC-tracked iterator per row, whose
collections dominate a 10^5-row load), coerced column by column and encoded
by :func:`~repro.relational.columns.encode_columns` (the encoder of
``Relation(...)``) straight into the relation's sorted code columns — no
code tuple per row is built on the way.
"""

from __future__ import annotations

import csv
from itertools import islice
from operator import eq, itemgetter
from pathlib import Path
from typing import Iterator, Sequence

from repro.exceptions import SchemaError
from repro.relational.columns import encode_columns
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = [
    "load_relation_csv",
    "save_relation_csv",
    "load_database_dir",
    "load_changes_csv",
    "iter_change_feed",
    "load_change_feed",
    "save_changes_csv",
]


def _read_csv(path: Path, delimiter: str) -> tuple[tuple[str, ...], list]:
    """The stripped header and the non-blank body rows of a CSV file."""
    with open(path, newline="") as handle:
        rows = list(filter(None, csv.reader(handle, delimiter=delimiter)))
    if not rows:
        raise SchemaError(f"{path} is empty (need a header row)")
    return tuple(column.strip() for column in rows[0]), rows[1:]


def _line_of(path: Path, delimiter: str, index: int) -> int:
    """The 1-based line on which non-blank row ``index`` (header = 0) of a
    CSV file ends; read again, for error messages only."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        next(islice(filter(None, reader), index, None), None)
        return reader.line_num


def _check_widths(path: Path, delimiter: str, header: tuple[str, ...], body: list) -> None:
    """Reject the first body row whose width is not the header's."""
    if set(map(len, body)) - {len(header)}:
        at = next(i for i, row in enumerate(body) if len(row) != len(header))
        line = _line_of(path, delimiter, at + 1)
        raise SchemaError(f"{path}:{line}: row {body[at]} does not match header {header}")


def _split_columns(body: list, positions: range) -> Iterator[list]:
    """The body's cells at each of ``positions``, one column at a time (one
    ``itemgetter`` pass each: no per-row iterator, unlike ``zip(*body)``)."""
    return (list(map(itemgetter(i), body)) for i in positions)


def _coerce_column(cells: Sequence[str]) -> Sequence:
    """``cells`` as ints when every distinct cell is the canonical text of
    one, else as is (the one coercion rule of relation files and change
    feeds).  ``int()`` alone also takes ``"01"``, ``"1_0"``, ``" 7"`` and
    ``"+7"``, which would merge distinct cells into one value."""
    values = dict.fromkeys(cells)
    try:
        for cell in values:
            values[cell] = int(cell)
    except ValueError:
        return cells
    if not all(map(eq, map(str, values.values()), values)):
        return cells
    return list(map(values.__getitem__, cells))


def load_relation_csv(
    path: str | Path, name: str | None = None, delimiter: str = ","
) -> Relation:
    """Read one relation from a CSV file (header row = schema).

    Args:
        path: the CSV file.
        name: relation name; defaults to the file stem.
        delimiter: CSV delimiter.

    Raises:
        SchemaError: on an empty file, ragged rows (naming ``path:line``)
            or a repeated header name, before any value is interned.
    """
    path = Path(path)
    header, body = _read_csv(path, delimiter)
    _check_widths(path, delimiter, header, body)
    columns = map(_coerce_column, _split_columns(body, range(len(header))))
    return Relation.from_column_set(name or path.stem, encode_columns(header, columns))


def save_relation_csv(
    relation: Relation, path: str | Path, delimiter: str = ","
) -> None:
    """Write a relation as CSV (header row = schema, sorted rows)."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.schema)
        for row in sorted(relation, key=repr):
            writer.writerow(row)


def load_changes_csv(
    path: str | Path, delimiter: str = ","
) -> tuple[tuple[str, ...], list[tuple], list[tuple]]:
    """Read one relation's change feed from a CSV file.

    The change-feed format is the relation CSV prefixed with an ``op``
    column: the header is ``op,<attr>,...`` and every row starts with ``+``
    (insert) or ``-`` (delete) followed by the tuple.  Values get the same
    whole-column integer coercion as :func:`load_relation_csv`, so a feed
    against an integer-loaded relation matches its values exactly.

    Returns ``(schema, inserts, deletes)`` — validation against the target
    relation (absent deletes, cancellation) happens in
    :class:`repro.incremental.SignedDelta`, not here.
    """
    path = Path(path)
    header, body = _read_csv(path, delimiter)
    if header[0] != "op":
        raise SchemaError(
            f"{path}:1: change feed header must start with 'op', got {header}"
        )
    _check_widths(path, delimiter, header, body)
    ops = [row[0].strip() for row in body]
    wrong = next((i for i, op in enumerate(ops) if op not in ("+", "-")), None)
    if wrong is not None:
        line = _line_of(path, delimiter, wrong + 1)
        raise SchemaError(f"{path}:{line}: op column must be '+' or '-', got {ops[wrong]!r}")
    columns = list(map(_coerce_column, _split_columns(body, range(1, len(header)))))
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    for op, row in zip(ops, zip(*columns) if columns else [()] * len(ops)):
        (inserts if op == "+" else deletes).append(row)
    return header[1:], inserts, deletes


def save_changes_csv(
    schema,
    inserts,
    deletes,
    path: str | Path,
    delimiter: str = ",",
) -> None:
    """Write a change feed (inverse of :func:`load_changes_csv`)."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(("op",) + tuple(schema))
        for row in inserts:
            writer.writerow(("+",) + tuple(row))
        for row in deletes:
            writer.writerow(("-",) + tuple(row))


def iter_change_feed(
    directory: str | Path, pattern: str = "*.changes.csv", delimiter: str = ","
):
    """Yield change-feed batches from a directory, in sorted (batch) order.

    Feed files are named ``<relation>.changes.csv`` (or anything matching
    ``pattern`` whose stem's first dot-component names the relation); each
    file is one batch against that relation, yielded as
    ``(relation_name, schema, inserts, deletes)``.

    Lazy: one file is parsed per step, so a long feed never materializes
    up front — ``repro serve`` applies (or sheds) batch *k* before batch
    *k+1* is even read, keeping memory flat at one batch.  The directory
    listing is snapshotted at the first step.
    """
    directory = Path(directory)
    for path in sorted(directory.glob(pattern)):
        name = path.name.split(".", 1)[0]
        schema, inserts, deletes = load_changes_csv(path, delimiter=delimiter)
        yield name, schema, inserts, deletes


def load_change_feed(
    directory: str | Path, pattern: str = "*.changes.csv", delimiter: str = ","
) -> list[tuple[str, tuple[str, ...], list[tuple], list[tuple]]]:
    """Every change-feed batch, materialized (see :func:`iter_change_feed`)."""
    return list(iter_change_feed(directory, pattern=pattern, delimiter=delimiter))


def load_database_dir(
    directory: str | Path, pattern: str = "*.csv", delimiter: str = ","
) -> Database:
    """Load every matching CSV in a directory as one database.

    Relation names are the file stems (``R12.csv`` -> relation ``R12``).
    """
    directory = Path(directory)
    relations = [
        load_relation_csv(path, delimiter=delimiter)
        for path in sorted(directory.glob(pattern))
    ]
    if not relations:
        raise SchemaError(f"no {pattern} files in {directory}")
    return Database(relations)
