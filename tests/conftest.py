"""Shared fixtures for the test suite.

Reusable generators live in :mod:`_helpers` (importable unambiguously from
any test module); this conftest only defines pytest fixtures.
"""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20170612)


def _guard_row_transpose(monkeypatch, min_rows: int) -> None:
    """Make deriving row tuples from a column set of ``min_rows`` rows or
    more an error."""
    from repro.relational.columns import ColumnSet

    real_rows = ColumnSet.rows.fget

    def guarded_rows(column_set):
        assert column_set._rows is not None or column_set.nrows < min_rows, (
            f"columns of {column_set.nrows} rows transposed to rows"
        )
        return real_rows(column_set)

    monkeypatch.setattr(ColumnSet, "rows", property(guarded_rows))


@pytest.fixture
def no_row_transpose(monkeypatch):
    """Make deriving row tuples from columns an error.

    ``ColumnSet.rows`` is the only place that conversion happens — a
    ``SignedDelta`` keeps its rows in one too — so guarding it covers every
    layer, the datalog rounds included; forked pool workers inherit the patch.
    """
    _guard_row_transpose(monkeypatch, 0)


@pytest.fixture
def no_large_row_transpose(monkeypatch):
    """Make deriving row tuples from columns an error from the ``vectorize``
    gate up: below it the row arm is the chosen path, past it every sort
    order and operator stays on columns."""
    from repro.relational.backend import _VEC_MIN_ROWS

    _guard_row_transpose(monkeypatch, _VEC_MIN_ROWS)


@pytest.fixture
def membership_arms(monkeypatch):
    """A ``Counter`` of the membership arms the numpy frontier join takes, so
    a parity test can assert which side of the leaf arm's guards it covered.

    ``"tuple"`` counts leaf probes answered as whole-tuple bit-table
    membership, ``"ragged"`` leaf probes that gathered every frontier row's
    segment instead (the arm the tuple probe replaces), and ``"bisect"``
    segmented-bisection membership probes at any level.  Forked pool
    workers count in their own copy.
    """
    from collections import Counter

    from repro.relational import vectorized

    taken = Counter()
    tuple_probe = vectorized._tuple_probe
    ragged_probe = vectorized._ragged_probe
    search = vectorized._segmented_searchsorted

    def counted_tuple_probe(*args):
        probed = tuple_probe(*args)
        taken["tuple"] += probed is not None
        return probed

    def counted_ragged_probe(*args, need_bounds):
        taken["ragged"] += not need_bounds
        return ragged_probe(*args, need_bounds=need_bounds)

    def counted_search(col, probes, lo, hi, side="left"):
        taken["bisect"] += side == "left"  # "right" only opens child nodes
        return search(col, probes, lo, hi, side)

    monkeypatch.setattr(vectorized, "_tuple_probe", counted_tuple_probe)
    monkeypatch.setattr(vectorized, "_ragged_probe", counted_ragged_probe)
    monkeypatch.setattr(vectorized, "_segmented_searchsorted", counted_search)
    return taken


@pytest.fixture
def column_copies(monkeypatch):
    """A ``Counter`` of the copies :func:`~repro.relational.columns.as_column`
    makes: ``"columns"`` counts copied inputs, ``"values"`` their lengths.

    A numpy output, a pool buffer or an ``mmap`` view is adopted, not
    copied, so a path that only moves such buffers into column sets keeps
    both at 0.  Forked pool workers count in their own copy.
    """
    from collections import Counter

    from repro.relational import columns

    made = Counter()
    copy = columns._copy_column

    def counted_copy(values):
        column = copy(values)
        made["columns"] += 1
        made["values"] += len(column)
        return column

    monkeypatch.setattr(columns, "_copy_column", counted_copy)
    return made
