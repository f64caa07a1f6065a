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
