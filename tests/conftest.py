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


@pytest.fixture
def no_row_transpose(monkeypatch):
    """Make deriving row tuples from columns an error.

    ``ColumnSet.rows`` is the only place that conversion happens — a
    ``SignedDelta`` keeps its rows in one too — so guarding it covers every
    layer, the datalog rounds included; forked pool workers inherit the patch.
    """
    from repro.relational.columns import ColumnSet

    real_rows = ColumnSet.rows.fget

    def guarded_rows(column_set):
        assert column_set._rows is not None, "columns transposed to rows"
        return real_rows(column_set)

    monkeypatch.setattr(ColumnSet, "rows", property(guarded_rows))
