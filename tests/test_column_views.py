"""A column is any read-only int64 buffer (ROADMAP Architecture layer 5).

:func:`~repro.relational.columns.as_column` is the one place that decides
what a column set holds: an ``array('q')`` or a ``'q'`` ``memoryview`` as
given, a contiguous int64 ndarray frozen and adopted as a view of its own
memory, anything else copied.  Three things are checked here:

* every numpy producer past the ``vectorize`` gate (the operators, the
  signed merge, the sort orders, the frontier join) and the pool's buffer
  unpacking hands its output over as views, with no copy;
* every consumer of columns gives the same rows and the same bytes on view
  columns as on ``array('q')`` columns;
* no kernel can write into a column: :meth:`ColumnSet.np_columns` is
  read-only whatever backs the set.
"""

import random
from array import array

import pytest

from _helpers import four_cycle_database, stable_seed

from repro.exceptions import SchemaError
from repro.incremental.delta import SignedDelta, advance_relation
from repro.instances import cycle_query
from repro.parallel.engine import _merge_shard_columns
from repro.parallel.pool import pack_column_range, unpack_column_arrays
from repro.planner import QueryEngine
from repro.relational import (
    Database,
    Relation,
    difference,
    generic_join,
    heavy_light_partition,
    natural_join,
    project,
    semijoin,
    union,
)
from repro.relational.backend import _VEC_MIN_ROWS as GATE
from repro.relational.backend import scoped_backend
from repro.relational.columns import (
    ColumnSet,
    Dictionary,
    apply_plan_to_columns,
    as_column,
    signed_merge_plan,
)
from repro.relational.storage import open_database_dir, save_database_dir

np = pytest.importorskip("numpy", reason="numpy outputs need numpy")


@pytest.fixture(autouse=True)
def vectorized():
    """Every producer here runs on its numpy arm; the shared dictionary
    registry is restored afterwards (opening a directory installs lazy
    dictionaries bound to the test's ``tmp_path``)."""
    saved = dict(Dictionary._registry)
    with scoped_backend("vectorized"):
        yield
    Dictionary._registry.clear()
    Dictionary._registry.update(saved)


def random_relation(name, attrs, rows=3 * GATE, domain=60, seed=0):
    rng = random.Random(stable_seed("column-views", name, seed))
    tuples = set()
    while len(tuples) < rows:
        tuples.add(tuple(rng.randrange(domain) for _ in attrs))
    return Relation(name, attrs, tuples)


def canonical_columns(relation):
    return relation.column_set(relation.schema).materialized_columns


def assert_views(columns):
    assert columns and all(type(column) is memoryview for column in columns)
    assert all(column.format == "q" and column.readonly for column in columns)


# -- the adoption helper ------------------------------------------------------------


class TestAdoption:
    def test_columns_pass_through(self, column_copies):
        codes = array("q", [1, 2, 3])
        assert as_column(codes) is codes
        view = memoryview(codes)[1:]
        assert as_column(view) is view
        assert column_copies["columns"] == 0

    def test_int64_array_is_frozen_and_shared(self, column_copies):
        values = np.arange(10, dtype=np.int64)
        column = as_column(values)
        assert type(column) is memoryview and column.format == "q"
        assert not values.flags.writeable
        assert np.shares_memory(np.frombuffer(column, dtype=np.int64), values)
        with pytest.raises(ValueError):
            values[0] = 7
        assert column_copies["columns"] == 0

    @pytest.mark.parametrize(
        "values",
        [
            [3, 1, 2],
            np.arange(20, dtype=np.int64)[::2],
            np.arange(5, dtype=np.int32),
            np.zeros((2, 3), dtype=np.int64)[:, 0],
        ],
        ids=["list", "strided", "int32", "column-of-2d"],
    )
    def test_anything_else_is_copied(self, column_copies, values):
        column = as_column(values)
        assert list(column) == [int(v) for v in values]
        assert column_copies == {"columns": 1, "values": len(values)}

    def test_non_integer_data_is_rejected(self):
        with pytest.raises(SchemaError, match="integer codes"):
            as_column(np.array([0.5, 1.5]))
        assert len(as_column(np.array([]))) == 0  # an empty column has no dtype


# -- producers adopt their numpy outputs ------------------------------------------


class TestProducersAdopt:
    """Each numpy producer past the gate hands over views, copying nothing."""

    def test_operators(self, column_copies):
        r = random_relation("VR", ("VA", "VB"))
        s = random_relation("VS", ("VB", "VC"))
        r2 = random_relation("VR2", ("VA", "VB"), seed=1)
        outputs = [
            project(r, ("VA",)),
            natural_join(r, s),
            semijoin(r, s),
            union(r, r2),
            difference(r, r2),
        ]
        outputs += [piece.relation for piece in heavy_light_partition(r, ("VA",))]
        for output in outputs:
            assert_views(canonical_columns(output))
        assert column_copies["columns"] == 0

    def test_encoding_and_sort_orders(self, column_copies):
        r = random_relation("VO", ("VA", "VB", "VC"))
        assert_views(canonical_columns(r))
        assert_views(r.column_set(("VC", "VA")).materialized_columns)
        assert column_copies["columns"] == 0

    def test_relabel(self, column_copies):
        r = random_relation("VL", ("VA", "VB"))
        relabeled = r.relabeled("VL2", ("VX", "VY"))
        assert_views(canonical_columns(relabeled))
        assert set(relabeled.tuples) == set(r.tuples)
        assert column_copies["columns"] == 0

    def test_frontier_join(self, column_copies):
        relations = [
            random_relation("VJ1", ("VA", "VB"), domain=30),
            random_relation("VJ2", ("VB", "VC"), domain=30),
            random_relation("VJ3", ("VA", "VC"), domain=30),
        ]
        out = generic_join(relations, ("VA", "VB", "VC"))
        assert len(out) >= GATE
        assert_views(canonical_columns(out))
        assert column_copies["columns"] == 0

    def test_signed_deltas(self, column_copies):
        base = random_relation("VD", ("VA", "VB"), domain=80)
        present = base.code_rows[: 2 * GATE : 2]
        fresh = random_relation("VF", ("VA", "VB"), domain=80, seed=2)
        held = set(base.code_rows)
        absent = [row for row in fresh.code_rows if row not in held]
        rows = present + absent[:GATE]
        columns = [array("q", column) for column in zip(*rows)]
        signs = array("q", [-1] * len(present) + [1] * len(absent[:GATE]))
        delta = SignedDelta.sorted_from(base.schema, columns, signs)
        assert_views(delta.column_set.materialized_columns)
        assert_views([delta.signs])
        assert_views(canonical_columns(delta.relation(+1, "ins")))
        assert_views(canonical_columns(advance_relation(base, delta)))
        assert column_copies["columns"] == 0

    def test_pool_unpack_is_a_view_of_the_buffer(self, column_copies):
        r = random_relation("VP", ("VA", "VB", "VC"))
        buffer = pack_column_range(r.column_set(r.schema), 0, len(r))
        columns = unpack_column_arrays(buffer, 3)
        assert_views(columns)
        assert all(column.obj is buffer for column in columns)
        shipped = ColumnSet(r.schema, columns=columns)
        assert shipped.rows == r.code_rows
        assert column_copies["columns"] == 0

    def test_warm_dasubw_op_copies_nothing(self, column_copies):
        """A warm PANDA op on a past-gate 4-cycle: every intermediate is a
        numpy output adopted in place."""
        database = four_cycle_database(
            random.Random(stable_seed("column-views-dasubw")), 4 * GATE, domain=200
        )
        engine = QueryEngine(cycle_query(4))
        expected = engine.execute(database, "dasubw").relation.code_rows
        column_copies.clear()
        result = engine.execute(database, "dasubw")
        assert result.relation.code_rows == expected
        assert len(expected) >= GATE
        assert_views(canonical_columns(result.relation))
        assert column_copies["columns"] == 0


# -- consumers read views as they read arrays -------------------------------------


def twin_sets(attrs=("WA", "WB", "WC"), rows=2 * GATE, seed=3):
    """The same sorted rows as ``array('q')`` columns and as adopted views."""
    relation = random_relation("W", attrs, rows=rows, domain=20, seed=seed)
    codes = list(zip(*relation.code_rows))
    as_arrays = ColumnSet(attrs, columns=[array("q", column) for column in codes])
    as_views = ColumnSet(
        attrs, columns=[np.array(column, dtype=np.int64) for column in codes]
    )
    assert all(type(column) is array for column in as_arrays.columns)
    assert_views(as_views.columns)
    return relation, as_arrays, as_views


class TestConsumersOnViews:
    def test_find_row_and_code_range(self):
        relation, as_arrays, as_views = twin_sets()
        rng = random.Random(stable_seed("column-views-probes"))
        probes = relation.code_rows[::7] + [
            tuple(rng.randrange(22) for _ in range(3)) for _ in range(50)
        ]
        for row in probes:
            assert as_views.find_row(row) == as_arrays.find_row(row)
            assert as_views.find_row(row, 5) == as_arrays.find_row(row, 5)
        for lo, hi in ((0, 3), (5, 6), (19, 40)):
            assert as_views.code_range(lo, hi) == as_arrays.code_range(lo, hi)
            start, end = as_arrays.code_range(lo, lo + 1)
            assert as_views.code_range(2, 9, start, end, 1) == as_arrays.code_range(
                2, 9, start, end, 1
            )

    def test_restrict_range_and_digest(self):
        _, as_arrays, as_views = twin_sets()
        assert as_views.content_digest() == as_arrays.content_digest()
        for lo, hi in ((0, 0), (3, 90), (100, as_arrays.nrows)):
            view, base = as_views.restrict_range(lo, hi), as_arrays.restrict_range(lo, hi)
            assert view.rows == base.rows
            assert view.content_digest() == base.content_digest()
            assert pack_column_range(as_views, lo, hi) == pack_column_range(
                as_arrays, lo, hi
            )

    def test_apply_plan_to_columns(self):
        relation, as_arrays, as_views = twin_sets()
        rows = relation.code_rows
        delta_rows = sorted(rows[::9] + [(21, 0, 0), (21, 5, 1)])
        signs = [1 if row[0] == 21 else -1 for row in delta_rows]
        plan = signed_merge_plan(as_arrays, delta_rows, signs)
        assert signed_merge_plan(as_views, delta_rows, signs) == plan
        merged = apply_plan_to_columns(as_views.columns, plan)
        assert merged == apply_plan_to_columns(as_arrays.columns, plan)
        assert all(type(column) is array for column in merged)
        kept = sorted(set(rows) - set(rows[::9]) | {(21, 0, 0), (21, 5, 1)})
        assert list(zip(*merged)) == kept

    def test_merge_shard_columns(self):
        _, as_arrays, as_views = twin_sets()
        cuts = (0, 40, 40, 300, as_arrays.nrows)
        for column_set in (as_arrays, as_views):
            shards = [
                column_set.restrict_range(lo, hi).columns
                for lo, hi in zip(cuts, cuts[1:])
            ]
            merged = _merge_shard_columns(shards, 3)
            assert merged == as_arrays.columns
            assert all(type(column) is array for column in merged)

    def test_save_database_dir(self, tmp_path):
        _, as_arrays, as_views = twin_sets(("SA", "SB", "SC"))
        written = []
        for label, column_set in (("arrays", as_arrays), ("views", as_views)):
            relation = Relation.from_column_set("W", column_set)
            directory = save_database_dir(Database([relation]), tmp_path / label)
            files = sorted((directory / "columns").iterdir())
            written.append([(path.name, path.read_bytes()) for path in files])
            reopened = open_database_dir(directory)["W"]
            assert reopened.code_rows == as_arrays.rows
        assert written[0] == written[1]


# -- nothing writes into a column ---------------------------------------------------


class TestReadOnlyColumns:
    @pytest.mark.parametrize("backing", ["array", "adopted", "mmap"])
    def test_np_columns_are_read_only(self, tmp_path, backing):
        _, as_arrays, as_views = twin_sets(("RA", "RB", "RC"))
        if backing == "array":
            column_set = as_arrays
        elif backing == "adopted":
            column_set = as_views
        else:
            relation = Relation.from_column_set("RO", as_arrays)
            directory = save_database_dir(Database([relation]), tmp_path / "db")
            column_set = open_database_dir(directory)["RO"].column_set(relation.schema)
            assert column_set.backing is not None
        first = column_set.np_columns()[0]
        with pytest.raises(ValueError):
            first[0] = first[0] + 1
        assert column_set.columns[0][0] == as_arrays.columns[0][0]
