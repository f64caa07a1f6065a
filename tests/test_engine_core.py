"""What the engine facades share: one driver table, checked up front.

Every facade takes every name of the driver table
(``repro.core.query_plans.DRIVERS``) and answers with the same rows;
``check_driver`` rejects any other name with one typed error *before* the
facade touches the database, the planner, or a running broker, and
``pinned_cardinalities`` is the one power-of-two pinning both maintained
engines plan under.  With no constraints given, every facade plans under
the cardinalities of the query's own atom bindings.
"""

import pytest

from repro.core.query_plans import DRIVERS
from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.datalog.engine import DatalogEngine
from repro.exceptions import IncrementalError, QueryError
from repro.incremental import IncrementalQueryEngine
from repro.parallel import ParallelQueryEngine
from repro.planner import Planner, QueryEngine
from repro.planner.engine import pinned_cardinalities
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.serving import ServingEngine

TRIANGLE = ConjunctiveQuery.full(
    (Atom("R", ("A", "B")), Atom("S", ("B", "C")), Atom("T", ("A", "C")))
)
TC_TEXT = "path(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n"


class Untouchable:
    """A database stand-in: any use of it is a side effect of the bad call."""

    def __getattr__(self, name):
        raise AssertionError(f"database.{name} touched before the driver check")


def triangle_database() -> Database:
    rows = [(1, 2), (2, 3), (1, 3), (3, 1), (2, 1)]
    return Database(
        (
            Relation("R", ("A", "B"), rows),
            Relation("S", ("B", "C"), rows),
            Relation("T", ("A", "C"), rows),
        )
    )


FACADES = {
    "query": lambda planner, query=TRIANGLE: QueryEngine(query, planner=planner),
    "pooled": lambda planner, query=TRIANGLE: QueryEngine(
        query, planner=planner, workers=2
    ),
    "incremental": lambda planner, query=TRIANGLE: IncrementalQueryEngine(
        query, planner=planner
    ),
    "serving": lambda planner, query=TRIANGLE: ServingEngine(
        query, planner=planner, readers=1
    ),
    "datalog": lambda planner: DatalogEngine(TC_TEXT, planner=planner),
}
QUERY_FACADES = ("query", "pooled", "incremental", "serving")


class TestDriverCheck:
    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_bad_driver_is_a_query_error_before_any_work(self, facade):
        planner = Planner()
        engine = FACADES[facade](planner)
        with engine:
            with pytest.raises(QueryError, match="unknown driver 'turbo'") as raised:
                engine.execute(Untouchable(), driver="turbo")
            # The message is the driver table.
            assert "/".join(DRIVERS) in str(raised.value)
            assert planner.stats.lookups == 0
            if facade in ("incremental", "datalog"):
                with pytest.raises(IncrementalError, match="not bound"):
                    engine.relation("R")

    @pytest.mark.parametrize("facade", QUERY_FACADES)
    def test_nullary_body_atom_is_a_query_error_before_any_work(self, facade):
        """``Q(A,B) :- R(A,B), S()`` is rejected by name before bind or plan,
        not by constraint extraction after bind."""
        query = ConjunctiveQuery.full((Atom("R", ("A", "B")), Atom("S", ())))
        planner = Planner()
        with pytest.raises(QueryError, match=r"nullary body atom S\(\)"):
            with FACADES[facade](planner, query) as engine:
                engine.execute(Untouchable())
        assert planner.stats.lookups == 0

    def test_serving_engine_keeps_serving_after_a_bad_driver(self):
        with ServingEngine(TRIANGLE, readers=1) as engine:
            engine.execute(triangle_database())
            with pytest.raises(QueryError):
                engine.execute(triangle_database(), driver="turbo")
            assert len(engine.read().result(timeout=30).relation) == 3

    def test_the_parallel_engine_keeps_its_defaults(self):
        from repro.parallel.pool import default_worker_count

        assert issubclass(ParallelQueryEngine, QueryEngine)
        assert QueryEngine(TRIANGLE).workers == 1
        with ParallelQueryEngine(TRIANGLE) as engine:
            assert engine.workers == default_worker_count()
        with ParallelQueryEngine(TRIANGLE, workers=1) as engine:
            # The default driver is the generic join, not PANDA.
            assert engine.execute(triangle_database()).panda_runs == []

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_every_facade_answers_every_driver_alike(self, driver):
        """One table: every name works on every facade, with the same rows."""
        database = triangle_database()
        order = ("A", "B", "C")
        expected = [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
        for facade in QUERY_FACADES:
            with FACADES[facade](Planner()) as engine:
                relation = engine.execute(database, driver=driver).relation
                assert relation.schema == order, (facade, driver)
                assert sorted(relation.tuples) == expected, (facade, driver)
        edges = Database([Relation("edge", ("x", "y"), [(1, 2), (2, 3)])])
        with FACADES["datalog"](Planner()) as engine:
            paths = engine.execute(edges, driver=driver)["path"]
            assert sorted(paths.tuples) == [(1, 2), (1, 3), (2, 3)]


class SizedAtom:
    def __init__(self, *variables):
        self.variables = variables


class TestPinnedCardinalities:
    @staticmethod
    def bounds(constraints) -> dict:
        return {c.y_key: c.bound for c in constraints}

    def test_rounds_up_to_powers_of_two(self):
        r, s = SizedAtom("A", "B"), SizedAtom("C", "B")
        pinned = pinned_cardinalities([(r, 5), (s, 64), (SizedAtom("D"), 0)])
        assert self.bounds(pinned) == {
            ("A", "B"): 8, ("B", "C"): 64, ("D",): 1,
        }

    def test_same_object_while_sizes_drift_under_the_bound(self):
        r, s = SizedAtom("A", "B"), SizedAtom("B", "C")
        pinned = pinned_cardinalities([(r, 5), (s, 9)])
        for sizes in ((8, 16), (1, 1), (6, 10)):
            assert pinned_cardinalities(zip((r, s), sizes), pinned) is pinned

    def test_repins_exactly_when_one_atom_outgrows_its_bound(self):
        r, s = SizedAtom("A", "B"), SizedAtom("B", "C")
        pinned = pinned_cardinalities([(r, 5), (s, 9)])
        repinned = pinned_cardinalities([(r, 9), (s, 9)], pinned)
        assert repinned is not pinned
        # Every cardinality re-rounds, not just the one that overflowed.
        assert self.bounds(repinned) == {("A", "B"): 16, ("B", "C"): 16}
        assert pinned_cardinalities([(r, 16), (s, 3)], repinned) is repinned

    def test_self_join_pins_the_smallest_bound_per_variable_set(self):
        # Two bindings over one variable set share one constraint — the
        # tighter — and every binding is checked against it.
        big, small = SizedAtom("A", "B"), SizedAtom("B", "A")
        pinned = pinned_cardinalities([(big, 100), (small, 3)])
        assert self.bounds(pinned) == {("A", "B"): 4}
        assert pinned_cardinalities([(big, 4), (small, 4)], pinned) is pinned
        assert pinned_cardinalities([(big, 4), (small, 5)], pinned) is not pinned
        assert pinned_cardinalities([(big, 100), (small, 3)], pinned) == pinned


EDGES = [(i, (3 * i + 1) % 7) for i in range(7)] + [
    (1, 2), (2, 0), (0, 1), (3, 4), (4, 5), (5, 3),
]
SELF_JOIN_TRIANGLE = ConjunctiveQuery.full(
    (Atom("E", ("A", "B")), Atom("E", ("B", "C")), Atom("E", ("C", "A")))
)
DEFAULT_CONSTRAINT_CASES = {
    # The stored schema names one of the three variable pairs.
    "self_join": (
        SELF_JOIN_TRIANGLE,
        lambda: Database([Relation("E", ("A", "B"), EDGES)]),
    ),
    # A one-row relation no atom names, over two of the query's variables.
    "unrelated": (
        TRIANGLE,
        lambda: Database((*triangle_database(), Relation("U", ("A", "B"), [(0, 0)]))),
    ),
    # The one atom binds a relation stored under other attribute names.
    "renamed": (
        ConjunctiveQuery.full((Atom("S", ("A", "B")),)),
        lambda: Database([Relation("S", ("X", "Y"), EDGES)]),
    ),
}


class TestDefaultConstraints:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(DEFAULT_CONSTRAINT_CASES))
    def test_every_driver_answers_like_generic(self, case, workers):
        query, make_database = DEFAULT_CONSTRAINT_CASES[case]
        database = make_database()
        with QueryEngine(query) as reference:
            expected = reference.execute(database, driver="generic").relation
        assert len(expected) > 0
        with QueryEngine(query, workers=workers) as engine:
            for driver in DRIVERS:
                relation = engine.execute(database, driver=driver).relation
                assert relation.schema == expected.schema, driver
                assert sorted(relation.tuples) == sorted(expected.tuples), driver

    def test_one_constraint_per_atom_binding_under_its_variables(self):
        from repro.datalog.atoms import binding_cardinalities

        _, make_database = DEFAULT_CONSTRAINT_CASES["self_join"]
        database = make_database()
        size = len(database["E"])
        constraints = binding_cardinalities(SELF_JOIN_TRIANGLE.body, database)
        assert {(c.x_key, c.y_key, c.bound) for c in constraints} == {
            ((), ("A", "B"), size),
            ((), ("B", "C"), size),
            ((), ("A", "C"), size),
        }
