"""Tests for the PANDA query drivers (Corollaries 7.10, 7.11, 7.13)."""

import random

import pytest

from repro.core.query_plans import (
    dafhtw_plan,
    dasubw_plan,
    panda_full_query,
    proper_query_plan,
    tree_decomposition_plan,
)
from repro.datalog import parse_query
from repro.decompositions import TreeDecomposition, tree_decompositions
from repro.exceptions import DecompositionError, QueryError
from repro.instances import instance_a, triangle_query, agm_tight_triangle
from repro.relational import Database, Relation, scoped_work_counter
from repro.relational.backend import _VEC_MIN_ROWS as GATE
from repro.relational.backend import scoped_backend

from _helpers import four_cycle_database, stable_seed

FOUR_CYCLE = parse_query(
    "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
)
FOUR_CYCLE_BOOL = parse_query(
    "Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
)


class TestCorrectnessAgainstOracle:
    @pytest.mark.parametrize("trial", range(3))
    def test_all_plans_match_naive(self, rng, trial):
        db = four_cycle_database(rng, 40 + 8 * trial)
        oracle = FOUR_CYCLE.evaluate_naive(db)
        assert panda_full_query(FOUR_CYCLE, db).relation == oracle
        assert dafhtw_plan(FOUR_CYCLE, db).relation == oracle
        assert dasubw_plan(FOUR_CYCLE, db).relation == oracle
        for td in tree_decompositions(FOUR_CYCLE.hypergraph()):
            assert tree_decomposition_plan(FOUR_CYCLE, db, td).relation == oracle

    def test_panda_past_the_gate_transposes_no_large_column_set(
        self, no_large_row_transpose
    ):
        """Every sort order a PANDA op asks for past the gate, the semijoins'
        partial key orders included, is built on columns, cold and warm."""
        pytest.importorskip("numpy", reason="the column path needs numpy")
        from repro.planner import QueryEngine

        db = four_cycle_database(random.Random(stable_seed("panda-gate")), 1000, 60)
        engine = QueryEngine(FOUR_CYCLE)
        with scoped_backend("vectorized"):
            engine.execute(db, "dasubw")
            result = engine.execute(db, "dasubw")
            expected = engine.execute(db, "generic")
        assert max(run.stats.max_intermediate for run in result.panda_runs) >= GATE
        # Compared by digest: ``==`` on relations reads their row tuples.
        answers = [
            relation.column_set(relation.schema).content_digest()
            for relation in (result.relation, expected.relation)
        ]
        assert answers[0] == answers[1]
        assert len(result.relation) == len(expected.relation) > GATE

    def test_boolean_plans(self, rng):
        db = four_cycle_database(rng, 40)
        oracle = len(FOUR_CYCLE_BOOL.evaluate_naive(db)) > 0
        assert dasubw_plan(FOUR_CYCLE_BOOL, db).boolean == oracle
        assert dafhtw_plan(FOUR_CYCLE_BOOL, db).boolean == oracle
        assert panda_full_query(FOUR_CYCLE_BOOL, db).boolean == oracle

    def test_boolean_negative_instance(self):
        # No 4-cycle: bipartite-free construction.
        db = Database(
            [
                Relation.from_pairs("R12", "A1", "A2", [(1, 2)]),
                Relation.from_pairs("R23", "A2", "A3", [(2, 3)]),
                Relation.from_pairs("R34", "A3", "A4", [(3, 4)]),
                Relation.from_pairs("R41", "A4", "A1", [(9, 9)]),
            ]
        )
        assert not dasubw_plan(FOUR_CYCLE_BOOL, db).boolean
        assert not dafhtw_plan(FOUR_CYCLE_BOOL, db).boolean

    def test_triangle_full(self, rng):
        q = triangle_query()
        db = agm_tight_triangle(64)
        oracle = q.evaluate_naive(db)
        assert panda_full_query(q, db).relation == oracle
        assert dasubw_plan(q, db).relation == oracle

    def test_proper_cq_rejected(self, rng):
        q = parse_query("Q(A1) :- R12(A1,A2), R23(A2,A3)")
        db = four_cycle_database(rng, 16)
        with pytest.raises(QueryError):
            panda_full_query(q, db)


class TestExample110Separation:
    """Each single TD pays N² on *its* adversarial instance, while the
    adaptive plan stays subquadratic on both (Example 1.10)."""

    def test_work_separation(self):
        from repro.instances import instance_a_transposed

        n = 64
        instances = [instance_a(n), instance_a_transposed(n)]
        tds = tree_decompositions(FOUR_CYCLE_BOOL.hypergraph())

        adaptive_worst = 0
        for db in instances:
            with scoped_work_counter() as counter:
                adaptive = dasubw_plan(FOUR_CYCLE_BOOL, db)
            adaptive_worst = max(adaptive_worst, counter.total)
            assert adaptive.boolean

        td_worsts = []
        for td in tds:
            worst = 0
            for db in instances:
                with scoped_work_counter() as counter:
                    baseline = tree_decomposition_plan(FOUR_CYCLE_BOOL, db, td)
                worst = max(worst, counter.total)
                assert baseline.boolean
            td_worsts.append(worst)

        # Every decomposition has an instance forcing an N²-sized bag...
        assert min(td_worsts) >= n * n
        # ...while the adaptive plan never pays quadratically.
        assert adaptive_worst < min(td_worsts)

    def test_answer_on_worst_case(self):
        db = instance_a(16)
        assert dasubw_plan(FOUR_CYCLE_BOOL, db).boolean  # cycles exist

    def test_full_output_worst_case(self):
        n = 16
        db = instance_a(n)
        result = dasubw_plan(FOUR_CYCLE, db)
        assert len(result.relation) == n * n  # output is the full N^2


class TestPlanMetadata:
    def test_decompositions_recorded(self, rng):
        db = four_cycle_database(rng, 24)
        result = dasubw_plan(FOUR_CYCLE, db)
        assert len(result.decompositions_used) >= 1
        assert len(result.panda_runs) == 4  # one per selector image

    def test_dafhtw_runs_one_per_bag(self, rng):
        db = four_cycle_database(rng, 24)
        result = dafhtw_plan(FOUR_CYCLE, db)
        assert len(result.panda_runs) == 2  # the chosen TD has two bags

    def test_panda_full_joins_the_one_bag_decomposition(self, rng):
        db = four_cycle_database(rng, 24)
        result = panda_full_query(FOUR_CYCLE, db)
        everything = frozenset(FOUR_CYCLE.variable_set)
        assert result.decompositions_used == [TreeDecomposition((everything,))]
        assert len(result.panda_runs) == 1


class TestCoveringDecompositions:
    """A caller's decomposition must put every atom inside a bag: the bag
    join enforces no other atom.  These bags miss ``R41(A4,A1)``, whose
    rows the join would otherwise never check."""

    MISSES_R41 = TreeDecomposition.from_bags([("A1", "A2", "A3"), ("A3", "A4")])

    PLANS = {
        "tree_decomposition": lambda db, td: tree_decomposition_plan(
            FOUR_CYCLE, db, td
        ),
        "tree_decomposition candidates": lambda db, td: tree_decomposition_plan(
            FOUR_CYCLE, db, decompositions=[td]
        ),
        "dasubw": lambda db, td: dasubw_plan(FOUR_CYCLE, db, decompositions=[td]),
        "dafhtw": lambda db, td: dafhtw_plan(FOUR_CYCLE, db, decompositions=[td]),
        "panda_full": lambda db, td: panda_full_query(
            FOUR_CYCLE, db, decompositions=[td]
        ),
        "proper": lambda db, td: proper_query_plan(FOUR_CYCLE, db, decompositions=[td]),
    }

    @pytest.mark.parametrize("plan", list(PLANS))
    def test_rejected_before_any_work(self, plan, rng):
        db = four_cycle_database(rng, 60, domain=8)
        assert len(FOUR_CYCLE.evaluate_naive(db)) > 0
        with scoped_work_counter() as counter:
            with pytest.raises(DecompositionError) as raised:
                self.PLANS[plan](db, self.MISSES_R41)
        assert str(self.MISSES_R41) in str(raised.value)
        assert counter.total == 0  # no PANDA run, no bag join

    def test_covering_candidates_still_answer(self, rng):
        db = four_cycle_database(rng, 60, domain=8)
        oracle = FOUR_CYCLE.evaluate_naive(db)
        for td in tree_decompositions(FOUR_CYCLE.hypergraph()):
            assert dafhtw_plan(FOUR_CYCLE, db, decompositions=[td]).relation == oracle
            assert dasubw_plan(FOUR_CYCLE, db, decompositions=[td]).relation == oracle


class TestProperQueryPlan:
    """§8: proper CQs over free-connex decompositions."""

    SCHEMA = [
        ("R12", ("A1", "A2")),
        ("R23", ("A2", "A3")),
        ("R34", ("A3", "A4")),
        ("R41", ("A4", "A1")),
    ]
    FULL_TEXT = "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"

    def _db(self, seed=5, n=24):
        from repro.instances import random_database

        return random_database(self.SCHEMA, size=n, domain=6, seed=seed)

    def _oracle(self, db, head):
        from repro.datalog import parse_query
        from repro.relational.operators import project

        full = parse_query(self.FULL_TEXT)
        return project(full.evaluate_naive(db), head)

    @pytest.mark.parametrize(
        "head",
        [("A1",), ("A1", "A2"), ("A1", "A3"), ("A2", "A3", "A4")],
        ids=lambda h: ",".join(h),
    )
    def test_matches_projection_oracle(self, head):
        from repro.core.query_plans import proper_query_plan
        from repro.datalog import parse_query

        db = self._db()
        q = parse_query(f"Q({','.join(head)}) :- " + self.FULL_TEXT.split(":- ")[1])
        result = proper_query_plan(q, db)
        assert result.relation == self._oracle(db, head)
        assert result.decompositions_used

    def test_full_head_degenerate_case(self):
        from repro.core.query_plans import proper_query_plan
        from repro.datalog import parse_query

        db = self._db(seed=8)
        q = parse_query(self.FULL_TEXT)
        result = proper_query_plan(q, db)
        assert result.relation == q.evaluate_naive(db)

    def test_head_schema_order_respected(self):
        from repro.core.query_plans import proper_query_plan
        from repro.datalog import parse_query

        db = self._db(seed=9)
        q = parse_query(
            "Q(A3,A1) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        result = proper_query_plan(q, db)
        assert result.relation.schema == ("A3", "A1")
        assert result.relation == self._oracle(db, ("A3", "A1"))

    def test_explicit_non_connex_decompositions_rejected(self):
        from repro.core.query_plans import proper_query_plan
        from repro.datalog import parse_query
        from repro.decompositions.tree_decomposition import TreeDecomposition
        from repro.exceptions import DecompositionError

        db = self._db(seed=11)
        q = parse_query(
            "Q(A1,A3) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        bad = TreeDecomposition.from_bags(
            [("A1", "A2", "A3"), ("A1", "A3", "A4")]
        )
        with pytest.raises(DecompositionError):
            proper_query_plan(q, db, decompositions=[bad])

    def test_panda_runs_recorded(self):
        from repro.core.query_plans import proper_query_plan
        from repro.datalog import parse_query

        db = self._db(seed=12)
        q = parse_query(
            "Q(A1) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        result = proper_query_plan(q, db)
        assert result.panda_runs
        for run in result.panda_runs:
            assert run.stats.max_intermediate <= run.budget + 1e-9
