"""The partition-parallel subsystem: shard planning, zero-copy slicing,
worker-pool execution, and the bit-identity contract.

The hard contract under test: for every driver (Generic Join, Leapfrog,
Yannakakis, PANDA), every worker count, and every semiring, parallel output
is *bit-identical* to serial execution — the same canonical sorted code
rows, the same exact annotations.  Parallelism may only change wall-clock
time, never results.  Randomized instances cover uniform and heavy-hitter
(skewed) data so the Lemma 6.1-style heavy-key split is exercised, and the
work-counter aggregation is checked for truthfulness (worker counts land in
the parent scope; emitted totals are worker-count-independent).
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from _helpers import stable_seed

from repro.core.query_plans import DRIVERS
from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.faq.annotated import AnnotatedRelation
from repro.faq.semiring import BOOLEAN, COUNTING, MIN_PLUS
from repro.parallel import (
    ShardTable,
    parallel_faq_join,
    plan_shards,
    slice_bounds,
)
from repro.parallel.pool import pack_column_range, unpack_column_arrays
from repro.planner import QueryEngine
from repro.relational import (
    Database,
    Relation,
    generic_join,
    leapfrog_triejoin,
    scoped_work_counter,
)
from repro.relational.columns import ColumnSet

WORKER_COUNTS = (1, 2, 4)

QUERIES = {
    "triangle": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
    "four_cycle": [
        ("R1", ("A", "B")),
        ("R2", ("B", "C")),
        ("R3", ("C", "D")),
        ("R4", ("D", "A")),
    ],
    "path": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
}


def make_query(name: str, boolean: bool = False) -> ConjunctiveQuery:
    atoms = tuple(Atom(rel, attrs) for rel, attrs in QUERIES[name])
    if boolean:
        return ConjunctiveQuery.boolean(atoms, name=name)
    return ConjunctiveQuery.full(atoms, name=name)


def uniform_rows(rng, n, domain):
    return {(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)}


def skewed_rows(rng, n, domain):
    """A heavy hub on the smallest key plus a uniform tail."""
    hub = {(0, j) for j in range(n // 2)}
    tail = {
        (rng.randrange(1, domain), rng.randrange(domain))
        for _ in range(n // 2)
    }
    return hub | tail


def make_database(query: ConjunctiveQuery, rng, skewed: bool) -> Database:
    gen = skewed_rows if skewed else uniform_rows
    relations = []
    for atom in query.body:
        rows = gen(rng, rng.randrange(8, 50), rng.randrange(4, 9))
        relations.append(
            Relation(atom.name, atom.variables, rows)
        )
    return Database(relations)


def order_tables(relations, order):
    tables = []
    for relation in relations:
        attrs = tuple(v for v in order if v in relation.attributes)
        tables.append(ShardTable(attrs, relation.column_set(attrs)))
    return tables


# -- shard planning -----------------------------------------------------------------


class TestShardPlanning:
    def tables(self, rows):
        relations = [
            Relation("R", ("A", "B"), rows),
            Relation("S", ("B", "C"), rows),
            Relation("T", ("A", "C"), rows),
        ]
        order = ("A", "B", "C")
        return relations, order, order_tables(relations, order)

    def test_specs_ascend_and_disjoint(self):
        rng = random.Random(5)
        rows = skewed_rows(rng, 80, 9)
        _, order, tables = self.tables(rows)
        specs = plan_shards(tables, order, 4)
        for before, after in zip(specs, specs[1:]):
            if before.v0 == after.v0:
                assert before.v1[1] <= after.v1[0]
            else:
                assert before.v0[1] <= after.v0[0]

    def test_heavy_hub_is_split_on_v1(self):
        rows = {(0, j) for j in range(64)} | {(i, 0) for i in range(1, 9)}
        _, order, tables = self.tables(rows)
        specs = plan_shards(tables, order, 4)
        heavy = [s for s in specs if s.is_heavy]
        assert len(heavy) >= 2, specs
        # All heavy sub-shards pin the hub's single code.
        assert all(s.v0[1] - s.v0[0] == 1 for s in heavy)

    def test_pure_hub_splits_on_v1(self):
        """A single distinct v0 key must not serialize: it sub-splits on v1."""
        rows = {(0, j) for j in range(64)}
        relations, order, tables = self.tables(rows)
        specs = plan_shards(tables, order, 4)
        hub_code = relations[0].code_rows[0][0]
        assert all(
            s.v0 == (hub_code, hub_code + 1) for s in specs if s.is_heavy
        )
        assert sum(s.is_heavy for s in specs) >= 2
        full = generic_join(relations, order)
        merged = []
        for spec in specs:
            ranges = [slice_bounds(t, order, spec) for t in tables]
            merged.extend(
                generic_join(relations, order, root_ranges=ranges).code_rows
            )
        assert merged == full.code_rows

    def test_single_shard_for_one_worker(self):
        rng = random.Random(6)
        _, order, tables = self.tables(uniform_rows(rng, 40, 6))
        assert len(plan_shards(tables, order, 1)) == 1

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    def test_slices_partition_the_anchored_relations(self, skewed, shards):
        rng = random.Random(stable_seed("slices", skewed, shards))
        gen = skewed_rows if skewed else uniform_rows
        relations, order, tables = self.tables(gen(rng, 70, 8))
        specs = plan_shards(tables, order, shards)
        for relation, table in zip(relations, tables):
            covered = []
            for spec in specs:
                lo, hi = slice_bounds(table, order, spec)
                covered.extend(table.column_set.rows[lo:hi])
            if table.attrs[0] == order[0]:
                # Anchored relations: slices tile the relation exactly
                # (light ranges are disjoint; only heavy sub-shards repeat
                # the non-v1 part of a hub's run).
                if not any(s.is_heavy for s in specs):
                    assert covered == list(table.column_set.rows)
                else:
                    assert set(covered) == set(table.column_set.rows)
            else:
                # Non-anchored relations travel whole with light shards (and
                # v1-sliced with heavy ones) — nothing may go missing.
                assert set(covered) >= set(table.column_set.rows)


# -- zero-copy slicing and root ranges ----------------------------------------------


class TestZeroCopySlicing:
    def test_restrict_range_shares_storage(self):
        relation = Relation("R", ("A", "B"), [(i, i % 3) for i in range(12)])
        cs = relation.column_set(("A", "B"))
        view = cs.restrict_range(2, 9)
        assert view.columns[0].obj is cs.columns[0]  # shared buffers, no copy
        assert view.rows == cs.rows[2:9]
        assert list(view.columns[0]) == list(cs.columns[0][2:9])
        nested = view.restrict_range(1, 4)
        assert nested.columns[1].obj is cs.columns[1]
        assert nested.rows == cs.rows[3:6]
        with pytest.raises(IndexError):
            view.restrict_range(0, 8)
        # A relation over a view is an ordinary relation of the slice.
        sliced = Relation.from_column_set("R", view)
        assert sliced == Relation.from_codes("R", ("A", "B"), cs.rows[2:9])
        assert sliced.tuples == {
            relation.decode_row(row) for row in cs.rows[2:9]
        }
        nullary = Relation("N", (), [()]).column_set(())
        assert nullary.restrict_range(0, 1).rows == [()]
        assert nullary.restrict_range(1, 1).rows == []

    def test_trie_iterator_root_bounds(self):
        relation = Relation("R", ("A", "B"), [(i, j) for i in range(6) for j in range(2)])
        cs = relation.column_set(("A", "B"))
        lo, hi = cs.code_range(
            cs.columns[0][2], cs.columns[0][2] + 3
        )
        bounded = relation.trie_iterator(("A", "B"), bounds=(lo, hi))
        seen = []
        assert bounded.open()
        while True:
            seen.append(bounded.key())
            if not bounded.next():
                break
        full = relation.trie_iterator(("A", "B"))
        full.open()
        all_keys = full.level_keys()
        assert seen == [k for k in all_keys if cs.columns[0][2] <= k < cs.columns[0][2] + 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_root_ranges_compute_exact_shards(self, seed):
        rng = random.Random(stable_seed("rootrange", seed))
        rows = skewed_rows(rng, 60, 7)
        relations = [
            Relation("R", ("A", "B"), rows),
            Relation("S", ("B", "C"), rows),
            Relation("T", ("A", "C"), rows),
        ]
        order = ("A", "B", "C")
        tables = order_tables(relations, order)
        full = generic_join(relations, order)
        for join in (generic_join, leapfrog_triejoin):
            merged = []
            for spec in plan_shards(tables, order, 3):
                ranges = [slice_bounds(t, order, spec) for t in tables]
                merged.extend(join(relations, order, root_ranges=ranges).code_rows)
            assert merged == full.code_rows


# -- the bit-identity property suite ------------------------------------------------


class TestParallelSerialBitIdentity:
    """Parallel ≡ serial for all four drivers, worker counts, and skews."""

    @pytest.mark.parametrize("query_name", ["triangle", "four_cycle", "path"])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_join_drivers_match_serial(self, query_name, skewed, seed):
        rng = random.Random(stable_seed(query_name, skewed, seed))
        query = make_query(query_name)
        database = make_database(query, rng, skewed)
        order = tuple(sorted(query.variable_set))
        relations = [atom.bind(database) for atom in query.body]
        oracle = generic_join(relations, order)
        for workers in WORKER_COUNTS:
            with QueryEngine(query, workers=workers) as engine:
                for driver in ("generic", "leapfrog", "yannakakis"):
                    result = engine.execute(database, driver=driver)
                    assert result.relation.schema == order
                    assert result.relation.code_rows == oracle.code_rows, (
                        driver,
                        workers,
                    )
                    assert result.boolean == (not oracle.is_empty())

    @pytest.mark.parametrize("query_name", ["triangle", "four_cycle"])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_panda_driver_matches_serial_query_engine(self, query_name, skewed):
        rng = random.Random(stable_seed("panda", query_name, skewed))
        query = make_query(query_name)
        database = make_database(query, rng, skewed)
        order = tuple(sorted(query.variable_set))
        serial = QueryEngine(query).execute(database)
        canonical = serial.relation.column_set(order).rows
        for workers in WORKER_COUNTS:
            with QueryEngine(query, workers=workers) as engine:
                result = engine.execute(database, driver="panda")
                assert result.relation.schema == order
                assert result.relation.code_rows == canonical, workers
                assert result.relation == serial.relation
                assert result.boolean == serial.boolean

    @pytest.mark.parametrize(
        "driver", ["dasubw", "dafhtw", "panda_full", "tree_decomposition"]
    )
    def test_every_plan_driver_shards_like_serial(self, driver):
        """Each shard runs the serial driver-table entry on its slices."""
        rng = random.Random(stable_seed("plan-shards", driver))
        query = make_query("four_cycle")
        database = make_database(query, rng, skewed=True)
        order = tuple(sorted(query.variable_set))
        serial = QueryEngine(query).execute(database, driver=driver)
        assert serial.relation.schema == order
        with QueryEngine(query, workers=2) as engine:
            for _ in range(2):  # the second run reuses the shipped plan bundle
                pooled = engine.execute(database, driver=driver)
                assert pooled.relation.schema == order
                assert pooled.relation.code_rows == serial.relation.code_rows
                assert pooled.boolean == serial.boolean

    @pytest.mark.parametrize("query_name", ["triangle", "path"])
    def test_boolean_queries(self, query_name):
        rng = random.Random(stable_seed("bool", query_name))
        query = make_query(query_name, boolean=True)
        database = make_database(query, rng, skewed=True)
        relations = [atom.bind(database) for atom in query.body]
        expected = not generic_join(relations).is_empty()
        for workers in WORKER_COUNTS:
            with QueryEngine(query, workers=workers) as engine:
                for driver in ("generic", "yannakakis", "panda"):
                    result = engine.execute(database, driver=driver)
                    assert result.boolean is expected, (driver, workers)
                    assert result.relation.schema == ()
                    assert len(result.relation) == (1 if expected else 0)

    def test_engine_rebinds_on_database_change(self):
        """One engine, several databases: the pool recycles per database."""
        query = make_query("triangle")
        with QueryEngine(query, workers=2) as engine:
            for seed in range(3):
                rng = random.Random(stable_seed("rebind", seed))
                database = make_database(query, rng, skewed=bool(seed % 2))
                oracle = generic_join(
                    [atom.bind(database) for atom in query.body],
                    tuple(sorted(query.variable_set)),
                )
                for _ in range(2):  # repeat: warm path on the same database
                    result = engine.execute(database, driver="generic")
                    assert result.relation.code_rows == oracle.code_rows, seed

    def test_interleaved_engines_share_the_inprocess_database_slot(self):
        """Regression: two pooled engines alternating in-process shard runs.

        A map of one task runs in process against the locally resident
        database, a module-level slot; an engine must reinstall its own
        database when another engine displaced it, even though its
        pool-level token still matches.  One distinct key of a one-variable
        query plans to exactly one shard, so every map here runs in process.
        """
        def build(key):
            return Database(
                [Relation("R", ("A",), [(key,)]), Relation("S", ("A",), [(key,)])]
            )

        query = ConjunctiveQuery.full(
            (Atom("R", ("A",)), Atom("S", ("A",))), name="both"
        )
        order = ("A",)
        db1, db2 = build(1), build(101)
        workers = 2
        for database in (db1, db2):
            tables = order_tables([a.bind(database) for a in query.body], order)
            specs = plan_shards(tables, order, workers * QueryEngine.OVERSHARD)
            assert len(specs) == 1
        with QueryEngine(query, workers=workers) as first, \
                QueryEngine(query, workers=workers) as second:
            baseline = first.execute(db1, driver="yannakakis")
            other = second.execute(db2, driver="yannakakis")
            again = first.execute(db1, driver="yannakakis")
            assert again.relation.code_rows == baseline.relation.code_rows
            assert sorted(baseline.relation.tuples) == [(1,)]
            oracle2 = generic_join(
                [atom.bind(db2) for atom in query.body], order
            )
            assert other.relation.code_rows == oracle2.code_rows

    def test_empty_database(self):
        query = make_query("triangle")
        database = Database(
            [Relation(a.name, a.variables, []) for a in query.body]
        )
        for workers in (1, 4):
            with QueryEngine(query, workers=workers) as engine:
                for driver in ("generic", "leapfrog"):
                    result = engine.execute(database, driver=driver)
                    assert result.relation.is_empty()
                    assert result.boolean is False

    def test_self_join_binds_per_atom(self):
        edges = [(i, (i * 3) % 11) for i in range(20)] + [(5, j) for j in range(12)]
        database = Database([Relation.from_pairs("E", "X", "Y", edges)])
        query = ConjunctiveQuery.full(
            (Atom("E", ("A", "B")), Atom("E", ("B", "C"))), name="path2"
        )
        order = tuple(sorted(query.variable_set))
        oracle = generic_join([a.bind(database) for a in query.body], order)
        for workers in WORKER_COUNTS:
            with QueryEngine(query, workers=workers) as engine:
                for driver in ("generic", "leapfrog", "yannakakis"):
                    result = engine.execute(database, driver=driver)
                    assert result.relation.code_rows == oracle.code_rows


# -- pooled PANDA drivers -----------------------------------------------------------

PLAN_DRIVERS = [name for name, entry in DRIVERS.items() if entry.join is None]
PANDA_DRIVERS = [name for name, entry in DRIVERS.items() if entry.runs_panda]


class TestPooledPanda:
    """A pooled PANDA driver reports its PANDA runs and plans in the parent:
    every plan driver's shards take the parent's choice and solve no bound
    LP."""

    def _instance(self, driver):
        rng = random.Random(stable_seed("pooled-panda", driver))
        query = make_query("four_cycle")
        return query, make_database(query, rng, skewed=True)

    @pytest.mark.parametrize("driver", PANDA_DRIVERS)
    def test_pooled_runs_are_reported(self, driver):
        query, database = self._instance(driver)
        serial = QueryEngine(query).execute(database, driver=driver)
        bounds = {run.log_value for run in serial.panda_runs}
        with QueryEngine(query, workers=2) as engine:
            pooled = engine.execute(database, driver=driver)
        assert pooled.relation.code_rows == serial.relation.code_rows
        assert pooled.panda_runs
        for run in pooled.panda_runs:
            assert run.model is None  # the tables are the merged answer
            assert run.log_value in bounds
            assert run.stats.max_intermediate <= run.budget

    @pytest.mark.parametrize("driver", PLAN_DRIVERS)
    def test_shards_solve_no_bound_lp(self, driver, monkeypatch):
        """Run the shard tasks the engine builds in process, counting the
        bound LPs solved inside them."""
        from repro.parallel.pool import WorkerPool, run_shard_task
        from repro.planner.batch import BatchedBoundSolver

        solves = []
        in_shards = []
        original = BatchedBoundSolver.solve

        def counting_solve(self, targets):
            if in_shards:
                solves.append(targets)
            return original(self, targets)

        def in_process(pool, function, tasks):
            assert function is run_shard_task and len(tasks) > 1
            in_shards.append(True)
            try:
                return [function(task) for task in tasks]
            finally:
                in_shards.clear()

        monkeypatch.setattr(BatchedBoundSolver, "solve", counting_solve)
        monkeypatch.setattr(WorkerPool, "map", in_process)
        query, database = self._instance(driver)
        serial = QueryEngine(query).execute(database, driver=driver)
        with QueryEngine(query, workers=2) as engine:
            pooled = engine.execute(database, driver=driver)
        assert pooled.relation.code_rows == serial.relation.code_rows
        assert solves == []

    def test_cli_stats_count_pooled_panda_runs(self, tmp_path, capsys):
        from repro.cli import main

        edges = [(i, (i * 3) % 11) for i in range(20)] + [(5, j) for j in range(12)]
        (tmp_path / "R.csv").write_text(
            "A,B\n" + "".join(f"{a},{b}\n" for a, b in edges)
        )
        query = "Q(A,B,C) :- R(A,B), R(B,C), R(C,A)"
        outputs = {}
        for workers in ("1", "2"):
            rc = main(["run", query, "--data", str(tmp_path), "--workers", workers,
                       "--driver", "dasubw", "--stats", "--limit", "0"])
            assert rc == 0
            outputs[workers] = capsys.readouterr().out.splitlines()[0]
        assert outputs["1"].split(" (")[0] == outputs["2"].split(" (")[0]
        assert "(0 PANDA run(s))" not in outputs["2"]
        assert "PANDA run(s))" in outputs["2"]


# -- the plan choice ----------------------------------------------------------------


class TestPlanChoice:
    """The engine runs a plan entry's choice once per constraint set and
    never enumerates decompositions itself; ``TD(H)`` is enumerated at most
    once, whatever the constraint sets."""

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("driver", PLAN_DRIVERS)
    def test_no_enumeration_on_behalf_of_a_driver(self, driver, workers, monkeypatch):
        import repro.core.query_plans as query_plans
        import repro.decompositions.enumeration as enumeration

        rng = random.Random(stable_seed("plan-choice", driver))
        query = make_query("four_cycle")
        databases = [make_database(query, rng, skewed=True) for _ in range(2)]
        sizes = {tuple(len(database[a.name]) for a in query.body) for database in databases}
        assert len(sizes) == 2
        calls = []
        original = enumeration.tree_decompositions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(enumeration, "tree_decompositions", counting)
        monkeypatch.setattr(query_plans, "tree_decompositions", counting)
        with QueryEngine(query, workers=workers) as engine:
            answers = [engine.execute(database, driver=driver) for database in databases * 2]
        if driver == "panda_full":
            assert calls == []
        else:
            assert len(calls) <= 1
        for database, answer in zip(databases * 2, answers):
            joined = DRIVERS["generic"].run(query, [a.bind(database) for a in query.body])
            assert answer.relation.code_rows == joined.relation.code_rows


# -- work accounting ----------------------------------------------------------------


class TestWorkAccounting:
    def test_emitted_totals_are_worker_count_independent(self):
        rng = random.Random(stable_seed("work"))
        query = make_query("triangle")
        database = make_database(query, rng, skewed=True)
        relations = [atom.bind(database) for atom in query.body]
        with scoped_work_counter() as serial_counter:
            output = generic_join(relations)
        emitted = []
        for workers in WORKER_COUNTS:
            with QueryEngine(query, workers=workers) as engine:
                with scoped_work_counter() as counter:
                    engine.execute(database, driver="generic")
                emitted.append(counter.tuples_emitted)
                assert counter.tuples_scanned > 0
        # Output-side work equals the output size — independent of sharding.
        assert emitted == [serial_counter.tuples_emitted] * len(WORKER_COUNTS)
        assert emitted[0] == len(output)

    def test_worker_counts_land_in_parent_scope(self):
        rng = random.Random(stable_seed("scope"))
        query = make_query("triangle")
        database = make_database(query, rng, skewed=False)
        with QueryEngine(query, workers=2) as engine:
            with scoped_work_counter() as outer:
                engine.execute(database, driver="generic")
            # Work done inside worker processes was absorbed here, and none
            # of it leaked to the ambient counter.
            assert outer.total > 0
            with scoped_work_counter() as untouched:
                pass
            assert untouched.total == 0


# -- FAQ ----------------------------------------------------------------------------


class TestParallelFaq:
    SHAPES = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]

    def factors(self, semiring, value_of, rng, skewed):
        gen = skewed_rows if skewed else uniform_rows
        out = []
        for name, attrs in self.SHAPES:
            annotations = {
                row: value_of() for row in gen(rng, 40, 6)
            }
            out.append(AnnotatedRelation(name, attrs, semiring, annotations))
        return out

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize(
        "semiring_name,value_maker",
        [
            ("counting-fraction",
             lambda rng: lambda: Fraction(
                 rng.randrange(1, 9), rng.randrange(1, 5)
             )),
            ("counting-int", lambda rng: lambda: rng.randrange(1, 10)),
            ("boolean", lambda rng: lambda: True),
            ("min-plus", lambda rng: lambda: rng.randrange(0, 30)),
        ],
    )
    def test_annotations_bit_identical(self, skewed, semiring_name, value_maker):
        semiring = {
            "counting-fraction": COUNTING,
            "counting-int": COUNTING,
            "boolean": BOOLEAN,
            "min-plus": MIN_PLUS,
        }[semiring_name]
        rng = random.Random(stable_seed("faq", semiring_name, skewed))
        factors = self.factors(semiring, value_maker(rng), rng, skewed)
        for free in [(), ("A",), ("A", "C")]:
            serial = reduce(lambda x, y: x.multiply(y), factors).marginalize(free)
            for workers in WORKER_COUNTS:
                result = parallel_faq_join(factors, free, workers=workers)
                assert result.schema == serial.schema
                assert result == serial
                # Bit-level: identical code rows *and* identical exact values.
                assert result.code_items() == serial.code_items(), (
                    free,
                    workers,
                )

    def test_unsorted_factor_schemas(self):
        """Regression: factor schemas out of sorted order must not transpose.

        Workers operate under the sorted global order, so their rows come
        back in a different column order than the serial product schema;
        the merge must realign them.
        """
        rng = random.Random(stable_seed("faq-unsorted"))
        r = AnnotatedRelation(
            "R", ("B", "A"), COUNTING,
            {(rng.randrange(9), rng.randrange(9)): rng.randrange(1, 5)
             for _ in range(25)},
        )
        s = AnnotatedRelation(
            "S", ("C", "A"), COUNTING,
            {(rng.randrange(9), rng.randrange(9)): rng.randrange(1, 5)
             for _ in range(25)},
        )
        for free in [(), ("A",), ("A", "B"), ("B", "C", "A")]:
            serial = r.multiply(s).marginalize(free)
            for workers in (1, 2):
                result = parallel_faq_join([r, s], free, workers=workers)
                assert result.schema == serial.schema, (free, workers)
                assert result.code_items() == serial.code_items(), (free, workers)
                assert sorted(result.items()) == sorted(serial.items())

    def test_nullary_scalar_factor(self):
        """Regression: a nullary (scalar) factor must scale, not annihilate."""
        scalar = AnnotatedRelation("W", (), COUNTING, {(): Fraction(3, 2)})
        r = AnnotatedRelation(
            "R", ("A", "B"), COUNTING, {(0, 0): 2, (1, 1): 7}
        )
        for free in [(), ("A",), ("A", "B")]:
            serial = scalar.multiply(r).marginalize(free)
            for workers in (1, 2):
                result = parallel_faq_join([scalar, r], free, workers=workers)
                assert result.schema == serial.schema
                assert result.code_items() == serial.code_items(), (free, workers)

    def test_custom_semiring_ships_only_when_pooled(self):
        """Regression: an unpicklable semiring is fine until shards ship."""
        from repro.exceptions import QueryError
        from repro.faq.semiring import Semiring

        gaussian = Semiring(
            "gaussian", 0j, 1 + 0j, lambda a, b: a + b, lambda a, b: a * b
        )
        r = AnnotatedRelation(
            "R", ("A", "B"), gaussian,
            {(a, b): complex(a + 1, b) for a in range(8) for b in range(3)},
        )
        s = AnnotatedRelation(
            "S", ("B", "C"), gaussian,
            {(b, c): complex(1, -c) for b in range(3) for c in range(2)},
        )
        serial = r.multiply(s).marginalize(("A",))
        assert len(serial) == 8
        result = parallel_faq_join([r, s], ("A",), workers=1)
        assert result.code_items() == serial.code_items()
        query = ConjunctiveQuery(
            ("A",), (Atom("R", ("A", "B")), Atom("S", ("B", "C")))
        )
        with QueryEngine(query) as engine:
            assert engine.execute_faq([r, s], ("A",)) == serial
        with pytest.raises(QueryError, match="not picklable"):
            parallel_faq_join([r, s], ("A",), workers=2)

    def test_mixed_semirings_rejected(self):
        from repro.exceptions import QueryError

        r = AnnotatedRelation("R", ("A",), COUNTING, {(1,): 2})
        s = AnnotatedRelation("S", ("A",), MIN_PLUS, {(1,): 2})
        with pytest.raises(QueryError):
            parallel_faq_join([r, s], ("A",), workers=1)


# -- pool plumbing ------------------------------------------------------------------


class TestPoolPlumbing:
    def test_pack_unpack_roundtrip(self):
        column_set = ColumnSet(
            ("A", "B", "C"), [(-7, 0, 9), (1, 2, 3), (4, 5, 6)], presorted=True
        )
        buffer = pack_column_range(column_set, 0, 3)
        assert [list(c) for c in unpack_column_arrays(buffer, 3)] == [
            [-7, 1, 4],
            [0, 2, 5],
            [9, 3, 6],
        ]
        middle = pack_column_range(column_set, 1, 2)
        assert [list(c) for c in unpack_column_arrays(middle, 3)] == [[1], [2], [3]]
        assert pack_column_range(column_set, 2, 2) == b""
        assert all(len(c) == 0 for c in unpack_column_arrays(b"", 3))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_merge_shard_columns_checks_shard_order(self, pooled):
        """One merge for inline column sets and pooled wire buffers alike."""
        from repro.exceptions import PandaError
        from repro.parallel.engine import _merge_shard_columns

        def shard(rows):
            if pooled:
                shipped = ColumnSet(("A", "B"), rows, presorted=True)
                return unpack_column_arrays(
                    pack_column_range(shipped, 0, len(rows)), 2
                )
            return Relation.from_codes("Q", ("A", "B"), rows).column_set(
                ("A", "B")
            ).columns

        low, high = [(0, 1), (0, 2), (1, 0)], [(1, 1), (2, 0)]
        merged = _merge_shard_columns(
            [shard([]), shard(low), shard([]), shard(high)], 2
        )
        assert list(zip(*merged)) == low + high
        assert [len(c) for c in _merge_shard_columns([shard([])], 2)] == [0, 0]
        for bad in ([high, low], [low, low[-1:]], [low, [], low[:1]]):
            with pytest.raises(PandaError, match="overlap or arrived out of order"):
                _merge_shard_columns([shard(rows) for rows in bad], 2)

    def test_unpicklable_semiring_rejected(self):
        from repro.exceptions import QueryError
        from repro.faq.semiring import Semiring
        from repro.parallel.pool import semiring_reference

        custom = Semiring(
            name="custom",
            zero=0,
            one=1,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
        )
        with pytest.raises(QueryError):
            semiring_reference(custom)

    def test_stock_semirings_ship_by_name(self):
        from repro.parallel.pool import resolve_semiring, semiring_reference

        assert resolve_semiring(semiring_reference(COUNTING)) is COUNTING
        assert resolve_semiring(semiring_reference(BOOLEAN)) is BOOLEAN
