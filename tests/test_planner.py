"""Planner subsystem tests: odd-cycle regressions, cache correctness,
signature invariance (ISSUE 3).

The 5-cycle instances here are exactly the Case-4b crash repro: before the
``_probe_walk`` fix, ``dasubw_plan`` died with ``WitnessError: Lemma 5.11
walk stuck`` on them, and the 6-cycle could not even enumerate selector
images (``prod |bags| = 2.7e8``).
"""

import random
from fractions import Fraction

import pytest
from _helpers import stable_seed

from repro.core.query_plans import (
    dafhtw_plan,
    dasubw_plan,
    panda_full_query,
    tree_decomposition_plan,
)
from repro.core.panda import panda
from repro.datalog.atoms import Atom
from repro.datalog.rule import DisjunctiveRule
from repro.decompositions import selector_images, tree_decompositions
from repro.instances import cycle_query
from repro.planner import (
    BatchedBoundSolver,
    PlanCache,
    Planner,
    QueryEngine,
    build_panda_plan,
    rule_signature,
)
from repro.relational import Database, Relation, generic_join
from repro.relational.operators import semijoin


def modular_cycle_database(length: int, size: int = 40, mod: int = 11) -> Database:
    """The ISSUE 3 repro instance: each edge holds ``(i, 3i mod m)`` pairs."""
    query = cycle_query(length)
    relations = []
    for atom in query.body:
        pairs = [(i, (3 * i) % mod) for i in range(size)]
        relations.append(
            Relation.from_pairs(
                atom.name, atom.variables[0], atom.variables[1], pairs
            )
        )
    return Database(relations)


def normalized_rows(relation: Relation) -> list:
    """Rows as sorted (attribute, value) pairs — schema-order independent."""
    return sorted(
        tuple(sorted(zip(relation.schema, row))) for row in relation.tuples
    )


def oracle_rows(query, database: Database) -> list:
    return normalized_rows(
        generic_join([atom.bind(database) for atom in query.body])
    )


class TestOddCycleRegressions:
    """All four drivers against the Generic Join oracle on 5- and 6-cycles."""

    @pytest.mark.parametrize("length", [5, 6])
    def test_dasubw_matches_oracle(self, length):
        query = cycle_query(length)
        db = modular_cycle_database(length)
        result = dasubw_plan(query, db)
        assert normalized_rows(result.relation) == oracle_rows(query, db)

    @pytest.mark.parametrize("length", [5, 6])
    def test_other_drivers_match_oracle(self, length):
        query = cycle_query(length)
        db = modular_cycle_database(length)
        oracle = oracle_rows(query, db)
        assert normalized_rows(panda_full_query(query, db).relation) == oracle
        assert normalized_rows(dafhtw_plan(query, db).relation) == oracle
        assert normalized_rows(tree_decomposition_plan(query, db).relation) == oracle

    def test_dasubw_skips_decompositions_with_unproduced_bags(self):
        """A bag in no ⊆-minimal image gets no table; its TD is skipped."""
        from repro.datalog import parse_query
        from repro.decompositions.tree_decomposition import TreeDecomposition

        query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
        db = Database(
            [
                Relation.from_pairs("R", "A", "B", [(i, i % 3) for i in range(9)]),
                Relation.from_pairs("S", "B", "C", [(i % 3, i) for i in range(9)]),
            ]
        )
        td_small = TreeDecomposition.from_bags([("A", "B", "C")])
        td_redundant = TreeDecomposition.from_bags([("A", "B", "C"), ("A", "B")])
        images = selector_images([td_small, td_redundant])
        assert images == [frozenset({frozenset({"A", "B", "C"})})]
        result = dasubw_plan(query, db, decompositions=[td_small, td_redundant])
        assert normalized_rows(result.relation) == oracle_rows(query, db)
        assert [td.bag_set for td in result.decompositions_used] == [
            td_small.bag_set
        ]

    def test_five_cycle_boolean_dasubw(self):
        query = cycle_query(5, boolean=True)
        db = modular_cycle_database(5)
        assert dasubw_plan(query, db).boolean is True

    def test_six_cycle_selector_images_enumerate(self):
        # prod |bags| = 4^14 ≈ 2.7e8; the minimal-image frontier stays small.
        tds = tree_decompositions(cycle_query(6).hypergraph())
        images = selector_images(tds)
        assert 14 <= len(images) < 1000
        # Every image must still select a bag from every decomposition.
        for image in images:
            for td in tds:
                assert image & td.bag_set


class TestPlanCacheCorrectness:
    def test_warm_results_bit_identical_to_cold(self):
        query = cycle_query(5)
        db = modular_cycle_database(5)
        planner = Planner()
        cold = dasubw_plan(query, db, planner=planner)
        assert planner.stats.misses > 0
        warm = dasubw_plan(query, db, planner=planner)
        assert planner.stats.hits > 0
        assert cold.relation.schema == warm.relation.schema
        assert sorted(cold.relation.tuples) == sorted(warm.relation.tuples)
        # The cached plans preserve exact Fractions end to end.
        for run_cold, run_warm in zip(cold.panda_runs, warm.panda_runs):
            assert isinstance(run_warm.log_value, Fraction)
            assert run_cold.log_value == run_warm.log_value
            assert run_cold.proof_sequence_length == run_warm.proof_sequence_length

    def test_cached_panda_plan_reused_across_databases(self):
        query = cycle_query(4)
        db1 = modular_cycle_database(4, size=40, mod=11)
        db2 = modular_cycle_database(4, size=40, mod=7)
        engine = QueryEngine(query)
        r1 = engine.execute(db1)
        misses_after_first = engine.cache_stats.misses
        r2 = engine.execute(db2)
        # Same cardinalities -> same signatures -> no new plan builds.
        assert engine.cache_stats.misses == misses_after_first
        assert normalized_rows(r1.relation) == oracle_rows(query, db1)
        assert normalized_rows(r2.relation) == oracle_rows(query, db2)

    def test_explicit_plan_accepted_and_validated(self):
        query = cycle_query(4)
        db = modular_cycle_database(4)
        rule = DisjunctiveRule(
            (frozenset(query.variable_set),), query.body, name="Q"
        )
        constraints = db.extract_cardinalities()
        plan = build_panda_plan(
            tuple(sorted(rule.variable_set)), list(rule.targets), constraints
        )
        direct = panda(rule, db, constraints=constraints)
        via_plan = panda(rule, db, constraints=constraints, plan=plan)
        assert sorted(direct.model.tables[0].tuples) == sorted(
            via_plan.model.tables[0].tuples
        )
        from repro.exceptions import PandaError

        other = cycle_query(5)
        other_rule = DisjunctiveRule(
            (frozenset(other.variable_set),), other.body, name="Q5"
        )
        with pytest.raises(PandaError):
            panda(other_rule, modular_cycle_database(5), plan=plan)
        # A plan built under different constraints (stale budget) is rejected.
        bigger = modular_cycle_database(4, size=60, mod=11)
        with pytest.raises(PandaError, match="different degree constraints"):
            panda(rule, bigger, plan=plan)

    def test_cache_bounded_and_evicting(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", "plan-a", ())
        cache.put("b", "plan-b", ())
        cache.put("c", "plan-c", ())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # evicted (LRU)
        assert cache.get("c").plan == "plan-c"

    def test_instance_hit_touches_its_entry(self):
        """A shape served from the instance memo is recently used: after a
        third shape fills a 2-entry cache, a renamed request of it still
        hits the canonical entry instead of being re-planned."""
        from repro.planner.signature import rename_degree_constraint

        constraints = modular_cycle_database(4).extract_cardinalities()
        universe = tuple(sorted(cycle_query(4).variable_set))
        a1, a2, a3, a4 = universe
        full = (frozenset(universe),)
        pair = (frozenset({a1, a2, a3}), frozenset({a3, a4, a1}))
        triple = (frozenset({a1, a2, a3}),)
        planner = Planner(PlanCache(maxsize=2))
        for targets in (full, pair, full, triple):
            planner.plan_rule(universe, targets, constraints)
        assert (planner.stats.hits, planner.stats.misses) == (1, 3)
        mapping = {v: f"B{i}" for i, v in enumerate(universe)}
        planner.plan_rule(
            tuple(mapping[v] for v in universe),
            (frozenset(mapping[v] for v in universe),),
            type(constraints)(rename_degree_constraint(c, mapping) for c in constraints),
        )
        assert (planner.stats.hits, planner.stats.misses) == (2, 3)
        assert planner.stats.evictions == 1


class TestSignatureInvariance:
    def test_renaming_invariance_property(self, rng):
        """Signatures are invariant under random variable renamings."""
        base_query = cycle_query(5)
        universe = tuple(sorted(base_query.variable_set))
        targets = (
            frozenset({"A1", "A2", "A3"}),
            frozenset({"A3", "A4", "A5"}),
        )
        db = modular_cycle_database(5)
        constraints = db.extract_cardinalities()
        base_key, _ = rule_signature(universe, targets, constraints)
        from repro.planner.signature import rename_degree_constraint

        for _ in range(10):
            new_names = [f"B{i}" for i in range(len(universe))]
            rng.shuffle(new_names)
            mapping = dict(zip(universe, new_names))
            renamed_key, _ = rule_signature(
                tuple(sorted(mapping.values())),
                tuple(frozenset(mapping[v] for v in t) for t in targets),
                [rename_degree_constraint(c, mapping) for c in constraints],
            )
            assert renamed_key == base_key

    def test_different_structures_different_signatures(self):
        db4 = modular_cycle_database(4)
        q4 = cycle_query(4)
        universe = tuple(sorted(q4.variable_set))
        constraints = db4.extract_cardinalities()
        key_full, _ = rule_signature(
            universe, (frozenset(universe),), constraints
        )
        key_pair, _ = rule_signature(
            universe,
            (frozenset({"A1", "A2"}), frozenset({"A3", "A4"})),
            constraints,
        )
        assert key_full != key_pair

    def test_isomorphic_images_share_one_plan(self):
        """The 4-cycle's 4 selector images are all isomorphic: 1 miss."""
        query = cycle_query(4)
        db = modular_cycle_database(4)
        planner = Planner()
        dasubw_plan(query, db, planner=planner)
        assert planner.stats.misses == 1
        assert planner.stats.hits >= 3

    def test_batched_solver_memoizes(self):
        db = modular_cycle_database(4)
        query = cycle_query(4)
        solver = BatchedBoundSolver(
            tuple(sorted(query.variable_set)), db.extract_cardinalities()
        )
        bag = frozenset({"A1", "A2", "A3"})
        first = solver.solve(bag)
        second = solver.solve(bag)
        assert first is second
        assert solver.solves == 1
        assert isinstance(first.log_value, Fraction)


def renamed_rows(relation: Relation, mapping) -> list:
    """:func:`normalized_rows` with every attribute renamed by ``mapping``."""
    return sorted(
        tuple(sorted((mapping[a], v) for a, v in zip(relation.schema, row)))
        for row in relation.tuples
    )


class TestRenamedCachedPlans:
    """A plan served from the cache under a variable renaming runs PANDA as
    the stored plan does, renamed.

    The planner is warmed on a 5-cycle rule; every random renaming of it is
    then a cache hit that adds no miss.  PANDA on the renamed plan computes
    a model within its budget whose tables are the warm run's tables under
    the renaming, its bound matches a fresh build on the renamed instance,
    and the query answer matches the fresh plan's.  A fresh plan's own
    model may differ: the proof sequence built from the same dual depends
    on the variable names.  This is the harness a change to how cached
    plans are renamed must keep green.
    """

    #: Distinct atom sizes, so the 5-cycle's rotations are not automorphisms
    #: of the instance and a renamed hit really re-keys the stored plan.
    SIZES = (7, 9, 11, 13, 15)

    @classmethod
    def _edges(cls) -> dict:
        """One fixed random edge set per atom of the 5-cycle."""
        rng = random.Random(stable_seed("renamed-cached-plans"))
        edges = {}
        for atom, size in zip(cycle_query(5).body, cls.SIZES):
            pairs = set()
            while len(pairs) < size:
                pairs.add((rng.randrange(16), rng.randrange(16)))
            edges[atom.name] = sorted(pairs)
        return edges

    @staticmethod
    def _instance(edges: dict, names):
        """The 5-cycle body and database over ``names`` (``names[i]``
        replaces ``A{i+1}``), each atom holding its edges in ``edges``."""
        query = cycle_query(5)
        mapping = {f"A{i + 1}": name for i, name in enumerate(names)}
        atoms = []
        relations = []
        for atom in query.body:
            a, b = (mapping[v] for v in atom.variables)
            relations.append(Relation.from_pairs(atom.name, a, b, edges[atom.name]))
            atoms.append(Atom(atom.name, (a, b)))
        return tuple(atoms), Database(relations), mapping

    #: A two-target rule: two triangles of the 5-cycle sharing ``A3``.
    TWO_BAGS = (frozenset({"A1", "A2", "A3"}), frozenset({"A3", "A4", "A5"}))

    @pytest.mark.parametrize("shape", ["single", "two_bags"])
    def test_renamed_hits_run_as_the_stored_plan(self, rng, shape):
        from repro.planner.signature import rename_set

        edges = self._edges()
        base_names = [f"A{i}" for i in range(1, 6)]
        body, db, _ = self._instance(edges, base_names)
        universe = tuple(sorted(base_names))
        targets = (frozenset(universe),) if shape == "single" else self.TWO_BAGS
        planner = Planner()
        constraints = db.extract_cardinalities()
        stored = planner.plan_rule(universe, targets, constraints)
        assert planner.stats.misses == 1
        rule = DisjunctiveRule(targets, body)
        warm = panda(rule, db, constraints=constraints, plan=stored).model.by_attributes()

        for trial in range(6):
            # Alternate fresh names with permutations of the original ones,
            # so a renaming may also map a variable onto another's name.
            names = (
                [f"V{trial}_{i}" for i in range(5)] if trial % 2 else list(base_names)
            )
            rng.shuffle(names)
            body_r, db_r, mapping = self._instance(edges, names)
            universe_r = tuple(sorted(names))
            targets_r = tuple(rename_set(t, mapping) for t in targets)
            constraints_r = db_r.extract_cardinalities()
            rule_r = DisjunctiveRule(targets_r, body_r, name="P")

            hits, misses = planner.stats.hits, planner.stats.misses
            plan = planner.plan_rule(universe_r, targets_r, constraints_r)
            assert (planner.stats.hits, planner.stats.misses) == (hits + 1, misses)

            run = panda(rule_r, db_r, constraints=constraints_r, plan=plan)
            assert rule_r.is_model(run.model, db_r)
            assert all(len(table) <= run.budget for table in run.model.tables)
            tables = run.model.by_attributes()
            for target in targets:
                assert normalized_rows(tables[rename_set(target, mapping)]) == (
                    renamed_rows(warm[target], mapping)
                )

            fresh = build_panda_plan(universe_r, list(targets_r), constraints_r)
            assert plan.log_value == fresh.log_value
            if shape == "single":
                fresh_run = panda(rule_r, db_r, constraints=constraints_r, plan=fresh)
                answers = []
                for model in (run.model, fresh_run.model):
                    table = model.tables[0]
                    for atom in body_r:
                        table = semijoin(table, atom.bind(db_r))
                    answers.append(normalized_rows(table))
                assert answers[0] == answers[1]
