"""Recursive datalog: stratification, semi-naïve fixpoint, maintenance.

The hard contract under test (ISSUE-10 bit-identity gate): the semi-naïve
fixpoint is *bit-identical* to naive re-evaluation to fixpoint — the same
canonical sorted code rows — for every driver, both execution backends,
serial and pooled term execution, and after every insert/delete refresh
(continuation and recompute paths alike).  Plus the stratification edge
cases: negative cycles rejected with a clear error, empty strata, mutual
recursion, duplicate-rule idempotence, zero-new-tuples rounds terminating
immediately, and per-rule plans cached across rounds (planner hit-rate).
"""

import random

import pytest

from _helpers import stable_seed

from repro.datalog import (
    Atom,
    DatalogEngine,
    DatalogProgram,
    DatalogRule,
    evaluate_program_naive,
    parse_program,
)
from repro.datalog.fixpoint import FixpointStats, run_stratum
from repro.exceptions import (
    DatalogError,
    DeltaError,
    IncrementalError,
    QueryError,
)
from repro.faq.annotated import AnnotatedRelation
from repro.faq.semiring import COUNTING, FRACTION
from repro.incremental.delta import PredicateStore, SignedDelta
from repro.relational import Database, Relation
from repro.relational.backend import scoped_backend

DRIVERS = ("generic", "leapfrog", "yannakakis", "panda")
BACKENDS = ("interpreted", "vectorized")

TC_TEXT = """
# transitive closure (the docs/datalog.md worked example)
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
"""

# Left- and right-linear recursion together: every delta round fires two
# terms, which is what exercises the pooled executor.
TC_BOTH_TEXT = """
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
path(x,z) :- edge(x,y), path(y,z).
"""

# The recursive rule's head renames the schema's variables: every derived
# row is re-coded from ``a``/``b``'s dictionaries into ``x``/``y``'s.
RENAMED_HEAD_TEXT = """
path(x,y) :- edge(x,y).
path(a,b) :- edge(a,c), path(c,b).
"""

# Unary reachability: the head projects the body's variables, and the
# recursive head renames the schema's ``x``.
LAYERS_TEXT = """
reach(x) :- start(x).
reach(y) :- reach(x), edge(x,y).
"""

# Heads that permute and project the body's variables (the renaming head is
# ``RENAMED_HEAD_TEXT`` in ``test_rounds_past_the_gate_match_naive``).
HEAD_SHAPES = {
    "permute": """
        sym(x,y) :- edge(x,y).
        sym(y,x) :- sym(x,y).
    """,
    "project": """
        src(x) :- edge(x,y).
        hop(z,x) :- edge(x,y), edge(y,z).
        far(z) :- hop(z,x), src(x).
    """,
}

NEG_TEXT = """
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
unreach(x,y) :- node(x), node(y), !path(x,y).
"""


def edge_database(edges, nodes=None) -> Database:
    relations = [Relation.from_pairs("edge", "src", "dst", sorted(set(edges)))]
    if nodes is not None:
        relations.append(
            Relation("node", ("v",), [(v,) for v in sorted(set(nodes))])
        )
    return Database(tuple(relations))


def chain_edges(chains: int, length: int, tag: str = "c") -> list:
    """Disjoint chains of ``length`` nodes, edges in a shuffled order."""
    edges = [
        (f"{tag}{chain}_{i}", f"{tag}{chain}_{i + 1}")
        for chain in range(chains)
        for i in range(length - 1)
    ]
    random.Random(stable_seed("chains", chains, length, tag)).shuffle(edges)
    return edges


def random_edges(rng: random.Random, n: int, domain: int = 20) -> set:
    return {
        (rng.randrange(domain), rng.randrange(domain)) for _ in range(n)
    }


def assert_fixpoint_matches_naive(engine_result, program, database) -> None:
    oracle = evaluate_program_naive(program, database)
    for name in program.idb_predicates:
        assert engine_result[name].schema == oracle[name].schema
        assert engine_result[name].code_rows == oracle[name].code_rows


# -- stratification -----------------------------------------------------------------


class TestStratification:
    def test_single_recursive_stratum(self):
        program = parse_program(TC_TEXT)
        strata = program.stratify()
        assert [s.predicates for s in strata] == [("path",)]
        assert strata[0].recursive
        assert strata[0].depends_on == ("edge",)
        assert program.edb_predicates == ("edge",)
        assert program.idb_predicates == ("path",)

    def test_negation_splits_strata(self):
        program = parse_program(NEG_TEXT)
        strata = program.stratify()
        assert [s.predicates for s in strata] == [("path",), ("unreach",)]
        assert not strata[1].recursive
        assert strata[1].depends_on == ("node", "path")

    def test_mutual_recursion_is_one_stratum(self):
        program = parse_program(
            """
            a_to(x,y) :- edge(x,y).
            a_to(x,z) :- b_to(x,y), edge(y,z).
            b_to(x,y) :- a_to(x,y).
            """
        )
        strata = program.stratify()
        assert [s.predicates for s in strata] == [("a_to", "b_to")]
        assert strata[0].recursive

    def test_negative_cycle_rejected(self):
        program = parse_program(
            """
            p(x) :- q(x), !p2(x).
            p2(x) :- p(x).
            """
        )
        with pytest.raises(DatalogError, match="not stratifiable"):
            program.stratify()

    def test_negation_on_lower_stratum_accepted(self):
        program = parse_program(NEG_TEXT)
        assert len(program.stratify()) == 2  # no error

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(DatalogError, match="unsafe"):
            DatalogRule(Atom("p", ("x", "y")), (Atom("q", ("x",)),))

    def test_unsafe_negated_variable_rejected(self):
        with pytest.raises(DatalogError, match="unsafe"):
            DatalogRule(
                Atom("p", ("x",)),
                (Atom("q", ("x",)),),
                (Atom("r", ("x", "y")),),
            )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DatalogError, match="arit"):
            parse_program(
                """
                p(x,y) :- q(x,y).
                p(x,y) :- q(x,y,z), r(z).
                """
            )

    def test_rule_without_positive_body_rejected(self):
        with pytest.raises(DatalogError, match="positive body"):
            DatalogRule(Atom("p", ("x",)), (), (Atom("q", ("x",)),))

    def test_duplicate_rules_collapse(self):
        once = parse_program(TC_TEXT)
        twice = parse_program(TC_TEXT + "\npath(x,y) :- edge(x,y).")
        assert once.rules == twice.rules
        database = edge_database([(1, 2), (2, 3)])
        with DatalogEngine(twice) as engine:
            result = engine.execute(database)
            assert_fixpoint_matches_naive(result, twice, database)


# -- fixpoint mechanics ---------------------------------------------------------------


class TestFixpointMechanics:
    def test_empty_edb_terminates_with_no_rounds(self):
        program = parse_program(TC_TEXT)
        database = edge_database([])
        with DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert len(result["path"]) == 0
            # Round 0 derives nothing, so no delta round ever runs.
            assert engine.stats.rounds == 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_insert_only_rounds_build_no_negative_relation(
        self, monkeypatch, workers
    ):
        """Rounds are insert-only, so the shared term builder never splits
        out a (empty) negative-sign delta relation."""
        signs = []
        relation = SignedDelta.relation

        def spy(delta, sign, name):
            signs.append(sign)
            return relation(delta, sign, name)

        monkeypatch.setattr(SignedDelta, "relation", spy)
        program = parse_program(TC_BOTH_TEXT)
        edges = random_edges(random.Random(stable_seed("no-negative")), 40, 14)
        with DatalogEngine(program, workers=workers) as engine:
            engine.execute(edge_database(edges))
            engine.insert("edge", [(90, 91), (91, 92)])
            engine.refresh()
            assert engine.stats.delta_terms > 0
        assert signs and set(signs) == {1}

    def test_zero_fresh_round_terminates_immediately(self):
        program = parse_program(TC_TEXT)
        database = edge_database([(1, 2)])
        with DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert sorted(result["path"]) == [(1, 2)]
            # Round 1 fires the delta terms, derives nothing new, stops.
            assert engine.stats.rounds == 1

    def test_round_count_tracks_derivation_depth(self):
        program = parse_program(TC_TEXT)
        chain = [(i, i + 1) for i in range(8)]
        with DatalogEngine(program) as engine:
            engine.execute(edge_database(chain))
            # Left-linear TC on a length-8 chain: paths of length 2^k
            # arrive at round k... with semi-naive over the *delta* the
            # depth is linear: one extra hop per round, plus the final
            # empty round.  Either way it is bounded by the chain length.
            assert 1 <= engine.stats.rounds <= len(chain) + 1

    def test_derived_rows_counted_once(self):
        program = parse_program(TC_TEXT)
        edges = [(1, 2), (2, 3), (3, 1)]
        with DatalogEngine(program) as engine:
            result = engine.execute(edge_database(edges))
            assert engine.stats.derived_rows == len(result["path"])

    def test_store_shares_schema_aligned_binding(self):
        store = PredicateStore()
        store.adopt(Relation.from_pairs("edge", "src", "dst", [(1, 2)]))
        shared = store.register(Atom("edge", ("src", "dst")))
        renamed = store.register(Atom("edge", ("mid", "dst")))
        assert shared is store.versioned("edge")
        assert renamed is not store.versioned("edge")
        assert renamed.schema == ("mid", "dst")


# -- bit-identity: semi-naive == naive ------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_matches_naive_every_driver_and_backend(self, driver, backend):
        rng = random.Random(stable_seed(f"tc-{driver}-{backend}"))
        database = edge_database(random_edges(rng, 60, domain=18))
        program = parse_program(TC_TEXT)
        with scoped_backend(backend), DatalogEngine(program) as engine:
            result = engine.execute(database, driver=driver)
            assert_fixpoint_matches_naive(result, program, database)

    @pytest.mark.parametrize("driver", ("generic", "panda"))
    def test_stratified_negation_matches_naive(self, driver):
        rng = random.Random(stable_seed(f"neg-{driver}"))
        nodes = range(12)
        database = edge_database(
            random_edges(rng, 25, domain=12), nodes=nodes
        )
        program = parse_program(NEG_TEXT)
        with DatalogEngine(program) as engine:
            result = engine.execute(database, driver=driver)
            assert_fixpoint_matches_naive(result, program, database)
            total = len(database["node"]) ** 2
            assert len(result["unreach"]) == total - len(result["path"])

    def test_mutual_recursion_matches_naive(self):
        rng = random.Random(stable_seed("mutual"))
        database = edge_database(random_edges(rng, 30, domain=12))
        program = parse_program(
            """
            a_to(x,y) :- edge(x,y).
            a_to(x,z) :- b_to(x,y), edge(y,z).
            b_to(x,y) :- a_to(x,y).
            """
        )
        with DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert_fixpoint_matches_naive(result, program, database)
            assert result["a_to"].code_rows == result["b_to"].code_rows

    def test_pooled_workers_match_serial(self):
        rng = random.Random(stable_seed("pooled"))
        edges = random_edges(rng, 50, domain=15)
        program = parse_program(TC_BOTH_TEXT)
        database = edge_database(edges)
        with DatalogEngine(program) as serial:
            expected = serial.execute(database)["path"].code_rows
            # A batch big enough to compact the edge log, then a small one:
            # the second batch's rounds meet a moved edge base.
            batches = (
                sorted(set(random_edges(rng, 150, domain=15)) - set(edges)),
                [(15, 0), (0, 15)],
            )
            maintained = []
            for batch in batches:
                serial.insert("edge", batch)
                maintained.append(serial.refresh()["path"].code_rows)
        with DatalogEngine(program, workers=2) as pooled:
            result = pooled.execute(edge_database(edges))
            assert result["path"].code_rows == expected
            assert pooled.stats.pooled_rounds >= 1
            for batch, rows in zip(batches, maintained):
                rounds = pooled.stats.pooled_rounds
                pooled.insert("edge", batch)
                assert pooled.refresh()["path"].code_rows == rows
                assert pooled.stats.pooled_rounds > rounds
            assert pooled.stats.compactions == serial.stats.compactions > 0
            assert pooled.stats.delta_terms == serial.stats.delta_terms

    @pytest.mark.parametrize("text", (TC_BOTH_TEXT, RENAMED_HEAD_TEXT),
                             ids=("both-linear", "renamed-head"))
    def test_rounds_past_the_gate_match_naive(self, text):
        """Rounds of >= 256 fresh rows: array merges and table relabeling in
        the parent and in the pool workers stay bit-identical to naive."""
        database = edge_database(chain_edges(chains=300, length=5))
        program = parse_program(text)
        oracle = evaluate_program_naive(program, database)
        assert len(oracle["path"]) == 300 * 10
        runs = {}
        for backend, workers in (
            ("interpreted", 1), ("vectorized", 1), ("vectorized", 2),
            ("interpreted", 2),
        ):
            with scoped_backend(backend), DatalogEngine(program, workers=workers) as engine:
                result = engine.execute(database)
                assert result["path"].schema == oracle["path"].schema
                assert result["path"].code_rows == oracle["path"].code_rows
                pooled = workers > 1 and text is TC_BOTH_TEXT  # two terms a round
                assert (engine.stats.pooled_rounds > 0) == pooled
                engine.insert("edge", chain_edges(chains=300, length=2, tag="n"))
                refreshed = engine.refresh()["path"]
                stats = engine.stats
                runs[backend, workers] = (
                    list(refreshed.code_rows),
                    refreshed.column_set(refreshed.schema).content_digest(),
                    (stats.rounds, stats.delta_terms, stats.derived_rows),
                )
        assert len(set(map(repr, runs.values()))) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rounds_straddling_the_gate_match_naive(self, backend, monkeypatch):
        """Rounds of 257 / 256 / 255 candidates inside one fixpoint: the
        round takes the column arm or the rows arm by its own size."""
        from repro.datalog import fixpoint

        layers = (300, 257, 256, 255, 100, 3)
        edges = [
            ((k, i % layers[k]), (k + 1, i))
            for k in range(len(layers) - 1)
            for i in range(layers[k + 1])
        ]
        database = Database((
            Relation.from_pairs("edge", "src", "dst", edges),
            Relation("start", ("v",), [((0, i),) for i in range(layers[0])]),
        ))
        program = parse_program(LAYERS_TEXT)
        seen = []
        real = fixpoint._fresh_deltas

        def counting(candidates, *rest):
            seen.extend(
                sum(len(block[0]) for block in blocks)
                for blocks in candidates.values()
            )
            return real(candidates, *rest)

        monkeypatch.setattr(fixpoint, "_fresh_deltas", counting)
        with scoped_backend(backend), DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert seen == list(layers)
            assert_fixpoint_matches_naive(result, program, database)
            stats = engine.stats
            assert (stats.rounds, stats.derived_rows) == (len(layers), sum(layers))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text", sorted(HEAD_SHAPES.values()), ids=sorted(HEAD_SHAPES))
    def test_head_shapes_past_the_gate_match_naive(self, text, backend):
        """Heads that permute and project the body's variables, each column
        re-coded into the schema attribute's dictionary."""
        database = edge_database(chain_edges(chains=280, length=4))
        program = parse_program(text)
        with scoped_backend(backend), DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert engine.stats.derived_rows >= 2 * 256
            assert_fixpoint_matches_naive(result, program, database)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negation_past_the_gate_matches_naive(self, backend):
        """1 600 ``unreach`` candidates filtered against 780 paths."""
        edges = chain_edges(chains=260, length=3)
        nodes = sorted({v for edge in edges for v in edge})[:40]
        database = edge_database(edges, nodes=nodes)
        program = parse_program(NEG_TEXT)
        with scoped_backend(backend), DatalogEngine(program) as engine:
            result = engine.execute(database)
            assert_fixpoint_matches_naive(result, program, database)
            assert len(result["path"]) == 260 * 3
            assert 0 < len(result["unreach"]) < 40 * 40

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_body_atom_sharing_one_stored_attribute(self, backend):
        """``edge`` stored as (x, w), read as ``edge(x,y)`` / ``edge(y,z)``:
        one column keeps its dictionary, the other is re-coded, past the gate."""
        database = Database(
            (Relation.from_pairs("edge", "x", "w", chain_edges(300, 3)),)
        )
        program = parse_program(TC_TEXT)
        with scoped_backend(backend), DatalogEngine(program) as engine:
            result = engine.execute(database)["path"]
            oracle = evaluate_program_naive(program, database)["path"]
        assert len(result) == 300 * 3
        assert result.code_rows == oracle.code_rows

    def test_dictionaries_intern_identically_on_both_backends(self):
        """25 rounds of >= 256 rows each: every attribute's dictionary ends
        list-equal whichever arm translated the deltas."""
        from repro.relational.columns import Dictionary

        program = parse_program(RENAMED_HEAD_TEXT)
        saved = dict(Dictionary._registry)
        seen = []
        try:
            for backend in BACKENDS:
                Dictionary.reset_registry()
                database = edge_database(chain_edges(chains=260, length=26))
                with scoped_backend(backend), DatalogEngine(program) as engine:
                    rows = engine.execute(database)["path"].code_rows
                    assert engine.stats.rounds == 25
                seen.append(
                    (
                        {
                            name: list(dictionary.values)
                            for name, dictionary in sorted(
                                Dictionary._registry.items()
                            )
                        },
                        rows,
                    )
                )
        finally:
            Dictionary._registry.clear()
            Dictionary._registry.update(saved)
        assert len(seen[0][1]) == 260 * (25 * 26 // 2)
        assert sorted(seen[0][0]) == ["a", "b", "c", "dst", "src", "x", "y"]
        assert seen[0] == seen[1]

    def test_rounds_stay_on_columns(self, request):
        """Past the gate nothing between join output and the next delta is a
        row list: a warm ``recompute()`` transposes no version and no delta,
        and neither does the ``refresh()`` of a one-edge insert behind it —
        a small round probes and splices the columns-only versions as they
        are, and no set of the 19 800 derived rows is rebuilt first.  (The
        ledger's right-linear program: under ``TC_TEXT`` the seeded term
        wants ``path`` sorted (y, x), and a non-canonical order is still
        built from row tuples — ROADMAP open item 1a.)"""
        from repro.relational.backend import have_numpy

        if not have_numpy():
            pytest.skip("the column arm needs numpy")
        edges = chain_edges(chains=300, length=12)
        bridge = ("c0_11", "c1_0")
        program = parse_program(
            "path(x,y) :- edge(x,y). path(x,z) :- edge(x,y), path(y,z)."
        )
        expected = evaluate_program_naive(program, edge_database(edges))["path"]
        bridged = evaluate_program_naive(program, edge_database(edges + [bridge]))
        bridged = bridged["path"]
        wanted = [
            [bytes(column) for column in relation.column_set(relation.schema).columns]
            for relation in (expected, bridged)
        ]
        with scoped_backend("vectorized"), DatalogEngine(program) as engine:
            engine.execute(edge_database(edges))
            request.getfixturevalue("no_row_transpose")
            path = engine.recompute()["path"]
            canonical = path.column_set(path.schema)
            assert canonical._rows is None and len(path) == 300 * 66
            assert [bytes(column) for column in canonical.columns] == wanted[0]
            engine.insert("edge", [bridge])
            path = engine.refresh()["path"]
            assert engine.stats.continuations == 1
            assert len(path) == 300 * 66 + 12 * 12
            canonical = path.column_set(path.schema)
            assert [bytes(column) for column in canonical.columns] == wanted[1]

    def test_low_level_run_stratum_matches_naive(self):
        """The library path (no engine, no planner) holds the contract too."""
        rng = random.Random(stable_seed("lowlevel"))
        database = edge_database(random_edges(rng, 40, domain=14))
        program = parse_program(TC_TEXT)
        store = PredicateStore()
        store.adopt(database["edge"])
        store.adopt(Relation.from_codes("path", program.schema("path"), []))
        for rule in program.rules:
            for atom in rule.body + rule.negated:
                store.register(atom)
        stats = FixpointStats()
        for stratum in program.stratify():
            run_stratum(stratum, program, store, stats)
        oracle = evaluate_program_naive(program, database)
        assert store.relation("path").code_rows == oracle["path"].code_rows


# -- incremental maintenance ----------------------------------------------------------


class TestIncrementalMaintenance:
    @pytest.mark.parametrize("driver", ("generic", "panda"))
    def test_insert_refresh_continues_and_matches(self, driver):
        program = parse_program(TC_TEXT)
        edges = [(1, 2), (2, 3), (3, 4)]
        with DatalogEngine(program) as engine:
            engine.execute(edge_database(edges), driver=driver)
            engine.insert("edge", [(4, 5), (5, 1)])
            result = engine.refresh(driver=driver)
            updated = edge_database(edges + [(4, 5), (5, 1)])
            assert_fixpoint_matches_naive(result, program, updated)
            assert engine.stats.continuations == 1
            assert engine.stats.recomputes == 0

    def test_delete_refresh_recomputes_and_matches(self):
        program = parse_program(TC_TEXT)
        edges = [(1, 2), (2, 3), (3, 4), (2, 4)]
        with DatalogEngine(program) as engine:
            engine.execute(edge_database(edges))
            engine.delete("edge", [(2, 3)])
            result = engine.refresh()
            updated = edge_database([(1, 2), (3, 4), (2, 4)])
            assert_fixpoint_matches_naive(result, program, updated)
            assert engine.stats.recomputes == 1
            assert engine.stats.continuations == 0

    def test_insert_with_negation_downstream_recomputes(self):
        """Insert-only batches still recompute when negation is affected."""
        program = parse_program(NEG_TEXT)
        database = edge_database([(1, 2)], nodes=range(4))
        with DatalogEngine(program) as engine:
            engine.execute(database)
            engine.insert("edge", [(2, 3)])
            result = engine.refresh()
            updated = edge_database([(1, 2), (2, 3)], nodes=range(4))
            assert_fixpoint_matches_naive(result, program, updated)
            assert engine.stats.recomputes == 1

    def test_unaffected_strata_are_not_rerun(self):
        program = parse_program(
            """
            path(x,y) :- edge(x,y).
            path(x,z) :- path(x,y), edge(y,z).
            friends(x,y) :- likes(x,y), likes(y,x).
            """
        )
        database = Database((
            Relation.from_pairs("edge", "src", "dst", [(1, 2)]),
            Relation.from_pairs("likes", "src", "dst", [(7, 8), (8, 7)]),
        ))
        with DatalogEngine(program) as engine:
            engine.execute(database)
            runs_before = engine.stats.strata
            engine.insert("edge", [(2, 3)])
            engine.refresh()
            # Only the path stratum re-ran: one extra stratum run, not two.
            assert engine.stats.strata == runs_before + 1

    def test_randomized_batches_stay_bit_identical(self):
        rng = random.Random(stable_seed("datalog-batches"))
        program = parse_program(TC_BOTH_TEXT)
        edges = set(random_edges(rng, 40, domain=14))
        expected_batches = 0
        pooled_at_compaction = None
        with DatalogEngine(program, workers=2) as engine:
            engine.execute(edge_database(edges))
            # The 150-draw batch overflows the edge log: a compaction with
            # pooled rounds on both sides of it.
            for draws in (6, 6, 6, 6, 6, 150, 6):
                inserts = random_edges(rng, draws, domain=14) - edges
                deletes = (
                    set(rng.sample(sorted(edges), 3))
                    if rng.random() < 0.5 and len(edges) >= 3
                    else set()
                )
                edges = (edges | inserts) - deletes
                engine.insert("edge", sorted(inserts))
                engine.delete("edge", sorted(deletes))
                expected_batches += bool(inserts or deletes)
                result = engine.refresh()
                assert_fixpoint_matches_naive(
                    result, program, edge_database(edges)
                )
                if pooled_at_compaction is None and engine.stats.compactions:
                    pooled_at_compaction = engine.stats.pooled_rounds
            assert engine.stats.batches == expected_batches > 0
            assert 0 < pooled_at_compaction < engine.stats.pooled_rounds

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("guard", ([()], []))
    def test_nullary_guard_is_boolean(self, guard, workers):
        """A positive nullary atom guards its rule: ``on = {()}`` keeps every
        binding, ``on = ∅`` none — at round 0, on recompute, and across an
        insert and a delete of ``()``."""
        program = parse_program(
            """
            path(x,y) :- edge(x,y), on().
            path(x,z) :- path(x,y), edge(y,z), on().
            """
        )
        edges = [(1, 2), (2, 3), (3, 4)]

        def database(on):
            return Database((
                Relation.from_pairs("edge", "src", "dst", edges),
                Relation("on", (), on),
            ))

        with DatalogEngine(program, workers=workers) as engine:
            result = engine.execute(database(guard))
            assert_fixpoint_matches_naive(result, program, database(guard))
            assert len(result["path"]) == (6 if guard else 0)
            assert_fixpoint_matches_naive(
                engine.recompute(), program, database(guard)
            )
            for change in ("delete", "insert") if guard else ("insert", "delete"):
                getattr(engine, change)("on", [()])
                on = [()] if change == "insert" else []
                assert_fixpoint_matches_naive(
                    engine.refresh(), program, database(on)
                )
                assert_fixpoint_matches_naive(
                    engine.recompute(), program, database(on)
                )

    def test_failed_batch_leaves_state_intact(self):
        program = parse_program(TC_TEXT)
        with DatalogEngine(program) as engine:
            first = engine.execute(edge_database([(1, 2)]))
            before = first["path"].code_rows
            engine.delete("edge", [(9, 9)])  # never inserted
            with pytest.raises(DeltaError):
                engine.refresh()
            engine.discard_pending()
            assert engine.refresh()["path"].code_rows == before


# -- annotated results ---------------------------------------------------------------


class TestAnnotated:
    @pytest.mark.parametrize(
        "semiring", (COUNTING, FRACTION), ids=("counting", "fraction")
    )
    def test_annotated_fixpoint_matches_naive(self, semiring):
        rng = random.Random(stable_seed("annotated"))
        database = edge_database(random_edges(rng, 30, domain=10))
        program = parse_program(TC_TEXT)
        with DatalogEngine(program) as engine:
            engine.execute(database)
            lifted = engine.annotated("path", semiring)
            oracle = AnnotatedRelation.from_relation(
                evaluate_program_naive(program, database)["path"], semiring
            )
            assert lifted == oracle

    def test_annotated_requires_fixpoint_and_idb(self):
        program = parse_program(TC_TEXT)
        with DatalogEngine(program) as engine:
            engine.bind(edge_database([(1, 2)]))
            with pytest.raises(IncrementalError, match="no fixpoint"):
                engine.annotated("path", COUNTING)
            engine.execute(None)
            with pytest.raises(DatalogError, match="not a derived"):
                engine.annotated("edge", COUNTING)


# -- planner caching -----------------------------------------------------------------


class TestPlannerCaching:
    def test_rule_plans_cached_across_recomputes(self):
        program = parse_program(
            """
            two_hop(x,z) :- edge(x,y), link(y,z).
            triangle(x,y,z) :- edge(x,y), link(y,z), edge(z,x).
            """
        )
        rng = random.Random(stable_seed("planner"))
        database = Database((
            Relation.from_pairs(
                "edge", "src", "dst", sorted(random_edges(rng, 40, 12))
            ),
            Relation.from_pairs(
                "link", "src", "dst", sorted(random_edges(rng, 40, 12))
            ),
        ))
        with DatalogEngine(program) as engine:
            engine.execute(database, driver="panda")
            misses = engine.cache_stats.misses
            assert misses > 0  # the rule bodies planned at least once
            for _ in range(3):
                engine.recompute(driver="panda")
            # Plans were built exactly once per rule isomorphism class.
            assert engine.cache_stats.misses == misses
            hits = engine.cache_stats.hits
            # A second engine on the shared planner re-plans nothing:
            # round-0 evaluations are pure cache hits.
            with DatalogEngine(program, planner=engine.planner) as second:
                second.execute(database, driver="panda")
                assert second.cache_stats.misses == misses
                assert second.cache_stats.hits > hits

    def test_growth_within_a_power_of_two_keeps_plans(self):
        program = parse_program(TC_TEXT)
        with DatalogEngine(program) as engine:
            # edge: 3 rows pins 4; path: chain TC = 6 rows pins 8.
            engine.execute(
                edge_database([(1, 2), (2, 3), (3, 4)]), driver="panda"
            )
            replans = engine.stats.replans
            # Disconnected edge: edge 4 <= 4, path 7 <= 8 — both pinned.
            engine.insert("edge", [(9, 10)])
            engine.refresh(driver="panda")
            engine.recompute(driver="panda")  # round 0 re-pins iff stale
            assert engine.stats.replans == replans


# -- engine API edges ----------------------------------------------------------------


class TestEngineApi:
    def test_program_text_accepted_directly(self):
        with DatalogEngine(TC_TEXT) as engine:
            result = engine.execute(edge_database([(1, 2), (2, 3)]))
            assert sorted(result["path"]) == [(1, 2), (1, 3), (2, 3)]

    def test_unknown_driver_rejected(self):
        with DatalogEngine(TC_TEXT) as engine:
            with pytest.raises(QueryError, match="unknown driver"):
                engine.execute(edge_database([(1, 2)]), driver="turbo")

    def test_changes_to_derived_predicates_rejected(self):
        with DatalogEngine(TC_TEXT) as engine:
            engine.execute(edge_database([(1, 2)]))
            with pytest.raises(IncrementalError, match="EDB"):
                engine.insert("path", [(4, 5)])
            with pytest.raises(IncrementalError, match="EDB"):
                engine.delete("nope", [(4, 5)])

    def test_missing_base_relation_rejected(self):
        with DatalogEngine(TC_TEXT) as engine:
            with pytest.raises(DatalogError, match="missing"):
                engine.execute(Database(()))

    def test_wrong_base_arity_rejected(self):
        with DatalogEngine(TC_TEXT) as engine:
            bad = Database((Relation("edge", ("a",), [(1,)]),))
            with pytest.raises(DatalogError, match="arity"):
                engine.execute(bad)

    def test_derived_name_collision_rejected(self):
        database = Database((
            Relation.from_pairs("edge", "src", "dst", [(1, 2)]),
            Relation.from_pairs("path", "src", "dst", [(8, 9)]),
        ))
        with DatalogEngine(TC_TEXT) as engine:
            with pytest.raises(DatalogError, match="already"):
                engine.execute(database)

    def test_unbound_engine_requires_execute(self):
        engine = DatalogEngine(TC_TEXT)
        with pytest.raises(IncrementalError, match="not bound"):
            engine.refresh()
        with pytest.raises(IncrementalError, match="not bound"):
            engine.insert("edge", [(1, 2)])

    def test_result_rejects_unknown_predicate(self):
        with DatalogEngine(TC_TEXT) as engine:
            result = engine.execute(edge_database([(1, 2)]))
            assert "path" in result
            assert result.names == ("path",)
            with pytest.raises(DatalogError, match="not a derived"):
                result["edge"]

    def test_rebinding_a_new_database_resets(self):
        with DatalogEngine(TC_TEXT) as engine:
            first = engine.execute(edge_database([(1, 2), (2, 3)]))
            assert len(first["path"]) == 3
            second = engine.execute(edge_database([(5, 6)]))
            assert sorted(second["path"]) == [(5, 6)]


# -- program parsing -----------------------------------------------------------------


class TestProgramParsing:
    def test_comments_and_trailing_period_optional(self):
        program = parse_program(
            """
            # hash comment
            path(x,y) :- edge(x,y).  % trailing comment
            % percent comment
            path(x,z) :- path(x,y), edge(y,z)
            """
        )
        assert len(program.rules) == 2

    def test_both_negation_spellings(self):
        program = parse_program(
            """
            p(x) :- q(x), !r(x).
            s(x) :- q(x), not r(x).
            """
        )
        assert all(rule.negated[0].name == "r" for rule in program.rules)

    def test_empty_program_rejected(self):
        with pytest.raises(DatalogError, match="no rules"):
            parse_program("# only comments\n")

    def test_missing_arrow_rejected(self):
        with pytest.raises(QueryError):
            parse_program("path(x,y)")

    def test_multiple_head_atoms_rejected(self):
        with pytest.raises(DatalogError, match="one head"):
            parse_program("p(x), q(x) :- r(x).")

    def test_program_str_round_trips(self):
        program = parse_program(NEG_TEXT)
        assert parse_program(str(program)).rules == program.rules


# -- CLI ---------------------------------------------------------------------------


class TestDatalogCli:
    def test_datalog_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "edge.csv").write_text(
            "src,dst\na,b\nb,c\n", encoding="utf-8"
        )
        (tmp_path / "tc.dl").write_text(TC_TEXT, encoding="utf-8")
        (tmp_path / "changes").mkdir()
        (tmp_path / "changes" / "edge.changes.csv").write_text(
            "op,src,dst\n+,c,d\n", encoding="utf-8"
        )
        code = main([
            "datalog",
            "--program", str(tmp_path / "tc.dl"),
            "--data", str(tmp_path / "data"),
            "--changes", str(tmp_path / "changes"),
            "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixpoint in" in out
        assert "path: 6 tuples" in out  # a,b,c,d chain: 3+2+1
        assert "continuation(s)" in out

    def test_datalog_command_writes_csv(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "edge.csv").write_text(
            "src,dst\na,b\n", encoding="utf-8"
        )
        (tmp_path / "tc.dl").write_text(TC_TEXT, encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "datalog",
            "--program", str(tmp_path / "tc.dl"),
            "--data", str(tmp_path / "data"),
            "--out", str(out_dir),
        ])
        assert code == 0
        written = (out_dir / "path.csv").read_text(encoding="utf-8")
        # The header is path's canonical schema: its first head occurrence.
        assert written.splitlines()[0] == "x,y"
        assert "a,b" in written
