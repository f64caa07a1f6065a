"""Bit-identity and selection tests for the vectorized execution backend.

The contract under test (ROADMAP Architecture layer 9): the numpy block
executor in :mod:`repro.relational.vectorized` is a drop-in for the
interpreted driver — same sorted code rows, same ``tuples_emitted`` — across
every layer that executes joins: the raw WCOJ kernels, the planner drivers,
the partition-parallel pool, the incremental view maintenance, and the FAQ
semiring aggregates over maintained supports.  A numpy-less install must
degrade to the interpreted driver silently, never fail.
"""

import random

import pytest

from _helpers import stable_seed

from repro.core.query_plans import DRIVERS
from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import QueryError
from repro.faq.semiring import BOOLEAN, COUNTING, FRACTION, MAX_PRODUCT, MIN_PLUS
from repro.incremental import IncrementalQueryEngine
from repro.parallel.engine import _order_tables
from repro.parallel.partition import plan_shards, slice_bounds
from repro.parallel.pool import pack_column_range
from repro.planner import QueryEngine
from repro.relational import (
    Database,
    Relation,
    generic_join,
    leapfrog_triejoin,
    scoped_work_counter,
)
from repro.relational import backend as backend_module
from repro.relational.backend import (
    BACKENDS,
    current_backend,
    have_numpy,
    resolve_backend,
    scoped_backend,
)
from repro.relational.columns import ColumnSet
from repro.relational.execution import delta_root_ranges

requires_numpy = pytest.mark.skipif(
    not have_numpy(), reason="the vectorized backend needs numpy"
)

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

SEMIRINGS = [BOOLEAN, COUNTING, FRACTION, MIN_PLUS, MAX_PRODUCT]


def make_query(name):
    atoms = tuple(Atom(rel, attrs) for rel, attrs in QUERIES[name])
    return ConjunctiveQuery.full(atoms, name=name)


def random_rows(rng, n, domain=30):
    return {(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)}


def make_database(query, rng, size=120, domain=30):
    return Database(
        [
            Relation(atom.name, atom.variables, random_rows(rng, size, domain))
            for atom in query.body
        ]
    )


def make_relations(query, rng, size=120, domain=30):
    database = make_database(query, rng, size, domain)
    return [atom.bind(database) for atom in query.body]


#: Code-domain instances for the level-0 offsets index: a binary and a
#: ternary schema, each with every relation's first attribute probed.
INDEX_QUERIES = {
    "binary": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
    "ternary": [("U", ("A", "B", "C")), ("V", ("A", "C", "D")), ("W", ("B", "D"))],
}


def index_relations(query_name, shape, rng):
    """Seeded code relations with a hub on every first attribute (so
    ``plan_shards`` sub-splits it): ``dense`` codes pass the index's density
    gate, ``sparse`` ones (spaced 10^6 apart) fail it."""
    stride = 10**6 if shape == "sparse" else 1
    relations = []
    for position, (name, schema) in enumerate(INDEX_QUERIES[query_name]):
        if shape == "one_row":
            rows = [(0,) * len(schema)]
        elif shape == "empty" and position == 1:
            rows = []
        else:
            rows = {
                (0 if rng.random() < 0.5 else rng.randrange(100),)
                + tuple(rng.randrange(100) for _ in schema[1:])
                for _ in range(300)
            }
        codes = [tuple(stride * code for code in row) for row in rows]
        relations.append(Relation.from_codes(name, schema, codes))
    return relations


def index_root_ranges(relations, order, ranges, rng):
    """The ``root_ranges`` variants one instance is joined under."""
    if ranges == "whole":
        return [None]
    if ranges == "delta":
        delta = relations[0]
        relations[0] = Relation.from_codes(
            delta.name, delta.schema, rng.sample(delta.code_rows, min(5, len(delta)))
        )
        return [delta_root_ranges(relations, order, 0)]
    tables = _order_tables(relations, order)
    specs = plan_shards(tables, order, 4)
    if len(relations[0]) > 1 and len(relations[1]):
        assert any(spec.is_heavy for spec in specs)  # cuts inside the hub's run
    return [[slice_bounds(table, order, spec) for table in tables] for spec in specs]


#: ``_DENSE_CODE_FACTOR`` values that force each arm of ``membership_mask``:
#: 0 fails every density check (the ``searchsorted`` arm); 2**40 passes every
#: one a test-sized key range can reach (the bit-table arm).
MEMBERSHIP_ARMS = {"search": 0, "bit_table": 2**40}


def spy_bit_tables(patch):
    """The list that collects each bit table ``membership_mask`` builds."""
    from repro.relational import vectorized

    built = []
    build = vectorized._bit_table_mask
    patch.setattr(
        vectorized, "_bit_table_mask", lambda *args: built.append(args) or build(*args)
    )
    return built


@pytest.fixture(params=sorted(MEMBERSHIP_ARMS))
def membership_arm(request, monkeypatch):
    """``(arm, built)``: the density gate forced to ``arm``, and
    :func:`spy_bit_tables`' list."""
    from repro.relational import vectorized

    monkeypatch.setattr(vectorized, "_DENSE_CODE_FACTOR", MEMBERSHIP_ARMS[request.param])
    return request.param, spy_bit_tables(monkeypatch)


def level0_index(relation, order):
    attrs = tuple(v for v in order if v in relation.attributes)
    return relation.column_set(attrs).np_trie_cache().get("level0_starts")


def random_batch(engine, rng, name, inserts=8, deletes=5, domain=30):
    current = set(engine.relation(name).tuples)
    engine.insert(name, random_rows(rng, inserts, domain) - current)
    pool = sorted(current)
    if len(pool) >= deletes:
        engine.delete(name, rng.sample(pool, deletes))


# -- backend selection --------------------------------------------------------------


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(QueryError):
            resolve_backend("simd")

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interpreted")
        assert resolve_backend(None) == "interpreted"
        assert current_backend() == "interpreted"

    def test_scoped_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interpreted")
        with scoped_backend("vectorized"):
            expected = "vectorized" if have_numpy() else "interpreted"
            assert current_backend() == expected
        assert current_backend() == "interpreted"

    def test_missing_numpy_degrades_to_interpreted(self, monkeypatch):
        """A vectorized request without numpy silently runs interpreted."""
        monkeypatch.setattr(backend_module, "_numpy", None)
        monkeypatch.setattr(backend_module, "_numpy_checked", True)
        assert not have_numpy()
        with scoped_backend("vectorized"):
            assert current_backend() == "interpreted"
            relations = make_relations(
                make_query("triangle"), random.Random(0), size=40, domain=12
            )
            out = generic_join(relations, ("A", "B", "C"))
            assert out.schema == ("A", "B", "C")  # executed, interpreted


# -- kernel-level bit-identity ------------------------------------------------------


@requires_numpy
class TestKernelBitIdentity:
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("join", [generic_join, leapfrog_triejoin])
    @pytest.mark.parametrize("seed", range(3))
    def test_join_rows_and_emitted_counter_match(self, query_name, join, seed):
        query = make_query(query_name)
        order = tuple(sorted(query.variable_set))
        relations = make_relations(
            query, random.Random(stable_seed("vec", query_name, seed))
        )
        with scoped_backend("interpreted"), scoped_work_counter() as counter:
            expected = join(relations, order)
            emitted = counter.tuples_emitted
        with scoped_backend("vectorized"), scoped_work_counter() as counter:
            result = join(relations, order)
            assert counter.tuples_emitted == emitted
        assert result.schema == expected.schema
        assert result.code_rows == expected.code_rows
        assert list(result.tuples) == list(expected.tuples)

    def test_empty_input_and_empty_output(self):
        empty = Relation("R", ("A", "B"), [])
        other = Relation("S", ("B", "C"), [(1, 2)])
        for relations in ([empty, other], [other, Relation("T", ("C", "A"), [])]):
            with scoped_backend("vectorized"):
                out = generic_join(relations, ("A", "B", "C"))
            assert len(out) == 0
            assert out.schema == ("A", "B", "C")


    @pytest.mark.parametrize("ranges", ["whole", "heavy_cut", "delta"])
    @pytest.mark.parametrize("shape", ["dense", "sparse", "empty", "one_row"])
    @pytest.mark.parametrize("query_name", sorted(INDEX_QUERIES))
    def test_level0_index_matches_search_path_and_interpreted(
        self, monkeypatch, query_name, shape, ranges
    ):
        """Direct addressing, the search path it replaces (density gate
        forced off) and the interpreted driver agree under every kind of
        root range — and the two numpy paths in every work counter."""
        from repro.relational import vectorized

        rng = random.Random(stable_seed("vec-index", query_name, shape, ranges))
        relations = index_relations(query_name, shape, rng)
        order = tuple(sorted({v for r in relations for v in r.schema}))

        def run(backend, root_ranges):
            with scoped_backend(backend), scoped_work_counter() as counter:
                out = generic_join(relations, order, root_ranges=root_ranges)
            return out.schema, out.code_rows, counter.as_dict()

        for root_ranges in index_root_ranges(relations, order, ranges, rng):
            direct = run("vectorized", root_ranges)
            with monkeypatch.context() as patch:
                patch.setattr(vectorized, "_DENSE_CODE_FACTOR", 0)
                assert run("vectorized", root_ranges) == direct
            expected = run("interpreted", root_ranges)
            assert direct[:2] == expected[:2]
            assert direct[2]["tuples_emitted"] == expected[2]["tuples_emitted"]
        built = [level0_index(r, order) is not None for r in relations[1:]]
        assert all(built) or shape != "dense"
        assert not any(built) or shape != "sparse"

    @pytest.mark.parametrize("seed", range(12))
    def test_membership_mask_matches_a_set_oracle(self, membership_arm, seed):
        """Sorted blocks with duplicates, unsorted probes (some past the
        block's last key, some negative): both arms answer like a set."""
        import numpy as np

        from repro.relational.vectorized import membership_mask

        rng = random.Random(stable_seed("vec-membership", seed))
        top = rng.choice([0, 62, 63, 64, 127, 128, rng.randrange(1, 5000)])
        block = sorted(rng.randrange(top + 1) for _ in range(rng.randrange(1, 300)))
        block[-1] = top
        probes = [rng.randrange(-70, top + 140) for _ in range(rng.randrange(1, 400))]
        arm, built = membership_arm
        mask = membership_mask(np.array(probes), np.array(block))
        assert mask.dtype == bool
        assert mask.tolist() == [p in set(block) for p in probes]
        assert bool(built) == (arm == "bit_table")

    @pytest.mark.parametrize(
        "block,probes",
        [
            ([], [0, 1, 5]),
            ([0, 3, 3], []),
            ([0], [0, 1, -1, 63, 64, 65]),
            *[
                ([0, top - 1, top, top], list(range(-66, top + 130)))
                for top in (62, 63, 64, 127, 128)
            ],
            ([64] * 5, list(range(0, 200))),
        ],
    )
    def test_membership_mask_edges(self, membership_arm, block, probes):
        import numpy as np

        from repro.relational.vectorized import membership_mask

        mask = membership_mask(
            np.array(probes, dtype=np.int64), np.array(block, dtype=np.int64)
        )
        assert mask.dtype == bool and len(mask) == len(probes)
        assert mask.tolist() == [p in set(block) for p in probes]
        arm, built = membership_arm
        assert bool(built) == (arm == "bit_table" and bool(block) and bool(probes))

    @pytest.mark.parametrize("spacing", [1, 7, 2**40])
    def test_membership_mask_of_packed_two_column_keys(self, membership_arm, spacing):
        """Packed two-attribute keys answer like their code tuples, also
        when codes ``2**40`` apart make :func:`pack_keys` re-rank."""
        import numpy as np

        from repro.relational.vectorized import membership_mask, pack_keys

        rng = random.Random(stable_seed("vec-membership-packed", spacing))
        codes = [i * spacing for i in range(40)]
        left = [(rng.choice(codes), rng.choice(codes)) for _ in range(500)]
        right = sorted({(rng.choice(codes), rng.choice(codes)) for _ in range(300)})
        left_key, right_key = pack_keys(
            [np.array(column, dtype=np.int64) for column in zip(*left)],
            [np.array(column, dtype=np.int64) for column in zip(*right)],
        )
        mask = membership_mask(left_key, right_key)
        assert mask.tolist() == [row in set(right) for row in left]
        arm, built = membership_arm
        assert bool(built) == (arm == "bit_table")

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("op", ["semijoin", "difference", "natural_join"])
    def test_membership_operators_match_interpreted(self, monkeypatch, op, dense):
        """Each operator's column arm equals its interpreted arm on
        two-column keys whose packed range lands on either side of the
        density gate — and the gate picks the arm it should."""
        from repro import relational

        rng = random.Random(stable_seed("vec-membership-ops", op, dense))
        spacing = 1 if dense else 997
        codes = [i * spacing for i in range(30)]
        schemas = {
            "semijoin": (("A", "B", "C"), ("C", "B", "D")),
            "difference": (("A", "B"), ("B", "A")),
            "natural_join": (("A", "B", "C"), ("C", "B", "D")),
        }[op]

        def rows(arity, count):
            out = set()
            while len(out) < count:
                out.add(tuple(rng.choice(codes) for _ in range(arity)))
            return sorted(out)

        left = rows(len(schemas[0]), 400)
        right = rows(len(schemas[1]), 300)
        built = spy_bit_tables(monkeypatch)
        outcomes = []
        for backend in ("interpreted", "vectorized"):
            with scoped_backend(backend), scoped_work_counter() as counter:
                result = getattr(relational, op)(
                    Relation.from_codes("L", schemas[0], left),
                    Relation.from_codes("R", schemas[1], right),
                )
            outcomes.append((result.schema, result.code_rows, counter.as_dict()))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][1]) > 0
        assert bool(built) == dense

    def test_candidates_outside_the_indexed_codes_are_misses(self):
        """Candidates below the probed relation's first code and past its
        last (beyond the offsets array) are misses, never index errors —
        probing at depth 0 (``A``) and at a deeper level (``B``) alike."""
        order = ("A", "B", "C")
        few = Relation.from_codes("R", ("A", "B"), [(0, 1), (15, 12), (39, 50)])
        block = [(key, c) for key in range(10, 20) for c in range(5)]
        for probed in (
            Relation.from_codes("S", ("A", "C"), block),
            Relation.from_codes("T", ("B", "C"), block),
        ):
            with scoped_backend("vectorized"):
                out = generic_join([few, probed], order)
            assert level0_index(probed, order) is not None
            assert out.code_rows == [(15, 12, c) for c in range(5)]

    def test_level0_index_lifetime(self):
        """Built once per probed column set (the level's driver needs none)
        and never inherited by a range view."""
        relations = make_relations(make_query("triangle"), random.Random(7))
        order = ("A", "B", "C")
        with scoped_backend("vectorized"):
            first = generic_join(relations, order)
            indexes = [level0_index(r, order) for r in relations]
            second = generic_join(relations, order)
        assert first.code_rows == second.code_rows
        # Level A probes one of R/T, level B probes S.
        assert sum(index is not None for index in indexes) == 2
        assert indexes[1] is not None
        for relation, index in zip(relations, indexes):
            assert level0_index(relation, order) is index
            view = relation.column_set(relation.schema).restrict_range(1, 5)
            assert "level0_starts" not in view.np_trie_cache()

    def test_columnar_shard_result_packs_like_its_rows(self):
        """What a pool worker ships for a canonical-order result: the
        column buffers are byte-identical to the re-tupled rows'."""
        relations = make_relations(make_query("triangle"), random.Random(5))
        order = ("A", "B", "C")
        with scoped_backend("vectorized"):
            out = generic_join(relations, order)
        assert len(out) > 0
        retupled = ColumnSet(order, out.code_rows, presorted=True)
        assert pack_column_range(retupled, 0, len(out)) == pack_column_range(
            out.column_set(order), 0, len(out)
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_segmented_search_strategies_agree(self, monkeypatch, side):
        import numpy as np

        from repro.relational import vectorized

        rng = random.Random(stable_seed("vec-segsearch", side))
        # Forty sorted nodes of one column; fifty probes per node, so both
        # strategies are in reach and only the threshold picks between them.
        bounds = sorted(rng.sample(range(1, 2000), 39))
        node_lo = np.array([0] + bounds)
        node_hi = np.array(bounds + [2000])
        col = np.concatenate(
            [np.sort(np.array([rng.randrange(60) for _ in range(hi - lo)]))
             for lo, hi in zip(node_lo, node_hi)]
        )
        lo = np.repeat(node_lo, 50)
        hi = np.repeat(node_hi, 50)
        probes = np.array([rng.randrange(-2, 63) for _ in range(len(lo))])
        positions = []
        for threshold in (0, 10**9):  # always grouped / always bisect-together
            monkeypatch.setattr(vectorized, "_GROUP_MIN_BATCH", threshold)
            positions.append(
                vectorized._segmented_searchsorted(col, probes, lo, hi, side=side)
            )
        assert positions[0].tolist() == positions[1].tolist()
        assert positions[0].tolist() == [
            int(l + np.searchsorted(col[l:h], v, side=side))
            for l, h, v in zip(lo, hi, probes)
        ]


# -- the leaf tuple probe -----------------------------------------------------------


def hub_code_relations(query_name, stride, rng, size=300, domain=60):
    """Code relations of ``QUERIES[query_name]`` where half the rows touch the
    hub code 0: ``stride`` 1 keeps the packed leaf keys dense (the tuple
    probe's side of the density gate), ``10**6`` spreads them past it."""
    relations = []
    for name, schema in QUERIES[query_name]:
        rows = set()
        while len(rows) < size:
            hub, other = 0, rng.randrange(domain)
            if rng.random() < 0.5:
                hub, other = rng.randrange(domain), rng.randrange(domain)
            rows.add((hub, other) if rng.random() < 0.5 else (other, hub))
        codes = [tuple(stride * code for code in row) for row in rows]
        relations.append(Relation.from_codes(name, schema, codes))
    return relations


def assert_leaf_parity(monkeypatch, relations, order, root_ranges=None):
    """The numpy join equals the interpreted one in rows and
    ``tuples_emitted``, and equals itself with the tuple probe declined — the
    ragged/bisection path — in rows and every work counter."""
    from repro.relational import vectorized

    def run(backend):
        with scoped_backend(backend), scoped_work_counter() as counter:
            out = generic_join(relations, order, root_ranges=root_ranges)
        return out.schema, out.code_rows, counter.as_dict()

    tupled = run("vectorized")
    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "_tuple_probe", lambda *args: None)
        assert run("vectorized") == tupled
    expected = run("interpreted")
    assert tupled[:2] == expected[:2]
    assert tupled[2]["tuples_emitted"] == expected[2]["tuples_emitted"]
    return tupled[1]


@requires_numpy
class TestLeafTupleProbe:
    """At the last variable a probed relation answers whole-tuple membership
    through a bit table when its packed keys are dense and its root range
    is no larger than the segments the ragged probe would gather."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("stride", [1, 10**6])
    @pytest.mark.parametrize("query_name", ["triangle", "four_cycle"])
    def test_hub_skewed_cycles_on_both_sides_of_the_gate(
        self, monkeypatch, membership_arms, query_name, stride, seed
    ):
        rng = random.Random(stable_seed("vec-leaf-hub", query_name, stride, seed))
        relations = hub_code_relations(query_name, stride, rng)
        order = tuple(sorted({v for r in relations for v in r.schema}))
        assert assert_leaf_parity(monkeypatch, relations, order)
        if stride == 1:
            assert membership_arms["tuple"] > 0
        else:
            assert membership_arms["tuple"] == 0
            assert membership_arms["ragged"] > 0

    def test_small_frontier_fails_the_row_guard(self, monkeypatch, membership_arms):
        """A few driving rows open segments that together hold fewer rows
        than the probed relation's root range: the leaf stays ragged."""
        rng = random.Random(stable_seed("vec-leaf-rows"))
        relations = hub_code_relations("triangle", 1, rng)
        relations[0] = Relation.from_codes("R", ("A", "B"), relations[0].code_rows[:3])
        assert_leaf_parity(monkeypatch, relations, ("A", "B", "C"))
        assert membership_arms["tuple"] == 0
        assert membership_arms["ragged"] > 0

    def test_heavy_shards_cutting_a_key_run(self, monkeypatch, membership_arms):
        """Shard by shard, root ranges that cut inside the hub's ``A`` run of
        ``U(A, B, C)`` (the heavy-hitter split on ``B``) bound the tuple
        probe's rows exactly as they bound the ragged segments."""
        rng = random.Random(stable_seed("vec-leaf-shards"))
        relations = hub_code_relations("triangle", 1, rng)
        rows = {(0, rng.randrange(60), rng.randrange(60)) for _ in range(150)}
        rows |= {tuple(rng.randrange(60) for _ in "ABC") for _ in range(150)}
        relations.append(Relation.from_codes("U", ("A", "B", "C"), rows))
        order = ("A", "B", "C")
        tables = _order_tables(relations, order)
        specs = plan_shards(tables, order, 8)
        hub_run = relations[3].column_set(order).np_columns()[0].tolist().count(0)
        union = []
        for spec in specs:
            root_ranges = [slice_bounds(table, order, spec) for table in tables]
            before = membership_arms["tuple"]
            union += assert_leaf_parity(monkeypatch, relations, order, root_ranges)
            if spec.is_heavy:
                lo, hi = root_ranges[3]
                assert 0 < hi - lo < hub_run  # cuts inside the hub's run
                assert membership_arms["tuple"] > before
        assert sum(spec.is_heavy for spec in specs) > 1
        assert union == generic_join(relations, order).code_rows

    def test_relation_on_the_leaf_variable_alone(self, monkeypatch, membership_arms):
        """An empty bound prefix: the probed relation's keys are its codes.
        They are spread past the level-0 index's gate but within the bit
        table's, so the leaf takes the tuple probe and not direct addressing."""
        order = ("A", "B", "C")
        relations = [
            Relation.from_codes("R", ("A", "B"), [(a, b) for a in range(12) for b in range(8)]),
            Relation.from_codes("S", ("B", "C"), [(b, 9 * c) for b in range(8) for c in range(40)]),
            Relation.from_codes("U", ("C",), [(c,) for c in range(0, 360, 30)]),
        ]
        assert assert_leaf_parity(monkeypatch, relations, order)
        assert level0_index(relations[2], order) is None
        assert membership_arms["tuple"] > 0

    def test_candidates_past_the_probed_relation_codes(self, monkeypatch, membership_arms):
        """The shared dictionary of ``C`` grew through ``S``: the driving
        ``S`` offers leaf candidates past every ``C`` code of the probed
        ``T``, and they must miss rather than alias another ``A`` prefix."""
        suffix = stable_seed("vec-leaf-grown")
        a, b, c = (f"{name}_{suffix}" for name in "ABC")
        relations = [
            Relation("R", (a, b), [(x, y) for x in range(10) for y in range(10)]),
            Relation("T", (a, c), [(x, z) for x in range(10) for z in range(5)]),
            Relation("S", (b, c), [(y, z) for y in range(10) for z in (y % 5, 5 + y)]),
        ]
        order = (a, b, c)
        t_codes = {code for _, code in relations[1].code_rows}
        assert max(code for _, code in relations[2].code_rows) > max(t_codes)
        rows = assert_leaf_parity(monkeypatch, relations, order)
        assert len(rows) == 100 and {row[2] for row in rows} <= t_codes
        assert membership_arms["tuple"] > 0

    def test_sparse_candidates_decline_the_tuple_probe(self, monkeypatch, membership_arms):
        """The probed ``T`` is dense on its own, but candidate codes 10⁶
        past it spread the packed keys beyond the gate: the leaf declines
        before packing anything and stays ragged."""
        relations = [
            Relation.from_codes("R", ("A", "B"), [(x, y) for x in range(10) for y in range(10)]),
            Relation.from_codes("T", ("A", "C"), [(x, z) for x in range(10) for z in range(5)]),
            Relation.from_codes(
                "S", ("B", "C"), [(y, z) for y in range(10) for z in (y % 5, 10**6 + y)]
            ),
        ]
        assert len(assert_leaf_parity(monkeypatch, relations, ("A", "B", "C"))) == 100
        assert membership_arms["tuple"] == 0
        assert membership_arms["ragged"] > 0

    def test_root_range_cutting_inside_the_probed_run(self, monkeypatch, membership_arms):
        """A root range that ends inside a prefix's run of the probed
        relation: only the rows inside it are members."""
        rng = random.Random(stable_seed("vec-leaf-cut"))
        relations = hub_code_relations("triangle", 1, rng)
        order = ("A", "B", "C")
        hub_run = relations[2].column_set(("A", "C")).np_columns()[0].tolist().count(0)
        for cut in (hub_run // 4, hub_run // 2):
            root_ranges = [None, None, (0, cut)]
            before = membership_arms["tuple"]
            assert assert_leaf_parity(monkeypatch, relations, order, root_ranges)
            assert membership_arms["tuple"] > before


# -- engine-level bit-identity ------------------------------------------------------


@requires_numpy
class TestEngineBitIdentity:
    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_planner_drivers_match_across_backends(self, driver):
        query = make_query("triangle")
        order = tuple(sorted(query.variable_set))
        database = make_database(
            query, random.Random(stable_seed("vec-planner", driver))
        )
        reference = None
        for backend in BACKENDS:
            with scoped_backend(backend):
                result = QueryEngine(query).execute(database, driver=driver)
            rows = result.relation.column_set(order).rows
            if reference is None:
                reference = list(rows)
            assert list(rows) == reference, backend

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_pool_matches_across_backends(self, workers):
        query = make_query("four_cycle")
        order = tuple(sorted(query.variable_set))
        database = make_database(
            query, random.Random(stable_seed("vec-pool", workers))
        )
        oracle = generic_join(
            [atom.bind(database) for atom in query.body], order
        )
        for backend in BACKENDS:
            with scoped_backend(backend), QueryEngine(query, workers=workers) as engine:
                for driver in DRIVERS:
                    result = engine.execute(database, driver=driver)
                    assert result.relation.code_rows == oracle.code_rows, (
                        backend,
                        driver,
                    )

    @requires_numpy
    def test_degree_of_columnar_relation_stays_columnar(self, no_row_transpose):
        from array import array

        relation = Relation.from_columns(
            "X",
            ("A", "B"),
            (array("q", range(1000)), array("q", [i % 7 for i in range(1000)])),
        )
        with scoped_backend("vectorized"):
            assert relation.degree(("A", "B"), ("A",)) == 1
            assert relation.degree(("A", "B"), ()) == 1000
        assert relation.column_set(("A", "B"))._rows is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_incremental_batches_match_across_backends(self, workers):
        query = make_query("triangle")
        engines = {}
        for backend in BACKENDS:
            engine = engines[backend] = IncrementalQueryEngine(query, workers=workers)
            with scoped_backend(backend):
                engine.execute(
                    make_database(query, random.Random(stable_seed("vec-ivm")))
                )
        try:
            rng = random.Random(stable_seed("vec-ivm-batches", workers))
            for _ in range(3):
                batches = {
                    atom.name: (
                        sorted(random_rows(rng, 8)),
                        rng.sample(
                            sorted(
                                engines["interpreted"].relation(atom.name).tuples
                            ),
                            5,
                        ),
                    )
                    for atom in query.body
                }
                results = {}
                for backend, engine in engines.items():
                    for name, (inserts, deletes) in batches.items():
                        current = set(engine.relation(name).tuples)
                        engine.insert(name, set(inserts) - current)
                        engine.delete(name, deletes)
                    with scoped_backend(backend):
                        results[backend] = engine.refresh().relation.code_rows
                        # A level-0 index left over from a superseded version
                        # would make the maintained view drift from a
                        # recompute.
                        recomputed = engine.recompute().relation.code_rows
                    assert results[backend] == recomputed
                assert results["vectorized"] == results["interpreted"]
        finally:
            for engine in engines.values():
                engine.close()


# -- one backend context ------------------------------------------------------------


@pytest.fixture
def numpy_kernel_calls(monkeypatch):
    """Record every call of the numpy join and key packer, from any thread."""
    from repro.relational import vectorized

    calls = []
    for name in ("vectorized_execute_join", "pack_keys"):
        real = getattr(vectorized, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(vectorized, name, spy)
    return calls


TC_PROGRAM = "path(x,y) :- edge(x,y). path(x,z) :- edge(x,y), path(y,z)."


@requires_numpy
class TestOneBackendContext:
    """The caller's ``scoped_backend`` is the one switch: under
    ``"interpreted"`` no engine, refresh, fixpoint or serving thread runs a
    numpy kernel, and every answer equals the ``"vectorized"`` one."""

    @staticmethod
    def on_both_backends(calls, scenario):
        with scoped_backend("vectorized"):
            expected = scenario()
        assert calls, "the scenario never reaches the numpy arm"
        calls.clear()
        with scoped_backend("interpreted"):
            got = scenario()
        assert calls == []
        assert got == expected

    @pytest.mark.parametrize("driver", ["generic", "dasubw"])
    def test_query_engine(self, numpy_kernel_calls, driver):
        query = make_query("triangle")
        database = make_database(query, random.Random(stable_seed("one-ctx")))

        def scenario():
            return QueryEngine(query).execute(database, driver).relation.code_rows

        self.on_both_backends(numpy_kernel_calls, scenario)

    def test_incremental_refresh_past_the_gate(self, numpy_kernel_calls):
        query = make_query("triangle")

        def scenario():
            rng = random.Random(stable_seed("one-ctx-ivm"))
            database = make_database(query, rng, size=400, domain=40)
            with IncrementalQueryEngine(query) as engine:
                engine.execute(database)
                current = set(engine.relation("R").tuples)
                inserts = random_rows(rng, 700, domain=40) - current
                assert len(inserts) > 256
                engine.insert("R", inserts)
                return engine.refresh().relation.code_rows

        self.on_both_backends(numpy_kernel_calls, scenario)

    def test_datalog_transitive_closure(self, numpy_kernel_calls):
        from repro.datalog import DatalogEngine, parse_program

        edges = [(f"c{c}_{i}", f"c{c}_{i + 1}") for c in range(300) for i in range(4)]
        database = Database((Relation.from_pairs("edge", "src", "dst", edges),))

        def scenario():
            with DatalogEngine(parse_program(TC_PROGRAM)) as engine:
                return engine.execute(database)["path"].code_rows

        self.on_both_backends(numpy_kernel_calls, scenario)

    def test_serving_writer_and_readers(self, numpy_kernel_calls):
        from repro.serving import ServingEngine

        query = make_query("triangle")

        def scenario():
            rng = random.Random(stable_seed("one-ctx-serve"))
            database = make_database(query, rng, size=400, domain=40)
            with ServingEngine(query, readers=2) as engine:
                engine.execute(database)
                current = set(engine.relation("R").tuples)
                inserts = random_rows(rng, 700, domain=40) - current
                receipt = engine.submit({"R": (inserts, [])}).result()
                assert receipt.changed
                served = engine.read(lambda snapshot: current_backend()).result()
                view = engine.read().result().relation.code_rows
            return served, view

        with scoped_backend("vectorized"):
            expected = scenario()
        assert expected[0] == "vectorized" and numpy_kernel_calls
        numpy_kernel_calls.clear()
        with scoped_backend("interpreted"):
            served, view = scenario()
        assert (served, numpy_kernel_calls) == ("interpreted", [])
        assert view == expected[1]

    def test_pool_ships_the_callers_backend(self, monkeypatch):
        from repro.parallel.pool import WorkerPool

        shipped = []
        real_map = WorkerPool.map

        def recording_map(pool, fn, tasks):
            tasks = list(tasks)
            shipped.extend(task[3]["execution_backend"] for task in tasks)
            return real_map(pool, fn, tasks)

        monkeypatch.setattr(WorkerPool, "map", recording_map)
        query = make_query("four_cycle")
        database = make_database(query, random.Random(stable_seed("one-ctx-pool")))
        results = {}
        for backend in BACKENDS:
            shipped.clear()
            with scoped_backend(backend), QueryEngine(query, workers=2) as engine:
                results[backend] = engine.execute(database, "generic").relation
            assert shipped and set(shipped) == {backend}
        assert results["interpreted"].code_rows == results["vectorized"].code_rows


# -- FAQ semirings over maintained supports -----------------------------------------


@requires_numpy
class TestFAQBitIdentity:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_faq_aggregates_match_across_backends(self, semiring):
        """Semiring aggregates agree whatever backend maintains the support."""
        query = make_query("triangle")
        engines = {
            backend: IncrementalQueryEngine(query, workers=1)
            for backend in BACKENDS
        }
        for backend, engine in engines.items():
            with scoped_backend(backend):
                engine.execute(
                    make_database(
                        query,
                        random.Random(stable_seed("vec-faq", semiring.name)),
                        size=60,
                        domain=15,
                    )
                )
        try:
            rng = random.Random(stable_seed("vec-faq-batches", semiring.name))
            for _ in range(2):
                batches = {
                    atom.name: (
                        sorted(random_rows(rng, 6, domain=15)),
                        rng.sample(
                            sorted(
                                engines["interpreted"].relation(atom.name).tuples
                            ),
                            4,
                        ),
                    )
                    for atom in query.body
                }
                scalars = {}
                for backend, engine in engines.items():
                    for name, (inserts, deletes) in batches.items():
                        current = set(engine.relation(name).tuples)
                        engine.insert(name, set(inserts) - current)
                        engine.delete(name, deletes)
                    with scoped_backend(backend):
                        engine.refresh()
                        scalars[backend] = engine.faq(semiring).scalar()
                assert scalars["vectorized"] == scalars["interpreted"]
        finally:
            for engine in engines.values():
                engine.close()
