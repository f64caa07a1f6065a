"""The columnar engine: dictionaries, column sets, the shared trie iterator,
scoped work counters, streaming CSV ingestion, and randomized cross-checks
asserting that every join algorithm (Generic Join, Leapfrog Triejoin, binary
plans, Yannakakis) computes identical results and that the tuple-facing
adapter API agrees with the columnar internals."""

import random

import pytest

from _helpers import stable_seed

from repro.exceptions import SchemaError
from repro.relational import (
    Database,
    Relation,
    WorkCounter,
    acyclic_join,
    binary_join_plan,
    current_counter,
    generic_join,
    join_tree_from_bags,
    leapfrog_triejoin,
    natural_join,
    project,
    scoped_work_counter,
    semijoin,
)
from repro.relational.backend import scoped_backend
from repro.relational.columns import ColumnSet, Dictionary, gallop_left
from repro.relational.io import load_relation_csv
from repro.relational.trie import SortedTrieIterator


# -- storage layer ------------------------------------------------------------------


def _codes(column) -> list:
    """A translated column (list or int64 ndarray) as a list of ints."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


class TestDictionary:
    def test_codes_dense_and_stable(self):
        d = Dictionary("test_attr_local")
        assert d.encode("x") == 0
        assert d.encode("y") == 1
        assert d.encode("x") == 0
        assert d.decode(1) == "y"
        assert len(d) == 2

    def test_shared_per_attribute(self):
        a = Dictionary.of("test_attr_shared")
        b = Dictionary.of("test_attr_shared")
        assert a is b
        code = a.encode(42)
        assert b.encode_existing(42) == code

    def test_encode_existing_miss(self):
        d = Dictionary("test_attr_miss")
        assert d.encode_existing("nope") is None

    def test_reset_registry_releases_shared_dictionaries(self):
        before = Dictionary.of("test_attr_resettable")
        before.encode("held")
        saved = dict(Dictionary._registry)
        Dictionary.reset_registry()
        try:
            after = Dictionary.of("test_attr_resettable")
            assert after is not before
            assert after.encode_existing("held") is None
            # Pre-reset consumers keep their own dictionary objects working.
            assert before.decode(before.encode_existing("held")) == "held"
        finally:
            # Restore the suite's shared dictionaries: relations built by
            # other tests must keep interoperating.
            Dictionary._registry.clear()
            Dictionary._registry.update(saved)

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_translate_interns_in_first_appearance_order(self, backend):
        """The cached table re-codes a column exactly like a per-row pass."""
        source, target = Dictionary("tr_src"), Dictionary("tr_dst")
        for value in range(600):
            source.encode(value)
        target.encode(599)  # already interned: keeps its code
        codes = [(7 * i) % 600 for i in range(600)] + [3, 3, 599]
        with scoped_backend(backend):
            out = _codes(source.translate(target, codes))
            again = _codes(source.translate(target, codes[:10]))
        replay = Dictionary("tr_replay")
        replay.encode(599)
        assert out == [replay.encode(code) for code in codes]
        assert target.values == replay.values
        assert again == out[:10]
        with scoped_backend(backend):  # identity: same type per arm, no table
            same = source.translate(source, codes)
            assert type(same) is type(source.translate(target, codes))
        assert _codes(same) == codes and source not in source._tables

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_translation_table_extends_as_the_source_grows(self, backend):
        calls = []

        class Recording(Dictionary):
            def encode(self, value):
                calls.append(value)
                return Dictionary.encode(self, value)

        source, target = Dictionary("tr_grow_src"), Recording("tr_grow_dst")
        with scoped_backend(backend):
            for value in range(300):
                source.encode(value)
            first = _codes(source.translate(target, list(range(300))))
            table = source._tables[target]
            for value in range(300, 700):
                source.encode(value)
            del calls[:]
            second = _codes(source.translate(target, list(range(700))))
        assert source._tables[target] is table  # extended, not rebuilt
        assert len(table) == 700
        assert second[:300] == first
        assert calls == list(range(300, 700))  # only the new codes encode

    def test_translation_tables_keyed_on_dictionary_identity(self):
        """A post-reset dictionary of the same name gets no stale table."""
        saved = dict(Dictionary._registry)
        try:
            old_source = Dictionary.of("tr_id_src")
            old_target = Dictionary.of("tr_id_dst")
            old_source.encode("a"), old_source.encode("b")
            assert list(old_source.translate(old_target, [1, 0])) == [0, 1]
            Dictionary.reset_registry()
            source, target = Dictionary.of("tr_id_src"), Dictionary.of("tr_id_dst")
            assert source is not old_source and not source._tables
            source.encode("b"), source.encode("a")
            target.encode("z")
            assert list(source.translate(target, [0, 1])) == [1, 2]
            assert [target.decode(c) for c in (1, 2)] == ["b", "a"]
            # The old pair still translates through its own table.
            assert list(old_source.translate(old_target, [0, 1])) == [1, 0]
            assert list(old_source._tables) == [old_target]
        finally:
            Dictionary._registry.clear()
            Dictionary._registry.update(saved)

    def test_relations_share_codes(self):
        r = Relation("R", ("shared_A", "shared_B"), [(1, 2)])
        s = Relation("S", ("shared_B", "shared_C"), [(2, 3)])
        b_in_r = r.code_rows[0][1]
        b_in_s = s.code_rows[0][0]
        assert b_in_r == b_in_s


class TestColumnSet:
    def test_sorted_and_columnar(self):
        cs = ColumnSet(("A", "B"), [(2, 1), (1, 2), (1, 1)])
        assert cs.rows == [(1, 1), (1, 2), (2, 1)]
        assert list(cs.columns[0]) == [1, 1, 2]
        assert list(cs.columns[1]) == [1, 2, 1]

    def test_distinct_prefix_count(self):
        cs = ColumnSet(("A", "B"), [(1, 1), (1, 2), (2, 1), (2, 1)])
        assert cs.distinct_prefix_count(1) == 2
        assert cs.distinct_prefix_count(2) == 3

    def test_gallop_left(self):
        from array import array

        col = array("q", [1, 3, 3, 5, 8, 13, 21])
        for code in range(0, 25):
            expected = next(
                (i for i, v in enumerate(col) if v >= code), len(col)
            )
            assert gallop_left(col, code, 0, len(col)) == expected
        # From an interior start position.
        assert gallop_left(col, 5, 2, len(col)) == 3
        assert gallop_left(col, 100, 4, 6) == 6


class TestConstructorParity:
    """Every way to build a relation stores the same thing: rows-form,
    columns-form and both-forms column sets are interchangeable."""

    @pytest.mark.parametrize("arity", range(4))
    def test_all_constructors_agree(self, arity):
        from array import array
        from itertools import permutations

        rng = random.Random(stable_seed("ctor-parity", arity))
        schema = tuple(f"cp{arity}_{i}" for i in range(arity))
        values = {
            tuple(rng.randrange(6) for _ in schema) for _ in range(rng.randrange(40))
        }
        reference = Relation("R", schema, values)
        rows = reference.code_rows
        columns = tuple(array("q", col) for col in zip(*rows))
        if len(columns) != arity:  # no rows to transpose
            columns = tuple(array("q") for _ in schema)
        built = [
            Relation.from_codes("R", schema, reversed(rows)),
            Relation.from_codes("R", schema, rows, presorted=True, distinct=True),
            Relation.from_column_set("R", ColumnSet(schema, rows, presorted=True)),
            Relation.from_column_set(
                "R", ColumnSet(schema, rows, presorted=True, columns=columns)
            ),
        ]
        if arity:
            built.append(Relation.from_columns("R", schema, columns))
            built.append(
                Relation.from_column_set("R", ColumnSet(schema, columns=columns))
            )
        for relation in built:
            assert relation == reference and hash(relation) == hash(reference)
            assert relation.code_rows == rows
            assert relation.tuples == reference.tuples == frozenset(values)
            for order in permutations(schema):
                assert (
                    relation.column_set(order).rows
                    == reference.column_set(order).rows
                )
            canonical = relation.column_set(schema)
            assert canonical.content_digest() == reference.column_set(
                schema
            ).content_digest()
            clone = relation.renamed("other")
            assert clone.name == "other" and clone == relation
            for order in permutations(schema):
                assert clone.column_set(order) is relation.column_set(order)

    def test_mismatched_forms_rejected(self):
        from array import array

        rows = [(1, 2), (3, 4)]
        short = (array("q", [1]), array("q", [2]))
        with pytest.raises(ValueError):
            ColumnSet(("A", "B"), rows, presorted=True, columns=short)
        with pytest.raises(ValueError):
            ColumnSet(("A", "B"), rows, presorted=True, columns=short[:1])
        with pytest.raises(ValueError):
            ColumnSet(("A", "B"), columns=(short[0], array("q", [2, 3])))
        with pytest.raises(ValueError):  # no rows: the row count is unknown
            ColumnSet((), columns=())
        with pytest.raises(ValueError):
            Relation.from_columns("R", (), ())
        with pytest.raises(SchemaError):
            Relation.from_columns("R", ("A", "A"), short)

    @pytest.mark.parametrize(
        "schema,rows",
        [(("rj_a", "rj_a"), [(1, 2)]), (("rj_b", "rj_c"), [(1, 2), (3,)])],
        ids=["duplicate-schema", "ragged-row"],
    )
    def test_rejected_construction_interns_nothing(self, schema, rows):
        before = [len(Dictionary.of(attr)) for attr in schema]
        with pytest.raises(SchemaError):
            Relation("R", schema, rows)
        assert [len(Dictionary.of(attr)) for attr in schema] == before

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    @pytest.mark.parametrize("nrows", (0, 255, 256, 700))
    def test_value_constructor_matches_row_wise_encode(self, backend, nrows):
        """``Relation(...)`` encodes per column; a per-row pass is the reference."""
        rng = random.Random(stable_seed("value-ctor", backend, nrows))
        schema = tuple(f"vc_{backend}_{nrows}_{i}" for i in range(3))
        values = [
            (rng.randrange(50), f"s{rng.randrange(9)}", rng.randrange(-5, 5))
            for _ in range(nrows)
        ]
        references = [Dictionary(attr) for attr in schema]
        expected = sorted(
            {tuple(d.encode(v) for d, v in zip(references, row)) for row in values}
        )
        with scoped_backend(backend):
            relation = Relation("R", schema, iter(values))
        assert relation.code_rows == expected
        assert [Dictionary.of(a).values for a in schema] == [
            d.values for d in references
        ]


class TestDecodeParity:
    """``Relation.tuples`` decodes per column; a per-row decode is the reference."""

    @staticmethod
    def per_row(relation):
        return frozenset(relation.decode_row(row) for row in relation.code_rows)

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_every_storage_form(self, tmp_path, backend):
        from repro.relational.storage import (
            LazyDictionary,
            open_database_dir,
            save_database_dir,
        )

        rng = random.Random(stable_seed("decode-parity", backend))
        schema = (f"dp_{backend}_A", f"dp_{backend}_B")
        values = {(rng.randrange(40), f"t{rng.randrange(30)}") for _ in range(600)}
        with scoped_backend(backend):
            base = Relation("R", schema, values)
            rows_born = Relation.from_codes("R", schema, base.code_rows)
            columns_born = Relation.from_columns(
                "R", schema, base.column_set(schema).columns
            )
            save_database_dir(Database([base]), tmp_path / "db")
            saved = dict(Dictionary._registry)
            try:
                Dictionary.reset_registry()
                file_backed = open_database_dir(tmp_path / "db")["R"]
                assert all(
                    isinstance(d, LazyDictionary) for d in file_backed.dictionaries
                )
                assert file_backed.tuples == frozenset(values)
                assert file_backed.tuples == self.per_row(file_backed)
            finally:
                Dictionary._registry.clear()
                Dictionary._registry.update(saved)
            nullary = [Relation("N", (), [()]), Relation("N", (), [])]
        for relation in [base, rows_born, columns_born, *nullary]:
            assert relation.tuples == self.per_row(relation)
        assert columns_born.tuples == rows_born.tuples == frozenset(values)
        assert [n.tuples for n in nullary] == [frozenset({()}), frozenset()]

    def test_csv_to_store_to_decode_transposes_no_rows(
        self, tmp_path, no_row_transpose
    ):
        from repro.relational.io import load_database_dir
        from repro.relational.storage import open_database_dir, save_database_dir

        rng = random.Random(stable_seed("csv-store-decode"))
        source = tmp_path / "csv"
        source.mkdir()
        expected = {}
        for name, header in (("R", "nt_A,nt_B"), ("S", "nt_B,nt_C")):
            rows = [(rng.randrange(90), rng.randrange(90)) for _ in range(400)]
            lines = [header] + [f"{a},{b}" for a, b in rows]
            (source / f"{name}.csv").write_text("\n".join(lines) + "\n")
            expected[name] = frozenset(rows)
        save_database_dir(load_database_dir(source), tmp_path / "db")
        reopened = open_database_dir(tmp_path / "db")
        assert {r.name: r.tuples for r in reopened} == expected


class TestSortedTrieIterator:
    def make(self, rows, attrs=("A", "B")):
        return SortedTrieIterator(ColumnSet(attrs, rows))

    def test_walk(self):
        it = self.make([(1, 2), (1, 3), (2, 2)])
        assert it.open() and it.key() == 1
        assert it.open() and it.key() == 2
        assert it.next() and it.key() == 3
        assert not it.next() and it.at_end()
        it.up()
        assert it.next() and it.key() == 2
        assert it.open() and it.key() == 2
        assert not it.next()

    def test_seek(self):
        it = self.make([(i, 0) for i in (1, 4, 6, 9)], attrs=("A", "B"))
        it.open()
        assert it.seek(4) and it.key() == 4
        assert it.seek(4) and it.key() == 4  # no-op at position
        assert it.seek(5) and it.key() == 6
        assert not it.seek(10) and it.at_end()

    def test_open_on_empty(self):
        it = self.make([])
        assert not it.open()
        assert it.at_end()

    def test_exhausted_level_does_not_poison_sibling_cache(self):
        # Regression: seek() exhausting a level leaves blo == bhi at a
        # sibling's start index; child_keys() there must not cache [] under
        # the sibling node's (depth, lo) key.
        it = SortedTrieIterator(
            ColumnSet(("A", "B", "C"), [(0, 5, 1), (1, 5, 2)])
        )
        assert it.open() and it.open()  # A=0, B=5
        assert not it.seek(9)  # exhausts the B level under A=0
        assert it.child_keys() == []  # child view of an exhausted level
        it.up()
        assert it.next() and it.key() == 1  # A=1
        assert it.open() and it.key() == 5  # B=5 (child range starts at 1)
        assert it.child_keys() == [2]
        assert it.child_key_set() == frozenset({2})

    def test_level_keys_cached(self):
        it = self.make([(1, 1), (1, 2), (3, 1), (7, 9)])
        it.open()
        keys = it.level_keys()
        assert keys == [1, 3, 7]
        assert it.level_keys() is keys  # cached per node
        assert it.key() == 1  # does not move the iterator

    def test_child_keys_and_sets(self):
        it = self.make([(1, 2), (1, 5), (3, 2)])
        assert it.child_keys() == [1, 3]  # from the root, no descent
        it.open_at(1)
        assert it.key() == 1
        assert it.child_keys() == [2, 5]
        assert it.child_key_set() == frozenset({2, 5})
        it.up()
        it.open_at(3)
        assert it.child_keys() == [2]

    @pytest.mark.parametrize("seed", range(10))
    def test_leapfrog_search_matches_set_intersection(self, seed):
        from repro.relational import leapfrog_search

        rng = random.Random(seed)
        columns = [
            sorted({rng.randrange(40) for _ in range(rng.randrange(1, 30))})
            for _ in range(rng.randrange(1, 4))
        ]
        iterators = []
        for keys in columns:
            it = SortedTrieIterator(ColumnSet(("A",), [(k,) for k in keys]))
            assert it.open()
            iterators.append(it)
        expected = set(columns[0]).intersection(*map(set, columns[1:]))
        assert list(leapfrog_search(iterators)) == sorted(expected)


# -- scoped work counters -----------------------------------------------------------


class TestScopedWorkCounter:
    def triangle(self):
        rows = [(i, (i * 7) % 5) for i in range(20)]
        return [
            Relation("R", ("A", "B"), rows),
            Relation("S", ("B", "C"), rows),
            Relation("T", ("A", "C"), rows),
        ]

    def test_scope_isolates_counts(self):
        relations = self.triangle()
        with scoped_work_counter() as ambient:
            with scoped_work_counter() as inner:
                generic_join(relations)
                assert inner.total > 0
            # Work inside the scope never leaked to the enclosing counter.
            assert ambient.total == 0

    def test_nested_scopes(self):
        relations = self.triangle()
        with scoped_work_counter() as outer:
            natural_join(relations[0], relations[1])
            outer_before = outer.total
            assert outer_before > 0
            with scoped_work_counter() as inner:
                natural_join(relations[0], relations[1])
            assert inner.total == outer_before
            assert outer.total == outer_before

    def test_current_counter_follows_scope(self):
        relations = self.triangle()
        with scoped_work_counter() as counter:
            project(relations[0], ("A",))
            assert current_counter() is counter
            assert counter.total > 0
        assert current_counter() is not counter

    def test_explicit_counter_reused(self):
        counter = WorkCounter()
        with scoped_work_counter(counter) as scoped:
            assert scoped is counter


# -- randomized cross-checks --------------------------------------------------------


def random_relation(name, attrs, n, domain, rng):
    rows = {
        tuple(rng.randrange(domain) for _ in attrs) for _ in range(n)
    }
    return Relation(name, attrs, rows)


def naive_join(relations):
    """Nested-loop oracle: decode everything, join tuple-at-a-time."""
    variables = sorted(set().union(*(r.attributes for r in relations)))
    out = [dict()]
    for relation in relations:
        new_out = []
        for binding in out:
            for row in relation:
                merged = dict(binding)
                ok = True
                for attr, value in zip(relation.schema, row):
                    if merged.get(attr, value) != value:
                        ok = False
                        break
                    merged[attr] = value
                if ok:
                    new_out.append(merged)
        out = new_out
    rows = {tuple(b[v] for v in variables) for b in out}
    return Relation("naive", tuple(variables), rows)


CYCLIC_QUERIES = [
    ("triangle", [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]),
    (
        "four_cycle",
        [
            ("R1", ("A", "B")),
            ("R2", ("B", "C")),
            ("R3", ("C", "D")),
            ("R4", ("D", "A")),
        ],
    ),
]

ACYCLIC_QUERIES = [
    ("path", [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]),
    (
        "star",
        [("R", ("A", "B")), ("S", ("A", "C")), ("T", ("A", "D"))],
    ),
]


class TestEngineCrossChecks:
    @pytest.mark.parametrize("query_name,shape", CYCLIC_QUERIES + ACYCLIC_QUERIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_all_algorithms_agree(self, query_name, shape, seed):
        rng = random.Random(stable_seed(query_name, seed))
        n = rng.randrange(0, 60)
        domain = rng.randrange(1, 8)
        relations = [
            random_relation(name, attrs, n, domain, rng)
            for name, attrs in shape
        ]
        expected = naive_join(relations)
        gj = generic_join(relations)
        lf = leapfrog_triejoin(relations)
        bj = binary_join_plan(relations)
        assert gj == expected
        assert lf == expected
        assert bj == expected

    @pytest.mark.parametrize("query_name,shape", ACYCLIC_QUERIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_yannakakis_agrees_on_acyclic(self, query_name, shape, seed):
        rng = random.Random(stable_seed("yk", query_name, seed))
        n = rng.randrange(1, 60)
        domain = rng.randrange(1, 8)
        relations = [
            random_relation(name, attrs, n, domain, rng)
            for name, attrs in shape
        ]
        tree = join_tree_from_bags(relations)
        assert acyclic_join(tree) == generic_join(relations)

    @pytest.mark.parametrize("seed", range(5))
    def test_variable_orders_agree(self, seed):
        rng = random.Random(1000 + seed)
        relations = [
            random_relation("R", ("A", "B"), 40, 6, rng),
            random_relation("S", ("B", "C"), 40, 6, rng),
            random_relation("T", ("A", "C"), 40, 6, rng),
        ]
        orders = [("A", "B", "C"), ("C", "A", "B"), ("B", "C", "A")]
        results = [generic_join(relations, order) for order in orders]
        results += [leapfrog_triejoin(relations, order) for order in orders]
        first = results[0]
        for other in results[1:]:
            assert other == first


# -- adapter vs columnar equivalence -------------------------------------------------


class TestAdapterEquivalence:
    """The tuple-facing API must agree with brute force over decoded tuples."""

    def relations(self, seed):
        rng = random.Random(seed)
        r = random_relation("R", ("A", "B", "C"), rng.randrange(0, 80), 5, rng)
        s = random_relation("S", ("B", "C", "D"), rng.randrange(0, 80), 5, rng)
        return r, s, rng

    @pytest.mark.parametrize("seed", range(6))
    def test_degree_matches_bruteforce(self, seed):
        r, _, rng = self.relations(seed)
        for x_attrs, y_attrs in [
            ((), ("A",)),
            ((), ("A", "B", "C")),
            (("A",), ("A", "B")),
            (("A", "B"), ("A", "B", "C")),
            (("C",), ("A", "B", "C")),
        ]:
            groups = {}
            for row in r.tuples:
                key = tuple(row[r.position(a)] for a in x_attrs)
                value = tuple(row[r.position(a)] for a in sorted(y_attrs))
                groups.setdefault(key, set()).add(value)
            expected = max((len(v) for v in groups.values()), default=0)
            assert r.degree(y_attrs, x_attrs) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_keys_matches_bruteforce(self, seed):
        r, _, rng = self.relations(seed)
        for attrs in [("A",), ("A", "C"), ("A", "B", "C")]:
            expected = len(
                {tuple(row[r.position(a)] for a in sorted(attrs)) for row in r.tuples}
            )
            assert r.distinct_keys(attrs) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_matches_bruteforce(self, seed):
        r, _, rng = self.relations(seed)
        p = project(r, ("A", "C"))
        expected = {
            (row[r.position("A")], row[r.position("C")]) for row in r.tuples
        }
        assert p.tuples == frozenset(expected)
        assert p.schema == ("A", "C")

    @pytest.mark.parametrize("seed", range(6))
    def test_semijoin_matches_bruteforce(self, seed):
        r, s, rng = self.relations(seed)
        out = semijoin(r, s)
        shared = ("B", "C")
        s_keys = {tuple(row[s.position(a)] for a in shared) for row in s.tuples}
        expected = {
            row
            for row in r.tuples
            if tuple(row[r.position(a)] for a in shared) in s_keys
        }
        assert out.tuples == frozenset(expected)

    def test_membership_and_iteration_decode(self):
        r = Relation("R", ("A", "B"), [("x", 1), ("y", 2)])
        assert ("x", 1) in r
        assert ("x", 2) not in r
        assert ("z", 1) not in r  # value never interned
        assert set(r) == {("x", 1), ("y", 2)}
        assert r.tuples == frozenset({("x", 1), ("y", 2)})

    def test_relabeled_translates_codes(self):
        r = Relation("R", ("src_x", "src_y"), [(1, 2), (3, 4)])
        s = r.relabeled("S", ("dst_x", "dst_y"))
        assert s.schema == ("dst_x", "dst_y")
        assert s.tuples == r.tuples
        with pytest.raises(SchemaError):
            r.relabeled("S", ("only_one",))

    def test_from_codes_roundtrip(self):
        r = Relation("R", ("A", "B"), [(5, 6), (7, 8)])
        clone = Relation.from_codes("C", r.schema, list(r.code_rows), presorted=True, distinct=True)
        assert clone == r


# -- streaming CSV ingestion ---------------------------------------------------------


class TestStreamingCsv:
    def write(self, tmp_path, text, name="rel.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_integer_coercion(self, tmp_path):
        path = self.write(tmp_path, "A,B\n1,x\n2,y\n-3,x\n")
        rel = load_relation_csv(path)
        # Column A is all canonical integers: it loads as ints.
        assert rel.tuples == frozenset({(1, "x"), (2, "y"), (-3, "x")})
        # "01" is not the text of an int, so column A stays text and "01"
        # never merges with "1".
        path = self.write(tmp_path, "A,B\n1,x\n2,y\n01,x\n")
        rel = load_relation_csv(path)
        assert rel.tuples == frozenset({("1", "x"), ("2", "y"), ("01", "x")})

    def test_mixed_column_stays_string(self, tmp_path):
        path = self.write(tmp_path, "A,B\n1,2\nx,3\n")
        rel = load_relation_csv(path)
        assert rel.tuples == frozenset({("1", 2), ("x", 3)})

    def test_ragged_row_raises(self, tmp_path):
        path = self.write(tmp_path, "A,B\n1\n")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "A,B\n")
        rel = load_relation_csv(path)
        assert len(rel) == 0 and rel.schema == ("A", "B")

    def test_roundtrip_with_save(self, tmp_path):
        from repro.relational.io import save_relation_csv

        rel = Relation("R", ("A", "B"), [(1, "x"), (2, "y")])
        path = tmp_path / "out.csv"
        save_relation_csv(rel, path)
        again = load_relation_csv(path, name="R")
        assert again == rel


class TestNonOrderableSemiringValues:
    """Sorted-run folds must never compare annotation values (regression)."""

    def test_marginalize_and_multiply_with_complex_annotations(self):
        from repro.faq.annotated import AnnotatedRelation
        from repro.faq.semiring import Semiring

        gaussian = Semiring(
            name="complex",
            zero=0j,
            one=1 + 0j,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
        )
        r = AnnotatedRelation(
            "R", ("A", "B"), gaussian, {(1, 1): 1 + 1j, (1, 2): 2 + 0j}
        )
        s = AnnotatedRelation("S", ("B", "C"), gaussian, {(1, 7): 3j, (2, 7): 1j})
        summed = r.marginalize(("A",))
        assert summed.annotation((1,)) == 3 + 1j
        product = r.multiply(s)
        assert product.annotation((1, 1, 7)) == (1 + 1j) * 3j
        total = product.marginalize(())
        assert total.scalar() == (1 + 1j) * 3j + (2 + 0j) * 1j
