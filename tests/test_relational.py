"""Tests for relations, operators, Yannakakis, and Generic Join."""

import pytest

from repro.exceptions import DecompositionError, SchemaError
from repro.relational import (
    Database,
    JoinTree,
    Relation,
    acyclic_boolean,
    acyclic_join,
    binary_join_plan,
    difference,
    full_reduce,
    generic_join,
    heavy_light_partition,
    join_tree_from_bags,
    natural_join,
    project,
    select_equal,
    semijoin,
    union,
)
from repro.relational.stats import (
    discover_functional_dependencies,
    relation_statistics,
)


def r(name, schema, rows):
    return Relation(name, schema, rows)


class TestRelation:
    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "B"), [(1,)])

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "A"), [])

    def test_dedup(self):
        rel = r("R", ("A",), [(1,), (1,), (2,)])
        assert len(rel) == 2

    def test_equality_order_insensitive(self):
        a = r("R", ("A", "B"), [(1, 2), (3, 4)])
        b = r("S", ("B", "A"), [(2, 1), (4, 3)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = r("R", ("A", "B"), [(1, 2)])
        b = r("R", ("A", "B"), [(2, 1)])
        assert a != b

    def test_index_and_keys(self):
        rel = r("R", ("A", "B"), [(1, 2), (1, 3), (2, 2)])
        (code,) = rel.encode_key(("A",), (1,))
        assert sum(key == code for key, _ in rel.code_rows) == 2
        assert len(rel.key_set(("A",))) == 2
        assert rel.distinct_keys(("A",)) == 2

    def test_degree(self):
        rel = r("R", ("A", "B"), [(1, 2), (1, 3), (2, 2)])
        assert rel.degree(("A", "B"), ("A",)) == 2
        assert rel.degree(("A",), ()) == 2
        assert rel.degree(("B",), ()) == 2

    def test_degree_requires_x_subset_y(self):
        rel = r("R", ("A", "B"), [(1, 2)])
        with pytest.raises(SchemaError):
            rel.degree(("A",), ("B",))

    def test_guards(self):
        from repro.core.constraints import DegreeConstraint

        rel = r("R", ("A", "B"), [(1, 2), (1, 3)])
        assert rel.guards(DegreeConstraint.make(("A",), ("A", "B"), 2))
        assert not rel.guards(DegreeConstraint.make(("A",), ("A", "B"), 1))

    def test_renamed_shares_content(self):
        rel = r("R", ("A",), [(1,)])
        clone = rel.renamed("S")
        assert clone.name == "S" and clone == rel


class TestOperators:
    def test_project(self):
        rel = r("R", ("A", "B", "C"), [(1, 2, 3), (1, 2, 4)])
        p = project(rel, ("A", "B"))
        assert len(p) == 1 and p.schema == ("A", "B")

    def test_project_invalid(self):
        with pytest.raises(SchemaError):
            project(r("R", ("A",), []), ("B",))

    def test_select(self):
        rel = r("R", ("A", "B"), [(1, 2), (2, 2), (1, 3)])
        assert len(select_equal(rel, "A", 1)) == 2
        assert len(select_equal(rel, "A", 9)) == 0

    def test_natural_join_matches_nested_loops(self, rng):
        left = r("L", ("A", "B"), {(rng.randrange(5), rng.randrange(5)) for _ in range(15)})
        right = r("R", ("B", "C"), {(rng.randrange(5), rng.randrange(5)) for _ in range(15)})
        joined = natural_join(left, right)
        expected = {
            lr + (rr[1],)
            for lr in left
            for rr in right
            if lr[1] == rr[0]
        }
        assert joined.tuples == frozenset(expected)

    def test_cross_product(self):
        left = r("L", ("A",), [(1,), (2,)])
        right = r("R", ("B",), [(3,), (4,)])
        assert len(natural_join(left, right)) == 4

    def test_semijoin(self):
        left = r("L", ("A", "B"), [(1, 2), (3, 4)])
        right = r("R", ("B",), [(2,)])
        assert semijoin(left, right).tuples == frozenset({(1, 2)})

    def test_union_realigns(self):
        a = r("R", ("A", "B"), [(1, 2)])
        b = r("S", ("B", "A"), [(5, 6)])
        u = union(a, b)
        assert (6, 5) in u

    def test_union_schema_mismatch(self):
        with pytest.raises(SchemaError):
            union(r("R", ("A",), []), r("S", ("B",), []))

    def test_difference(self):
        a = r("R", ("A",), [(1,), (2,)])
        b = r("S", ("A",), [(2,)])
        assert difference(a, b).tuples == frozenset({(1,)})


class TestHeavyLightPartition:
    def test_pieces_cover_relation(self, rng):
        rows = {(rng.randrange(8), rng.randrange(30)) for _ in range(60)}
        rel = r("R", ("A", "B"), rows)
        pieces = heavy_light_partition(rel, ("A",))
        combined = set()
        for piece in pieces:
            assert not (combined & set(piece.relation.tuples)), "pieces overlap"
            combined |= set(piece.relation.tuples)
        assert combined == set(rel.tuples)

    def test_lemma_6_1_product_bound(self, rng):
        # Skewed: one heavy hitter + many light ones.
        rows = {(0, b) for b in range(50)} | {(a, 0) for a in range(1, 40)}
        rel = r("R", ("A", "B"), rows)
        for piece in heavy_light_partition(rel, ("A",)):
            assert piece.x_count * piece.y_degree <= len(rel)
            assert piece.x_count == piece.relation.distinct_keys(("A",))
            assert piece.y_degree == piece.relation.degree(("A", "B"), ("A",))

    def test_piece_count_logarithmic(self):
        rows = {(a, b) for a in range(64) for b in range(a % 8 + 1)}
        rel = r("R", ("A", "B"), rows)
        pieces = heavy_light_partition(rel, ("A",))
        import math

        assert len(pieces) <= 2 * math.log2(len(rel)) + 2

    def test_empty_relation(self):
        assert heavy_light_partition(r("R", ("A", "B"), []), ("A",)) == []


class TestYannakakis:
    def _path_tree(self):
        r1 = r("R1", ("A", "B"), [(1, 2), (2, 3), (9, 9)])
        r2 = r("R2", ("B", "C"), [(2, 4), (3, 5)])
        r3 = r("R3", ("C", "D"), [(4, 6), (5, 7)])
        return JoinTree([r2, r1, r3], [-1, 0, 0])

    def test_full_reduce_removes_dangling(self):
        reduced = full_reduce(self._path_tree())
        assert (9, 9) not in reduced.relations[1]

    def test_acyclic_join_matches_generic_join(self):
        tree = self._path_tree()
        joined = acyclic_join(tree)
        expected = generic_join(tree.relations)
        assert joined == expected

    def test_acyclic_boolean(self):
        assert acyclic_boolean(self._path_tree())
        empty_tree = JoinTree(
            [r("R1", ("A", "B"), [(1, 2)]), r("R2", ("B", "C"), [(9, 9)])],
            [-1, 0],
        )
        assert not acyclic_boolean(empty_tree)

    def test_running_intersection_enforced(self):
        bad = [
            r("R1", ("A", "B"), []),
            r("R2", ("C",), []),
            r("R3", ("A", "C"), []),
        ]
        # Chain R1 - R2 - R3 breaks connectivity of A and C... A appears at
        # nodes 0 and 2 with node 1 (no A) between them.
        with pytest.raises(DecompositionError):
            JoinTree(bad, [-1, 0, 1])

    def test_join_tree_from_bags(self):
        bags = [
            r("T1", ("A", "B", "C"), []),
            r("T2", ("B", "C", "D"), []),
            r("T3", ("D", "E"), []),
        ]
        tree = join_tree_from_bags(bags)
        assert len(tree.relations) == 3


class TestGenericJoin:
    def test_triangle_matches_binary_plan(self, rng):
        rel_r = r("R", ("A", "B"), {(rng.randrange(6), rng.randrange(6)) for _ in range(20)})
        rel_s = r("S", ("B", "C"), {(rng.randrange(6), rng.randrange(6)) for _ in range(20)})
        rel_t = r("T", ("A", "C"), {(rng.randrange(6), rng.randrange(6)) for _ in range(20)})
        gj = generic_join([rel_r, rel_s, rel_t])
        bj = binary_join_plan([rel_r, rel_s, rel_t])
        assert gj == bj

    def test_variable_order_irrelevant_to_result(self, rng):
        rel_r = r("R", ("A", "B"), {(rng.randrange(5), rng.randrange(5)) for _ in range(12)})
        rel_s = r("S", ("B", "C"), {(rng.randrange(5), rng.randrange(5)) for _ in range(12)})
        a = generic_join([rel_r, rel_s], ("A", "B", "C"))
        b = generic_join([rel_r, rel_s], ("C", "B", "A"))
        assert a == b

    def test_empty_input(self):
        rel_r = r("R", ("A", "B"), [])
        rel_s = r("S", ("B", "C"), [(1, 2)])
        assert len(generic_join([rel_r, rel_s])) == 0


class TestDatabaseAndStats:
    def test_database_guards(self):
        from repro.core.constraints import ConstraintSet, cardinality

        db = Database([r("R", ("A", "B"), [(1, 2), (3, 4)])])
        cs = ConstraintSet([cardinality(("A", "B"), 2)])
        assert db.satisfies(cs)
        tight = ConstraintSet([cardinality(("A", "B"), 1)])
        assert not db.satisfies(tight)

    def test_extract_cardinalities(self):
        db = Database([r("R", ("A", "B"), [(1, 2), (3, 4)])])
        cs = db.extract_cardinalities()
        assert next(iter(cs)).bound == 2

    def test_relation_statistics_tight(self):
        rel = r("R", ("A", "B"), [(1, 2), (1, 3), (2, 4)])
        stats = relation_statistics(rel)
        found = stats.lookup(frozenset(("A",)), frozenset(("A", "B")))
        assert found.bound == 2

    def test_discover_fds(self):
        rel = r("R", ("A", "B"), [(1, 10), (2, 20), (3, 10)])
        fds = discover_functional_dependencies(rel)
        pairs = {(c.x, c.y) for c in fds}
        assert (frozenset(("A",)), frozenset(("A", "B"))) in pairs  # A -> B
        assert (frozenset(("B",)), frozenset(("A", "B"))) not in pairs  # B not -> A

    def test_hypergraph_view(self):
        db = Database(
            [r("R", ("A", "B"), []), r("S", ("B", "C"), [])]
        )
        h = db.hypergraph()
        assert len(h.edges) == 2
