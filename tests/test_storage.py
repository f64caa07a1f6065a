"""Persisted database directories: round-trip bit-identity and rejection.

The contracts under test for :mod:`repro.relational.storage`:

* **save → open is the identity** — rows, dictionaries, and content digests
  survive the trip, and the reopened (mmap-backed) relations are
  join-indistinguishable from their in-heap originals across every driver
  (Generic Join, Leapfrog, Yannakakis, PANDA), both execution backends
  (interpreted / vectorized), and serial, pooled, and incremental modes;
* **file references replace buffers on the wire** — binding a pool to a
  persisted database ships paths + digests, zero column bytes, and a warm
  rebind against an unchanged directory ships nothing at all;
* **corruption fails loudly** — a truncated manifest, a missing or
  truncated column artifact, a flipped byte under ``verify=True``, and
  conflicting dictionary state all raise :class:`StorageError` with the
  defect named, never a downstream type error or silently wrong join;
* **digests never force the transpose** — ``content_digest`` on a rows-only
  column set hashes without materializing columns (the satellite fix).
"""

import json
import random

import pytest

from _helpers import stable_seed

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import StorageError
from repro.incremental import IncrementalQueryEngine, SignedDelta, VersionedRelation
from repro.planner import QueryEngine
from repro.relational import Database, Dictionary, Relation, generic_join
from repro.relational.backend import scoped_backend
from repro.relational.columns import ColumnSet
from repro.relational.storage import (
    ColumnStore,
    LazyDictionary,
    MANIFEST_NAME,
    open_database_dir,
    save_database_dir,
)

DRIVERS = ("generic", "leapfrog", "yannakakis", "panda")
BACKENDS = ("interpreted", "vectorized")


@pytest.fixture(autouse=True)
def isolated_registry():
    """Snapshot/restore the shared dictionary registry around each test.

    Opening a directory installs :class:`LazyDictionary` instances into the
    process-global registry; leaking those (bound to this test's tmp_path)
    into later tests would be a cross-test hazard.
    """
    saved = dict(Dictionary._registry)
    Dictionary._registry.clear()
    yield
    Dictionary._registry.clear()
    Dictionary._registry.update(saved)


def triangle_query(name="Q"):
    atoms = (
        Atom("R", ("A", "B")),
        Atom("S", ("B", "C")),
        Atom("T", ("A", "C")),
    )
    return ConjunctiveQuery.full(atoms, name=name)


def triangle_database(rng, size=60, domain=9):
    def rows(n):
        return {
            (rng.randrange(domain), rng.randrange(domain)) for _ in range(n)
        }

    return Database(
        [
            Relation("R", ("A", "B"), rows(size)),
            Relation("S", ("B", "C"), rows(size)),
            Relation("T", ("A", "C"), rows(size)),
        ]
    )


def saved_triangle(tmp_path, seed="storage", size=60, domain=9):
    rng = random.Random(stable_seed(seed))
    database = triangle_database(rng, size=size, domain=domain)
    directory = tmp_path / "db"
    save_database_dir(database, directory)
    return database, directory


# -- round trips --------------------------------------------------------------------


class TestRoundTrip:
    def test_rows_dictionaries_digests_survive(self, tmp_path):
        relation = Relation(
            "R", ("A", "B"), [("x", 3), ("y", 1), ("x", 1), ("z", 9)]
        )
        empty = Relation("E", ("A", "C"), [])
        database = Database([relation, empty])
        digests = {
            r.name: r.column_set(r.schema).content_digest() for r in database
        }
        values = {a: list(Dictionary.of(a).values) for a in ("A", "B", "C")}
        directory = tmp_path / "db"
        save_database_dir(database, directory)

        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        assert sorted(reopened["R"].tuples) == sorted(relation.tuples)
        assert len(reopened["E"]) == 0
        assert reopened["E"].schema == ("A", "C")
        for name, digest in digests.items():
            opened = reopened[name]
            assert opened.column_set(opened.schema).content_digest() == digest
        for attribute, expected in values.items():
            assert list(Dictionary.of(attribute).values) == expected

    def test_dictionaries_hydrate_lazily(self, tmp_path):
        database = Database([Relation("R", ("A", "B"), [("x", 1), ("y", 2)])])
        save_database_dir(database, tmp_path / "db")
        Dictionary.reset_registry()
        reopened = open_database_dir(tmp_path / "db")
        a = Dictionary.of("A")
        assert isinstance(a, LazyDictionary)
        assert not a._hydrated
        assert len(a) == 2  # the manifest count, no file read
        assert sorted(reopened["R"].tuples) == [("x", 1), ("y", 2)]
        assert a._hydrated  # decoding the rows hydrated it

    def test_save_is_idempotent_and_digest_named(self, tmp_path):
        database, directory = saved_triangle(tmp_path)
        columns = sorted(p.name for p in (directory / "columns").iterdir())
        save_database_dir(database, directory)
        assert sorted(p.name for p in (directory / "columns").iterdir()) == columns
        digest = database["R"].column_set(("A", "B")).content_digest()
        assert f"{digest}.c0" in columns and f"{digest}.c1" in columns

    def test_opened_relations_are_file_bound(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        for relation in reopened:
            column_set = relation.column_set(relation.schema)
            assert column_set.backing is not None
            assert column_set.backing.digest == column_set.content_digest()
            assert relation.store is not None

    def test_verify_accepts_intact_directory(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        Dictionary.reset_registry()
        open_database_dir(directory, verify=True)


class TestRangeViews:
    def test_restrict_range_over_mmap_columns(self, tmp_path):
        relation = Relation("R", ("A", "B"), [(i, i % 5) for i in range(40)])
        directory = tmp_path / "db"
        save_database_dir(Database([relation]), directory)
        base = open_database_dir(directory)["R"].column_set(("A", "B"))
        assert base.columns[0].readonly
        view = base.restrict_range(7, 31)
        assert view.columns[0].readonly and view.backing is None
        assert view.columns[0].obj is base.columns[0].obj  # the same map
        assert view.rows == relation.code_rows[7:31]
        in_heap = relation.column_set(("A", "B")).restrict_range(10, 16)
        nested = view.restrict_range(3, 9)
        assert nested.content_digest() == in_heap.content_digest()
        assert Relation.from_column_set("R", nested) == Relation.from_codes(
            "R", ("A", "B"), relation.code_rows[10:16]
        )


class TestDriversAndBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_opened_database_joins_bit_identical(
        self, tmp_path, driver, backend
    ):
        query = triangle_query()
        database, directory = saved_triangle(tmp_path, seed=f"{driver}/{backend}")
        order = tuple(sorted(query.variable_set))
        bindings = [atom.bind(database) for atom in query.body]
        reference = generic_join(bindings, order).code_rows

        for workers in (1, 2):
            Dictionary.reset_registry()
            reopened = open_database_dir(directory)
            with scoped_backend(backend):
                with QueryEngine(query, workers=workers) as engine:
                    result = engine.execute(reopened, driver=driver)
            assert result.relation.code_rows == reference, (
                f"{driver}/{backend}/workers={workers}"
            )

    def test_level0_index_builds_over_mapped_columns(self, tmp_path):
        """The vectorized join's level-0 offsets index is read off — never
        written into — the read-only mapped columns."""
        pytest.importorskip("numpy")
        query = triangle_query()
        database, directory = saved_triangle(tmp_path, seed="level0")
        order = tuple(sorted(query.variable_set))
        reference = generic_join(
            [atom.bind(database) for atom in query.body], order
        ).code_rows
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        bindings = [atom.bind(reopened) for atom in query.body]
        with scoped_backend("vectorized"):
            assert generic_join(bindings, order).code_rows == reference
        sets = [relation.column_set(relation.schema) for relation in bindings]
        assert not any(s.np_columns()[0].flags.writeable for s in sets)
        # One of the two relations over the first variable drives it; the
        # other and the relation opened at the second level are probed.
        assert sum("level0_starts" in s.np_trie_cache() for s in sets) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_maintenance_on_opened_database(self, tmp_path, backend):
        query = triangle_query()
        _, directory = saved_triangle(tmp_path, seed=f"ivm/{backend}", size=80)
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        rng = random.Random(stable_seed(f"ivm-batches/{backend}"))
        with scoped_backend(backend):
            with IncrementalQueryEngine(query, compact_min=16) as engine:
                engine.execute(reopened)
                for _ in range(4):
                    name = rng.choice(["R", "S", "T"])
                    current = set(engine.relation(name).tuples)
                    engine.insert(
                        name,
                        {
                            (rng.randrange(9), rng.randrange(9))
                            for _ in range(6)
                        }
                        - current,
                    )
                    if len(current) > 5:
                        engine.delete(name, rng.sample(sorted(current), 4))
                    maintained = engine.refresh()
                    database = engine.database()
                    order = tuple(sorted(query.variable_set))
                    oracle = generic_join(
                        [atom.bind(database) for atom in query.body], order
                    ).code_rows
                    assert maintained.relation.code_rows == oracle

    def test_compaction_persists_fresh_artifact(self, tmp_path):
        _, directory = saved_triangle(tmp_path, seed="compact")
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        relation = reopened["R"]
        store = relation.store
        old_digest = relation.column_set(relation.schema).content_digest()
        versioned = VersionedRelation(relation, compact_min=10**9)
        delta = SignedDelta.from_changes(
            relation, inserts=[(100, 200), (101, 201)]
        )
        versioned.apply(delta, compact=False)
        versioned.compact()
        new = versioned.base
        assert new.store is store  # the store survived advance_relation
        new_digest = new.column_set(new.schema).content_digest()
        assert new_digest != old_digest
        # Both generations are on disk: the new base as a fresh artifact,
        # the old one untouched (a live pool baseline may still map it).
        assert store.contains(new_digest, 2)
        assert store.contains(old_digest, 2)
        assert new.column_set(new.schema).backing is not None


class TestPoolShipping:
    def test_file_backed_bind_ships_no_column_bytes(self, tmp_path):
        query = triangle_query()
        database, directory = saved_triangle(tmp_path, seed="shipping")
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        with QueryEngine(query, workers=2) as engine:
            first = engine.execute(reopened, driver="generic")
            stats = engine.shipping_stats
            assert stats["column_bytes"] == 0
            assert stats["file_refs"] == 3
            # Warm rebind against a *reopened* unchanged directory: same
            # digests, so nothing ships — not even file references.
            again = open_database_dir(directory)
            second = engine.execute(again, driver="generic")
            assert engine.shipping_stats == stats
            assert second.relation.code_rows == first.relation.code_rows

    @pytest.mark.parametrize("driver", ["generic", "yannakakis"])
    def test_no_row_tuples_between_bind_and_result(
        self, driver, tmp_path, no_row_transpose
    ):
        """Stored schemas already in the global variable order, so no
        non-canonical order is built: from the workers' mmap bind to the
        merged result, nothing transposes columns into row tuples."""
        pytest.importorskip("numpy")
        database, directory = saved_triangle(
            tmp_path, seed="no-rows", size=3000, domain=150
        )
        expected = len(generic_join(list(database), ("A", "B", "C")))
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        with scoped_backend("vectorized"), QueryEngine(
            triangle_query(), workers=2
        ) as engine:
            result = engine.execute(reopened, driver)
            assert len(result.relation) == expected > 0
            assert engine.shipping_stats["column_bytes"] == 0

    def test_in_heap_bind_still_ships_buffers(self, tmp_path):
        query = triangle_query()
        rng = random.Random(stable_seed("heap-shipping"))
        database = triangle_database(rng)
        with QueryEngine(query, workers=2) as engine:
            engine.execute(database, driver="generic")
            stats = engine.shipping_stats
            assert stats["file_refs"] == 0
            assert stats["column_bytes"] == sum(
                16 * len(database[name]) for name in ("R", "S", "T")
            )


# -- corruption ---------------------------------------------------------------------


class TestRejection:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="not a persisted database"):
            open_database_dir(tmp_path / "nowhere")

    def test_truncated_manifest(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        manifest = directory / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[: 40])
        with pytest.raises(StorageError, match="corrupt manifest"):
            open_database_dir(directory)

    def test_wrong_format_tag(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        manifest = directory / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["format"] = "repro-db/999"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="format"):
            open_database_dir(directory)

    def test_malformed_relation_entry(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        manifest = directory / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["relations"]["R"]["nrows"] = "many"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="malformed"):
            open_database_dir(directory)

    def test_truncated_column_artifact(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        victim = next((directory / "columns").glob("*.c0"))
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(StorageError, match="expected"):
            open_database_dir(directory)

    def test_missing_column_artifact(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        next((directory / "columns").glob("*.c1")).unlink()
        with pytest.raises(StorageError, match="missing column artifact"):
            open_database_dir(directory)

    def test_verify_detects_flipped_byte(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        victim = next((directory / "columns").glob("*.c0"))
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="re-hashes"):
            open_database_dir(directory, verify=True)
        # ...but the size-only check of a plain open cannot see it.
        open_database_dir(directory)

    def test_missing_dictionary_file(self, tmp_path):
        _, directory = saved_triangle(tmp_path)
        (directory / "dicts" / "A.json").unlink()
        with pytest.raises(StorageError, match="missing dictionary"):
            open_database_dir(directory)

    def test_corrupt_dictionary_fails_at_hydration(self, tmp_path):
        database = Database([Relation("R", ("A", "B"), [("x", 1)])])
        directory = tmp_path / "db"
        save_database_dir(database, directory)
        (directory / "dicts" / "A.json").write_text("[not json")
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)  # opening is metadata-only
        with pytest.raises(StorageError, match="corrupt dictionary"):
            list(reopened["R"].tuples)

    def test_conflicting_live_dictionary(self, tmp_path):
        database = Database([Relation("R", ("A", "B"), [("x", 1), ("y", 2)])])
        directory = tmp_path / "db"
        save_database_dir(database, directory)
        Dictionary.reset_registry()
        Dictionary.of("A").encode("different")  # code 0 now conflicts
        with pytest.raises(StorageError, match="conflict"):
            open_database_dir(directory)

    def test_compatible_prefix_dictionary_extends(self, tmp_path):
        database = Database(
            [Relation("R", ("A", "B"), [("x", 1), ("y", 2), ("z", 3)])]
        )
        directory = tmp_path / "db"
        save_database_dir(database, directory)
        Dictionary.reset_registry()
        live = Dictionary.of("A")
        live.encode("x")  # a prefix of the persisted value list
        reopened = open_database_dir(directory)
        assert Dictionary.of("A") is live  # kept, extended in place
        assert list(live.values) == ["x", "y", "z"]
        assert sorted(reopened["R"].tuples) == [("x", 1), ("y", 2), ("z", 3)]

    def test_nullary_relation_rejected_at_save(self, tmp_path):
        with pytest.raises(StorageError, match="nullary"):
            save_database_dir(
                Database([Relation("N", (), [()])]), tmp_path / "db"
            )


# -- the content_digest satellite ---------------------------------------------------


class TestDigestWithoutTranspose:
    def test_rows_only_digest_skips_materialization(self):
        rows = sorted({(i % 7, i % 5, i) for i in range(200)})
        lazy = ColumnSet(("A", "B", "C"), rows, presorted=True)
        digest = lazy.content_digest()
        assert lazy.materialized_columns is None  # hashing built no columns
        eager = ColumnSet(("A", "B", "C"), rows, presorted=True)
        _ = eager.columns
        assert eager.content_digest() == digest

    def test_file_backed_digest_comes_from_manifest(self, tmp_path):
        _, directory = saved_triangle(tmp_path, seed="digest")
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        Dictionary.reset_registry()
        reopened = open_database_dir(directory)
        for name, meta in manifest["relations"].items():
            relation = reopened[name]
            assert (
                relation.column_set(relation.schema).content_digest()
                == meta["digest"]
            )
