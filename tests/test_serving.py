"""The concurrent serving subsystem: MVCC snapshots, admission, the broker.

The hard contract (ISSUE-9 snapshot-isolation gate): with N reader threads
pinning snapshots while the single writer commits signed batches and
compacts underneath them, every read is *bit-identical* to a from-scratch
recompute at the reader's pinned version — the same canonical sorted code
rows, across all four drivers and both execution backends, and the same
exact counting/Fraction semiring folds.  Plus the mechanics underneath:
version pinning and compaction liveness on ``VersionedRelation``, epoch
retire/unpin bookkeeping in the registry, shed-with-retry-after admission,
restartability from a persisted directory, and the ``serve --concurrent``
CLI arm.
"""

import csv
import random
import re
import threading
import time
from fractions import Fraction
from functools import reduce

import pytest

from _helpers import stable_seed

from repro.cli import main
from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import (
    DeltaError,
    IncrementalError,
    OverloadError,
    ServingError,
)
from repro.faq.annotated import AnnotatedRelation
from repro.faq.semiring import COUNTING, FRACTION
from repro.incremental import IncrementalQueryEngine, SignedDelta, VersionedRelation
from repro.relational.backend import current_backend, scoped_backend
from repro.relational.columns import Dictionary
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.wcoj import generic_join
from repro.serving import (
    AdmissionController,
    MetricSeries,
    ServingEngine,
    SnapshotRegistry,
)
from repro.serving.admission import percentile
from repro.serving.snapshot import EpochState

DRIVERS = ("generic", "leapfrog", "yannakakis", "panda")
BACKENDS = ("interpreted", "vectorized")


def triangle_query(boolean=False, name="Q"):
    atoms = (
        Atom("R", ("A", "B")),
        Atom("S", ("B", "C")),
        Atom("T", ("A", "C")),
    )
    if boolean:
        return ConjunctiveQuery.boolean(atoms, name=name)
    return ConjunctiveQuery.full(atoms, name=name)


def random_rows(rng, n, domain=20):
    return {(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)}


def make_database(query, rng, size=60, domain=20):
    return Database(
        [
            Relation(atom.name, atom.variables, random_rows(rng, size, domain))
            for atom in query.body
        ]
    )


def fresh_join_rows(query, database):
    """From-scratch Generic Join over ``database`` (the reader's oracle)."""
    order = tuple(sorted(query.variable_set))
    bindings = [atom.bind(database) for atom in query.body]
    return generic_join(bindings, order).code_rows


def semiring_fold(query, database, semiring):
    """Full ⊕-marginalization of ⊗ᵢ lift(Rᵢ) over ``database``."""
    factors = [
        AnnotatedRelation.from_relation(atom.bind(database), semiring)
        for atom in query.body
    ]
    product = reduce(lambda a, b: a.multiply(b), factors)
    return dict(product.marginalize(()).items())


def random_batch(rng, current_rows, domain=20, inserts=6, deletes=3):
    """A valid (inserts, deletes) pair against ``current_rows``."""
    ins = sorted(random_rows(rng, inserts, domain) - current_rows)
    pool = sorted(current_rows)
    dels = rng.sample(pool, min(deletes, len(pool)))
    return ins, dels


# -- VersionedRelation pinning -------------------------------------------------------


class TestVersionPinning:
    def _log(self, rows=((1, 2), (2, 3), (3, 4)), **kwargs):
        return VersionedRelation(Relation("R", ("A", "B"), rows), **kwargs)

    def _delta(self, log, inserts=(), deletes=()):
        return SignedDelta.from_changes(log.current, inserts, deletes)

    def test_snapshot_of_current_is_zero_copy(self):
        log = self._log()
        assert log.snapshot() is log.current
        assert log.snapshot(0) is log.current

    def test_pin_returns_version_and_retains(self):
        log = self._log()
        pinned = log.pin()
        assert pinned == 0
        frozen = log.snapshot(pinned)
        log.apply(self._delta(log, inserts=[(9, 9)]))
        assert log.snapshot(pinned) is frozen
        assert frozen.code_rows != log.current.code_rows

    def test_interior_version_reconstructs_from_run_prefix(self):
        log = self._log(compact_min=10_000)
        states = [log.current.code_rows]
        for i in range(3):
            log.apply(self._delta(log, inserts=[(10 + i, 10 + i)]))
            states.append(log.current.code_rows)
        for version, rows in enumerate(states):
            assert log.snapshot(version).code_rows == rows

    def test_compaction_keeps_pinned_version_alive(self):
        log = self._log(compact_min=1, compact_ratio=0.0)
        version = log.pin()
        frozen_rows = log.snapshot(version).code_rows
        log.apply(self._delta(log, inserts=[(9, 9)]))  # compacts immediately
        assert log.base_version == log.version == 1
        assert log.snapshot(version).code_rows == frozen_rows
        assert version in log.pinned_versions

    def test_unpinned_compacted_version_raises(self):
        log = self._log(compact_min=1, compact_ratio=0.0)
        log.apply(self._delta(log, inserts=[(9, 9)]))
        with pytest.raises(IncrementalError):
            log.snapshot(0)

    def test_unpin_releases_retention(self):
        log = self._log(compact_min=1, compact_ratio=0.0)
        version = log.pin()
        log.pin(version)  # second reader on the same version
        log.apply(self._delta(log, inserts=[(9, 9)]))
        log.unpin(version)
        assert log.snapshot(version) is not None  # one pin still holds it
        log.unpin(version)
        with pytest.raises(IncrementalError):
            log.snapshot(version)
        with pytest.raises(IncrementalError):
            log.unpin(version)

    def test_pin_of_compacted_version_raises(self):
        log = self._log(compact_min=1, compact_ratio=0.0)
        log.apply(self._delta(log, inserts=[(9, 9)]))
        with pytest.raises(IncrementalError):
            log.pin(0)


# -- snapshot registry ---------------------------------------------------------------


def _state(epoch, pins=None):
    relation = Relation("R", ("A", "B"), [(epoch, epoch)])
    state = EpochState(
        epoch=epoch,
        versions={"R": epoch},
        relations={"R": relation},
        view=relation,
        boolean=True,
    )
    if pins:
        state.pins = pins
    return state


class TestSnapshotRegistry:
    def test_pin_before_publish_raises(self):
        registry = SnapshotRegistry()
        assert registry.current_epoch == -1
        with pytest.raises(ServingError):
            registry.pin()

    def test_unpinned_previous_epoch_retires_on_publish(self):
        registry = SnapshotRegistry()
        first = _state(0)
        assert registry.publish(first) == []
        assert registry.publish(_state(1)) == [first]

    def test_pinned_epoch_survives_until_release(self):
        registry = SnapshotRegistry()
        first = _state(0)
        registry.publish(first)
        snapshot = registry.pin()
        assert registry.publish(_state(1)) == []
        assert registry.oldest_live_epoch() == 0
        snapshot.release()
        snapshot.release()  # idempotent
        # The next publish retires the released epoch 0 *and* the now
        # previous, unpinned epoch 1.
        retired = registry.publish(_state(2))
        assert sorted(state.epoch for state in retired) == [0, 1]

    def test_snapshot_reads_its_own_epoch(self):
        registry = SnapshotRegistry()
        registry.publish(_state(0))
        snapshot = registry.pin()
        registry.publish(_state(1))
        assert snapshot.epoch == 0
        assert snapshot.relation("R").code_rows == snapshot.database["R"].code_rows
        assert registry.pin().epoch == 1

    def test_close_returns_all_live_epochs_and_refuses_pins(self):
        registry = SnapshotRegistry()
        first, second = _state(0), _state(1)
        registry.publish(first)
        snapshot = registry.pin()
        registry.publish(second)
        closed = registry.close()
        assert closed == [first, second]
        with pytest.raises(ServingError):
            registry.pin()
        snapshot.release()  # outstanding snapshot stays harmless


# -- admission control ---------------------------------------------------------------


class TestAdmission:
    def test_write_queue_sheds_at_capacity(self):
        admission = AdmissionController(max_pending_writes=2, retry_after=0.01)
        admission.enter_write_queue()
        admission.enter_write_queue()
        with pytest.raises(OverloadError) as err:
            admission.enter_write_queue()
        assert err.value.retry_after == 0.01
        admission.exit_write_queue()
        admission.enter_write_queue()  # capacity freed
        counters = admission.counters()
        assert counters["writes_admitted"] == 3
        assert counters["writes_shed"] == 1
        assert counters["pending_writes"] == 2

    def test_reads_shed_at_inflight_cap(self):
        admission = AdmissionController(max_inflight_reads=1)
        admission.enter_read()
        with pytest.raises(OverloadError):
            admission.enter_read()
        admission.exit_read()
        admission.enter_read()
        counters = admission.counters()
        assert counters["reads_admitted"] == 2
        assert counters["reads_shed"] == 1

    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100
        assert percentile([], 0.5) == 0.0
        assert percentile([7], 0.99) == 7

    def test_metric_series_summary(self):
        series = MetricSeries()
        assert series.summary()["count"] == 0
        for value in (1.0, 2.0, 3.0, 4.0):
            series.record(value)
        summary = series.summary()
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["max"] == 4.0


# -- the serving engine (functional) -------------------------------------------------


class TestServingEngine:
    def test_requires_execute_first(self):
        engine = ServingEngine(triangle_query())
        with pytest.raises(ServingError):
            engine.read()
        with pytest.raises(ServingError):
            engine.submit({"R": ([(1, 2)], [])})
        engine.close()

    def test_write_read_cycle_matches_oracle(self):
        rng = random.Random(stable_seed("serving", "cycle"))
        query = triangle_query()
        database = make_database(query, rng)
        with ServingEngine(query, readers=2) as engine:
            first = engine.execute(database)
            assert engine.current_epoch == 0
            view = engine.read().result()
            assert view.relation.code_rows == first.relation.code_rows

            ins, dels = random_batch(rng, set(engine.relation("R").tuples))
            receipt = engine.submit({"R": (ins, dels)}).result()
            assert receipt.epoch == 1 and receipt.changed
            maintained = engine.read().result().relation.code_rows
            assert maintained == fresh_join_rows(query, engine.database())

    def test_invalid_batch_fails_future_and_keeps_serving(self):
        rng = random.Random(stable_seed("serving", "invalid"))
        query = triangle_query()
        with ServingEngine(query, readers=1) as engine:
            engine.execute(make_database(query, rng))
            before = engine.read().result().relation.code_rows
            bad = engine.submit({"R": ([], [(999, 999)])})
            with pytest.raises(DeltaError):
                bad.result()
            assert engine.current_epoch == 0
            assert engine.read().result().relation.code_rows == before
            ins, dels = random_batch(rng, set(engine.relation("R").tuples))
            assert engine.submit({"R": (ins, dels)}).result().epoch == 1

    def test_net_noop_batch_does_not_advance_the_epoch(self):
        rng = random.Random(stable_seed("serving", "noop"))
        query = triangle_query()
        with ServingEngine(query, readers=1) as engine:
            engine.execute(make_database(query, rng))
            receipt = engine.submit({"R": ([(50, 50)], [(50, 50)])}).result()
            assert not receipt.changed
            assert receipt.epoch == 0

    def test_boolean_query_serving(self):
        rng = random.Random(stable_seed("serving", "boolean"))
        query = triangle_query(boolean=True)
        with ServingEngine(query, readers=1) as engine:
            first = engine.execute(make_database(query, rng))
            assert engine.read().result().boolean == first.boolean

    def test_drain_is_a_write_barrier(self):
        rng = random.Random(stable_seed("serving", "drain"))
        query = triangle_query()
        with ServingEngine(query, readers=1) as engine:
            engine.execute(make_database(query, rng))
            for _ in range(3):
                ins, dels = random_batch(rng, set(engine.relation("R").tuples))
                engine.submit({"R": (ins, dels)})
                engine.drain()
            assert engine.current_epoch == engine.stats.batches == 3

    def test_metrics_report_shape(self):
        rng = random.Random(stable_seed("serving", "metrics"))
        query = triangle_query()
        with ServingEngine(query, readers=2) as engine:
            engine.execute(make_database(query, rng))
            ins, dels = random_batch(rng, set(engine.relation("R").tuples))
            engine.submit({"R": (ins, dels)}).result()
            engine.read().result()
            metrics = engine.metrics()
            assert metrics["current_epoch"] == 1
            assert metrics["read_latency"]["count"] == 1
            assert metrics["write_latency"]["count"] == 1
            assert metrics["batches_applied"] == 1
            assert metrics["batches_per_sec"] > 0
            assert metrics["admission"]["reads_admitted"] == 1

    def test_close_is_idempotent_and_stops_requests(self):
        rng = random.Random(stable_seed("serving", "close"))
        query = triangle_query()
        engine = ServingEngine(query, readers=1)
        engine.execute(make_database(query, rng))
        engine.close()
        engine.close()
        with pytest.raises(ServingError):
            engine.read()


# -- the snapshot-isolation property (tentpole gate) ---------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("driver", DRIVERS)
class TestSnapshotIsolation:
    """Randomized reader/writer interleavings vs per-version recomputes."""

    BATCHES = 8
    READS_PER_BATCH = 4

    def test_concurrent_reads_bit_identical_to_pinned_recompute(
        self, driver, backend
    ):
        rng = random.Random(stable_seed("serving-isolation", driver, backend))
        query = triangle_query()
        database = make_database(query, rng, size=60, domain=18)
        initial = {
            relation.name: set(relation.tuples) for relation in database
        }

        with scoped_backend(backend):
            served = current_backend()  # after the numpy-less fallback

        def snapshot_read(snapshot):
            """Pin-consistent read: view + from-scratch + semiring folds, on
            the backend the broker's reader threads inherit."""
            assert current_backend() == served
            fresh = fresh_join_rows(query, snapshot.database)
            view = snapshot.result().relation.code_rows
            counting = semiring_fold(query, snapshot.database, COUNTING)
            fraction = semiring_fold(query, snapshot.database, FRACTION)
            return snapshot.epoch, view, fresh, counting, fraction

        batches = []
        reads = []

        def admitted_read(engine):
            """Submit one read, waiting out admission-control sheds: every
            read races the queued ones, the last one too (``drain`` waits
            for writes only)."""
            while True:
                try:
                    return engine.read(snapshot_read)
                except OverloadError as overload:
                    time.sleep(overload.retry_after)

        # compact_min=4 forces frequent compactions under the readers.
        with scoped_backend(backend), ServingEngine(
            query, readers=3, compact_min=4
        ) as engine:
            engine.execute(database, driver=driver)
            reads.append(engine.read(snapshot_read))
            applied = dict(initial)
            for index in range(self.BATCHES):
                name = ("R", "S", "T")[index % 3]
                ins, dels = random_batch(rng, applied[name], domain=18)
                applied[name] = (applied[name] | set(ins)) - set(dels)
                batches.append((name, ins, dels))
                engine.submit({name: (ins, dels)})
                for _ in range(self.READS_PER_BATCH):
                    reads.append(admitted_read(engine))
            engine.drain()
            reads.append(admitted_read(engine))
            observed = [future.result() for future in reads]
            assert engine.stats.compactions > 0

        # Within every read: the maintained view served is bit-identical to
        # the from-scratch recompute over the same pinned snapshot.
        for epoch, view, fresh, _, _ in observed:
            assert view == fresh, f"epoch {epoch} view != snapshot recompute"

        # Across reads: replay the batches serially and recompute at every
        # version; each concurrent read must match its pinned version.
        replay = IncrementalQueryEngine(query)
        replay_db = Database(
            [
                Relation(name, dict(
                    R=("A", "B"), S=("B", "C"), T=("A", "C")
                )[name], sorted(rows))
                for name, rows in initial.items()
            ]
        )
        oracle = {}
        with replay:
            replay.execute(replay_db, driver=driver)
            oracle[0] = (
                fresh_join_rows(query, replay.database()),
                semiring_fold(query, replay.database(), COUNTING),
                semiring_fold(query, replay.database(), FRACTION),
            )
            for epoch, (name, ins, dels) in enumerate(batches, start=1):
                replay.insert(name, ins)
                replay.delete(name, dels)
                replay.refresh()
                oracle[epoch] = (
                    fresh_join_rows(query, replay.database()),
                    semiring_fold(query, replay.database(), COUNTING),
                    semiring_fold(query, replay.database(), FRACTION),
                )
        epochs_seen = set()
        for epoch, view, _, counting, fraction in observed:
            expected_rows, expected_count, expected_fraction = oracle[epoch]
            assert view == expected_rows
            assert counting == expected_count
            assert fraction == expected_fraction
            assert all(
                isinstance(value, Fraction)
                for value in fraction.values()
            )
            epochs_seen.add(epoch)
        assert 0 in epochs_seen and self.BATCHES in epochs_seen


class TestSnapshotIsolationThreaded:
    """Free-running reader threads against the writer (no request pacing)."""

    def test_hammering_readers_always_see_consistent_epochs(self):
        rng = random.Random(stable_seed("serving", "hammer"))
        query = triangle_query()
        database = make_database(query, rng, size=60, domain=18)
        failures = []
        done = threading.Event()

        with ServingEngine(query, readers=2, compact_min=4) as engine:
            engine.execute(database)

            def hammer():
                local = 0
                while not done.is_set() or local == 0:
                    local += 1
                    with engine.snapshot() as snapshot:
                        fresh = fresh_join_rows(query, snapshot.database)
                        view = snapshot.result().relation.code_rows
                        if view != fresh:
                            failures.append(snapshot.epoch)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            applied = {
                relation.name: set(relation.tuples) for relation in database
            }
            for index in range(10):
                name = ("R", "S", "T")[index % 3]
                ins, dels = random_batch(rng, applied[name], domain=18)
                applied[name] = (applied[name] | set(ins)) - set(dels)
                engine.submit({name: (ins, dels)}).result()
            done.set()
            for thread in threads:
                thread.join()
        assert failures == []


# -- restartability from a persisted directory (satellite 2) -------------------------


@pytest.fixture
def isolated_registry():
    """Snapshot/restore the shared dictionary registry around each test."""
    saved = dict(Dictionary._registry)
    Dictionary._registry.clear()
    yield
    Dictionary._registry.clear()
    Dictionary._registry.update(saved)


class TestRestartability:
    def test_cold_start_serve_compact_checkpoint_restart(
        self, tmp_path, isolated_registry
    ):
        from repro.relational.storage import open_database_dir, save_database_dir

        rng = random.Random(stable_seed("serving", "restart"))
        query = triangle_query()
        directory = tmp_path / "db"
        save_database_dir(make_database(query, rng, size=50), directory)
        artifacts_before = {p.name for p in directory.glob("columns/*.c0")}

        # Cold start straight off the persisted directory (mmap columns).
        with ServingEngine(query, readers=2, compact_min=4) as engine:
            engine.execute(open_database_dir(directory))
            applied = {
                name: set(engine.relation(name).tuples)
                for name in ("R", "S", "T")
            }
            for index in range(6):
                name = ("R", "S", "T")[index % 3]
                ins, dels = random_batch(rng, applied[name])
                applied[name] = (applied[name] | set(ins)) - set(dels)
                engine.submit({name: (ins, dels)}).result()
            assert engine.stats.compactions > 0
            final_rows = engine.read().result().relation.code_rows
            final_tuples = {
                name: set(engine.relation(name).tuples)
                for name in ("R", "S", "T")
            }
            engine.checkpoint(directory)

        # Compaction persisted new digest-named artifacts via store.ensure.
        artifacts_after = {p.name for p in directory.glob("columns/*.c0")}
        assert artifacts_after - artifacts_before

        # Restart: a fresh engine cold-starts on the checkpointed state.
        Dictionary.reset_registry()
        with ServingEngine(query, readers=2) as engine:
            restarted = engine.execute(open_database_dir(directory))
            assert {
                name: set(engine.relation(name).tuples)
                for name in ("R", "S", "T")
            } == final_tuples
            assert len(restarted.relation.code_rows) == len(final_rows)
            ins, dels = random_batch(
                rng, set(engine.relation("R").tuples)
            )
            receipt = engine.submit({"R": (ins, dels)}).result()
            assert receipt.epoch == 1
            view = engine.read().result().relation.code_rows
            assert view == fresh_join_rows(query, engine.database())


# -- the CLI arm ---------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class TestServeConcurrentCLI:
    STATEMENT = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"

    def _data_dir(self, tmp_path):
        rng = random.Random(stable_seed("serving", "cli"))
        data = tmp_path / "data"
        data.mkdir()
        for name, header in (
            ("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
        ):
            _write_csv(
                data / f"{name}.csv", header,
                sorted(random_rows(rng, 40, domain=10)),
            )
        return data

    def _changes_dir(self, tmp_path, data):
        rng = random.Random(stable_seed("serving", "cli-feed"))
        changes = tmp_path / "changes"
        changes.mkdir()
        for index, (name, header) in enumerate(
            (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")))
        ):
            with open(data / f"{name}.csv") as handle:
                reader = csv.reader(handle)
                next(reader)
                existing = [tuple(map(int, row)) for row in reader]
            rows = [("+", rng.randrange(10, 20), rng.randrange(10, 20))
                    for _ in range(4)]
            rows += [("-",) + row for row in existing[:2]]
            _write_csv(
                changes / f"{name}.{index:02d}.changes.csv",
                ("op",) + header, rows,
            )
        return changes

    def test_concurrent_arm_agrees_with_serial_arm(self, tmp_path, capsys):
        data = self._data_dir(tmp_path)
        changes = self._changes_dir(tmp_path, data)
        args = [
            "serve", self.STATEMENT,
            "--data", str(data), "--changes", str(changes),
        ]
        assert main(args + ["--apply-deltas"]) == 0
        serial = capsys.readouterr().out
        serial_counts = re.findall(r"batch \d+ .*?: (\d+) rows", serial)

        assert main(
            args + ["--concurrent", "--readers", "2", "--stats"]
        ) == 0
        concurrent = capsys.readouterr().out
        assert "reader(s) + 1 writer" in concurrent
        served = re.search(r"served Q: (\d+) rows at epoch (\d+)", concurrent)
        assert served is not None
        assert served.group(1) == serial_counts[-1]
        assert served.group(2) == "3"
        assert re.search(r"reads: \d+ served \(\d+ shed\), p50 ", concurrent)
        assert re.search(r"batches/s sustained", concurrent)
        assert re.search(r"snapshot epochs: spread mean ", concurrent)

    def test_feed_streams_one_batch_at_a_time(self, tmp_path, capsys):
        """A malformed later feed file must not block the first batch:
        the feed is consumed lazily, so batch 0 applies (and prints)
        before the bad file is even parsed."""
        data = self._data_dir(tmp_path)
        changes = tmp_path / "changes"
        changes.mkdir()
        _write_csv(changes / "R.00.changes.csv", ("op", "A", "B"),
                   [("+", 90, 90)])
        (changes / "S.01.changes.csv").write_text("not,a,feed\n1,2,3\n")
        rc = main([
            "serve", self.STATEMENT,
            "--data", str(data), "--changes", str(changes), "--apply-deltas",
        ])
        assert rc == 2
        out = capsys.readouterr().out
        assert re.search(r"batch 0 \[R \+1/-0\]", out)

    def test_iter_change_feed_is_lazy(self, tmp_path):
        import inspect

        from repro.relational.io import iter_change_feed, load_change_feed

        changes = tmp_path / "changes"
        changes.mkdir()
        _write_csv(changes / "R.00.changes.csv", ("op", "A", "B"),
                   [("+", 1, 2)])
        feed = iter_change_feed(changes)
        assert inspect.isgenerator(feed)
        assert load_change_feed(changes) == list(iter_change_feed(changes))
