""":class:`ServingEngine` — the QueryEngine-shaped concurrent facade.

The shape matches :class:`~repro.planner.QueryEngine` and
:class:`~repro.incremental.IncrementalQueryEngine`: construct per query,
``execute(database)`` once to bind and materialize — which here also starts
the broker (one writer thread + a reader pool) — then drive it with
:meth:`submit` (write batches through the IVM path) and :meth:`read`
(snapshot-pinned concurrent reads), both returning futures.

Restartability: a database opened from a persisted directory
(:func:`~repro.relational.storage.open_database_dir`) serves straight off
its mmap-backed columns — compactions write new digest-named artifacts
through ``ColumnStore.ensure`` as they happen, and :meth:`checkpoint`
persists the current manifest/dictionaries so a later cold start resumes
from the served state.

Thread-safety notes (why this is sound under CPython):

* all engine/log mutation is confined to the writer thread (see
  :mod:`repro.serving.server`); readers only touch immutable snapshots;
* shared dictionaries are append-only, so readers decoding codes that
  existed at their pinned epoch never race the writer interning new
  values — :meth:`execute` force-hydrates lazy (mmap-backed) dictionaries
  up front so no reader triggers a first-touch load concurrently;
* lazy per-relation caches (column transposes, tries, sorted orders) are
  idempotent: concurrent duplicate computation is benign and every thread
  observes an equivalent value.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Mapping

from repro.exceptions import ServingError
from repro.incremental.engine import IncrementalQueryEngine
from repro.planner.engine import check_driver
from repro.serving.admission import AdmissionController
from repro.serving.server import SnapshotServer
from repro.serving.snapshot import Snapshot

__all__ = ["ServingEngine"]


class ServingEngine:
    """Concurrent MVCC serving over one maintained conjunctive query.

    Example:
        >>> engine = ServingEngine(triangle_query(), readers=4)  # doctest: +SKIP
        >>> engine.execute(database)              # bind, materialize, serve
        >>> done = engine.submit({"R": ([(7, 8)], [])})   # write batch
        >>> rows = engine.read().result().relation        # snapshot read
        >>> engine.close()
    """

    def __init__(
        self,
        query,
        constraints=None,
        planner=None,
        readers: int = 4,
        workers: int = 1,
        compact_ratio: float | None = None,
        compact_min: int | None = None,
        max_pending_writes: int = 256,
        max_inflight_reads: int | None = None,
        retry_after: float = 0.05,
    ) -> None:
        if readers < 1:
            raise ServingError(f"readers must be >= 1, got {readers}")
        self._engine = IncrementalQueryEngine(
            query,
            constraints=constraints,
            planner=planner,
            workers=workers,
            compact_ratio=compact_ratio,
            compact_min=compact_min,
        )
        self.query = query
        self.readers = readers
        # Default in-flight cap: a few requests queued per reader thread —
        # enough to keep the pool busy, bounded enough to shed a stampede.
        self._admission = AdmissionController(
            max_pending_writes=max_pending_writes,
            max_inflight_reads=(
                4 * self.readers
                if max_inflight_reads is None
                else max_inflight_reads
            ),
            retry_after=retry_after,
        )
        self._server: SnapshotServer | None = None

    # -- lifecycle ---------------------------------------------------------------

    def execute(self, database=None, driver: str = "generic"):
        """Bind + materialize, then start (or restart) the broker.

        Returns the epoch-0 ``PlanResult``.  Calling again re-binds and
        restarts serving (any in-flight requests on the old broker are
        drained first).
        """
        check_driver(driver)  # before the running broker is torn down
        if self._server is not None:
            self._server.close()
            self._server = None
        result = self._engine.execute(database, driver=driver)
        self._hydrate_dictionaries()
        self._server = SnapshotServer(
            self._engine,
            driver=driver,
            readers=self.readers,
            admission=self._admission,
        )
        self._server.start(result)
        return result

    def _hydrate_dictionaries(self) -> None:
        """Force lazy (mmap-backed) dictionaries resident, single-threaded.

        ``LazyDictionary`` hydrates on first access; doing that on the
        caller's thread before any reader exists removes the one shared
        structure whose first touch is not an idempotent cache fill.
        """
        for relation in self._engine.database():
            for dictionary in relation.dictionaries:
                _ = dictionary.values  # property access hydrates

    def close(self) -> None:
        """Stop the broker (draining queued writes) and the engine."""
        if self._server is not None:
            self._server.close()
            self._server = None
        self._engine.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_serving(self) -> SnapshotServer:
        if self._server is None:
            raise ServingError(
                "engine is not serving — call execute(database) first"
            )
        return self._server

    # -- requests ----------------------------------------------------------------

    def submit(self, changes: Mapping[str, tuple]) -> Future:
        """Submit one write batch ``{name: (inserts, deletes)}``.

        Resolves to a :class:`~repro.serving.server.WriteReceipt`; sheds
        with :class:`~repro.exceptions.OverloadError` under backpressure.
        """
        return self._require_serving().submit_write(changes)

    def read(self, fn: Callable[[Snapshot], object] | None = None) -> Future:
        """Submit one snapshot read (default: the maintained view).

        ``fn`` receives the pinned :class:`Snapshot` — run any query
        against ``snapshot.database``, it is epoch-consistent and
        immutable.  Sheds with :class:`OverloadError` at the in-flight cap.
        """
        return self._require_serving().submit_read(fn)

    def snapshot(self) -> Snapshot:
        """Pin the current epoch directly (caller manages release)."""
        return self._require_serving().registry.pin()

    def drain(self) -> None:
        """Barrier: block until every write submitted so far has committed."""
        self._require_serving().submit_task(_noop).result()

    def checkpoint(self, directory) -> None:
        """Persist the served database into ``directory``, quiescently.

        Runs on the writer thread behind every queued write, so the saved
        manifest reflects a committed epoch.  Compaction already wrote the
        column artifacts through ``ColumnStore.ensure`` when the database
        came from (or was saved to) that directory, making this mostly a
        manifest/dictionary rewrite.
        """
        from repro.relational.storage import save_database_dir

        server = self._require_serving()
        server.submit_task(
            lambda engine: save_database_dir(engine.database(), directory)
        ).result()

    # -- introspection -----------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        return self._require_serving().registry.current_epoch

    @property
    def stats(self):
        """Maintenance counters (single-writer; read for reporting only)."""
        return self._engine.stats

    @property
    def cache_stats(self):
        return self._engine.cache_stats

    def database(self):
        """The writer's current database view (reporting only — concurrent
        readers must go through :meth:`read`/:meth:`snapshot`)."""
        return self._engine.database()

    def relation(self, name: str):
        return self._engine.relation(name)

    def metrics(self) -> dict:
        """Serving metrics: latency/spread summaries, admission counters,
        epoch bounds, elapsed serving time, and sustained batch rate."""
        server = self._require_serving()
        report = server.metrics()
        batches = self._engine.stats.batches
        elapsed = report["elapsed"]
        report["batches_applied"] = batches
        report["batches_per_sec"] = batches / elapsed if elapsed > 0 else 0.0
        return report


def _noop(engine) -> None:
    return None
