"""The request broker: one writer thread, a pool of snapshot readers.

:class:`SnapshotServer` turns an :class:`IncrementalQueryEngine` into a
long-lived concurrent front end:

* **Writes** (:meth:`submit_write`) enqueue change batches onto a bounded
  queue consumed by the single writer thread, which funnels them through
  the IVM path (``insert``/``delete``/``refresh``), then publishes the new
  epoch into the :class:`~repro.serving.snapshot.SnapshotRegistry`.  The
  writer thread is the *only* thread that ever mutates the engine or its
  version logs — including pin/unpin bookkeeping for retired epochs — so
  the whole maintenance stack stays single-threaded underneath a
  concurrent facade.
* **Reads** (:meth:`submit_read`) run on a thread pool; each read pins the
  current epoch, evaluates against the immutable snapshot (the maintained
  view by default, or any caller-supplied function of the snapshot), and
  releases the pin.  Readers share nothing mutable with the writer beyond
  the registry's short critical sections, so read latency is decoupled
  from batch commit latency up to GIL interleaving.

Threads do not inherit the caller's context, so :meth:`SnapshotServer.start`
captures the caller's execution backend
(:func:`~repro.relational.backend.current_backend`) and the writer loop and
every reader task run under it.

Admission control (:class:`~repro.serving.admission.AdmissionController`)
sheds requests over the queue/in-flight bounds with ``retry_after``; every
admitted request records its latency, and every read records the
snapshot-epoch spread (current epoch minus pinned epoch) — the staleness
a concurrent reader actually observed.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exceptions import ServingError
from repro.relational.backend import current_backend, scoped_backend
from repro.serving.admission import AdmissionController, MetricSeries
from repro.serving.snapshot import EpochState, Snapshot, SnapshotRegistry

__all__ = ["SnapshotServer", "WriteReceipt"]

_STOP = object()


@dataclass(frozen=True)
class WriteReceipt:
    """What a committed write batch resolved to."""

    epoch: int  #: the epoch the batch committed as (engine version)
    changed: bool  #: False when the batch validated to a net no-op
    latency: float  #: seconds from admission to commit


class SnapshotServer:
    """Thread-pool request broker over one incremental engine.

    Construct with a *bound, materialized* engine (the facade in
    :mod:`repro.serving.engine` handles that), then :meth:`start` with the
    materialization result to publish epoch 0 and spin up the threads.
    """

    def __init__(
        self,
        engine,
        driver: str = "generic",
        readers: int = 4,
        admission: AdmissionController | None = None,
    ) -> None:
        self.engine = engine
        self.driver = driver
        self.readers = readers  # validated by ServingEngine, its one caller
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.registry = SnapshotRegistry()
        self.read_latency = MetricSeries()
        self.write_latency = MetricSeries()
        self.epoch_spread = MetricSeries()
        self.started_at: float | None = None
        self._queue: queue.Queue = queue.Queue()
        self._writer: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._backend: str | None = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self, initial_result) -> None:
        """Publish epoch 0 from ``initial_result`` and start the threads."""
        if self._running:
            raise ServingError("server is already running")
        # The initial publish runs on the caller's thread — the writer
        # thread does not exist yet, so single-threaded log access holds.
        self._publish(initial_result)
        self._backend = current_backend()
        self._pool = ThreadPoolExecutor(
            max_workers=self.readers, thread_name_prefix="repro-serve-read"
        )
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-write", daemon=True
        )
        self._running = True
        self.started_at = time.perf_counter()
        self._writer.start()

    def close(self) -> None:
        """Drain the write queue, stop the threads, drop every epoch pin."""
        if not self._running:
            return
        self._running = False
        self._queue.put(_STOP)
        self._writer.join()
        self._pool.shutdown(wait=True)
        for state in self.registry.close():
            self._unpin(state)

    # -- requests ----------------------------------------------------------------

    def submit_write(
        self, changes: Mapping[str, tuple], timestamp: float | None = None
    ) -> Future:
        """Enqueue one write batch; resolves to a :class:`WriteReceipt`.

        ``changes`` maps relation names to ``(inserts, deletes)`` value-row
        sequences.  Sheds with :class:`OverloadError` when the queue is
        full; a batch that fails validation resolves the future with the
        :class:`~repro.exceptions.DeltaError` and leaves every view at the
        previous epoch (the engine discards the bad batch wholesale).
        """
        self._require_running()
        self.admission.enter_write_queue()
        future: Future = Future()
        submitted = time.perf_counter() if timestamp is None else timestamp
        self._queue.put(("write", changes, future, submitted))
        return future

    def submit_read(
        self, fn: Callable[[Snapshot], object] | None = None
    ) -> Future:
        """Admit one read onto the reader pool.

        The read pins the current epoch and evaluates ``fn(snapshot)``
        (default: the maintained view as a ``PlanResult``).  Sheds with
        :class:`OverloadError` when too many reads are in flight.
        """
        self._require_running()
        self.admission.enter_read()
        submitted = time.perf_counter()
        try:
            return self._pool.submit(self._run_read, fn, submitted)
        except BaseException:
            self.admission.exit_read()
            raise

    def submit_task(self, fn: Callable[[object], object]) -> Future:
        """Run ``fn(engine)`` on the writer thread, serialized with writes.

        The queue is FIFO, so a no-op task doubles as a write barrier;
        checkpointing uses this to see a quiescent engine.
        """
        self._require_running()
        future: Future = Future()
        self._queue.put(("task", fn, future, time.perf_counter()))
        return future

    def _require_running(self) -> None:
        if not self._running:
            raise ServingError(
                "server is not running — call execute()/start() first"
            )

    # -- reader side -------------------------------------------------------------

    def _run_read(self, fn, submitted: float):
        try:
            with scoped_backend(self._backend), self.registry.pin() as snapshot:
                value = snapshot.result() if fn is None else fn(snapshot)
            self.read_latency.record(time.perf_counter() - submitted)
            self.epoch_spread.record(
                self.registry.current_epoch - snapshot.epoch
            )
            return value
        finally:
            self.admission.exit_read()

    # -- writer side -------------------------------------------------------------

    def _writer_loop(self) -> None:
        with scoped_backend(self._backend):
            while True:
                item = self._queue.get()
                if item is _STOP:
                    break
                kind, payload, future, submitted = item
                if not future.set_running_or_notify_cancel():
                    if kind == "write":
                        self.admission.exit_write_queue()
                    continue
                if kind == "task":
                    try:
                        future.set_result(payload(self.engine))
                    except BaseException as error:
                        future.set_exception(error)
                    continue
                try:
                    receipt = self._apply_write(payload, submitted)
                except BaseException as error:
                    # Bad batch (DeltaError etc.): validation happens before
                    # anything mutates, so nothing was applied — drop the
                    # buffered changes and keep serving at the old epoch.
                    self.engine.discard_pending()
                    future.set_exception(error)
                else:
                    future.set_result(receipt)
                finally:
                    self.admission.exit_write_queue()

    def _apply_write(self, changes, submitted: float) -> WriteReceipt:
        engine = self.engine
        for name in sorted(changes):
            inserts, deletes = changes[name]
            if inserts:
                engine.insert(name, inserts)
            if deletes:
                engine.delete(name, deletes)
        before = engine.version
        result = engine.refresh(driver=self.driver)
        changed = engine.version != before
        if changed:
            self._publish(result)
        latency = time.perf_counter() - submitted
        self.write_latency.record(latency)
        return WriteReceipt(
            epoch=engine.version, changed=changed, latency=latency
        )

    def _publish(self, result) -> None:
        """Pin the engine's current versions and install them as an epoch.

        Writer thread only (or the caller's thread in :meth:`start`,
        before the writer exists).  Also drains the registry's retired
        epochs and drops their log pins — the deferred-unpin half of the
        compaction liveness contract.
        """
        engine = self.engine
        versions: dict[str, int] = {}
        relations: dict = {}
        for name in engine.relation_names:
            log = engine.relation_log(name)
            version = log.pin()
            versions[name] = version
            relations[name] = log.snapshot(version)
        state = EpochState(
            epoch=engine.version,
            versions=versions,
            relations=relations,
            view=result.relation,
            boolean=result.boolean,
        )
        for retired in self.registry.publish(state):
            self._unpin(retired)

    def _unpin(self, state: EpochState) -> None:
        engine = self.engine
        for name, version in state.versions.items():
            engine.relation_log(name).unpin(version)

    # -- introspection -----------------------------------------------------------

    def metrics(self) -> dict:
        """Latency/spread summaries, admission counters, epoch bounds."""
        elapsed = (
            0.0
            if self.started_at is None
            else time.perf_counter() - self.started_at
        )
        return {
            "current_epoch": self.registry.current_epoch,
            "oldest_live_epoch": self.registry.oldest_live_epoch(),
            "elapsed": elapsed,
            "read_latency": self.read_latency.summary(),
            "write_latency": self.write_latency.summary(),
            "epoch_spread": self.epoch_spread.summary(),
            "admission": self.admission.counters(),
        }
