"""Concurrent serving under mixed traffic: the ISSUE-9 throughput gate.

A 90/10 read/write workload (nine snapshot reads per write batch, the
classic serving mix) against the triangle query at 10^5 tuples per
relation.  Three arms over the *same* batch sequence:

* **concurrent** — :class:`~repro.serving.ServingEngine`: one writer
  thread funnels batches through IVM and publishes MVCC epochs while a
  reader pool serves snapshot-pinned reads.  The arm the gate measures.
* **serial-recompute** — what the serial ``repro serve`` loop (no
  ``--apply-deltas``) does per batch: apply the changes, recompute the
  join from scratch, then answer the nine reads off the result.
* **serial-maintain** — the serial ``--apply-deltas`` loop: IVM refresh
  per batch, reads off the maintained view.  Recorded for honesty: it is
  the concurrent arm minus threads, so the gap between the two is the
  serving overhead.

Gates: concurrent sustained batches/sec >= ``SERVING_MIN_RATIO`` x the
serial-recompute loop (default 1.0 — the broker must at least keep pace
with the recompute loop while *also* serving 9x read traffic), and p99
snapshot-read latency under ``SERVING_P99_CEILING_S``.  Exactness rides
along: every read's view digest must match every other read at the same
epoch, and the final epoch's view is cross-checked bit-identical against
a from-scratch Generic Join.

Measurements go to a JSON perf artifact under ``benchmarks/out/`` (env
``SERVING_BENCH_JSON`` overrides) for the perf-trajectory gate.
"""

import json
import os
import random
import time
import zlib

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import OverloadError
from repro.incremental import IncrementalQueryEngine
from repro.relational import Database, Relation, generic_join
from repro.serving import ServingEngine
from repro.serving.admission import percentile

from _bench_utils import artifact_path, print_table

MIN_RATIO = float(os.environ.get("SERVING_MIN_RATIO", "1.0"))
P99_CEILING_S = float(os.environ.get("SERVING_P99_CEILING_S", "0.25"))
SCALE = int(os.environ.get("SERVING_BENCH_SCALE", str(10**5)))
BATCHES = int(os.environ.get("SERVING_BENCH_BATCHES", "5"))
READERS = int(os.environ.get("SERVING_BENCH_READERS", "4"))
READS_PER_WRITE = 9  # the 90/10 mix
DELTA_SHARE = float(os.environ.get("SERVING_BENCH_DELTA", "0.01"))
JSON_PATH = artifact_path(
    "serving_mixed_traffic.json", os.environ.get("SERVING_BENCH_JSON")
)

ATOMS = (Atom("R", ("A", "B")), Atom("S", ("B", "C")), Atom("T", ("A", "C")))
QUERY = ConjunctiveQuery.full(ATOMS, name="triangle")
ORDER = tuple(sorted(QUERY.variable_set))


def _uniform_rows(rng, n, domain):
    rows = set()
    while len(rows) < n:
        rows.add((rng.randrange(domain), rng.randrange(domain)))
    return rows


def _workload(rng, n):
    # Average degree ~20: the density of the ledger's serve_mixed triangle.
    domain = max(8, n // 20)
    database = Database(
        [Relation(a.name, a.variables, _uniform_rows(rng, n, domain)) for a in ATOMS]
    )
    return database, domain


def _batch_plan(rng, database, domain, batches, per_relation):
    """Pre-generate the shared batch sequence (identical across arms)."""
    live = {r.name: set(r.tuples) for r in database}
    half = max(1, per_relation // 2)
    plan = []
    for _ in range(batches):
        changes = {}
        for atom in ATOMS:
            inserts = set()
            while len(inserts) < half:
                row = (rng.randrange(domain), rng.randrange(domain))
                if row not in live[atom.name]:
                    inserts.add(row)
            deletes = rng.sample(sorted(live[atom.name]), half)
            live[atom.name] = (live[atom.name] | inserts) - set(deletes)
            changes[atom.name] = (sorted(inserts), deletes)
        plan.append(changes)
    return plan


def _view_digest(code_rows) -> int:
    return zlib.crc32(repr(code_rows).encode())


def _run_concurrent(database, plan):
    """The gated arm: submit batches, nine snapshot reads per batch."""
    read_records = []

    def snapshot_read(snapshot):
        view = snapshot.result().relation.code_rows
        return snapshot.epoch, _view_digest(view), len(view)

    with ServingEngine(QUERY, readers=READERS) as engine:
        start = time.perf_counter()
        engine.execute(database)
        cold_s = time.perf_counter() - start

        futures = []
        start = time.perf_counter()
        for changes in plan:
            engine.submit(changes)
            for _ in range(READS_PER_WRITE):
                while True:
                    try:
                        futures.append(engine.read(snapshot_read))
                        break
                    except OverloadError as overload:
                        time.sleep(overload.retry_after)
        engine.drain()
        elapsed = time.perf_counter() - start
        read_records = [f.result() for f in futures]
        metrics = engine.metrics()

        # Exactness: the final epoch's served view is bit-identical to a
        # from-scratch recompute over the final database.
        final = engine.read().result().relation.code_rows
        bindings = [atom.bind(engine.database()) for atom in QUERY.body]
        oracle = generic_join(bindings, ORDER).code_rows
        assert final == oracle, "served view diverged from recompute"
        final_digest = _view_digest(final)
        final_epoch = engine.current_epoch

    # Cross-reader consistency: one digest per epoch, no torn reads.
    by_epoch = {}
    for epoch, digest, _ in read_records:
        by_epoch.setdefault(epoch, set()).add(digest)
    torn = {epoch for epoch, digests in by_epoch.items() if len(digests) > 1}
    assert not torn, f"divergent views within epochs {sorted(torn)}"
    assert by_epoch.get(final_epoch, {final_digest}) == {final_digest}

    latencies = metrics["read_latency"]
    return {
        "arm": "concurrent",
        "materialize_s": round(cold_s, 4),
        "batches_per_sec": round(len(plan) / elapsed, 2),
        "elapsed_s": round(elapsed, 4),
        "reads_served": len(read_records),
        "read_p50_s": latencies["p50"],
        "read_p99_s": latencies["p99"],
        "epoch_spread_max": metrics["epoch_spread"]["max"],
        "epochs_read": sorted(by_epoch),
        "sheds": metrics["admission"]["reads_shed"]
        + metrics["admission"]["writes_shed"],
    }


def _run_serial_recompute(database, plan):
    """What serial ``repro serve`` does: full recompute per batch."""
    live = {r.name: set(r.tuples) for r in database}
    read_latencies = []
    start = time.perf_counter()
    for changes in plan:
        for name, (inserts, deletes) in sorted(changes.items()):
            live[name] = (live[name] | set(inserts)) - set(deletes)
        current = Database(
            [Relation(a.name, a.variables, sorted(live[a.name])) for a in ATOMS]
        )
        bindings = [atom.bind(current) for atom in QUERY.body]
        view = generic_join(bindings, ORDER)
        for _ in range(READS_PER_WRITE):
            t0 = time.perf_counter()
            _ = len(view.code_rows)
            read_latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {
        "arm": "serial-recompute",
        "batches_per_sec": round(len(plan) / elapsed, 2),
        "elapsed_s": round(elapsed, 4),
        "read_p99_s": percentile(read_latencies, 0.99),
    }


def _run_serial_maintain(database, plan):
    """The serial ``--apply-deltas`` loop: IVM refresh per batch."""
    read_latencies = []
    with IncrementalQueryEngine(QUERY) as engine:
        engine.execute(database)
        start = time.perf_counter()
        for changes in plan:
            for name, (inserts, deletes) in sorted(changes.items()):
                engine.insert(name, inserts)
                engine.delete(name, deletes)
            result = engine.refresh()
            for _ in range(READS_PER_WRITE):
                t0 = time.perf_counter()
                _ = len(result.relation.code_rows)
                read_latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
    return {
        "arm": "serial-maintain",
        "batches_per_sec": round(len(plan) / elapsed, 2),
        "elapsed_s": round(elapsed, 4),
        "read_p99_s": percentile(read_latencies, 0.99),
    }


def test_serving_mixed_traffic(benchmark):
    """Gate: concurrent serving keeps pace with the serial batch loop."""
    rng = random.Random(0x5E12)
    database, domain = _workload(rng, SCALE)
    per_relation = max(2, int(SCALE * DELTA_SHARE))
    plan = _batch_plan(rng, database, domain, BATCHES, per_relation)

    concurrent = _run_concurrent(database, plan)
    recompute = _run_serial_recompute(database, plan)
    maintain = _run_serial_maintain(database, plan)
    results = [concurrent, recompute, maintain]

    ratio = round(
        concurrent["batches_per_sec"] / recompute["batches_per_sec"], 2
    )
    print_table(
        f"Mixed 90/10 traffic @ {SCALE} tuples, {BATCHES} batches, "
        f"{READERS} readers",
        ["arm", "batches/s", "elapsed s", "read p99 ms"],
        [
            [
                r["arm"],
                r["batches_per_sec"],
                r["elapsed_s"],
                round(r["read_p99_s"] * 1e3, 3),
            ]
            for r in results
        ],
    )
    print(
        f"concurrent/serial-recompute throughput ratio: {ratio}x "
        f"(gate >= {MIN_RATIO}x); reads served "
        f"{concurrent['reads_served']}, sheds {concurrent['sheds']}, "
        f"max epoch spread {concurrent['epoch_spread_max']}"
    )

    payload = {
        "benchmark": "serving_mixed_traffic",
        "min_ratio_gate": MIN_RATIO,
        "p99_ceiling_s": P99_CEILING_S,
        "scale": SCALE,
        "readers": READERS,
        "reads_per_write": READS_PER_WRITE,
        "throughput_ratio": ratio,
        "results": results,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"perf artifact written to {JSON_PATH}")

    assert ratio >= MIN_RATIO, (
        f"concurrent serving at {concurrent['batches_per_sec']} batches/s "
        f"fell below {MIN_RATIO}x the serial recompute loop "
        f"({recompute['batches_per_sec']} batches/s)"
    )
    assert concurrent["read_p99_s"] <= P99_CEILING_S, (
        f"p99 snapshot-read latency {concurrent['read_p99_s']:.4f}s over "
        f"the {P99_CEILING_S}s ceiling"
    )

    # One steady-state mixed round at 10^4 as the tracked benchmark body.
    small_db, small_domain = _workload(rng, SCALE // 10)
    small_per = max(2, int(SCALE // 10 * DELTA_SHARE))
    engine = ServingEngine(QUERY, readers=READERS)
    engine.execute(small_db)

    def one_round():
        batch = _batch_plan(rng, engine.database(), small_domain, 1, small_per)
        engine.submit(batch[0])
        futures = [
            engine.read(lambda s: s.epoch) for _ in range(READS_PER_WRITE)
        ]
        engine.drain()
        return [f.result() for f in futures]

    try:
        benchmark(one_round)
    finally:
        engine.close()
