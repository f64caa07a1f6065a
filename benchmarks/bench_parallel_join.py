"""Partition-parallel joins: wall-clock speedup over serial, outputs exact.

The parallel engine's contract is "same bits, less wall-clock": this bench
runs skewed triangle and 4-cycle workloads at 3x10^5 tuples per relation,
cross-checks every parallel output against the serial Generic Join oracle
(bit-identical sorted code rows), and gates the steady-state speedup at
``PARALLEL_MIN_SPEEDUP`` (default 2x) with ``PARALLEL_BENCH_WORKERS``
(default 4) workers.

Both arms are measured *warm* — the serial arm re-joins the same resident
relations (shared trie-node caches populated), the parallel arm re-executes
on the engine's resident worker pool (database already shipped) — so the
gated ratio isolates what parallelism itself buys, with no caching
asymmetry between the arms.  The cold first execution (pool fork + data
shipping + cold caches) is reported in the JSON alongside.

The skew matters: both instances carry a heavy hub key holding ~30% of
the rows, which a plain range partition would serialize onto one worker.  The
bench asserts the planner actually splits it (a Lemma 6.1-style heavy-key
sub-partition on the second variable), so the gate also guards the
balancing logic, not just the pool plumbing.

The wall-clock gate only applies where the hardware can parallelize: on
runners with fewer cores than workers the bench still cross-checks outputs
and records the numbers, but skips the speedup assertion (CI runs on
4-vCPU runners, where it is enforced).  Measurements go to a JSON perf
artifact under ``benchmarks/out/`` (env ``PARALLEL_BENCH_JSON``
overrides), uploaded by CI like the other perf gates.
"""

import json
import os
import time

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.parallel import plan_shards
from repro.parallel.engine import _order_tables
from repro.planner import QueryEngine
from repro.relational import Database, Relation, generic_join

from _bench_utils import artifact_path, print_table

MIN_SPEEDUP = float(os.environ.get("PARALLEL_MIN_SPEEDUP", "2.0"))
WORKERS = int(os.environ.get("PARALLEL_BENCH_WORKERS", "4"))
SCALE = int(os.environ.get("PARALLEL_BENCH_SCALE", str(3 * 10**5)))
JSON_PATH = artifact_path(
    "parallel_join_benchmark.json", os.environ.get("PARALLEL_BENCH_JSON")
)
REPS = 3


def _skew_rows(n, hub_share, spread):
    """~n rows with a heavy hub: key 0 carries a ``hub_share`` of them.

    ``spread`` is the second attribute's tail domain: small (``n // 10``)
    makes deep trie levels collide (intersection-heavy triangles), large
    (``2 * n``) keeps them distinct (scan-heavy 4-cycles).
    """
    hub = {(0, j) for j in range(int(n * hub_share))}
    tail = {
        (1 + (i * 7919) % (2 * n), (i * 104729) % spread)
        for i in range(n - len(hub))
    }
    return sorted(hub | tail)


def _triangle_workload(n):
    rows = _skew_rows(n, 0.3, n // 10)
    query = ConjunctiveQuery.full(
        (Atom("R", ("A", "B")), Atom("S", ("B", "C")), Atom("T", ("A", "C"))),
        name="triangle",
    )
    database = Database(
        [Relation(a.name, a.variables, rows) for a in query.body]
    )
    return query, database


def _cycle4_workload(n):
    rows = _skew_rows(n, 0.3, 2 * n)
    atoms = (
        Atom("R1", ("A", "B")),
        Atom("R2", ("B", "C")),
        Atom("R3", ("C", "D")),
        Atom("R4", ("D", "A")),
    )
    query = ConjunctiveQuery.full(atoms, name="four_cycle")
    database = Database(
        [Relation(a.name, a.variables, rows) for a in atoms]
    )
    return query, database


def _best(callable_, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = callable_()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def _measure(label, query, database):
    order = tuple(sorted(query.variable_set))
    relations = [atom.bind(database) for atom in query.body]

    # The skew must actually trigger the heavy-key split (same shard target
    # the engine uses: workers x its oversharding factor).
    tables = _order_tables(relations, order)
    specs = plan_shards(
        tables, order, WORKERS * QueryEngine.OVERSHARD
    )
    assert any(spec.is_heavy for spec in specs), (
        f"{label}: hub key was not detected as heavy — the skewed workload "
        f"no longer exercises the Lemma 6.1 split"
    )

    serial_s, oracle = _best(lambda: generic_join(relations, order))

    engine = QueryEngine(query, workers=WORKERS)
    try:
        cold_start = time.perf_counter()
        cold_result = engine.execute(database, driver="generic")
        cold_s = time.perf_counter() - cold_start
        assert cold_result.relation.code_rows == oracle.code_rows
        warm_s, warm_result = _best(
            lambda: engine.execute(database, driver="generic")
        )
        assert warm_result.relation.code_rows == oracle.code_rows
    finally:
        engine.close()

    return {
        "workload": label,
        "tuples_per_relation": len(relations[0]),
        "output_rows": len(oracle),
        "shards": len(specs),
        "heavy_shards": sum(1 for s in specs if s.is_heavy),
        "serial_s": round(serial_s, 4),
        "parallel_cold_s": round(cold_s, 4),
        "parallel_warm_s": round(warm_s, 4),
        "speedup_warm": round(serial_s / warm_s, 3),
    }


def test_parallel_join_speedup(benchmark):
    """Gate: warm parallel evaluation >= MIN_SPEEDUP x serial (given cores)."""
    cores = os.cpu_count() or 1
    gated = cores >= WORKERS

    results = [
        _measure("triangle/skew-hub", *_triangle_workload(SCALE)),
        _measure("4-cycle/skew-hub", *_cycle4_workload(SCALE)),
    ]

    print_table(
        f"Partition-parallel Generic Join @ {WORKERS} workers ({cores} cores)",
        ["workload", "N", "output", "shards(heavy)", "serial s",
         "warm s", "speedup"],
        [
            [
                r["workload"],
                r["tuples_per_relation"],
                r["output_rows"],
                f"{r['shards']}({r['heavy_shards']})",
                r["serial_s"],
                r["parallel_warm_s"],
                f"{r['speedup_warm']}x",
            ]
            for r in results
        ],
    )

    payload = {
        "benchmark": "parallel_join",
        "workers": WORKERS,
        "cores": cores,
        "min_speedup_gate": MIN_SPEEDUP if gated else None,
        "results": results,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"perf artifact written to {JSON_PATH}")

    if gated:
        for r in results:
            assert r["speedup_warm"] >= MIN_SPEEDUP, (
                f"{r['workload']}: parallel speedup {r['speedup_warm']}x "
                f"below the {MIN_SPEEDUP}x gate at {WORKERS} workers"
            )
    else:
        print(
            f"speedup gate skipped: {cores} core(s) < {WORKERS} workers "
            f"(outputs still cross-checked)"
        )

    query, database = _triangle_workload(SCALE // 10)
    engine = QueryEngine(query, workers=WORKERS)
    try:
        engine.execute(database, driver="generic")  # warm the pool
        benchmark(lambda: engine.execute(database, driver="generic"))
    finally:
        engine.close()
