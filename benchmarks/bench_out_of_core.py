"""Out-of-core gate: a 10^7-tuple triangle join under a memory ceiling.

The tentpole claim of the persisted-directory storage layer
(:mod:`repro.relational.storage`) is that *nothing above it needs the data
on a heap*: column artifacts are mmap'd files the OS pages in on demand, so
both ingest and join must run in a process whose **private heap is capped
well below the on-disk data size** — and still produce results bit-identical
to the in-heap engine.

Three phases, one contract:

1. **Ingest under the ceiling** (fresh subprocess, ``resource.setrlimit``
   applied before heavy imports): the skewed triangle workload — R(A,B) at
   ``OOC_SCALE`` (default 10^7) tuples, S(B,C)/T(A,C) at 1% of that, with
   1000 planted triangles — streams through
   :class:`~repro.relational.storage.ColumnFileWriter` in 10^5-row sorted
   chunks.  The writer never holds more than one chunk.
2. **Join under the ceiling** (fresh subprocess, same cap): open the
   persisted directory (mmap columns, lazy dictionaries) and run the serial
   Generic Join.  The parent independently regenerates the workload
   *in-heap* (no ceiling) and cross-checks both the per-relation ingest
   digests and the join-result digest bit-for-bit.
3. **Zero-byte rebind** (parent): a 2-worker
   :class:`~repro.planner.QueryEngine` with ``workers=2`` binds the persisted
   database — the pool must ship **file references only** (zero column
   bytes), and re-opening + re-executing against the unchanged directory
   must ship nothing further.  Gated exactly, not approximately.

Why ``RLIMIT_DATA`` and not ``RLIMIT_AS``: the address-space limit counts
mmap'd *file* regions, so capping it below the data size would make the
maps themselves fail — the opposite of what "out of core" means.  On Linux
>= 4.7 ``RLIMIT_DATA`` covers brk plus private anonymous mappings (the
process *heap*, including Python object memory and numpy buffers) while
shared file-backed maps stay exempt: exactly the "your algorithms may not
hold the data, the OS page cache may" boundary this bench enforces.  Peak
RSS (``ru_maxrss``) *does* include resident file pages, so it is reported
in the artifact for trend-watching but not asserted against the ceiling.

The ceiling is enforced whenever it clears ``OOC_ENFORCE_MIN`` (default
112 MiB — comfortably above the ~60 MiB python+numpy baseline heap, and
cleared by the default scale's ~123 MiB ceiling); at toy scales the cap
would be smaller than the interpreter itself, so it is recorded as
unenforced in the artifact rather than silently passing.

Measurements go to ``benchmarks/out/bench_out_of_core.json`` (env
``OOC_BENCH_JSON`` overrides) for the perf-trajectory gate: the committed
baseline pins ``data_over_ceiling`` (floor) and ``rebind_column_bytes``
(ceiling 0).
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SCALE = int(os.environ.get("OOC_SCALE", str(10**7)))
#: Small-relation share: S and T are 0.5% of R, so the generic-join
#: frontier (and the vectorized kernel's candidate-block scratch, which is
#: proportional to it) stays bounded by the small inputs while R dominates
#: the on-disk bytes.
SMALL = max(16, SCALE // 200)
DOMAIN = max(64, SCALE // 10)
PLANTED = min(1000, DOMAIN // 4)
CHUNK_ROWS = 10**5
SEED = 0x00C0FFEE
CEILING_SHARE = 0.75
ENFORCE_MIN = int(os.environ.get("OOC_ENFORCE_MIN", str(112 * 2**20)))

_REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _REPO_SRC not in sys.path:  # subprocess mode runs this file directly
    sys.path.insert(0, _REPO_SRC)


# -- deterministic workload (shared by all phases/processes) ------------------------


def _planted_in(lo: int, hi: int):
    """The planted-triangle anchors a_k = k * step falling in [lo, hi)."""
    import numpy as np

    step = DOMAIN // PLANTED
    first = -(-lo // step)  # ceil
    last = (hi - 1) // step
    if first > last:
        return np.empty(0, dtype=np.int64)
    anchors = np.arange(first, last + 1, dtype=np.int64) * step
    return anchors[anchors + 2 < DOMAIN]  # b = a+1, c = a+2 must fit


def _sorted_dedup(a, b):
    import numpy as np

    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


def r_chunks():
    """R(A,B): ``SCALE`` rows in sorted chunks over disjoint A-ranges.

    Chunk ``i`` draws its A values from ``[i*W, (i+1)*W)``, so chunks are
    globally sorted and duplicate-free by construction — the streaming
    writer's exact block contract — and any phase can regenerate the same
    relation chunk-by-chunk without ever holding it whole.
    """
    import numpy as np

    chunks = max(1, SCALE // CHUNK_ROWS)
    width = DOMAIN // chunks
    per_chunk = SCALE // chunks
    for i in range(chunks):
        rng = np.random.default_rng(SEED + i)
        lo = i * width
        hi = DOMAIN if i == chunks - 1 else (i + 1) * width
        a = rng.integers(lo, hi, per_chunk, dtype=np.int64)
        b = rng.integers(0, DOMAIN, per_chunk, dtype=np.int64)
        anchors = _planted_in(lo, hi)
        a = np.concatenate([a, anchors])
        b = np.concatenate([b, anchors + 1])
        yield _sorted_dedup(a, b)


def s_rows():
    """S(B,C): the 1%-sized second edge, planted (a+1, a+2) included."""
    import numpy as np

    rng = np.random.default_rng(SEED + 10**6)
    b = rng.integers(0, DOMAIN, SMALL, dtype=np.int64)
    c = rng.integers(0, DOMAIN, SMALL, dtype=np.int64)
    anchors = _planted_in(0, DOMAIN)
    return _sorted_dedup(
        np.concatenate([b, anchors + 1]), np.concatenate([c, anchors + 2])
    )


def t_rows():
    """T(A,C): the 1%-sized closing edge, planted (a, a+2) included."""
    import numpy as np

    rng = np.random.default_rng(SEED + 2 * 10**6)
    a = rng.integers(0, DOMAIN, SMALL, dtype=np.int64)
    c = rng.integers(0, DOMAIN, SMALL, dtype=np.int64)
    anchors = _planted_in(0, DOMAIN)
    return _sorted_dedup(
        np.concatenate([a, anchors]), np.concatenate([c, anchors + 2])
    )


SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")}


def _apply_ceiling(ceiling: int) -> bool:
    """Cap the private heap (soft ``RLIMIT_DATA``) if the cap is sane."""
    if ceiling < ENFORCE_MIN:
        return False
    soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
    resource.setrlimit(resource.RLIMIT_DATA, (ceiling, hard))
    return True


def _report(payload: dict) -> None:
    payload["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("OOC-RESULT " + json.dumps(payload))


# -- subprocess phases --------------------------------------------------------------


def phase_ingest(directory: str, ceiling: int) -> None:
    """Stream the workload into a persisted database directory."""
    enforced = _apply_ceiling(ceiling)
    start = time.perf_counter()
    from repro.relational.storage import (
        COLUMNS_SUBDIR,
        ColumnStore,
        write_dictionary_file,
        write_manifest,
    )

    root = Path(directory)
    store = ColumnStore(root / COLUMNS_SUBDIR)
    relations = {}
    for name, blocks in (
        ("R", r_chunks()),
        ("S", [s_rows()]),
        ("T", [t_rows()]),
    ):
        schema = SCHEMAS[name]
        with store.writer(schema) as writer:
            for block in blocks:
                writer.append_block(block)
            digest, _, nrows = writer.finalize()
        relations[name] = {
            "schema": list(schema),
            "nrows": nrows,
            "digest": digest,
        }
    attributes = {}
    for attribute in ("A", "B", "C"):
        filename = f"dicts/{attribute}.json"
        # Identity dictionaries (value k gets code k): the workload is
        # born encoded, so ingest never holds a value list either.
        count = write_dictionary_file(root / filename, iter(range(DOMAIN)))
        attributes[attribute] = {"count": count, "file": filename}
    write_manifest(root, relations, attributes)
    _report(
        {
            "phase": "ingest",
            "enforced": enforced,
            "seconds": round(time.perf_counter() - start, 3),
            "relations": relations,
        }
    )


def phase_join(directory: str, ceiling: int) -> None:
    """Open the persisted directory and triangle-join it serially."""
    enforced = _apply_ceiling(ceiling)
    start = time.perf_counter()
    from repro.relational import generic_join
    from repro.relational.storage import open_database_dir

    database = open_database_dir(directory)
    relations = [database[name] for name in ("R", "S", "T")]
    result = generic_join(relations, ("A", "B", "C"))
    column_set = result.column_set(("A", "B", "C"))
    _report(
        {
            "phase": "join",
            "enforced": enforced,
            "seconds": round(time.perf_counter() - start, 3),
            "output_rows": column_set.nrows,
            "output_digest": column_set.content_digest(),
        }
    )


def _run_phase(phase: str, directory: Path, ceiling: int) -> dict:
    """Run one ceiling phase in a fresh subprocess; parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["OOC_SCALE"] = str(SCALE)
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), phase,
         str(directory), str(ceiling)],
        capture_output=True,
        text=True,
        env=env,
    )
    if completed.returncode != 0:
        raise AssertionError(
            f"{phase} phase failed under the {ceiling // 2**20} MiB ceiling "
            f"(a layer is holding the data on-heap?):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    for line in completed.stdout.splitlines():
        if line.startswith("OOC-RESULT "):
            return json.loads(line[len("OOC-RESULT "):])
    raise AssertionError(f"{phase} phase produced no report:\n{completed.stdout}")


# -- the gate -----------------------------------------------------------------------


def _in_heap_reference():
    """The same workload as heap relations, and its serial join digest."""
    import numpy as np

    from repro.relational import Database, Relation, generic_join

    columns = {}
    r_parts = list(r_chunks())
    columns["R"] = tuple(
        np.concatenate([part[i] for part in r_parts]) for i in range(2)
    )
    columns["S"] = s_rows()
    columns["T"] = t_rows()
    relations = {
        name: Relation.from_columns(name, SCHEMAS[name], columns[name])
        for name in ("R", "S", "T")
    }
    digests = {
        name: relation.column_set(relation.schema).content_digest()
        for name, relation in relations.items()
    }
    start = time.perf_counter()
    result = generic_join(
        [relations[n] for n in ("R", "S", "T")], ("A", "B", "C")
    )
    seconds = time.perf_counter() - start
    column_set = result.column_set(("A", "B", "C"))
    return (
        Database(relations.values()),
        digests,
        column_set.content_digest(),
        column_set.nrows,
        seconds,
    )


def test_out_of_core_triangle(tmp_path):
    """Gate: persisted 10^7-tuple triangle joins under the ceiling,
    bit-identical to in-heap, and warm rebinds ship zero column bytes."""
    from _bench_utils import artifact_path, print_table

    directory = tmp_path / "ooc-db"
    directory.mkdir()

    # The ceiling is fixed from the *predicted* data size so the ingest
    # phase cannot cheat by measuring after the fact; the artifact records
    # the actual on-disk bytes (dedup makes them a hair smaller).
    predicted = (SCALE + 2 * SMALL) * 16
    ceiling = int(predicted * CEILING_SHARE)

    ingest = _run_phase("ingest", directory, ceiling)
    on_disk = sum(
        path.stat().st_size for path in (directory / "columns").iterdir()
    )
    assert on_disk > ceiling or not ingest["enforced"], (
        f"ceiling {ceiling} is not below the on-disk data {on_disk}"
    )

    database, heap_digests, heap_join_digest, heap_rows, heap_seconds = (
        _in_heap_reference()
    )
    for name, meta in ingest["relations"].items():
        assert meta["digest"] == heap_digests[name], (
            f"streamed ingest of {name} diverged from the in-heap build"
        )

    join = _run_phase("join", directory, ceiling)
    assert join["output_digest"] == heap_join_digest, (
        "out-of-core join result diverged from the in-heap engine"
    )
    assert join["output_rows"] == heap_rows
    assert join["output_rows"] >= PLANTED  # the planted triangles are there

    # Phase 3: pooled bind against the persisted directory ships file
    # references only, and a warm rebind ships nothing at all.
    del database  # keep the fork light: the reference heap is done
    from repro.datalog.atoms import Atom
    from repro.datalog.conjunctive import ConjunctiveQuery
    from repro.planner import QueryEngine
    from repro.relational.storage import open_database_dir

    query = ConjunctiveQuery.full(
        (Atom("R", ("A", "B")), Atom("S", ("B", "C")), Atom("T", ("A", "C"))),
        name="ooc_triangle",
    )
    start = time.perf_counter()
    opened = open_database_dir(directory)
    cold_open_s = time.perf_counter() - start
    with QueryEngine(query, workers=2) as engine:
        start = time.perf_counter()
        pooled = engine.execute(opened, driver="generic")
        pooled_s = time.perf_counter() - start
        shipping = dict(engine.shipping_stats)
        assert shipping["column_bytes"] == 0, (
            f"file-backed bind shipped {shipping['column_bytes']} column "
            f"bytes; expected file references only"
        )
        assert shipping["file_refs"] == 3
        rebound = open_database_dir(directory)
        engine.execute(rebound, driver="generic")
        assert engine.shipping_stats == shipping, (
            "warm rebind against an unchanged directory shipped data"
        )
    pooled_set = pooled.relation.column_set(("A", "B", "C"))
    assert pooled_set.content_digest() == heap_join_digest

    rows = [
        ["ingest (capped)", f"{on_disk / 2**20:.0f} MiB",
         ingest["seconds"], f"{ingest['ru_maxrss_kb'] / 1024:.0f} MiB"],
        ["join (capped)", f"{join['output_rows']} rows",
         join["seconds"], f"{join['ru_maxrss_kb'] / 1024:.0f} MiB"],
        ["join (in-heap ref)", f"{heap_rows} rows",
         round(heap_seconds, 3), "-"],
        ["pooled bind+join", "0 column bytes shipped",
         round(pooled_s, 3), "-"],
    ]
    enforced = ingest["enforced"] and join["enforced"]
    print_table(
        f"Out-of-core triangle @ {SCALE} tuples, ceiling "
        f"{ceiling / 2**20:.0f} MiB ({'enforced' if enforced else 'UNENFORCED'})",
        ["phase", "size", "seconds", "peak RSS"],
        rows,
    )

    payload = {
        "benchmark": "out_of_core",
        "scale": SCALE,
        "ceiling_bytes": ceiling,
        "ceiling_enforced": enforced,
        "results": [
            {
                "workload": f"triangle/{SCALE}",
                "on_disk_bytes": on_disk,
                "data_over_ceiling": round(on_disk / ceiling, 4),
                "rebind_column_bytes": shipping["column_bytes"],
                "file_refs": shipping["file_refs"],
                "output_rows": join["output_rows"],
                "ingest_s": ingest["seconds"],
                "ingest_peak_rss_kb": ingest["ru_maxrss_kb"],
                "join_s": join["seconds"],
                "join_peak_rss_kb": join["ru_maxrss_kb"],
                "heap_join_s": round(heap_seconds, 3),
                "cold_open_s": round(cold_open_s, 4),
                "pooled_join_s": round(pooled_s, 3),
            }
        ],
    }
    json_path = artifact_path(
        "bench_out_of_core.json", os.environ.get("OOC_BENCH_JSON")
    )
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"perf artifact written to {json_path}")


if __name__ == "__main__":
    mode, target, cap = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "ingest":
        phase_ingest(target, cap)
    elif mode == "join":
        phase_join(target, cap)
    else:  # pragma: no cover - driver typo guard
        raise SystemExit(f"unknown phase {mode!r}")
