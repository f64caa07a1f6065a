"""Seeded input generators and the independent oracle of the e2e benchmark.

Everything here is plain stdlib Python and imports nothing from ``src/``:
the program under test only ever sees the files written below, and the
answers it is checked against come from hash joins / BFS written here,
not from any engine of the repository.

Inputs are cached under ``benchmarks/out/e2e_inputs/<workload>-<seed>/``
(gitignored) together with the oracle's answers in ``meta.json``; a
directory is reused only when its recorded ``GENERATOR_VERSION`` matches.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import zlib
from pathlib import Path

__all__ = ["GENERATOR_VERSION", "WORKLOADS", "digest_rows", "ensure_inputs", "out_root"]

#: Bump on any change to a generator or to the oracle: cached inputs of an
#: older version are regenerated.
GENERATOR_VERSION = 1

#: Size divisor of ``--quick`` (smoke) inputs.
QUICK_DIVISOR = 50

TRIANGLE = (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")))
TRIANGLE_QUERY = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
TC_PROGRAM = "path(x,y) :- edge(x,y).\npath(x,z) :- edge(x,y), path(y,z).\n"
PATH3_RULE = "T123(A1,A2,A3) | T234(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)"
CHAIN_LAYERS = 26
SERVE_CYCLES = 50  # change batches per process (serve_mixed applies them in order)
BRIDGE_BATCHES = 5


def cycle_atoms(length: int) -> tuple:
    """``R12(A1,A2), ..., R<k>1(A<k>,A1)`` — the naming ``cycle_query`` uses."""
    return tuple(
        (f"R{i + 1}{(i + 1) % length + 1}", (f"A{i + 1}", f"A{(i + 1) % length + 1}"))
        for i in range(length)
    )


def cycle_query_text(length: int) -> str:
    head = ",".join(f"A{i + 1}" for i in range(length))
    body = ", ".join(f"{name}({a},{b})" for name, (a, b) in cycle_atoms(length))
    return f"C{length}({head}) :- {body}"


def out_root() -> Path:
    """``benchmarks/out`` next to this package (created on demand)."""
    root = Path(__file__).resolve().parent.parent / "out"
    root.mkdir(parents=True, exist_ok=True)
    return root


def digest_rows(rows) -> int:
    """Order-independent digest of decoded rows (tuples of ints)."""
    return zlib.crc32(repr(sorted(rows)).encode())


# -- instance families ---------------------------------------------------------------


def sparse_digraph(rng: random.Random, nodes: int, edges: int) -> list:
    """``edges`` distinct uniformly random pairs over ``nodes`` nodes."""
    draw = rng.random  # int(draw() * n): a third of randrange's cost, same for our n
    rows: set = set()
    while len(rows) < edges:
        rows.add((int(draw() * nodes), int(draw() * nodes)))
    return _shuffled(rng, rows)


def hub_digraph(rng: random.Random, nodes: int, edges: int, hubs: int, share: float) -> list:
    """Sparse digraph in which ``share`` of the edges touch one of ``hubs`` hubs."""
    rows: set = set()
    hub_edges = int(edges * share)
    while len(rows) < hub_edges:
        hub, other = rng.randrange(hubs), rng.randrange(nodes)
        rows.add((hub, other) if rng.random() < 0.5 else (other, hub))
    while len(rows) < edges:
        rows.add((hubs + rng.randrange(nodes - hubs), hubs + rng.randrange(nodes - hubs)))
    return _shuffled(rng, rows)


def modular_cycle(rng: random.Random, length: int, size: int) -> list:
    """``length`` relations ``{(i, (a*i + b) mod m) : i < size}`` for seeded
    ``a, b`` and a prime ``m``: small fan-in, no skew.  The last map inverts the
    composition of the others, so the cycle query has exactly ``m`` answers."""
    mod = rng.choice((7, 11, 13))
    maps = [(rng.randrange(1, mod), rng.randrange(mod)) for _ in range(length - 1)]
    mult, shift = 1, 0
    for a, b in maps:
        mult, shift = a * mult % mod, (a * shift + b) % mod
    inverse = pow(mult, -1, mod)
    maps.append((inverse, -inverse * shift % mod))
    return [
        _shuffled(rng, {(i, (a * i + b) % mod) for i in range(size)}) for a, b in maps
    ]


def matching_chains(rng: random.Random, width: int, layers: int) -> tuple:
    """``width`` disjoint random chains (layered perfect matchings) and their
    node labels, layer by layer."""
    labels = list(range(width * layers))
    rng.shuffle(labels)
    rows = []
    prev = labels[:width]
    for layer in range(1, layers):
        nxt = labels[layer * width : (layer + 1) * width]
        rng.shuffle(nxt)
        rows.extend(zip(prev, nxt))
        prev = nxt
    return _shuffled(rng, rows), labels


def change_plan(rng: random.Random, relations: dict, domain: int, cycles: int, share: float):
    """Per cycle and relation: ``share/2`` fresh inserts and ``share/2`` deletes."""
    live = {name: list(rows) for name, rows in relations.items()}
    member = {name: set(rows) for name, rows in relations.items()}
    draw = rng.random
    plan = []
    for _ in range(cycles):
        batch = {}
        for name in sorted(relations):
            rows, present = live[name], member[name]
            half = max(1, int(len(rows) * share / 2))
            deletes = []
            for _ in range(half):
                at = int(draw() * len(rows))
                rows[at], rows[-1] = rows[-1], rows[at]
                deletes.append(rows.pop())
            # A row deleted in this batch stays in `present` until the batch
            # ends, so it is never re-inserted (the engine would cancel it).
            inserts: set = set()
            while len(inserts) < half:
                row = (int(draw() * domain), int(draw() * domain))
                if row not in present:
                    inserts.add(row)
            present.difference_update(deletes)
            fresh = sorted(inserts)
            present.update(fresh)
            rows.extend(fresh)
            batch[name] = (fresh, deletes)
        plan.append(batch)
    return plan


def _shuffled(rng: random.Random, rows) -> list:
    out = sorted(rows)
    rng.shuffle(out)
    return out


# -- the oracle ----------------------------------------------------------------------


def _adjacency(rows, key: int) -> dict:
    index: dict = {}
    for row in rows:
        index.setdefault(row[key], set()).add(row[1 - key])
    return index


def oracle_triangles(r, s, t) -> set:
    """``{(a,b,c)}`` with R(a,b), S(b,c), T(a,c) — hash join on set indexes."""
    s_out, t_out = _adjacency(s, 0), _adjacency(t, 0)
    empty: set = set()
    out = set()
    for a, b in r:
        for c in s_out.get(b, empty) & t_out.get(a, empty):
            out.add((a, b, c))
    return out


def oracle_cycles(relations: list) -> set:
    """Full k-cycle answers: extend paths edge by edge, close with the last."""
    outs = [_adjacency(rows, 0) for rows in relations[:-1]]
    closing = _adjacency(relations[-1], 1)  # a1 -> {a_k}
    empty: set = set()
    paths = [row for row in relations[0]]
    for out in outs[1:-1]:
        paths = [path + (nxt,) for path in paths for nxt in out.get(path[-1], empty)]
    last = outs[-1]
    answers = set()
    for path in paths:
        for end in last.get(path[-1], empty) & closing.get(path[0], empty):
            answers.add(path + (end,))
    return answers


def oracle_closure(edges) -> set:
    """Transitive closure by BFS from every source."""
    out = _adjacency(edges, 0)
    paths = set()
    for source in out:
        seen: set = set()
        frontier = list(out[source])
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(out.get(node, ()))
        paths.update((source, node) for node in seen)
    return paths


class TriangleView:
    """The triangle answer maintained under single-tuple changes (oracle side)."""

    def __init__(self, r, s, t) -> None:
        self.r_out, self.r_in = _adjacency(r, 0), _adjacency(r, 1)
        self.s_out, self.s_in = _adjacency(s, 0), _adjacency(s, 1)
        self.t_out, self.t_in = _adjacency(t, 0), _adjacency(t, 1)
        self.rows = oracle_triangles(r, s, t)

    def _touching(self, name: str, row: tuple) -> list:
        empty: set = set()
        x, y = row
        if name == "R":
            return [(x, y, c) for c in self.s_out.get(y, empty) & self.t_out.get(x, empty)]
        if name == "S":
            return [(a, x, y) for a in self.r_in.get(x, empty) & self.t_in.get(y, empty)]
        return [(x, b, y) for b in self.r_out.get(x, empty) & self.s_in.get(y, empty)]

    def apply(self, name: str, inserts, deletes) -> None:
        out, into = {
            "R": (self.r_out, self.r_in),
            "S": (self.s_out, self.s_in),
            "T": (self.t_out, self.t_in),
        }[name]
        for row in deletes:
            self.rows.difference_update(self._touching(name, row))
            out[row[0]].discard(row[1])
            into[row[1]].discard(row[0])
        for row in inserts:
            out.setdefault(row[0], set()).add(row[1])
            into.setdefault(row[1], set()).add(row[0])
            self.rows.update(self._touching(name, row))


# -- file writers --------------------------------------------------------------------


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_changes(path: Path, schema, inserts, deletes) -> None:
    rows = [("+",) + tuple(row) for row in inserts]
    rows += [("-",) + tuple(row) for row in deletes]
    _write_csv(path, ("op",) + tuple(schema), rows)


def _answer(rows) -> dict:
    return {"rows": len(rows), "digest": digest_rows(rows)}


# -- per-workload generators ---------------------------------------------------------
#
# Each takes (rng, directory, scale divisor), writes the input files and
# returns the oracle's part of meta.json.


def _gen_triangle(rng, directory: Path, nodes: int, edges: int):
    data = {name: sparse_digraph(rng, nodes, edges) for name, _ in TRIANGLE}
    (directory / "csv").mkdir()
    for name, schema in TRIANGLE:
        _write_csv(directory / "csv" / f"{name}.csv", schema, data[name])
    meta = {"query": TRIANGLE_QUERY, "tuples": edges}
    meta["answer"] = _answer(oracle_triangles(data["R"], data["S"], data["T"]))
    return meta, data


def gen_tri_wcoj(rng, directory: Path, div: int) -> dict:
    return _gen_triangle(rng, directory, max(8, 20_000 // div), 100_000 // div)[0]


def _gen_cycle(directory: Path, length: int, relations: list, sub: str = "csv") -> dict:
    (directory / sub).mkdir()
    for (name, schema), rows in zip(cycle_atoms(length), relations):
        _write_csv(directory / sub / f"{name}.csv", schema, rows)
    return {
        "query": cycle_query_text(length),
        "tuples": len(relations[0]),
        "answer": _answer(oracle_cycles(relations)),
    }


def gen_cyc4_panda(rng, directory: Path, div: int) -> dict:
    nodes, edges = max(8, 2_000 // div), 10_000 // div
    meta = _gen_cycle(directory, 4, [sparse_digraph(rng, nodes, edges) for _ in range(4)])
    # Probe input: the 3-path rule of Example 1.4 over a hub-skewed instance,
    # where Lemma 6.1's heavy/light partitioning has something to split.
    # A tenth of the workload's N: PANDA's intermediates on hubs grow fast.
    (directory / "path3").mkdir()
    hub_edges = max(100, edges // 10)
    for name, schema in cycle_atoms(4)[:3]:
        rows = hub_digraph(rng, max(40, 2 * hub_edges // 5), hub_edges, hubs=10, share=0.2)
        _write_csv(directory / "path3" / f"{name}.csv", schema, rows)
    meta["path3_rule"] = PATH3_RULE
    return meta


def gen_plan_cold(rng, directory: Path, div: int) -> dict:
    # Planning cost depends on the query, not on N: quick keeps the 40 rows.
    meta = _gen_cycle(directory, 5, modular_cycle(rng, 5, 40))
    # Probe input: one 6-cycle plan (planner.plan6_s).
    meta["cycle6"] = _gen_cycle(directory, 6, modular_cycle(rng, 6, 40), sub="csv6")
    return meta


def gen_pool_mmap(rng, directory: Path, div: int) -> dict:
    nodes, edges = max(40, 6_000 // div), 30_000 // div
    relations = [hub_digraph(rng, nodes, edges, hubs=10, share=0.2) for _ in range(4)]
    return _gen_cycle(directory, 4, relations)


def gen_serve_mixed(rng, directory: Path, div: int) -> dict:
    edges = 100_000 // div
    domain = max(8, edges // 20)
    meta, data = _gen_triangle(rng, directory, domain, edges)
    cycles = SERVE_CYCLES if div == 1 else 6
    plan = change_plan(rng, data, domain, cycles, share=0.01)
    (directory / "feed").mkdir()
    view = TriangleView(data["R"], data["S"], data["T"])
    epochs = [_answer(view.rows)]
    schemas = dict(TRIANGLE)
    for cycle, batch in enumerate(plan):
        # One sub-directory per cycle: iter_change_feed orders files by name,
        # and the name must start with the relation.
        (directory / "feed" / f"{cycle:04d}").mkdir()
        for name, (inserts, deletes) in sorted(batch.items()):
            path = directory / "feed" / f"{cycle:04d}" / f"{name}.changes.csv"
            _write_changes(path, schemas[name], inserts, deletes)
            view.apply(name, inserts, deletes)
        epochs.append(_answer(view.rows))
    meta.update(cycles=cycles, epochs=epochs)
    return meta


def gen_tc_fixpoint(rng, directory: Path, div: int) -> dict:
    width = max(4, 500 // div)
    edges, labels = matching_chains(rng, width, CHAIN_LAYERS)
    (directory / "csv").mkdir()
    _write_csv(directory / "csv" / "edge.csv", ("x", "y"), edges)
    (directory / "program.dl").write_text(TC_PROGRAM)
    paths = oracle_closure(edges)
    closed_form = width * CHAIN_LAYERS * (CHAIN_LAYERS - 1) // 2
    if len(paths) != closed_form:
        raise AssertionError(f"oracle closure {len(paths)} != closed form {closed_form}")
    # Insert-only bridge batches (1 % of the edges each) between consecutive
    # layers: the program stays monotone, so refresh() continues the fixpoint.
    (directory / "bridges").mkdir()
    present = set(edges)
    bridged = []
    for batch in range(BRIDGE_BATCHES):
        fresh: set = set()
        while len(fresh) < max(2, len(edges) // 100):
            layer = rng.randrange(CHAIN_LAYERS - 1)
            row = (
                labels[layer * width + rng.randrange(width)],
                labels[(layer + 1) * width + rng.randrange(width)],
            )
            if row not in present:
                fresh.add(row)
        present.update(fresh)
        (directory / "bridges" / f"{batch:04d}").mkdir()
        path = directory / "bridges" / f"{batch:04d}" / "edge.changes.csv"
        _write_changes(path, ("x", "y"), sorted(fresh), [])
        bridged.append(_answer(oracle_closure(present)))
    return {
        "tuples": len(edges),
        "rounds": CHAIN_LAYERS - 1,
        "answer": _answer(paths),
        "bridged": bridged,
    }


WORKLOADS = {
    "tri_wcoj": gen_tri_wcoj,
    "cyc4_panda": gen_cyc4_panda,
    "plan_cold": gen_plan_cold,
    "serve_mixed": gen_serve_mixed,
    "tc_fixpoint": gen_tc_fixpoint,
    "ingest_csv": gen_tri_wcoj,
    "pool_mmap": gen_pool_mmap,
}


def ensure_inputs(workload: str, seed: int, quick: bool = False) -> Path:
    """Generate (or reuse) the inputs of one workload; returns their directory."""
    suffix = "-quick" if quick else ""
    directory = out_root() / "e2e_inputs" / f"{workload}-{seed}{suffix}"
    meta_path = directory / "meta.json"
    if meta_path.is_file():
        try:
            if json.loads(meta_path.read_text())["generator_version"] == GENERATOR_VERSION:
                return directory
        except (ValueError, KeyError):
            pass
    staging = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    # ingest_csv reads the tri_wcoj relations: same stream, same rows.
    stream = "tri_wcoj" if workload == "ingest_csv" else workload
    rng = random.Random(f"e2e:{stream}:{seed}:{GENERATOR_VERSION}")
    meta = WORKLOADS[workload](rng, staging, QUICK_DIVISOR if quick else 1)
    meta.update(
        generator_version=GENERATOR_VERSION, workload=workload, seed=seed, quick=quick
    )
    (staging / "meta.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(directory, ignore_errors=True)
    staging.rename(directory)
    return directory
