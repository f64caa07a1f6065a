"""Smoke test of the e2e benchmark: ``pytest benchmarks/e2e -q`` (< 30 s).

Not part of tier-1 (``testpaths = ["tests"]``).  Runs every workload once at
``--quick`` size, untraced and traced, and checks the harness's own
promises: metric names, oracle checking, and survival of a dead subprocess.
"""

import json
import math
import re
import shutil

import pytest

import compare
import gen
import run
import workloads

SEED = 7
SPEC = run.spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def untraced():
    return {name: run.measure(name, SEED, math.inf, quick=True) for name in NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: run.measure_traced(name, SEED, math.inf, quick=True) for name in NAMES}


def test_workload_lists_agree():
    assert NAMES == list(gen.WORKLOADS) == list(workloads.WORKLOADS)


def test_every_workload_emits_every_end_to_end_metric(untraced):
    wanted = {m["name"] for m in SPEC["end_to_end"]}
    for name, result in untraced.items():
        assert set(result["metrics"]) == wanted, name
        assert all(value > 0 for value in result["metrics"].values()), (name, result)
        assert result["attempted"] == 2 * run.QUICK_PROCESSES, (name, result)
        assert result["failed"] == 0, (name, result)


def test_per_layer_names_are_exactly_the_declared_set(traced):
    emitted = set()
    for name, result in traced.items():
        assert result["failed"] == 0, (name, result)
        assert not emitted & set(result["metrics"]) - {
            "bench.trace_overhead",
            "bench.engine_glue_share",
        }, f"{name} re-emits another workload's metric"
        emitted |= set(result["metrics"])
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_names_are_plain():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(pattern.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_trace_file_is_chrome_trace_format(traced):
    for name in NAMES:
        events = json.loads((gen.out_root() / f"e2e_trace_{name}.json").read_text())
        spans = [e for e in events["traceEvents"] if e["ph"] == "X"]
        assert spans and all({"name", "ts", "dur", "args"} <= set(e) for e in spans)
        ids = {e["args"]["id"] for e in spans}
        assert all(e["args"]["parent"] in ids | {None} for e in spans)


def test_corrupted_row_is_a_failed_op(tmp_path):
    rows = [(1, 2, 3), (4, 5, 6)]
    answer = {"rows": 2, "digest": gen.digest_rows(rows)}
    assert workloads.matches(rows, answer)
    assert not workloads.matches([(1, 2, 3), (4, 5, 7)], answer)
    # End to end: an oracle answer the program's output no longer matches.
    inputs = tmp_path / "tri_wcoj-corrupt"
    shutil.copytree(gen.ensure_inputs("tri_wcoj", SEED, quick=True), inputs)
    meta = json.loads((inputs / "meta.json").read_text())
    meta["answer"]["digest"] ^= 1
    (inputs / "meta.json").write_text(json.dumps(meta))
    attempted, failed = run.tally(run.run_child("tri_wcoj", inputs, "bench", math.inf, True))
    assert failed == attempted > 0


def test_killed_subprocess_yields_failed_ops():
    def kill_after_cold_op(process, record):
        if "cold_s" in record:
            process.kill()

    result = run.measure("plan_cold", SEED, math.inf, quick=True, watch=kill_after_cold_op)
    # Per subprocess: the cold op succeeded, the one warm op never ran.
    assert result["attempted"] == 2 * run.QUICK_PROCESSES
    assert result["failed"] == run.QUICK_PROCESSES
    assert result["fail_share"] == 0.5


def test_compare_verdicts_and_quick_refusal(untraced, tmp_path, capsys):
    assert compare.verdict(1.0, 1.05, "lower", 0.10, 0.0) == "same"
    assert compare.verdict(1.0, 1.20, "lower", 0.10, 0.0) == "worse"
    assert compare.verdict(1.0, 0.80, "lower", 0.10, 0.0) == "better"
    assert compare.verdict(1.0, 0.80, "higher", 0.10, 0.0) == "worse"
    assert compare.verdict(1.0, 1.12, "lower", 0.10, 0.15) == "unresolved"
    document = {"quick": False, "traced": False, "workloads": untraced}
    rows, failed = compare.compare(document, document, SPEC["end_to_end"])
    assert not failed and {row[-1] for row in rows} <= {"same", "unresolved"}
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(dict(document, quick=True)))
    assert compare.main([str(path), str(path)]) == 2
    assert "quick" in capsys.readouterr().err
