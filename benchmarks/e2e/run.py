#!/usr/bin/env python3
"""End-to-end, per-layer performance benchmark (see README.md beside this file).

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--traced] [--quick] [--out P]

runs the seven workloads of ``workloads.py`` one after another, each in a
fresh subprocess, checks every output against the oracle of ``gen.py`` and
prints every metric by name with its unit.  The driver form

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for about ``S`` seconds and prints, as its last line,
the JSON object ``BENCHMARK.json``'s contract asks for.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # the workload subprocess's "first line"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

#: Fresh subprocesses per measurement.  Each sets up, runs one cold op and the
#: workload's warm ops; samples are pooled.  Timings differ from process to
#: process (memory placement, what the collector happens to traverse) by more
#: than ops differ within one, so several short processes repeat better than
#: one long one.
PROCESSES = 5
QUICK_PROCESSES = 3  # --quick: one warm op in each, "3 ops"
CHILD_TIMEOUT_S = 150.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the workload subprocess ---------------------------------------------------------


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def guarded(call, *args) -> bool:
    """One operation: an exception is a failed op, not a dead benchmark."""
    try:
        return bool(call(*args))
    except Exception:
        traceback.print_exc()
        return False


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``VmHWM`` rather than ``ru_maxrss`` for this process: on Linux the latter
    starts at the resident set the *harness* had when it forked us, so a
    harness that has just generated inputs would show up in every workload.
    """
    try:
        status = Path("/proc/self/status").read_text()
        own = int(status.split("VmHWM:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    inputs = Path(args.inputs)
    workload = WORKLOADS[args.child](inputs, json.loads((inputs / "meta.json").read_text()))
    ops = 1 if args.quick else workload.ops
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
        from repro.relational.backend import current_backend

        emit({"setup_s": setup_s, "backend": current_backend(), "planned": 1 + ops})
        if args.mode == "bench":
            bench(workload, ops, args.seconds)
        else:
            trace(workload, ops, args.seconds, args.child)
    finally:
        workload.cleanup()
    emit({"done": True, "peak_rss_mb": peak_rss_mb()})
    return 0


def bench(workload, ops: int, seconds: float) -> None:
    start = time.perf_counter()
    ok = guarded(workload.cold)
    emit({"cold_s": time.perf_counter() - start, "ok": ok})
    gc.collect()
    loop_start = time.perf_counter()
    for i in range(ops):
        start = time.perf_counter()
        if start - loop_start >= seconds:
            break
        ok = guarded(workload.op, i)
        emit({"op_s": time.perf_counter() - start, "ok": ok})
    emit({"loop_s": time.perf_counter() - loop_start})


def trace(workload, ops: int, seconds: float, name: str) -> None:
    """Untraced and traced ops side by side (a third of a run's ops in all),
    then the workload's layer probes."""
    from spans import Tracer

    tr = Tracer()
    with tr.span("cold"):
        ok = guarded(workload.cold)
    emit({"cold_s": tr.durations("cold")[0], "ok": ok})
    gc.collect()
    plain = []
    loop_start = time.perf_counter()
    step = 0
    for i in range(max(2, ops * PROCESSES // 6)):
        start = time.perf_counter()
        if start - loop_start >= seconds:
            break
        ok = guarded(workload.op, step)
        plain.append(time.perf_counter() - start)
        emit({"op_s": plain[-1], "ok": ok})
        tr.op = i
        ok = guarded(workload.traced_op, step + 1, tr)
        emit({"op_s": tr.durations("op")[-1], "ok": ok})
        step += 2
    tr.op = -1
    metrics = workload.probes(tr)
    metrics["bench.trace_overhead"] = tr.p50("op") / median(plain) - 1.0
    # Share of the traced op its layer spans (the replay's, where the op can be
    # replayed as separate layer calls) do not account for: the engine's glue.
    parts = "replay" if workload.has_replay else "op"
    covered = {s[4]: tr.covered(i) for i, s in enumerate(tr.spans) if s[0] == parts}
    shares = [
        covered[s[4]] / (s[2] - s[1]) for s in tr.spans if s[0] == "op" and s[4] in covered
    ]
    metrics["bench.engine_glue_share"] = 1.0 - median(shares)
    tr.write(gen.out_root() / f"e2e_trace_{name}.json", name)
    emit({"metrics": metrics, "self_s": tr.self_times()})


# -- the harness ---------------------------------------------------------------------


def run_child(workload: str, inputs: Path, mode: str, seconds: float, quick: bool, watch=None):
    """Run one workload subprocess; returns the records it printed.

    ``watch(process, record)`` sees every record as it arrives (the smoke
    test kills the process from there).  A child that dies or hangs just
    stops producing records: the caller counts the missing ops as failed.
    """
    command = [sys.executable, str(HERE / "run.py"), "--child", workload]
    command += ["--inputs", str(inputs), "--mode", mode, "--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    records = []
    # Its own process group, so that pool workers die with it.
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as process:
        kill = lambda: os.killpg(process.pid, signal.SIGKILL)  # noqa: E731
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            for line in process.stdout:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a stray print of the program under test
                if isinstance(record, dict):
                    records.append(record)
                    if watch is not None:
                        watch(process, record)
        finally:
            timer.cancel()
            try:
                kill()
            except ProcessLookupError:
                pass
            process.wait()
    return records


def first(records: list, key: str, default=None):
    return next((r[key] for r in records if key in r), default)


def tally(records: list) -> tuple[int, int]:
    """``(attempted, failed)``; ops a dead child never ran count as failed."""
    done = [r for r in records if "ok" in r]
    failed = sum(1 for r in done if not r["ok"])
    if first(records, "done"):
        return max(1, len(done)), failed
    planned = max(first(records, "planned", 1), len(done) + 1)
    return planned, failed + planned - len(done)


def measure(workload: str, seed: int, seconds: float, quick: bool = False, watch=None) -> dict:
    """The end-to-end metrics of one workload (tracing off)."""
    inputs = gen.ensure_inputs(workload, seed, quick)
    processes = QUICK_PROCESSES if quick else PROCESSES
    runs = [
        run_child(workload, inputs, "bench", seconds / processes, quick, watch)
        for _ in range(processes)
    ]
    records = [record for run in runs for record in run]
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    cold = [r["cold_s"] for r in records if "cold_s" in r]
    ops = [r["op_s"] for r in records if "op_s" in r]
    attempted, failed = map(sum, zip(*map(tally, runs)))
    loop_s = sum(r["loop_s"] for r in records if "loop_s" in r)
    metrics = {
        "setup_s": median(setups) if setups else 0.0,
        # The mean, not the median: there is one cold op per process, and a
        # first op on this box has two modes (a pool's workers come up evenly
        # or one late; the collector does or does not pass over the loaded
        # heap).  Which mode is likelier drifts over minutes; the median or the
        # minimum of five jumps between modes, their mean moves smoothly.
        "cold_s": mean(cold) if cold else 0.0,
        "op_p50_s": median(ops) if ops else 0.0,
        "ops_per_s": len(ops) / loop_s if loop_s else 0.0,
        "peak_rss_mb": max((r["peak_rss_mb"] for r in records if "peak_rss_mb" in r), default=0.0),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "backend": first(records, "backend", "?"),
        "samples": {"setup_s": setups, "cold_s": cold, "op_p50_s": ops},
    }


def measure_traced(workload: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The per-layer metrics one workload owns (tracing on)."""
    inputs = gen.ensure_inputs(workload, seed, quick)
    records = run_child(workload, inputs, "trace", seconds, quick)
    attempted, failed = tally(records)
    metrics = first(records, "metrics")
    if metrics is None:  # the probes died: the run as a whole failed
        metrics, failed = {}, max(failed, 1)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "backend": first(records, "backend", "?"),
        "self_s": first(records, "self_s", {}),
    }


# -- reporting -----------------------------------------------------------------------


def print_report(name: str, result: dict, units: dict) -> None:
    print(f"\n== {name}  (backend {result['backend']}, "
          f"{result['attempted']} ops attempted, {result['failed']} failed)")
    samples = result.get("samples", {})
    for metric, value in result["metrics"].items():
        count = f"  n={len(samples[metric])}" if metric in samples else ""
        print(f"  {metric:<40} {value:>14.6g} {units.get(metric, ''):<6}{count}")
    print(f"  {'fail_share':<40} {result['fail_share']:>14.6g} ratio")
    self_s = result.get("self_s")
    if self_s:
        print("  self time by span (s): "
              + ", ".join(f"{k}={v:.3f}" for k, v in list(self_s.items())[:8]))


def contract_line(result: dict, names: list, units: dict) -> str:
    metrics = {
        name: {"value": result["metrics"].get(name, 0.0), "unit": units[name]} for name in names
    }
    complete = all(name in result["metrics"] for name in names)
    return json.dumps(
        {
            "correct": result["failed"] == 0 and complete,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--traced", action="store_true", help="per-layer run (spans on)")
    parser.add_argument("--quick", action="store_true", help="smoke sizes: N/50, 3 ops")
    parser.add_argument("--out", help="write the results as JSON here")
    parser.add_argument("--seconds", type=float, help="driver form: time box of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form of --traced")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--mode", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    benchmark = spec()
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    traced = args.traced or args.trace == 1
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return driver_run(args, benchmark, units, traced)

    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    results = {}
    for name in names:
        run = measure_traced if traced else measure
        results[name] = run(name, args.seed, math.inf, args.quick)
        print_report(name, results[name], units)
    document = {
        "seed": args.seed,
        "quick": args.quick,
        "traced": traced,
        "python": sys.version.split()[0],
        "workloads": results,
    }
    out = Path(args.out) if args.out else gen.out_root() / (
        "e2e_traced.json" if traced else "e2e_results.json"
    )
    out.write_text(json.dumps(document, indent=1))
    print(f"\nresults written to {out}")
    return 1 if any(r["failed"] for r in results.values()) else 0


def driver_run(args, benchmark: dict, units: dict, traced: bool) -> int:
    """One workload, time-boxed; the contract's JSON object is the last line."""
    if not traced:
        result = measure(args.workload, args.seed, args.seconds, args.quick)
        names = [m["name"] for m in benchmark["end_to_end"]]
    else:
        # A traced run must report every per-layer metric, but each belongs
        # to one workload.  This workload's own are measured at full size;
        # the others' come from their owners at --quick size (a smoke
        # reading: compare such a value only with the same workload's).
        result = measure_traced(args.workload, args.seed, args.seconds / 2, args.quick)
        for other in (w["name"] for w in benchmark["workloads"]):
            if other != args.workload:
                filler = measure_traced(other, args.seed, args.seconds / 2, quick=True)
                result["failed"] += filler["failed"]
                result["attempted"] += filler["attempted"]
                for name, value in filler["metrics"].items():
                    if not name.startswith("bench."):
                        result["metrics"][name] = value
        names = [m["name"] for m in benchmark["per_layer"]]
    result["fail_share"] = result["failed"] / result["attempted"]
    print_report(args.workload, result, units)
    print(contract_line(result, names, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
