"""The perf-trajectory regression gate: merge, compare, fail on regression.

Every benchmark gate writes a JSON artifact under ``benchmarks/out/``; this
script folds them into one canonical ``perf_summary.json`` and compares the
extracted scalar metrics against the committed ``benchmarks/baseline.json``
with per-metric tolerance bands.  CI uploads the merged summary as the
canonical ``BENCH_*`` artifact and fails the workflow when any metric falls
outside its band — the start of the repository's performance trajectory.

Usage::

    python benchmarks/perf_trajectory.py                   # merge + compare
    python benchmarks/perf_trajectory.py --update-baseline # re-floor from now
    python benchmarks/perf_trajectory.py --strict          # missing = failure

Baseline format (``benchmarks/baseline.json``)::

    {"metrics": {"parallel_join.triangle/skew-hub.speedup_warm":
        {"floor": 2.0, "tolerance": 0.15, "note": "..."}}}

A metric regresses when ``value < floor * (1 - tolerance)`` (every tracked
metric is a speedup, so higher is better; a ``ceiling`` key with the same
tolerance semantics covers lower-is-better metrics if one is ever added).
Metrics present in the artifacts but absent from the baseline are reported
as *new* — commit them to start tracking; absent artifacts only fail under
``--strict`` (the quick CI smoke runs produce a subset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ARTIFACTS = os.path.join(BENCH_DIR, "out")
DEFAULT_BASELINE = os.path.join(BENCH_DIR, "baseline.json")
DEFAULT_SUMMARY = os.path.join(DEFAULT_ARTIFACTS, "perf_summary.json")


def _metrics_parallel(payload: dict) -> dict:
    if payload.get("min_speedup_gate") is None:
        return {}  # host had fewer cores than workers; numbers not comparable
    return {
        f"parallel_join.{entry['workload']}.speedup_warm":
            entry["speedup_warm"]
        for entry in payload.get("results", [])
    }


def _metrics_out_of_core(payload: dict) -> dict:
    if not payload.get("ceiling_enforced"):
        return {}  # toy scale: the cap was below the interpreter baseline
    metrics = {}
    for entry in payload.get("results", []):
        workload = entry["workload"]
        metrics[f"out_of_core.{workload}.data_over_ceiling"] = (
            entry["data_over_ceiling"]
        )
        metrics[f"out_of_core.{workload}.rebind_column_bytes"] = (
            entry["rebind_column_bytes"]
        )
    return metrics


#: benchmark name (the artifact's ``"benchmark"`` field) -> metric extractor.
EXTRACTORS = {
    "parallel_join": _metrics_parallel,
    "out_of_core": _metrics_out_of_core,
}


def merge_artifacts(directory: str) -> dict:
    """Fold every benchmark artifact in ``directory`` into one summary."""
    artifacts: dict = {}
    metrics: dict = {}
    if os.path.isdir(directory):
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".json") or filename == "perf_summary.json":
                continue
            path = os.path.join(directory, filename)
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                print(f"warning: skipping unreadable artifact {path}: {error}")
                continue
            name = payload.get("benchmark") or payload.get("bench")
            if not name:
                continue
            artifacts[filename] = payload
            extractor = EXTRACTORS.get(name)
            if extractor is not None:
                metrics.update(extractor(payload))
    return {"metrics": metrics, "artifacts": artifacts}


def compare(summary: dict, baseline: dict, strict: bool = False):
    """Compare summary metrics against the baseline bands.

    Returns ``(regressions, missing, fresh)`` — metric-name lists; a
    non-empty ``regressions`` (or, under ``strict``, ``missing``) fails the
    gate.
    """
    values = summary["metrics"]
    bands = baseline.get("metrics", {})
    regressions, missing, fresh = [], [], []
    for name, band in sorted(bands.items()):
        value = values.get(name)
        if value is None:
            missing.append(name)
            continue
        tolerance = float(band.get("tolerance", 0.0))
        floor = band.get("floor")
        ceiling = band.get("ceiling")
        if floor is not None and value < float(floor) * (1.0 - tolerance):
            regressions.append(
                f"{name}: {value} < floor {floor} (tolerance {tolerance:.0%})"
            )
        if ceiling is not None and value > float(ceiling) * (1.0 + tolerance):
            regressions.append(
                f"{name}: {value} > ceiling {ceiling} "
                f"(tolerance {tolerance:.0%})"
            )
    fresh = sorted(set(values) - set(bands))
    return regressions, missing, fresh


def update_baseline(summary: dict, baseline: dict) -> dict:
    """Re-floor every tracked (and new) metric from the current summary."""
    bands = dict(baseline.get("metrics", {}))
    for name, value in sorted(summary["metrics"].items()):
        band = dict(bands.get(name, {"tolerance": 0.2}))
        band["floor"] = value
        bands[name] = band
    return {"metrics": bands}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS,
                        help="directory of benchmark JSON artifacts")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline file")
    parser.add_argument("--out", default=None,
                        help="merged summary path (default "
                             "<artifacts>/perf_summary.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline floors from this run")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a tracked metric produced no value")
    args = parser.parse_args(argv)

    summary = merge_artifacts(args.artifacts)
    out_path = args.out or os.path.join(args.artifacts, "perf_summary.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(f"merged {len(summary['artifacts'])} artifact(s), "
          f"{len(summary['metrics'])} metric(s) -> {out_path}")

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        baseline = {"metrics": {}}

    if args.update_baseline:
        refreshed = update_baseline(summary, baseline)
        with open(args.baseline, "w") as handle:
            json.dump(refreshed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline re-floored: {len(refreshed['metrics'])} metric(s) "
              f"-> {args.baseline}")
        return 0

    regressions, missing, fresh = compare(summary, baseline,
                                          strict=args.strict)
    for name in fresh:
        print(f"new metric (not in baseline): {name} = "
              f"{summary['metrics'][name]}")
    for name in missing:
        print(f"{'MISSING' if args.strict else 'missing (skipped)'}: {name}")
    for line in regressions:
        print(f"REGRESSION: {line}")
    if regressions or (args.strict and missing):
        return 1
    checked = len(baseline.get("metrics", {})) - len(missing)
    print(f"perf trajectory OK: {checked} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
