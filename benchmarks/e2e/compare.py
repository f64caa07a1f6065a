#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric x workload): both values, the ratio B/A
(base: A), and a verdict under the metric's bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — B differs from A by more than the bound *and* by
  more than the run-to-run spread;
* ``unresolved`` — the spread is wider than the bound, so a difference of
  the bound's size could not have been seen;
* ``same`` — otherwise.

The spread is the distance between the quartiles the reported statistic
would show over repeated runs, estimated from the run's own ``n`` samples
and relative to the statistic: ``1.25 * IQR / sqrt(n)`` for the medians
(``setup_s``, ``op_p50_s``), ``1.35 * stdev / sqrt(n)`` for the mean
(``cold_s``); both for roughly normal timings.
Exits 1 on any ``worse`` or any rise in ``fail_share``; refuses ``--quick``
results, whose sizes are not the benchmark's.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import mean, median, quantiles, stdev

ROOT = Path(__file__).resolve().parent.parent.parent


def spread_of(metric: str, samples: list) -> float:
    if len(samples) < 4:
        return 0.0
    if metric == "cold_s":
        return 1.35 * stdev(samples) / math.sqrt(len(samples)) / mean(samples)
    q1, _, q3 = quantiles(samples, n=4)
    return 1.25 * (q3 - q1) / math.sqrt(len(samples)) / median(samples)


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if a <= 0 or b <= 0:
        return "unresolved"
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if abs(worsening) > max(bound, spread):
        return "worse" if worsening > 0 else "better"
    return "unresolved" if spread > bound else "same"


def compare(first: dict, second: dict, end_to_end: list) -> tuple[list, bool]:
    rows, failed = [], False
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"].get(name)
        if b is None:
            continue
        for metric in end_to_end:
            key = metric["name"]
            spread = max(spread_of(key, side.get("samples", {}).get(key, [])) for side in (a, b))
            x, y = a["metrics"][key], b["metrics"][key]
            result = verdict(x, y, metric["better"], metric["bound"], spread)
            failed |= result == "worse"
            ratio = y / x if x else math.nan
            rows.append((name, key, metric["unit"], x, y, ratio, metric["bound"], spread, result))
        rose = b["fail_share"] > a["fail_share"]
        failed |= rose
        rows.append(
            (name, "fail_share", "ratio", a["fail_share"], b["fail_share"], math.nan, 0.0, 0.0,
             "worse" if rose else "same")
        )
    return rows, failed


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    for path, document in zip(argv, (first, second)):
        if document.get("quick") or document.get("traced"):
            print(f"error: {path} is a --quick or --traced result", file=sys.stderr)
            return 2
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows, failed = compare(first, second, end_to_end)
    print(f"{'workload':<12} {'metric':<12} {'unit':<5} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    for name, key, unit, x, y, ratio, bound, spread, result in rows:
        print(f"{name:<12} {key:<12} {unit:<5} {x:>12.6g} {y:>12.6g} "
              f"{ratio:>7.3f} {bound:>6.2f} {spread:>7.3f}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
