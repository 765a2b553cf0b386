#!/usr/bin/env python3
"""Run workloads repeatedly and print the median and spread of each metric.

    python3 perfbench/steady.py --runs 10 --out .bench_out/steady.json
    python3 perfbench/steady.py --runs 1 --first-seed 3 --trace 1

Run r uses workload seed ``--first-seed + r``, so two sets made with the
same arguments use the same seeds and their output digests are comparable
(see compare.py). Each run is a fresh ``run.py`` process per workload of
BENCHMARK.json, in turn, for BENCHMARK.json's ``run_seconds``; its full
record goes into the ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records: list[dict]) -> dict[tuple[str, str], list]:
    """(workload, metric) -> [(value, unit), ...] in run order."""
    out = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                out[(rec["meta"]["workload"], name)].append((m["value"], m["unit"]))
    return out


def summarize(records: list[dict]) -> None:
    print(f"{'workload':<11} {'metric':<44} {'median':>12} {'IQR':>10} {'IQR/med':>8}  n")
    for (workload, name), vals in sorted(series(records).items()):
        values = [v for v, _ in vals]
        q1, q2, q3 = quartiles(values)
        rel = f"{(q3 - q1) / q2:8.3f}" if q2 else "     n/a"
        print(f"{workload:<11} {name:<44} {q2:12.6g} {q3 - q1:10.3g} {rel}  "
              f"{len(values)} {vals[0][1]}")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads(lines[-2][len("record "):])
    record["result"] = json.loads(lines[-1])
    return record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the records of every run here (JSON)")
    args = parser.parse_args(argv)

    records = []
    for r in range(args.runs):
        for workload in (w["name"] for w in bench["workloads"]):
            rec = run_once(workload, args.first_seed + r, bench["run_seconds"], args.trace)
            res = rec["result"]
            print(f"run {r + 1}/{args.runs} {workload}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            records.append(rec)
    summarize(records)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"records": records}))
    return 0 if all(rec["result"]["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
