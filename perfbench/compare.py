#!/usr/bin/env python3
"""Compare result sets from steady.py: the parent's against the change's.

    python3 perfbench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each side may be one set or several (one per alternating round, see
README.md); the records of a side are pooled. Both sides must hold the same
(workload, seed) runs with the same ``seconds``, ``trace`` and ``workers``;
otherwise nothing is compared and the exit code is 2. Runs are paired by
(workload, seed).

For every (workload, metric) it prints each side's median and quartiles and
better, worse, unchanged or unresolved (all metrics are lower-is-better):

- better: at least ten run pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
- unresolved: either set's IQR, as a share of its median, exceeds the
  metric's bound, unless every change run beats every parent run;
- worse: the change's median exceeds the parent's by more than the bound;
- unchanged: otherwise.

Bounds are those of BENCHMARK.json, and ``workloads.COMMAND_BOUND`` for the
per-command metrics.

Output digests and per-layer counts are compared for the same (workload,
seed, job). When both sides ran the same source (``src_sha256``) any
difference is a mismatch, as is a run pair that shares no job, and the exit
code is 1; across different sources a difference is reported as a change
and does not fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from steady import ROOT, quartiles
from tracing import UNITS
from workloads import COMMAND_BOUND, COMMAND_METRICS

COUNTS = [name for name, unit in UNITS.items() if unit == "count"]
SETTINGS = ("seconds", "trace", "workers")


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(c < p for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and pm - cm > pq3 - pq1:
        return "better"
    spread = max((pq3 - pq1) / pm if pm else 0.0, (cq3 - cq1) / cm if cm else 0.0)
    if spread > bound:
        return "unchanged" if max(change) < min(parent) else "unresolved"
    if cm > pm * (1.0 + bound):
        return "worse"
    return "unchanged"


def load(paths: list[str]) -> list[dict]:
    """The pooled records of one side, ordered by (workload, seed)."""
    records = [rec for p in paths for rec in json.loads(Path(p).read_text())["records"]]
    return sorted(records, key=lambda r: (r["meta"]["workload"], r["meta"]["seed"]))


def mismatched_runs(parent: list[dict], change: list[dict]) -> list[str]:
    """Why the two sides are not comparable run for run; empty if they are."""
    problems = []
    for side, records in (("parent", parent), ("change", change)):
        runs = [(r["meta"]["workload"], r["meta"]["seed"]) for r in records]
        if len(set(runs)) != len(runs):
            problems.append(f"{side} has a (workload, seed) run more than once")
    pruns = [(r["meta"]["workload"], r["meta"]["seed"]) for r in parent]
    cruns = [(r["meta"]["workload"], r["meta"]["seed"]) for r in change]
    if set(pruns) != set(cruns):
        problems.append(f"the sides ran different (workload, seed) runs: "
                        f"{sorted(set(pruns) ^ set(cruns))}")
    for key in SETTINGS:
        values = {json.dumps(r["meta"][key]) for r in parent + change}
        if len(values) > 1:
            problems.append(f"runs differ in {key}: {sorted(values)}")
    return problems


def paired_series(parent: list[dict], change: list[dict]) -> dict:
    """(workload, metric) -> ([parent values], [change values]), paired by seed."""
    out = defaultdict(lambda: ([], []))
    for p, c in zip(parent, change):
        for name, m in p["metrics"].items():
            cv = c["metrics"].get(name, {}).get("value")
            if m["value"] is not None and cv is not None:
                pv_list, cv_list = out[(p["meta"]["workload"], name)]
                pv_list.append(m["value"])
                cv_list.append(cv)
    return out


def _jobs(record: dict) -> dict:
    """(job index, traced) -> job."""
    return {(j["index"], j["traced"]): j for j in record["jobs"]}


def check_outputs(parent: list[dict], change: list[dict]) -> int:
    mismatches = 0
    for prec, crec in zip(parent, change):
        workload, seed = prec["meta"]["workload"], prec["meta"]["seed"]
        same = prec["meta"]["src_sha256"] == crec["meta"]["src_sha256"]
        pj, cj = _jobs(prec), _jobs(crec)
        shared = sorted(pj.keys() & cj.keys())
        if not shared and same:
            mismatches += 1
            print(f"MISMATCH (same source): {workload} seed {seed}: no job in common")
        for key in shared:
            pjob, cjob = pj[key], cj[key]
            counts = [n for n in COUNTS if n in pjob["layers"]]
            diffs = [f"digest {f}" for f in sorted(pjob["digests"].keys() | cjob["digests"].keys())
                     if pjob["digests"].get(f) != cjob["digests"].get(f)]
            diffs += [f"count {n} {pjob['layers'][n]} -> {cjob['layers'].get(n)}"
                      for n in counts if pjob["layers"][n] != cjob["layers"].get(n)]
            if not diffs:
                continue
            mismatches += same
            label = "MISMATCH (same source)" if same else "changed"
            index, traced = key
            print(f"{label}: {workload} seed {seed} job {index}"
                  f"{' traced' if traced else ''}: {'; '.join(diffs)}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="the parent's result sets")
    parser.add_argument("--change", nargs="+", required=True, help="the change's result sets")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    problems = mismatched_runs(parent, change)
    if problems:
        for problem in problems:
            print(f"not comparable: {problem}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<11} {'metric':<17} {'parent median [q1, q3]':>27} "
          f"{'change median [q1, q3]':>27} {'delta':>7} {'bound':>5}  n  verdict")
    for (workload, name), (pv, cv) in sorted(paired_series(parent, change).items()):
        bound = bounds.get(name, COMMAND_BOUND if name in COMMAND_METRICS else None)
        if bound is None:
            continue
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(pv), quartiles(cv)
        print(f"{workload:<11} {name:<17} {pm:9.4g} [{pq1:7.4g}, {pq3:7.4g}] "
              f"{cm:9.4g} [{cq1:7.4g}, {cq3:7.4g}] {(cm - pm) / pm:+7.3f} {bound:5.2f} "
              f"{len(pv):2d}  {verdict(pv, cv, bound)}")
    return 1 if check_outputs(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
