#!/usr/bin/env python3
"""Cold ``alpha`` runs, the frozen-sample build peak and the root solves.

    python3 bench/rootfinder.py --out BENCH_rootfinder.json
    python3 bench/rootfinder.py --src ../parent/src --out BENCH_rootfinder_parent.json

Measures, on rank1gauss (seed 7):

- ``heavytail alpha`` (d = 2, b = 8, eta = 1.5, 2e5 samples, 2 workers) in a
  fresh process per run: the wall time from interpreter start to exit and
  the process's peak RSS, ``--repeats`` runs (at least 7 here), with the
  sha256 of the CSV each run wrote;
- the ``FirstColumnSample`` build's ``tracemalloc`` peak at d = 2 / 16 / 64
  (b = 8 / 8 / 32, 2e5 draws, one worker);
- ``solve_alpha`` and ``solve_xi1`` on a built 2e5-draw d = 2 sample from a
  fresh xi, timed as in ``frozen_moments.py``.

Timed rows and the JSON record are those of ``frozen_moments.py``: every
time, the median and quartiles, the machine and the sha256 of the
``heavytail`` sources. The package is imported from ``--src``, and the
fresh processes run it from there too, so one copy of this script measures
two checkouts alike. It is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from frozen_moments import D_SWEEP, ROOT, SEED, parse_args, record, time_rows

ALPHA_ARGV = ["alpha", "--model", "rank1gauss", "--d", "2", "--b", "8", "--eta", "1.5",
              "--samples", "200000", "--seed", str(SEED), "--workers", "2"]
_RUN_CLI = ("import sys; sys.path.insert(0, sys.argv[1]); from heavytail import cli; "
            "sys.exit(cli.main(sys.argv[2:]))")


def cold_alpha(src: Path, runs: int) -> dict:
    """Wall time and peak RSS of ``runs`` fresh ``alpha`` processes."""
    walls, rss, digests = [], [], set()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "alpha.csv"
        for _ in range(runs):
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", _RUN_CLI, str(src.resolve()),
                                     *ALPHA_ARGV, "--out", str(out)],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(time.perf_counter() - t0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
            if proc.returncode:
                raise RuntimeError(f"alpha exited {proc.returncode}")
            rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    (w1, w, w3), (r1, r, r3) = (statistics.quantiles(v, n=4) for v in (walls, rss))
    print(f"cold alpha, {runs} fresh processes: {w:.3f} s [{w1:.3f}, {w3:.3f}], "
          f"peak RSS {r:.1f} MiB [{r1:.1f}, {r3:.1f}]")
    return {"argv": ALPHA_ARGV, "runs": runs, "wall_median_s": w, "wall_q1_s": w1,
            "wall_q3_s": w3, "wall_s": walls, "peak_rss_median_mib": r,
            "peak_rss_q1_mib": r1, "peak_rss_q3_mib": r3, "peak_rss_mib": rss,
            "csv_sha256": sorted(digests)}


def build_peaks(ht) -> list[dict]:
    """The tracemalloc peak of one ``FirstColumnSample`` build per (d, b)."""
    peaks = []
    for d, b in D_SWEEP:
        spec = ht.models.rank1_gauss(d, b, 1.5)
        tracemalloc.start()
        ht.spectral.FirstColumnSample(spec, 200_000, SEED, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        peaks.append({"d": d, "b": b, "draws": 200_000, "peak_mib": peak / 2**20})
        print(f"build peak, d = {d:<3} 2e+05 draws, b = {b:<2} {peak / 2**20:9.1f} MiB")
    return peaks


def rows(ht):
    """The ``solve_alpha`` and ``solve_xi1`` rows of ``frozen_moments.py``."""
    spec = ht.models.rank1_gauss(2, 8, 1.5)
    cols = ht.spectral.FirstColumnSample(spec, 200_000, SEED, 1)

    def at_new_xi():
        cols.v(0.0)  # each thread keeps one xi: this evicts the last one
        return cols

    return [("solve_alpha, new xi", "2e+05 draws", at_new_xi,
             lambda c: ht.tailsolver.solve_alpha(c, xi=spec.xi)),
            ("solve_xi1, new xi", "2e+05 draws", at_new_xi, ht.tailsolver.solve_xi1)]


def main(argv=None) -> int:
    args = parse_args(argv, __doc__.splitlines()[0], ROOT / "BENCH_rootfinder.json")
    cold = cold_alpha(args.src, max(args.repeats, 7))
    import heavytail.models
    import heavytail.spectral
    import heavytail.tailsolver

    peaks = build_peaks(heavytail)
    out = record("rootfinder", args, time_rows(rows(heavytail), args.repeats))
    out["cold_alpha"] = cold
    out["build_peak"] = peaks
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
