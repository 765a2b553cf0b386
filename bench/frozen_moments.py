#!/usr/bin/env python3
"""Layer timings of the frozen-column evaluator and the solvers that read it.

    python3 bench/frozen_moments.py --out BENCH_frozen_columns.json
    python3 bench/frozen_moments.py --src ../parent/src --out BENCH_frozen_columns_parent.json

Times, on rank1gauss d = 2 (b = 8, eta = 1.5, xi = 0.1875 unless stated):

- the ``FirstColumnSample`` build (2e5 draws, one worker);
- one ``h`` at a new xi (v is computed) and at the xi just evaluated, at
  1e5 and 2e5 draws, s = 1.7;
- the build and one ``v`` at a new xi at d = 2 / 16 / 64 (b = 8 / 8 / 32,
  2e5 draws, one worker);
- ``h_row`` over the figures' 40-point s-grid 0.25:0.25:10 at an evaluated
  xi (1e5 draws);
- ``solve_alpha`` and ``solve_xi1`` on a built 2e5-draw sample, from a
  fresh xi;
- ``alpha_curve`` over xi 0.02:0.02:0.3 (2e5 draws, build included), on 1
  and 2 workers;
- the fig1 (b 1:1:12, eta 0.75) and fig2 (b = 5, eta 0.05:0.05:1.5)
  ``contour_grid`` calls at 1e5 draws on 2 workers, sampling included.

Each row is timed ``--repeats`` times (at least 5) with ``perf_counter``
after one untimed warm-up; the JSON holds every time, the median and the
quartiles, the machine and the sha256 of the ``heavytail`` sources timed.
It also holds the bytes that each sample of the d-sweep keeps per draw:
every array attribute with one entry per draw along its last axis.
The package is imported from ``--src`` (default: this checkout's ``src``),
so one copy of this script times two checkouts alike. It is not part of
the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

S_GRID = tuple(0.25 * k for k in range(1, 41))
XI_GRID = tuple(0.02 * k for k in range(1, 16))
D_SWEEP = ((2, 8), (16, 8), (64, 32))  # (d, b)
SEED = 7


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sources_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "heavytail").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sweep(ht):
    """(spec, built sample) for each (d, b) of ``D_SWEEP``, 2e5 draws."""
    for d, b in D_SWEEP:
        spec = ht.models.rank1_gauss(d, b, 1.5)
        yield spec, ht.spectral.FirstColumnSample(spec, 200_000, SEED, 1)


def kept_bytes(cols) -> int:
    """Bytes of the arrays a built sample keeps with one entry per draw."""
    return sum(a.nbytes for a in vars(cols).values()
               if getattr(a, "ndim", 0) and a.shape[-1] == cols.n)


def rows(ht):
    """(name, workload, prepare, timed) per row; ``prepare()`` runs untimed
    before each timing and returns the argument ``timed`` takes."""
    spectral, tailsolver, models = ht.spectral, ht.tailsolver, ht.models
    d2b8 = models.rank1_gauss(2, 8, 1.5)
    xi = d2b8.xi
    samples = {n: spectral.FirstColumnSample(d2b8, n, SEED, 1) for n in (100_000, 200_000)}

    def at_new_xi(cols):
        def prepare():
            cols.v(0.0)  # each thread keeps one xi: this evicts xi
            return cols
        return prepare

    def at_evaluated_xi(cols):
        def prepare():
            cols.h(1.0, xi)
            return cols
        return prepare

    out = [("FirstColumnSample build", "2e+05 draws, 1 worker", lambda: None,
            lambda _: spectral.FirstColumnSample(d2b8, 200_000, SEED, 1))]
    for n, cols in samples.items():
        out.append(("h, new xi", f"{n:.0e} draws, s = 1.7", at_new_xi(cols),
                    lambda c: c.h(1.7, xi)))
        out.append(("h, evaluated xi", f"{n:.0e} draws, s = 1.7", at_evaluated_xi(cols),
                    lambda c: c.h(1.7, xi)))
    for spec, cols in sweep(ht):
        workload = f"2e+05 draws, b = {spec.b}"
        out.append((f"build, d = {spec.d}", f"{workload}, 1 worker", lambda: None,
                    lambda _, spec=spec: spectral.FirstColumnSample(spec, 200_000, SEED, 1)))
        out.append((f"v, new xi, d = {spec.d}", workload, at_new_xi(cols),
                    lambda c, x=spec.xi: c.v(x)))
    out.append(("h_row, evaluated xi", "1e+05 draws, 40-point s-grid 0.25:0.25:10",
                at_evaluated_xi(samples[100_000]), lambda c: c.h_row(xi, S_GRID)))
    out.append(("solve_alpha, new xi", "2e+05 draws", at_new_xi(samples[200_000]),
                lambda c: tailsolver.solve_alpha(c, xi=xi)))
    out.append(("solve_xi1, new xi", "2e+05 draws", at_new_xi(samples[200_000]),
                tailsolver.solve_xi1))
    for workers in (1, 2):
        out.append((f"alpha_curve, {workers} worker{'s' * (workers > 1)}",
                    "2e+05 draws, xi 0.02:0.02:0.3, build included", lambda: None,
                    lambda _, w=workers: tailsolver.alpha_curve(d2b8, XI_GRID, 200_000,
                                                                SEED, w)))
    out.append(("fig1 contour_grid", "b 1:1:12, eta 0.75, 1e+05 draws, 2 workers",
                lambda: None,
                lambda _: tailsolver.contour_grid(models.rank1_gauss(2, 1, 0.75), "b",
                                                  range(1, 13), S_GRID, 100_000, SEED, 2)))
    out.append(("fig2 contour_grid", "b 5, eta 0.05:0.05:1.5, 1e+05 draws, 2 workers",
                lambda: None,
                lambda _: tailsolver.contour_grid(
                    models.rank1_gauss(2, 5, 0.75), "eta",
                    [0.05 * k for k in range(1, 31)], S_GRID, 100_000, SEED, 2)))
    return out


def parse_args(argv, description: str, default_out: Path) -> argparse.Namespace:
    """``--src``, ``--out`` and ``--repeats`` (at least 5); also sets one
    BLAS/OpenMP thread, before numpy loads (the rows name their workers), and
    puts ``--src`` first on the path, so ``import heavytail`` times it."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the heavytail package to time")
    parser.add_argument("--out", type=Path, default=default_out)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be >= 5")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.src.resolve()))
    return args


def time_rows(rows, repeats: int) -> list[dict]:
    """Every time of each (name, workload, prepare, timed) row, with the
    median and quartiles; the first run of a row is a warm-up and untimed."""
    results = []
    for name, workload, prepare, timed in rows:
        times = []
        for k in range(repeats + 1):
            arg = prepare()
            t0 = time.perf_counter()
            timed(arg)
            if k:  # the first run warms caches and lazy imports
                times.append(time.perf_counter() - t0)
        q1, median, q3 = statistics.quantiles(times, n=4)
        results.append({"name": name, "workload": workload, "median_s": median,
                        "q1_s": q1, "q3_s": q3, "times_s": times})
        print(f"{name:<26} {workload:<48} {median * 1e3:9.2f} ms "
              f"[{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]")
    return results


def record(bench: str, args: argparse.Namespace, results: list[dict]) -> dict:
    """The JSON record of a run: date, sources timed, machine and rows."""
    import numpy as np
    import scipy
    return {
        "bench": bench,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "heavytail_src_sha256": _sources_sha256(args.src),
        "repeats": args.repeats,
        "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "rows": results,
    }


def main(argv=None) -> int:
    args = parse_args(argv, __doc__.splitlines()[0], ROOT / "BENCH_frozen_moments.json")
    import heavytail.models
    import heavytail.spectral
    import heavytail.tailsolver

    results = time_rows(rows(heavytail), args.repeats)
    kept = []
    for spec, cols in sweep(heavytail):
        kept.append({"d": spec.d, "b": spec.b, "draws": cols.n, "bytes": kept_bytes(cols),
                     "bytes_per_draw": kept_bytes(cols) / cols.n})
        print(f"kept bytes, d = {spec.d:<3} {cols.n:.0e} draws, b = {spec.b:<2} "
              f"{kept[-1]['bytes'] / 2**20:9.2f} MiB ({kept[-1]['bytes_per_draw']:g} B/draw)")
    out = record("frozen_moments", args, results)
    out["kept_bytes"] = kept
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
