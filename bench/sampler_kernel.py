#!/usr/bin/env python3
"""Layer timings of the coefficient sampler and the product kernel.

    python3 bench/sampler_kernel.py --out BENCH_sampler_kernel.json
    python3 bench/sampler_kernel.py --src ../parent/src --out BENCH_sampler_kernel_parent.json

Times, on rank1gauss (one worker, seed 7):

- ``sample_pairs``, 1e5 draws, at d = 2, b = 8 and at d = b = 1;
- ``sample_r_batch`` with the default stop rule on criterion 05's law
  (d = b = 1, eta = 2/3, 2.5e5 paths) and on d = 2, b = 8, eta = 1.5
  (1e5 paths): the sampler and ``ProductState.step`` in the stop-rule loop;
- ``product_log_norms``, d = 2, b = 8, eta = 0.3, n = 40, 2e4 draws;
- ``build_operator``, d = 2, b = 8, eta = 0.3, s = 1, 256 bins, 2e4 draws
  per column, one worker;
- ``heavytail simulate`` run in process through ``cli.main`` on 2 workers,
  the sampler and the CSV writer, on d = 2, b = 8, eta = 1.5 (1e5 paths,
  the benchmark's ``stationary`` job) and on criterion 05's law (2.5e5
  paths): its wall time, and in ``simulate_peak`` the ``tracemalloc`` peak
  of one more run of each, with the sha256 of the CSV it wrote.

Each row is timed and recorded as in ``frozen_moments.py``: ``--repeats``
times (at least 5) after one untimed warm-up, with every time, the median,
the quartiles, the machine and the sha256 of the ``heavytail`` sources. The
package is imported from ``--src``, so one copy of this script times two
checkouts alike. It is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from frozen_moments import ROOT, SEED, parse_args, record, time_rows

SIMULATE = (("d2 b8 eta 1.5, 1e+05 paths, 2 workers",
             ["--d", "2", "--b", "8", "--eta", "1.5", "--samples", "100000"]),
            ("d1 b1 eta 2/3, 2.5e+05 paths, 2 workers",
             ["--d", "1", "--b", "1", "--eta", str(2 / 3), "--samples", "250000"]))


def simulate_argv(args: list[str], out: Path) -> list[str]:
    return ["simulate", "--model", "rank1gauss", *args, "--seed", str(SEED),
            "--workers", "2", "--out", str(out)]


def simulate_peaks(ht, tmp: Path) -> list[dict]:
    """The tracemalloc peak of one ``simulate`` run per law of SIMULATE."""
    peaks = []
    for workload, args in SIMULATE:
        out = tmp / "peak.csv"
        tracemalloc.start()
        if ht.cli.main(simulate_argv(args, out)):
            raise RuntimeError(f"simulate {workload} failed")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        peaks.append({"workload": workload, "peak_mib": peak / 2**20, "csv_sha256": digest})
        print(f"simulate peak, {workload:<40} {peak / 2**20:9.1f} MiB")
    return peaks


def rows(ht, tmp: Path):
    """(name, workload, prepare, timed) per row. A row that takes a generator
    gets a fresh one on seed 7 from ``prepare()``, so every run draws the
    same numbers; ``build_operator`` and ``simulate`` seed themselves, and
    ``simulate`` writes its CSV under ``tmp``."""
    import numpy as np  # after parse_args has set the thread count
    models = ht.models
    d2b8, d1b1 = models.rank1_gauss(2, 8, 1.5), models.rank1_gauss(1, 1, 2 / 3)
    d2b8_03 = models.rank1_gauss(2, 8, 0.3)

    def rng():
        return np.random.default_rng(SEED)

    return [
        ("sample_pairs", "d2 b8, 1e+05 draws", rng,
         lambda g: models.sample_pairs(d2b8, 100_000, g)),
        ("sample_pairs", "d1 b1, 1e+05 draws", rng,
         lambda g: models.sample_pairs(d1b1, 100_000, g)),
        ("sample_r_batch", "d1 b1 eta 2/3, 2.5e+05 paths", rng,
         lambda g: ht.recursion.sample_r_batch(d1b1, 250_000, g)),
        ("sample_r_batch", "d2 b8 eta 1.5, 1e+05 paths", rng,
         lambda g: ht.recursion.sample_r_batch(d2b8, 100_000, g)),
        ("product_log_norms", "d2 b8 eta 0.3, n = 40, 2e+04 draws", rng,
         lambda g: ht.spectral.product_log_norms(d2b8_03, 40, 20_000, g)),
        ("build_operator", "d2 b8 eta 0.3, s = 1, 256 bins, 2e+04 draws, 1 worker",
         lambda: None,
         lambda _: ht.transferop.build_operator(d2b8_03, 1.0, 256, 20_000, SEED, 1)),
        *(("simulate", workload, lambda: None,
           lambda _, args=args: ht.cli.main(simulate_argv(args, tmp / "simulate.csv")))
          for workload, args in SIMULATE),
    ]


def main(argv=None) -> int:
    args = parse_args(argv, __doc__.splitlines()[0], ROOT / "BENCH_sampler_kernel.json")
    import heavytail.cli
    import heavytail.models
    import heavytail.recursion
    import heavytail.spectral
    import heavytail.transferop

    with tempfile.TemporaryDirectory() as tmp:
        out = record("sampler_kernel", args,
                     time_rows(rows(heavytail, Path(tmp)), args.repeats))
        out["simulate_peak"] = simulate_peaks(heavytail, Path(tmp))
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
