"""The benchmark's workloads: which CLI jobs each one runs, on which inputs.

A job is a fixed list of ``heavytail`` subcommands run in process through
``heavytail.cli.main(argv)``. Every command passes ``--workers`` explicitly
and gets the job's seed; model specs and sample counts are fixed here, so
the workload seed is the only input that varies between runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Explicit on every job, so a later change to the default or to the
# HEAVYTAIL_WORKERS variable cannot change what is measured. Two is the
# vCPU count of the machine the benchmark was defined on.
WORKERS = 2

D2B8 = ("--model", "rank1gauss", "--d", "2", "--b", "8")

# The d = 1 two-atom law with E|A| = 1 at xi = 1, hence tail index 1
# (the model of acceptance criteria 04, 07 and 08).
MIXTURE_LAW = """\
[model]
variant = symm
d = 1
b = 1
eta = 1.0

[h_law]
kind = mixture
matrices = [[0.5]] ; [[2.5]]
probs = 0.5, 0.5
"""
LAW_FILE = "mixture.law"


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a job; ``{work}`` in argv is the work directory."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]   # files under {work}/out, digested after the job

    def render(self, work: Path, seed: int) -> list[str]:
        argv = [a.replace("{work}", str(work)) for a in self.argv]
        return argv + ["--seed", str(seed), "--workers", str(WORKERS)]


def _out(name: str) -> str:
    return "{work}/out/" + name


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # Criterion-06 model just below criticality (xi = 0.1875 < xi_1 ~ 0.2103):
    # the sampler and the stop-rule product loop, nothing else.
    "stationary": (
        Command("simulate", ("simulate", *D2B8, "--eta", "1.5",
                             "--samples", "100000", "--out", _out("simulate.csv")),
                ("simulate.csv",)),
    ),
    # The frozen-column path: h/dh_ds/gamma evaluations, root solvers,
    # contour grids and SVG; recursion and transferop stay idle.
    "closedform": (
        Command("alpha", ("alpha", *D2B8, "--eta", "1.5", "--samples", "200000",
                          "--out", _out("alpha.csv")), ("alpha.csv",)),
        Command("alphacurve", ("alphacurve", *D2B8, "--eta", "1.5",
                               "--xi-grid", "0.02:0.02:0.3", "--samples", "200000",
                               "--out", _out("alphacurve.csv")), ("alphacurve.csv",)),
        Command("fig1", ("reproduce-fig1", "--samples", "100000",
                         "--out", _out("fig1.csv"), "--svg", _out("fig1.svg")),
                ("fig1.csv", "fig1.svg")),
        Command("fig2", ("reproduce-fig2", "--samples", "100000",
                         "--out", _out("fig2.csv"), "--svg", _out("fig2.svg")),
                ("fig2.csv", "fig2.svg")),
    ),
    # The same sampler and product layers as stationary, used differently:
    # full-H blocks binned per column, fixed-horizon renormalized products,
    # and nested partial sums under a finite-support d = 1 law.
    "crosscheck": (
        Command("operator", ("operator", *D2B8, "--eta", "0.3", "--bins", "256",
                             "--samples", "20000", "--out", _out("operator.csv")),
                ("operator.csv",)),
        Command("kcurve", ("kcurve", *D2B8, "--eta", "0.3", "--method", "product",
                           "--n", "40", "--s-grid", "0.5:0.5:3", "--samples", "20000",
                           "--out", _out("kcurve.csv")), ("kcurve.csv",)),
        Command("moments", ("moments", "--law-file", "{work}/" + LAW_FILE,
                            "--alpha", "1.0", "--samples", "100000",
                            "--out", _out("moments.csv")), ("moments.csv",)),
        Command("tailbound", ("tailbound", "--law-file", "{work}/" + LAW_FILE,
                              "--alpha", "1.0", "--n", "20", "--samples", "200000",
                              "--out", _out("tailbound.csv")), ("tailbound.csv",)),
    ),
}

# Per-command end-to-end metrics: the per-job sum of the named commands'
# wall times. Each is reported only by the workload that runs its commands.
COMMAND_METRICS: dict[str, tuple[str, ...]] = {
    "alphacurve_s": ("alphacurve",),
    "contour_s": ("fig1", "fig2"),
    "operator_s": ("operator",),
    "kcurve_product_s": ("kcurve",),
    "moments_s": ("moments",),
}
# Share of the parent's median by which a per-command metric may worsen
# (compare.py); BENCHMARK.json holds the bounds of the other metrics. The
# per-command spreads are no wider than job_s's (README.md), so they share
# its bound.
COMMAND_BOUND = 0.25


def setup(work: Path):
    """What a workload process does before its first job; returns ``cli.main``.

    Imports the package from the checkout's ``src``, builds the argument
    parser once and writes the generated inputs into ``work``.
    """
    if not (SRC / "heavytail" / "__init__.py").is_file():
        raise FileNotFoundError(f"no heavytail package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from heavytail import cli

    cli.build_parser()
    (work / "out").mkdir(parents=True, exist_ok=True)
    (work / LAW_FILE).write_text(MIXTURE_LAW, encoding="utf-8")
    return cli.main
