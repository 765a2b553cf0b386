#!/usr/bin/env python3
"""heavytail benchmark: run one workload of CLI jobs and print its metrics.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 33 --trace 0

Run from the root of a checkout. The workload is a closed loop: one client
in this process runs jobs back to back through ``heavytail.cli.main(argv)``
until the next job would end past ``--seconds``, always at least one. Job i
gets a seed derived from (--seed, i). Outputs are gated and digested after
each job's timed window.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each job
twice with the same seed, untraced and then traced, and prints the
per-layer metrics of the traced runs plus the tracing overhead; the two
runs' output digests must match. The spans go to
``.bench_out/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (run metadata, per-job times, digests and every metric).
"""

import os
import sys

# Pinned before numpy loads: one BLAS/OpenMP thread, and no worker count
# from the environment (every job passes --workers explicitly).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HEAVYTAIL_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
SETUP_PROBES = 3


@dataclass
class Job:
    index: int
    seed: int
    traced: bool
    wall_s: float = 0.0
    command_s: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def job_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(cli_main, commands, work: Path, index: int, seed: int, tracer=None) -> Job:
    job = Job(index, seed, tracer is not None)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    captured = {}
    traced = tracing.installed(tracer) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with traced:
        for cmd in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if tracer:
                        with tracer.span("cli.main"):
                            code = cli_main(cmd.render(work, seed))
                    else:
                        code = cli_main(cmd.render(work, seed))
            except Exception:  # a crashing command fails the job, the run goes on
                code = "raised " + traceback.format_exc(limit=3)
            job.command_s[cmd.name] = time.perf_counter() - t0
            captured[cmd.name] = (code, stdout.getvalue(), stderr.getvalue())
    job.wall_s = time.perf_counter() - start

    # untimed: gates and digests
    for cmd in commands:
        code, stdout, stderr = captured[cmd.name]
        if code != 0:
            status = code if isinstance(code, str) else f"exit {code}"
            job.problems.append(f"{cmd.name}: {status} {stderr.strip()[-300:]}")
            continue
        try:
            job.problems += [f"{cmd.name}: {p}" for p in gates.GATES[cmd.name](out, stdout)]
            job.digests.update({name: sha256(out / name) for name in cmd.outputs})
        except (OSError, ValueError, KeyError) as exc:
            job.problems.append(f"{cmd.name}: unreadable output ({exc})")
    if tracer:
        job.layers = tracing.layer_metrics(tracer)
    return job


def measure_setup(work: Path) -> list[float]:
    """Wall time of fresh processes doing the workload's set-up."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe{i}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(probe_dir)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "heavytail").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "workers": workloads.WORKERS,
        "commit": commit, "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def median(values):
    return statistics.median(values) if values else None


def end_to_end(jobs: list[Job], setup_times: list[float]) -> dict:
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "job_s": (median([j.wall_s for j in jobs]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    names = set(jobs[0].command_s)
    for metric, parts in workloads.COMMAND_METRICS.items():
        if set(parts) <= names:
            metrics[metric] = (median([sum(j.command_s[p] for p in parts)
                                       for j in jobs]), "s")
    return metrics


def per_layer(traced: list[Job], untraced: list[Job]) -> dict:
    first = traced[0].layers
    metrics = {}
    for name, unit in tracing.UNITS.items():
        if unit == "count":
            metrics[name] = (first[name], unit)
        else:
            values = [j.layers[name] for j in traced if j.layers[name] is not None]
            metrics[name] = (median(values), unit)
    traced_s = median([j.wall_s for j in traced])
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - median([j.wall_s for j in untraced]), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        work.mkdir(parents=True)
        cli_main = workloads.setup(work)        # also compiles the package once
        setup_times = measure_setup(work)
        commands = workloads.WORKLOADS[args.workload]
        meta = run_metadata(args)

        jobs: list[Job] = []
        traced: list[Job] = []
        spans: list[list[dict]] = []
        start = time.perf_counter()
        last = 0.0
        index = 0
        while not jobs or time.perf_counter() - start + last <= args.seconds:
            t0 = time.perf_counter()
            seed = job_seed(args.seed, index)
            jobs.append(run_job(cli_main, commands, work, index, seed))
            if args.trace:
                tracer = tracing.Tracer()
                twin = run_job(cli_main, commands, work, index, seed, tracer)
                if twin.digests != jobs[-1].digests:
                    twin.problems.append("traced outputs differ from untraced ones")
                traced.append(twin)
                spans.append(tracer.to_records())
            last = time.perf_counter() - t0
            index += 1
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if spans:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))

    all_jobs = jobs + traced
    failed = [j for j in all_jobs if j.problems]
    metrics = end_to_end(jobs, setup_times)
    if args.trace:
        metrics.update(per_layer(traced, jobs))
    metrics["error_rate"] = (len(failed) / len(all_jobs), "ratio")

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs"
          + (f" + {len(traced)} traced twins" if args.trace else "")
          + f" in {time.perf_counter() - start:.1f} s, workers {workloads.WORKERS}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    for job in failed:
        for problem in job.problems:
            print(f"  FAILED job {job.index} (seed {job.seed}"
                  f"{', traced' if job.traced else ''}): {problem}")

    record = {"meta": meta, "setup_s": setup_times,
              "jobs": [vars(j) for j in all_jobs],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("record " + json.dumps(record))
    # The result line carries the metrics BENCHMARK.json lists for this mode:
    # for the traced run, the per-layer counts (exact for a fixed seed, 0 on
    # an idle layer) and the times that no workload leaves at 0.
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failed, "attempted": len(all_jobs), "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
