"""Reproducible, parallel Monte-Carlo substrate.

Random numbers come from numpy's PCG64 generator (period 2^128) behind
``np.random.Generator``; Gaussians use numpy's ziggurat ``standard_normal``.
Worker substreams are derived from the master seed via
``SeedSequence(seed, spawn_key=(worker_index,))``, so a fixed
``(seed, workers)`` pair is bit-reproducible regardless of scheduling:
chunks are merged in worker-index order, never in completion order.

A seed is an int or a seed path ``(root, *key)``. A path names a family of
streams of its own, ``SeedSequence(root, spawn_key=(*key, worker_index))``,
so a computation that needs several independent samples derives them as
``(seed, 0)``, ``(seed, 1)``, ... instead of by seed arithmetic.

Estimates with different worker counts partition the stream differently and
therefore differ (within Monte-Carlo noise); this is documented behaviour,
not hidden.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A task maps (substream, n_draws) -> array of n_draws values (1-D) or
# n_draws rows (2-D). It must be a pure function of its substream.
McTask = Callable[[np.random.Generator, int], np.ndarray]

# An int root seed, or a seed path (root, *key).
Seed = int | tuple[int, ...]


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean and its standard error.

    ``n + skipped`` equals the requested draw count. ``stderr`` is the sample
    standard deviation over sqrt(n): 0 for an exact (enumerated) estimate,
    NaN for a Monte-Carlo estimate from fewer than two draws, which gives no
    spread to measure.
    """

    mean: float
    stderr: float
    n: int
    skipped: int = 0


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: ``workers``, or 1 when it is None; no environment
    variable is read, so only the caller (the CLI's ``--workers``) sets it."""
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def substream(seed: Seed, index: int = 0) -> np.random.Generator:
    """Deterministic substream ``index`` of ``seed``: an int root, or a seed
    path ``(root, *key)``, whose substreams are spawn_key ``(*key, index)``."""
    root, *key = (seed,) if isinstance(seed, (int, np.integer)) else seed
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(root, spawn_key=(*key, index)))
    )


def _chunk_sizes(draws: int, workers: int) -> list[int]:
    base, extra = divmod(draws, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def parallel_map(
    task: McTask,
    draws: int,
    seed: Seed,
    workers: int | None = None,
) -> np.ndarray:
    """Evaluate ``task`` over ``draws`` substream draws, concatenated in worker order.

    Each worker i runs ``task(substream(seed, i), chunk_i)``; results are
    concatenated in worker-index order so the output is independent of
    thread scheduling.
    """
    workers = resolve_workers(workers)
    if draws < 0:
        raise ValueError("draws must be >= 0")
    sizes = _chunk_sizes(draws, workers)

    def run(i: int) -> np.ndarray:
        if sizes[i] == 0:
            return np.empty(0)
        return np.asarray(task(substream(seed, i), sizes[i]))

    if workers == 1:
        parts = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(workers)))
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0)
    return np.concatenate(parts, axis=0)


def estimate_from_values(values: np.ndarray) -> McEstimate:
    """Mean/stderr of a value array; non-finite entries counted as skipped."""
    values = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(values)
    skipped = int(values.size - finite.sum())
    kept = values[finite] if skipped else values
    n = int(kept.size)
    if n == 0:
        return McEstimate(np.nan, np.nan, 0, skipped)
    stderr = float(kept.std(ddof=1) / np.sqrt(n)) if n > 1 else np.nan
    return McEstimate(float(kept.mean()), stderr, n, skipped)


def parallel_tasks(fn, count: int, workers: int | None = None) -> list:
    """Run ``fn(i)`` for i in range(count), results in index order.

    For independent tasks that already own their substreams; this module
    owns the thread pool so results never depend on scheduling.
    """
    workers = resolve_workers(workers)
    if workers == 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
