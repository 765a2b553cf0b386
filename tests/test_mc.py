import numpy as np
import pytest

from heavytail import mc


def test_constant_evaluator():
    est = mc.estimate_from_values(mc.parallel_map(lambda rng, n: np.full(n, 7.0), 100, seed=1))
    assert est.mean == 7.0
    assert est.stderr == 0.0
    assert est.n == 100
    assert est.skipped == 0


def test_uniform_mean_lln():
    est = mc.estimate_from_values(mc.parallel_map(lambda rng, n: rng.random(n), 1_000_000, seed=2))
    assert abs(est.mean - 0.5) < 3 * est.stderr
    assert est.stderr == pytest.approx(np.sqrt(1 / 12 / 1e6), rel=0.05)


def test_determinism_same_seed_workers():
    task = lambda rng, n: rng.standard_normal(n)
    a = mc.estimate_from_values(mc.parallel_map(task, 100_000, seed=42, workers=4))
    b = mc.estimate_from_values(mc.parallel_map(task, 100_000, seed=42, workers=4))
    assert a == b  # bitwise-identical estimate


def test_worker_count_changes_partition_but_not_expectation():
    task = lambda rng, n: rng.standard_normal(n) + 1.0
    a = mc.estimate_from_values(mc.parallel_map(task, 200_000, seed=5, workers=1))
    b = mc.estimate_from_values(mc.parallel_map(task, 200_000, seed=5, workers=8))
    assert a.mean != b.mean  # different stream partitioning, documented
    assert abs(a.mean - b.mean) < 4 * np.hypot(a.stderr, b.stderr)


def test_nan_draws_become_skips():
    def task(rng, n):
        vals = rng.random(n)
        vals[::10] = np.nan
        return vals

    est = mc.estimate_from_values(mc.parallel_map(task, 1000, seed=3))
    assert est.skipped == 100
    assert est.n == 900


def test_chunk_sizes_cover_all_draws():
    assert mc._chunk_sizes(10, 3) == [4, 3, 3]
    assert sum(mc._chunk_sizes(1_000_003, 8)) == 1_000_003


def test_substream_independent_of_caller_state():
    r1 = mc.substream(7, 0).standard_normal(5)
    _ = np.random.default_rng(123).standard_normal(100)
    r2 = mc.substream(7, 0).standard_normal(5)
    assert np.array_equal(r1, r2)


def _spawned_stream(root, spawn_key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(root, spawn_key=spawn_key)))


def test_substream_int_seed_is_spawn_key_index():
    for seed, index in ((0, 0), (7, 3), (2 ** 40, 1)):
        assert np.array_equal(mc.substream(seed, index).random(8),
                              _spawned_stream(seed, (index,)).random(8))


def test_substream_seed_paths_are_distinct_streams():
    # (root, *key) maps to spawn_key (*key, index)
    assert np.array_equal(mc.substream((7, 2), 1).random(8),
                          _spawned_stream(7, (2, 1)).random(8))
    seeds = [(7, 0), (7, 1), ((7, 0), 0), ((7, 1), 0), ((7, 0), 1), ((7, 1), 1)]
    draws = {mc.substream(*s).random(4).tobytes() for s in seeds}
    assert len(draws) == len(seeds)


def test_blocked_draws_match_single_call():
    # the samplers rely on numpy Generators being stream-sequential
    r1 = mc.substream(11, 0).standard_normal(200)
    g = mc.substream(11, 0)
    r2 = np.concatenate([g.standard_normal(130), g.standard_normal(70)])
    assert np.array_equal(r1, r2)


def test_workers_env_override(monkeypatch):
    # the worker count is the caller's alone: HEAVYTAIL_WORKERS, which once
    # set it, is ignored
    monkeypatch.setenv("HEAVYTAIL_WORKERS", "3")
    assert mc.resolve_workers(None) == 1
    assert mc.resolve_workers(2) == 2


@pytest.mark.parametrize("nan_every", [0, 7])
def test_estimate_from_values_matches_copy_path(nan_every):
    # the estimate reads the values in place when none is skipped; it must
    # equal, bit for bit, the mean and stderr of the filtered copy
    values = np.random.default_rng(9).standard_normal(10_001) * 3.0 + 1.0
    if nan_every:
        values[::nan_every] = np.nan
        values[1::nan_every] = np.inf
    kept = values[np.isfinite(values)]
    est = mc.estimate_from_values(values)
    assert est.n == kept.size and est.skipped == values.size - kept.size
    assert est.mean == float(kept.mean())
    assert est.stderr == float(kept.std(ddof=1) / np.sqrt(kept.size))
