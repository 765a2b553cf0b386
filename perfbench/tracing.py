"""Spans around the calls each heavytail module makes into the layer below.

The package is not edited. ``installed(tracer)`` rebinds each traced name
where its callers look it up and restores the originals on exit. Modules
import with ``from .models import sample_pairs``, so the binding patched is
``recursion.sample_pairs``, not ``models.sample_pairs``;
``FirstColumnSample`` methods are patched on the class. The ``task`` given
to ``mc.parallel_map``/``mc.parallel_tasks`` is wrapped too, so work done in
pool threads is parented to the call that submitted it.

Spans stay in memory; ``layer_metrics`` reduces them once the job is over.
A span's self time is its duration minus the part of it that its child
spans cover (children in pool threads can overlap; their union counts).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

_INHERIT = object()


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    result: object = None      # kept for a few calls whose result carries counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=_INHERIT):
        stack = self._stack()
        if parent is _INHERIT:
            parent = stack[-1].sid if stack else None
        sp = Span(next(self._ids), name, parent, threading.get_ident(),
                  time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def to_records(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "parent": s.parent,
                 "thread": s.thread, "start": s.start, "end": s.end,
                 "attrs": s.attrs} for s in self.spans]


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None, keep=False):
    """Span around ``fn``. ``before(args, kwargs)`` runs inside the span and
    must be cheap; ``after(result, args, kwargs)`` runs once it has closed."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            if before is not None:
                sp.attrs.update(before(args, kwargs))
            result = fn(*args, **kwargs)
        if after is not None:
            sp.attrs.update(after(result, args, kwargs))
        if keep:
            sp.result = result
        return result
    return wrapper


def _wrap_blocks(tracer: Tracer, name: str, fn):
    """Span per block a generator yields; the consumer's time is not counted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            with tracer.span(name) as sp:
                try:
                    block = next(gen)
                except StopIteration:
                    return
                sp.attrs["draws"] = int(block.shape[0])
            yield block
    return wrapper


def _wrap_pool(tracer: Tracer, name: str, fn, workers_index: int, resolve):
    """Span around a pool call; each task runs in an ``mc.task`` span
    parented to it, whichever thread runs the task."""
    @functools.wraps(fn)
    def wrapper(task, *args, **kwargs):
        with tracer.span(name) as sp:
            sp.attrs["workers"] = resolve(_arg(args, kwargs, workers_index, "workers"))

            def traced_task(*targs):
                with tracer.span("mc.task", parent=sp.sid):
                    return task(*targs)

            return fn(traced_task, *args, **kwargs)
    return wrapper


def _wrap_write_csv(tracer: Tracer, fn):
    """Counts rows and bytes of every CSV the CLI writes (no span: CSV
    formatting and writing are part of the cli layer's own time)."""
    @functools.wraps(fn)
    def wrapper(path, header, rows):
        def counted():
            for row in rows:
                tracer.counters["cli.csv_rows"] += 1
                yield row
        result = fn(path, header, counted())
        if path is not None:
            tracer.counters["cli.csv_bytes"] += os.path.getsize(path)
        return result
    return wrapper


def _draws(args, kwargs):
    return {"draws": int(_arg(args, kwargs, 1, "n"))}


def _matrices(args, kwargs):
    p = _arg(args, kwargs, 0, "p")
    return {"matrices": int(p.shape[0]) if getattr(p, "ndim", 2) == 3 else 1}


def _partial_sum_steps(args, kwargs):
    n_grid = _arg(args, kwargs, 1, "n_grid")
    draws = _arg(args, kwargs, 2, "draws")
    return {"path_steps": int(draws) * max(int(n) for n in n_grid)}


def _product_key(args, kwargs):
    # identical (spec, n, draws, generator state) means identical work
    spec, n, draws, rng = (_arg(args, kwargs, i, k)
                           for i, k in enumerate(("spec", "n", "draws", "rng")))
    state = rng.bit_generator.state
    return {"key": (repr(spec), int(n), int(draws), repr(state["state"]))}


def _column_draws(result, args, kwargs):
    return {"draws": int(args[0].n)}


@contextmanager
def installed(tracer: Tracer):
    """Patch the traced bindings for the duration of the block."""
    from heavytail import (cli, mc, recursion, spectral, svgfig, tailsolver,
                           transferop)

    fcs = spectral.FirstColumnSample
    plan = [
        (recursion, "sample_pairs", lambda f: _wrap(tracer, "models.sample_pairs", f, _draws)),
        (spectral, "sample_pairs", lambda f: _wrap(tracer, "models.sample_pairs", f, _draws)),
        (spectral, "sample_h_columns",
         lambda f: _wrap(tracer, "models.sample_h_columns", f, _draws)),
        (spectral, "iter_h_blocks", lambda f: _wrap_blocks(tracer, "models.iter_h_blocks", f)),
        (transferop, "iter_h_blocks",
         lambda f: _wrap_blocks(tracer, "models.iter_h_blocks", f)),
        (recursion, "batch_operator_norms",
         lambda f: _wrap(tracer, "linalg.batch_operator_norms", f, _matrices)),
        (spectral, "batch_operator_norms",
         lambda f: _wrap(tracer, "linalg.batch_operator_norms", f, _matrices)),
        (recursion, "sample_r_batch",
         lambda f: _wrap(tracer, "recursion.sample_r_batch", f, keep=True)),
        (recursion, "partial_sum_norms",
         lambda f: _wrap(tracer, "recursion.partial_sum_norms", f, _partial_sum_steps)),
        (recursion, "moment_growth_curve",
         lambda f: _wrap(tracer, "recursion.moment_growth_curve", f)),
        (recursion, "finite_iteration_tail",
         lambda f: _wrap(tracer, "recursion.finite_iteration_tail", f)),
        (fcs, "__init__",
         lambda f: _wrap(tracer, "spectral.FirstColumnSample", f, after=_column_draws)),
        (fcs, "h", lambda f: _wrap(tracer, "spectral.h", f)),
        (fcs, "dh_ds", lambda f: _wrap(tracer, "spectral.dh_ds", f)),
        (fcs, "gamma", lambda f: _wrap(tracer, "spectral.gamma", f)),
        (fcs, "v", lambda f: _wrap(tracer, "spectral.v", f)),
        (spectral, "product_log_norms",
         lambda f: _wrap(tracer, "spectral.product_log_norms", f, _product_key)),
        (tailsolver, "solve_alpha",
         lambda f: _wrap(tracer, "tailsolver.solve_alpha", f, keep=True)),
        (tailsolver, "solve_xi1", lambda f: _wrap(tracer, "tailsolver.solve_xi1", f)),
        (tailsolver, "alpha_curve", lambda f: _wrap(tracer, "tailsolver.alpha_curve", f)),
        (tailsolver, "contour_grid", lambda f: _wrap(tracer, "tailsolver.contour_grid", f)),
        (tailsolver, "marching_squares",
         lambda f: _wrap(tracer, "tailsolver.marching_squares", f)),
        (transferop, "build_operator",
         lambda f: _wrap(tracer, "transferop.build_operator", f, keep=True)),
        (transferop, "power_iterate",
         lambda f: _wrap(tracer, "transferop.power_iterate", f, keep=True)),
        (mc, "parallel_map",
         lambda f: _wrap_pool(tracer, "mc.parallel_map", f, 2, mc.resolve_workers)),
        (mc, "parallel_tasks",
         lambda f: _wrap_pool(tracer, "mc.parallel_tasks", f, 1, mc.resolve_workers)),
        (svgfig, "render_heatmap_svg",
         lambda f: _wrap(tracer, "svgfig.render_heatmap_svg", f)),
        (cli, "_write_csv", lambda f: _wrap_write_csv(tracer, f)),
    ]
    saved = []
    try:
        for owner, attr, make in plan:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reduction of one job's spans to per-layer metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id. A pool task runs code of the function that
    submitted it (a closure), so its self time is credited to that caller."""
    children = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = defaultdict(float)
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children[s.sid]]
        own = s.duration - _covered([iv for iv in clipped if iv[1] > iv[0]])
        if s.name == "mc.task":
            caller = by_id[s.parent].parent
            if caller is not None:
                out[caller] += own
                continue
        out[s.sid] += own
    return out


def _ratio(num: float, den: float):
    return num / den if den else None


# Metric name -> unit, in report order. Counts repeat exactly for a fixed
# (seed, workers); times and rates do not. A ratio or rate whose base is 0
# (an idle layer) is None.
UNITS = {
    "models.sample_pairs.draws": "count",
    "models.sample_pairs.self_s": "s",
    "models.sample_h_columns.draws": "count",
    "models.sample_h_columns.self_s": "s",
    "models.iter_h_blocks.draws": "count",
    "models.iter_h_blocks.self_s": "s",
    "models.self_s": "s",
    "linalg.batch_operator_norms.matrices": "count",
    "linalg.batch_operator_norms.self_s": "s",
    "recursion.sample_r_batch.self_s": "s",
    "recursion.paths": "count",
    "recursion.path_steps": "count",
    "recursion.steps_per_s": "1/s",
    "recursion.loop_iters": "count",
    "recursion.status.tol_prod": "count",
    "recursion.status.n_max": "count",
    "recursion.status.non_contraction": "count",
    "recursion.status.diverged": "count",
    "recursion.useful_share": "ratio",
    "recursion.partial_sum_norms.self_s": "s",
    "recursion.partial_sum_norms.path_steps": "count",
    "spectral.FirstColumnSample.draws": "count",
    "spectral.h.calls": "count",
    "spectral.dh_ds.calls": "count",
    "spectral.gamma.calls": "count",
    "spectral.v.calls": "count",
    "spectral.h.self_s": "s",
    "spectral.v.self_s": "s",
    "spectral.h_evals_per_s": "1/s",
    "spectral.product_log_norms.calls": "count",
    "spectral.product_log_norms.self_s": "s",
    "spectral.product_log_norms.distinct_share": "ratio",
    "tailsolver.solve_alpha.calls": "count",
    "tailsolver.h_evals_per_solve": "ratio",
    "tailsolver.solve_xi1.h_evals": "count",
    "tailsolver.status.converged": "count",
    "tailsolver.status.gamma_non_negative": "count",
    "tailsolver.status.no_root_below_s_max": "count",
    "tailsolver.contour_grid.self_s": "s",
    "tailsolver.marching_squares.self_s": "s",
    "transferop.build_operator.self_s": "s",
    "transferop.build_operator.draws": "count",
    "transferop.build_operator.skipped": "count",
    "transferop.power_iterate.iterations": "count",
    "transferop.power_iterate.self_s": "s",
    "mc.parallel_map.calls": "count",
    "mc.parallel_tasks.calls": "count",
    "mc.pool.busy_s": "s",
    "mc.pool.idle_share": "ratio",
    "svgfig.render_heatmap_svg.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "count",
    "cli.csv_rows": "count",
}


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def self_s(name):
        return sum(selfs[s.sid] for s in by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def results(name):
        # a call that raised has no result
        return [s.result for s in by_name[name] if s.result is not None]

    def under(span, ancestor):
        pid = span.parent
        while pid is not None:
            p = by_id[pid]
            if p.name == ancestor:
                return True
            pid = p.parent
        return False

    m: dict[str, float | int | None] = {}
    for fn in ("sample_pairs", "sample_h_columns", "iter_h_blocks"):
        m[f"models.{fn}.draws"] = total(f"models.{fn}", "draws")
        m[f"models.{fn}.self_s"] = self_s(f"models.{fn}")
    m["models.self_s"] = sum(m[f"models.{fn}.self_s"] for fn in
                             ("sample_pairs", "sample_h_columns", "iter_h_blocks"))
    m["linalg.batch_operator_norms.matrices"] = total("linalg.batch_operator_norms",
                                                      "matrices")
    m["linalg.batch_operator_norms.self_s"] = self_s("linalg.batch_operator_norms")

    batches = results("recursion.sample_r_batch")
    status = Counter()
    for b in batches:
        status.update(str(v) for v in b.status)
    paths = sum(len(b.n_steps) for b in batches)
    steps = sum(int(b.n_steps.sum()) for b in batches)
    m["recursion.sample_r_batch.self_s"] = self_s("recursion.sample_r_batch")
    m["recursion.paths"] = paths
    m["recursion.path_steps"] = steps
    m["recursion.steps_per_s"] = _ratio(
        steps, sum(s.duration for s in by_name["recursion.sample_r_batch"]))
    m["recursion.loop_iters"] = max((int(b.n_steps.max()) for b in batches
                                     if len(b.n_steps)), default=0)
    for st in ("tol_prod", "n_max", "non_contraction", "diverged"):
        m[f"recursion.status.{st}"] = status[st]
    m["recursion.useful_share"] = _ratio(status["tol_prod"], paths)
    m["recursion.partial_sum_norms.self_s"] = self_s("recursion.partial_sum_norms")
    m["recursion.partial_sum_norms.path_steps"] = total("recursion.partial_sum_norms",
                                                        "path_steps")

    m["spectral.FirstColumnSample.draws"] = total("spectral.FirstColumnSample", "draws")
    for fn in ("h", "dh_ds", "gamma", "v"):
        m[f"spectral.{fn}.calls"] = calls(f"spectral.{fn}")
    m["spectral.h.self_s"] = self_s("spectral.h")
    m["spectral.v.self_s"] = self_s("spectral.v")
    m["spectral.h_evals_per_s"] = _ratio(calls("spectral.h"),
                                         sum(s.duration for s in by_name["spectral.h"]))
    products = by_name["spectral.product_log_norms"]
    m["spectral.product_log_norms.calls"] = len(products)
    m["spectral.product_log_norms.self_s"] = self_s("spectral.product_log_norms")
    m["spectral.product_log_norms.distinct_share"] = _ratio(
        len({s.attrs["key"] for s in products}), len(products))

    solves = by_name["tailsolver.solve_alpha"]
    h_spans = by_name["spectral.h"]
    m["tailsolver.solve_alpha.calls"] = len(solves)
    m["tailsolver.h_evals_per_solve"] = _ratio(
        sum(under(h, "tailsolver.solve_alpha") for h in h_spans), len(solves))
    m["tailsolver.solve_xi1.h_evals"] = sum(under(h, "tailsolver.solve_xi1")
                                            for h in h_spans)
    solve_status = Counter(r.status.value for r in results("tailsolver.solve_alpha"))
    for st in ("converged", "gamma_non_negative", "no_root_below_s_max"):
        m[f"tailsolver.status.{st}"] = solve_status[st]
    m["tailsolver.contour_grid.self_s"] = self_s("tailsolver.contour_grid")
    m["tailsolver.marching_squares.self_s"] = self_s("tailsolver.marching_squares")

    ops = results("transferop.build_operator")
    m["transferop.build_operator.self_s"] = self_s("transferop.build_operator")
    m["transferop.build_operator.draws"] = sum(o.build_samples * o.n_bins for o in ops)
    m["transferop.build_operator.skipped"] = sum(o.skipped for o in ops)
    m["transferop.power_iterate.iterations"] = sum(
        r.iterations for r in results("transferop.power_iterate"))
    m["transferop.power_iterate.self_s"] = self_s("transferop.power_iterate")

    pools = by_name["mc.parallel_map"] + by_name["mc.parallel_tasks"]
    busy = sum(s.duration for s in by_name["mc.task"])
    m["mc.parallel_map.calls"] = calls("mc.parallel_map")
    m["mc.parallel_tasks.calls"] = calls("mc.parallel_tasks")
    m["mc.pool.busy_s"] = busy
    capacity = sum(s.attrs["workers"] * s.duration for s in pools)
    m["mc.pool.idle_share"] = None if not capacity else 1.0 - busy / capacity

    m["svgfig.render_heatmap_svg.self_s"] = self_s("svgfig.render_heatmap_svg")
    m["cli.self_s"] = self_s("cli.main")
    m["cli.csv_bytes"] = tracer.counters["cli.csv_bytes"]
    m["cli.csv_rows"] = tracer.counters["cli.csv_rows"]
    return m
