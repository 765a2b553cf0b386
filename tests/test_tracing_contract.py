"""The benchmark's tracer patches package bindings by name; a renamed
function or a dropped import would make it fail with a KeyError."""

import importlib.util
import sys
from pathlib import Path

from heavytail.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_counts_product_layers(tmp_path, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    model = ["--model", "rank1gauss", "--d", "2", "--b", "2", "--eta", "0.5",
             "--samples", "20", "--seed", "1"]
    jobs = [
        ["simulate", *model, "--out", tmp_path / "sim.csv"],
        ["kcurve", *model, "--method", "product", "--s-grid", "1:1:2", "--n", "5",
         "--out", tmp_path / "k.csv"],
        ["moments", "--model", "symm-det-identity", "--eta", "0.5", "--alpha", "1",
         "--n-grid", "2,4", "--samples", "20", "--out", tmp_path / "m.csv"],
        # the later --eta wins: at xi = 0.5 h(s) crosses 1, so alpha exits 0
        ["alpha", *model, "--eta", "1.0", "--out", tmp_path / "alpha.csv"],
        ["operator", *model, "--bins", "8", "--out", tmp_path / "op.csv"],
    ]
    with tracing.installed(tracing.Tracer()) as tracer:
        for argv in jobs:
            assert main([str(a) for a in argv]) == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["recursion.path_steps"] > 0
    assert metrics["spectral.product_log_norms.calls"] > 0
    assert metrics["recursion.partial_sum_norms.path_steps"] == 20 * 4
    assert metrics["models.sample_pairs.draws"] > 0
    assert metrics["models.sample_h_columns.draws"] > 0
    assert metrics["models.iter_h_blocks.draws"] > 0
    assert metrics["linalg.batch_operator_norms.matrices"] > 0
    # alpha builds its sample before the solve, outside the solver span
    assert metrics["spectral.FirstColumnSample.draws"] > 0
    assert metrics["tailsolver.solve_alpha.calls"] == 1


def test_tracer_counts_curves_and_exponents_on_frozen_samples(tmp_path, monkeypatch):
    # kcurve and lyapunov build a FirstColumnSample or a ProductSample and
    # read it directly; the layers below must still be counted
    tracing = _load_tracing(monkeypatch)
    model = ["--model", "rank1gauss", "--d", "2", "--b", "2", "--eta", "0.5",
             "--samples", "20", "--seed", "1"]
    jobs = [
        ["kcurve", *model, "--method", "closed", "--s-grid", "0,1,2",
         "--out", tmp_path / "k.csv"],
        ["lyapunov", *model, "--out", tmp_path / "g.csv"],
        ["lyapunov", *model, "--method", "subadditive", "--n", "5",
         "--out", tmp_path / "g2.csv"],
    ]
    with tracing.installed(tracing.Tracer()) as tracer:
        for argv in jobs:
            assert main([str(a) for a in argv]) == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["spectral.FirstColumnSample.draws"] == 2 * 20
    assert metrics["spectral.h.calls"] == 3
    assert metrics["spectral.gamma.calls"] == 1
    assert metrics["spectral.product_log_norms.calls"] > 0
    assert metrics["cli.csv_rows"] == 3 + 1 + 1


def test_tracer_sees_solves_and_columns_on_pool_threads(tmp_path, monkeypatch):
    # alphacurve solves and contour columns run on --workers threads; the
    # tracer must still see every solve and both pools
    tracing = _load_tracing(monkeypatch)
    xi_grid = [0.05, 0.1, 0.15]
    jobs = [
        ["alphacurve", "--model", "rank1gauss", "--d", "2", "--b", "8", "--eta", "1.5",
         "--xi-grid", ",".join(map(str, xi_grid)), "--samples", "2000",
         "--out", tmp_path / "curve.csv"],
        ["reproduce-fig2", "--samples", "200", "--out", tmp_path / "fig2.csv",
         "--svg", tmp_path / "fig2.svg"],
    ]
    with tracing.installed(tracing.Tracer()) as tracer:
        for argv in jobs:
            assert main([str(a) for a in argv] + ["--seed", "3", "--workers", "2"]) == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["tailsolver.solve_alpha.calls"] == len(xi_grid)
    assert metrics["tailsolver.solve_xi1.h_evals"] > 0
    assert metrics["mc.parallel_tasks.calls"] >= 2
    assert metrics["spectral.h.calls"] > 0
