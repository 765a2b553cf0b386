import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heavytail
from heavytail import recursion
from heavytail.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, INLINE_MODELS,
                           MAX_GRID_POINTS, _apply_config, _parse_grid, _subparser,
                           _write_csv, build_parser, main, run_config_from_args)
from heavytail.empirics import angular_exceedance_test, hill_stability_scan
from heavytail.linalg import row_norms
from heavytail.models import ConfigurationError, load_law_file

MIX_LAW = """\
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


@pytest.fixture
def mix_law_file(tmp_path):
    path = tmp_path / "mixture.law"
    path.write_text(MIX_LAW)
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def test_grid_parsing():
    assert _parse_grid("0:1:4") == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert _parse_grid("0:0.25:0.5") == [0.0, 0.25, 0.5]
    assert _parse_grid("1,2,5") == [1.0, 2.0, 5.0]
    for bad in ("1:2:3:4", "0:inf:0", "0:1:inf", "nan:1:2", "nan,1", "1,-inf"):
        with pytest.raises(ConfigurationError):
            _parse_grid(bad)


def test_grid_length_is_bounded(capsys):
    assert len(_parse_grid(f"1:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    for bad in (f"1:1:{MAX_GRID_POINTS + 1}", "0:1e-6:1", "0:1e-300:1"):
        with pytest.raises(ConfigurationError, match="points"):
            _parse_grid(bad)
    assert run_cli(["alphacurve", "--model", "rank1gauss", "--eta", "1.0",
                    "--xi-grid", "0:1e-300:1", "--samples", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "more than" in err and "Traceback" not in err


def test_kcurve_deterministic_identity(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = run_cli(["kcurve", "--model", "symm-det-identity", "--eta", "0.5",
                    "--b", "1", "--s-grid", "0:1:4", "--out", out])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,estimate,stderr,method,n_used"
    estimates = [float(line.split(",")[1]) for line in lines[1:]]
    assert estimates == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_kcurve_product_adds_ratio_columns(tmp_path):
    out = tmp_path / "k.csv"
    code = run_cli(["kcurve", "--model", "symm-det-identity", "--eta", "0.5",
                    "--b", "1", "--method", "product", "--n", "6", "--samples", "10",
                    "--s-grid", "0:1:2", "--out", out])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,estimate,stderr,method,n_used,ratio,ratio_stderr"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[1]) for r in rows] == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)
    assert [float(r[5]) for r in rows] == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)


def test_simulate_csv_columns(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--model", "rank1gauss", "--d", "2", "--b", "4",
                    "--eta", "0.5", "--samples", "50", "--seed", "3",
                    "--out", out])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_id,n,r_1,r_2,abs_r,log_norm_pi"
    assert len(lines) == 51


def test_simulate_reports_diverged_paths(tmp_path, capsys):
    # A = -9 I: every path overflows; the rows and exit code stay as they were
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--model", "symm-det-identity", "--d", "2",
                    "--eta", "10", "--samples", "3", "--out", out])
    assert code == EXIT_OK
    assert "3/3 trajectories diverged" in capsys.readouterr().err
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",inf") for row in rows)


# A d = 1 law whose stop-rule paths end in all four ways at --n-max 20,
# --tol-prod 1e-3: ten steps of A = -0.5 reach tol_prod, two steps of
# A = 1e200 overflow R (diverged), one such step keeps ||Pi|| >= 1 up to
# n_max (non_contraction), and fewer than ten steps of A = -0.5 leave ||Pi||
# in (1e-3, 1) at n_max (n_max).
FOUR_WAY_LAW = """\
[model]
variant = symm
d = 1
b = 1
eta = 1.0

[h_law]
kind = mixture
matrices = [[0.0]] ; [[1.5]] ; [[-1e200]]
probs = 0.35, 0.6, 0.05
"""

# The CSV of simulate on FOUR_WAY_LAW below, as written when the n_max paths
# were closed in a block of their own after the diverged and tol_prod ones.
FOUR_WAY_SIMULATE_SHA256 = "bd040ccdbff8e36757cb9cec823c3cc6a76833f91f0d4b0cb4b791a6cbbcd74b"


def test_simulate_ends_each_path_by_its_status(tmp_path):
    law = tmp_path / "four.law"
    law.write_text(FOUR_WAY_LAW)
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--law-file", law, "--samples", "300", "--n-max", "20",
                    "--tol-prod", "1e-3", "--seed", "3", "--workers", "1",
                    "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FOUR_WAY_SIMULATE_SHA256
    batch = recursion.sample_r_parallel(load_law_file(str(law)), 300, 3,
                                        recursion.StopRule(1e-3, 20), 1)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == batch.n_steps.tolist()
    assert [float(row["log_norm_pi"]) for row in rows] == batch.log_pi_final.tolist()
    n, log_final, r = batch.n_steps, batch.log_pi_final, batch.r[:, 0]
    log_tol = math.log(1e-3)
    assert np.isfinite(r).all() and ((n >= 1) & (n <= 20)).all()
    for status, ok in {
            "diverged": np.isinf(log_final) & (log_final > 0),
            "tol_prod": log_final <= log_tol,
            "n_max": (n == 20) & (log_final > log_tol) & (log_final < 0),
            "non_contraction": (n == 20) & np.isfinite(log_final) & (log_final >= 0),
    }.items():
        ended = batch.status == status
        assert ended.any() and ok[ended].all(), status


def test_simulate_fixed_n(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--model", "rank1gauss", "--d", "1", "--b", "1",
                    "--eta", "0.2", "--samples", "20", "--n", "7", "--seed", "1",
                    "--out", out])
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[1] == "7" for row in rows)


def test_alpha_mixture_exit_ok(mix_law_file, tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    code = run_cli(["alpha", "--law-file", mix_law_file, "--samples", "100",
                    "--seed", "7", "--out", out])
    assert code == EXIT_OK
    assert "alpha = 1" in capsys.readouterr().out
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(1.0, abs=1e-3)


def test_alpha_no_root_exit_numerical(tmp_path):
    code = run_cli(["alpha", "--model", "symm-det-identity", "--eta", "0.5",
                    "--b", "1", "--samples", "10", "--out", tmp_path / "a.csv"])
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("s_max", ["72620375673633", "1e300"])
def test_alpha_that_brentq_cannot_converge_exits_3(mix_law_file, tmp_path, s_max):
    # h - 1 is +inf at s_max, and brentq stops without converging on
    # [1e-4, s_max]; a larger iteration cap does not help
    out = tmp_path / "a.csv"
    code, err = _exit_code(["alpha", "--law-file", mix_law_file, "--samples", "1",
                            "--s-max", s_max, "--out", str(out)])
    assert code == EXIT_NUMERICAL and "Traceback" not in err
    assert f"did not converge on [0.0001, {float(s_max):.6g}]" in err
    row = out.read_text().splitlines()[1].split(",")
    assert row[6] == "failed" and row[3:5] == ["0.0001", repr(float(s_max))]


def test_missing_eta_is_config_error(capsys):
    assert run_cli(["alpha", "--model", "rank1gauss"]) == EXIT_CONFIG
    assert "eta" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--samples", "0"],
    ["contour", "--model", "rank1gauss", "--eta", "0.5", "--param-grid", "1,2",
     "--samples", "0"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--samples", "0"],
    ["operator", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--bins", "0"],
    ["simulate", "--model", "rank1gauss", "--eta", "0.5", "--workers", "0"],
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--samples", "-3"],
    ["alpha", "--model", "rank1gauss", "--eta", "0.5", "--samples", "ten"],
    ["simulate", "--model", "rank1gauss", "--eta", "0.5", "--n", "0"],
    ["simulate", "--model", "rank1gauss", "--eta", "0.5", "--n", "-5"],
    ["simulate", "--model", "rank1gauss", "--eta", "0.5", "--n-max", "0"],
    ["lyapunov", "--model", "rank1gauss", "--eta", "0.5", "--method", "subadditive",
     "--n", "0"],
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--method", "product",
     "--n", "0"],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1", "--n", "0"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "nan"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "inf"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "0"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "-1"],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "0"],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--epsilon", "nan"],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--epsilon", "-inf"],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--epsilon", "-0.5"],
    ["alpha", "--model", "rank1gauss", "--eta", "0.5", "--s-max", "nan"],
    ["alpha", "--model", "rank1gauss", "--eta", "0.5", "--s-max", "inf"],
    ["alpha", "--model", "rank1gauss", "--eta", "0.5", "--s-max", "0"],
    ["contour", "--model", "rank1gauss", "--eta", "0.5", "--param-grid", "1",
     "--clip", "nan"],
    ["contour", "--model", "rank1gauss", "--eta", "0.5", "--param-grid", "1",
     "--clip", "0"],
    ["contour", "--model", "rank1gauss", "--eta", "0.5", "--param-grid", "1",
     "--clip", "-1"],
    ["operator", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--s", "nan"],
    ["operator", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--s", "inf"],
    ["operator", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--s", "-1"],
    ["alpha", "--model", "rank1gauss", "--eta=--"],
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--s-grid=--"],
    ["simulate", "--model", "rank1gauss", "--eta", "0.5", "--samples=--"],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--target", "inv_norm_a",
     "--delta", "nan"],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--delta", "inf"],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--delta", "-0.25"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--level", "-1"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--level", "0"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--level", "1"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5", "--level", "nan"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5",
     "--threshold-quantile", "0"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5",
     "--threshold-quantile", "1.5"],
    ["angular", "--model", "rank1gauss", "--d", "2", "--eta", "0.5",
     "--threshold-quantile", "inf"],
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--s-grid", "nan,1"],
    ["alphacurve", "--model", "rank1gauss", "--eta", "0.5", "--xi-grid", "0.1,inf"],
    ["moments", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--n-grid", "5,1.5"],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--caps", ""],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--caps", "nan"],
    ["integrability", "--model", "rank1gauss", "--eta", "0.5", "--caps", "10,inf"],
    ["kcurve", "--model", "rank1gauss", "--eta", "0.5", "--s-grid", ""],
    ["alphacurve", "--model", "rank1gauss", "--eta", "0.5", "--xi-grid", ""],
    ["contour", "--model", "rank1gauss", "--eta", "0.5", "--param-grid", ""],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1", "--t-grid", ","],
    ["tailbound", "--model", "rank1gauss", "--eta", "0.5", "--alpha", "1",
     "--t-grid", "0,-1,1"],
])
def test_non_finite_grid_value_exits_2(argv, capsys):
    assert run_cli(argv + ["--samples", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["moments", "--model", "symm-det-identity", "--d", "2", "--eta", "inf",
     "--alpha", "1"],
    ["simulate", "--model", "rank1gauss", "--eta", "inf"],
    ["kcurve", "--model", "rank1gauss", "--eta", "inf"],
    ["alpha", "--model", "rank1gauss", "--eta", "nan"],
    ["lyapunov", "--model", "rank1gauss", "--eta=-inf"],
    ["alpha", "--law-file", "{inf_law}"],
])
def test_non_finite_eta_exits_2(argv, tmp_path, capsys):
    law = tmp_path / "inf.law"
    law.write_text(MIX_LAW.replace("eta = 1.0", "eta = inf"))
    argv = [law if a == "{inf_law}" else a for a in argv]
    assert run_cli(argv + ["--samples", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "finite eta > 0" in err and "Traceback" not in err


# Generated flag values: small counts, any float spelling, and text with no
# digits (so never a large count), which keeps every run to a few thousand
# path-steps. Three values in four are valid, so that runs get past argparse.
_JUNK = st.text(alphabet="-+.,eEinfa x", max_size=5)


def _mostly(valid, invalid):
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


_COUNT = _mostly(st.integers(1, 120).map(str),
                 st.one_of(st.integers(-3, 0).map(str), st.floats(-3, 30).map(repr), _JUNK))
_REAL = _mostly(st.floats(0.01, 4).map(repr), st.one_of(st.floats().map(repr), _JUNK))
_N_GRID = _mostly(st.lists(st.integers(1, 30), min_size=1, max_size=4).map(
    lambda ns: ",".join(map(str, ns))),
    st.one_of(st.lists(st.integers(-3, 30), max_size=4).map(
        lambda ns: ",".join(map(str, ns))), _JUNK))


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    law = tmp_path_factory.mktemp("fuzz") / "mixture.law"
    law.write_text(MIX_LAW)
    return [["--law-file", str(law)],
            ["--model", "symm-det-identity", "--d", "2", "--eta", "0.5"]]


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out") / "out.csv"


def _exit_code(argv):
    """main's exit code and standard error, whether it returns or exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _fuzz_exits_cleanly(argv):
    code, err = _exit_code(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(model=st.integers(0, 1), alpha=_REAL, n_grid=_N_GRID, samples=_COUNT)
def test_fuzzed_moments_flags_exit_cleanly(fuzz_models, model, alpha, n_grid, samples):
    _fuzz_exits_cleanly(["moments", *fuzz_models[model], f"--alpha={alpha}",
                         f"--n-grid={n_grid}", f"--samples={samples}"])


@settings(max_examples=60, deadline=None)
@given(model=st.integers(0, 1), alpha=_REAL, epsilon=_REAL, n=_COUNT, samples=_COUNT)
def test_fuzzed_tailbound_flags_exit_cleanly(fuzz_models, model, alpha, epsilon, n,
                                             samples):
    _fuzz_exits_cleanly(["tailbound", *fuzz_models[model], f"--alpha={alpha}",
                         f"--epsilon={epsilon}", f"--n={n}", f"--samples={samples}"])


_DIM = st.integers(-2, 6).map(str)
# An s-grid is a comma list of at most 6 values, never start:step:stop, so
# no run can ask for a huge grid.
_S_GRID = st.lists(_mostly(st.floats(0, 40).map(repr), st.floats().map(repr)),
                   max_size=6).map(",".join)


def _model_flags(fuzz_models):
    """Any built-in model or the law file, with --d and --b in -2..6, so
    every run stays tiny."""
    models = [fuzz_models[0]] + [["--model", m] for m in INLINE_MODELS]
    return st.tuples(st.sampled_from(models), _DIM, _DIM, _REAL).map(
        lambda t: [*t[0], f"--d={t[1]}", f"--b={t[2]}", f"--eta={t[3]}"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), samples=_COUNT,
       s_max=_mostly(st.floats(0.01, 40).map(repr), st.one_of(st.floats().map(repr), _JUNK)))
def test_fuzzed_alpha_flags_exit_cleanly(fuzz_models, data, s_max, samples):
    _fuzz_exits_cleanly(["alpha", *data.draw(_model_flags(fuzz_models)),
                         f"--s-max={s_max}", f"--samples={samples}"])


# A grid is a comma list of at most 6 values, or start:step:stop with
# bounds in -1..3 and a step of at least 0.1 (or an invalid one), so no run
# asks for more than 41 points. Values are small, so a b-grid never asks
# for a large batch.
_GRID_VALUE = _mostly(st.floats(-1, 3).map(repr),
                      st.sampled_from(["nan", "inf", "-inf", "1e400", "x"]))
_GRID = st.one_of(
    st.lists(_GRID_VALUE, max_size=6).map(",".join),
    st.tuples(_GRID_VALUE, _mostly(st.floats(0.1, 2).map(repr),
                                   st.sampled_from(["0", "-0.1", "nan", "inf"])),
              _GRID_VALUE).map(":".join),
    _JUNK)


def _fuzz_writes_finite_grids(argv, out, grid_columns):
    """_fuzz_exits_cleanly, and a run that exits 0 wrote finite grid values;
    returns the CSV rows (none unless it exited 0)."""
    out.unlink(missing_ok=True)
    _fuzz_exits_cleanly(argv + [f"--out={out}"])
    if not out.exists():
        return []
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert all(math.isfinite(float(row[c])) for row in rows for c in grid_columns)
    return rows


@settings(max_examples=60, deadline=None)
@given(model=st.integers(0, 1), xi_grid=_GRID, samples=_COUNT)
def test_fuzzed_alphacurve_flags_exit_cleanly(fuzz_models, fuzz_out, model, xi_grid,
                                              samples):
    _fuzz_writes_finite_grids(["alphacurve", *fuzz_models[model], f"--xi-grid={xi_grid}",
                               f"--samples={samples}"], fuzz_out, ["xi"])


@settings(max_examples=60, deadline=None)
@given(model=st.integers(0, 1), param=st.sampled_from(["b", "eta"]), param_grid=_GRID,
       s_grid=_GRID, clip=_REAL, samples=_COUNT)
def test_fuzzed_contour_flags_exit_cleanly(fuzz_models, fuzz_out, model, param,
                                           param_grid, s_grid, clip, samples):
    rows = _fuzz_writes_finite_grids(
        ["contour", *fuzz_models[model], f"--param={param}",
         f"--param-grid={param_grid}", f"--s-grid={s_grid}", f"--clip={clip}",
         f"--samples={samples}"], fuzz_out, [param, "s"])
    # h >= 0, so a clipped value is NaN only where h is, and never negative
    for row in rows:
        h, clipped = float(row["h"]), float(row["h_clipped"])
        assert math.isnan(clipped) == math.isnan(h) and not clipped < 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), method=st.sampled_from(["closed", "product", "exact"]),
       s_grid=_S_GRID, n=_COUNT, samples=_COUNT)
def test_fuzzed_kcurve_flags_exit_cleanly(fuzz_models, data, method, s_grid, n, samples):
    _fuzz_exits_cleanly(["kcurve", *data.draw(_model_flags(fuzz_models)),
                         f"--method={method}", f"--s-grid={s_grid}", f"--n={n}",
                         f"--samples={samples}"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), method=st.sampled_from(["closed", "subadditive", "exact"]),
       n=_COUNT, samples=_COUNT)
def test_fuzzed_lyapunov_flags_exit_cleanly(fuzz_models, data, method, n, samples):
    _fuzz_exits_cleanly(["lyapunov", *data.draw(_model_flags(fuzz_models)),
                         f"--method={method}", f"--n={n}", f"--samples={samples}"])


# Tolerances: any float in [0, 1] or an invalid spelling (negative, NaN,
# infinite or no number).
_TOL = _mostly(st.floats(0, 1).map(repr),
               st.one_of(st.floats(max_value=-1e-300).map(repr),
                         st.sampled_from(["nan", "inf", "-inf", "1e400"]), _JUNK))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_max=_COUNT, tol=_TOL, samples=_COUNT,
       n=st.one_of(st.none(), _COUNT))
def test_fuzzed_simulate_flags_exit_cleanly(fuzz_models, fuzz_out, data, n_max, tol,
                                            samples, n):
    # --n-max (or --n) is at most 120, so any law stays tiny
    argv = ["simulate", *data.draw(_model_flags(fuzz_models)), f"--n-max={n_max}",
            f"--tol-prod={tol}", f"--samples={samples}", f"--out={fuzz_out}"]
    _fuzz_exits_cleanly(argv + ([] if n is None else [f"--n={n}"]))


# tailfit and angular run the default stop rule (n_max = 100,000), so their
# laws contract: the fuzz laws with eta in (0, 1.9], where |A| <= 0.8 for
# the d = 1 mixture and |A| = |1 - eta| for the identity.
_STOP_ETA = _mostly(st.floats(0.01, 1.9).map(repr),
                    st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "1e400"]), _JUNK))


@settings(max_examples=40, deadline=None)
@given(model=st.integers(0, 1), eta=_STOP_ETA, samples=_COUNT,
       k_fracs=_mostly(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3).map(
           lambda fs: ",".join(map(repr, fs))), _GRID))
def test_fuzzed_tailfit_flags_exit_cleanly(fuzz_models, fuzz_out, model, eta, samples,
                                           k_fracs):
    _fuzz_exits_cleanly(["tailfit", *fuzz_models[model], f"--eta={eta}",
                         f"--samples={samples}", f"--k-fracs={k_fracs}",
                         f"--out={fuzz_out}"])


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from(["1", "2", "3"]), eta=_STOP_ETA, samples=_COUNT,
       quantile=_REAL, level=_REAL)
def test_fuzzed_angular_flags_exit_cleanly(fuzz_out, d, eta, samples, quantile, level):
    _fuzz_exits_cleanly(["angular", "--model", "symm-det-identity", f"--d={d}",
                         f"--eta={eta}", f"--samples={samples}",
                         f"--threshold-quantile={quantile}", f"--level={level}",
                         f"--out={fuzz_out}"])


def _d2_model_flags(fuzz_models):
    """_model_flags with --d 2 in three draws of four: operator runs on
    d = 2 only."""
    return st.tuples(_model_flags(fuzz_models), _mostly(st.just("2"), _DIM)).map(
        lambda t: [*t[0], f"--d={t[1]}"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=_REAL, bins=_COUNT, samples=_COUNT)
def test_fuzzed_operator_flags_exit_cleanly(fuzz_models, fuzz_out, data, s, bins,
                                            samples):
    _fuzz_exits_cleanly(["operator", *data.draw(_d2_model_flags(fuzz_models)),
                         f"--s={s}", f"--bins={bins}", f"--samples={samples}",
                         f"--out={fuzz_out}"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), target=st.sampled_from(["det_a", "inv_norm_a", "off_diagonal"]),
       delta=_REAL, caps=_GRID, samples=_COUNT)
def test_fuzzed_integrability_flags_exit_cleanly(fuzz_models, fuzz_out, data, target,
                                                 delta, caps, samples):
    _fuzz_exits_cleanly(["integrability", *data.draw(_model_flags(fuzz_models)),
                         f"--target={target}", f"--delta={delta}", f"--caps={caps}",
                         f"--samples={samples}", f"--out={fuzz_out}"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), check=st.sampled_from(["chi2", "stam", "both"]), samples=_COUNT)
def test_fuzzed_gausscheck_flags_exit_cleanly(fuzz_models, fuzz_out, data, check,
                                              samples):
    _fuzz_exits_cleanly(["gausscheck", *data.draw(_model_flags(fuzz_models)),
                         f"--check={check}", f"--samples={samples}",
                         f"--out={fuzz_out}"])


# Seeds: any non-negative 64-bit value, or a negative or non-integer one.
_SEED = _mostly(st.integers(0, 2 ** 64 - 1).map(str),
                st.one_of(st.integers(-3, -1).map(str), _JUNK))
# At most two workers, or an invalid count.
_WORKERS = _mostly(st.integers(1, 2).map(str),
                   st.one_of(st.integers(-3, 0).map(str), _JUNK))


@settings(max_examples=40, deadline=None)
@given(fig=st.sampled_from(["1", "2"]), samples=_COUNT, seed=_SEED, workers=_WORKERS)
def test_fuzzed_figure_flags_exit_cleanly(fuzz_out, fig, samples, seed, workers):
    _fuzz_exits_cleanly([f"reproduce-fig{fig}", f"--samples={samples}", f"--seed={seed}",
                         f"--workers={workers}", f"--out={fuzz_out}",
                         f"--svg={fuzz_out.with_suffix('.svg')}"])


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.5", "x"])
def test_simulate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    code, err = _exit_code(["simulate", "--model", "rank1gauss", "--eta", "0.5",
                            "--n-max", "500", "--samples", "5", f"--tol-prod={tol}"])
    assert code == EXIT_CONFIG and "--tol-prod" in err


@pytest.mark.parametrize("section, kind, key", [
    ("h_law", "deterministic", "matrices"),
    ("h_law", "mixture", "probs"),
    ("b_law", "mixture", "vectors"),
])
def test_law_file_missing_key_exits_2(section, kind, key, tmp_path, capsys):
    keys = {"matrices": "matrices = [[1.0]]", "probs": "probs = 1.0",
            "vectors": "vectors = [1.0]"}
    need = {"deterministic": ["matrices"], "mixture": ["matrices", "probs"]}[kind]
    if section == "b_law":
        need = ["vectors", "probs"]
    lines = [keys[k] for k in need if k != key]
    h_law = "" if section == "h_law" else "[h_law]\nkind = goe\n"
    law = tmp_path / "missing.law"
    law.write_text("[model]\nvariant = symm\nd = 1\nb = 1\neta = 0.5\n\n" + h_law
                   + f"[{section}]\nkind = {kind}\n" + "\n".join(lines) + "\n")
    assert run_cli(["alpha", "--law-file", law, "--samples", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"[{section}]" in err and repr(key) in err and "Traceback" not in err


# A d = 2 law whose paths end in all three ways: A = 0 ends a path
# (tol_prod), two steps of A = (1 + 1e200) I overflow R (diverged), and a
# run of A = -I up to n_max does not contract (non_contraction).
SPLIT_LAW = """\
[model]
variant = symm
d = 2
b = 1
eta = 1.0

[h_law]
kind = mixture
matrices = [[1.0, 0.0], [0.0, 1.0]] ; [[2.0, 0.0], [0.0, 2.0]] ; [[-1e200, 0.0], [0.0, -1e200]]
probs = 0.1, 0.85, 0.05
"""


@pytest.fixture
def short_stop_rule(monkeypatch):
    """tailfit and angular with n_max = 20, so non-contracting paths end fast."""
    original = recursion.sample_r_parallel

    def run(spec, draws, seed, stop=recursion.StopRule(), workers=None):
        return original(spec, draws, seed, recursion.StopRule(n_max=20), workers)

    monkeypatch.setattr(recursion, "sample_r_parallel", run)
    return original


@pytest.mark.parametrize("cmd", ["tailfit", "angular"])
def test_diverged_and_non_contracting_paths_are_dropped(cmd, short_stop_rule, tmp_path,
                                                        capsys):
    law = tmp_path / "split.law"
    law.write_text(SPLIT_LAW)
    out = tmp_path / "out.csv"
    assert run_cli([cmd, "--law-file", law, "--samples", "3000", "--seed", "5",
                    "--workers", "1", "--out", out]) == EXIT_OK
    batch = short_stop_rule(load_law_file(str(law)), 3000, 5,
                            recursion.StopRule(n_max=20), 1)
    counts = {s: int((batch.status == s).sum())
              for s in ("diverged", "non_contraction")}
    assert min(counts.values()) > 0
    err = capsys.readouterr().err
    assert (f"dropped {sum(counts.values())}/3000 paths ({counts['diverged']} diverged, "
            f"{counts['non_contraction']} non_contraction)") in err
    kept = batch.r[np.isin(batch.status, ["tol_prod", "n_max"])]
    if cmd == "tailfit":
        fits = hill_stability_scan(row_norms(kept), [0.005, 0.01, 0.02])
        want = [f.alpha_hat for f in fits]
        with open(out, newline="", encoding="utf-8") as fh:
            assert [float(row["alpha_hat"]) for row in csv.DictReader(fh)] == want
    else:
        rep = angular_exceedance_test(kept, 0.99)
        with open(out, newline="", encoding="utf-8") as fh:
            assert int(next(csv.DictReader(fh))["n_exceedances"]) == rep.n_exceedances


@pytest.mark.parametrize("cmd", ["tailfit", "angular"])
def test_no_usable_path_exits_3(cmd, short_stop_rule, capsys):
    # A = -I: every path runs to n_max with ||Pi|| = 1
    assert run_cli([cmd, "--model", "symm-det-identity", "--d", "2", "--eta", "2",
                    "--samples", "50"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "dropped 50/50 paths (0 diverged, 50 non_contraction)" in err
    assert "no path stopped" in err


def test_config_non_positive_count_exits_2(tmp_path):
    path = _write_config(tmp_path / "zero.cfg", "kcurve",
                         {"model": "rank1gauss", "eta": "0.5", "samples": "0"})
    code, err = _exit_code(["--config", path])
    assert code == EXIT_CONFIG and ">= 1" in err


def test_lyapunov_line(tmp_path, capsys):
    code = run_cli(["lyapunov", "--model", "symm-det-identity", "--eta", "0.5",
                    "--b", "1", "--samples", "10", "--out", tmp_path / "g.csv"])
    assert code == EXIT_OK
    assert "gamma = -0.693147" in capsys.readouterr().out


def test_operator_csv(tmp_path, capsys):
    out = tmp_path / "op.csv"
    code = run_cli(["operator", "--model", "rank1gauss", "--d", "2", "--b", "8",
                    "--eta", "0.3", "--bins", "16", "--samples", "500",
                    "--seed", "2", "--out", out])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_angle,eigenfunction,eigenmeasure"
    assert len(lines) == 17
    assert "leading eigenvalue" in capsys.readouterr().out


# H = 1e200 I: each |A x| is about 1e200, whose square overflows
BIG_H_LAW = """\
[model]
variant = symm
d = 2
b = 1
eta = 1.0

[h_law]
kind = deterministic
matrices = [[1e200, 0.0], [0.0, 1e200]]
"""


def test_operator_keeps_norms_past_the_square_overflow(tmp_path, capsys):
    law = tmp_path / "big.law"
    law.write_text(BIG_H_LAW)
    out = tmp_path / "op.csv"
    assert run_cli(["operator", "--law-file", law, "--bins", "8", "--samples", "16",
                    "--out", out]) == EXIT_OK
    assert "leading eigenvalue = 1e+200 " in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for column in ("eigenfunction", "eigenmeasure"):
        assert all(math.isfinite(float(row[column])) for row in rows)


def test_frozen_moments_keep_norms_past_the_square_overflow(tmp_path, capsys):
    # v = |1 - 1e200| = 1e200 on the one exact draw: k(s) = 1e200^s and
    # gamma = log 1e200, where squaring 1 - xi t overflowed to NaN and nan
    law = tmp_path / "big.law"
    law.write_text(BIG_H_LAW)
    out = tmp_path / "k.csv"
    assert run_cli(["kcurve", "--law-file", law, "--s-grid", "0,0.5,1",
                    "--out", out]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["estimate"]) for row in rows] == pytest.approx(
        [1.0, 1e100, 1e200], rel=1e-14)
    assert [row["stderr"] for row in rows] == ["0.0"] * 3
    assert run_cli(["lyapunov", "--law-file", law, "--out", out]) == EXIT_OK
    assert "gamma = 460.517 +- 0 (closed_form)" in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["gamma"]) == pytest.approx(200 * math.log(10), rel=1e-14)
    assert row["skipped"] == "0"


# Item 3's Rademacher data in their eigenbasis, at b = 5: exact (stderr 0)
DIAG_LAW = """\
[model]
variant = symm
d = 2
b = 5
eta = 2.0

[h_law]
kind = mixture
matrices = [[2.0, 0.0], [0.0, 0.0]] ; [[0.0, 0.0], [0.0, 2.0]]
probs = 0.5, 0.5
"""


def test_alpha_below_one_need_not_fall_as_xi_grows(tmp_path, capsys):
    # h(., s) is convex in xi only for s >= 1, so alpha(xi) is monotone only
    # where alpha >= 1: on this exact law it falls and then rises below 1
    law = tmp_path / "diag.law"
    law.write_text(DIAG_LAW)
    out = tmp_path / "curve.csv"
    with pytest.warns(RuntimeWarning, match="rotation-invariant"):
        code = run_cli(["alphacurve", "--law-file", law, "--xi-grid", "0.44:0.01:0.49",
                        "--out", out])
    assert code == EXIT_OK
    assert "strictly decreasing beyond uncertainty: False" in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["converged"] * 6
    assert [float(row["stderr_alpha"]) for row in rows] == [0.0] * 6
    assert [float(row["alpha"]) for row in rows] == pytest.approx(
        [0.174138, 0.143099, 0.128361, 0.128551, 0.143854, 0.178640], abs=5e-7)


def test_tailfit_summary(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = run_cli(["tailfit", "--model", "rank1gauss", "--d", "1", "--b", "1",
                    "--eta", "0.666", "--samples", "20000", "--seed", "5",
                    "--out", out])
    assert code == EXIT_OK
    assert out.read_text().startswith("k_frac,k_order,alpha_hat,ci_lo,ci_hi")
    assert "alpha_hat" in capsys.readouterr().out


def test_tailfit_empty_fractions_exit_2(tmp_path, capsys):
    code = run_cli(["tailfit", "--model", "rank1gauss", "--eta", "0.5",
                    "--samples", "10", "--k-fracs", "", "--out", tmp_path / "f.csv"])
    assert code == EXIT_CONFIG
    assert "--k-fracs is empty" in capsys.readouterr().err


def test_angular_report(tmp_path, capsys):
    code = run_cli(["angular", "--model", "rank1gauss", "--d", "2", "--b", "8",
                    "--eta", "1.0", "--samples", "30000", "--seed", "6",
                    "--out", tmp_path / "ang.csv"])
    assert code == EXIT_OK
    assert "angular uniformity" in capsys.readouterr().out


def test_angular_rejects_d1():
    assert run_cli(["angular", "--model", "rank1gauss", "--d", "1", "--b", "1",
                    "--eta", "0.5", "--samples", "100"]) == EXIT_CONFIG


# A d = 2 finite-support symm law: its draws do not come from the Bartlett
# sampler, so the commands below keep their one-worker bytes.
SYMM2_LAW = """\
[model]
variant = symm
d = 2
b = 2
eta = 0.8

[h_law]
kind = mixture
matrices = [[1.0, 0.5], [0.5, 1.0]] ; [[0.2, 0.0], [0.0, 1.6]]
probs = 0.5, 0.5
"""

WORKER_COMMANDS = {
    "simulate": ["--samples", "300"],
    "tailfit": ["--samples", "2000"],
    "angular": ["--samples", "5000", "--threshold-quantile", "0.9"],
}

# The CSVs at --seed 4 --workers 1 on SYMM2_LAW, as written when these
# commands drew one stream from substream(seed, 0) whatever --workers said.
# simulate is pinned as the entry-major product kernel writes it: its d = 2
# products are plain k-order sums, where OpenBLAS fused a multiply-add, so
# the last bits of r and log_norm_pi moved (test_recursion checks it against
# an @ reference); tailfit and angular kept their bytes.
ONE_WORKER_SHA256 = {
    "simulate": "18044768340839594ec04b3e9b085d182e042b096c29d396f5266edac28e52c5",
    "tailfit": "551e3fad520a11a3fbe5a878a49f690dce355ffc1d0ffa85c8cfb26365492fd4",
    "angular": "9d00d60ef8b0c17c002add524028d1931ba1e3395243148c590ea0f089a7de0f",
}


@pytest.mark.parametrize("cmd", sorted(WORKER_COMMANDS))
def test_one_worker_keeps_single_stream_bytes(cmd, tmp_path):
    law = tmp_path / "symm2.law"
    law.write_text(SYMM2_LAW)
    out = tmp_path / f"{cmd}.csv"
    assert run_cli([cmd, "--law-file", law, *WORKER_COMMANDS[cmd], "--seed", "4",
                    "--workers", "1", "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ONE_WORKER_SHA256[cmd]


# simulate at d = 1 (the Bartlett sampler, rank1gauss b = 3) as written
# before the entry-major kernel: a d = 1 product has one term, so its bits
# do not depend on the kernel.
D1_SIMULATE_SHA256 = "d1db70304ecd59d508f9b6260816e7c7344739d48e99dd55b6bc3c5d0f5114c9"


def test_d1_simulate_keeps_its_bytes(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", "rank1gauss", "--d", "1", "--b", "3",
                    "--eta", "0.5", "--samples", "300", "--seed", "4", "--workers", "1",
                    "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == D1_SIMULATE_SHA256


@pytest.mark.parametrize("cmd", sorted(WORKER_COMMANDS))
def test_two_workers_byte_identical_across_runs(cmd, tmp_path):
    argv = [cmd, "--model", "rank1gauss", "--d", "2", "--b", "8", "--eta", "1.0",
            *WORKER_COMMANDS[cmd], "--seed", "7", "--workers", "2"]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert run_cli(argv + ["--out", out]) == EXIT_OK
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


_D2B4 = ["--model", "rank1gauss", "--d", "2", "--b", "4"]
_D2B8 = ["--model", "rank1gauss", "--d", "2", "--b", "8"]
_D3B4 = ["--model", "rank1gauss", "--d", "3", "--b", "4"]

# Small runs of the frozen-sample commands at --seed 7 --workers 2. The
# closed kcurve grid reaches past s_max = 30, so two of its rows are capped.
FROZEN_SAMPLE_COMMANDS = {
    "kcurve-closed": ["kcurve", *_D2B4, "--eta", "0.5", "--s-grid", "0,1,2.5,29,31,40",
                      "--samples", "2000"],
    "kcurve-product": ["kcurve", *_D2B4, "--eta", "0.5", "--method", "product",
                       "--n", "6", "--s-grid", "0.5,1,31", "--samples", "300"],
    "lyapunov-closed": ["lyapunov", *_D2B8, "--eta", "0.3", "--samples", "2000"],
    "lyapunov-subadditive": ["lyapunov", *_D2B8, "--eta", "0.3", "--method",
                             "subadditive", "--n", "10", "--samples", "200"],
    "alpha": ["alpha", *_D2B8, "--eta", "1.5", "--samples", "2000"],
    "alphacurve": ["alphacurve", *_D2B8, "--eta", "1.5", "--xi-grid", "0.05,0.2,0.21",
                   "--samples", "2000"],
    "contour-b": ["contour", "--model", "rank1gauss", "--d", "2", "--b", "1",
                  "--eta", "0.75", "--param", "b", "--param-grid", "1,2,3",
                  "--s-grid", "0.5:0.5:3", "--samples", "1000"],
    "simulate-d2b8": ["simulate", *_D2B8, "--eta", "1.5", "--samples", "300"],
    "simulate-d3b4": ["simulate", *_D3B4, "--eta", "1.0", "--samples", "300"],
    "operator-d2b4": ["operator", *_D2B4, "--eta", "0.5", "--bins", "16", "--samples", "300"],
}

# sha256 of the CSV, then the SVG (contour only), then standard output, as
# written when each solver drew its own sample from (spec, samples, seed).
# alpha and alphacurve are pinned as brentq writes them: alpha, stderr_alpha
# and residual differ from the earlier scan-and-polish solver by < 3e-13, and
# the alpha bracket is the checked interval [1e-4, 30]. alphacurve is pinned
# as one sample writes it: its 0.21 row, within 5% of xi_1, is solved on the
# same 2000 columns as xi_1 and the other rows. kcurve-product and
# lyapunov-subadditive are pinned as the entry-major product kernel writes
# them (plain k-order sums). alpha, alphacurve, contour-b and kcurve-closed
# are pinned as the log-domain moments write them (each Monte-Carlo term
# v^s is exp(s log v)): against v ** s, alpha moved by <= 2.6e-16 relative,
# stderr_alpha by <= 3.2e-16, the contour-b cells by <= 3.4e-16 and the
# kcurve-closed estimates and stderrs (s up to 29) by <= 1.9e-15; residual,
# gamma, the contour-b SVG and every standard output kept their bytes.
# simulate-d2b8 and simulate-d3b4 pin the stop-rule loop on Bartlett draws
# (B and A read by entry rows, three-term sums at d = 3), and operator-d2b4
# the operator build on them; each was taken before the draws were written
# as entry rows, which kept these bytes.
FROZEN_SAMPLE_SHA256 = {
    "alpha": "5dbc6495aefb614e8dd4935421a2668bab2f488dddd39ee077547bf2e95c8154",
    "alphacurve": "9007b4dc1e18e06e01f00c938a45d7b5a80168d100a424cea7af5e3588545f0a",
    "contour-b": "71b712fb0f57a06b019c7b4e02102353b2adbaa96fb172f2b4a97af0d2d46a1a",
    "kcurve-closed": "e23a594ce6530e997b7f750ee76e7fb39dfb86fd1a149a84af985373f509e6be",
    "kcurve-product": "f31c365b20aad96596a7b5444c1f696ceb90a1c17b36fcaa0801ee06db9f859b",
    "lyapunov-closed": "358e3c103238679ad72be0f8831f86b37a04bc106abd745f8863cf6b23eec592",
    "lyapunov-subadditive":
        "f4e5cd28fd2733a55e83fc4f6d92ba5b4c5d155cff6cd9d9e206ddd04ea99ee7",
    "operator-d2b4": "c8fba2ecd03dec51f0f82e0690d7d28cce2b0ffc954903c1fe89c2eed14e76f8",
    "simulate-d2b8": "95c08f102111460e6371525ec75931566964fe592e49189afd2388b3592c1e9f",
    "simulate-d3b4": "004ce99ad6e1aa2a50bee6bc024dc90485e8abb4782363ccb21bda3d6bfaa31c",
}


@pytest.mark.parametrize("cmd", sorted(FROZEN_SAMPLE_COMMANDS))
def test_frozen_sample_commands_keep_their_bytes(cmd, tmp_path, capsys):
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    argv = FROZEN_SAMPLE_COMMANDS[cmd] + ["--seed", "7", "--workers", "2", "--out", out]
    if cmd.startswith("contour"):
        argv += ["--svg", svg]
    assert run_cli(argv) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes())
    if svg.exists():
        digest.update(svg.read_bytes())
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == FROZEN_SAMPLE_SHA256[cmd]


NOT_INVARIANT_LAW = """\
[model]
variant = symm
d = 2
b = 1
eta = 0.5

[h_law]
kind = mixture
matrices = [[1.0, 0.0], [0.0, 3.0]] ; [[0.2, 0.0], [0.0, 0.1]]
probs = 0.5, 0.5
"""


@pytest.mark.parametrize("eta", ["0.5", "1.9"])
def test_alpha_warns_on_a_law_that_is_not_rotation_invariant(eta, tmp_path):
    # at eta 1.9 the e_1 solve reads no_root_below_s_max with gamma < 0,
    # while the recursion itself has a positive Lyapunov exponent
    law = tmp_path / "diag.law"
    law.write_text(NOT_INVARIANT_LAW)
    with pytest.warns(RuntimeWarning, match="rotation-invariant"):
        run_cli(["alpha", "--law-file", law, "--eta", eta, "--samples", "100",
                 "--out", tmp_path / "alpha.csv"])


def test_integrability_ladder_csv(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    code = run_cli(["integrability", "--model", "rank1gauss", "--d", "2",
                    "--b", "8", "--eta", "0.3", "--target", "det_a",
                    "--delta", "0.25", "--samples", "20000", "--out", out])
    assert code == EXIT_OK
    assert out.read_text().startswith("cap,truncated_mean")
    assert "stabilized = True" in capsys.readouterr().out


def test_gausscheck_both(tmp_path, capsys):
    code = run_cli(["gausscheck", "--model", "rank1gauss", "--d", "2", "--b", "8",
                    "--eta", "0.3", "--samples", "20000",
                    "--out", tmp_path / "g.csv"])
    assert code == EXIT_OK
    msg = capsys.readouterr().out
    assert "chi2 diagonals" in msg and "inner-product" in msg


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    code = run_cli(["moments", "--model", "rank1gauss", "--d", "1", "--b", "1",
                    "--eta", "0.2", "--alpha", "1.0", "--n-grid", "5,10",
                    "--samples", "2000", "--out", out])
    assert code == EXIT_OK
    assert out.read_text().startswith("n,estimate,stderr")


def test_tailbound_summary(mix_law_file, tmp_path, capsys):
    code = run_cli(["tailbound", "--law-file", mix_law_file, "--alpha", "1.0",
                    "--epsilon", "0.5", "--n", "20", "--samples", "50000",
                    "--seed", "4", "--out", tmp_path / "t.csv"])
    assert code == EXIT_OK
    assert "slope" in capsys.readouterr().out


def test_contour_csv_and_svg(tmp_path):
    out = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    code = run_cli(["contour", "--model", "rank1gauss", "--d", "2", "--b", "1",
                    "--eta", "0.75", "--param", "b", "--param-grid", "1,2,3",
                    "--s-grid", "0.5:0.5:4", "--samples", "5000", "--clip", "1.5",
                    "--out", out, "--svg", svg])
    assert code == EXIT_OK
    assert out.read_text().startswith("b,s,h,h_clipped")
    with open(out, newline="", encoding="utf-8") as fh:
        h = [(float(row["h"]), float(row["h_clipped"])) for row in csv.DictReader(fh)]
    # the CLI clips for display; the solver's h is kept as it is
    assert max(raw for raw, _ in h) > 1.5 and all(c == min(raw, 1.5) for raw, c in h)
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


_CONTOUR = ["contour", "--model", "rank1gauss", "--d", "2", "--b", "2", "--eta", "0.5",
            "--samples", "100"]


@pytest.mark.parametrize("param, grids, message", [
    ("eta", ["--param-grid=0.5,1", "--s-grid=-1,0,1"], "s must be >= 0, got -1"),
    ("eta", ["--param-grid=-0.5,0,1", "--s-grid=0,1"],
     "eta must be > 0 on the parameter grid, got -0.5"),
    ("b", ["--param-grid=0,-1,2", "--s-grid=0,1"],
     "b must be >= 1 on the parameter grid, got -1"),
], ids=["negative-s", "eta-not-positive", "b-below-1"])
def test_contour_out_of_range_grid_exits_2(param, grids, message, tmp_path):
    # each of these wrote a CSV and exited 0: h at s = -1, h at xi = -0.25,
    # NaN rows for b = 0 and b = -1
    out = tmp_path / "c.csv"
    code, err = _exit_code([*_CONTOUR, f"--param={param}", *grids, "--out", str(out)])
    assert code == EXIT_CONFIG and message in err and "Traceback" not in err
    assert not out.exists()


def test_contour_non_integer_b_keeps_its_nan_column(tmp_path):
    out = tmp_path / "c.csv"
    with pytest.warns(RuntimeWarning, match="skipping non-integer batch size 2.5"):
        assert run_cli([*_CONTOUR, "--param=b", "--param-grid=1,2.5,3", "--s-grid=0,1",
                        "--out", out]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [math.isnan(float(r["h"])) for r in rows] == [False, False, True, True,
                                                         False, False]

def test_byte_reproducibility_representative_commands(tmp_path):
    cmds = [
        ["simulate", "--model", "rank1gauss", "--d", "2", "--b", "4", "--eta",
         "0.5", "--samples", "200", "--seed", "9"],
        ["kcurve", "--model", "rank1gauss", "--d", "1", "--b", "1", "--eta",
         "0.4", "--s-grid", "0:0.5:2", "--samples", "20000", "--seed", "9"],
        ["contour", "--model", "rank1gauss", "--d", "2", "--b", "1", "--eta",
         "0.75", "--param", "b", "--param-grid", "1,2", "--s-grid", "1:1:3",
         "--samples", "2000", "--seed", "9"],
    ]
    for i, cmd in enumerate(cmds):
        a, b = tmp_path / f"{i}_a.csv", tmp_path / f"{i}_b.csv"
        svg_args_a = ["--svg", str(tmp_path / f"{i}_a.svg")] if cmd[0] == "contour" else []
        svg_args_b = ["--svg", str(tmp_path / f"{i}_b.svg")] if cmd[0] == "contour" else []
        assert run_cli(cmd + ["--out", a] + svg_args_a) == EXIT_OK
        assert run_cli(cmd + ["--out", b] + svg_args_b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        if svg_args_a:
            assert (tmp_path / f"{i}_a.svg").read_bytes() == \
                (tmp_path / f"{i}_b.svg").read_bytes()


def test_run_config_round_trip(tmp_path):
    # a file that names every flag alpha dumps is dumped back unchanged
    path = _write_config(tmp_path / "run.cfg", "alpha", {
        "model": "rank1gauss", "d": "1", "b": "1", "eta": "0.6666666666666666",
        "samples": "1000", "seed": "0", "s_max": "8.0"})
    dumps = [tmp_path / "a.cfg", tmp_path / "b.cfg"]
    assert run_cli(["--config", path, "--dump-config", dumps[0]]) == EXIT_OK
    assert run_cli(["--config", dumps[0], "--dump-config", dumps[1]]) == EXIT_OK
    text = (tmp_path / "run.cfg").read_text()
    assert dumps[0].read_text() == text and dumps[1].read_text() == text


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    path = _write_config(tmp_path / "run.cfg", "kcurve", {
        "model": "symm-det-identity", "eta": "0.5", "b": "1", "s_grid": "0:1:2",
        "samples": "10"})
    out1 = tmp_path / "o1.csv"
    assert run_cli(["--config", path, "--out", out1]) == EXIT_OK
    vals = [float(l.split(",")[1]) for l in out1.read_text().splitlines()[1:]]
    assert vals == [1.0, 0.5, 0.25]
    # explicit flag overrides the file value
    out2 = tmp_path / "o2.csv"
    assert run_cli(["--config", path, "--s-grid", "0:1:1", "--out", out2]) == EXIT_OK
    vals2 = [float(l.split(",")[1]) for l in out2.read_text().splitlines()[1:]]
    assert vals2 == [1.0, 0.5]


def test_config_unknown_key_rejected(tmp_path):
    path = _write_config(tmp_path / "bad.cfg", "kcurve", {"bogus": "1"})
    code, err = _exit_code(["--config", path])
    assert code == EXIT_CONFIG and "--bogus" in err


def test_config_bad_value_exits_2(tmp_path):
    path = _write_config(tmp_path / "bad.cfg", "kcurve",
                         {"model": "rank1gauss", "eta": "0.5", "method": "exact"})
    code, err = _exit_code(["--config", path, "--method", "closed"])
    assert code == EXIT_CONFIG and "argument --method: invalid choice: 'exact'" in err


@pytest.mark.parametrize("text", ["", "\n\n", "--seed=1\nkcurve\n",
                                  "[run]\nsubcommand = kcurve\n\n[args]\nseed = 1\n"])
@pytest.mark.parametrize("subcommand", [[], ["kcurve"]])
def test_config_without_a_subcommand_first_exits_2(text, subcommand, tmp_path):
    # an INI run config of earlier versions fails at its [run] line
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, err = _exit_code([*subcommand, "--config", str(path)])
    first = next((line for line in text.splitlines() if line), "")
    assert code == EXIT_CONFIG and "Traceback" not in err
    assert f"argument --config: {path} starts with {first!r}, not a subcommand" in err


def test_reproduce_fig_commands_small(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli(["reproduce-fig1", "--samples", "2000", "--seed", "1",
                    "--out", "f1.csv", "--svg", "f1.svg"])
    assert code == EXIT_OK
    assert (tmp_path / "f1.csv").exists() and (tmp_path / "f1.svg").exists()
    code = run_cli(["reproduce-fig2", "--samples", "2000", "--seed", "1",
                    "--out", "f2.csv", "--svg", "f2.svg"])
    assert code == EXIT_OK
    header = (tmp_path / "f2.csv").read_text().splitlines()[0]
    assert header == "eta,s,h,h_clipped"


def test_csv_to_stdout_when_no_out(capsys):
    code = run_cli(["kcurve", "--model", "symm-det-identity", "--eta", "0.5",
                    "--b", "1", "--s-grid", "0:1:1", "--samples", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "s,estimate,stderr,method,n_used"


def test_write_csv_gives_the_bytes_of_csv_writer(tmp_path, capsys):
    # the field types of CLI rows: floats, ints and bools, as Python and
    # numpy scalars, and fixed labels
    header = ["x", "n", "label", "flag", "y"]
    rows = [[0.1, 3, "converged", True, 1 / 3],
            [np.float64(-0.0), np.int64(-7), "no_root_below_s_max", np.bool_(False),
             np.float64(2.5e-300)],
            [math.nan, math.inf, "failed", -math.inf, np.float64(np.nan)],
            [5e-324, 1e16, "det_a", 1e-5, np.float64(-np.inf)],
            [np.float64(1e16), np.float64(1e-5), "e1", np.bool_(True), -0.0]]
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_csv(str(tmp_path / "t.csv"), header, rows)
    assert (tmp_path / "t.csv").read_bytes() == ref.getvalue().encode()
    _write_csv(None, header, iter(rows))
    assert capsys.readouterr().out == ref.getvalue()


def test_dump_config_round_trips_a_run(tmp_path):
    cfg_path = tmp_path / "dumped.cfg"
    out1 = tmp_path / "o1.csv"
    assert run_cli(["kcurve", "--model", "rank1gauss", "--d", "1", "--b", "1",
                    "--eta", "0.4", "--s-grid", "0:0.5:2", "--samples", "5000",
                    "--seed", "3", "--out", out1,
                    "--dump-config", cfg_path]) == EXIT_OK
    # replaying the dumped config reproduces the run byte-for-byte
    out2 = tmp_path / "o2.csv"
    assert run_cli(["--config", cfg_path, "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert cfg_path.read_text() == (
        "kcurve\n--b=1\n--d=1\n--eta=0.4\n--method=closed\n--model=rank1gauss\n"
        f"--n=40\n--out={out1}\n--s-grid=0:0.5:2\n--samples=5000\n--seed=3\n")


@pytest.mark.parametrize("flag", ["--out", "--svg", "--dump-config"])
def test_unwritable_path_exits_2(flag, tmp_path):
    path = tmp_path / "no-such-dir" / "x.txt"
    code, err = _exit_code(["contour", "--model", "symm-det-identity", "--eta", "0.5",
                            "--param-grid", "1,2", "--s-grid", "1,2", "--samples", "10",
                            "--out", str(tmp_path / "c.csv"), flag, str(path)])
    assert code == EXIT_CONFIG and "Traceback" not in err
    assert "No such file or directory" in err


def test_unreadable_law_file_exits_2(tmp_path):
    code, err = _exit_code(["alpha", "--law-file", str(tmp_path / "missing.law")])
    assert code == EXIT_CONFIG and "Traceback" not in err
    assert "No such file or directory" in err


def _dump_keeps_the_out_path(tmp_path, name):
    """A dump of a run writing to ``name`` holds the path as it is and replays."""
    cfg_path, out = tmp_path / "run.cfg", tmp_path / name
    argv = ["kcurve", "--model", "symm-det-identity", "--eta", "0.5", "--s-grid", "0,1"]
    assert run_cli(argv + ["--out", out, "--dump-config", cfg_path]) == EXIT_OK
    first = out.read_bytes()
    out.unlink()
    assert f"--out={out}" in cfg_path.read_text().splitlines()
    assert run_cli(["--config", cfg_path]) == EXIT_OK
    assert out.read_bytes() == first


def test_dump_config_keeps_a_percent_sign(tmp_path):
    _dump_keeps_the_out_path(tmp_path, "k 50%.csv")


def test_dump_config_keeps_surrounding_spaces(tmp_path):
    _dump_keeps_the_out_path(tmp_path, " x;#[1].csv ")


def test_dump_config_that_would_not_read_back_exits_2(tmp_path):
    # a value with a line break cannot be one line of the file
    cfg_path = tmp_path / "run.cfg"
    for brk in ["\n", "\r", "\x0b", "\x1c", "\u2028"]:
        out = str(tmp_path / f"x{brk}.csv")
        code, err = _exit_code(["kcurve", "--model", "symm-det-identity", "--eta", "0.5",
                                "--out", out, "--dump-config", str(cfg_path)])
        assert code == EXIT_CONFIG and "Traceback" not in err
        assert f"{f'--out={out}'!r} has a line break" in err
        assert not cfg_path.exists() and not (tmp_path / f"x{brk}.csv").exists()


def _breaks_a_line(value):
    return f"x{value}".splitlines() != [f"x{value}"]


_PARSER = build_parser()
_SUBCOMMANDS = sorted(next(a.choices for a in _PARSER._actions
                           if isinstance(a, argparse._SubParsersAction)))


@st.composite
def _flag_values(draw):
    """A subcommand and text values for some of its flags, by dest."""
    subcommand = draw(st.sampled_from(_SUBCOMMANDS))
    dests = sorted({a.dest for a in _subparser(_PARSER, subcommand)._actions}
                   - {"help", "dump_config"})
    return subcommand, draw(st.dictionaries(st.sampled_from(dests),
                                            st.text(max_size=20), max_size=6))


@settings(max_examples=300, deadline=None)
@given(case=_flag_values())
def test_run_config_reads_back_as_written_or_refuses(case, config_dir):
    subcommand, values = case
    args = argparse.Namespace(subcommand=subcommand, **values)
    try:
        text = run_config_from_args(args, _subparser(_PARSER, subcommand))
    except ConfigurationError:
        # only a value with a line break is refused
        assert any(map(_breaks_a_line, values.values()))
        return
    assert not any(map(_breaks_a_line, values.values()))
    path = config_dir / "dump.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _apply_config(["--config", str(path)], _PARSER) == [subcommand] + [
        f"--{k.replace('_', '-')}={v}" for k, v in sorted(values.items())]


def test_operator_that_collapses_exits_3(capsys):
    # A = I - H = 0: every draw has |A x| = 0, so the operator is zero
    code, err = _exit_code(["operator", "--model", "symm-det-identity", "--d", "2",
                            "--b", "1", "--eta", "1", "--bins", "8", "--samples", "10"])
    assert code == EXIT_NUMERICAL
    assert "collapsed" in err and "Traceback" not in err


# rank1gauss is rank1 with its default laws: each command writes the same
# CSV and standard output for either name, and for a rank1gauss law file.
RANK1_COMMANDS = {
    "gausscheck": ["gausscheck", "--samples", "2000"],
    "integrability": ["integrability", "--samples", "2000"],
    "alpha": ["alpha", "--samples", "2000"],
    "simulate": ["simulate", "--samples", "100"],
    "operator": ["operator", "--bins", "8", "--samples", "50"],
}


@pytest.mark.parametrize("cmd", sorted(RANK1_COMMANDS))
def test_rank1_is_rank1gauss_with_its_default_laws(cmd, tmp_path, capsys):
    law = tmp_path / "gauss.law"
    law.write_text("[model]\nvariant = rank1gauss\nd = 2\nb = 8\neta = 1.5\n")
    model = ["--d", "2", "--b", "8", "--eta", "1.5"]
    runs = []
    for name, flags in (("rank1gauss", ["--model", "rank1gauss", *model]),
                        ("rank1", ["--model", "rank1", *model]),
                        ("law", ["--law-file", law])):
        out = tmp_path / f"{name}.csv"
        assert run_cli([*RANK1_COMMANDS[cmd], *flags, "--seed", "3", "--out", out]) \
            == EXIT_OK
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1] == runs[2]


def test_rank1_integrability_warns_outside_the_density_regime(tmp_path):
    with pytest.warns(RuntimeWarning, match="b > d \\+ 1"):
        assert run_cli(["integrability", "--model", "rank1", "--d", "2", "--b", "2",
                        "--eta", "0.3", "--samples", "100",
                        "--out", tmp_path / "i.csv"]) == EXIT_OK


# The Gaussian a-law with a +-1 y-law: H is still Wishart_2(8, I)
Y_MIXTURE_LAW = """\
[model]
variant = rank1
d = 2
b = 8
eta = 0.3

[y_law]
kind = mixture
values = -1.0, 1.0
probs = 0.5, 0.5
"""


def test_h_only_checks_ask_the_a_law(tmp_path):
    law = tmp_path / "ymix.law"
    law.write_text(Y_MIXTURE_LAW)
    out = tmp_path / "g.csv"
    assert run_cli(["gausscheck", "--law-file", law, "--check", "chi2",
                    "--samples", "2000", "--out", out]) == EXIT_OK
    with open(out, newline="") as fh:
        assert all(float(row["pvalue"]) > 0.01 for row in csv.DictReader(fh))
    with pytest.warns(RuntimeWarning, match="b > d \\+ 1"):
        assert run_cli(["integrability", "--law-file", law, "--b", "2",
                        "--samples", "100", "--out", tmp_path / "i.csv"]) == EXIT_OK


def test_law_of_the_wrong_dimension_exits_2(tmp_path):
    # it used to warn about rotation invariance, then fail on a reshape
    law = tmp_path / "a3.law"
    law.write_text("[model]\nvariant = rank1\nd = 2\nb = 2\neta = 0.5\n\n[a_law]\n"
                   "kind = mixture\nvectors = [1.0, 0.0, 0.0] ; [0.0, 1.0, 0.0]\n"
                   "probs = 0.5, 0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _exit_code(["alpha", "--law-file", str(law), "--samples", "100"])
    assert code == EXIT_CONFIG and "a_law" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", [["integrability"], ["gausscheck", "--check", "both"]])
def test_one_draw_runs_report_nan_quietly(cmd, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*cmd, "--model", "rank1gauss", "--d", "2", "--b", "8",
                        "--eta", "0.3", "--samples", "1",
                        "--out", tmp_path / "one.csv"]) == EXIT_OK
    assert "nan" in capsys.readouterr().out


def test_gaussian_h_law_exits_2(tmp_path):
    # an H law has no plain Gaussian kind; goe is the Gaussian matrix law
    law = tmp_path / "gauss-h.law"
    law.write_text("[model]\nvariant = symm\nd = 1\nb = 1\neta = 0.5\n\n"
                   "[h_law]\nkind = gaussian\n")
    code, err = _exit_code(["alpha", "--law-file", str(law), "--samples", "10"])
    assert code == EXIT_CONFIG and "unknown h_law kind 'gaussian'" in err


def test_alphacurve_without_a_critical_xi_exits_3(tmp_path):
    # H = -1: E<H e_1, e_1> < 0, so h(xi, 1) > 1 for every xi > 0
    law, out = tmp_path / "neg.law", tmp_path / "curve.csv"
    law.write_text("[model]\nvariant = symm\nd = 1\nb = 1\neta = 1.0\n\n"
                   "[h_law]\nkind = deterministic\nmatrices = [[-1.0]]\n")
    code, err = _exit_code(["alphacurve", "--law-file", str(law), "--xi-grid", "0.1,0.2",
                            "--samples", "100", "--out", str(out)])
    assert code == EXIT_NUMERICAL and "Traceback" not in err
    assert err.startswith("error: E<H e_1,e_1> = -1 ")
    assert not out.exists()


def test_bare_command_prints_usage_and_exits_2(capsys):
    assert run_cli([]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: heavytail") and captured.out == ""


def test_rank1gauss_law_file_with_a_law_section_exits_2(tmp_path, capsys):
    # it used to exit 0 and ignore the section
    law = tmp_path / "gauss.law"
    law.write_text("[model]\nvariant = rank1gauss\nd = 2\nb = 8\neta = 1.5\n\n[a_law]\n"
                   "kind = mixture\nvectors = [1.0, 0.0] ; [0.0, 1.0]\nprobs = 0.5, 0.5\n")
    assert run_cli(["alpha", "--law-file", law, "--samples", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rank1gauss takes no" in err and "Traceback" not in err


def test_dump_config_of_a_figure_replays(tmp_path):
    cfg_path = tmp_path / "fig1.cfg"
    first = [tmp_path / "a.csv", tmp_path / "a.svg"]
    assert run_cli(["reproduce-fig1", "--samples", "300", "--seed", "2",
                    "--out", first[0], "--svg", first[1],
                    "--dump-config", cfg_path]) == EXIT_OK
    # the presets are not flags of reproduce-fig1, so they are not dumped
    assert cfg_path.read_text() == (f"reproduce-fig1\n--out={first[0]}\n--samples=300\n"
                                    f"--seed=2\n--svg={first[1]}\n")
    again = [tmp_path / "b.csv", tmp_path / "b.svg"]
    assert run_cli(["--config", cfg_path, "--out", again[0],
                    "--svg", again[1]]) == EXIT_OK
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]


def _write_config(path, subcommand, args):
    """A run-config file: the subcommand, then one --flag=value line per
    dest in ``args``, sorted."""
    path.write_text("".join(f"{line}\n" for line in [subcommand] + [
        f"--{k.replace('_', '-')}={v}" for k, v in sorted(args.items())]))
    return str(path)


_KCURVE_CFG = {"model": "rank1gauss", "d": "2", "b": "8", "eta": "0.3",
               "s_grid": "0:0.5:2", "samples": "500"}


def test_config_given_with_an_equals_sign(tmp_path):
    path = _write_config(tmp_path / "run.cfg", "kcurve", _KCURVE_CFG)
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert run_cli([f"--config={path}", "--out", outs[0]]) == EXIT_OK
    assert run_cli(["--config", path, "--out", outs[1]]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_dumped_over_itself_replays(tmp_path):
    path = _write_config(tmp_path / "run.cfg", "kcurve", _KCURVE_CFG)
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert run_cli(["--config", path, "--s-grid", "0:1:3", "--out", outs[0],
                    "--dump-config", path]) == EXIT_OK
    updated = {**_KCURVE_CFG, "s_grid": "0:1:3", "out": str(outs[0])}
    lines = (tmp_path / "run.cfg").read_text().splitlines()
    assert lines[0] == "kcurve"
    assert {f"--{k.replace('_', '-')}={v}" for k, v in updated.items()} <= set(lines[1:])
    assert run_cli(["--config", path, "--out", outs[1]]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_that_exits_2_writes_no_dump(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    code, err = _exit_code(["kcurve", "--model", "rank1gauss", "--eta", "0.3",
                            "--s-grid", ",", "--dump-config", str(cfg_path)])
    assert code == EXIT_CONFIG and "--s-grid is empty" in err
    assert not cfg_path.exists()
    # a run that exits 3 still dumps itself
    code, _ = _exit_code(["alpha", "--model", "symm-det-identity", "--eta", "0.5",
                          "--b", "1", "--samples", "10", "--out", str(tmp_path / "a.csv"),
                          "--dump-config", str(cfg_path)])
    assert code == EXIT_NUMERICAL and cfg_path.read_text().startswith("alpha\n")


def test_run_that_exits_2_leaves_its_own_config_as_it_was(tmp_path):
    path = _write_config(tmp_path / "run.cfg", "kcurve", _KCURVE_CFG)
    before = (tmp_path / "run.cfg").read_bytes()
    code, err = _exit_code(["--config", path, "--s-grid", ",", "--dump-config", path])
    assert code == EXIT_CONFIG and "--s-grid is empty" in err
    assert (tmp_path / "run.cfg").read_bytes() == before
    assert run_cli(["--config", path, "--out", tmp_path / "a.csv"]) == EXIT_OK


@pytest.mark.parametrize("subcommand,args,flag", [
    ("alphacurve", {}, "--xi-grid"),
    ("contour", {}, "--param-grid"),
    ("moments", {"n_grid": "5"}, "--alpha"),
    ("tailbound", {"t_grid": "1,2"}, "--alpha"),
])
def test_config_without_a_required_flag_exits_2(subcommand, args, flag, tmp_path):
    path = _write_config(tmp_path / "run.cfg", subcommand,
                         {"model": "rank1gauss", "eta": "0.5", "samples": "10", **args})
    code, err = _exit_code(["--config", path])
    assert code == EXIT_CONFIG and f"the following arguments are required: {flag}" in err


def test_dump_made_under_heavytail_workers_replays_without_it(tmp_path, monkeypatch):
    # the variable no longer sets the worker count, so a dump records all
    # that shaped the run
    path, outs = tmp_path / "run.cfg", [tmp_path / "a.csv", tmp_path / "b.csv"]
    monkeypatch.setenv("HEAVYTAIL_WORKERS", "2")
    assert run_cli(["kcurve", "--model", "rank1gauss", "--d", "2", "--b", "8",
                    "--eta", "0.3", "--samples", "2000", "--out", outs[0],
                    "--dump-config", path]) == EXIT_OK
    monkeypatch.delenv("HEAVYTAIL_WORKERS")
    assert run_cli(["--config", path, "--out", outs[1]]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-vs-flags")


def _config_vs_flags_values(fuzz_models, subcommand):
    """Flag values by dest: valid ones, bad choices, bad counts and empty
    grids."""
    own = {"kcurve": {"method": st.sampled_from(["closed", "product", "exact", "prodcut"]),
                      "s_grid": _S_GRID, "n": _COUNT},
           "gausscheck": {"check": st.sampled_from(["chi2", "stam", "both", "chi", "exact"])},
           "alphacurve": {"xi_grid": _GRID}}[subcommand]
    model = st.sampled_from([{"law_file": fuzz_models[0][1]}]
                            + [{"model": m} for m in INLINE_MODELS])
    values = st.fixed_dictionaries({"d": _DIM, "b": _DIM, "eta": _REAL, "samples": _COUNT,
                                    **own})
    return st.tuples(model, values).map(lambda t: {**t[0], **t[1]})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), subcommand=st.sampled_from(["kcurve", "gausscheck", "alphacurve"]))
def test_config_values_are_read_as_the_flags_they_name(fuzz_models, config_dir, data,
                                                       subcommand):
    values = data.draw(_config_vs_flags_values(fuzz_models, subcommand))
    outs = [config_dir / "flags.csv", config_dir / "config.csv"]
    for out in outs:
        out.unlink(missing_ok=True)
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in sorted(values.items())]
    code, err = _exit_code([subcommand, *flags, f"--out={outs[0]}"])
    path = _write_config(config_dir / "run.cfg", subcommand, values)
    config_code, config_err = _exit_code(["--config", path, f"--out={outs[1]}"])
    assert config_code == code, (err, config_err)
    if code == EXIT_OK:
        assert outs[0].read_bytes() == outs[1].read_bytes()


_SCIPY_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from heavytail import cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cli.build_parser()
seen = {"build_parser": loaded()}
D2B8 = ["--model", "rank1gauss", "--d", "2", "--b", "8", "--samples", "200"]
for argv in (["simulate", *D2B8, "--eta", "1.5"],
             ["operator", *D2B8, "--eta", "0.3", "--bins", "16"],
             ["kcurve", *D2B8, "--eta", "0.3", "--method", "product", "--n", "4",
              "--s-grid", "1,2"],
             ["moments", "--law-file", "mix.law", "--alpha", "1", "--samples", "200"],
             ["tailbound", "--law-file", "mix.law", "--alpha", "1", "--n", "5",
              "--samples", "200"],
             ["alpha", *D2B8, "--eta", "1.5"],
             ["alphacurve", *D2B8, "--eta", "1.5", "--xi-grid", "0.1,0.3"],
             ["reproduce-fig1", "--samples", "200", "--svg", "fig1.svg"],
             ["reproduce-fig2", "--samples", "200", "--svg", "fig2.svg"]):
    code = cli.main(argv + ["--out", "out.csv"])
    seen[argv[0]] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def test_only_the_commands_that_need_scipy_load_it(tmp_path):
    # scipy is imported inside the functions that call it, so a process
    # starts without it; the root solves and the figures load none of it
    (tmp_path / "mix.law").write_text(MIX_LAW)
    src = str(Path(heavytail.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    for step in ("build_parser", "simulate", "operator", "kcurve", "moments", "tailbound",
                 "alpha", "alphacurve", "reproduce-fig1", "reproduce-fig2"):
        assert seen[step] == [], step
