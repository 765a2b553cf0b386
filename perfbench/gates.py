"""Output gates: every job's outputs are checked after its timed window.

A gate returns a list of problems; an empty list means the command's output
is correct. Reference values, with the seed and size that produced them,
are in reference.json. Tolerances are wide enough for Monte-Carlo noise at
the workload sizes on every seed tried (README.md gives the counts), and no
gate checks the documented known-red properties (acceptance criteria 07
and 09d).
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
ALPHA_REF = REFERENCE["alpha_d2b8_eta1.5"]["value"]
XI1_REF = REFERENCE["xi1_d2b8"]["value"]
H_REF = {float(s): v for s, v in REFERENCE["h_d2b8_eta0.3"]["value"].items()}

ALPHA_TOL = 0.05          # ~6 stderr of a 2e5-sample solve (stderr ~0.0087)
XI1_TOL = 0.002           # ~5 stderr of a 2e5-sample xi_1 solve
HILL_K = 1000             # 1% of the simulated sample
HILL_SIGMAS = 4.0         # closed-form alpha within 4 asymptotic Hill stderr
OPERATOR_REL_TOL = 0.02   # criterion 09a
# k(s) from n = 40 products is biased upward by submultiplicativity. At
# s >= 2 one large product in 2e4 can lift the estimate further (+7.9% at
# s = 3 on 1 of 100 seeds, with a reported stderr of 2.2%), so the band is
# widened by KCURVE_SIGMAS of the stderr the command reports.
KCURVE_REL_RANGE = (-0.01, 0.06)
KCURVE_SIGMAS = 4.0
TAILBOUND_SLOPE_MAX = -1.3  # criterion 08
# Figure isolines. The crossing s*(param) of h = 1 in a column is noisy
# where h is carried by a handful of large draws: at 1e5 samples its
# relative spread grows from ~1% at s ~ 2 to ~4% at s ~ 8.6, with a heavy
# lower tail (-17% at s ~ 7.4 over 600 seeds), so neighbouring fig1
# columns (independent draws) swap order there. Crossings are compared with
# 2e6-sample references: a column whose reference crossing is below
# CROSSING_PRESENT_S must cross, and those below CROSSING_CHECKED_S must be
# within CROSSING_REL_TOL of their reference (worst of 1,000 seeds per
# figure: 6.4%) and strictly monotone across columns.
FIG_REF = {name: REFERENCE[f"{name}_crossings"]["value"] for name in ("fig1", "fig2")}
CROSSING_PRESENT_S = 8.0
CROSSING_CHECKED_S = 5.5
CROSSING_REL_TOL = 0.12
MIN_CROSSINGS = 6         # criterion 12


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _stdout_number(stdout: str, label: str) -> float | None:
    match = re.search(rf"{re.escape(label)} = ([-+0-9.eE]+|nan|inf)", stdout)
    return float(match.group(1)) if match else None


def _hill(x: np.ndarray, k: int) -> float:
    top = np.sort(x)[x.size - k - 1:]
    return 1.0 / float(np.mean(np.log(top[1:]) - np.log(top[0])))


def simulate(out: Path, stdout: str) -> list[str]:
    with open(out / "simulate.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    problems = []
    if header != "sample_id,n,r_1,r_2,abs_r,log_norm_pi":
        problems.append(f"simulate header {header!r}")
    if data.shape != (100_000, 6):
        return problems + [f"simulate shape {data.shape}, want (100000, 6)"]
    if not np.isfinite(data).all():
        problems.append("simulate has non-finite values")
    if not (data[:, 1] >= 1).all() or not (data[:, 4] > 0).all():
        problems.append("simulate has paths with n < 1 or |R| = 0")
    alpha_hat = _hill(data[:, 4], HILL_K)
    if abs(alpha_hat - ALPHA_REF) > HILL_SIGMAS * alpha_hat / math.sqrt(HILL_K):
        problems.append(f"Hill alpha {alpha_hat:.4f} (k={HILL_K}) inconsistent "
                        f"with closed-form {ALPHA_REF:.4f}")
    return problems


def alpha(out: Path, stdout: str) -> list[str]:
    rows = _rows(out / "alpha.csv")
    if len(rows) != 1:
        return [f"alpha has {len(rows)} rows"]
    row = rows[0]
    if row["status"] != "converged":
        return [f"alpha status {row['status']}"]
    value = float(row["alpha"])
    if not abs(value - ALPHA_REF) <= ALPHA_TOL:
        return [f"alpha {value:.4f} vs reference {ALPHA_REF:.4f}"]
    return []


def alphacurve(out: Path, stdout: str) -> list[str]:
    problems = []
    xi1 = _stdout_number(stdout, "xi1")
    if xi1 is None or not abs(xi1 - XI1_REF) <= XI1_TOL:
        problems.append(f"xi1 {xi1} vs reference {XI1_REF:.5f}")
    rows = _rows(out / "alphacurve.csv")
    if len(rows) != 15:
        return problems + [f"alphacurve has {len(rows)} rows, want 15"]
    known = {"converged", "gamma_non_negative", "no_root_below_s_max"}
    if any(r["status"] not in known for r in rows):
        problems.append("alphacurve has an unknown status")
    conv = [(float(r["xi"]), float(r["alpha"])) for r in rows
            if r["status"] == "converged"]
    if not all(np.isfinite(a) for _, a in conv):
        problems.append("alphacurve converged point with non-finite alpha")
    if any(a2 >= a1 for (_, a1), (_, a2) in zip(conv, conv[1:])):
        problems.append("alphacurve converged alphas not decreasing in xi")
    # alpha(xi) = 1 exactly at xi_1, so the curve must cross 1 there
    if xi1 is not None and any((a - 1.0) * (xi1 - x) < 0 for x, a in conv):
        problems.append("alphacurve alpha - 1 changes sign away from xi1")
    return problems


def _crossings(rows: list[dict], param: str) -> dict[str, float | None]:
    """First upward crossing of h = 1 per column, keyed by f"{param:g}"."""
    cells: dict[float, list[tuple[float, float]]] = {}
    for row in rows:
        cells.setdefault(float(row[param]), []).append((float(row["s"]),
                                                        float(row["h"])))
    out = {}
    for p, vals in sorted(cells.items()):
        vals.sort()
        out[f"{p:g}"] = None
        for (s0, h0), (s1, h1) in zip(vals, vals[1:]):
            if h0 < 1.0 <= h1:
                out[f"{p:g}"] = s0 + (1.0 - h0) / (h1 - h0) * (s1 - s0)
                break
    return out


def _figure(out: Path, name: str, param: str, rows: int, sign: float) -> list[str]:
    problems = []
    table = _rows(out / f"{name}.csv")
    if len(table) != rows:
        problems.append(f"{name} does not have {rows} rows")
    found = _crossings(table, param)
    ref = FIG_REF[name]
    if sum(x is not None for x in found.values()) < MIN_CROSSINGS:
        problems.append(f"{name}: fewer than {MIN_CROSSINGS} isoline crossings")
    missing = [p for p, x in ref.items()
               if x is not None and x < CROSSING_PRESENT_S and found.get(p) is None]
    if missing:
        problems.append(f"{name}: no isoline crossing at {param} = {missing}")
    checked = sorted((float(p), found.get(p), x) for p, x in ref.items()
                     if x is not None and x < CROSSING_CHECKED_S)
    for p, x, x_ref in checked:
        if x is not None and not abs(x - x_ref) <= CROSSING_REL_TOL * x_ref:
            problems.append(f"{name}: crossing {x:.4f} at {param} = {p:g}, "
                            f"reference {x_ref:.4f}")
    xs = [x for _, x, _ in checked if x is not None]
    if any(sign * (b - a) <= 0 for a, b in zip(xs, xs[1:])):
        problems.append(f"{name}: isoline crossings not monotone: {xs}")
    svg = (out / f"{name}.svg").read_text(encoding="utf-8")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            and "<polyline" in svg):
        problems.append(f"{name}.svg is not a complete figure with an isoline")
    return problems


def fig1(out: Path, stdout: str) -> list[str]:
    # 12 b-columns x 40 s-points; the crossing s*(b) increases with b
    return _figure(out, "fig1", "b", 12 * 40, 1.0)


def fig2(out: Path, stdout: str) -> list[str]:
    # 30 eta-columns x 40 s-points; the crossing s*(eta) decreases with eta
    return _figure(out, "fig2", "eta", 30 * 40, -1.0)


def operator(out: Path, stdout: str) -> list[str]:
    problems = []
    lam = _stdout_number(stdout, "leading eigenvalue")
    href = H_REF[1.0]
    if lam is None or not abs(lam - href) <= OPERATOR_REL_TOL * href:
        problems.append(f"leading eigenvalue {lam} vs h = {href:.4f}")
    rows = _rows(out / "operator.csv")
    if len(rows) != 256:
        return problems + [f"operator has {len(rows)} rows"]
    measure = np.array([float(r["eigenmeasure"]) for r in rows])
    if (measure < 0).any() or not abs(measure.sum() - 1.0) <= 1e-9:
        problems.append("eigenmeasure is not a probability vector")
    return problems


def kcurve(out: Path, stdout: str) -> list[str]:
    rows = _rows(out / "kcurve.csv")
    if [float(r["s"]) for r in rows] != sorted(H_REF):
        return [f"kcurve s-grid {[r['s'] for r in rows]}"]
    problems = []
    lo, hi = KCURVE_REL_RANGE
    for r in rows:
        href = H_REF[float(r["s"])]
        rel = float(r["estimate"]) / href - 1.0
        slack = KCURVE_SIGMAS * float(r["stderr"]) / href
        if r["method"] != "product_limit" or r["n_used"] != "20000":
            problems.append(f"kcurve row {r}")
        if not lo - slack <= rel <= hi + slack:
            problems.append(f"k({r['s']}) is {rel:+.4f} off the closed form "
                            f"(stderr {float(r['stderr']) / href:.4f})")
    return problems


def moments(out: Path, stdout: str) -> list[str]:
    # structure only: the moment band itself is the known-red criterion 07
    rows = _rows(out / "moments.csv")
    if [int(r["n"]) for r in rows] != [50, 100, 200, 400, 800]:
        return [f"moments n-grid {[r['n'] for r in rows]}"]
    problems = []
    for r in rows:
        est, se = float(r["estimate"]), float(r["stderr"])
        if not (np.isfinite(est) and est > 0 and np.isfinite(se) and se >= 0):
            problems.append(f"moments row {r}")
        if r["samples_used"] != "100000":
            problems.append(f"moments n={r['n']} used {r['samples_used']} samples")
    return problems


def tailbound(out: Path, stdout: str) -> list[str]:
    problems = []
    rows = _rows(out / "tailbound.csv")
    exceed = [float(r["exceedance"]) for r in rows]
    if len(rows) != 12 or any(b > a for a, b in zip(exceed, exceed[1:])):
        problems.append("tailbound exceedance curve is not 12 non-increasing points")
    slope = _stdout_number(stdout, "top-decade log-log slope")
    if slope is None or not slope <= TAILBOUND_SLOPE_MAX:
        problems.append(f"tailbound slope {slope}, want <= {TAILBOUND_SLOPE_MAX}")
    if "widened_uncertainty = False" not in stdout:
        problems.append("tailbound flagged widened uncertainty")
    return problems


GATES = {
    "simulate": simulate, "alpha": alpha, "alphacurve": alphacurve,
    "fig1": fig1, "fig2": fig2, "operator": operator, "kcurve": kcurve,
    "moments": moments, "tailbound": tailbound,
}
